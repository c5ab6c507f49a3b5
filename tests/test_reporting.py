import json

import pytest

from cliffchain import reporting
from cliffchain.checks import VerificationReport
from cliffchain.reporting import (
    CampaignConfig,
    emit,
    report_to_json,
    report_to_text,
    run_campaign,
)


def _scrub(report):
    doc = json.loads(report_to_json(report))
    doc.pop("timestamp")
    doc["summary"].pop("seconds")
    for row in doc["checks"]:
        row.pop("seconds")
    return doc


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig("nonsense")
    with pytest.raises(ValueError):
        CampaignConfig("transfer", n_list=(1,))
    with pytest.raises(ValueError):
        CampaignConfig("transfer", tol_match=0.0)
    with pytest.raises(ValueError):
        CampaignConfig("transfer", l_list=(0,))


def test_empty_n_list_gives_empty_report():
    report = run_campaign(CampaignConfig("all", n_list=()))
    assert report["checks"] == []
    assert report["tables"] == {}
    assert report["summary"]["total"] == 0
    assert report["summary"]["fail"] == 0


def test_transfer_campaign_passes_and_tabulates():
    report = run_campaign(CampaignConfig("transfer", n_list=(3, 6)))
    assert report["summary"]["fail"] == 0
    eig = report["tables"]["eigenvalues"]
    n6 = sorted((v, m) for n, v, m in eig if n == 6)
    assert n6[0] == pytest.approx((-1.0, 1))
    assert sum(m for _, m in n6) == 64
    corr = [r for r in report["tables"]["correlators"] if r[0] == 6]
    assert len(corr) == 11


def test_rows_are_sorted_and_typed():
    report = run_campaign(CampaignConfig("rdm", n_list=(4, 3), l_list=(3, 2)))
    keys = [
        (r["campaign"], r["n"] or -1, r["l"] or -1, r["name"])
        for r in report["checks"]
    ]
    assert keys == sorted(keys)
    for row in report["checks"]:
        for v in row["numbers"].values():
            assert isinstance(v, (int, float, str))


def test_json_round_trip():
    report = run_campaign(CampaignConfig("spt", n_list=(3,)))
    assert json.loads(report_to_json(report)) == report


def test_determinism_modulo_timing():
    cfg = dict(n_list=(3, 4), l_list=(2, 3))
    a = run_campaign(CampaignConfig("rdm", **cfg))
    b = run_campaign(CampaignConfig("rdm", **cfg))
    assert _scrub(a) == _scrub(b)


def test_selftest_deterministic_given_seed():
    a = run_campaign(CampaignConfig("clifford-selftest", n_list=(4,), seed=7))
    b = run_campaign(CampaignConfig("clifford-selftest", n_list=(4,), seed=7))
    assert _scrub(a) == _scrub(b)
    c = run_campaign(CampaignConfig("clifford-selftest", n_list=(4,), seed=8))
    na = next(r for r in a["checks"] if r["name"] == "matrix-oracle")["numbers"]
    nc = next(r for r in c["checks"] if r["name"] == "matrix-oracle")["numbers"]
    assert na["seed"] == 7 and nc["seed"] == 8


def test_parent_campaign_skips_are_reported(tmp_path):
    report = run_campaign(CampaignConfig("parent", n_list=(6,)))
    skipped = [r for r in report["checks"] if r["status"] == "skip"]
    assert skipped
    assert all(r["notes"] == "cap-exceeded" for r in skipped)
    assert {(r["n"], r["l"]) for r in skipped} == {(6, 6)}


def test_cpt_campaign_skips_odd_n_and_flags_swapped_time_reversal():
    report = run_campaign(CampaignConfig("cpt", n_list=(5, 6), l_list=(4,)))
    odd = [r for r in report["checks"] if r["n"] == 5]
    assert all(r["status"] == "skip" for r in odd)
    assert all(r["notes"] == "not-applicable-odd-n" for r in odd)
    tr = [r for r in report["checks"] if r["n"] == 6 and r["name"] == "time-reversal"]
    assert len(tr) == 1 and tr[0]["status"] == "fail"
    assert tr[0]["numbers"]["time_reversal_swap"] < 1e-9
    conj = [r for r in report["checks"] if r["n"] == 6 and r["name"] == "conjugation"]
    assert conj[0]["status"] == "pass"


def test_emit_text_and_json_files(tmp_path):
    report = run_campaign(CampaignConfig("transfer", n_list=(4,)))
    out = tmp_path / "report.json"
    written = emit(report, "json", str(out))
    assert written == [str(out)]
    assert json.loads(out.read_text()) == report
    text = report_to_text(report)
    assert "summary:" in text and "eigenvalues n=4:" in text


def test_emit_csv_tables(tmp_path):
    report = run_campaign(CampaignConfig("transfer", n_list=(6,)))
    written = emit(report, "csv-tables", str(tmp_path / "run"))
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert names == {"run_checks.csv", "run_eigenvalues.csv", "run_correlators.csv"}
    eig = (tmp_path / "run_eigenvalues.csv").read_text().splitlines()
    assert eig[0] == "n,value,multiplicity"
    floats = [row.split(",")[1] for row in eig[1:]]
    assert any(len(f) >= 17 for f in floats)
    with pytest.raises(ValueError):
        emit(report, "csv-tables", None)
    with pytest.raises(ValueError):
        emit(report, "yaml", str(tmp_path / "x"))


def _row(report, name, n, l):
    rows = [r for r in report["checks"] if (r["name"], r["n"], r["l"]) == (name, n, l)]
    assert len(rows) == 1
    return rows[0]


def test_tol_kernel_reaches_the_parent_check():
    # at (3, 4) the cut-off 0.2 times the norm bound 8 is 1.6, above the
    # first excited level 0.898, so the kernel comes out too large
    loose = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(4,), tol_kernel=0.2))
    assert _row(loose, "parent-kernel", 3, 4)["status"] == "fail"
    assert _row(loose, "parent-kernel", 3, 4)["numbers"]["kernel_dim"] > 4
    default = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(4,)))
    assert _row(default, "parent-kernel", 3, 4)["status"] == "pass"


def test_cap_sparse_is_the_parent_cap():
    at = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(6,), cap_sparse=729))
    assert _row(at, "parent-kernel", 3, 6)["status"] == "pass"
    assert _row(at, "frustration-free", 3, 6)["status"] == "pass"
    below = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(6,), cap_sparse=728))
    for name in ("parent-kernel", "frustration-free"):
        row = _row(below, name, 3, 6)
        assert row["status"] == "skip" and row["notes"] == "cap-exceeded"


def test_cap_sparse_above_the_default_widens_the_grid(monkeypatch):
    def fake_parent_check(n, l, cap, tol):
        assert n**l <= cap
        return VerificationReport(f"parent_check(n={n}, l={l})", True, {"dim": float(n**l)})

    monkeypatch.setattr(reporting, "parent_check", fake_parent_check)
    report = run_campaign(CampaignConfig("parent", n_list=(4,), cap_sparse=4**7))
    lengths = {r["l"] for r in report["checks"] if r["name"] == "parent-kernel"}
    assert lengths == {4, 5, 6, 7}
    assert _row(report, "parent-kernel", 4, 7)["numbers"]["dim"] == 4**7
    assert _row(report, "frustration-free", 4, 7)["notes"] == "cap-exceeded"


def test_a_raising_shared_input_fails_rows_not_the_campaign(monkeypatch):
    def broken(n, l, boundary):
        raise ValueError("no spectrum")

    monkeypatch.setattr(reporting, "rdm_eigen_by_grade", broken)
    report = run_campaign(CampaignConfig("rdm", n_list=(3, 4), l_list=(2,)))
    assert [r["name"] for r in report["checks"]] == [
        "grade-multiplicities", "marginal-spectrum",
        "grade-multiplicities", "marginal-spectrum", "pure-state-pair",
    ]
    for row in report["checks"]:
        assert row["status"] == "fail"
        assert row["notes"] == "error: ValueError: no spectrum"
    assert "mu_by_length" not in report["tables"]
    assert report["summary"]["fail"] == 5
