import json

import pytest

from cliffchain import clifford, reporting
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


def test_report_records_the_machine():
    report = run_campaign(CampaignConfig("transfer", n_list=(3,)))
    machine = json.loads(report_to_json(report))["machine"]
    assert report["schema"] == 1
    assert set(machine) == {"nproc", "numpy", "scipy"}
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    assert isinstance(machine["numpy"], str) and isinstance(machine["scipy"], str)


def test_transfer_campaign_passes_and_tabulates():
    report = run_campaign(CampaignConfig("transfer", n_list=(3, 6)))
    assert report["summary"]["fail"] == 0
    eig = report["tables"]["eigenvalues"]
    n6 = sorted((v, m) for n, v, m in eig if n == 6)
    assert n6[0] == pytest.approx((-1.0, 1))
    assert sum(m for _, m in n6) == 64
    corr = [r for r in report["tables"]["correlators"] if r[0] == 6]
    assert len(corr) == 11


def test_peripheral_count_is_the_closed_form():
    # grade 0 at odd n, grades 0 and n at even n, counted by |v| == 1 exactly
    report = run_campaign(CampaignConfig("transfer", n_list=(3, 4, 9, 10)))
    for n in (3, 4, 9, 10):
        row = _row(report, "peripheral-count", n, None)
        assert row["status"] == "pass"
        assert row["numbers"]["peripheral"] == row["numbers"]["expected"] == (1 if n % 2 else 2)


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


def test_parent_campaign_is_deterministic():
    # (4, 6), (5, 5) and (5, 6) are past the dense solver's cap
    cfg = CampaignConfig("parent", n_list=(4, 5), l_list=(5, 6))
    a, b = run_campaign(cfg), run_campaign(cfg)
    assert [r["numbers"] for r in a["checks"]] == [r["numbers"] for r in b["checks"]]


def test_selftest_deterministic_given_seed():
    a = run_campaign(CampaignConfig("clifford-selftest", n_list=(4,), seed=7))
    b = run_campaign(CampaignConfig("clifford-selftest", n_list=(4,), seed=7))
    assert _scrub(a) == _scrub(b)
    c = run_campaign(CampaignConfig("clifford-selftest", n_list=(4,), seed=8))
    na = next(r for r in a["checks"] if r["name"] == "matrix-oracle")["numbers"]
    nc = next(r for r in c["checks"] if r["name"] == "matrix-oracle")["numbers"]
    assert na["seed"] == 7 and nc["seed"] == 8


def test_matrix_oracle_catches_a_wrong_sign_word(monkeypatch):
    right_word = clifford._suffix_parity
    monkeypatch.setattr(clifford, "_suffix_parity", lambda bits: right_word(bits) ^ 1)
    report = run_campaign(CampaignConfig("clifford-selftest", n_list=(4, 7)))
    for n in (4, 7):
        oracle = _row(report, "matrix-oracle", n, None)
        assert oracle["status"] == "fail"
        assert oracle["numbers"]["max_product_rel"] > 1e-10
        # the realization side uses no sign code, so it is not affected
        assert oracle["numbers"]["max_trace_rel"] < 1e-14
        assert _row(report, "anticommutation", n, None)["status"] == "pass"


def test_selftest_covers_n_up_to_ten():
    report = run_campaign(CampaignConfig("clifford-selftest", n_list=(9, 10, 11)))
    for n in (9, 10):
        oracle = _row(report, "matrix-oracle", n, None)
        assert oracle["status"] == "pass"
        assert oracle["numbers"]["samples"] == 500
        assert oracle["numbers"]["max_product_rel"] < 1e-14
        assert oracle["numbers"]["max_trace_rel"] < 1e-14
        assert _row(report, "anticommutation", n, None)["status"] == "pass"
    assert _row(report, "matrix-oracle", 11, None)["notes"] == "cap-exceeded"
    assert [r["name"] for r in report["checks"] if r["n"] == 11] == ["matrix-oracle"]


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
    site = [r for r in report["checks"] if r["n"] == 6 and r["name"] == "on-site-breaking"]
    assert site[0]["status"] == "pass"
    # every pair row carries both margins: the side its verdict chose, the side it rejected
    for row in tr + conj + site:
        numbers = row["numbers"]
        assert numbers["matched_residual"] < 1e-9 < numbers["unmatched_residual"]
    assert tr[0]["numbers"]["matched_residual"] == tr[0]["numbers"]["time_reversal_swap"]
    assert tr[0]["numbers"]["unmatched_residual"] == tr[0]["numbers"]["time_reversal_fix"]
    assert site[0]["numbers"]["matched_residual"] == site[0]["numbers"]["flip_residual"]
    assert site[0]["numbers"]["unmatched_residual"] == site[0]["numbers"]["flip_unmatched"]


def test_tol_match_reaches_the_on_site_breaking_row():
    # rounding leaves residuals of order 1e-16, so a tolerance of 1e-30 fails the row
    config = CampaignConfig("cpt", n_list=(4,), l_list=(4,), tol_match=1e-30)
    rows = {r["name"]: r for r in run_campaign(config)["checks"]}
    assert rows["on-site-breaking"]["numbers"]["rotation_residual"] > 1e-30
    assert rows["on-site-breaking"]["status"] == "fail"


def test_rdm_campaign_runs_past_the_old_grid_guards():
    # n = 12, 16 and l = 20, 41 were cap-exceeded skips while the spectra took
    # a 2^(n-1) Gram; the closed form runs there in O(n l)
    report = run_campaign(CampaignConfig("rdm", n_list=(12, 16), l_list=(20, 41)))
    rows = {(r["n"], r["l"], r["name"]): r["status"] for r in report["checks"]}
    names = ("marginal-spectrum", "grade-multiplicities", "pure-state-pair")
    assert rows == {(n, l, name): "pass" for n in (12, 16) for l in (20, 41) for name in names}
    for n in (12, 16):
        for l in (20, 41):
            grades = [g for nn, ll, g, _ in report["tables"]["mu_by_length"] if (nn, ll) == (n, l)]
            assert grades == reporting._expected_grades(n, l)


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


def test_tol_kernel_reaches_the_rows_with_a_cutoff():
    # the cut-off applies to each site step, relative to the norm bound of
    # the term: 0.7 * 8/3 = 1.87 for the n = 3 term, above its smallest
    # dropped singular value 1.73, and 0.7 * 4/3 = 0.93 for the spin-1
    # term, above its 0.87, so both kernels come out too large; the exact
    # parent-kernel row has no cut-off to loosen
    loose = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(4,), tol_kernel=0.7))
    free = _row(loose, "frustration-free", 3, 4)
    assert free["status"] == "fail" and free["numbers"]["intersection_dim"] > 4
    assert free["numbers"]["cutoff"] == pytest.approx(0.7 * 8 / 3)
    spin1 = _row(loose, "spin1-kernel-dim", 3, None)
    assert spin1["status"] == "fail" and spin1["numbers"]["kernel_dim"] > 4
    assert spin1["numbers"]["cutoff"] == pytest.approx(0.7 * 4 / 3)
    assert _row(loose, "parent-kernel", 3, 4)["status"] == "pass"
    default = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(4,)))
    assert {r["status"] for r in default["checks"]} == {"pass"}


def test_kernel_rows_report_the_cutoff_between_their_margins():
    report = run_campaign(CampaignConfig("parent", n_list=(2, 3, 4)))
    pairs = 0
    for row in report["checks"]:
        numbers = row["numbers"]
        for prefix in ("", "oracle_"):
            if prefix + "cutoff" in numbers:
                kept, dropped = numbers[prefix + "kept_max"], numbers[prefix + "dropped_min"]
                assert kept <= numbers[prefix + "cutoff"] < dropped
                pairs += 1
    names = {r["name"] for r in report["checks"] if "cutoff" in r["numbers"]}
    assert names == {"dimer-kernel-dims", "spin1-kernel-dim", "frustration-free"}
    assert pairs > len(names)
    assert _row(report, "frustration-free", 3, 4)["numbers"]["cutoff"] == pytest.approx(1e-10 * 8 / 3)


def test_kernel_dimension_rows_match_the_assembled_kernels():
    # the rows read the growth alone; the assembled bases give the same numbers
    from cliffchain.hamiltonians import aklt_su2, chain_kernel, majumdar_ghosh

    report = run_campaign(CampaignConfig("parent", n_list=(2, 3)))
    dimer = [chain_kernel(majumdar_ghosh(), length, 2) for length in (4, 5, 6, 7)]
    spin1 = chain_kernel(aklt_su2(), 4, 3)
    for name, n, kernels in (("dimer-kernel-dims", 2, dimer), ("spin1-kernel-dim", 3, [spin1])):
        numbers = _row(report, name, n, None)["numbers"]
        assert numbers["kept_max"] == max(K.kept_max for K in kernels)
        assert numbers["cutoff"] == max(K.tol for K in kernels)
        assert numbers["dropped_min"] == min(K.dropped_min for K in kernels)
    assert [_row(report, "dimer-kernel-dims", 2, None)["numbers"][f"dim_l{length}"]
            for length in (4, 5, 6, 7)] == [K.dim for K in dimer]
    assert _row(report, "spin1-kernel-dim", 3, None)["numbers"]["kernel_dim"] == spin1.dim


def test_cap_sparse_is_the_parent_cap():
    at = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(6,), cap_sparse=729))
    assert _row(at, "parent-kernel", 3, 6)["status"] == "pass"
    assert _row(at, "frustration-free", 3, 6)["status"] == "pass"
    below = run_campaign(CampaignConfig("parent", n_list=(3,), l_list=(6,), cap_sparse=728))
    for name in ("parent-kernel", "frustration-free"):
        row = _row(below, name, 3, 6)
        assert row["status"] == "skip" and row["notes"] == "cap-exceeded"


def test_cap_sparse_above_the_default_widens_the_grid(monkeypatch):
    def fake_parent_check(n, l):
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


def test_all_campaign_forms_no_clifford_product(monkeypatch):
    calls = []
    product = clifford.CliffordElement.__mul__

    def counted(self, other):
        calls.append(type(other).__name__)
        return product(self, other)

    monkeypatch.setattr(clifford.CliffordElement, "__mul__", counted)
    report = run_campaign(CampaignConfig("all", n_list=(3, 4)))
    assert report["summary"]["pass"] > 0
    assert calls == []


def test_wedge_branching_fails_on_a_generator_with_a_wrong_sign(monkeypatch):
    right = reporting.wedge_generator

    def wrong(n, k, i, j):
        return -right(n, k, i, j) if (i, j) == (1, 2) else right(n, k, i, j)

    monkeypatch.setattr(reporting, "wedge_generator", wrong)
    report = run_campaign(CampaignConfig("repr-dims", n_list=(3, 4, 5, 6)))
    for n in (3, 4, 5, 6):
        row = _row(report, "wedge-branching", n, None)
        assert row["status"] == "fail"
        assert row["notes"] == "wedge summand missing from the pair blocks"
