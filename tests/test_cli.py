import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cliffchain.cli import main


def test_empty_n_list_exits_zero(capsys):
    assert main(["transfer", "--n", ""]) == 0
    out = capsys.readouterr().out
    assert "0 pass, 0 fail" in out


def test_transfer_json_to_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["transfer", "--n", "6", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["config"]["n_list"] == [6]
    assert all(r["status"] == "pass" for r in doc["checks"])


def test_spt_example(capsys):
    assert main(["spt", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "index-clifford" in out and "index-product" in out


def test_check_failure_exit_code():
    # time reversal swaps the pair at this n, so the contract row fails
    assert main(["cpt", "--n", "6", "--l", "4", "--out", "/dev/null"]) == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-campaign"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["transfer", "--n", "3;4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["transfer", "--format", "csv-tables"])
    assert err.value.code == 2


def test_bad_n_value_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["transfer", "--n", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--tol-kernel", "nan"), ("--tol-match", "inf"), ("--seed", "-1"),
])
def test_bad_tolerance_or_seed_exits_two(flag, value):
    # a nan cut-off passes every frustration-free row and a negative seed
    # turns the seeded rows into errors, so both are usage errors
    with pytest.raises(SystemExit) as err:
        main(["parent", "--n", "3", flag, value])
    assert err.value.code == 2


def test_csv_tables_writes_files(tmp_path, capsys):
    code = main(
        ["transfer", "--n", "3", "--format", "csv-tables", "--out", str(tmp_path / "t")]
    )
    assert code == 0
    assert (tmp_path / "t_checks.csv").exists()
    assert (tmp_path / "t_eigenvalues.csv").exists()
    header = (tmp_path / "t_checks.csv").read_text().splitlines()[0]
    assert header.startswith("campaign,n,l,name,status,notes,seconds")


def test_seed_is_threaded_through(tmp_path):
    out = tmp_path / "s.json"
    assert main([
        "clifford-selftest", "--n", "4", "--seed", "3",
        "--format", "json", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 3


def test_import_loads_no_graph_module():
    # the package, the CLI, the cpt/spt/Gram paths and the parent campaign
    # with its dense Hamiltonian oracles load numpy and the top-level scipy
    # package alone; hamiltonians.spla loads scipy.sparse.linalg on access
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = """
import sys
import cliffchain, cliffchain.cli
from cliffchain.hamiltonians import frustration_free_check, so_n_aklt
from cliffchain.mps import rdm_eigen_by_grade
from cliffchain.reporting import CampaignConfig, run_campaign
from cliffchain.spt import conjugation_check, on_site_breaking_check
on_site_breaking_check(4, 4)
rdm_eigen_by_grade(6, 4, "plus")
conjugation_check(4, 4)
run_campaign(CampaignConfig("parent", n_list=(3,)))
frustration_free_check(so_n_aklt(3), 4, 3)
print(sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg"))))
print(callable(cliffchain.hamiltonians.spla.eigsh))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "True"]
