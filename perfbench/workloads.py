"""The three benchmark workloads and their correctness gates.

Each workload has three steps, run in one fresh process per pass:

- ``setup(seed)`` imports ``cliffchain`` and builds the inputs;
- ``run(inputs)`` is the timed pass; it calls the library through module
  attributes, so that the tracer's rebound wrappers see every call;
- ``gate(output, expected)`` compares the output with the reference
  recorded in ``expected.json`` and returns a ``Gate``.

The seed reaches the program where the program takes one,
``CampaignConfig.seed`` and the ``seed=`` argument of
``on_site_breaking_check``, and where it draws without one: ARPACK's start
vectors (see ``seed_arpack``).  The same seed gives the same pass.
``gram-frontier`` is deterministic.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "expected.json"

CAMPAIGN_N_LIST = (3, 4, 5, 6)
GRAM_GRID = ((10, 8), (10, 12))
GRAM_CPT = (8, 8)
GRAM_VERDICTS = ("FIXES", "FIXES", "INVARIANT")
ROTOR_N, ROTOR_L, ROTOR_ROTATIONS = 8, 4, 1
SPECTRUM_TOL = 1e-10


@dataclass
class Gate:
    """Outcome of one pass's correctness gate.

    ``checks`` and ``checks_failed`` count the program's own checks (the base
    of ``check_fail_ratio``); ``problems`` lists every way the output differs
    from the reference.  A pass with problems is not a timing.
    """

    checks: int
    checks_failed: int
    problems: list = field(default_factory=list)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_rows(report: dict) -> list:
    """The campaign's row set: (campaign, n, l, name, status), sorted."""
    rows = [[r["campaign"], r["n"], r["l"], r["name"], r["status"]] for r in report["checks"]]
    return sorted(rows, key=lambda r: [-1 if v is None else v for v in r])


# ---------------------------------------------------------------------------
# campaign-all: the `cliffchain all` run
# ---------------------------------------------------------------------------


def seed_arpack(hamiltonians, seed: int) -> None:
    """Draw ARPACK's start vectors in ``hamiltonians`` from ``seed``.

    Without ``v0``, scipy's ``eigsh`` draws the start vector as
    ``uniform(-1, 1, n)`` from a fresh ``default_rng()``, that is from OS
    entropy, and for complex matrices it drops its ``rng`` argument.  So
    ``CampaignConfig.seed`` does not reach ARPACK, and the ARPACK rows of one
    seed differ from pass to pass.  This passes the same draw, from one
    generator seeded with ``seed``, as ``v0``.
    """
    import numpy as np

    from tracer import ModuleProxy

    spla = hamiltonians.spla
    rng = np.random.default_rng(seed)

    def eigsh(A, *args, **kwargs):
        kwargs.setdefault("v0", rng.uniform(-1.0, 1.0, A.shape[0]))
        return spla.eigsh(A, *args, **kwargs)

    hamiltonians.spla = ModuleProxy(spla, eigsh=eigsh)


def campaign_setup(seed: int) -> dict:
    from cliffchain import hamiltonians, reporting

    seed_arpack(hamiltonians, seed)
    config = reporting.CampaignConfig("all", n_list=CAMPAIGN_N_LIST, seed=seed)
    return {"reporting": reporting, "config": config}


def campaign_run(inputs: dict) -> dict:
    reporting = inputs["reporting"]
    report = reporting.run_campaign(inputs["config"])
    return {"report": report, "json": reporting.report_to_json(report)}


def campaign_gate(output: dict, expected: dict) -> Gate:
    rows = check_rows(output["report"])
    decided = [r for r in rows if r[4] != "skip"]
    gate = Gate(len(decided), sum(r[4] == "fail" for r in decided))
    want = [list(r) for r in expected["campaign-all"]["rows"]]
    if rows != want:
        missing = [r for r in want if r not in rows]
        extra = [r for r in output["report"]["checks"]
                 if [r["campaign"], r["n"], r["l"], r["name"], r["status"]] not in want]
        gate.problems.append(f"row set differs: missing {missing[:5]}, unexpected {extra[:5]}")
    return gate


# ---------------------------------------------------------------------------
# gram-frontier: Gram/frame route past the campaign's RDM_MAX_N cap
# ---------------------------------------------------------------------------


def gram_setup(seed: int) -> dict:
    from cliffchain import mps, spt

    del seed  # no part of this workload is random
    return {"mps": mps, "spt": spt}


def gram_run(inputs: dict) -> dict:
    mps, spt = inputs["mps"], inputs["spt"]
    spectra = {
        f"{n},{l},{b}": mps.rdm_eigen_by_grade(n, l, b)
        for n, l in GRAM_GRID
        for b in ("plus", "minus")
    }
    n, l = GRAM_CPT
    verdicts = [
        spt.conjugation_check(n, l)[0],
        spt.reflection_check(n, l)[0],
        spt.time_reversal_check(n, l)[0],
    ]
    return {"spectra": spectra, "verdicts": verdicts}


def _layout(spectrum) -> list:
    return [[int(g), int(m)] for g, _, m in spectrum]


def _spectrum_problems(label: str, got, want) -> list:
    """Differences between two (grade, mu, multiplicity) spectra."""
    if _layout(got) != _layout(want):
        return [f"{label}: grade layout {_layout(got)} != {_layout(want)}"]
    dev = max((abs(a[1] - b[1]) for a, b in zip(got, want)), default=0.0)
    if dev > SPECTRUM_TOL:
        return [f"{label}: eigenvalues deviate by {dev:.3e} > {SPECTRUM_TOL:g}"]
    return []


def gram_gate(output: dict, expected: dict) -> Gate:
    ref = expected["gram-frontier"]["spectra"]
    spectra = output["spectra"]
    gate = Gate(len(GRAM_GRID) + len(GRAM_VERDICTS), 0)
    for n, l in GRAM_GRID:
        plus, minus = spectra[f"{n},{l},plus"], spectra[f"{n},{l},minus"]
        problems = _spectrum_problems(f"(n={n}, l={l}) plus vs minus", plus, minus)
        for b in ("plus", "minus"):
            key = f"{n},{l},{b}"
            problems += _spectrum_problems(f"({key}) vs reference", spectra[key], ref[key])
        gate.checks_failed += bool(problems)
        gate.problems += problems
    for got, want in zip(output["verdicts"], GRAM_VERDICTS):
        if got != want:
            gate.checks_failed += 1
            gate.problems.append(f"verdict {got} != {want}")
    return gate


# ---------------------------------------------------------------------------
# rotor-frames: dense rotor applied to every frame element
# ---------------------------------------------------------------------------


def rotor_setup(seed: int) -> dict:
    from cliffchain import spt

    return {"spt": spt, "seed": seed}


def rotor_run(inputs: dict) -> dict:
    spt = inputs["spt"]
    report = spt.on_site_breaking_check(
        ROTOR_N, ROTOR_L, rotations=ROTOR_ROTATIONS, seed=inputs["seed"]
    )
    return {"report": report, "tol": spt.VERDICT_TOL}


def rotor_gate(output: dict, expected: dict) -> Gate:
    del expected
    report, tol = output["report"], output["tol"]
    gate = Gate(1, 0)
    if not report.passed:
        gate.problems.append(f"{report.name} did not pass: {report.numbers}")
    for key in ("rotation_residual", "flip_residual", "spectrum_deviation"):
        if not report.numbers[key] < tol:
            gate.problems.append(f"{key} = {report.numbers[key]:.3e} >= {tol:g}")
    gate.checks_failed = int(bool(gate.problems))
    return gate


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    gate: object


WORKLOADS = {
    "campaign-all": Workload(campaign_setup, campaign_run, campaign_gate),
    "gram-frontier": Workload(gram_setup, gram_run, gram_gate),
    "rotor-frames": Workload(rotor_setup, rotor_run, rotor_gate),
}
