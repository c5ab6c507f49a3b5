"""Acceptance battery: one test per headline property, one line printed each.

Two clauses check derived values rather than idealized ones:

- 06: only word pairs with equal or complementary parity masks contribute
  to Tr(rho+ rho-), and a Fourier sum over x in {+-1}^n gives
  2^(1-n) sum_{x_1...x_n = -1} (sum_i x_i / n)^(2l), which is 4^(-l) at n = 4,
  so the two marginals orthogonalize only as l -> infinity.
- 09: time reversal is conjugation followed by the spin lift of theta, and
  theta has determinant 1, so like every special rotation it fixes each of
  rho+- and the time-reversal verdict equals the conjugation verdict: SWAPS
  at n = 2 mod 4.
"""

import itertools
import time
from math import comb, log, prod

import numpy as np
import pytest

from cliffchain.clifford import realize
from cliffchain.hamiltonians import (
    aklt_su2,
    chain_entries,
    chain_kernel,
    kernel_basis,
    majumdar_ghosh,
    mps_ground_space,
    parent_check,
    projector_distance,
    so_n_aklt,
)
from cliffchain.mps import (
    frame_operator_distance,
    frame_product_trace,
    rdm_eigen_by_grade,
    rdm_frame,
    transfer_eigenvalue,
    transfer_spectrum,
    two_point_correlation,
)
from cliffchain.reporting import CampaignConfig, run_campaign
from cliffchain.so_n import spin_projector
from cliffchain.spt import (
    FIXES,
    INVARIANT,
    SWAPS,
    aklt_tensors,
    clifford_tensors,
    cocycle_sign,
    conjugation_check,
    mps_spt_index,
    on_site_breaking_check,
    product_tensors,
    reflection_check,
    theta_matrix,
    time_reversal_check,
)


def _check(label, clauses, t0, budget):
    elapsed = time.perf_counter() - t0
    clauses = list(clauses) + [("wall_clock_s", elapsed < budget, elapsed)]
    bad = [(d, v) for d, ok, v in clauses if not ok]
    status = "PASS" if not bad else "FAIL"
    detail = "; ".join(
        f"{d}={v:.6g}" if isinstance(v, float) else f"{d}={v}" for d, v in bad
    )
    print(f"[{status}] {label}" + (f": {detail}" if detail else ""))
    assert not bad, f"{label}: {detail}"


def test_acceptance_01_transfer_spectra_match_class_formula():
    t0 = time.perf_counter()
    clauses = []
    for n in range(3, 9):
        spectrum = transfer_spectrum(n, "E")
        kmax = n if n % 2 == 0 else (n - 1) // 2
        expected = sorted(
            ((transfer_eigenvalue(n, k), comb(n, k)) for k in range(kmax + 1)),
            key=lambda p: -p[0],
        )
        got = spectrum.eigenvalues
        same_shape = [m for _, m in got] == [m for _, m in expected]
        dev = (
            max(abs(a - b) for (a, _), (b, _) in zip(got, expected))
            if same_shape
            else 1.0
        )
        clauses.append((f"n{n}_multiplicities", same_shape, str(got)))
        clauses.append((f"n{n}_value_dev", dev < 1e-10, dev))
    _check("transfer-spectra", clauses, t0, 5.0)


def test_acceptance_02_spin1_chain_is_projector_with_known_spectrum():
    t0 = time.perf_counter()
    H = aklt_su2()
    P = spin_projector(1, 2)
    gap = float(np.linalg.norm(H - P, 2))
    spectrum = transfer_spectrum(3, "E")
    expected = [(1.0, 1), (-1.0 / 3.0, 3)]
    same_shape = [m for _, m in spectrum.eigenvalues] == [1, 3]
    dev = (
        max(abs(a - b) for (a, _), (b, _) in zip(spectrum.eigenvalues, expected))
        if same_shape
        else 1.0
    )
    clauses = [
        ("projector_norm", gap < 1e-12, gap),
        ("transfer_shape", same_shape, str(spectrum.eigenvalues)),
        ("transfer_dev", dev < 1e-12, dev),
    ]
    _check("spin1-projector", clauses, t0, 1.0)


def test_acceptance_03_n6_subleading_third_and_decay_slope():
    t0 = time.perf_counter()
    shared = transfer_spectrum(6, "F_shared")
    moduli = sorted({abs(v) for v, _ in shared.eigenvalues}, reverse=True)
    sub = moduli[1]
    probe = np.zeros((6, 6), dtype=complex)
    probe[0, 1], probe[1, 0] = 1.0j, -1.0j
    rs = list(range(2, 13))
    vals = [abs(two_point_correlation(6, probe, probe, r, "plus")) for r in rs]
    slope = float(np.polyfit(rs, np.log(vals), 1)[0])
    rel = abs(slope + log(3.0)) / log(3.0)
    clauses = [
        ("subleading_dev", abs(sub - 1.0 / 3.0) < 1e-12, abs(sub - 1.0 / 3.0)),
        ("slope_rel_dev", rel < 0.02, rel),
    ]
    _check("n6-decay", clauses, t0, 5.0)


def test_acceptance_04_parent_kernels_equal_state_spaces():
    t0 = time.perf_counter()
    grid = [(3, l) for l in (3, 4, 5, 6)]
    grid += [(4, l) for l in (4, 5, 6)]
    grid += [(5, l) for l in (5, 6)]
    grid += [(6, 6)]
    clauses = []
    for n, l in grid:
        report = parent_check(n, l)
        dim = int(report.numbers["kernel_dim"])
        # the row is a dimension count; the dense oracles compare the spans
        dist = projector_distance(chain_kernel(so_n_aklt(n), l, n).vectors,
                                  mps_ground_space(n, l))
        clauses.append((f"n{n}_l{l}_pass", report.passed, report.passed))
        clauses.append((f"n{n}_l{l}_dim", dim == 2 ** (n - 1), dim))
        clauses.append((f"n{n}_l{l}_dist", dist < 1e-8, dist))
    _check("parent-kernels", clauses, t0, 180.0)


def test_acceptance_05_dimer_chain_kernel_dimensions():
    t0 = time.perf_counter()
    clauses = []
    for l, want in ((4, 5), (5, 4), (6, 5), (7, 4)):
        H = chain_entries(majumdar_ghosh(), l, 2)
        dim = kernel_basis(H).dim
        clauses.append((f"l{l}_dim", dim == want, dim))
    _check("dimer-kernels", clauses, t0, 10.0)


def test_acceptance_06_pure_state_marginals_coincide_then_orthogonalize():
    t0 = time.perf_counter()
    cols_p, c_p = rdm_frame(6, 2, "plus")
    cols_m, c_m = rdm_frame(6, 2, "minus")
    d2 = frame_operator_distance(6, 2, cols_p, c_p, cols_m, c_m)

    def cross_purity(n, l):
        cols_p, c_p = rdm_frame(n, l, "plus")
        cols_m, c_m = rdm_frame(n, l, "minus")
        return frame_product_trace(n, l, cols_p, c_p, cols_m, c_m)

    # closed form 2^(1-n) sum over x in {+-1}^n with x_1...x_n = -1 of
    # (sum_i x_i / n)^(2l); at even n no such x has |sum_i x_i| = n, so every
    # term decays with l (4^(-l) at n = 4): orthogonal only as l -> infinity
    def closed_form(n, l):
        return 2.0 ** (1 - n) * sum(
            (sum(x) / n) ** (2 * l)
            for x in itertools.product((1, -1), repeat=n)
            if prod(x) == -1
        )

    def max_rel_dev(n, ls, measured):
        return max(abs(c - closed_form(n, l)) / closed_form(n, l) for l, c in zip(ls, measured))

    ls4 = range(2, 9)
    cross4 = [cross_purity(4, l) for l in ls4]
    ls6 = range(2, 7)
    cross6 = [cross_purity(6, l) for l in ls6]
    dev4 = max_rel_dev(4, ls4, cross4)
    dev6 = max_rel_dev(6, ls6, cross6)
    # largest ratio of consecutive lengths: below 1 means strictly decreasing
    shrink4 = max(b / a for a, b in zip(cross4, cross4[1:]))
    clauses = [
        ("two_site_distance_n6", d2 < 1e-12, d2),
        ("cross_purity_n4", dev4 < 1e-12, dev4),
        ("cross_purity_n4_decreasing", shrink4 < 1.0, shrink4),
        ("cross_purity_n6", dev6 < 1e-12, dev6),
    ]
    _check("marginal-pair", clauses, t0, 30.0)


def test_acceptance_07_n4_marginal_spectrum_flattens_monotonically():
    t0 = time.perf_counter()
    envelope = []
    for l in (2, 4, 6, 8, 10, 12):
        blocks = rdm_eigen_by_grade(4, l, "plus")
        envelope.append(max(abs(mu - 0.25) for _, mu, _ in blocks))
    monotone = all(b <= a + 1e-14 for a, b in zip(envelope, envelope[1:]))
    print("envelope max|mu - 1/4| by length:", [f"{e:.3e}" for e in envelope])
    clauses = [
        ("final_dev", envelope[-1] < 1e-6, envelope[-1]),
        ("monotone", monotone, str(envelope)),
    ]
    _check("marginal-flattening", clauses, t0, 60.0)


def test_acceptance_08_projective_signs_and_indices():
    t0 = time.perf_counter()
    clauses = []
    for n in range(3, 9):
        clauses.append((f"n{n}_spin", cocycle_sign(n, "SPIN") == -1, "sign"))
        clauses.append((f"n{n}_def", cocycle_sign(n, "DEFINING") == 1, "sign"))
    for n in range(3, 7):
        idx = mps_spt_index(clifford_tensors(n))
        clauses.append((f"n{n}_index", idx == -1, idx))
    clauses.append(("aklt_index", mps_spt_index(aklt_tensors()) == -1, "idx"))
    for n in (3, 4):
        idx = mps_spt_index(product_tensors(n))
        clauses.append((f"product_n{n}", idx == 1, idx))
    _check("projective-indices", clauses, t0, 30.0)


def test_acceptance_09_discrete_symmetries_by_residue():
    t0 = time.perf_counter()
    clauses = []
    v, r = conjugation_check(4, 4)
    clauses.append(("conj_4_4", v == FIXES, v))
    clauses.append(("conj_4_4_res", r["conjugation_fix"] < 1e-9, r["conjugation_fix"]))
    v, r = reflection_check(4, 4)
    clauses.append(("refl_4_4", v == FIXES, v))
    clauses.append(("refl_4_4_res", r["reflection_fix"] < 1e-9, r["reflection_fix"]))
    v, r = conjugation_check(6, 6)
    clauses.append(("conj_6_6", v == SWAPS, v))
    clauses.append(("conj_6_6_res", r["conjugation_swap"] < 1e-9, r["conjugation_swap"]))
    v, r = reflection_check(6, 6)
    clauses.append(("refl_6_6", v == SWAPS, v))
    clauses.append(("refl_6_6_res", r["reflection_swap"] < 1e-9, r["reflection_swap"]))
    v, r = time_reversal_check(4, 4)
    clauses.append(("tr_4_4", v == INVARIANT, v))
    # theta has determinant 1, so time reversal acts like conjugation: it
    # swaps the pair at n = 2 mod 4, as conj_6_6 does
    v, r = time_reversal_check(6, 6)
    clauses.append(("tr_6_6", v == SWAPS, v))
    clauses.append(("tr_6_6_res", r["time_reversal_swap"] < 1e-9, r["time_reversal_swap"]))
    for n in range(2, 9):
        det = float(np.linalg.det(theta_matrix(n)))
        clauses.append((f"theta_det_n{n}", abs(det - 1.0) < 1e-9, det))
    _check("discrete-symmetries", clauses, t0, 120.0)


def test_acceptance_10_on_site_rotations_fix_flip_swaps():
    t0 = time.perf_counter()
    report = on_site_breaking_check(4, 4, rotations=20, seed=0)
    rot = float(report.numbers["rotation_residual"])
    flip = float(report.numbers["flip_residual"])
    spec = float(report.numbers["spectrum_deviation"])
    clauses = [
        ("passed", report.passed, report.notes or "ok"),
        ("rotation_residual", rot < 1e-9, rot),
        ("flip_residual", flip < 1e-9, flip),
        ("spectrum_deviation", spec <= 1e-10, spec),
    ]
    _check("on-site-breaking", clauses, t0, 30.0)


def test_acceptance_11_representation_dimension_arithmetic():
    t0 = time.perf_counter()
    report = run_campaign(CampaignConfig("repr-dims", n_list=(3, 4, 5, 6)))
    failed = [r["name"] for r in report["checks"] if r["status"] == "fail"]
    names = {r["name"] for r in report["checks"]}
    clauses = [
        ("no_failures", not failed, ",".join(failed) or "none"),
        ("covers_cg", "cg-dimension-sum" in names, "present"),
        ("covers_isotypic", "isotypic-vector-pair" in names, "present"),
        ("covers_branching", "wedge-branching" in names, "present"),
    ]
    _check("representation-dims", clauses, t0, 30.0)


def test_acceptance_12_matrix_model_agrees_with_algebra():
    t0 = time.perf_counter()
    report = run_campaign(
        CampaignConfig("clifford-selftest", n_list=(4, 5, 6, 7, 8))
    )
    rows = {(r["n"], r["name"]): r for r in report["checks"]}
    clauses = []
    for n in (4, 5, 6, 7, 8):
        oracle = rows[(n, "matrix-oracle")]
        anti = rows[(n, "anticommutation")]
        clauses.append((f"n{n}_samples", oracle["numbers"]["samples"] == 500, 500))
        prod = oracle["numbers"]["max_product_rel"]
        clauses.append((f"n{n}_product_rel", prod < 1e-10, prod))
        trace_rel = oracle["numbers"]["max_trace_rel"]
        clauses.append((f"n{n}_trace_rel", trace_rel < 1e-10, trace_rel))
        dev = anti["numbers"]["max_dev"]
        clauses.append((f"n{n}_anticommute", dev < 1e-12, dev))
    _check("matrix-model", clauses, t0, 10.0)
