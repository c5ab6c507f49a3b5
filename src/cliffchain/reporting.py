"""Verification campaigns with machine-readable reports.

run_campaign executes one named battery of checks (or all of them) over a
grid of (n, l) values and returns a plain-dict report document.  Every check
is one entry of the _CHECKS table, and one loop runs them all: it writes the
skip rows, times each row, and turns an exception into a failing row.  emit
serializes the document as json, per-table csv files, or a text summary.

Reports are deterministic for a fixed config and version: rows are sorted,
seeds are derived from the config seed, and json output is byte-identical
between runs except for the timestamp and the recorded wall-clock times.  The
machine block records the core count and the numpy and scipy versions.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import groupby
from math import comb
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401 (drawn from below; loaded at import, not inside a run)
import scipy

from . import __version__
from .checks import cluster_degeneracies
from .clifford import (
    CliffordElement,
    _monomial_stack,
    _pair_products,
    gamma0,
    matrix_rep,
    realize,
    realized_dim,
)
from .hamiltonians import (
    DENSE_EIG_CAP,
    _grow_kernel,
    aklt_su2,
    frustration_free_check,
    majumdar_ghosh,
    parent_check,
    so_n_aklt,
)
from .mps import (
    rdm_eigen_by_grade,
    transfer_eigenvalue,
    transfer_spectrum,
    two_point_correlation,
)
from .so_n import (
    CLUSTER_TOL,
    clebsch_gordan_dims,
    isotypic_decomposition,
    pieri_dimension_check,
    so_generator,
    so_n_casimir,
    wedge_generator,
)
from .spt import (
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
    time_reversal_check,
)

SCHEMA_VERSION = 1
# CAMPAIGNS, the campaign names, is read off the check table _CHECKS below

DEFAULT_N_LIST = (3, 4, 5, 6)
DEFAULT_CAP_SPARSE = 16_000

# grid guard for the heavier batteries
PIERI_MAX_N = 6
SELFTEST_SAMPLES = 500
SELFTEST_MAX_N = 10
CORRELATOR_RANGE = range(2, 13)


@dataclass(frozen=True)
class CampaignConfig:
    campaign: str
    n_list: tuple = DEFAULT_N_LIST
    l_list: tuple = ()
    tol_kernel: float = 1e-10
    tol_match: float = 1e-9
    seed: int = 0
    cap_sparse: int = DEFAULT_CAP_SPARSE

    def __post_init__(self):
        if self.campaign not in CAMPAIGNS:
            raise ValueError(f"unknown campaign {self.campaign!r}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "l_list", tuple(int(l) for l in self.l_list))
        for n in self.n_list:
            if n < 2:
                raise ValueError("n must be at least 2")
        for l in self.l_list:
            if l < 1:
                raise ValueError("lengths must be positive")
        if not all(math.isfinite(t) and t > 0 for t in (self.tol_kernel, self.tol_match)):
            raise ValueError("tolerances must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.cap_sparse < 2:
            raise ValueError("cap_sparse must be at least 2")


# ---------------------------------------------------------------------------
# check table and the loop that runs it
# ---------------------------------------------------------------------------


def _plain(value):
    """Coerce numbers to builtin types so json round-trips exactly."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, complex):
        if abs(value.imag) > 1e-12 * max(1.0, abs(value.real)):
            raise ValueError("refusing to flatten a genuinely complex number")
        return float(value.real)
    if isinstance(value, str):
        return value
    raise TypeError(f"unsupported report value {type(value)!r}")


class _Check(NamedTuple):
    """One entry of the check table.

    grid(config) lists the (n, l) points.  applies(ctx, n, l) returns True to
    run the check there, False for no row, or a skip reason; None means
    always.  fn(ctx, n, l) returns (passed, numbers, notes), and
    tables(ctx, n, l) the (table, row) pairs the point contributes.
    """

    campaign: str
    name: str
    grid: Callable
    applies: Callable | None
    fn: Callable | None
    tables: Callable | None = None


class _Context:
    """One run_campaign call: its config and the shared inputs it computed."""

    def __init__(self, config: CampaignConfig):
        self.config = config
        self._inputs: dict = {}

    def shared(self, make, n, l=None):
        """make(n, l), computed on first use at this grid point."""
        key = (make, n, l)
        if key not in self._inputs:
            self._inputs[key] = make(n, l)
        return self._inputs[key]


def _timed(ctx: _Context, check: _Check, n, l, tables: dict) -> dict | None:
    """Run one check at (n, l) and return its row, or None when it has none.

    A raised exception is a failing row, not a crash; the table rows of a
    check that raised are dropped.
    """
    t0 = time.perf_counter()
    try:
        applies = True if check.applies is None else check.applies(ctx, n, l)
        if applies is False:
            return None
        if applies is not True:
            status, numbers, notes = "skip", {}, applies
        else:
            passed, numbers, notes = check.fn(ctx, n, l)
            status = "pass" if passed else "fail"
            numbers = {k: _plain(v) for k, v in numbers.items()}
            if check.tables is not None:
                made = [(t, tuple(_plain(v) for v in r)) for t, r in check.tables(ctx, n, l)]
                for table, row in made:  # every row is built before any is kept
                    tables.setdefault(table, []).append(row)
    except Exception as exc:  # a broken check is a failing check, not a crash
        status, numbers, notes = "fail", {}, f"error: {type(exc).__name__}: {exc}"
    return {
        "campaign": check.campaign,
        "n": n,
        "l": l,
        "name": check.name,
        "status": status,
        "numbers": numbers,
        "notes": notes,
        "seconds": 0.0 if status == "skip" else round(time.perf_counter() - t0, 6),
    }


def _campaign_rows(config: CampaignConfig) -> tuple[list, dict]:
    """Every check of config.campaign in table order, point by point.

    Consecutive checks of one campaign that share a grid run together at each
    point, so the order is campaign, then n, then l, then check.
    """
    ctx = _Context(config)
    rows: list[dict] = []
    tables: dict[str, list] = {}
    for (campaign, grid), group in groupby(_CHECKS, key=lambda c: (c.campaign, c.grid)):
        if config.campaign not in ("all", campaign):
            continue
        group = list(group)
        for n, l in grid(config):
            for check in group:
                row = _timed(ctx, check, n, l, tables)
                if row is not None:
                    rows.append(row)
    return rows, tables


# grids and applicability


def _at(*points):
    return lambda config: points


def _each_n(config: CampaignConfig) -> list:
    return [(n, None) for n in config.n_list]


def _even_n(ctx, n, l):
    return n % 2 == 0


def _cap_exceeded(over: bool):
    return "cap-exceeded" if over else True


# ---------------------------------------------------------------------------
# transfer campaign
# ---------------------------------------------------------------------------


def _expected_transfer_clusters(n: int) -> list[tuple[float, int]]:
    kmax = n if n % 2 == 0 else (n - 1) // 2
    out = [(transfer_eigenvalue(n, k), comb(n, k)) for k in range(kmax + 1)]
    out.sort(key=lambda p: -p[0])
    return out


def _antisymmetric_probe(n: int) -> np.ndarray:
    S = np.zeros((n, n), dtype=complex)
    S[0, 1], S[1, 0] = 1.0j, -1.0j
    return S


def _spectrum(n, l):
    return transfer_spectrum(n, "E")


def _correlators(n, l):
    boundary = "plus" if n % 2 == 0 else "omega"
    probe = _antisymmetric_probe(n)
    return {r: two_point_correlation(n, probe, probe, r, boundary) for r in CORRELATOR_RANGE}


def _channel(n, l):
    # a one-site probe only excites the grade-2 class, so its correlator
    # decays at |lambda_2|, not at the max over all even grades
    return abs(transfer_eigenvalue(n, 2)) if n > 2 else 1.0
def _check_transfer_spectrum(ctx, n, l):
    got = ctx.shared(_spectrum, n).eigenvalues
    expected = _expected_transfer_clusters(n)
    if len(got) != len(expected):
        return False, {"clusters": len(got)}, "cluster count mismatch"
    dev = max(abs(a - b) for (a, _), (b, _) in zip(got, expected))
    mult_ok = all(ma == mb for (_, ma), (_, mb) in zip(got, expected))
    numbers = {"max_value_dev": dev, "clusters": len(got)}
    return dev < ctx.config.tol_match and mult_ok, numbers, ""


def _eigenvalue_rows(ctx, n, l):
    spectrum = ctx.shared(_spectrum, n)
    return [("eigenvalues", (n, value, mult)) for value, mult in spectrum.eigenvalues]


def _check_correlation_length(ctx, n, l):
    # closed form: the largest |class eigenvalue| over even grades 0 < k < n
    rate = max((abs(transfer_eigenvalue(n, k)) for k in range(2, n, 2)), default=0.0)
    xi = 0.0 if rate == 0.0 else -1.0 / math.log(rate)
    dev = abs(ctx.shared(_spectrum, n).correlation_length - xi)
    return dev < ctx.config.tol_match, {"xi": xi, "rate": rate, "dev": dev}, ""


def _correlator_rows(ctx, n, l):
    return [("correlators", (n, r, c)) for r, c in ctx.shared(_correlators, n).items()]


def _check_peripheral_count(ctx, n, l):
    # each eigenvalue is c / n for an integer c, so |v| == 1.0 is exact; the
    # closed form: grade 0 at odd n (the P_+ representatives hold one of grades
    # 0 and n), grades 0 and n at even n
    spectrum = ctx.shared(_spectrum, n)
    peripheral = sum(m for v, m in spectrum.eigenvalues if abs(v) == 1.0)
    expected = 1 if n % 2 else 2
    ok = peripheral == expected and spectrum.is_primitive == (expected == 1)
    return ok, {"peripheral": peripheral, "expected": expected}, ""


def _check_factorized_primitivity(ctx, n, l):
    shared = transfer_spectrum(n, "F_shared")
    # eigenvalues are integers over n, so the top cluster is exactly (1.0, 1)
    ok = shared.is_primitive and shared.eigenvalues[0] == (1.0, 1)
    return ok, {"clusters": len(shared.eigenvalues)}, ""


def _check_correlators_vanish(ctx, n, l):
    worst = max(abs(c) for c in ctx.shared(_correlators, n).values())
    return worst < 1e-12, {"max_correlator": worst}, ""


def _check_decay_slope(ctx, n, l):
    corr = ctx.shared(_correlators, n)
    rs = [r for r in corr if abs(corr[r]) > 1e-300]
    logs = [math.log(abs(corr[r])) for r in rs]
    slope = float(np.polyfit(rs, logs, 1)[0])
    target = math.log(ctx.shared(_channel, n))
    rel = abs(slope - target) / abs(target)
    return rel < 0.02, {"slope": slope, "target": target, "rel_dev": rel}, ""


# ---------------------------------------------------------------------------
# rdm campaign
# ---------------------------------------------------------------------------


def _rdm_grid(config: CampaignConfig) -> list:
    return [(n, l) for n in config.n_list for l in config.l_list or (2, 3, 4, 6, 8)]


def _expected_grade_mult(n: int, grade: int) -> int:
    if 2 * grade == n:
        return comb(n, grade) // 2
    return comb(n, grade)


def _expected_grades(n: int, l: int) -> list[int]:
    # a class labeled by its min-grade representative g shows up when an
    # l-site word of grade g or of grade n - g exists
    out = []
    for g in range(n // 2 + 1):
        direct = g % 2 == l % 2 and g <= l
        partner = (n - g) % 2 == l % 2 and (n - g) <= l
        if direct or partner:
            out.append(g)
    return out


def _plus_blocks(n, l):
    return rdm_eigen_by_grade(n, l, "plus")


def _check_marginal_spectrum(ctx, n, l):
    blocks = ctx.shared(_plus_blocks, n, l)
    tr = sum(mu * mult for _, mu, mult in blocks)
    mus = [mu for _, mu, _ in blocks]
    numbers = {"grades": len(blocks), "trace": tr, "min_mu": min(mus), "max_mu": max(mus)}
    return abs(tr - 1.0) < 1e-9 and min(mus) > 0.0, numbers, ""


def _mu_rows(ctx, n, l):
    return [("mu_by_length", (n, l, grade, mu)) for grade, mu, _ in ctx.shared(_plus_blocks, n, l)]


def _check_grade_multiplicities(ctx, n, l):
    blocks = ctx.shared(_plus_blocks, n, l)
    got = [(g, mult) for g, _, mult in blocks]
    want = [(g, _expected_grade_mult(n, g)) for g in _expected_grades(n, l)]
    notes = "" if got == want else f"layout {got}, expected {want}"
    return got == want, {"grades": len(blocks)}, notes


def _check_pure_state_pair(ctx, n, l):
    blocks = ctx.shared(_plus_blocks, n, l)
    other = rdm_eigen_by_grade(n, l, "minus")
    if [(g, m) for g, _, m in blocks] != [(g, m) for g, _, m in other]:
        return False, {}, "grade layout differs between the pair"
    dev = max(abs(a - b) for (_, a, _), (_, b, _) in zip(blocks, other))
    return dev < 1e-10, {"spectrum_dev": dev}, ""


# ---------------------------------------------------------------------------
# parent campaign
# ---------------------------------------------------------------------------


def _parent_lengths(config: CampaignConfig, n: int) -> list[int]:
    if config.l_list:
        return [l for l in config.l_list if l >= 2]
    out = []
    for l in range(max(2, n), n + 4):
        if n**l <= config.cap_sparse:
            out.append(l)
    return out or [n]


def _parent_grid(config: CampaignConfig) -> list:
    return [(n, l) for n in config.n_list for l in _parent_lengths(config, n)]
def _sparse_cap(ctx, n, l):
    return _cap_exceeded(n**l > ctx.config.cap_sparse)


def _dense_cap(ctx, n, l):
    return _cap_exceeded(n**l > min(ctx.config.cap_sparse, DENSE_EIG_CAP))


def _report_row(report):
    return report.passed, dict(report.numbers), report.notes


def _margins(growths) -> dict:
    return {"kept_max": max(g.kept_max for g in growths),
            "cutoff": max(g.tol for g in growths),
            "dropped_min": min(g.dropped_min for g in growths)}


def _check_dimer_kernel_dims(ctx, n, l):
    h = majumdar_ghosh()
    growths = [_grow_kernel(h, length, 2, ctx.config.tol_kernel) for length in (4, 5, 6, 7)]
    dims = [g.ranks[-1] for g in growths]
    numbers = {f"dim_l{length}": dim for length, dim in zip((4, 5, 6, 7), dims)}
    return dims == [5, 4, 5, 4], {**numbers, **_margins(growths)}, ""


def _check_spin1_kernel_dim(ctx, n, l):
    g = _grow_kernel(aklt_su2(), 4, 3, ctx.config.tol_kernel)
    return g.ranks[-1] == 4, {"kernel_dim": g.ranks[-1], **_margins([g])}, ""


def _check_parent_kernel(ctx, n, l):
    return _report_row(parent_check(n, l))


def _check_frustration_free(ctx, n, l):
    return _report_row(frustration_free_check(so_n_aklt(n), l, n, ctx.config.tol_kernel))


# ---------------------------------------------------------------------------
# spt campaign
# ---------------------------------------------------------------------------


def _check_cocycle_spin(ctx, n, l):
    sign = cocycle_sign(n, "SPIN")
    return sign == -1, {"sign": sign}, ""


def _check_cocycle_defining(ctx, n, l):
    sign = cocycle_sign(n, "DEFINING")
    return sign == 1, {"sign": sign}, ""


def _check_index_clifford(ctx, n, l):
    sign = mps_spt_index(clifford_tensors(n))
    return sign == -1, {"index": sign}, ""


def _check_index_product(ctx, n, l):
    sign = mps_spt_index(product_tensors(n))
    return sign == 1, {"index": sign}, ""


def _check_index_spin1_aklt(ctx, n, l):
    sign = mps_spt_index(aklt_tensors())
    return sign == -1, {"index": sign}, ""

# ---------------------------------------------------------------------------
# cpt campaign
# ---------------------------------------------------------------------------


def _cpt_grid(config: CampaignConfig) -> list:
    return [(n, l) for n in config.n_list for l in config.l_list or (4, 6)]

def _even_n_even_l(ctx, n, l):
    if n % 2 == 1:
        return False
    return "not-applicable-odd-length" if l % 2 == 1 else True


def _verdict_margins(verdict, r_fix, r_swap) -> dict:
    """The residual of the side the verdict chose and of the side it rejected.

    FAILED chose neither side; its matched residual is the smaller one.
    """
    if verdict == SWAPS:
        matched, unmatched = r_swap, r_fix
    elif verdict in (FIXES, INVARIANT):
        matched, unmatched = r_fix, r_swap
    else:
        matched, unmatched = min(r_fix, r_swap), max(r_fix, r_swap)
    return {"matched_residual": matched, "unmatched_residual": unmatched}


def _pair_row(ctx, result, expected, key):
    verdict, res = result
    margins = _verdict_margins(verdict, res[f"{key}_fix"], res[f"{key}_swap"])
    ok = verdict == expected and margins["matched_residual"] < ctx.config.tol_match
    return ok, {**res, **margins}, f"verdict {verdict}, expected {expected}"


def _expected_pair(n):
    return FIXES if n % 4 == 0 else SWAPS


def _check_conjugation(ctx, n, l):
    return _pair_row(ctx, conjugation_check(n, l), _expected_pair(n), "conjugation")


def _check_reflection(ctx, n, l):
    return _pair_row(ctx, reflection_check(n, l), _expected_pair(n), "reflection")


def _check_time_reversal(ctx, n, l):
    return _pair_row(ctx, time_reversal_check(n, l), INVARIANT, "time_reversal")


def _check_on_site_breaking(ctx, n, l):
    report = on_site_breaking_check(n, l, rotations=3, seed=ctx.config.seed,
                                    tol=ctx.config.tol_match)
    nums = report.numbers  # the axis flip swaps the pair
    margins = _verdict_margins(SWAPS, nums["flip_unmatched"], nums["flip_residual"])
    return report.passed, {**nums, **margins}, report.notes


# ---------------------------------------------------------------------------
# clifford-selftest campaign
# ---------------------------------------------------------------------------


def _check_matrix_oracle(ctx, n, l):
    """The array sign rule against the sign-free realization, on S pairs at once.

    All 2S elements are drawn in one call (distinct uniform monomials,
    complex Gaussian coefficients); a_s b_s comes from _pair_products, and
    the realizations from the stacked monomial images, which use no sign
    code.  The trace is checked on all 2S elements.
    """
    seed = ctx.config.seed
    rng = np.random.default_rng((seed, n))
    size, samples = 1 << n, SELFTEST_SAMPLES
    terms = min(size, 12)
    idx = np.argsort(rng.random((2 * samples, size)), axis=1)[:, :terms]
    coefs = rng.standard_normal((2 * samples, terms)) + 1.0j * rng.standard_normal(
        (2 * samples, terms))
    dense = np.zeros((2 * samples, size), dtype=complex)
    np.put_along_axis(dense, idx, coefs, axis=1)
    a, b = slice(0, samples), slice(samples, None)

    dim = realized_dim(n)
    flat = _monomial_stack(matrix_rep(n)).reshape(size, dim * dim)
    mats = (dense @ flat).reshape(2 * samples, dim, dim)
    left = (_pair_products(idx[a], coefs[a], idx[b], coefs[b], n) @ flat).reshape(
        samples, dim, dim)
    right = mats[a] @ mats[b]
    scale = np.maximum(1.0, np.abs(right).max(axis=(1, 2)))
    worst_prod = float((np.abs(left - right).max(axis=(1, 2)) / scale).max())

    # at odd n the top word realizes to a scalar, so the matrix
    # trace also sees the full-mask coefficient
    full = size - 1
    alias = 0.0 if n % 2 == 0 else 1.0 / gamma0(n).coef[full]
    tr = dim * (dense[:, 0] + alias * dense[:, full])
    mat_tr = np.einsum("sii->s", mats)
    worst_trace = float((np.abs(tr - mat_tr) / np.maximum(1.0, np.abs(mat_tr))).max())
    numbers = {
        "samples": samples,
        "max_product_rel": worst_prod,
        "max_trace_rel": worst_trace,
        "seed": seed,
    }
    return worst_prod < 1e-10 and worst_trace < 1e-10, numbers, ""


def _check_anticommutation(ctx, n, l):
    worst = 0.0
    eye = None
    for i in range(1, n + 1):
        gi = realize(CliffordElement.gamma(n, i))
        if eye is None:
            eye = np.eye(len(gi))
        for j in range(i, n + 1):
            gj = realize(CliffordElement.gamma(n, j))
            anti = gi @ gj + gj @ gi
            target = 2.0 * eye if i == j else 0.0 * eye
            worst = max(worst, float(np.abs(anti - target).max()))
    return worst < 1e-12, {"max_dev": worst}, ""


# ---------------------------------------------------------------------------
# repr-dims campaign
# ---------------------------------------------------------------------------


def _pair_rep(n: int):
    def apply(i, j):
        L = so_generator(n, i, j)
        return np.kron(L, np.eye(n)) + np.kron(np.eye(n), L)

    return apply


def _wedge_pair_rep(n: int, k: int):
    def apply(i, j):
        Lk = wedge_generator(n, k, i, j)
        L1 = so_generator(n, i, j)
        return np.kron(Lk, np.eye(n)) + np.kron(np.eye(len(Lk)), L1)

    return apply


_VECTOR_PAIR_DIMS = {3: [1, 3, 5], 5: [1, 10, 14]}

def _check_cg_dimension_sum(ctx, n, l):
    spins = [s / 2.0 for s in range(0, 9)]
    pairs = 0
    for mu in spins:
        for nu in spins:
            total = sum(int(round(2 * j + 1)) for j in clebsch_gordan_dims(mu, nu))
            if total != int(round((2 * mu + 1) * (2 * nu + 1))):
                return False, {"mu": mu, "nu": nu}, "dimension sum mismatch"
            pairs += 1
    return True, {"pairs": pairs}, ""


def _check_isotypic_vector_pair(ctx, n, l):
    rep = isotypic_decomposition(so_n_casimir(n, _pair_rep(n)))
    dims = sorted(d for _, d in rep.blocks)
    return dims == _VECTOR_PAIR_DIMS[n], {"total_dim": rep.total_dim}, ""


def _check_wedge_branching(ctx, n, l):
    for k in range(0, n + 1):
        lhs, (lo, hi, _) = pieri_dimension_check(n, k)
        rep = isotypic_decomposition(so_n_casimir(n, _wedge_pair_rep(n, k)))
        if rep.total_dim != lhs:
            return False, {"k": k}, "total dimension mismatch"
        wedge = []
        for kk, d in ((k - 1, lo), (k + 1, hi)):
            if d == 0:
                continue
            Ck = so_n_casimir(n, lambda i, j, kk=kk: wedge_generator(n, kk, i, j))
            val = float(Ck[0, 0].real)
            if np.abs(Ck - val * np.eye(len(Ck))).max() > 1e-10:
                return False, {"k": k}, "wedge Casimir is not scalar"
            wedge += [val] * d
        # The wedge^(k+-1) Casimirs cluster with their dimensions summed; each
        # cluster must then join exactly one pair block, of the same size.  The
        # pair blocks are more than tol apart, so no two of them can merge.
        tol = CLUSTER_TOL * max(1.0, *(abs(v) for v, _ in rep.blocks))
        expected = cluster_degeneracies(wedge, tol)
        joint = cluster_degeneracies([v for v, _ in rep.blocks + expected], tol)
        if len(joint) != len(rep.blocks):
            return False, {"k": k}, "wedge summand missing from the pair blocks"
        found = [d for (_, d), (_, m) in zip(rep.blocks, joint) if m > 1]
        if found != [d for _, d in expected]:
            return False, {"k": k}, "isotypic block size mismatch"
    return True, {"max_grade": n}, ""


# ---------------------------------------------------------------------------
# the table: campaigns and their checks in run order
# ---------------------------------------------------------------------------

_CHECKS = tuple(_Check(*entry) for entry in (
    ("transfer", "transfer-spectrum", _each_n, None, _check_transfer_spectrum,
     _eigenvalue_rows),
    ("transfer", "correlation-length", _each_n, None, _check_correlation_length,
     _correlator_rows),
    ("transfer", "peripheral-count", _each_n, None, _check_peripheral_count),
    ("transfer", "factorized-primitivity", _each_n, _even_n, _check_factorized_primitivity),
    ("transfer", "correlators-vanish", _each_n,
     lambda ctx, n, l: ctx.shared(_channel, n) == 0.0, _check_correlators_vanish),
    ("transfer", "decay-slope", _each_n,
     lambda ctx, n, l: 0.0 < ctx.shared(_channel, n) < 1.0 - 1e-9, _check_decay_slope),
    ("rdm", "marginal-spectrum", _rdm_grid, None, _check_marginal_spectrum, _mu_rows),
    ("rdm", "grade-multiplicities", _rdm_grid, None, _check_grade_multiplicities),
    ("rdm", "pure-state-pair", _rdm_grid, _even_n, _check_pure_state_pair),
    ("parent", "dimer-kernel-dims", _at((2, None)), None, _check_dimer_kernel_dims),
    ("parent", "spin1-kernel-dim", _at((3, None)), None, _check_spin1_kernel_dim),
    ("parent", "parent-kernel", _parent_grid, _sparse_cap, _check_parent_kernel),
    ("parent", "frustration-free", _parent_grid, _dense_cap, _check_frustration_free),
    ("spt", "cocycle-spin", _each_n, None, _check_cocycle_spin),
    ("spt", "cocycle-defining", _each_n, None, _check_cocycle_defining),
    ("spt", "index-clifford", _each_n, None, _check_index_clifford),
    ("spt", "index-product", _each_n, None, _check_index_product),
    ("spt", "index-spin1-aklt", _each_n, lambda ctx, n, l: n == 3, _check_index_spin1_aklt),
    ("cpt", "cpt-suite", _cpt_grid,
     lambda ctx, n, l: "not-applicable-odd-n" if n % 2 else False, None),
    ("cpt", "conjugation", _cpt_grid, _even_n, _check_conjugation),
    ("cpt", "reflection", _cpt_grid, _even_n_even_l, _check_reflection),
    ("cpt", "time-reversal", _cpt_grid, _even_n, _check_time_reversal),
    ("cpt", "on-site-breaking", _cpt_grid, _even_n, _check_on_site_breaking),
    ("clifford-selftest", "matrix-oracle", _each_n,
     lambda ctx, n, l: _cap_exceeded(n > SELFTEST_MAX_N), _check_matrix_oracle),
    ("clifford-selftest", "anticommutation", _each_n,
     lambda ctx, n, l: n <= SELFTEST_MAX_N, _check_anticommutation),
    ("repr-dims", "cg-dimension-sum", _at((None, None)), None, _check_cg_dimension_sum),
    ("repr-dims", "isotypic-vector-pair", _at((3, None), (5, None)), None,
     _check_isotypic_vector_pair),
    ("repr-dims", "wedge-branching", _each_n,
     lambda ctx, n, l: _cap_exceeded(n > PIERI_MAX_N), _check_wedge_branching),
))

# the campaign names, in table order, then "all"
CAMPAIGNS = (*dict.fromkeys(check.campaign for check in _CHECKS), "all")


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------


def _sort_key(row: dict):
    return (
        row["campaign"],
        -1 if row["n"] is None else row["n"],
        -1 if row["l"] is None else row["l"],
        row["name"],
    )


def _machine() -> dict:
    """The machine block of a report: core count and library versions."""
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "scipy": scipy.__version__}


def run_campaign(config: CampaignConfig) -> dict:
    t0 = time.perf_counter()
    rows, tables = _campaign_rows(config) if config.n_list else ([], {})
    rows.sort(key=_sort_key)
    for table in tables:
        tables[table] = [list(r) for r in sorted(tables[table])]
    counts = {
        "pass": sum(r["status"] == "pass" for r in rows),
        "fail": sum(r["status"] == "fail" for r in rows),
        "skip": sum(r["status"] == "skip" for r in rows),
        "total": len(rows),
    }
    return {
        "schema": SCHEMA_VERSION,
        "tool": "cliffchain",
        "version": __version__,
        "campaign": config.campaign,
        "config": {
            "n_list": list(config.n_list),
            "l_list": list(config.l_list),
            "tol_kernel": config.tol_kernel,
            "tol_match": config.tol_match,
            "seed": config.seed,
            "cap_sparse": config.cap_sparse,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "machine": _machine(),
        "checks": rows,
        "tables": tables,
        "summary": dict(counts, seconds=round(time.perf_counter() - t0, 6)),
    }


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

TABLE_HEADERS = {
    "eigenvalues": ("n", "value", "multiplicity"),
    "mu_by_length": ("n", "l", "grade", "mu"),
    "correlators": ("n", "r", "value"),
}


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def report_to_text(report: dict) -> str:
    lines = [
        f"cliffchain {report['version']} campaign={report['campaign']} "
        f"schema={report['schema']}"
    ]
    for row in report["checks"]:
        where = []
        if row["n"] is not None:
            where.append(f"n={row['n']}")
        if row["l"] is not None:
            where.append(f"l={row['l']}")
        loc = " ".join(where) if where else "-"
        nums = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in sorted(row["numbers"].items()))
        tail = f" ({row['notes']})" if row["notes"] else ""
        lines.append(f"[{row['status']:>4}] {row['name']} {loc}: {nums}{tail}")
    eig = report["tables"].get("eigenvalues")
    if eig:
        for n in sorted({row[0] for row in eig}):
            rows = sorted(((v, m) for nn, v, m in eig if nn == n), reverse=True)
            parts = ", ".join(f"{v:.6g}x{m}" for v, m in rows)
            lines.append(f"eigenvalues n={n}: {parts}")
    s = report["summary"]
    lines.append(
        f"summary: {s['pass']} pass, {s['fail']} fail, {s['skip']} skip "
        f"of {s['total']} in {s['seconds']:.2f}s"
    )
    return "\n".join(lines) + "\n"


def _checks_csv(report: dict) -> str:
    number_keys = sorted({k for row in report["checks"] for k in row["numbers"]})
    header = ["campaign", "n", "l", "name", "status", "notes", "seconds"]
    lines = [",".join(header + number_keys)]
    for row in report["checks"]:
        cells = [
            row["campaign"],
            "" if row["n"] is None else str(row["n"]),
            "" if row["l"] is None else str(row["l"]),
            row["name"],
            row["status"],
            row["notes"].replace(",", ";"),
            _csv_cell(row["seconds"]),
        ]
        for key in number_keys:
            value = row["numbers"].get(key)
            cells.append("" if value is None else _csv_cell(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _table_csv(name: str, rows: list) -> str:
    lines = [",".join(TABLE_HEADERS[name])]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str, out: str | None = None) -> list[str]:
    """Serialize a report; returns the list of files written (may be empty).

    'json' and 'text' print to stdout when out is None.  'csv-tables' always
    needs an output stem; it writes one checks file plus one file per table.
    """
    import pathlib
    import sys

    if fmt in ("json", "text"):
        payload = report_to_json(report) if fmt == "json" else report_to_text(report)
        if out is None:
            sys.stdout.write(payload)
            return []
        pathlib.Path(out).write_text(payload)
        return [out]
    if fmt == "csv-tables":
        if out is None:
            raise ValueError("csv-tables requires an output path stem")
        stem = pathlib.Path(out)
        if stem.suffix == ".csv":
            stem = stem.with_suffix("")
        written = []
        path = stem.parent / f"{stem.name}_checks.csv"
        path.write_text(_checks_csv(report))
        written.append(str(path))
        for name, rows in sorted(report["tables"].items()):
            path = stem.parent / f"{stem.name}_{name}.csv"
            path.write_text(_table_csv(name, rows))
            written.append(str(path))
        return written
    raise ValueError(f"unknown output format {fmt!r}")
