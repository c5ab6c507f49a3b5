"""Result record, eigenvalue clustering and support blocking shared by the layers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class VerificationReport:
    name: str
    passed: bool
    numbers: dict = field(default_factory=dict)
    notes: str = ""

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        nums = ", ".join(f"{k}={v:.6g}" for k, v in sorted(self.numbers.items()))
        tail = f" ({self.notes})" if self.notes else ""
        return f"[{status}] {self.name}: {nums}{tail}"


def cluster_degeneracies(vals, tol: float = 1e-9) -> list[tuple[float, int]]:
    """(mean, multiplicity) clusters of vals, ascending.

    The values are sorted and split wherever consecutive ones differ by more
    than tol.
    """
    vals = np.sort(np.asarray(vals, dtype=float))
    out = []
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > tol:
            chunk = vals[start:k]
            out.append((float(chunk.mean()), len(chunk)))
            start = k
    return out


def component_stacks(graph, *parts: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Connected components of a sparse graph, stacked by shape.

    An edge joins nodes i and j wherever graph stores entry (i, j) or
    (j, i); callers store only exact nonzeros.  parts are disjoint ascending
    arrays of node ids, one per kind of node (for instance the columns and
    the rows of a bipartite support graph).  The shape of a component is its
    number of nodes in each part, and components of one shape share one
    stack.  Returns one tuple per shape, shapes ascending: for each part a
    (count, size) array of node ids, one row per component, ascending
    within a row.  A component with no node in any part is left out.
    """
    # imported here so that importing cliffchain does not load csgraph
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(graph, directed=False)
    part_labels = [labels[p] for p in parts]
    sizes = np.stack([np.bincount(lab, minlength=count) for lab in part_labels])
    starts = np.cumsum(sizes, axis=1) - sizes
    orders = [p[np.argsort(lab, kind="stable")] for p, lab in zip(parts, part_labels)]
    stacks = []
    for shape in sorted(set(map(tuple, sizes[:, sizes.any(axis=0)].T.tolist()))):
        labs = np.flatnonzero((sizes == np.array(shape)[:, None]).all(axis=0))
        stacks.append(tuple(order[start[labs][:, None] + np.arange(size)]
                            for order, start, size in zip(orders, starts, shape)))
    return stacks
