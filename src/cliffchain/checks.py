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


def _component_labels(rows: np.ndarray, cols: np.ndarray, num_nodes: int) -> np.ndarray:
    """Component number of every node, components numbered by their smallest node.

    Min-label hook and shortcut: every node points at a smaller or equal
    node of its component, starting from itself.  Each round hooks the root
    of both ends of every edge onto the smaller of the two roots, then jumps
    pointers (label = label[label]) until every node points at a root.  At
    the fixed point both ends of every edge share one root, so each
    component has one label, and that label is its smallest node: the
    smallest node can point at nothing smaller.  This is the numbering of
    scipy.sparse.csgraph.connected_components.
    """
    label = np.arange(num_nodes)
    while True:
        lo = np.minimum(label[rows], label[cols])
        hooked = label.copy()
        np.minimum.at(hooked, label[rows], lo)
        np.minimum.at(hooked, label[cols], lo)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            break
        label = hooked
    is_root = label == np.arange(num_nodes)
    return (np.cumsum(is_root) - 1)[label]


def component_stacks(rows: np.ndarray, cols: np.ndarray, num_nodes: int,
                     *parts: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Connected components of an undirected graph, stacked by shape.

    The graph has nodes 0..num_nodes-1, and edge e joins rows[e] and
    cols[e]; callers list only exact nonzeros.  parts are disjoint ascending
    arrays of node ids, one per kind of node (for instance the columns and
    the rows of a bipartite support graph).  The shape of a component is its
    number of nodes in each part, and components of one shape share one
    stack.  Returns one tuple per shape, shapes ascending: for each part a
    (count, size) array of node ids, one row per component, components in
    the order of their smallest node, ascending within a row.  A component
    with no node in any part is left out.
    """
    labels = _component_labels(rows, cols, num_nodes)
    count = int(labels.max(initial=-1)) + 1
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
