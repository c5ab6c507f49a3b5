"""Connected-component stacks against scipy's csgraph as the oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from cliffchain.checks import _component_labels, component_stacks


def _csgraph_labels(rows, cols, num_nodes):
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(num_nodes, num_nodes))
    return connected_components(graph, directed=False)[1]


def _component_stacks_oracle(rows, cols, num_nodes, *parts):
    """Oracle: csgraph labels, grouped node by node into shape stacks."""
    labels = _csgraph_labels(rows, cols, num_nodes)
    by_shape = {}
    for c in range(labels.max(initial=-1) + 1):
        members = [p[labels[p] == c] for p in parts]
        shape = tuple(len(m) for m in members)
        if any(shape):
            by_shape.setdefault(shape, []).append(members)
    return [tuple(np.array([comp[i] for comp in comps], dtype=np.intp).reshape(len(comps), size)
                  for i, size in enumerate(shape))
            for shape, comps in sorted(by_shape.items())]


def _assert_same_stacks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            assert a.shape == b.shape and np.array_equal(a, b)


def _random_general(rng, num_nodes, num_edges):
    # self-loops and duplicate edges are drawn as often as chance gives them,
    # plus one of each for certain; nodes past the edge range stay isolated
    span = max(1, num_nodes - 5)
    rows = rng.integers(0, span, num_edges)
    cols = rng.integers(0, span, num_edges)
    rows = np.concatenate([rows, rows[:1], [span - 1]])
    cols = np.concatenate([cols, cols[:1], [span - 1]])
    return rows, cols


@pytest.mark.parametrize("seed", range(6))
def test_component_labels_match_csgraph_on_general_graphs(seed):
    rng = np.random.default_rng(seed)
    num_nodes = int(rng.integers(10, 200))
    rows, cols = _random_general(rng, num_nodes, int(rng.integers(1, 2 * num_nodes)))
    assert np.array_equal(_component_labels(rows, cols, num_nodes),
                          _csgraph_labels(rows, cols, num_nodes))
    # one part holding every node, and two disjoint parts that leave some out
    _assert_same_stacks(component_stacks(rows, cols, num_nodes, np.arange(num_nodes)),
                        _component_stacks_oracle(rows, cols, num_nodes, np.arange(num_nodes)))
    kind = rng.integers(0, 3, num_nodes)
    parts = [np.flatnonzero(kind == 0), np.flatnonzero(kind == 1)]
    _assert_same_stacks(component_stacks(rows, cols, num_nodes, *parts),
                        _component_stacks_oracle(rows, cols, num_nodes, *parts))


@pytest.mark.parametrize("seed", range(6))
def test_component_stacks_match_csgraph_on_bipartite_graphs(seed):
    # the support graph of _gram_blocks: m column nodes joined to dim row nodes
    rng = np.random.default_rng(100 + seed)
    m, dim = int(rng.integers(2, 60)), int(rng.integers(2, 60))
    support = rng.random((dim, m)) < rng.uniform(0.01, 0.1)
    r, c = np.nonzero(support)
    dup = rng.integers(0, max(1, r.size), min(3, r.size))
    rows, cols = np.concatenate([c, c[dup]]), m + np.concatenate([r, r[dup]])
    parts = [np.unique(c), m + np.unique(r)]
    assert np.array_equal(_component_labels(rows, cols, m + dim),
                          _csgraph_labels(rows, cols, m + dim))
    _assert_same_stacks(component_stacks(rows, cols, m + dim, *parts),
                        _component_stacks_oracle(rows, cols, m + dim, *parts))


def test_component_stacks_with_no_edges():
    empty = np.array([], dtype=np.intp)
    assert np.array_equal(_component_labels(empty, empty, 5), np.arange(5))
    _assert_same_stacks(component_stacks(empty, empty, 5, np.arange(5)),
                        _component_stacks_oracle(empty, empty, 5, np.arange(5)))
    assert component_stacks(empty, empty, 0, empty) == []
