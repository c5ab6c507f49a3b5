"""Per-layer spans recorded from outside ``cliffchain``.

``Tracer.install`` wraps every public module-level function of the traced
modules, plus ``CliffordElement.__mul__`` and the ARPACK entry point
``scipy.sparse.linalg.eigsh`` as seen from ``hamiltonians``.  Each wrapper is
rebound in every ``cliffchain.*`` namespace that holds the original, so calls
through ``from .clifford import realize`` are traced too.  ``uninstall``
restores the original bindings.  Private helpers such as ``_merge_sign`` are
left alone: they run once per term pair and their spans would swamp the run.

Spans are kept in memory as (name, start, end, parent, pass id) and written
out by ``write_spans`` once the pass is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("clifford", "so_n", "mps", "hamiltonians", "spt", "reporting")

# Extra work counters, computed from a call's arguments and result.
_COUNTERS = {
    "clifford.mul": ("term_pairs", lambda args, out: len(args[0].coef) * len(args[1].coef)
                     if hasattr(args[1], "coef") else 0),
    "mps.overlap_kernel": ("bytes", lambda args, out: 16 * 4 ** args[0]),
    "hamiltonians.chain_hamiltonian": ("nnz", lambda args, out: out.matrix.nnz),
}

# The per-layer metrics a traced run reports, in BENCHMARK.json order.
FUNCTION_METRICS = (
    "clifford.matrix_rep.calls", "clifford.matrix_rep.self_s",
    "clifford.realize.calls", "clifford.realize.self_s",
    "clifford.mul.calls", "clifford.mul.self_s", "clifford.mul.term_pairs",
    "mps.overlap_kernel.calls", "mps.overlap_kernel.self_s", "mps.overlap_kernel.bytes",
    "mps.gram_matrix.self_s", "mps.rdm_eigen_by_grade.self_s",
    "mps.frame_operator_distance.calls", "mps.frame_operator_distance.self_s",
    "mps.e_matrix.calls", "mps.e_matrix.self_s",
    "mps.fcs_expectation.self_s", "mps.mps_vector.self_s",
    "hamiltonians.chain_hamiltonian.self_s", "hamiltonians.chain_hamiltonian.nnz",
    "hamiltonians.kernel_basis.calls", "hamiltonians.kernel_basis.self_s",
    "hamiltonians.eigsh.calls", "hamiltonians.eigsh.self_s",
    "hamiltonians.mps_ground_space.self_s", "hamiltonians.frustration_free_check.self_s",
    "hamiltonians.subspace_intersection.self_s", "hamiltonians.projector_distance.self_s",
    "spt.spin_lift.calls", "spt.spin_lift.self_s", "spt.extract_bond_symmetry.self_s",
    "so_n.isotypic_decomposition.self_s", "so_n.wedge_generator.self_s",
    "reporting.run_campaign.self_s", "reporting.report_to_json.self_s",
)
LAYER_METRICS = tuple(f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "errors"))
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")
PER_LAYER_METRICS = LAYER_METRICS + FUNCTION_METRICS + TRACE_METRICS


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith(".bytes") else "count"


class ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list = []  # [name, start_ns, end_ns, parent index]
        self.errors: dict = {}
        self.counts: dict = {}
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        counter = _COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counts[key] = self.counts.get(key, 0) + counter[1](args, out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from cliffchain import clifford, hamiltonians

        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "cliffchain"]
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"cliffchain.{layer}"]
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._set(ns, attr, wrappers[id(value)])
        self._set(clifford.CliffordElement, "__mul__",
                  self._wrap("clifford.mul", clifford.CliffordElement.__mul__))
        spla = hamiltonians.spla
        self._set(hamiltonians, "spla",
                  ModuleProxy(spla, eigsh=self._wrap("hamiltonians.eigsh", spla.eigsh)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per span name: duration minus time covered by children.

        Children of one span never overlap (one thread, stack discipline), so
        the covered time is the sum of their durations.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out: dict = {}
        for (name, *_), ns in zip(self.spans, own):
            out[name] = out.get(name, 0.0) + ns * 1e-9
        return out

    def metrics(self) -> dict:
        """Every layer and function metric except the TRACE_METRICS."""
        self_s = self.self_times()
        calls: dict = {}
        for name, *_ in self.spans:
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for layer in LAYERS:
            prefix = layer + "."
            out[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.startswith(prefix)), 0.0)
            out[f"{layer}.errors"] = sum(v for k, v in self.errors.items() if k.startswith(prefix))
        for metric in FUNCTION_METRICS:
            name, kind = metric.rsplit(".", 1)
            if kind == "calls":
                out[metric] = calls.get(name, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(name, 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end (ns), parent, pass id."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.pass_id]) + "\n")
