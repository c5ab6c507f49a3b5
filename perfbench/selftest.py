"""Self-tests of the benchmark; about three minutes on two cores.

    python3 perfbench/selftest.py

- two traced passes with the same seed give identical ``*.calls``,
  ``*.term_pairs``, ``*.bytes`` and ``*.nnz`` counts, and the layer self
  times sum to no more than the traced wall time;
- other seeds give the same check rows and pass every gate;
- the tracer leaves ``cliffchain`` behaving identically: ``report_to_json``
  of a traced campaign equals an untraced one, each in a fresh process, once
  the timestamp and the seconds are removed; ``uninstall`` restores every
  binding;
- ``BENCHMARK.json`` names exactly the metrics run.py reports.

It is a script, not a pytest module, so the repository's test run does not
pick it up.  Exit code 0 when every test passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
import traceback

import run
import tracer
import workloads

COUNT_SUFFIXES = (".calls", ".term_pairs", ".bytes", ".nnz")


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_traced_counts_repeat() -> None:
    runner = run.Runner(seed=3, seconds=0, budget_s=900)
    run.OUT.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        a, b = (runner.spawn("trace", name, run.OUT / f"selftest-{name}-{i}.jsonl")
                for i in range(2))
        for res in (a, b):
            expect(not res["problems"], f"{name}: gate failed: {res['problems']}")
            self_sum = sum(res["layers"][f"{layer}.self_s"] for layer in tracer.LAYERS)
            expect(self_sum <= res["wall_s"],
                   f"{name}: layer self_s sum {self_sum} > traced wall_s {res['wall_s']}")
        counts = [{k: v for k, v in r["layers"].items() if k.endswith(COUNT_SUFFIXES)}
                  for r in (a, b)]
        expect(counts[0] == counts[1], f"{name}: counts differ: {counts}")


def test_other_seeds_same_rows() -> None:
    for seed in (11, 12):
        runner = run.Runner(seed=seed, seconds=0)
        for name in ("campaign-all", "rotor-frames"):
            res = runner.spawn("plain", name)
            expect(not res["problems"], f"{name} seed {seed}: {res['problems']}")


def _strip_times(text: str) -> str:
    doc = json.loads(text)
    del doc["timestamp"]
    del doc["summary"]["seconds"]
    for row in doc["checks"]:
        del row["seconds"]
    return json.dumps(doc, sort_keys=True, indent=2)


def campaign_json(traced: bool) -> str:
    """The campaign's report_to_json without timestamp and seconds.

    Runs in the calling process; when ``traced``, under the tracer, and
    checks afterwards that ``uninstall`` restored every binding.
    """
    sys.path.insert(0, str(run.ROOT / "src"))
    wl = workloads.WORKLOADS["campaign-all"]
    inputs = wl.setup(5)
    import cliffchain
    from cliffchain import clifford, hamiltonians

    if not traced:
        return _strip_times(wl.run(inputs)["json"])

    modules = (cliffchain, clifford, hamiltonians)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    mul = clifford.CliffordElement.__mul__
    t = tracer.Tracer(pass_id=0)
    t.install()
    try:
        expect(clifford.realize is not before[("cliffchain.clifford", "realize")],
               "install did not rebind clifford.realize")
        text = _strip_times(wl.run(inputs)["json"])
    finally:
        t.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    expect(after == before and clifford.CliffordElement.__mul__ is mul,
           "uninstall left a binding changed")
    return text


def test_tracer_preserves_behaviour() -> None:
    texts = [
        subprocess.run([sys.executable, __file__, "--campaign-json", mode],
                       stdout=subprocess.PIPE, text=True, check=True).stdout
        for mode in ("plain", "trace")
    ]
    expect(texts[0] == texts[1], "traced report differs from the untraced one")


def test_benchmark_json_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    expect([m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER_METRICS),
           "per_layer names")
    expect(sorted(m["name"] for m in spec["end_to_end"]) == sorted(run.END_TO_END_UNITS),
           "end_to_end names")


def main() -> int:
    tests = [test_benchmark_json_names, test_tracer_preserves_behaviour,
             test_other_seeds_same_rows, test_traced_counts_repeat]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}", flush=True)
        except Exception:
            failed += 1
            print(f"FAIL {test.__name__}", flush=True)
            traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--campaign-json"]:
        sys.stdout.write(campaign_json(sys.argv[2] == "trace"))
        sys.exit(0)
    sys.exit(main())
