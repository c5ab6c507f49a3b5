"""Benchmark runner for cliffchain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``campaign-all``, ``gram-frontier``, ``rotor-frames``, or
``all`` to run the three one after another.  Every pass runs in a fresh
process (``one_pass.py``), because CLI users pay cold caches on every run.

``--trace 0`` runs untraced passes until they have taken S seconds (at least
one), each after one set-up-only process, and reports the end-to-end
metrics as medians.
``--trace 1`` makes one untraced and one traced pass and reports the
per-layer metrics; spans go to ``perfbench-out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (passes), ``failed`` (passes whose output failed
the correctness gate) and ``metrics``.  The exit code is 0 when every pass
was correct, 1 when a gate failed, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, metric_unit

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"
WORKLOADS = ("campaign-all", "gram-frontier", "rotor-frames")
SETUP_PROBES = 1  # set-up-only processes before each pass
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "check_pass_ratio": "ratio"}
RUN_BUDGET_S = 175.0  # per workload; a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    def __init__(self, seed: int, seconds: int, budget_s: float = RUN_BUDGET_S):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + budget_s
        self.threads = nproc()
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(self.threads)
        self.versions: dict = {}

    def spawn(self, mode: str, workload: str, spans: pathlib.Path | None = None) -> dict:
        args = [sys.executable, str(HERE / "one_pass.py"), mode, workload, str(self.seed)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"out of time before a {mode} pass of {workload}")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                args + [repr(spawned)] + ([str(spans)] if spans else []),
                stdout=subprocess.PIPE, text=True, env=self.env, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} pass of {workload} exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass of {workload} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.versions = result.get("versions", self.versions)
        return result

    def machine(self) -> dict:
        return dict(
            nproc=nproc(),
            blas_threads=self.threads,
            git_commit=git_commit(),
            **self.versions,
        )

    def run(self, workload: str, trace: bool) -> dict:
        if trace:
            plain = self.spawn("plain", workload)
            OUT.mkdir(exist_ok=True)
            traced = self.spawn("trace", workload, OUT / f"spans-{workload}-seed{self.seed}.jsonl")
            passes = [plain, traced]
            metrics = dict(traced["layers"])
            metrics["trace.wall_s"] = traced["wall_s"]
            metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        else:
            setups, passes, busy = [], [], 0.0
            while not passes or busy < self.seconds:
                setups += [self.spawn("setup", workload)["setup_s"] for _ in range(SETUP_PROBES)]
                start = time.monotonic()
                passes.append(self.spawn("plain", workload))
                busy += time.monotonic() - start
            good = [p for p in passes if not p["problems"]]
            checks = sum(p["checks"] for p in passes)
            metrics = {"setup_s": statistics.median(setups + [p["setup_s"] for p in passes])}
            if good:
                metrics["wall_s"] = statistics.median(p["wall_s"] for p in good)
                metrics["peak_rss_mib"] = statistics.median(p["peak_rss_mib"] for p in good)
            metrics["check_pass_ratio"] = 1 - sum(p["checks_failed"] for p in passes) / checks
        return {
            "workload": workload,
            "passes": passes,
            "correct": all(not p["problems"] for p in passes),
            "attempted": len(passes),
            "failed": sum(bool(p["problems"]) for p in passes),
            "metrics": metrics,
        }


def tail_percentile(values: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    k = len(values)
    if k < 11:
        return f"none (needs 11 samples, have {k})"
    return f"p{100 * (k - 10) / k:.1f} = {sorted(values)[k - 11]:.6g} s"


def report_lines(res: dict, trace: bool) -> list:
    name, metrics, passes = res["workload"], res["metrics"], res["passes"]
    lines = [f"== {name}: {res['attempted']} passes, {res['failed']} failed the gate"]
    for p in passes:
        lines += [f"   gate: {msg}" for msg in p["problems"]]
    if trace:
        for metric, value in metrics.items():
            lines.append(f"   {metric:48s} {value:.6g} {metric_unit(metric)}")
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        lines.append(f"   layer self_s sum {self_sum:.6g} s of traced wall_s "
                     f"{metrics['trace.wall_s']:.6g} s")
        return lines
    walls = [p["wall_s"] for p in passes if not p["problems"]]
    checks = sum(p["checks"] for p in passes)
    failed = sum(p["checks_failed"] for p in passes)
    if walls:
        lines.append(f"   wall_s           median {metrics['wall_s']:.6g} s over {len(walls)} "
                     f"passes; tail {tail_percentile(walls)}")
        lines.append(f"   peak_rss_mib     {metrics['peak_rss_mib']:.6g} MiB")
    lines.append(f"   setup_s          median {metrics['setup_s']:.6g} s over "
                 f"{(SETUP_PROBES + 1) * len(passes)} processes")
    lines.append(f"   check_fail_ratio {failed}/{checks} = {failed / checks:.6g} (ratio)")
    lines.append(f"   check_pass_ratio {metrics['check_pass_ratio']:.6g} (ratio)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cliffchain" / "__init__.py").is_file():
        print(f"perfbench: no cliffchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args.seed, args.seconds, RUN_BUDGET_S * len(names))
    results = []
    try:
        for name in names:
            res = runner.run(name, bool(args.trace))
            results.append(res)
            print("\n".join(report_lines(res, bool(args.trace))), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    machine = runner.machine()
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    for res in results:
        path = OUT / f"result-{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(dict(res, machine=machine, seed=args.seed), indent=1) + "\n")

    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for metric, value in res["metrics"].items():
            unit = metric_unit(metric) if args.trace else END_TO_END_UNITS[metric]
            metrics[prefix + metric] = {"value": value, "unit": unit}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
