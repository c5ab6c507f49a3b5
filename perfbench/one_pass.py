"""One benchmark pass in a fresh process; prints one JSON line.

    python3 perfbench/one_pass.py MODE WORKLOAD SEED SPAWN_TIME [SPANS_PATH]

MODE is ``setup`` (import and build inputs, then stop), ``plain`` (one
untraced pass) or ``trace`` (one traced pass, spans written to SPANS_PATH).
SPAWN_TIME is run.py's ``time.monotonic()`` just before it started this
process; the system-wide monotonic clock makes ``setup_s`` cover interpreter
start, the import of ``cliffchain`` and input construction.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv: list) -> int:
    mode, workload, seed, spawned = argv[0], argv[1], int(argv[2]), float(argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[workload]
    inputs = wl.setup(seed)
    result = {"setup_s": time.monotonic() - spawned}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(pass_id=os.getpid())
        tracer.install()
    start = time.perf_counter()
    try:
        output = wl.run(inputs)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    gate = wl.gate(output, workloads.load_expected())
    result.update(
        wall_s=wall,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        checks=gate.checks,
        checks_failed=gate.checks_failed,
        problems=gate.problems,
        versions=versions(),
    )
    if tracer is not None:
        tracer.write_spans(argv[4])
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
