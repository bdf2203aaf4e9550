"""One cold cycle of the absorb workload, in a process of its own.

    python3 bench/worker.py SEED CYCLE TRACE

``run.py`` starts it, one at a time, with ``src`` on ``PYTHONPATH``.  It
imports the package first and times that import, warms up without
touching a catalog geometry, runs round CYCLE of each absorb part (see
``workloads.run_cycle``) and prints one JSON line: the import time, the
seconds of every op by part, the tally and, with TRACE 1, the spans.
"""

import sys
import time

t0 = time.perf_counter()
import groverline  # noqa: E402,F401  the fresh-interpreter import is timed
IMPORT_S = time.perf_counter() - t0

import contextlib  # noqa: E402
import json  # noqa: E402

import spans as tr  # noqa: E402
import workloads as wl  # noqa: E402


def main(argv) -> int:
    seed, k, trace = (int(a) for a in argv)
    wl.warm_up()
    refs, tally = wl.References(), wl.Tally()
    tracer = tr.Tracer() if trace else None
    with tr.wrapped(tracer) if trace else contextlib.nullcontext():
        runs = wl.run_cycle(seed, k, refs, tally, tracer)
    out = {"import_s": IMPORT_S, "seconds": {part: run.seconds for part, run in runs.items()},
           "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors}
    if tracer is not None:
        out["trace"] = tracer.state()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
