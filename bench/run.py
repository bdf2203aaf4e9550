"""groverline benchmark: one closed-loop client, two seeded workloads.

The absorb workload runs each cycle in a fresh worker process
(``worker.py``), one at a time; the timeline workload runs in this process.

From the repository root:

    python3 bench/run.py --workload absorb --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload timeline --steady 5

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones, and ``--steady N`` runs the workload in two sets of
N runs and compares their spreads and medians with the bounds.  The last
line of stdout is the result as one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as tr
import workloads as wl

ROOT, SRC = wl.ROOT, wl.SRC
WORKER = wl.BENCH_DIR / "worker.py"
WORKER_TIMEOUT = 150
SETUP_SAMPLES = 9
INTERP_SAMPLES = 3

IMPORT_PROBE = """\
import json, sys, time
before = len(sys.modules)
t0 = time.perf_counter()
import groverline
t1 = time.perf_counter()
print(json.dumps({"s": t1 - t0, "modules": len(sys.modules) - before,
                  "scipy_integrate": int("scipy.integrate" in sys.modules)}))
"""

#: what each part's cost is printed as, besides its slot: (name, natural unit, invert)
PART_LABELS = {
    "one": ("one_boundary_qps", "queries/s", True),
    "two": ("two_boundary_qps", "queries/s", True),
    "batch": ("spinor_batch_qps", "queries/s", True),
    "wide": ("wide_strip_s", "s", False),
    "strip": ("strip_steps_per_s", "steps/s", True),
    "open": ("open_steps_per_s", "steps/s", True),
    "series": ("series_coeffs_per_s", "coeffs/s", True),
}


def import_probe() -> dict:
    """``import groverline`` in a fresh interpreter: seconds and modules added."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=wl.subprocess_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def interp_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, timeout=60, check=True)
    return time.perf_counter() - t0


def part_cost(workload: str):
    """How a workload's parts turn their op times into seconds per unit of work.

    An absorb part reports its busy time over its work; every cycle is a
    fresh process, so each geometry is asked cold (the spinor batch reuses
    each geometry within its round, by design).  A timeline part reports
    one round with each catalog entry at its fastest (see
    ``workloads.fastest_cost``).
    """
    return wl.busy_cost if workload == "absorb" else wl.fastest_cost


def cold_cycle(seed: int, k: int, runs: dict, tally: wl.Tally, setup: list,
               tracer=None) -> None:
    """Absorb cycle ``k`` in a fresh worker; its timings are added to ``runs``."""
    rounds = {part: wl.make_round(part, seed, k) for part in wl.ABSORB_PARTS}
    cmd = [sys.executable, str(WORKER), str(seed), str(k), str(int(tracer is not None))]
    proc = None
    try:
        proc = subprocess.run(cmd, env=wl.subprocess_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        why = (proc.stderr.strip().splitlines() if proc else [])[-1:] or [repr(exc)]
        for ops in rounds.values():
            for op in ops:
                tally.record(op, f"worker failed: {why[0]}")
        return
    for part, ops in rounds.items():
        runs[part].rounds.append(ops)
        runs[part].ops.extend(ops)
        runs[part].seconds.extend(out["seconds"][part])
    tally.attempted += out["attempted"]
    tally.failed += out["failed"]
    tally.errors += out["errors"][:max(0, 20 - len(tally.errors))]
    setup.append(out["import_s"])
    if tracer is not None:
        tracer.extend(out["trace"])


def absorb_cycles(seed: int, seconds: float, tally: wl.Tally, setup: list, first: int = 0,
                  count: int | None = None, tracer=None) -> tuple[dict, int]:
    """Cold absorb cycles ``first``, ``first + 1``, ...; returns runs and count.

    Without ``count``, the first cycle's wall time, worker start included,
    sets how many cycles fill ``seconds``.
    """
    runs = {part: wl.PartRun() for part in wl.ABSORB_PARTS}
    t0 = time.perf_counter()
    cold_cycle(seed, first, runs, tally, setup, tracer)
    if count is None:
        count = max(1, round(seconds / (time.perf_counter() - t0)))
    for k in range(first + 1, first + count):
        cold_cycle(seed, k, runs, tally, setup, tracer)
    return runs, count


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return "unknown"


def env_record(seed: int) -> dict:
    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "git_commit": git_commit(), "seed": seed,
            "machine": platform.machine()}


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, wl.Tally]:
    """The end-to-end metrics of one untraced run."""
    tally, setup = wl.Tally(), []
    if workload == "absorb":
        runs, _ = absorb_cycles(seed, seconds, tally, setup)
    else:
        wl.warm_up()
        runs, _ = wl.run_parts({part: seconds * share for part, share in wl.TIMELINE_SHARES},
                               seed, wl.References(), tally,
                               probe=lambda: setup.append(import_probe()["s"]),
                               probes=SETUP_SAMPLES)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    cost = part_cost(workload)
    slots = {part: f"part{k}_s" for k, part in enumerate(wl.WORKLOADS[workload], 1)}
    for part, run in runs.items():
        value = cost(run)
        name, unit, invert = PART_LABELS[part]
        shown = 1.0 / value if invert else value
        if part in slots:
            metrics[slots[part]] = (value, "s")
        print(f"  {slots.get(part, 'unreported')} = {value:.6g} s   ({name} = {shown:.6g} {unit})"
              f"   {part}: {len(run.ops)} ops in {len(run.rounds)} rounds, {run.busy:.2f} s busy")
    print(f"  setup_s samples: {len(setup)}")
    return metrics, tally


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, wl.Tally]:
    """The per-layer metrics of one traced run.

    The workload's own parts run untraced and then traced on as many fresh
    rounds (absorb: cycles, each in its own worker); the ratio of their
    times is the tracing overhead.  Every other part but the wide strip
    then runs one traced round here, so each layer reports on every
    workload.
    """
    probe = import_probe()
    interp = statistics.median(interp_seconds() for _ in range(INTERP_SAMPLES))
    refs, tally, tracer = wl.References(), wl.Tally(), tr.Tracer()
    if workload == "absorb":
        plain, count = absorb_cycles(seed, seconds / 2, tally, [])
        traced, _ = absorb_cycles(seed, 0, tally, [], first=count, count=count, tracer=tracer)
        wl.warm_up()
    else:
        wl.warm_up()
        own = {part: seconds * share / 2 for part, share in wl.TIMELINE_SHARES}
        plain, counts = wl.run_parts(own, seed, refs, tally)
        with tr.wrapped(tracer):
            traced, _ = wl.run_parts(own, seed, refs, tally, tracer, counts,
                                     first=max(counts.values()))
    others = {part: 1 for part in wl.PARTS if part not in plain and part != "wide"}
    with tr.wrapped(tracer):
        wl.run_parts(others, seed, refs, tally, tracer, others)
    for part, run in plain.items():
        print(f"  {part}: {len(run.rounds)} rounds, {run.busy:.3f} s untraced, "
              f"{traced[part].busy:.3f} s traced")
    cost = part_cost(workload)
    metrics = {
        "import.modules_loaded": (probe["modules"], "count"),
        "import.scipy_integrate_loaded": (probe["scipy_integrate"], "count"),
        "cli.interp_s": (interp, "s"),
        "trace.overhead_frac": (_round_seconds(traced, cost) / _round_seconds(plain, cost) - 1.0,
                                "ratio"),
    }
    units = {"nodes_per_query": "count", "us_per_node": "us", "ns_per_node_level": "ns",
             "self_s": "s", "tolerance_errors": "count", "ns_per_node": "ns",
             "us_per_coeff": "us", "us_per_coeff_level": "us", "ns_per_site_step": "ns"}
    for name, value in tr.layer_metrics(tracer, [key for key, _ in wl.CLI]).items():
        unit = "s" if name.startswith("cli.main_warm_s.") else units[name.rsplit(".", 1)[1]]
        metrics[name] = (value, unit)
    if tracer.missing:
        print(f"  not wrapped (absent): {', '.join(tracer.missing)}")
    out = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json.gz"
    tracer.write(out, {"workload": workload, "seed": seed, "env": env_record(seed)})
    print(f"  {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    return metrics, tally


def _round_seconds(runs: dict, cost) -> float:
    """The seconds of one round of every part, at each part's ``cost`` per unit of work."""
    return sum(cost(run) * sum(op.work for op in run.rounds[0]) for run in runs.values())


def steady(workload: str, runs: int, seconds: int) -> dict:
    """Two sets of ``runs`` runs on fresh seeds: spreads and median drift vs bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for k in range(2):
        results = []
        for i in range(runs):
            seed = 1 + k * runs + i
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"seed {seed} failed:\n{proc.stderr}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"  set {k + 1} seed {seed}: correct={results[-1]['correct']}", flush=True)
        sets.append(results)
    report = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in s] for s in sets]
        spreads = [_spread(v) for v in values + [values[0] + values[1]]]
        med = [statistics.median(v) for v in values]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        drift = sign * (med[1] - med[0]) / med[0]
        ok = drift <= bound and max(spreads) <= bound and spreads[2] <= bound / 3
        report[name] = {"values": values, "median": med, "spread": spreads, "drift": drift,
                        "bound": bound, "ok": ok}
        print(f"  {name:12s} median {med[0]:.6g} / {med[1]:.6g}  spread "
              + " / ".join(f"{s:.3f}" for s in spreads)
              + f"  drift {drift:+.3f}  bound {bound}  {'ok' if ok else 'NOT STEADY'}")
    return report


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run two sets of N seeded runs and compare them")
    args = parser.parse_args(argv)
    if not (SRC / "groverline" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.steady:
        report = steady(args.workload, args.steady, args.seconds)
        print(json.dumps({"workload": args.workload, "steady": all(r["ok"] for r in report.values()),
                          "metrics": report}))
        return 0
    compileall.compile_dir(str(SRC), quiet=1)
    print(f"groverline benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    run = measure_traced if args.trace else measure
    metrics, tally = run(args.workload, args.seed, args.seconds)
    for problem in tally.errors:
        print(f"FAILED {problem}", file=sys.stderr)
    print("env " + json.dumps(env_record(args.seed)))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
