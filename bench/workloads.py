"""Fixed catalogs, seeded inputs, timed operations and answer checks.

A workload is a list of parts.  A part is a fixed catalog of operations on
one route of the package; one *round* runs the whole catalog once, in an
order and with spinors drawn from the seed and the round's index.  Runs
always stop at a round boundary, so every run of a part has the same
composition and its cost per unit of work does not depend on where the
clock ran out.

The absorb parts run in *cycles*: one round of each, in a fresh worker
process (``worker.py``), so no catalog geometry is ever asked twice in one
process except within the spinor batch, whose reuse is the point of it.
The timeline parts run their rounds interleaved in the benchmark process.

Every answer is checked against data that does not come from the same
route: frozen Hermitian forms (absorption and localization are quadratic
in the spinor), the series against the walk and back, norm ledgers, and
golden CLI output.  The frozen data lives in ``golden/`` and is rebuilt by
``make_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"

# --- catalogs (fixed; the seed only orders them and draws spinors) ---------

ONE_BOUNDARY = tuple(range(1, 11))
SWEEP = tuple((m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4, 6, 8, 10, 12))
BATCH = ((1, 5), (2, 5), (3, 5))  # not in SWEEP, so the sweep never reuses them
BATCH_SPINORS = 32  # 1.5-2 s per cycle; at 8 (0.4 s) its figure spread 0.14 over ten seeds
WIDE = ((5, 20),)
STRIPS = (2, 3, 4, 6, 8)  # right boundary of a strip whose left boundary is 1
STRIP_STEPS = 500
OPEN = (("half", 1000), ("half", 3000), ("free", 1000), ("free", 2000))
SERIES = ((0, 1500), (0, 3000), (2, 1500), (4, 1000))  # (right boundary, 0 = none; order)
LOCALIZE = (("oscillation_trace", 1000), ("two_peak_profile", 800),
            ("residual_near_origin", 1500))
RESIDUAL_LEFT = 2
RESIDUAL_WINDOW = 10
CLI = (
    ("absorb_one", "absorb --left 2 --spinor 0.6,0:0.8,0"),
    ("absorb_two", "absorb --left 2 --right 5"),
    ("absorb_two_json", "absorb --left 1 --right 3 --spinor 0,1,0 --format json"),
    ("table1", "table1 --max-n 6"),
    ("theorem4", "theorem4"),
    ("theorem4_crosscheck", "theorem4 --crosscheck"),
    ("moving_boundary", "moving-boundary --max-m 3"),
    ("simulate", "simulate --steps 500 --left 1"),
    ("simulate_snapshots", "simulate --steps 200 --snapshots 100,200 --format json"),
    ("localize", "localize"),
)
CLI_ARGV = {key: tuple(text.split()) for key, text in CLI}

# --- tolerances -------------------------------------------------------------

ONE_TOL = 1e-9      # one-boundary answer against its frozen form
TWO_TOL = 1e-11     # two-boundary answer against its frozen form
SERIES_TOL = 1e-12  # walk masses / amplitudes against series coefficients
FORM_TOL = 1e-12    # localization observables against their frozen forms
LEDGER_TOL = 1e-11  # residual + absorbed mass = 1

#: the absorb parts, in the order a cycle runs them
ABSORB_PARTS = ("one", "two", "batch", "wide")
#: the timeline parts with their share of the run's seconds, as busy time; the
#: rest of the run goes to the setup_s probes and the answer checks
TIMELINE_SHARES = (("strip", 0.25), ("open", 0.42), ("series", 0.18))
#: the parts whose cost each workload reports, in slot order (part1_s, ...).
#: The one-boundary part runs and is checked in every absorb cycle, but its
#: time follows the machine's speed too closely to be bounded (see README.md).
WORKLOADS = {"absorb": ("two", "batch", "wide"),
             "timeline": tuple(p for p, _ in TIMELINE_SHARES)}
#: every part, in the order used to derive its random stream from the seed
PARTS = ("one", "two", "batch", "wide", "strip", "open", "series", "cli_main")
#: wall seconds of untimed warm-up per process
WARM_UP_S = 0.5


@dataclass(frozen=True)
class Op:
    """One timed call: ``key`` is the catalog entry, ``work`` its units."""

    part: str
    key: tuple
    spinor: tuple | None
    work: float


def round_rng(seed: int, part: str, k: int) -> np.random.Generator:
    """The random stream of round ``k`` of one part; no two rounds share draws."""
    return np.random.default_rng([seed, PARTS.index(part), k])


def draw_spinor(rng: np.random.Generator) -> tuple:
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    return tuple(complex(c) for c in v)


def _shuffled(rng, items):
    return [items[i] for i in rng.permutation(len(items))]


def make_round(part: str, seed: int, k: int) -> list[Op]:
    """Round ``k`` of ``part``: its whole catalog, seed-ordered."""
    rng = round_rng(seed, part, k)
    if part == "one":
        return [Op(part, (m,), draw_spinor(rng), 1) for m in _shuffled(rng, ONE_BOUNDARY)]
    if part in ("two", "wide"):
        cat = SWEEP if part == "two" else WIDE
        return [Op(part, g, draw_spinor(rng), 1) for g in _shuffled(rng, cat)]
    if part == "batch":
        # geometry-major: each geometry answers a run of spinors back to back
        return [Op(part, g, draw_spinor(rng), 1)
                for g in _shuffled(rng, BATCH) for _ in range(BATCH_SPINORS)]
    if part == "strip":
        return [Op(part, (n, STRIP_STEPS), draw_spinor(rng), STRIP_STEPS)
                for n in _shuffled(rng, STRIPS)]
    if part == "open":
        # open walks, run directly and through localize
        cat = [("open", k) for k in OPEN] + [("localize", k) for k in LOCALIZE]
        return [Op(p, k, draw_spinor(rng), k[1]) for p, k in _shuffled(rng, cat)]
    if part == "series":
        return [Op(part, k, None, k[1] * max(k[0], 1)) for k in _shuffled(rng, SERIES)]
    if part == "cli_main":
        return [Op(part, (key,), None, 1) for key in _shuffled(rng, [k for k, _ in CLI])]
    raise ValueError(f"unknown part {part!r}")


def span_of(op: Op) -> tuple[str, float]:
    """Span name and span work of an op in a traced run.

    Walk spans count *nominal* site-steps: the width of the window the
    geometry needs today times the steps, so a narrower window shows as a
    lower cost per nominal site-step.
    """
    if op.part == "one":
        return "absorb.one_boundary", 1
    if op.part in ("two", "batch", "wide"):
        return "absorb.two_boundary", sum(op.key)  # M + N widening levels
    if op.part == "strip":
        n, steps = op.key
        return "walk.strip", (n + 2) * steps
    if op.part == "open":
        kind, steps = op.key
        width = steps + 3 if kind == "half" else 2 * steps + 3
        return "walk.open", width * steps
    if op.part == "series":
        n, order = op.key
        return ("series.one_boundary" if n == 0 else "series.two_boundary"), op.work
    if op.part == "localize":
        return f"localize.{op.key[0]}", op.work
    return f"cli.main.{op.key[0]}", 1


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def execute(op: Op):
    """Run one op against the package and return its raw result."""
    import groverline as gl

    if op.part == "one":
        return gl.prob_one_boundary(op.key[0], op.spinor)
    if op.part in ("two", "batch", "wide"):
        m, n = op.key
        return gl.prob_two_boundary(gl.AbsorptionQuery(op.spinor, left=m, right=n))
    if op.part == "strip":
        n, steps = op.key
        return gl.run_walk(gl.CoinSpinor(*op.spinor), gl.BoundarySpec(left=1, right=n), steps)
    if op.part == "open":
        kind, steps = op.key
        bounds = gl.BoundarySpec(left=1) if kind == "half" else gl.BoundarySpec()
        return gl.run_walk(gl.CoinSpinor(*op.spinor), bounds, steps)
    if op.part == "series":
        n, order = op.key
        return gl.one_boundary_series(order) if n == 0 else gl.two_boundary_series(n, order)
    if op.part == "localize":
        name, steps = op.key
        init = gl.CoinSpinor(*op.spinor)
        if name == "oscillation_trace":
            return gl.oscillation_trace(steps, init=init)
        if name == "two_peak_profile":
            return gl.two_peak_profile(steps, init=init)
        return gl.residual_near_origin(RESIDUAL_LEFT, steps, RESIDUAL_WINDOW, init=init)
    if op.part == "cli_main":
        from groverline.cli import main

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(list(CLI_ARGV[op.key[0]]))
        return rc, buf.getvalue().encode()
    raise ValueError(f"unknown part {op.part!r}")


# --- frozen forms and cross-route references ---------------------------------

def form_from_list(v) -> np.ndarray:
    """3x3 Hermitian matrix from its 9 stored reals (diagonal, then Re/Im pairs)."""
    x = np.diag(np.asarray(v[:3], dtype=complex))
    for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        x[i, j] = complex(v[3 + 2 * k], v[4 + 2 * k])
        x[j, i] = np.conj(x[i, j])
    return x


def form_value(x: np.ndarray, spinor) -> float:
    psi = np.asarray(spinor, dtype=complex)
    return float(np.real(np.conj(psi) @ x @ psi))


def form_key(op: Op) -> str:
    if op.part == "one":
        return f"one:{op.key[0]}"
    if op.part in ("two", "batch", "wide"):
        return f"two:{op.key[0]}x{op.key[1]}"
    name, steps = op.key
    if name == "residual_near_origin":
        return f"{name}:{RESIDUAL_LEFT}:{steps}:{RESIDUAL_WINDOW}"
    return f"{name}:{steps}"


class References:
    """Check data: frozen forms and CLI output, plus lazily built cross-routes.

    Cross-route references are computed by the package outside the timed
    region, once per catalog entry, and reused for every spinor.
    """

    def __init__(self):
        self._forms = None
        self._cli_rc = None
        self._series = {}
        self._walk = {}

    def forms(self, key: str) -> dict:
        if self._forms is None:
            self._forms = json.loads((GOLDEN / "forms.json").read_text())
        return {side: form_from_list(v) for side, v in self._forms[key].items()}

    def cli(self, key: str) -> tuple[int, bytes]:
        if self._cli_rc is None:
            self._cli_rc = json.loads((GOLDEN / "cli" / "rc.json").read_text())
        return self._cli_rc[key], (GOLDEN / "cli" / f"{key}.out").read_bytes()

    def series(self, n: int, order: int) -> np.ndarray:
        """(l, s, r) coefficients 1..order as rows; n = 0 is one boundary."""
        if (n, order) not in self._series:
            import groverline as gl

            fs = gl.one_boundary_series(order) if n == 0 else gl.two_boundary_series(n, order)
            self._series[(n, order)] = np.array([f.coeffs[1:] for f in fs])
        return self._series[(n, order)]

    def walk_amplitudes(self, n: int, steps: int) -> np.ndarray:
        """Left first-hit amplitudes of the walk from coins L, S, R as rows."""
        if (n, steps) not in self._walk:
            import groverline as gl

            bounds = gl.BoundarySpec(left=1, right=n or None)
            rows = []
            for basis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                rows.append(gl.run_walk(gl.CoinSpinor(*basis), bounds, steps).first_hit_left)
            self._walk[(n, steps)] = np.array(rows)
        return self._walk[(n, steps)]


def _close(name: str, got, want, tol: float) -> str | None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    if not err <= tol:  # also catches NaN
        return f"{name} off by {err:.3g} (tolerance {tol:g})"
    return None


def _ledger(rep) -> str | None:
    total = rep.residual_norm + float(np.sum(rep.absorbed_left)) + float(np.sum(rep.absorbed_right))
    return _close("norm ledger", total, 1.0, LEDGER_TOL)


def _walk_masses(rep, spinor, coeffs, steps) -> str | None:
    if len(rep.absorbed_left) != steps:
        return f"{len(rep.absorbed_left)} left masses for {steps} steps"
    want = np.abs(np.asarray(spinor) @ coeffs) ** 2
    return _close("left masses vs series", rep.absorbed_left, want, SERIES_TOL) or _ledger(rep)


def check(op: Op, result, refs: References) -> str | None:
    """None when ``result`` is right for ``op``, else what is wrong."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    if op.part == "one":
        x = refs.forms(form_key(op))["left"]
        return _close("p_left", result, form_value(x, op.spinor), ONE_TOL)
    if op.part in ("two", "batch", "wide"):
        forms = refs.forms(form_key(op))
        total = form_value(forms["left"] + forms["right"], op.spinor)
        return (
            _close("p_left", result.p_left, form_value(forms["left"], op.spinor), TWO_TOL)
            or _close("p_right", result.p_right, form_value(forms["right"], op.spinor), TWO_TOL)
            or _close("total", result.total, total, 2 * TWO_TOL)
            or _close("deficit", result.deficit, 1.0 - total, 2 * TWO_TOL)
        )
    if op.part == "strip":
        n, steps = op.key
        return _walk_masses(result, op.spinor, refs.series(n, steps), steps)
    if op.part == "open":
        kind, steps = op.key
        if kind == "half":
            return _walk_masses(result, op.spinor, refs.series(0, steps), steps)
        if len(result.absorbed_left) or len(result.absorbed_right):
            return "free walk reported absorption"
        return _ledger(result)
    if op.part == "series":
        n, order = op.key
        got = np.array([f.coeffs for f in result])
        if got.shape != (3, order + 1):
            return f"series shape {got.shape}"
        return (_close("constant terms", got[:, 0], 0.0, 0.0)
                or _close("series vs walk amplitudes", got[:, 1:],
                          refs.walk_amplitudes(n, order), SERIES_TOL))
    if op.part == "localize":
        return _check_localize(op, result, refs.forms(form_key(op)))
    rc, out = result
    want_rc, want_out = refs.cli(op.key[0])
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    if out != want_out:
        return f"stdout differs from golden ({len(out)} vs {len(want_out)} bytes)"
    return None


def localize_observables(name: str, result) -> dict:
    """The quadratic observables of a localization result, by form name."""
    if name == "oscillation_trace":
        return {"mean_m1": float(np.mean(result.p_minus1)), "mean_0": float(np.mean(result.p_zero)),
                "last_m1": float(result.p_minus1[-1]), "last_0": float(result.p_zero[-1])}
    if name == "two_peak_profile":
        return {f"p{m}": result.get(m, 0.0) for m in (-1, 0, 1)}
    return {"value": float(result)}


def _check_localize(op: Op, result, forms) -> str | None:
    name = op.key[0]
    if name == "two_peak_profile":
        err = _close("profile mass", sum(result.values()), 1.0, LEDGER_TOL)
        if err:
            return err
    obs = localize_observables(name, result)
    for side, x in forms.items():
        err = _close(f"{name} {side}", obs[side], form_value(x, op.spinor), FORM_TOL)
        if err:
            return err
    return None


# --- measuring ----------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def record(self, op: Op, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.part} {op.key}: {problem}")


@dataclass
class PartRun:
    """Timings of the ops of one part, in the order they ran."""

    ops: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    rounds: list = field(default_factory=list)

    @property
    def busy(self) -> float:
        return float(sum(self.seconds))


def warm_up() -> None:
    """Touch each route, untimed and unchecked, for ``WARM_UP_S`` of wall time.

    Lazy set-up (first calls into numpy and scipy) is paid once per
    process, not per query, and a core left idle needs about half a second
    of load to reach full speed; both stay out of the timings.  No catalog
    geometry is touched, so nothing a query asks for is computed here.
    """
    import groverline as gl

    psi = (0, 0, 1)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < WARM_UP_S:
        gl.prob_two_boundary(gl.AbsorptionQuery(psi, left=4, right=1))
        gl.run_walk(gl.CoinSpinor(*psi), gl.BoundarySpec(left=1, right=2), 200)
        gl.two_boundary_series(2, 200)
        gl.oscillation_trace(100)
    gl.prob_one_boundary(max(ONE_BOUNDARY) + 1, psi)


def run_op(op: Op, refs: References, tally: Tally, tracer=None) -> float:
    """Time one op (closed loop: it starts after the previous one returned)."""
    span = None
    if tracer is not None:
        tracer.qid += 1
        span = tracer.begin(*span_of(op))
    t0 = time.perf_counter()
    try:
        result = execute(op)
    except Exception as exc:  # a failed op is counted, the run goes on
        result = exc
        if tracer is not None and type(exc).__name__ == "ToleranceError":
            tracer.counts["absorb.tolerance_errors"] += 1
    dt = time.perf_counter() - t0
    if span is not None:
        tracer.end(span)
    tally.record(op, check(op, result, refs))
    return dt


def run_round(run: PartRun, ops: list, refs: References, tally: Tally, tracer=None) -> None:
    run.rounds.append(ops)
    for op in ops:
        run.ops.append(op)
        run.seconds.append(run_op(op, refs, tally, tracer))


def schedule(counts: dict) -> list[str]:
    """Part names in run order, each part's rounds spread evenly over the run."""
    slots = [((k + 0.5) / n, i, part)
             for i, (part, n) in enumerate(counts.items()) for k in range(n)]
    return [part for _, _, part in sorted(slots)]


def run_parts(budgets: dict, seed: int, refs: References, tally: Tally,
              tracer=None, counts: dict | None = None, probe=None,
              probes: int = 0, first: int = 0) -> tuple[dict, dict]:
    """Whole rounds of several parts, interleaved; returns runs and round counts.

    Without ``counts``, each part first runs one round, and its time sets
    the part's round count: its budget in seconds over that round's time,
    rounded, at least one.  The remaining rounds of all parts are then
    interleaved, so every part samples the whole run rather than one
    stretch of it.  With ``counts``, exactly that many rounds run.
    ``probe`` is called ``probes`` times, spread over the run the same way.
    Round indices start at ``first``.
    """
    runs = {part: PartRun() for part in budgets}

    def one_round(part):
        k = first + len(runs[part].rounds)
        run_round(runs[part], make_round(part, seed, k), refs, tally, tracer)

    if counts is None:
        counts = {}
        for part, budget in budgets.items():
            one_round(part)
            counts[part] = max(1, round(budget / max(runs[part].busy, 1e-9)))
        remaining = {part: n - 1 for part, n in counts.items() if n > 1}
    else:
        remaining = dict(counts)
    for part in schedule(remaining | ({None: probes} if probes else {})):
        if part is None:
            probe()
        else:
            one_round(part)
    return runs, counts


def run_cycle(seed: int, k: int, refs: References, tally: Tally, tracer=None) -> dict:
    """Cycle ``k`` of the absorb workload: round ``k`` of each absorb part."""
    runs = {part: PartRun() for part in ABSORB_PARTS}
    for part in ABSORB_PARTS:
        run_round(runs[part], make_round(part, seed, k), refs, tally, tracer)
    return runs


def fastest_cost(run: PartRun) -> float:
    """Seconds per unit of work of one round, each op at its fastest.

    Each catalog entry's time is its minimum over the run; the round's
    composition weights them.  On a shared machine whose speed drifts by
    tens of percent over seconds, the minimum over samples spread across
    the run is what repeats from run to run.  The timeline parts use it;
    their keys repeat in one process, so a memo of a route's results
    would show here as a gain.
    """
    best = {}
    for op, s in zip(run.ops, run.seconds):
        best[op.key] = min(s, best.get(op.key, math.inf))
    first = run.rounds[0]
    return sum(best[op.key] for op in first) / sum(op.work for op in first)


def busy_cost(run: PartRun) -> float:
    """Seconds per unit of work over the whole run: busy time over work."""
    return run.busy / sum(op.work for op in run.ops)
