"""Command line front end.

Every subcommand computes one table and writes it as CSV (default) or
JSON, to stdout or to a file.  Numbers are emitted with 12 significant
digits so identical invocations produce byte-identical output.

Exit codes: 0 success, 2 bad input (an ``--out`` path that cannot be
written included), 3 a tolerance could not be met (a flagged partial
result is still written when one exists).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from ._validate import validate_input, validate_steps
from .absorb import (
    AbsorptionQuery,
    QuadratureSpec,
    ToleranceError,
    absorption_answer,
    prob_one_boundary,
    prob_two_boundary,
    table1,
    theorem4_sequence,
)
from .localize import oscillation_trace
from .walk import BoundarySpec, CoinSpinor, WindowWalk

__all__ = ["main"]


def _cell(x):
    """One table cell: ``None``, an ``int``, or any other number as 12-digit text.

    The CSV writer prints ``None`` as an empty field and the text as it
    is; JSON keeps ``None`` and the ``int`` and reads the text back as a
    float.  ``bool`` counts as a float.
    """
    if x is None:
        return None
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    return f"{float(x):.12g}"


def _render(columns, rows, fmt: str) -> str:
    cells = [[_cell(x) for x in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(cells)
        return buf.getvalue()
    payload = {
        "columns": list(columns),
        "rows": [[float(c) if isinstance(c, str) else c for c in row] for row in cells],
    }
    return json.dumps(payload, indent=2) + "\n"


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    if not os.path.isabs(out):
        base = os.environ.get("GROVERLINE_OUT_DIR")
        if base:
            out = os.path.join(base, out)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_spinor(text: str) -> tuple[complex, complex, complex]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "spinor must be three comma-separated components"
        )

    def one(p: str) -> complex:
        p = p.strip()
        try:
            if ":" in p:
                re_s, im_s = p.split(":", 1)
                return complex(float(re_s), float(im_s))
            return complex(float(p), 0.0)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad spinor component {p!r}; use RE or RE:IM"
            ) from None

    spinor = tuple(one(p) for p in parts)
    try:
        validate_input(spinor)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return spinor


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"value must be finite and > 0, got {text!r}")
    return v


def _count(minimum: int):
    """argparse type for an integer >= ``minimum``, checked by ``validate_steps``."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        try:
            validate_steps(v, minimum, "value")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return v

    return parse


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    p.add_argument(
        "--out",
        default="-",
        help="output path; '-' for stdout; relative paths honor GROVERLINE_OUT_DIR",
    )


def _add_spinor_arg(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument(
        "--spinor",
        type=_parse_spinor,
        required=required,
        default=None if required else (0j, 0j, 1 + 0j),
        help="initial coin state as L,S,R with RE or RE:IM components "
        "(default 0,0,1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverline",
        description="Absorption and localization for the three-state "
        "Grover walk on the integer line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="step the walk directly; cumulative absorption or snapshots",
    )
    _add_spinor_arg(p, required=False)
    p.add_argument("--steps", type=_count(0), required=True)
    p.add_argument("--left", type=_count(1), default=None,
                   help="absorbing boundary this many sites left of the start")
    p.add_argument("--right", type=_count(1), default=None,
                   help="absorbing boundary this many sites right of the start")
    p.add_argument(
        "--snapshots",
        default=None,
        help="comma-separated times at which to dump the free-walk "
        "distribution (boundary-free runs only; default: the last step)",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("absorb", help="boundary absorption probabilities")
    _add_spinor_arg(p, required=False)
    p.add_argument("--left", type=_count(1), default=None)
    p.add_argument("--right", type=_count(1), default=None)
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="absolute tolerance for the circle average")
    _add_output_args(p)
    p.set_defaults(func=_cmd_absorb)

    p = sub.add_parser(
        "table1",
        help="left/right/total absorption table with scaled deficits",
    )
    p.add_argument("--max-n", type=_count(1), default=6)
    p.add_argument("--tol", type=_positive_float, default=1e-13)
    _add_output_args(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "theorem4",
        help="adjacent-left-boundary probabilities via the rational recurrence",
    )
    p.add_argument("--max-n", type=_count(0), default=10)
    p.add_argument(
        "--crosscheck",
        action="store_true",
        help="add an independent quadrature column (slower)",
    )
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="absolute tolerance for the --crosscheck column")
    _add_output_args(p)
    p.set_defaults(func=_cmd_theorem4)

    p = sub.add_parser(
        "localize", help="site probabilities near the start of the free walk"
    )
    _add_spinor_arg(p, required=False)
    p.add_argument("--steps", type=_count(1), default=500)
    _add_output_args(p)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser(
        "moving-boundary",
        help="single-boundary absorption as the boundary recedes",
    )
    _add_spinor_arg(p, required=False)
    p.add_argument("--max-m", type=_count(1), default=10)
    p.add_argument("--tol", type=_positive_float, default=None)
    _add_output_args(p)
    p.set_defaults(func=_cmd_moving_boundary)

    return parser


def _spec_for(args, method: str, default_tol: float) -> QuadratureSpec:
    tol = getattr(args, "tol", None)
    return QuadratureSpec(method=method, abs_tol=default_tol if tol is None else tol)


def _cmd_simulate(args) -> tuple[tuple, list, int]:
    init = CoinSpinor(*args.spinor)
    bounds = BoundarySpec(left=args.left, right=args.right)
    if bounds.any:
        if args.snapshots is not None:
            raise ValueError("--snapshots applies to boundary-free runs only")
        engine = WindowWalk(init, bounds, args.steps)
        rows = [(0, 0.0, 0.0, 1.0)]
        cum_l = cum_r = 0.0
        for t in range(1, args.steps + 1):
            engine.advance(1)
            if bounds.left is not None:
                cum_l += abs(engine.hit_left[-1]) ** 2
            if bounds.right is not None:
                cum_r += abs(engine.hit_right[-1]) ** 2
            rows.append((t, cum_l, cum_r, engine.norm2()))
        return ("t", "cum_left", "cum_right", "residual_norm"), rows, 0
    if args.snapshots is None:
        times = [args.steps]
    else:
        try:
            times = sorted({int(s) for s in args.snapshots.split(",")})
        except ValueError:
            raise ValueError("--snapshots must be comma-separated integers") from None
        if any(t < 0 or t > args.steps for t in times):
            raise ValueError("snapshot times must lie in [0, steps]")
    engine = WindowWalk(init, bounds, args.steps)
    rows = []
    for t in times:
        engine.advance(t - engine.t)
        probs = engine.probability_array()
        for i, p in enumerate(probs):
            if p > 0.0:
                rows.append((t, engine.lo + i, float(p)))
    return ("t", "position", "probability"), rows, 0


def _cmd_absorb(args) -> tuple[tuple, list, int]:
    query = AbsorptionQuery(spinor=args.spinor, left=args.left, right=args.right)
    two = query.left is not None and query.right is not None
    # always an explicit spec: for one boundary scipy's adaptive quadrature,
    # whose own error estimate is part of the printed output
    spec = _spec_for(
        args,
        method="trapezoid" if two else "adaptive-split",
        default_tol=1e-12 if two else 1e-10,
    )
    columns = ("p_left", "p_right", "total", "deficit", "error_estimate", "warning")
    try:
        ans = absorption_answer(query, spec)
    except ToleranceError as exc:
        # with two boundaries the partial value is one side's integral, and
        # which side is unknown, so only the error estimate is reported
        partial = (None, None) if two else (exc.value, 1.0 - exc.value)
        rows = [(None, None, *partial, exc.error, 1)]
        return columns, rows, 3
    rows = [(ans.p_left, ans.p_right, ans.total, ans.deficit, ans.error_estimate, 0)]
    return columns, rows, 0


def _cmd_table1(args) -> tuple[tuple, list, int]:
    rows = table1(max_n=args.max_n, spec=QuadratureSpec(method="trapezoid", abs_tol=args.tol))
    # every Table1Row field but precision_ok, which becomes the warning flag
    rows_out = [(*dataclasses.astuple(row)[:-1], 0 if row.precision_ok else 1) for row in rows]
    status = 3 if any(not row.precision_ok for row in rows) else 0
    columns = (
        "n",
        "p_left",
        "p_right",
        "total",
        "deficit_scaled_1e12",
        "log2_deficit",
        "error_estimate",
        "warning",
    )
    return columns, rows_out, status


def _cmd_theorem4(args) -> tuple[tuple, list, int]:
    seq = theorem4_sequence(args.max_n)
    if not args.crosscheck:
        if args.tol is not None:
            raise ValueError("--tol applies with --crosscheck only")
        return ("n", "p_recurrence"), [(n, seq[n]) for n in range(len(seq))], 0
    spec = _spec_for(args, method="trapezoid", default_tol=1e-12)
    rows = [(0, seq[0], None)]
    for n in range(1, len(seq)):
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=1, right=n), spec)
        rows.append((n, seq[n], ans.p_left))
    return ("n", "p_recurrence", "p_quadrature"), rows, 0


def _cmd_localize(args) -> tuple[tuple, list, int]:
    trace = oscillation_trace(args.steps, init=CoinSpinor(*args.spinor))
    columns = (trace.steps, trace.p_minus1, trace.p_zero, trace.total)
    rows = list(zip(*(c.tolist() for c in columns)))
    return ("t", "p_minus1", "p_zero", "total"), rows, 0


def _cmd_moving_boundary(args) -> tuple[tuple, list, int]:
    spec = _spec_for(args, method="adaptive-split", default_tol=1e-10)
    rows = [(m, prob_one_boundary(m, args.spinor, spec)) for m in range(1, args.max_m + 1)]
    return ("m", "p_left"), rows, 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        columns, rows, status = args.func(args)
    except ToleranceError as exc:
        print(f"groverline: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"groverline: {exc}", file=sys.stderr)
        return 2
    text = _render(columns, rows, args.format)
    try:
        _write(text, args.out)
    except OSError as exc:
        print(f"groverline: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
