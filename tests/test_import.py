"""What importing the package loads and exports.

The load checks run in a fresh interpreter, so modules imported by other
tests in this process cannot hide or fake a load.  The surface checks pin
the public names, the names that moved to the test oracles or were
deleted, and the ``absorb`` attributes the benchmark's tracer wraps.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """\
import contextlib, io, json, sys

def loaded():
    return {
        "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        "integrate": "scipy.integrate" in sys.modules,
        "fft": "numpy.fft" in sys.modules,
    }

seen = {}
import groverline as gl
seen["import"] = loaded()
gl.one_boundary_series(70)
gl.two_boundary_series(3, 70)
seen["series"] = loaded()
gl.prob_one_boundary(3, (0, 0, 1))
seen["prob_one_boundary"] = loaded()
gl.absorption_answer(gl.AbsorptionQuery((0, 1, 0), left=2))
seen["absorption_answer_one"] = loaded()
gl.prob_two_boundary(gl.AbsorptionQuery((0, 0, 1), left=2, right=3))
seen["prob_two_boundary"] = loaded()
gl.absorption_profile(7)
seen["absorption_profile"] = loaded()
from groverline import cli
with contextlib.redirect_stdout(io.StringIO()):
    seen["theorem4_rc"] = cli.main(["theorem4", "--max-n", "5"])
seen["theorem4"] = loaded()
gl.prob_one_boundary(1, (0, 0, 1), gl.QuadratureSpec("adaptive-split", 1e-10))
seen["adaptive_split"] = loaded()
print(json.dumps(seen))
"""


def _probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_scipy_stays_off_the_default_routes():
    seen = _probe()
    assert seen["import"]["scipy"] == []
    # numpy.fft is imported by the series functions, not by the package
    assert not seen["import"]["fft"]
    assert seen["series"]["fft"]
    assert seen["series"]["scipy"] == []
    for step in ("prob_one_boundary", "absorption_answer_one", "prob_two_boundary",
                 "absorption_profile", "theorem4"):
        assert not seen[step]["integrate"], step
    assert seen["prob_one_boundary"]["scipy"] == []
    assert seen["absorption_answer_one"]["scipy"] == []
    assert seen["theorem4_rc"] == 0
    # the probe does see a load: the explicit cross-check route makes one
    assert seen["adaptive_split"]["integrate"]


PUBLIC = {
    "AbsorptionAnswer", "AbsorptionQuery", "AbsorptionReport", "BoundarySpec",
    "BranchPointError", "CoinSpinor", "OscillationTrace", "PoleError",
    "QuadratureSpec", "Table1Row", "ToleranceError", "TruncatedSeries",
    "WindowWalk", "absorption_answer", "absorption_matrices", "absorption_profile",
    "decay_slope", "delta", "delta_on_circle", "evolve", "grover_coin",
    "integrate_periodic", "l_closed", "one_boundary_series", "oscillation_trace",
    "partial_absorption", "prob_one_boundary", "prob_two_boundary", "r_closed",
    "residual_near_origin", "run_walk", "s_closed", "spinor_mass_history",
    "stationary_profile", "table1", "tail_decay_fit", "theorem4_crosscheck",
    "theorem4_sequence", "two_boundary_series", "two_peak_profile",
}

#: names the package no longer holds: test oracles now under tests/, and
#: code nothing but its own tests called
GONE = (
    "BranchTrace", "OMEGA", "two_boundary_eval", "lambda_pm", "r_closed_two_boundary",
    "r_closed_uncorrected", "check_prop8", "check_prop10", "check_contraction",
    "WalkState", "apply_evolution", "project_is_at", "position_distribution",
    "_rescaled", "first_hit_amplitudes", "_BASIS", "COIN_ORDER",
    "prob_one_boundary_right", "_trapezoid_doubling", "_gauss_split",
)
GONE_SERIES_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "sqrt", "evaluate", "shift", "constant", "variable", "_same_order",
)


def test_public_surface_is_pinned():
    import groverline

    assert len(groverline.__all__) == len(PUBLIC) == 40
    assert set(groverline.__all__) == PUBLIC
    for name in groverline.__all__:
        assert getattr(groverline, name) is not None, name


def test_moved_and_deleted_names_are_gone():
    import inspect

    import groverline
    from groverline import absorb, cli, genfun, localize, series, walk

    for module in (groverline, absorb, cli, genfun, localize, series, walk):
        for name in GONE:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for name in GONE_SERIES_METHODS:
        assert not hasattr(series.TruncatedSeries, name), name
    assert not hasattr(walk.CoinSpinor, "is_normalized")
    assert "trace" not in inspect.signature(genfun.delta).parameters


def test_traced_names_stay_on_absorb():
    # bench/spans.py wraps these absorb attributes to time the genfun layer;
    # a missing one makes its per-layer metrics read 0 instead of failing
    import ast

    import groverline.absorb as absorb

    tree = ast.parse((SRC.parent / "bench" / "spans.py").read_text())
    wraps = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "ABSORB_WRAPS" for t in node.targets)
    )
    assert wraps
    for name, _ in wraps:
        assert callable(getattr(absorb, name, None)), name
    assert callable(getattr(absorb, "integrate_periodic", None))
