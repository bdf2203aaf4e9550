"""What importing the package loads and exports.

The load checks run in a fresh interpreter, so modules imported by other
tests in this process cannot hide or fake a load.  The surface checks pin
the public names, each the object its defining module holds though most
are resolved on first access, the names that moved to the test oracles or
were deleted, and the ``absorb`` attributes the benchmark's tracer wraps.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED = """\
import contextlib, io, json, sys

def loaded():
    return {
        "numpy": "numpy" in sys.modules,
        "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        "integrate": "scipy.integrate" in sys.modules,
        "fft": "numpy.fft" in sys.modules,
        "table": "groverline._strip_table" in sys.modules,
        "rows": None if gl.absorb._ROWS is None else len(gl.absorb._ROWS),
    }

seen = {}
import groverline as gl
seen["import"] = loaded()
"""

#: the routes in turn, each one-boundary and series route before the first
#: two-boundary read, which loads the strip table
PROBE = LOADED + """\
gl.one_boundary_series(70)
gl.two_boundary_series(3, 70)
seen["short_series"] = loaded()
gl.one_boundary_series(3000)
gl.two_boundary_series(3, 3000)
seen["series"] = loaded()
gl.prob_one_boundary(3, (0, 0, 1))
seen["prob_one_boundary"] = loaded()
gl.prob_one_boundary(5000, (0.6, 0.8j, 0))
seen["prob_one_boundary_far"] = loaded()
gl.absorption_answer(gl.AbsorptionQuery((0, 1, 0), left=2))
seen["absorption_answer_one"] = loaded()
gl.AbsorptionQuery((0, 0, 1), left=2, right=3)
seen["query"] = loaded()
gl.prob_two_boundary(gl.AbsorptionQuery((0, 0, 1), left=2, right=3))
seen["prob_two_boundary"] = loaded()
gl.absorption_profile(7)
seen["absorption_profile"] = loaded()
gl.table1(3)
seen["table1"] = loaded()
from groverline import cli
with contextlib.redirect_stdout(io.StringIO()):
    seen["theorem4_rc"] = cli.main(["theorem4", "--max-n", "5"])
seen["theorem4"] = loaded()
gl.prob_one_boundary(1, (0, 0, 1), gl.QuadratureSpec("adaptive-split", 1e-10))
seen["adaptive_split"] = loaded()
print(json.dumps(seen))
"""

#: the numpy-free path: a two-boundary query and its answers before any
#: route that loads numpy; then the first access to a walk name loads it
NUMPY_PROBE = LOADED + """\
q = gl.AbsorptionQuery((0, 0, 1), left=2, right=3)
seen["query"] = loaded()
gl.prob_two_boundary(q)
seen["prob_two_boundary"] = loaded()
gl.absorption_answer(gl.AbsorptionQuery((0.6, 0.8j, 0), left=20, right=5))
seen["absorption_answer_two"] = loaded()
seen["walk_bound_before"] = "run_walk" in vars(gl)
gl.run_walk
seen["run_walk"] = loaded()
seen["walk_bound_after"] = "run_walk" in vars(gl)
seen["all_bound"] = all(name in vars(gl) for name in gl.__all__)
seen["hook_gone"] = "__getattr__" not in vars(gl) and "__dir__" not in vars(gl)
print(json.dumps(seen))
"""

#: the numpy-free one-boundary path: default one-boundary queries, near and
#: far, before any route that loads numpy; then the first two-boundary read
ONE_BOUNDARY_MODULES = ("numpy", "numpy.polynomial", "groverline.genfun", "groverline._strip_table")
ONE_PROBE = """\
import json, sys

MODULES = %r
seen = {}
import groverline as gl
gl.prob_one_boundary(3, (0, 0, 1))
seen["prob_one_boundary"] = [m for m in MODULES if m in sys.modules]
gl.prob_one_boundary(5000, (0.6, 0.8j, 0))
seen["prob_one_boundary_far"] = [m for m in MODULES if m in sys.modules]
gl.absorption_answer(gl.AbsorptionQuery((0, 1, 0), right=20))
seen["absorption_answer_one"] = [m for m in MODULES if m in sys.modules]
seen["table"] = "groverline._one_boundary_table" in sys.modules
gl.prob_two_boundary(gl.AbsorptionQuery((0, 0, 1), left=2, right=3))
seen["prob_two_boundary"] = [m for m in MODULES if m in sys.modules]
print(json.dumps(seen))
""" % (ONE_BOUNDARY_MODULES,)

#: the modules the query records, the validator and the exact strip route
#: do without: the records write out what ``@dataclass(frozen=True)`` made,
#: and the validator imports ``numbers`` and ``cmath`` only for inputs that
#: are not exact built-in types
HEAVY = ("dataclasses", "inspect", "numbers", "cmath", "numpy")

#: the package import, a default two-boundary query and ``table1`` load none
#: of ``HEAVY``; then the dataclass functions still work on the records, and
#: the first of them loads ``dataclasses``
RECORD_PROBE = """\
import json, sys

HEAVY = %r
seen = {}
import groverline as gl
seen["import"] = [m for m in HEAVY if m in sys.modules]
answer = gl.prob_two_boundary(gl.AbsorptionQuery((0.6, 0.8j, 0), left=2, right=3))
seen["prob_two_boundary"] = [m for m in HEAVY if m in sys.modules]
rows = gl.table1(6)
seen["table1"] = [m for m in HEAVY if m in sys.modules]
import dataclasses
seen["fields"] = [f.name for f in dataclasses.fields(gl.AbsorptionAnswer)]
seen["replaced"] = repr(dataclasses.replace(answer, trapped=None))
seen["row"] = list(dataclasses.astuple(rows[0]))
try:
    dataclasses.replace(gl.QuadratureSpec(), abs_tol=0)
except ValueError as err:
    seen["refused"] = str(err)
seen["after"] = [m for m in HEAVY if m in sys.modules]
print(json.dumps(seen))
""" % (HEAVY,)


@functools.lru_cache(maxsize=None)
def _probe(script: str = PROBE) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_scipy_stays_off_the_default_routes():
    seen = _probe()
    assert seen["import"]["scipy"] == []
    # numpy.fft is imported by the series functions, not by the package, and
    # only for products longer than the direct-convolution crossover
    assert not seen["import"]["fft"]
    assert not seen["short_series"]["fft"]
    assert seen["series"]["fft"]
    assert seen["series"]["scipy"] == []
    # the default routes, the exact strip route included, load no scipy
    for step in ("prob_one_boundary", "prob_one_boundary_far", "absorption_answer_one",
                 "prob_two_boundary",
                 "absorption_profile", "table1", "theorem4"):
        assert seen[step]["scipy"] == [], step
    assert seen["theorem4_rc"] == 0
    # the probe does see a load: the explicit cross-check route makes one
    assert seen["adaptive_split"]["integrate"]


def test_numpy_stays_off_the_exact_strip_route():
    # the package import, a query and the default two-boundary answers run
    # in plain floats and load neither numpy nor scipy; the import loads no
    # strip table either
    for seen in (_probe(), _probe(NUMPY_PROBE)):
        assert not seen["import"]["numpy"]
        assert seen["import"]["scipy"] == []
        assert not seen["import"]["table"]
    seen = _probe(NUMPY_PROBE)
    for step in ("query", "prob_two_boundary", "absorption_answer_two"):
        assert not seen[step]["numpy"], step
        assert seen[step]["scipy"] == [], step
    assert seen["prob_two_boundary"]["table"]
    # the probe does see a load: the first access to a walk name imports
    # the four numpy-backed modules, numpy with them, binds every public
    # name on the package and removes the hook, so later loads are plain
    assert not seen["walk_bound_before"]
    assert seen["run_walk"]["numpy"]
    assert seen["walk_bound_after"]
    assert seen["all_bound"]
    assert seen["hook_gone"]
    assert _probe()["absorption_profile"]["numpy"]


def test_default_one_boundary_queries_load_no_numpy():
    # the form route reads a committed table and sums a series in plain
    # floats: no numpy, no Gauss-Legendre nodes, no genfun and no strip table
    seen = _probe(ONE_PROBE)
    for step in ("prob_one_boundary", "prob_one_boundary_far", "absorption_answer_one"):
        assert seen[step] == [], step
    assert seen["table"]
    # the probe does see a load: the first two-boundary read imports the strip table
    assert seen["prob_two_boundary"] == ["groverline._strip_table"]


def test_records_and_validator_load_no_heavy_module():
    seen = _probe(RECORD_PROBE)
    for step in ("import", "prob_two_boundary", "table1"):
        assert seen[step] == [], step
    # the dataclass protocol is served on demand, in the same interpreter
    assert seen["fields"] == ["p_left", "p_right", "total", "deficit", "error_estimate",
                              "trapped"]
    assert seen["replaced"].startswith("AbsorptionAnswer(p_left=0.4230209740742")
    assert seen["replaced"].endswith(", trapped=None)")
    assert seen["row"][0] == 1 and len(seen["row"]) == 8
    assert seen["refused"] == "abs_tol must be a finite positive real, got 0"
    # the probe does see a load: the dataclass functions import dataclasses
    assert "dataclasses" in seen["after"] and "inspect" in seen["after"]
    assert "numpy" not in seen["after"]


def test_strip_table_loads_on_the_first_two_boundary_query():
    # the committed table of strip blocks is imported by the first
    # two-boundary read, not by the package, the one-boundary routes or
    # building a query
    seen = _probe()
    for step in ("import", "short_series", "series", "prob_one_boundary",
                 "prob_one_boundary_far", "absorption_answer_one", "query"):
        assert not seen[step]["table"], step
        assert seen[step]["rows"] is None, step
    # and that read builds the rows of all K^2 = 196 clamped geometries
    assert seen["prob_two_boundary"]["table"]
    assert seen["prob_two_boundary"]["rows"] == 196


PUBLIC = {
    "AbsorptionAnswer", "AbsorptionQuery", "AbsorptionReport", "BoundarySpec",
    "BranchPointError", "CoinSpinor", "OscillationTrace", "PoleError",
    "QuadratureSpec", "Table1Row", "ToleranceError", "TruncatedSeries",
    "WindowWalk", "absorption_answer", "absorption_matrices", "absorption_profile",
    "delta", "delta_on_circle", "grover_coin", "integrate_periodic",
    "l_closed", "one_boundary_series", "oscillation_trace", "prob_one_boundary",
    "prob_two_boundary", "r_closed", "residual_near_origin", "run_walk", "s_closed",
    "stationary_profile", "table1", "theorem4_sequence", "two_boundary_series",
    "two_peak_profile",
}

#: names the package no longer holds: test oracles now under tests/, code
#: nothing but its own tests called, a second path to a CLI check, and
#: wrappers around the one stepping loop, the validator and the strip lookup,
#: the float strip solve, now a test oracle, the corner-mapped
#: Gauss-Legendre rule, which the one-boundary form replaced, and the
#: per-geometry row slots, which the table of all rows built at load replaced,
#: the nested 3x3 row builder, which the flat rows of 18 floats replaced, and
#: the one-boundary panel rule, now a test oracle, which the committed table
#: and series of exact forms replaced
GONE = (
    "BranchTrace", "OMEGA", "two_boundary_eval", "lambda_pm", "r_closed_two_boundary",
    "r_closed_uncorrected", "check_prop8", "check_prop10", "check_contraction",
    "WalkState", "apply_evolution", "project_is_at", "position_distribution",
    "_rescaled", "first_hit_amplitudes", "_BASIS", "COIN_ORDER",
    "prob_one_boundary_right", "_trapezoid_doubling", "_gauss_split",
    "theorem4_crosscheck", "_TWO_BOUNDARY_SPEC", "decay_slope", "tail_decay_fit",
    "partial_absorption", "spinor_mass_history", "_stein_doubling",
    "evolve", "_stepped", "_components", "_one_boundary_value", "_strip_blocks",
    "_solve_strip", "_mirror_doubling", "_STEIN_MAX_DOUBLINGS", "_SQRT_EPS", "_SQRT_HALF",
    "_strip_cache", "_GAUSS_SPLIT_ORDERS", "_gauss_split_rule", "_gauss_split_mean",
    "_ONE_BOUNDARY_SPEC", "_strip_rows", "_table_rows", "_symmetric",
    "_form_rule", "_S_END",
)
GONE_SERIES_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
    "__truediv__", "sqrt", "evaluate", "shift", "constant", "variable", "_same_order",
)


def test_public_surface_is_pinned():
    import groverline

    assert len(groverline.__all__) == len(PUBLIC) == 34
    assert set(groverline.__all__) == PUBLIC
    for name in groverline.__all__:
        assert getattr(groverline, name) is not None, name


def test_lazy_names_are_their_modules_objects():
    # most public names are resolved on first access; each is the very
    # object its defining module holds, by attribute, by from-import and
    # by import *
    import groverline
    from groverline import _validate, absorb, genfun, localize, series, walk

    homes = {}
    for module in (absorb, genfun, localize, series, walk):
        for name in PUBLIC & set(module.__all__):
            homes[name] = module
            assert getattr(groverline, name) is getattr(module, name), name
    assert set(homes) == PUBLIC
    namespace = {}
    exec("from groverline import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC
    for name, value in namespace.items():
        assert value is getattr(homes[name], name), name
    from groverline import run_walk
    assert run_walk is walk.run_walk
    listed = dir(groverline)
    assert set(groverline.__all__) <= set(listed)
    assert {"absorb", "genfun", "localize", "series", "walk"} <= set(listed)
    for module in (genfun, localize, series, walk):
        assert getattr(groverline, module.__name__.rsplit(".", 1)[1]) is module
    # the one validator, re-exported by walk
    assert walk.validate_input is _validate.validate_input
    assert walk.validate_steps is _validate.validate_steps
    assert walk.INIT_NORM_TOL is _validate.INIT_NORM_TOL


def test_unknown_names_raise_attribute_error():
    import pytest

    import groverline
    from groverline import absorb

    for module in (groverline, absorb):
        with pytest.raises(AttributeError, match="'nope'"):
            module.nope
        assert not hasattr(module, "nope")
    with pytest.raises(ImportError):
        from groverline import nope  # noqa: F401


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
    assert not hasattr(walk.CoinSpinor, "from_array")
    assert not hasattr(walk.WindowWalk, "position_probability")
    # the circle quadrature mirrors the right side itself
    assert not hasattr(absorb.AbsorptionQuery, "reversed_spinor")
    # advance is the one way to step the engine
    assert not hasattr(walk.WindowWalk, "step")
    assert "left" not in inspect.signature(absorb.table1).parameters
    assert "trace" not in inspect.signature(genfun.delta).parameters


def test_default_one_boundary_queries_integrate_nothing(monkeypatch):
    # the form route reads neither the circle quadrature nor a closed form
    # of genfun, however far the boundary; the fresh-interpreter probe above
    # pins that it loads no scipy module either
    import groverline
    from groverline import absorb, genfun

    calls = []

    def spy(name, orig):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return wrapper

    for module in (absorb, genfun):
        for name in ("integrate_periodic", "delta", "delta_on_circle", "l_closed",
                     "s_closed", "r_closed"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    psi = (0.6, 0.8j, 0)
    for m in (3, 5000):
        groverline.prob_one_boundary(m, psi)
        groverline.absorption_answer(groverline.AbsorptionQuery(psi, left=m))
        groverline.absorption_answer(groverline.AbsorptionQuery(psi, right=m))
    assert calls == []
    # the spies do see a call: an explicit spec integrates on the circle
    groverline.prob_one_boundary(3, psi, groverline.QuadratureSpec("adaptive-split", 1e-10))
    assert "integrate_periodic" in calls and "l_closed" in calls


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
