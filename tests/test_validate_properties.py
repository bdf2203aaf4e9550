"""The spinor check's one-pass fast path against the full checks.

``walk.validate_input`` accepts three components of exact built-in types
(``complex``, ``float``, ``int``) in one pass when their squared norm is
within ``INIT_NORM_TOL``; every other spinor takes the full checks: the
type test, finiteness, then the norm.  ``full_checks`` below is those
checks alone.  For every spinor drawn here, of built-in components with
``bool``, ``float`` and ``int`` subclasses among them, NaN, infinities,
signed zeros, integers past a float and norms within an ulp or two of
1 +- 1e-9, both return the same tuple or raise ``ValueError`` with the
same message.
"""

import cmath
import math
import numbers
import types

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from groverline import _validate  # noqa: E402
from groverline.walk import INIT_NORM_TOL, validate_input  # noqa: E402


def full_checks(spinor):
    """The spinor checks of ``validate_input`` without its one-pass fast path."""
    comps = tuple(spinor)
    if len(comps) != 3:
        raise ValueError("spinor needs exactly three components")
    for i, c in enumerate(comps):
        if isinstance(c, bool) or not isinstance(c, numbers.Number):
            raise ValueError(f"spinor component {i} must be a number, got {type(c).__name__}")
    try:
        for i, c in enumerate(comps):
            if not cmath.isfinite(c):
                raise ValueError(f"spinor component {i} must be finite")
        n2 = sum(abs(c) ** 2 for c in comps)
        off = abs(n2 - 1.0)
    except OverflowError:
        raise ValueError("spinor component too large for a float") from None
    if off > INIT_NORM_TOL:
        raise ValueError(
            f"spinor must have unit norm within {INIT_NORM_TOL}, got squared norm {n2!r}"
        )
    return comps


def outcome(check, spinor):
    """``("ok", result)`` or ``("error", message)``."""
    try:
        return "ok", check(spinor)
    except ValueError as e:
        return "error", str(e)


def assert_same_verdict(spinor):
    got, want = outcome(validate_input, spinor), outcome(full_checks, spinor)
    assert got[0] == want[0], (spinor, got, want)
    if got[0] == "ok":
        # a tuple comes back as itself from both
        assert got[1] is want[1] is spinor
    else:
        assert got[1] == want[1]


class _Float(float):
    pass


class _Int(int):
    pass


def stepped(x: float, k: int) -> float:
    """``x`` moved ``k`` ulps."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else -math.inf)
    return x


#: the radii whose square is at the tolerance's two edges, and 1
EDGES = (math.sqrt(1.0 + INIT_NORM_TOL), math.sqrt(1.0 - INIT_NORM_TOL), 1.0)

near_unit = st.builds(stepped, st.sampled_from(EDGES), st.integers(-3, 3))
huge_int = st.integers(min_value=2 ** 1024, max_value=2 ** 1100)
component = st.one_of(
    st.floats(),  # NaN and infinities included
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 0, 1, -1, True, False]),
    st.integers(-3, 3),
    huge_int,
    huge_int.map(lambda n: -n),
    st.builds(complex, st.floats(), st.floats()),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    near_unit,
    near_unit.map(_Float),
    st.integers(-1, 1).map(_Int),
    st.sampled_from([_Float("nan"), _Float("inf"), _Int(2 ** 1030)]),
)


@settings(max_examples=500, deadline=None)
@given(st.tuples(component, component, component))
@example((EDGES[0], 0.0, 0.0))
@example((EDGES[1], -0.0, 0))
@example((stepped(EDGES[0], 1), 0.0, 0.0))
@example((stepped(EDGES[1], -1), 0.0, 0.0))
@example((-0.0, 1.0, 0.0))
@example((math.inf, 0, 0))
@example((math.nan, 0, 0))
@example((complex(math.inf, math.nan), 0, 0))
@example((2 ** 1024, 0, 0))
@example((math.nan, 10 ** 5000, 0))
@example((1e200, 0.0, 0.0))
@example((True, 0, 0))
@example((_Float(1.0), 0, 0))
@example((_Int(1), 0.0, 0.0))
@example((0, 0, 1))
def test_fast_path_gives_the_verdict_of_the_full_checks(spinor):
    assert_same_verdict(spinor)


@settings(max_examples=300, deadline=None)
@given(
    near_unit,
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 2 * math.pi),
    st.sampled_from([float, complex, _Float]),
)
def test_near_unit_spinors_at_the_tolerance_edges(radius, theta, phi, kind):
    # a spinor of squared norm within a few ulps of 1 +- INIT_NORM_TOL, its
    # mass split over the three components
    a = radius * math.cos(theta)
    b = radius * math.sin(theta) * math.cos(phi)
    c = radius * math.sin(theta) * math.sin(phi)
    assert_same_verdict((kind(a), complex(0.0, b), c))
    assert_same_verdict((kind(a), b, kind(c)))


def test_unit_spinor_of_builtin_types_takes_one_pass(monkeypatch):
    # the fast path answers without the finiteness checks; a numpy scalar
    # is no exact built-in type and takes them
    def refuse(c):
        raise AssertionError("the full checks ran")

    monkeypatch.setattr(_validate, "cmath", types.SimpleNamespace(isfinite=refuse))
    for psi in ((0.6, 0.8j, 0), (0, 0, 1), (0.48, -0.6, 0.64j)):
        assert validate_input(psi, left=1, right=2) is psi
    with pytest.raises(AssertionError, match="full checks"):
        validate_input((np.float64(0.6), 0.8j, 0))
