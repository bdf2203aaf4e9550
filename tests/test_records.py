"""absorb's four records against real ``@dataclass(frozen=True)`` twins.

``QuadratureSpec``, ``AbsorptionQuery``, ``AbsorptionAnswer`` and
``Table1Row`` are written out on ``absorb._Record`` instead of being
decorated, so that ``import groverline`` loads no :mod:`dataclasses`.  Each
twin below is the record as it was when it was decorated: the same
annotations (strings, as in ``absorb``), defaults and checks, and the
hand-written ``__init__`` of the query and the answer.  Every piece of the
dataclass protocol a caller can see is compared between the two: the
fields, parameters and match arguments, ``astuple``/``asdict``, ``repr``,
``==``/``!=`` and ``hash``, pickling and copying, the frozen errors and
``replace``, which validates again.  The suite runs on Python 3.10-3.12,
whose ``dataclasses`` differ in ``__dataclass_params__`` and in how the
generated methods are made.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import numbers
import pickle

import pytest

from groverline import absorb
from groverline._validate import validate_input, validate_steps


@dataclasses.dataclass(frozen=True)
class QuadratureSpec:
    method: str = "trapezoid"
    abs_tol: float = 1e-12
    max_points: int = 2 ** 22

    def __post_init__(self):
        if self.method not in ("trapezoid", "adaptive-split"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        tol = self.abs_tol
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
            raise ValueError(f"abs_tol must be a finite positive real, got {tol!r}")
        validate_steps(self.max_points, 16, "max_points")


@dataclasses.dataclass(frozen=True)
class AbsorptionQuery:
    spinor: tuple[complex, complex, complex]
    left: int | None = None
    right: int | None = None

    def __init__(
        self,
        spinor: tuple[complex, complex, complex],
        left: int | None = None,
        right: int | None = None,
    ) -> None:
        if left is None and right is None:
            raise ValueError("at least one boundary is required")
        spinor = validate_input(spinor, left=left, right=right)
        self.__dict__.update(spinor=spinor, left=left, right=right)


@dataclasses.dataclass(frozen=True)
class AbsorptionAnswer:
    p_left: float | None
    p_right: float | None
    total: float
    deficit: float
    error_estimate: float
    trapped: float | None = None

    def __init__(
        self,
        p_left: float | None,
        p_right: float | None,
        total: float,
        deficit: float,
        error_estimate: float,
        trapped: float | None = None,
    ) -> None:
        self.__dict__.update(
            p_left=p_left, p_right=p_right, total=total, deficit=deficit,
            error_estimate=error_estimate, trapped=trapped,
        )


@dataclasses.dataclass(frozen=True)
class Table1Row:
    n: int
    left: float
    right: float
    total: float
    deficit_scaled: float | None
    log2_deficit: float | None
    error_estimate: float
    precision_ok: bool


#: each record with the arguments of a few instances, and for ``replace``
#: the changes that each check refuses, by the message it gives
CASES = {
    "QuadratureSpec": (
        [(), ("adaptive-split", 1e-10), ("trapezoid", 1, 16), ("trapezoid", 0.5, 2 ** 40)],
        [{"method": "simpson"}, {"abs_tol": 0}, {"abs_tol": math.nan}, {"abs_tol": True},
         {"abs_tol": "1e-3"}, {"max_points": 15}, {"max_points": 64.0}],
    ),
    "AbsorptionQuery": (
        [((0, 0, 1), 2), ((0.6, 0.8j, 0), None, 5), ((0.48, -0.6, 0.64j), 3, 4)],
        [{"left": 0}, {"left": None, "right": None}, {"spinor": (1, 0, 1)},
         {"right": True}, {"spinor": None}],
    ),
    "AbsorptionAnswer": (
        [(0.25, 0.5, 0.75, 0.25, 0.0), (0.5, None, 0.5, 0.5, 5e-16),
         (2 / 3, 1 / 3, 1.0, 0.0, 0.0, 0.0), (math.nan, -0.0, math.inf, 0.0, 1.0, None)],
        [],
    ),
    "Table1Row": (
        [(1, 0.15, 0.45, 0.6, 4040404040.4, 31.9, 0.0, True),
         (6, 0.16, 0.43, 0.59, None, None, 2e-16, False)],
        [],
    ),
}


def pairs(name):
    """(record, twin) instances built from the same arguments."""
    record, twin = getattr(absorb, name), globals()[name]
    return [(record(*args), twin(*args)) for args in CASES[name][0]]


@pytest.fixture(params=sorted(CASES))
def name(request):
    return request.param


def test_class_level_protocol(name):
    record, twin = getattr(absorb, name), globals()[name]
    assert dataclasses.is_dataclass(record) and not dataclasses.is_dataclass(absorb._Record)
    # Field reprs hold name, type string, default and every flag
    assert repr(dataclasses.fields(record)) == repr(dataclasses.fields(twin))
    assert [(f.name, f.default, f.type) for f in dataclasses.fields(record)] == [
        (f.name, f.default, f.type) for f in dataclasses.fields(twin)
    ]
    assert repr(record.__dataclass_params__) == repr(twin.__dataclass_params__)
    assert record.__match_args__ == twin.__match_args__
    assert inspect.signature(record, eval_str=True) == inspect.signature(twin, eval_str=True)
    assert record.__qualname__ == twin.__qualname__


def test_instance_protocol(name):
    record = getattr(absorb, name)
    for rec, twin in pairs(name):
        assert dataclasses.fields(rec) == dataclasses.fields(record)
        assert repr(dataclasses.astuple(rec)) == repr(dataclasses.astuple(twin))
        assert repr(dataclasses.asdict(rec)) == repr(dataclasses.asdict(twin))
        assert repr(rec) == repr(twin)
        assert hash(rec) == hash(twin)
        # equal to a record of the same values, never to the twin or a tuple
        same = record(*vars(rec).values())
        assert rec == same and not rec != same and hash(rec) == hash(same)
        for other in (twin, dataclasses.astuple(rec)):
            assert rec != other and not rec == other
            assert rec.__eq__(other) is NotImplemented
        # a NaN field equals only itself and hashes by identity, so a pickled
        # NaN record neither equals nor hashes like its original, as the
        # twin's does not
        for clone in (lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy):
            back, twin_back = clone(rec), clone(twin)
            assert type(back) is record and repr(back) == repr(rec)
            assert (back == rec, hash(back) == hash(rec)) == (
                twin_back == twin, hash(twin_back) == hash(twin)
            )


def test_recursive_repr():
    cycle, twin_cycle = [], []
    rec = absorb.Table1Row(cycle, 0.1, 0.2, 0.3, None, None, 0.0, True)
    twin = Table1Row(twin_cycle, 0.1, 0.2, 0.3, None, None, 0.0, True)
    cycle.append(rec)
    twin_cycle.append(twin)
    assert repr(rec) == repr(twin) == (
        "Table1Row(n=[...], left=0.1, right=0.2, total=0.3, deficit_scaled=None, "
        "log2_deficit=None, error_estimate=0.0, precision_ok=True)"
    )


def test_frozen_errors(name):
    rec, twin = pairs(name)[0]
    before = repr(rec)
    for attr in (*rec.__match_args__, "other"):
        for act in (lambda r: setattr(r, attr, 1), lambda r: delattr(r, attr)):
            with pytest.raises(dataclasses.FrozenInstanceError) as got:
                act(rec)
            with pytest.raises(dataclasses.FrozenInstanceError) as want:
                act(twin)
            assert str(got.value) == str(want.value)
    assert repr(rec) == before


def test_replace_validates_again(name):
    record = getattr(absorb, name)
    for rec, twin in pairs(name):
        for field in rec.__match_args__:
            kept = dataclasses.replace(rec, **{field: getattr(rec, field)})
            assert type(kept) is record and repr(kept) == repr(twin)
        for change in CASES[name][1]:
            with pytest.raises(ValueError) as want:
                dataclasses.replace(twin, **change)
            with pytest.raises(ValueError) as got:
                dataclasses.replace(rec, **change)
            assert str(got.value) == str(want.value), change
        with pytest.raises(TypeError):
            dataclasses.replace(rec, nope=1)


def test_quadrature_spec_checks_match_the_twin():
    # every accepted value and every refusal, with its message, as the
    # decorated class's __post_init__ gave them
    for tol in (1e-12, 1, 0.5, 3.0, 10 ** 400, math.inf, -1e-3, 0.0, math.nan, True, "1", None):
        for points in (16, 15, 2 ** 22, 64.0, True, -5):
            try:
                want = repr(QuadratureSpec("trapezoid", tol, points))
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    absorb.QuadratureSpec("trapezoid", tol, points)
                assert str(got.value) == str(err)
            else:
                assert repr(absorb.QuadratureSpec("trapezoid", tol, points)) == want
