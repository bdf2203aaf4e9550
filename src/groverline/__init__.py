"""Absorption and localization for the three-state Grover walk on the line.

Four independent routes to the same physics cross-validate each other:

* :mod:`groverline.walk` steps the state vector directly with absorbing
  measurements at the boundaries;
* :mod:`groverline.series` builds the first-hit generating functions as
  truncated power series from their algebraic recurrences;
* :mod:`groverline.genfun` evaluates the closed forms of those functions,
  including the square-root branch on the unit circle and the
  two-boundary widening iteration;
* :mod:`groverline.absorb` turns them into absorption probabilities:
  exactly on a finite strip, from a committed table of the strip blocks'
  exact rational entries, correctly rounded; for one boundary from one
  3x3 form per distance, a fixed 16-node rule in the variable y = -l; and
  by circle-averaging quadrature as the cross-check of both;
  :mod:`groverline.localize` extracts the trapped-mass observables from
  long simulator runs.

The package holds only the production routes and what the ``groverline``
command and the benchmark run.  The independent forms the tests hold
them against are test oracles under ``tests/``: ``walk_oracle.py`` (the
sparse walk), ``series_oracle.py`` (the coefficient sweep),
``genfun_oracle.py`` (the tracked branch, the transfer-matrix forms and
the identities), ``strip_oracle.py`` (the dense two-solve, 80-bit and
float mirror-split strip solves), ``exact_oracle.py`` (the exact
rational strip blocks, which write and check the committed table) and
``exact_one_boundary.py`` (the exact one-boundary forms, from a moment
recurrence in Fractions).

``import groverline`` loads no numpy: it imports :mod:`groverline.absorb`,
whose exact strip route and query records compute in plain floats, and
the one validator, ``groverline._validate``.  The names of ``genfun``,
``localize``, ``series`` and ``walk``, and those four modules themselves,
are resolved on first access (PEP 562): the first access to any of them
imports all four, and numpy with them, and sets every one of their names
in the package's globals, so later lookups are plain.  In ``absorb``, the functions that return arrays or integrate
import numpy when called: the one-boundary form, the circle quadrature,
``absorption_matrices``, ``absorption_profile``, ``theorem4_sequence``
and ``table1``.  A default two-boundary query loads none.
"""

from importlib import import_module as _import_module

from .absorb import (
    AbsorptionAnswer,
    AbsorptionQuery,
    QuadratureSpec,
    Table1Row,
    ToleranceError,
    absorption_answer,
    absorption_matrices,
    absorption_profile,
    integrate_periodic,
    prob_one_boundary,
    prob_two_boundary,
    table1,
    theorem4_sequence,
)

#: the public names of the four numpy-backed modules
_LAZY_MODULES = {
    "genfun": ("BranchPointError", "PoleError", "delta", "delta_on_circle",
               "l_closed", "r_closed", "s_closed"),
    "localize": ("OscillationTrace", "oscillation_trace", "residual_near_origin",
                 "stationary_profile", "two_peak_profile"),
    "series": ("TruncatedSeries", "one_boundary_series", "two_boundary_series"),
    "walk": ("AbsorptionReport", "BoundarySpec", "CoinSpinor", "WindowWalk",
             "grover_coin", "run_walk"),
}
_LAZY_NAMES = frozenset(name for names in _LAZY_MODULES.values() for name in names)


def __getattr__(name: str):
    """Import the four numpy-backed modules on the first access to one of their names.

    All four at once: numpy is most of their cost (the other three take
    about 1 ms after ``walk``).  Every one of their public names is then
    set in the package globals, where the import has also set the four
    modules, and this hook and ``__dir__`` are removed, so the package is
    a plain module from then on.  That matters: CPython does not
    specialize attribute loads on a module whose namespace holds a
    ``__getattr__``, and each ``groverline.prob_two_boundary`` load took
    25 ns more while the hook was there (warm loop, 2-vCPU x86_64,
    Python 3.11).
    """
    if name not in _LAZY_NAMES and name not in _LAZY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    g = globals()
    for module, names in _LAZY_MODULES.items():
        loaded = _import_module(f"{__name__}.{module}")
        for attr in names:
            g[attr] = getattr(loaded, attr)
    # a second thread may be in this hook too: pop, never del
    g.pop("__getattr__", None)
    g.pop("__dir__", None)
    return g[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES, *_LAZY_MODULES})


__version__ = "0.1.0"

__all__ = [
    "AbsorptionAnswer",
    "AbsorptionQuery",
    "AbsorptionReport",
    "BoundarySpec",
    "BranchPointError",
    "CoinSpinor",
    "OscillationTrace",
    "PoleError",
    "QuadratureSpec",
    "Table1Row",
    "ToleranceError",
    "TruncatedSeries",
    "WindowWalk",
    "absorption_answer",
    "absorption_matrices",
    "absorption_profile",
    "delta",
    "delta_on_circle",
    "grover_coin",
    "integrate_periodic",
    "l_closed",
    "one_boundary_series",
    "oscillation_trace",
    "prob_one_boundary",
    "prob_two_boundary",
    "r_closed",
    "residual_near_origin",
    "run_walk",
    "s_closed",
    "stationary_profile",
    "table1",
    "theorem4_sequence",
    "two_boundary_series",
    "two_peak_profile",
]
