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
  3x3 form per distance, read from a committed table of exact forms or
  summed from their exact asymptotic series; and by circle-averaging
  quadrature as the cross-check of both;
  :mod:`groverline.localize` extracts the trapped-mass observables from
  long simulator runs.

The package holds only the production routes and what the ``groverline``
command and the benchmark run.  The independent forms the tests hold
them against are test oracles under ``tests/``: ``walk_oracle.py`` (the
sparse walk), ``series_oracle.py`` (the coefficient sweep),
``genfun_oracle.py`` (the tracked branch, the transfer-matrix forms and
the identities), ``strip_oracle.py`` (the dense two-solve, 80-bit and
float mirror-split strip solves), ``exact_oracle.py`` (the exact
rational strip blocks, which write and check the committed table),
``exact_one_boundary.py`` (the exact one-boundary forms, from a moment
recurrence in Fractions, and their series, which write and check the
committed one-boundary table) and ``one_boundary_rule.py`` (a 16-node
Gauss-Legendre rule for the same forms).

``import groverline`` loads no numpy and no ``dataclasses``: it imports
:mod:`groverline.absorb`, whose exact strip route and query records
compute in plain floats, and the one validator, ``groverline._validate``,
and nothing else the interpreter has not loaded at start: 4 modules and
about 0.8 ms, where absorb's records as ``@dataclass`` classes made it
18 modules and 9.4 ms, about 6 ms of it ``dataclasses`` and its
``inspect`` (medians of 21 fresh interpreters, 2-vCPU x86_64).  The
names of ``genfun``, ``localize``, ``series`` and ``walk``, and those four
modules themselves, are resolved on first access (PEP 562): the first
access to any of them imports all four, and numpy with them, and sets
every one of their names in the package's globals, so later lookups are
plain.  In ``absorb``, the functions that return arrays
or integrate import numpy when called: the circle quadrature,
``absorption_matrices``, ``absorption_profile`` and
``theorem4_sequence``.  A default one- or two-boundary query and
``table1`` load none, and the dataclass functions (``fields``,
``replace``, ...) load ``dataclasses`` only when called.

Each public name is written once: absorb's in ``absorb.__all__``, from
which they are imported here, and the lazy modules' in ``_LAZY_MODULES``.
The package's ``__all__`` is the two together, sorted.
"""

from importlib import import_module as _import_module

from . import absorb
from .absorb import *  # noqa: F403

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

#: absorb's names, imported above, and the lazy ones, in one sorted list
__all__ = sorted([*absorb.__all__, *_LAZY_NAMES])
