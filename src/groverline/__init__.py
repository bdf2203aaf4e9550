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
"""

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
from .genfun import (
    BranchPointError,
    PoleError,
    delta,
    delta_on_circle,
    l_closed,
    r_closed,
    s_closed,
)
from .localize import (
    OscillationTrace,
    oscillation_trace,
    residual_near_origin,
    stationary_profile,
    two_peak_profile,
)
from .series import (
    TruncatedSeries,
    one_boundary_series,
    two_boundary_series,
)
from .walk import (
    AbsorptionReport,
    BoundarySpec,
    CoinSpinor,
    WindowWalk,
    grover_coin,
    run_walk,
)

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
