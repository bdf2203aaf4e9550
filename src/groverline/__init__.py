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
  exactly on a finite strip, by one Stein solve on the strip's
  contraction, and by circle-averaging quadrature for one boundary and as
  the two-boundary cross-check; :mod:`groverline.localize` extracts the
  trapped-mass observables from long simulator runs.

The package holds only the production routes and what the ``groverline``
command runs.  The independent forms the tests hold them against are
test oracles under ``tests/``: ``walk_oracle.py`` (the sparse walk),
``series_oracle.py`` (the coefficient sweep), ``genfun_oracle.py`` (the
tracked branch, the transfer-matrix forms and the identities) and
``strip_oracle.py`` (the dense two-solve strip construction).
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
    theorem4_crosscheck,
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
    decay_slope,
    oscillation_trace,
    residual_near_origin,
    stationary_profile,
    tail_decay_fit,
    two_peak_profile,
)
from .series import (
    TruncatedSeries,
    one_boundary_series,
    partial_absorption,
    two_boundary_series,
)
from .walk import (
    AbsorptionReport,
    BoundarySpec,
    CoinSpinor,
    WindowWalk,
    evolve,
    grover_coin,
    run_walk,
    spinor_mass_history,
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
    "decay_slope",
    "delta",
    "delta_on_circle",
    "evolve",
    "grover_coin",
    "integrate_periodic",
    "l_closed",
    "one_boundary_series",
    "oscillation_trace",
    "partial_absorption",
    "prob_one_boundary",
    "prob_two_boundary",
    "r_closed",
    "residual_near_origin",
    "run_walk",
    "s_closed",
    "spinor_mass_history",
    "stationary_profile",
    "table1",
    "tail_decay_fit",
    "theorem4_crosscheck",
    "theorem4_sequence",
    "two_boundary_series",
    "two_peak_profile",
]
