"""Absorption and localization for the three-state Grover walk on the line.

Four independent routes to the same physics cross-validate each other:

* :mod:`groverline.walk` steps the state vector directly with absorbing
  measurements at the boundaries;
* :mod:`groverline.series` builds the first-hit generating functions as
  truncated power series from their algebraic recurrences;
* :mod:`groverline.genfun` evaluates the closed forms of those functions,
  including the square-root branch bookkeeping on the unit circle and the
  two-boundary transfer-matrix solution;
* :mod:`groverline.absorb` turns them into absorption probabilities:
  exactly on a finite strip, by one Stein solve on the strip's
  contraction, and by circle-averaging quadrature for one boundary and as
  the two-boundary cross-check; :mod:`groverline.localize` extracts the
  trapped-mass observables from long simulator runs.
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
    prob_one_boundary_right,
    prob_two_boundary,
    table1,
    theorem4_crosscheck,
    theorem4_sequence,
)
from .genfun import (
    BranchPointError,
    BranchTrace,
    PoleError,
    delta,
    delta_on_circle,
    l_closed,
    lambda_pm,
    lsr_from_previous,
    r_closed,
    r_closed_two_boundary,
    r_iterates,
    s_closed,
    two_boundary_eval,
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
    WalkState,
    WindowWalk,
    apply_evolution,
    evolve,
    first_hit_amplitudes,
    grover_coin,
    position_distribution,
    project_is_at,
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
    "BranchTrace",
    "CoinSpinor",
    "OscillationTrace",
    "PoleError",
    "QuadratureSpec",
    "Table1Row",
    "ToleranceError",
    "TruncatedSeries",
    "WalkState",
    "WindowWalk",
    "absorption_answer",
    "absorption_matrices",
    "absorption_profile",
    "apply_evolution",
    "decay_slope",
    "delta",
    "delta_on_circle",
    "evolve",
    "first_hit_amplitudes",
    "grover_coin",
    "integrate_periodic",
    "l_closed",
    "lambda_pm",
    "lsr_from_previous",
    "one_boundary_series",
    "oscillation_trace",
    "partial_absorption",
    "position_distribution",
    "prob_one_boundary",
    "prob_one_boundary_right",
    "prob_two_boundary",
    "project_is_at",
    "r_closed",
    "r_closed_two_boundary",
    "r_iterates",
    "residual_near_origin",
    "run_walk",
    "s_closed",
    "spinor_mass_history",
    "stationary_profile",
    "table1",
    "tail_decay_fit",
    "theorem4_crosscheck",
    "theorem4_sequence",
    "two_boundary_eval",
    "two_boundary_series",
    "two_peak_profile",
]
