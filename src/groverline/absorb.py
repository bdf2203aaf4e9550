"""Absorption probabilities: exact on a finite strip, one 3x3 form per distance for one boundary.

Two boundaries (production route): between the boundaries one step of the
walk is a real contraction on the interior amplitudes, so each side's
absorption probability is a Hermitian form psi^H X psi, X the Gram matrix
of the start site's hit sequences, and the never-absorbed mass is the form
of the projection P onto the eigenvalue-1 flat band, the W - 2 compactly
supported states of a strip of width W = M + N.  Three times the step is an
integer matrix, so every block entry is a rational number.  The blocks
have a boundary layer: moving a wall one site farther from the start
changes them (3 - 2 sqrt 2)^2 = 0.0294 times as much as the move before,
the multiplier of the paper's Theorem 4 map p -> (2 + 3p)/(3 + 4p) at its
fixed point 1/sqrt 2.  So geometry (M, N) is read at (min(M, K),
min(N, K)) with K = :data:`_CLAMP` = 14, where the error of that
truncation is below 1e-20, and only the K^2 = 196 geometries with
M, N <= K are ever read.

Their blocks are committed, in the generated module ``_strip_table``: the
six upper-triangle entries of X_left and of P per geometry, each the float
nearest to the exact rational, so every entry is correctly rounded.
``tests/exact_oracle.py`` computes them exactly (Berlekamp-Massey over Q
for the strip's one hit-function denominator, the Gohberg-Semencul inverse
of its autocovariance for X_left, the closed-form flat band for P),
asserts the ledger X_left + X_right + P = I in Fractions, and writes the
module (``python tests/exact_oracle.py --write``; ``--check`` compares it
bit for bit).  X_right(M, N) is X_left(N, M) with the coin order
reversed, the site-and-coin mirror.  No linear algebra runs on this route.
The table is imported on the first two-boundary query, not by ``import
groverline``, and that query builds the rows of all K^2 clamped
geometries at once, so no later query builds anything.  Each block is real
symmetric, so a row is one flat tuple of 18 plain floats, the upper
triangles (LL, LS, LR, SS, SR, RR) of X_left, X_right and P in turn.  A
query unpacks its row once, forms the spinor's six real Gram terms once
and reads its three forms as three written-out sums of those terms with
the row's entries, in plain floats.
:func:`absorption_matrices` returns the three start-site blocks of one
geometry and :func:`absorption_profile` those of every start site of one
strip, broadcasting the blocks of (K, K) over the sites beyond K from both
walls; each answers every spinor.  All three routes read the table through
one lookup, ``_site_rows``, the one place the clamp is applied.

One boundary (production route): the absorption probability of a boundary
m sites away is the circle mean (1/2pi) int |alpha l + beta s + gamma r|^2
|l|^(2(m-1)) dtheta of the first-hit functions, so it too is a form
psi^H F_m psi.  On the outer arc theta_b < |theta| <= pi, theta_b =
arccos(-1/3) the branch angle of Delta, |l| = 1, and that arc gives the
m-independent limit M_inf.  On the inner arc l is real and lies in
[-1, -q], q = 5 - 2 sqrt 6, with l + 1/l = -2(2 + 3 cos theta), so y = -l
is a coordinate on each half of it, and

    F_m = M_inf + (1/pi) int_q^1 R(y) y^(2m-2) dy / sqrt((y - q)(1/q - y))

with R a Laurent polynomial in y.  The branch corner maps to y = 1, where
the integrand is smooth, and the only singularity left, 1/sqrt(y - q) at
theta = 0, is removed by y = q + (y1 - q) u^2 on the last panel.
``_one_boundary_form`` evaluates it with one fixed rule, 16 Gauss-Legendre
nodes per panel, for every m: no refinement loop, no tolerance and no
reach.  The form is its six upper-triangle entries, in a strip row's
order; a query reads it as one contraction, ``_strip_forms``, and a right
boundary reads the coin-reversed spinor.
``tests/exact_one_boundary.py`` computes F_m exactly from the moments of
y, and holds the rule to it.

Circle quadrature (cross-check route, with an explicit
:class:`QuadratureSpec`): the total absorption probability is also the
sum of squared first-hit amplitudes, i.e. the Hadamard square of a
generating function evaluated at 1, which turns into the circle average
(1/2pi) int |f(e^{i theta})|^2.  One function, ``_circle_answer``,
answers every such query: it integrates the left side, and the right side
as the left side of the mirrored walk.  The walk is symmetric under
swapping L and R together with the sites, so the right probability of
boundaries at -M and +N and spinor (alpha, beta, gamma) is the left
probability of boundaries at -N and +M and spinor (gamma, beta, alpha).

* two-boundary integrands are rational with every pole strictly outside
  the closed disk, so the periodic midpoint trapezoid rule on 64 * 2^k
  nodes (:func:`integrate_periodic`, which doubles the node count until
  two levels agree) converges spectrally and reaches ~1e-13 absolute
  error; nodes are offset by half a cell so theta = 0 (a removable 0/0
  point of the widening recursion) is never sampled.  The node count
  grows quickly with the strip width, because the strip's slowest decay
  rates crowd the unit circle;
* one-boundary integrands carry square-root corners at the two branch
  angles of Delta.  scipy's adaptive quadrature split at those angles
  (``"adaptive-split"``) integrates them as a cross-check; only it loads
  ``scipy.integrate``, on first use.  The factor |l|^(2(m-1)) narrows the
  corners to a width of about 1/m^2, and past m = 59 the rule misses them
  while its error estimate stays small, so it is refused there
  (:data:`_ONE_BOUNDARY_REACH`).

The scalar recurrence for the adjacent-left-boundary probabilities p_n
and the localization-deficit table build on the same machinery.

Imports: the module loads neither numpy nor :mod:`groverline.genfun`, so
the exact strip route, the query and answer records and the validator
run in plain Python.  What returns an array or integrates imports numpy
when called: :func:`absorption_matrices`, :func:`absorption_profile`,
:func:`theorem4_sequence`, :func:`table1`, the one-boundary form (and so a
default :func:`prob_one_boundary`), :func:`integrate_periodic` and the
integrands.  The integrands also import genfun, whose six functions
(``_GENFUN_NAMES``) they read from this module's globals;
``"adaptive-split"`` alone imports ``scipy.integrate``.  Those six names
and the arrays ``_M_INF`` and ``_EXPAND`` are served by the module's
``__getattr__`` on their first read.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace

from ._validate import validate_input, validate_steps

__all__ = [
    "ToleranceError",
    "QuadratureSpec",
    "AbsorptionQuery",
    "AbsorptionAnswer",
    "Table1Row",
    "integrate_periodic",
    "prob_one_boundary",
    "prob_two_boundary",
    "absorption_matrices",
    "absorption_profile",
    "absorption_answer",
    "theorem4_sequence",
    "table1",
]

#: the genfun functions the circle-quadrature integrands call, which the
#: benchmark's tracer wraps on this module; the integrands read them from
#: this module's globals when they run, so such a wrapper takes effect
_GENFUN_NAMES = (
    "r_iterates", "lsr_from_previous", "l_closed", "s_closed", "r_closed", "delta_on_circle",
)


def __getattr__(name: str):
    """Make a numpy- or genfun-backed module name on its first read.

    ``import groverline.absorb`` loads neither numpy nor genfun: the exact
    strip route and the query records compute in plain floats.  The
    :data:`_GENFUN_NAMES` and the numpy array ``_EXPAND`` are made here on
    their first read, from outside the module or through :func:`_lazy`, and
    stored in the module's globals, so every later read is a plain lookup.
    A name already set is kept, never replaced.  ``_M_INF`` is served from
    :func:`_form_rule` and not stored, so that the default one-boundary
    route adds no name to the module's namespace (see there).
    """
    if name in _GENFUN_NAMES:
        from . import genfun

        value = getattr(genfun, name)
    elif name == "_M_INF":
        return _form_rule()[2]
    elif name == "_EXPAND":
        # the index that expands rows of 18 upper-triangle entries (last
        # axis) into the three symmetric 3x3 blocks X_left, X_right, P_trapped
        import numpy as np

        value = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]]) + 6 * np.arange(3)[:, None, None]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, value)


def _lazy(name: str):
    """Module global ``name``, made by :func:`__getattr__` if it is not set yet."""
    g = globals()
    return g[name] if name in g else __getattr__(name)


class ToleranceError(RuntimeError):
    """Quadrature could not meet the requested tolerance.

    Carries the best value and its error estimate so callers can report a
    flagged partial result.
    """

    def __init__(self, message: str, value: float, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadratureSpec:
    """How to average a function over the circle.

    ``method`` is one of

    * ``"trapezoid"``: periodic midpoint rule, levels of 64 * 2^k nodes,
      for integrands analytic in a neighborhood of the circle;
    * ``"adaptive-split"``: scipy's adaptive quadrature split at the two
      branch angles, for the one-boundary integrands with square-root
      corners.

    Both are cross-check routes: a query without a spec reads the exact
    strip blocks or the one-boundary form.  ``abs_tol`` (a finite real
    > 0; a bool is refused) applies to the circle mean, not the raw
    integral; ``max_points`` (an integer >= 16) caps the evaluations of
    one refinement level of the trapezoid rule
    (:func:`integrate_periodic`).  That rule starts at 64 points and needs
    a second level, of 128, before it can return, so with ``max_points``
    below 128 it never answers: it raises :class:`ToleranceError` with a
    ``nan`` error (``"adaptive-split"`` only reads ``max_points // 1024``
    as its subinterval limit, at least 50, and answers at any accepted
    value).
    """

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


def integrate_periodic(f, spec: QuadratureSpec) -> tuple[float, float]:
    """Circle mean (1/2pi) int_0^2pi f(theta) dtheta with an error estimate.

    ``f`` must accept a numpy array of angles and return real values.
    The trapezoid rule refines: each level of 64 * 2^k midpoint nodes that
    fits in ``spec.max_points`` is evaluated in turn, and the difference
    from the previous level is the error estimate.  Raises
    :class:`ToleranceError` when the estimate cannot be pushed below
    ``spec.abs_tol`` that way, at once when a level's mean is not finite.
    ``"adaptive-split"`` hands ``f`` to scipy's adaptive quadrature.  No
    query without a :class:`QuadratureSpec` calls this.
    """
    if spec.method == "adaptive-split":
        return _adaptive_split(f, spec)
    prev = err = float("nan")
    points = 0
    for size in (64 * 2 ** k for k in itertools.count()):
        if size > spec.max_points:
            break
        cur = _midpoint_mean(f, size)
        err = abs(cur - prev)
        if err < spec.abs_tol:
            return cur, err
        prev, points = cur, size
        if not math.isfinite(cur):  # no finer level can repair it
            break
    raise ToleranceError(
        f"{spec.method} quadrature stuck above abs_tol={spec.abs_tol:g} at "
        f"{points} points (last difference {err:.3g}, max_points={spec.max_points})",
        value=prev,
        error=err,
    )


def _midpoint_mean(f, n: int) -> float:
    import numpy as np

    theta = 2 * np.pi * (np.arange(n) + 0.5) / n
    return float(np.mean(f(theta)))


def _adaptive_split(f, spec: QuadratureSpec) -> tuple[float, float]:
    import numpy as np
    from scipy import integrate

    from .genfun import BRANCH_ANGLES

    def f_scalar(theta: float) -> float:
        return float(np.asarray(f(np.array([theta]))).reshape(()))

    result = integrate.quad(
        f_scalar,
        0.0,
        2 * np.pi,
        points=list(BRANCH_ANGLES),
        epsabs=spec.abs_tol * 2 * np.pi,
        epsrel=1e-11,
        limit=max(50, spec.max_points // 1024),
        full_output=1,
    )
    value, abserr = result[0] / (2 * np.pi), result[1] / (2 * np.pi)
    if abserr > spec.abs_tol:
        detail = f": {result[3]!s}" if len(result) > 3 else ""
        raise ToleranceError(
            f"adaptive quadrature error estimate {abserr:.3g} exceeds "
            f"abs_tol={spec.abs_tol:g}{detail}",
            value=value,
            error=abserr,
        )
    return value, abserr


@dataclass(frozen=True, init=False)
class AbsorptionQuery:
    """Initial spinor plus at least one absorbing boundary.

    The spinor is stored as the tuple of components that
    :func:`validate_input` returns, so a one-shot iterable is read once and
    answers like its tuple, and a query built from a numpy array hashes.
    ``__init__`` is written out: the generated one of a frozen dataclass
    sets each field through its own ``object.__setattr__`` call and then
    calls ``__post_init__``, while this one runs the boundary check and the
    :func:`validate_input` call and then fills the instance's ``__dict__``
    in one call.  Fields, defaults, signature, ``==``, ``hash``
    and ``repr`` are the dataclass's, and :func:`dataclasses.replace` calls
    this ``__init__``, so it validates again.  A NamedTuple would build as
    fast, but it is a tuple: it equals a bare tuple of its values, and
    :func:`dataclasses.replace` refuses it.
    """

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


@dataclass(frozen=True, init=False)
class AbsorptionAnswer:
    """Left/right absorption plus the never-absorbed deficit.

    A side without a boundary reports ``None``.  With one boundary the
    deficit also contains the mass escaping to the open side, not only
    the localized remainder.  ``trapped`` is the never-absorbed mass
    psi^H P psi, computed directly from the flat-band projection on the
    exact two-boundary route and ``None`` on the other routes.  On the
    exact route the deficit is that directly computed ``trapped`` (never
    below zero, however small); the one-boundary form and the quadrature
    routes report 1 - total, which rounds to about 1e-16 around a true
    zero.

    ``__init__`` is written out, as for :class:`AbsorptionQuery`: it fills
    the instance's ``__dict__`` in one call instead of one
    ``object.__setattr__`` call per field, which took a good part of a
    cached strip query, and the routes pass the fields by position, which
    binds faster than keywords.  It stays a frozen dataclass, not a
    NamedTuple, so :func:`dataclasses.replace` works on it and it never
    equals a bare tuple.
    """

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
            p_left=p_left,
            p_right=p_right,
            total=total,
            deficit=deficit,
            error_estimate=error_estimate,
            trapped=trapped,
        )


def _bind_genfun() -> None:
    """Set the :data:`_GENFUN_NAMES` as globals for the integrands, keeping any already set."""
    for name in _GENFUN_NAMES:
        _lazy(name)


def _one_boundary_integrand(m: int, spinor):
    import numpy as np

    _bind_genfun()
    a, b, g = spinor

    def f(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        z = np.exp(1j * th)
        dl = delta_on_circle(th)
        lv = l_closed(z, dl)
        amp = a * lv + b * s_closed(z, dl) + g * r_closed(z, dl)
        out = np.abs(amp) ** 2
        if m > 1:
            out = out * np.abs(lv) ** (2 * (m - 1))
        return out

    return f


#: q = 5 - 2 sqrt 6 = -l(1), the near end of y = -l on the inner arc, and
#: 1/q; q is taken as 1/(5 + 2 sqrt 6), which has no cancellation
_INV_Q = 5.0 + 2.0 * math.sqrt(6.0)
_Q = 1.0 / _INV_Q
_S_END = math.log(_INV_Q)  # s = -ln y at y = q

#: A boundary farther than this is read at this distance, so that 2m - 1
#: stays a float: F_m - M_inf is about 0.03/m^2, below 2e-21 here, far
#: under the rounding of M_inf's entries.
_FAR = 2 ** 32

#: The error estimate of a one-boundary answer on the form route, the
#: largest distance measured, rounded up: 1.1e-16 to the 30-digit reference
#: of tests/test_one_boundary_reach.py (coins L, S, R and a mixed spinor,
#: m = 1 to 10^6), 2.4e-16 to the exact forms of
#: tests/exact_one_boundary.py (100 random unit spinors, m = 1-40, 100, 200
#: and 400).  Every entry of F_m is within 1.2e-16 of the exact one for
#: m = 1..400.
_ONE_BOUNDARY_ERROR = 5e-16


@functools.cache
def _form_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-boundary form's constants, made on first use.

    The 16-point Gauss-Legendre nodes and weights on [0, 1], and M_inf, the
    outer arc's share of every F_m (|l| = 1 there), as its upper triangle
    in (L, S, R) order, LL, LS, LR, SS, SR, RR: a + (b sqrt 2 + c theta_b)/pi
    with the rows a, b and c below; LL = 1 - theta_b/pi,
    LS = -1 + (2 sqrt 2 + theta_b)/(2pi), LR = -1 + (2 sqrt 2 + 5 theta_b)/(4pi),
    SS = (2 sqrt 2 - theta_b)/pi, SR = (5 theta_b - 6 sqrt 2)/(4pi) and
    RR = (10 sqrt 2 - 7 theta_b)/(4pi).  ``absorb._M_INF`` is this M_inf.

    Kept here, not set as a module global on the first one-boundary query:
    a name added to the module's namespace makes every specialized global
    read of this module's functions miss for its next few dozen runs
    (CPython 3.11), which read as 0.3 us more per two-boundary query over
    the first queries after it in a fresh process.
    """
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    from .genfun import BRANCH_ANGLES

    x, w = leggauss(16)
    m_inf = np.array([1.0, -1.0, -1.0, 0.0, 0.0, 0.0]) + (
        np.array([0.0, 1.0, 0.5, 2.0, -1.5, 2.5]) * math.sqrt(2.0)
        + np.array([-1.0, 0.5, 1.25, -1.0, 1.25, -1.75]) * BRANCH_ANGLES[0]
    ) / math.pi
    return 0.5 * (x + 1.0), 0.5 * w, m_inf


def _one_boundary_form(m: int) -> list[float]:
    """F_m, the form of a left boundary m sites away, as its upper triangle.

    Six floats, LL, LS, LR, SS, SR, RR, the order of each block of a
    strip row, so :func:`_strip_forms` reads both.

    F_m = M_inf + (1/pi) int_q^1 R(y) y^(2m-2) dy / sqrt((y - q)(1/q - y)),
    with y = -l on the inner arc and R's entries LL = y(1 - y),
    LS = -(1 - y)^2/2, LR = -(1 - y)(y^2 - 6y + 1)/(4y), SS = 2(1 - y),
    SR = (1 - y)^2/(2y) and RR = (1 - y)/y.  The rule: 16 Gauss-Legendre
    nodes per panel in s = -ln y, the first panel [0, 1/(2m - 1)], about
    the width of y^(2m-2)'s peak at y = 1, each next panel twice as wide.
    The panel that reaches y = q is taken in u, y = q + (y1 - q) u^2, where
    1/sqrt(y - q) dy = 2 sqrt(y1 - q) du: y - q is never formed there,
    which would put an entry 2.8e-15 off at m = 1.  That is 32 nodes at
    m = 1, 96 at m = 10, 368 at m = 10^6 and 560 at :data:`_FAR`.  ``m``
    must be a validated boundary distance.
    """
    import numpy as np

    m = m if m < _FAR else _FAR
    x, w, m_inf = _form_rule()
    ys, weights = [], []
    start, width = 0.0, 1.0 / (2 * m - 1)
    while start + width < _S_END:
        y = np.exp(-(start + width * x))
        ys.append(y)
        weights.append(width * w * y / np.sqrt((y - _Q) * (_INV_Q - y)))
        start, width = start + width, 2.0 * width
    top = math.exp(-start) - _Q
    y = _Q + top * x * x
    ys.append(y)
    weights.append(2.0 * math.sqrt(top) * w / np.sqrt(_INV_Q - y))
    y = np.concatenate(ys)
    weight = np.concatenate(weights) * y ** (2 * m - 2)
    v, inv = 1.0 - y, 1.0 / y
    r = np.array([y * v, -0.5 * v * v, -0.25 * v * (y * y - 6.0 * y + 1.0) * inv,
                  2.0 * v, 0.5 * v * v * inv, v * inv])
    return (m_inf + (r @ weight) / math.pi).tolist()


def prob_one_boundary(m: int, spinor, spec: QuadratureSpec | None = None) -> float:
    """Probability of absorption at a single boundary m sites to the left.

    The circle mean (1/2pi) int |alpha L + beta S + gamma R|^2 |L|^(2m-2)
    dtheta, by linearity of the evolution and the projections a Hermitian
    form psi^H F_m psi.  With ``spec=None`` (production) F_m is
    ``_one_boundary_form``'s fixed 16-node rule in y = -L, within
    :data:`_ONE_BOUNDARY_ERROR` of the 30-digit reference for every m >= 1.
    With ``QuadratureSpec("adaptive-split", ...)`` scipy's adaptive
    quadrature integrates the circle mean instead, as a cross-check; a
    looser ``abs_tol`` than 1e-10 is tightened to 1e-10, where its reach
    holds, and past that reach, m >= 60, it raises ``ValueError`` instead
    of answering (:data:`_ONE_BOUNDARY_REACH`).
    """
    spinor = validate_input(spinor, m=m)
    if spec is None:
        return _strip_forms([_one_boundary_form(m)], spinor)[0]
    return _circle_answer(m, None, spinor, spec).p_left


def _two_boundary_integrand(m: int, n: int, spinor):
    import numpy as np

    _bind_genfun()
    a, b, g = spinor

    def f(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        z = np.exp(1j * th)
        rs = r_iterates(n + m - 2, z)
        ln, sn, rn = lsr_from_previous(rs[n - 1], z)
        amp = a * ln + b * sn + g * rn
        for k in range(1, m):
            amp = amp * lsr_from_previous(rs[n + k - 1], z)[0]
        return np.abs(amp) ** 2

    return f


#: The largest boundary distance m at which the corner rule integrates one
#: boundary, and the abs_tol at which that reach was measured.  Past it the
#: |l|^(2(m-1)) corner peaks, of width about 1/m^2, fall between the rule's
#: nodes, and it agrees with itself to within abs_tol on a value that misses
#: them: the answer is wrong by far more than its error estimate.  Against a
#: 30-digit reference (tests/test_one_boundary_reach.py) at abs_tol 1e-10,
#: adaptive-split is within 1.1e-12 up to m = 59 and 7.8e-6 off at m = 60.
#: A looser abs_tol would stop sooner (at 1e-8 it was 1.4e-5 off at
#: m = 45), so a one-boundary side is integrated at min(abs_tol, 1e-10).
#: The trapezoid rule has no reach: it fails the corners by its own check.
_ONE_BOUNDARY_REACH = {"adaptive-split": 59}
_REACH_TOL = 1e-10


def _circle_answer(m, n, spinor, spec: QuadratureSpec) -> AbsorptionAnswer:
    """Circle-quadrature answer for boundaries at -m and +n (``None``: open side).

    The one quadrature route of both one- and two-boundary queries, run
    only under an explicit ``spec``.  A side whose far side is open
    integrates :func:`_one_boundary_integrand` at an ``abs_tol`` of at most
    :data:`_REACH_TOL`, the tolerance at which the rule's reach was
    measured, and is refused with ``ValueError`` past that reach before
    anything is integrated; a side with both walls integrates
    :func:`_two_boundary_integrand`.  The left side is integrated first and
    the right side is the mirrored left computation, (n, m, (gamma, beta,
    alpha)).  The total sums the sides, the deficit is 1 - total and the
    error estimate sums the sides' estimates.  ``m``, ``n`` and ``spinor``
    must be validated.
    """
    values, errors = [None, None], []
    for side, (near, far, psi) in enumerate(((m, n, spinor), (n, m, spinor[::-1]))):
        if near is None:
            continue
        if far is None:
            rule = spec
            reach = _ONE_BOUNDARY_REACH.get(rule.method, math.inf)
            if near > reach:
                raise ValueError(
                    f"{rule.method} is accurate for one boundary up to m = {reach}, got m = {near}"
                )
            if rule.abs_tol > _REACH_TOL:
                rule = replace(rule, abs_tol=_REACH_TOL)
            f = _one_boundary_integrand(near, psi)
        else:
            rule, f = spec, _two_boundary_integrand(near, far, psi)
        values[side], err = integrate_periodic(f, rule)
        errors.append(err)
    total = sum(value for value in values if value is not None)
    p_left, p_right = values
    return AbsorptionAnswer(p_left, p_right, total, 1.0 - total, sum(errors))


#: K, the depth of the strips' boundary layer: a wall more than K sites from
#: the start is read at distance K, X(M, N) = X(min(M, K), min(N, K)).  The
#: blocks forget a wall's distance geometrically.  For M = 1 and coin R the
#: left block's R-R entry is the orbit of Theorem 4's map
#: p -> (2 + 3p)/(3 + 4p), whose multiplier at its fixed point 1/sqrt 2 is
#: 1/(3 + 2 sqrt 2)^2 = (3 - 2 sqrt 2)^2 = 0.0294, and every entry of every
#: block, at every M, converges at that rate per site (measured in the
#: 80-bit reference of the tests).  The truncation error of the clamp at K,
#: the largest entry change over all geometries, is measured at about
#: 0.36 * 0.0294^(K - 1) for K = 4-11 (K = 10: 5.9e-15, K = 11: 1.8e-16);
#: K = 14 is the least K that puts it below 1e-20, so the answer is a
#: truncation whose error is bounded far below the table's rounding (half
#: an ulp per entry); the exact oracle finds 4.2e-21 to 4.4e-21 at (15, 15),
#: (14, 20) and (1, 30).  Fixed, not a knob: there is one strip route, and
#: the committed table holds the K^2 geometries with M, N <= K.
_CLAMP = 14

#: The three start-site blocks (X_left, X_right, P_trapped) of every clamped
#: geometry (m, n), m, n = 1..K, at index K * (m - 1) + n - 1, each row one
#: flat tuple of 18 floats: the upper triangles (LL, LS, LR, SS, SR, RR) of
#: X_left, of X_right and of P_trapped, in that order.  ``None`` until the
#: first two-boundary read builds all K^2 rows at once (:func:`_load_rows`),
#: then never changed.
_ROWS: tuple | None = None


def _load_rows() -> tuple:
    """Every clamped geometry's row of 18 floats, from the committed table.

    ``_strip_table`` holds X_left's and P_trapped's six upper-triangle
    entries per geometry, each the float nearest to the exact rational
    block; it is imported here, on the first two-boundary read, so that
    ``import groverline`` does not load it.  X_right(m, n) is X_left(n, m)
    with the coin order reversed, the site-and-coin mirror: its upper
    triangle is X_left(n, m)'s RR, SR, LR, SS, LS, LL.  Only the K^2 rows
    outlive the build, too few new objects to start a pass of the cyclic
    garbage collector.
    """
    from ._strip_table import BLOCKS

    k = _CLAMP
    rows = []
    for m in range(k):
        for n in range(k):
            i, j = 12 * (k * m + n), 12 * (k * n + m)
            ll, ls, lr, ss, sr, rr = BLOCKS[j:j + 6]
            rows.append((*BLOCKS[i:i + 6], rr, sr, lr, ss, ls, ll, *BLOCKS[i + 6:i + 12]))
    return tuple(rows)


def _site_rows(m: int, n: int) -> tuple:
    """Geometry (m, n)'s row: the upper triangles of X_left, X_right and P_trapped.

    The one reader of the strip table, and the one place the clamp is
    applied: (m, n) is read at (min(m, K), min(n, K)), K = :data:`_CLAMP`,
    with conditional expressions (two ``min()`` calls cost more on a
    repeated query).  The first call builds every clamped geometry's row
    into :data:`_ROWS`; every call, that first one included, is then one
    index into it, so a geometry read for the first time costs what a
    repeated one does.  ``m`` and ``n`` must be validated boundary
    distances.
    """
    global _ROWS
    rows = _ROWS
    if rows is None:
        rows = _ROWS = _load_rows()
    m = m if m < _CLAMP else _CLAMP
    n = n if n < _CLAMP else _CLAMP
    return rows[_CLAMP * (m - 1) + n - 1]


def _strip_forms(blocks, spinor) -> list[float]:
    """psi^H B psi for each real symmetric 3x3 block B, given as its upper triangle.

    Symmetry makes each form the real contraction
    sum_i B_ii |psi_i|^2 + 2 sum_{i<j} B_ij Re(conj(psi_i) psi_j), so the
    six real Gram terms of the spinor meet the blocks' entries in plain
    float arithmetic, no complex array built.  ``blocks`` is an iterable
    of (LL, LS, LR, SS, SR, RR) sixes: the one-boundary form, or a strip
    row cut into its three blocks.  The one-boundary route reads its form
    here; :func:`prob_two_boundary` writes the same sums out, in the same
    order, and the tests hold it to this to the bit.  Floats give floats,
    numpy floats give numpy floats of the same values.  A basis spinor e_k
    reads each block's B_kk exactly.
    """
    a, b, c = map(complex, spinor)
    ar, ai, br, bi, cr, ci = a.real, a.imag, b.real, b.imag, c.real, c.imag
    aa, bb, cc = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci
    ab, ac, bc = 2.0 * (ar * br + ai * bi), 2.0 * (ar * cr + ai * ci), 2.0 * (br * cr + bi * ci)
    return [
        x00 * aa + x11 * bb + x22 * cc + x01 * ab + x02 * ac + x12 * bc
        for x00, x01, x02, x11, x12, x22 in blocks
    ]


def absorption_matrices(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start-site blocks ``(X_left, X_right, P_trapped)`` for boundaries at -m and +n.

    Between the boundaries one step (coin, then shift) is a real
    contraction A on the 3(m+n-1) amplitudes at sites -m+1..n-1.  The
    amplitude absorbed at -m on step t+1 is c_L A^t psi, with c_L the L row
    of the coin at site -m+1 (c_R: the R row at site n-1), so
    p_left = psi^H X_L psi, where X_L = sum_t (A^t)^T c_L^T c_L A^t is the
    Gram matrix of the hit sequences.  A keeps the eigenvalue-1 flat band
    (the compactly supported states that never reach a boundary, dimension
    m+n-2: the states with (1, 1/2, 0) on one interior site and (0, 1/2, 1)
    on the next), and its projection P = B (B^T B)^-1 B^T is the trapped
    mass.  X_R is the site-and-coin mirror J X_L J.

    3A is an integer matrix, so each block entry is rational.  The blocks
    come from the committed table ``_strip_table``, where each entry is the
    float nearest to that rational, computed exactly by
    ``tests/exact_oracle.py`` (Berlekamp-Massey and the Gohberg-Semencul
    inverse for X_L, the closed-form band for P, the ledger
    X_L + X_R + P = I checked in Fractions); ``python tests/exact_oracle.py
    --write`` regenerates it and ``--check`` compares it bit for bit.  No
    linear algebra runs here.  The returned arrays are expanded anew, with
    one numpy index, from the geometry's row of 18 upper-triangle floats,
    built with every other geometry's on the first two-boundary read; the
    caller may modify them.

    The blocks are read at the clamped geometry (min(m, K), min(n, K)),
    K = :data:`_CLAMP` = 14, the table's depth.  That is a truncation: a
    wall's distance moves the blocks less at each site, by the factor
    (3 - 2 sqrt 2)^2 = 0.0294 of Theorem 4's recurrence at its fixed point,
    and past K the whole remaining change is below 1e-20, far below the
    entries' rounding.  Geometries with m, n <= K are read as they are.

    Each block is real symmetric, in ``(L, S, R)`` order, and for every unit
    spinor psi^H (X_left + X_right + P_trapped) psi = 1 up to the entries'
    rounding, a few ulp, so one call answers every spinor of the geometry.
    """
    import numpy as np

    validate_input(left=m, right=n)
    return tuple(np.array(_site_rows(m, n))[_lazy("_EXPAND")])


def absorption_profile(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X_left, X_right, P_trapped)`` blocks for every start site of one strip.

    ``width`` = M + N (an integer >= 2) is the distance between the two
    boundaries.  Each result has shape ``(width - 1, 3, 3)``; entry s holds
    the :func:`absorption_matrices` blocks of boundaries at -(s + 1) and
    +(width - 1 - s), so psi^H X_left[s] psi is the paper's two-boundary
    left absorption probability for that geometry, and the three blocks
    of every entry sum to the identity, up to the entries' rounding.  The
    arrays are fresh (three views of one new array, expanded from the
    sites' rows of 18 upper-triangle floats by one numpy index) and share
    no memory with the rows the table was read into.

    Each entry is read at its clamped geometry from the committed table, as
    in :func:`absorption_matrices`, to the bit, so a profile of any width
    needs no solve: only the at most 2K sites within K of a wall are read
    one by one, and the block of (14, 14) is broadcast over every site
    farther than that from both walls.  X_right is X_left's site-and-coin
    mirror to the bit, since the table stores X_left alone.  The clamp's
    truncation error is below 1e-20.
    """
    import numpy as np

    validate_steps(width, 2, "width")
    width = int(width)
    rows = np.empty((width - 1, 18))
    sites = range(width - 1)
    head, rest = sites[:_CLAMP], sites[_CLAMP:]
    inner, tail = rest[:-_CLAMP], rest[-_CLAMP:]
    if inner:  # both walls beyond K
        rows[inner.start:inner.stop] = _site_rows(_CLAMP, _CLAMP)
    near = [*head, *tail]
    rows[near] = [_site_rows(s + 1, width - 1 - s) for s in near]
    return tuple(rows[:, _lazy("_EXPAND")].swapaxes(0, 1))


def prob_two_boundary(
    query: AbsorptionQuery, spec: QuadratureSpec | None = None
) -> AbsorptionAnswer:
    """Both-sided absorption for boundaries at -M and +N.

    With ``spec=None`` (production) both sides are the forms psi^H X psi of
    :func:`absorption_matrices`, read at the clamped geometry
    (min(M, 14), min(N, 14)), ``trapped`` is psi^H P_trapped psi, and
    ``error_estimate`` is the ledger residual
    |psi^H (X_left + X_right + P_trapped) psi - 1|.  The blocks are the
    committed table's correctly rounded entries, whose exact values satisfy
    this ledger, so the residual reads the table's rounding and the form's
    arithmetic: a few ulp, not zero by construction.  The exact oracle
    ``tests/exact_oracle.py`` that made the table checks the ledger in
    Fractions.

    With a :class:`QuadratureSpec` the circle quadrature answers instead,
    as an independent cross-check: the left probability integrates
    |alpha l_N + beta s_N + gamma r_N|^2 times the product of |l_(N+k)|^2
    for the extra M-1 leftward legs, the right probability is the left one
    of the mirrored walk (boundaries at -N and +M, spinor (gamma, beta,
    alpha)), and ``error_estimate`` sums the two quadrature estimates.

    Either way the deficit is the localized mass that neither boundary
    ever absorbs: ``trapped`` on the exact route, 1 - total on the
    quadrature.

    The exact route unpacks the geometry's row of 18 floats once, forms
    the spinor's six Gram terms once (``complex()`` only on a component
    that is not already a ``complex``) and writes the three sums out, in
    :func:`_strip_forms`'s term order, so each answer is that contraction's
    to the bit.  That takes 1.7 us per cached query, where the generic
    contraction of the three blocks took 2.8 us (tight loop, 2-vCPU
    x86_64).
    """
    left, right = query.left, query.right
    if left is None or right is None:
        raise ValueError("prob_two_boundary needs both boundaries")
    if spec is not None:
        return _circle_answer(left, right, query.spinor, spec)
    # the query is validated: read its clamped geometry's prebuilt row
    (l00, l01, l02, l11, l12, l22, r00, r01, r02, r11, r12, r22,
     t00, t01, t02, t11, t12, t22) = _site_rows(left, right)
    a, b, c = query.spinor
    if type(a) is not complex:
        a = complex(a)
    if type(b) is not complex:
        b = complex(b)
    if type(c) is not complex:
        c = complex(c)
    ar, ai, br, bi, cr, ci = a.real, a.imag, b.real, b.imag, c.real, c.imag
    aa, bb, cc = ar * ar + ai * ai, br * br + bi * bi, cr * cr + ci * ci
    ab, ac, bc = 2.0 * (ar * br + ai * bi), 2.0 * (ar * cr + ai * ci), 2.0 * (br * cr + bi * ci)
    p_left = l00 * aa + l11 * bb + l22 * cc + l01 * ab + l02 * ac + l12 * bc
    p_right = r00 * aa + r11 * bb + r22 * cc + r01 * ab + r02 * ac + r12 * bc
    trapped = t00 * aa + t11 * bb + t22 * cc + t01 * ab + t02 * ac + t12 * bc
    total = p_left + p_right
    return AbsorptionAnswer(p_left, p_right, total, trapped, abs(total + trapped - 1.0), trapped)


def absorption_answer(
    query: AbsorptionQuery, spec: QuadratureSpec | None = None
) -> AbsorptionAnswer:
    """Dispatch a query to the right pipeline and fill an answer record.

    Two boundaries go to :func:`prob_two_boundary` (the exact strip route
    unless ``spec`` is given).  One boundary reads the form psi^H F_m psi
    of :func:`prob_one_boundary`, with ``error_estimate``
    :data:`_ONE_BOUNDARY_ERROR`, or under ``spec`` the circle quadrature,
    which raises ``ValueError`` past its reach.  A right boundary N sites
    away is answered as the left boundary of the mirrored walk: N sites to
    the left, spinor (gamma, beta, alpha).  With one boundary the deficit
    is 1 - total, the trapped and the escaping mass together.
    """
    if query.left is not None and query.right is not None:
        return prob_two_boundary(query, spec)
    # the query's spinor and boundary are validated
    if spec is not None:
        return _circle_answer(query.left, query.right, query.spinor, spec)
    if query.left is not None:
        (p,) = _strip_forms([_one_boundary_form(query.left)], query.spinor)
        return AbsorptionAnswer(p, None, p, 1.0 - p, _ONE_BOUNDARY_ERROR)
    (p,) = _strip_forms([_one_boundary_form(query.right)], query.spinor[::-1])
    return AbsorptionAnswer(None, p, p, 1.0 - p, _ONE_BOUNDARY_ERROR)


def theorem4_sequence(max_n: int) -> np.ndarray:
    """p_0..p_max_n for a left boundary adjacent to the start (coin R).

    p_0 = 0 is the seed convention (a right boundary sitting on the
    start has identically-zero first-hit functions); each wider strip
    follows the rational recurrence p_next = (2 + 3p)/(3 + 4p), whose
    fixed point 1/sqrt(2) is the no-right-boundary limit.
    """
    import numpy as np

    validate_steps(max_n, 0, "max_n")
    out = np.empty(max_n + 1)
    out[0] = 0.0
    for k in range(max_n):
        out[k + 1] = (2 + 3 * out[k]) / (3 + 4 * out[k])
    return out


@dataclass(frozen=True)
class Table1Row:
    """One row of the two-boundary probability table (left boundary fixed at -2).

    ``deficit_scaled`` is (s(n) - s(n+1)) * 1e12, the localization deficit
    step between consecutive strip widths; it needs the next row's sum, so
    the widest row carries None.  ``precision_ok`` flags whether the
    answer's error estimate (the ledger residual of the exact route, or
    the quadrature estimate) stayed within the 1e-12 the deficit column
    needs.
    """

    n: int
    left: float
    right: float
    total: float
    deficit_scaled: float | None
    log2_deficit: float | None
    error_estimate: float
    precision_ok: bool


def table1(max_n: int = 6, spec: QuadratureSpec | None = None) -> list[Table1Row]:
    """Left/right/total absorption for right boundaries 1..max_n, left at 2, coin R.

    The deficit column is scaled by 1e12 and reported with its log2, per
    the reference table's convention.  The deficit step s(n) - s(n+1) is
    the difference of the answers' deficits.  With ``spec=None`` the exact
    strip route answers and each deficit is the directly computed trapped
    mass, which loses less to cancellation than the difference of the
    totals.  With a :class:`QuadratureSpec` the circle quadrature answers
    and each deficit is 1 - total; with the left boundary at 2 every total
    lies in [0.5, 1], where 1 - total is exact, so the step is the
    difference of the totals to the bit.

    The exact route reads every right boundary n >= K = 14 at 14
    (:func:`absorption_matrices`), so with ``spec=None`` the deficit step
    of every row n >= 14 is exactly 0.0 and its ``log2_deficit`` is None:
    the true step there is below 1e-20, under the rounding of the
    table's entries.
    """
    import numpy as np

    validate_steps(max_n, 2, "max_n")
    answers = [
        prob_two_boundary(AbsorptionQuery(spinor=(0, 0, 1), left=2, right=n), spec)
        for n in range(1, max_n + 1)
    ]
    scaled = [(b.deficit - a.deficit) * 1e12 for a, b in zip(answers, answers[1:])]
    return [
        Table1Row(
            n=n,
            left=ans.p_left,
            right=ans.p_right,
            total=ans.total,
            deficit_scaled=step,
            log2_deficit=float(np.log2(step)) if step is not None and step > 0 else None,
            error_estimate=ans.error_estimate,
            precision_ok=ans.error_estimate <= 1e-12,
        )
        for n, (ans, step) in enumerate(zip(answers, [*scaled, None]), 1)
    ]
