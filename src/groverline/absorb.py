"""Absorption probabilities: exact on a finite strip, by circle quadrature otherwise.

Two boundaries (production route): between the boundaries one step of the
walk is a real contraction on the interior amplitudes, so each side's
absorption probability is a Hermitian form psi^H X psi whose matrix solves
a Stein equation, and the never-absorbed mass is the form of the
projection onto the eigenvalue-1 flat band, the W - 2 compactly supported
states of a strip of width W = M + N.  The contraction depends
only on the strip width M + N, and the right side's matrix is the
site-and-coin mirror of the left side's, so one SVD and one Stein solve
per width, cached, give both sides and the trapped mass at every start
site.  :func:`absorption_matrices` returns the three start-site blocks of
one geometry and :func:`absorption_profile` those of every start site of
one strip; each answers every spinor.

Circle quadrature: the total absorption probability is also the sum of
squared first-hit amplitudes, i.e. the Hadamard square of a generating
function evaluated at 1, which turns into the circle average
(1/2pi) int |f(e^{i theta})|^2.  It is the production route for one
boundary and the cross-check route for two (pass a
:class:`QuadratureSpec`).  One refinement loop, :func:`integrate_periodic`,
doubles the node count until two levels agree; the two integrand families
differ only in its level sequence:

* two-boundary integrands are rational with every pole strictly outside
  the closed disk, so the periodic midpoint trapezoid rule on 64 * 2^k
  nodes converges spectrally and reaches ~1e-13 absolute error; nodes
  are offset by half a cell so theta = 0 (a removable 0/0 point of the
  widening recursion) is never sampled.  The node count grows quickly
  with the strip width, because the strip's slowest decay rates crowd
  the unit circle;
* one-boundary integrands carry square-root corners at the two branch
  angles of Delta.  The circle is cut at those angles and at 0 and pi
  into four pieces, each with its corner at one end; the substitution
  theta = corner + (far - corner) u^2 makes the corner smooth in u, and
  Gauss-Legendre in u at orders 16, 32, ..., 1024 per piece converges
  spectrally (``"gauss-split"``, the default).  scipy's adaptive
  quadrature split at the same angles (``"adaptive-split"``) stays
  outside that loop as an explicit cross-check route; only it loads
  ``scipy.integrate``, on first use.

The scalar recurrence for the adjacent-left-boundary probabilities p_n
and the localization-deficit table build on the same machinery.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .genfun import (
    BRANCH_ANGLES,
    delta_on_circle,
    l_closed,
    lsr_from_previous,
    r_iterates,
    s_closed,
    r_closed,
)
from .walk import grover_coin, validate_input, validate_steps

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
    "theorem4_crosscheck",
    "table1",
]

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
    * ``"gauss-split"``: corner-mapped Gauss-Legendre on the four pieces
      between the branch angles and 0, pi, levels of order 16, 32, ...,
      1024 per piece (4 * order nodes), for the one-boundary integrands
      with square-root corners (the one-boundary default);
    * ``"adaptive-split"``: scipy's adaptive quadrature split at the two
      branch angles, the independent cross-check for the same integrands.

    The first two run the same refinement loop over their own level
    sequence (:func:`integrate_periodic`).  ``abs_tol`` (a finite real
    > 0; a bool is refused) applies to the circle mean, not the raw
    integral; ``max_points`` (an integer >= 16) caps the evaluations of
    one refinement level.
    """

    method: str = "trapezoid"
    abs_tol: float = 1e-12
    max_points: int = 2 ** 22

    def __post_init__(self):
        if self.method not in ("trapezoid", "gauss-split", "adaptive-split"):
            raise ValueError(f"unknown quadrature method {self.method!r}")
        tol = self.abs_tol
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
            raise ValueError(f"abs_tol must be a finite positive real, got {tol!r}")
        validate_steps(self.max_points, 16, "max_points")


_TWO_BOUNDARY_SPEC = QuadratureSpec(method="trapezoid", abs_tol=1e-12)
_ONE_BOUNDARY_SPEC = QuadratureSpec(method="gauss-split", abs_tol=1e-10)


def integrate_periodic(f, spec: QuadratureSpec) -> tuple[float, float]:
    """Circle mean (1/2pi) int_0^2pi f(theta) dtheta with an error estimate.

    ``f`` must accept a numpy array of angles and return real values.
    The trapezoid and gauss-split rules share one refinement loop: each
    level of the method's sequence that fits in ``spec.max_points`` is
    evaluated in turn, and the difference from the previous level is the
    error estimate.  Raises :class:`ToleranceError` when the estimate
    cannot be pushed below ``spec.abs_tol`` that way.
    """
    if spec.method == "adaptive-split":
        return _adaptive_split(f, spec)
    if spec.method == "trapezoid":
        levels = (64 * 2 ** k for k in itertools.count())
        level_mean = _midpoint_mean
    else:
        levels = (4 * n for n in _GAUSS_SPLIT_ORDERS)
        level_mean = _gauss_split_mean
    prev = err = float("nan")
    points = 0
    for size in levels:
        if size > spec.max_points:
            break
        cur = level_mean(f, size)
        err = abs(cur - prev)
        if err < spec.abs_tol:
            return cur, err
        prev, points = cur, size
    raise ToleranceError(
        f"{spec.method} quadrature stuck above abs_tol={spec.abs_tol:g} at "
        f"{points} points (last difference {err:.3g}, max_points={spec.max_points})",
        value=prev,
        error=err,
    )


def _midpoint_mean(f, n: int) -> float:
    theta = 2 * np.pi * (np.arange(n) + 0.5) / n
    return float(np.mean(f(theta)))


#: Gauss-split orders per piece: 16, 32, ..., 1024.  At 2048 the node
#: nearest a corner sits about 1.5e-13 from the branch point, inside the
#: distance at which genfun refuses to pick a branch.
_GAUSS_SPLIT_ORDERS = tuple(16 * 2 ** k for k in range(7))


@functools.lru_cache(maxsize=len(_GAUSS_SPLIT_ORDERS))
def _gauss_split_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and circle-mean weights of the order-n rule on all four pieces.

    Each piece runs from a branch angle (its corner) to 0, pi or 2pi (its
    far end); theta = corner + (far - corner) u^2 with u = (x + 1) / 2 and
    Gauss-Legendre in x on [-1, 1], so d theta = (far - corner) u dx and
    a square-root corner becomes smooth in u.  Cached, because
    ``leggauss`` costs 1-5 ms at the orders a query uses, more than the
    integrand; the arrays are read-only, since every caller shares them.
    """
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n)
    u = 0.5 * (x + 1.0)
    b1, b2 = BRANCH_ANGLES
    pieces = ((b1, 0.0), (b1, np.pi), (b2, np.pi), (b2, 2 * np.pi))
    theta = np.concatenate([c + (far - c) * u * u for c, far in pieces])
    weight = np.concatenate([abs(far - c) * u * w for c, far in pieces])
    weight /= 2 * np.pi
    theta.flags.writeable = weight.flags.writeable = False
    return theta, weight


def _gauss_split_mean(f, size: int) -> float:
    theta, weight = _gauss_split_rule(size // 4)
    return float(weight @ f(theta))


def _adaptive_split(f, spec: QuadratureSpec) -> tuple[float, float]:
    from scipy import integrate

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


@dataclass(frozen=True)
class AbsorptionQuery:
    """Initial spinor plus at least one absorbing boundary."""

    spinor: tuple[complex, complex, complex]
    left: int | None = None
    right: int | None = None

    def __post_init__(self):
        if self.left is None and self.right is None:
            raise ValueError("at least one boundary is required")
        validate_input(self.spinor, left=self.left, right=self.right)

    @property
    def reversed_spinor(self) -> tuple[complex, complex, complex]:
        a, b, g = self.spinor
        return (g, b, a)


@dataclass(frozen=True)
class AbsorptionAnswer:
    """Left/right absorption plus the never-absorbed deficit.

    A side without a boundary reports ``None``.  With one boundary the
    deficit also contains the mass escaping to the open side, not only
    the localized remainder.  ``trapped`` is the never-absorbed mass
    psi^H P psi, computed directly from the flat-band projection on the
    exact two-boundary route and ``None`` on the quadrature routes.  On
    the exact route the deficit is that directly computed ``trapped``
    (never below zero, however small); the quadrature routes report
    1 - total, which rounds to about 1e-16 around a true zero.
    """

    p_left: float | None
    p_right: float | None
    total: float
    deficit: float
    error_estimate: float
    trapped: float | None = None


def _one_boundary_integrand(m: int, spinor):
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


def prob_one_boundary(m: int, spinor, spec: QuadratureSpec | None = None) -> float:
    """Probability of absorption at a single boundary m sites to the left.

    Computes (1/2pi) int |alpha L + beta S + gamma R|^2 |L|^(2m-2) dtheta;
    the basis cases reduce to the plain squared generating functions and
    the general spinor follows by linearity of the evolution and the
    projections.  With ``spec=None`` the corner-mapped Gauss-Legendre
    rule (``"gauss-split"``, abs_tol 1e-10) integrates; pass
    ``QuadratureSpec("adaptive-split", ...)`` for scipy's adaptive
    quadrature as a cross-check.
    """
    value, _ = _one_boundary_value(m, spinor, spec)
    return value


def _one_boundary_value(m, spinor, spec=None) -> tuple[float, float]:
    validate_input(spinor, m=m)
    spec = spec or _ONE_BOUNDARY_SPEC
    return integrate_periodic(_one_boundary_integrand(m, spinor), spec)


def _two_boundary_integrand(m: int, n: int, spinor):
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


@functools.lru_cache(maxsize=64)
def _strip_blocks(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start-site blocks of ``(X_left, X_right, P_trapped)`` for every start site.

    The strip between boundaries at -m and +n has W - 1 interior sites
    (W = m + n) and its one-step contraction A depends on W alone; the
    start site picks the block.  Returns three read-only ``(W - 1, 3, 3)``
    arrays whose entry s = m - 1 is the 3x3 diagonal block at the start
    site of geometry (m, W - m).  Cached per width, so every geometry and
    spinor of one strip shares one SVD and one Stein solve.

    X_right needs no solve of its own: reversing the whole site-major
    amplitude vector (site s -> W - 2 - s, coin c -> 2 - c) maps A to
    itself and the left loss row to the right one, so X_right = J X_left J
    with J that reversal, i.e. its blocks are X_left's reversed on all
    three axes.
    """
    import scipy.linalg as sla

    coin = grover_coin()
    sites = width - 1
    size = 3 * sites
    # site-major amplitudes (index 3 * site + coin); L moves one site left,
    # S stays, R moves one site right
    a = np.zeros((size, size))
    bands = a.reshape(sites, 3, sites, 3)
    for c, shift in ((0, 1), (1, 0), (2, -1)):
        target = np.arange(max(0, -shift), sites - max(0, shift))
        bands[target, c, target + shift] = coin[c]
    # one SVD splits the space into ker(A - I), the flat band of dimension
    # W - 2 (one compactly supported state per pair of adjacent interior
    # sites), and its orthonormal complement
    _, _, vt = sla.svd(a - np.eye(size))
    rank = size - (width - 2)
    rest, kernel = vt[:rank].T, vt[rank:].T
    a_rest = rest.T @ a @ rest
    c_rest = coin[0] @ rest[:3]  # the L row of the coin at the leftmost site
    x = sla.solve_discrete_lyapunov(a_rest.T, np.outer(c_rest, c_rest))
    rest_sites = rest.reshape(sites, 3, rank)
    kernel_sites = kernel.reshape(sites, 3, size - rank)
    x_left = (rest_sites @ x) @ rest_sites.transpose(0, 2, 1)
    trapped = kernel_sites @ kernel_sites.transpose(0, 2, 1)
    blocks = []
    for b in (x_left, x_left[::-1, ::-1, ::-1], trapped):
        b = 0.5 * (b + b.transpose(0, 2, 1))
        b.flags.writeable = False
        blocks.append(b)
    return tuple(blocks)


def absorption_matrices(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Start-site blocks ``(X_left, X_right, P_trapped)`` for boundaries at -m and +n.

    Between the boundaries one step (coin, then shift) is a real
    contraction A on the 3(m+n-1) amplitudes at sites -m+1..n-1.  The
    amplitude absorbed at -m on step t+1 is c_L A^t psi, with c_L the L row
    of the coin at site -m+1 (c_R: the R row at site n-1), so
    p_left = psi^H X_L psi, where X_L = sum_t (A^t)^T c_L^T c_L A^t solves
    the Stein equation X = A^T X A + c_L^T c_L.  A keeps the eigenvalue-1
    flat band (the compactly supported states that never reach a boundary,
    dimension m+n-2: the states with (1, 1/2, 0) on one interior site and
    (0, 1/2, 1) on the next); a contraction's unitary part reduces it, so
    the band is projected out orthogonally, leaving a strictly stable
    Stein equation, and its projection P is the trapped mass.  An SVD of
    A - I supplies the kernel and its orthonormal complement; the known
    dimension, not a singular-value threshold, splits them.  X_R is the
    site-and-coin mirror of X_L, so it needs no second solve.

    A depends only on the width m + n, so the work (one SVD, one Stein
    solve) is done once per width and cached, and every (m, n) with the
    same sum reads its blocks from it; see :func:`absorption_profile`.
    The returned arrays are fresh copies the caller may modify.

    Each block is real symmetric, in ``(L, S, R)`` order, and for every unit
    spinor psi^H (X_left + X_right + P_trapped) psi = 1 up to rounding, so
    one call answers every spinor of the geometry.
    """
    validate_input(left=m, right=n)
    return tuple(b[m - 1].copy() for b in _strip_blocks(int(m + n)))


def absorption_profile(width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(X_left, X_right, P_trapped)`` blocks for every start site of one strip.

    ``width`` = M + N (an integer >= 2) is the distance between the two
    boundaries.  Each result has shape ``(width - 1, 3, 3)``; entry s holds
    the :func:`absorption_matrices` blocks of boundaries at -(s + 1) and
    +(width - 1 - s), so psi^H X_left[s] psi is the paper's two-boundary
    left absorption probability for that geometry, and the three blocks
    of every entry sum to the identity.  The arrays are fresh copies.
    """
    validate_steps(width, 2, "width")
    return tuple(b.copy() for b in _strip_blocks(int(width)))


def _form(x: np.ndarray, spinor) -> float:
    psi = np.asarray(spinor, dtype=complex)
    return float(np.real(np.conj(psi) @ x @ psi))


def prob_two_boundary(
    query: AbsorptionQuery, spec: QuadratureSpec | None = None
) -> AbsorptionAnswer:
    """Both-sided absorption for boundaries at -M and +N.

    With ``spec=None`` (production) both sides are the forms psi^H X psi of
    :func:`absorption_matrices`, ``trapped`` is psi^H P_trapped psi, and
    ``error_estimate`` is the ledger residual
    |psi^H (X_left + X_right + P_trapped) psi - 1|.

    With a :class:`QuadratureSpec` the circle quadrature answers instead,
    as an independent cross-check: the left probability integrates
    |alpha l_N + beta s_N + gamma r_N|^2 times the product of |l_(N+k)|^2
    for the extra M-1 leftward legs, the right probability reuses the same
    code through the mirror swap (M, N, spinor) -> (N, M, reversed spinor),
    and ``error_estimate`` sums the two quadrature estimates.

    Either way the deficit is the localized mass that neither boundary
    ever absorbs: ``trapped`` on the exact route, 1 - total on the
    quadrature.
    """
    if query.left is None or query.right is None:
        raise ValueError("prob_two_boundary needs both boundaries")
    if spec is None:
        # the query is already validated, so read the cached read-only
        # blocks in place instead of absorption_matrices' fresh copies
        blocks = _strip_blocks(int(query.left + query.right))
        p_left, p_right, trapped = (
            _form(b[query.left - 1], query.spinor) for b in blocks
        )
        total = p_left + p_right
        return AbsorptionAnswer(
            p_left=p_left,
            p_right=p_right,
            total=total,
            deficit=trapped,
            error_estimate=abs(total + trapped - 1.0),
            trapped=trapped,
        )
    m, n = query.left, query.right
    p_left, err_left = integrate_periodic(
        _two_boundary_integrand(m, n, query.spinor), spec
    )
    p_right, err_right = integrate_periodic(
        _two_boundary_integrand(n, m, query.reversed_spinor), spec
    )
    total = p_left + p_right
    return AbsorptionAnswer(
        p_left=p_left,
        p_right=p_right,
        total=total,
        deficit=1.0 - total,
        error_estimate=err_left + err_right,
    )


def absorption_answer(
    query: AbsorptionQuery, spec: QuadratureSpec | None = None
) -> AbsorptionAnswer:
    """Dispatch a query to the right pipeline and fill an answer record.

    Two boundaries go to :func:`prob_two_boundary` (the exact strip route
    unless ``spec`` is given), one boundary to the circle quadrature
    (``"gauss-split"`` unless ``spec`` is given).  The walk mirrors
    exactly under swapping L and R, so a right boundary is the left
    computation with the spinor reversed.
    """
    if query.left is not None and query.right is not None:
        return prob_two_boundary(query, spec)
    left = query.left is not None
    m, spinor = (
        (query.left, query.spinor) if left else (query.right, query.reversed_spinor)
    )
    value, err = _one_boundary_value(m, spinor, spec)
    return AbsorptionAnswer(
        p_left=value if left else None,
        p_right=None if left else value,
        total=value,
        deficit=1.0 - value,
        error_estimate=err,
    )


def theorem4_sequence(max_n: int) -> np.ndarray:
    """p_0..p_max_n for a left boundary adjacent to the start (coin R).

    p_0 = 0 is the seed convention (a right boundary sitting on the
    start has identically-zero first-hit functions); each wider strip
    follows the rational recurrence p_next = (2 + 3p)/(3 + 4p), whose
    fixed point 1/sqrt(2) is the no-right-boundary limit.
    """
    validate_steps(max_n, 0, "max_n")
    out = np.empty(max_n + 1)
    out[0] = 0.0
    for k in range(max_n):
        out[k + 1] = (2 + 3 * out[k]) / (3 + 4 * out[k])
    return out


def theorem4_crosscheck(n: int) -> float:
    """|quadrature - recurrence| for p_n; two fully independent routes.

    The circle quadrature (trapezoid, abs_tol 1e-12) always runs here,
    never the exact strip route.
    """
    validate_steps(n, 1, "n")
    answer = prob_two_boundary(
        AbsorptionQuery(spinor=(0, 0, 1), left=1, right=n), _TWO_BOUNDARY_SPEC
    )
    return float(abs(answer.p_left - theorem4_sequence(n)[n]))


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


def table1(
    max_n: int = 6, spec: QuadratureSpec | None = None, left: int = 2
) -> list[Table1Row]:
    """Left/right/total absorption for right boundaries 1..max_n, coin R.

    The deficit column is scaled by 1e12 and reported with its log2, per
    the reference table's convention.  The deficit step s(n) - s(n+1) is
    the difference of the answers' deficits.  With ``spec=None`` the exact
    strip route answers and each deficit is the directly computed trapped
    mass, which loses less to cancellation than the difference of the
    totals.  With a :class:`QuadratureSpec` the circle quadrature answers
    and each deficit is 1 - total; at the default ``left = 2`` every total
    lies in [0.5, 1], where 1 - total is exact, so the step is the
    difference of the totals to the bit.
    """
    validate_steps(max_n, 2, "max_n")
    queries = [
        AbsorptionQuery(spinor=(0, 0, 1), left=left, right=n)
        for n in range(1, max_n + 1)
    ]
    answers = [prob_two_boundary(q, spec) for q in queries]
    steps = [b.deficit - a.deficit for a, b in zip(answers, answers[1:])]
    rows = []
    for i, ans in enumerate(answers):
        if i < len(steps):
            scaled = steps[i] * 1e12
            log2s = float(np.log2(scaled)) if scaled > 0 else None
        else:
            scaled = None
            log2s = None
        rows.append(
            Table1Row(
                n=i + 1,
                left=ans.p_left,
                right=ans.p_right,
                total=ans.total,
                deficit_scaled=scaled,
                log2_deficit=log2s,
                error_estimate=ans.error_estimate,
                precision_ok=ans.error_estimate <= 1e-12,
            )
        )
    return rows
