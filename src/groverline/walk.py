"""Exact state-vector evolution of a three-state quantum walk on the integer line.

The walker carries a three-component coin with basis order ``(L, S, R)``:
the L component moves one site left per step, S stays, R moves right.  One
step applies the coin to every site and then shifts the components.  Sites
declared absorbing are measured after every step; mass found there is
removed from the state and recorded instead of renormalizing, so per-step
absorbed masses are directly the squared first-hit amplitudes that the
analytic modules reproduce.

The production engine is the dense :class:`WindowWalk`: it multiplies
only the live columns of the light cone, those holding a component at or
above a floor whose square is exactly 0.0, padded by a fixed block of zero
columns, with the coin and the shift fused into one matrix product per
step, and is fast enough for thousands of steps.  Its one stepping loop is
:meth:`WindowWalk.advance`, which runs any number of steps, and every
simulator entry point goes through it: :func:`run_walk`,
``residual_near_origin`` and the ``simulate`` command's snapshots jump
straight to the times they read, the ``simulate`` rows with boundaries
call ``advance(1)`` per row, and the localization trace and profile call
``advance(2)`` and read the last two states from the engine's two
buffers.  The engine validates the start spinor and the step count.
:func:`run_walk` returns an :class:`AbsorptionReport` of the per-step hit
amplitudes and masses and the residual norm.

The module holds only that engine and what drives it.  The sparse,
value-semantic walk the tests check the engine against shares no code
with it and lives in ``tests/walk_oracle.py``.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoinSpinor",
    "BoundarySpec",
    "AbsorptionReport",
    "WindowWalk",
    "grover_coin",
    "validate_input",
    "validate_steps",
    "run_walk",
]

#: normalization slack accepted for initial spinors; anything worse is rejected
INIT_NORM_TOL = 1e-9

#: columns of zeros multiplied on each side of the live columns, so that one
#: set of the kernel's views serves this many steps
_BLOCK = 32

#: the flush floor before scaling by the start spinor's smallest nonzero float
#: component: a float below it squares to exactly 0.0 (see ``WindowWalk``)
_FLOOR = 2.0 ** -600

#: component types accepted as numbers by identity, before any ABC check
_BUILTIN_NUMBERS = (complex, float, int)


def grover_coin() -> np.ndarray:
    """Return the 3x3 Grover coin: -1/3 on the diagonal, 2/3 elsewhere.

    The matrix is real, symmetric, unitary and involutory.  Row and column
    order is ``(L, S, R)``.

    Examples
    --------
    >>> G = grover_coin()
    >>> np.allclose(G @ G, np.eye(3))
    True
    >>> G @ np.array([0.0, 0.0, 1.0])
    array([ 0.66666667,  0.66666667, -0.33333333])
    """
    return (2.0 * np.ones((3, 3)) - 3.0 * np.eye(3)) / 3.0


#: ``validate_input``'s default spinor: a boundary-only call checks no spinor.
#: A private sentinel, not ``None``, so a ``None`` spinor is refused like
#: any other non-sequence.
_NO_SPINOR = object()


def validate_input(spinor=_NO_SPINOR, **boundaries) -> tuple | None:
    """Reject a spinor or boundary distance that no route can start from.

    The one check behind every entry point that takes these inputs.
    ``spinor`` (skipped only when not passed) must be a sequence of three
    finite numbers (``bool``, strings and ``None`` do not count) with unit
    squared norm within ``INIT_NORM_TOL``; nothing is rescaled.
    Each keyword names a boundary distance (``None`` means no boundary on
    that side), which must be an integer >= 1; ``bool`` does not count as
    an integer here.  Raises :class:`ValueError` on the first violation.

    Returns the tuple of the components it checked, taken from ``spinor``
    once, so a one-shot iterable is consumed here and the caller computes
    with exactly what passed; ``None`` when no spinor is passed.

    Exact built-in types (``int`` boundaries, ``complex``, ``float`` and
    ``int`` components) pass before the slower abstract-base-class checks,
    which on a cached strip query cost about as much as its arithmetic;
    ``bool`` is never an exact ``int``, and every other type takes those
    checks, so no verdict moves.  Three such components are accepted in
    one pass when their squared norm, the same sum the full checks form,
    is within the tolerance, which no NaN or infinity can be; anything
    else, an overflow included, takes the full checks and their message.
    A numpy float or complex of less than double precision is normed as a
    ``complex``, in the double precision every route computes in, not in
    its own: the float32 components nearest 0.6 and 0.8 are 4.8e-8 off
    unit norm as doubles, though their float32 squares sum to 1.
    """
    for name, v in boundaries.items():
        if v is None or (type(v) is int and v >= 1):
            continue
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 1:
            raise ValueError(f"{name} boundary must be an integer >= 1, got {v!r}")
    if spinor is _NO_SPINOR:
        return None
    # messages name a component's index and type, never its value: the repr
    # of an integer beyond 4300 digits raises a ValueError of its own
    try:
        comps = tuple(spinor)
    except TypeError:
        raise ValueError(f"spinor must be a sequence, got {type(spinor).__name__}") from None
    if len(comps) != 3:
        raise ValueError("spinor needs exactly three components")
    a, b, c = comps
    if type(a) in _BUILTIN_NUMBERS and type(b) in _BUILTIN_NUMBERS and type(c) in _BUILTIN_NUMBERS:
        try:
            if abs(abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 - 1.0) <= INIT_NORM_TOL:
                return comps
        except OverflowError:  # the checks below give its message
            pass
    for i, c in enumerate(comps):
        if type(c) in _BUILTIN_NUMBERS:
            continue
        if isinstance(c, bool) or not isinstance(c, numbers.Number):
            raise ValueError(f"spinor component {i} must be a number, got {type(c).__name__}")
    try:
        for i, c in enumerate(comps):
            if not cmath.isfinite(c):
                raise ValueError(f"spinor component {i} must be finite")
        n2 = sum(abs(complex(c) if _is_reduced(c) else c) ** 2 for c in comps)
        off = abs(n2 - 1.0)
    except OverflowError:  # an integer beyond a float, or a squared norm
        raise ValueError("spinor component too large for a float") from None
    if off > INIT_NORM_TOL:
        raise ValueError(
            f"spinor must have unit norm within {INIT_NORM_TOL}, got squared norm {n2!r}"
        )
    return comps


def _is_reduced(c) -> bool:
    """Whether ``c`` is a numpy float or complex narrower than a double."""
    return isinstance(c, np.inexact) and np.finfo(c.dtype).bits < 64


def validate_steps(steps, minimum: int = 0, name: str = "steps") -> None:
    """Reject a count that is not an integer >= ``minimum``.

    The one integer-count check: the walk engine applies it to ``steps``
    with minimum 0, entry points that need at least one step apply it
    before anything else compares ``steps``, and every other count
    argument (series orders and strip widths, the table and recurrence
    lengths, the localization spans and windows) goes through it as
    well.  ``name`` is the argument the message names.  ``bool`` does not
    count as an integer here; numpy integers do.  Raises
    :class:`ValueError`.
    """
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {steps!r}")
    if steps < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


@dataclass(frozen=True)
class CoinSpinor:
    """Coin amplitudes at one lattice site, in ``(L, S, R)`` order."""

    aL: complex = 0j
    aS: complex = 0j
    aR: complex = 0j

    def as_array(self) -> np.ndarray:
        return np.array([self.aL, self.aS, self.aR], dtype=complex)

    @property
    def norm2(self) -> float:
        return abs(self.aL) ** 2 + abs(self.aS) ** 2 + abs(self.aR) ** 2


@dataclass(frozen=True)
class BoundarySpec:
    """Optional absorbing sites: ``left=M`` puts one at -M, ``right=N`` at +N."""

    left: int | None = None
    right: int | None = None

    def __post_init__(self):
        validate_input(left=self.left, right=self.right)

    @property
    def any(self) -> bool:
        return self.left is not None or self.right is not None


class WindowWalk:
    """Dense evolution of the walk on the window of reachable positions.

    Positions run from ``lo`` to ``hi`` inclusive; a bounded side pins the
    window edge at the boundary site, a free side leaves ``steps + 1`` of
    slack so nothing can fall off the edge within ``steps`` steps, and
    advancing further raises.

    :meth:`advance` is the one stepping loop: it runs n steps with its
    per-step state in locals, and the only way to step the engine.  A
    bounded side's boundary site is a *sink column*: the product writes
    into it but never multiplies it, so mass that lands there goes no
    further.  Only the L component can land on the left boundary (from
    the first interior column) and only R on the right one; each step
    reads that one element, left first, as the step's hit amplitude, and
    nothing is zeroed inside the loop.  When ``advance`` returns it zeroes
    the boundary elements of the current buffer once, so ``amps``,
    :meth:`norm2`, :meth:`mass_within` and :meth:`probability_array` read
    the measured state after every call.  The rest of a boundary column
    is never written and stays zero.

    Clipping the product to the interior leaves one element unwritten in
    each interior column beside a boundary: R of the first one (it would
    come from the left boundary column) and L of the last one.  Those
    elements are zero in the walk, and in the buffers they stay zero,
    except that buffer 0 holds the start spinor until the first step: with
    a boundary next to the start, a component of it would linger there and
    be multiplied again two steps later.  So buffer 0 is cleared after the
    first step: the views built at t = 0 serve that step alone, and their
    rebuild at t = 1 clears it.

    The kernel keeps two (3, W + 2) complex buffers in one array, the
    window plus one guard column on each side, and alternates between
    them, so a step allocates no amplitude buffer.  Each buffer has a
    fixed "shifted" view whose row stride is one column longer than the
    buffer's: writing column j of it lands the L row one column left of
    j, the S row at j and the R row one column right.  So one
    ``np.matmul(coin, window[:, cols], out=shifted[:, cols])`` applies the
    coin and the shift together; the guard columns keep that view inside
    its buffer, and nothing reads them.

    After ``advance(n)`` with n >= 2, ``amps`` (``_windows[t % 2]``) holds
    the state at t and the other buffer the state at t - 1 as the last
    step multiplied it, after any flush; both are zero outside that
    product's reach (:meth:`_reach`), so an observer can read two steps
    per call.  On a bounded side the other buffer's sink element may
    still hold the hit of step t - 1: ``advance`` zeroes it only in the
    current buffer.

    ``cols`` is the span of *live* columns padded by ``_BLOCK`` columns
    per side and clipped to the window's interior (the window itself on a
    free side).  The live columns run from the first to the last column
    holding a float component at or above the floor f = ``_FLOOR`` * c,
    where ``_FLOOR`` = 2^-600 and c is the start spinor's smallest nonzero
    float component.  Outside them every amplitude is zero, so the padding
    only writes exact zeros, and the same (source, target) view pair
    serves the next ``_BLOCK`` steps.  The pairs of both parities are
    rebuilt every ``_BLOCK + 1`` steps, so a step scans and slices
    nothing.  A rebuild scans the current buffer inward from the columns
    the last product could write, a stretch of two blocks at each end, and
    zeroes everything outside the new live span in both buffers, sink
    elements included, so a wall the span has left records zero hits
    (while the span still reaches a wall, the products rewrite its sink
    element every step).  A rebuild makes about a dozen numpy calls and
    took 11-14 us in a walk (half-line T = 3000, free T = 2000; one
    OpenBLAS thread, 2-vCPU x86_64), about 8% of the 33 steps it serves,
    which cost 4-5 us each.  Between two walls, once the padded cone
    covers the whole interior (at once on a strip narrower than the
    padding), the views serve to the end of the run with no scan.  When f
    underflows to 0.0 (c at most 2^-475), nothing is flushed and ``cols``
    is the padded light cone.

    Why a floor.  The walk's front runs at about |m| = t/sqrt(3), and
    ahead of it the amplitudes decay geometrically, down to 3^-t at the
    cone's edge; on long open walks they reach the subnormal range, where
    the product slows down.  On the half-line at t = 2999, 170 subnormal
    floats among the 18,012 multiplied made one step's ``np.matmul`` take
    14.0 us, against 8.5 us with them zeroed (one OpenBLAS thread, 2-vCPU
    x86_64).  The floor does two jobs.  It is at most 2^-600, so a flushed
    component squares to exactly 0.0 in float64 and carries no
    representable probability.  And across the padding the edge decays by
    only about 3^-33 before the next rebuild, so the product meets no
    subnormal operand.

    What the flush changes.  A step (the unitary coin and shift, then the
    boundary projections, a contraction) is linear with norm at most 1,
    so a change to the state at one rebuild changes every later amplitude
    and hit amplitude by at most its norm, and the changes of several
    rebuilds add up.  A rebuild flushes at most the window's 2T + 3
    columns of six floats below 2^-600, and a run of T steps rebuilds at
    most T/``_BLOCK`` + 1 times, so in exact arithmetic the walk differs
    from the unflushed one by less than
    (T/``_BLOCK`` + 1) * sqrt(6 (2T + 3)) * 2^-600: 4.3e-177 at T = 3000
    and 2.6e-176 at T = 10^4.  In floating point a changed input can also
    tip the rounding of an amplitude by a unit in its last place, and such
    a unit spreads like any change.  ``tests/test_walk_flush.py`` holds
    free, half-line and far-wall runs of up to 3000 steps to the bound
    plus 16 units; there, and from eight random spinors at T = 3000, every
    amplitude stayed within the bound plus 6 units, every hit amplitude
    within the bound alone, and hit masses and :meth:`norm2` came out bit
    for bit the same.

    The product runs on float views of the same memory (real and imaginary
    parts interleaved, so window column j is float columns 2j and 2j + 1)
    with the real coin: half the flops of the complex product, and
    bit-identical to it, since with a zero imaginary part in the coin the
    complex product only adds exact zeros to the same real products.  The
    amplitudes stay complex.  A product is at least two float columns
    wide, so numpy always sends it through gemm; a one-column product
    would go through gemv, whose rounding differs (a one-column complex
    product would).  So every step is bit-identical to the plain
    full-window complex product until a rebuild first flushes a nonzero
    component, and within the bound above after that.
    ``tests/test_walk_properties.py`` pins the bit-identity on runs of up
    to 3 * ``_BLOCK`` + 2 steps, across several view rebuilds, in chunks of
    any length and from spinors with components down to 5e-324, where
    nothing is flushed yet.
    """

    def __init__(self, init: CoinSpinor, bounds: BoundarySpec, steps: int):
        validate_input((init.aL, init.aS, init.aR))
        validate_steps(steps)
        self.bounds = bounds
        self.steps = steps
        self.lo = -bounds.left if bounds.left is not None else -(steps + 1)
        self.hi = bounds.right if bounds.right is not None else steps + 1
        self.width = width = self.hi - self.lo + 1
        bufs = np.zeros((2, 3, width + 2), dtype=complex)
        self._windows = bufs[:, :, 1:-1]
        reals = [b.view(float) for b in bufs]
        self._sources = [r[:, 2:-2] for r in reals]
        self._targets = [
            np.lib.stride_tricks.as_strided(
                r, (3, 2 * width), (r.strides[0] + 2 * r.itemsize, r.itemsize)
            )
            for r in reals
        ]
        # the two buffers as views made once: unpacking ``_windows`` makes
        # two new views, 0.75 us, at every rebuild
        self._buffers = tuple(self._windows)
        self.amps = self._windows[0]
        spinor = init.as_array()
        self.amps[:, self.index(0)] = spinor
        # zero when it underflows, and then nothing is flushed
        self._floor = _FLOOR * min(abs(x) for x in spinor.view(float) if x)
        self.t = 0
        self.hit_left: list[complex] = []
        self.hit_right: list[complex] = []
        self._coin = grover_coin()
        # where each step's hit amplitude goes, per side; None on a free side
        self._records = (
            self.hit_left.append if bounds.left is not None else None,
            self.hit_right.append if bounds.right is not None else None,
        )
        # the multiplied columns [first, last) stop short of a bounded side's
        # sink column
        self._first = 0 if bounds.left is None else 1
        self._last = width if bounds.right is None else width - 1
        self._walls = bounds.left is not None and bounds.right is not None
        # per parity of t: (source, target, window after the step)
        self._views: tuple = ()
        # the window columns the views multiply
        self._span = (0, 0)
        # the last t the views serve; the first step builds them
        self._fresh_until = -1

    def index(self, m: int) -> int:
        return m - self.lo

    def cone(self) -> slice:
        """Window columns the walk can occupy now: |m| <= t, clipped to the window."""
        return slice(max(0, self.index(-self.t)), min(self.width, self.index(self.t) + 1))

    def _refresh(self, t: int) -> None:
        """Build both parities' views over the live columns at ``t`` padded by ``_BLOCK``.

        The views built at t = 0 serve the first step only, so that the
        call at t = 1 can clear buffer 0 before it is written.  Once the
        padded cone covers the interior between two walls, the views serve
        to the end, with no scan.
        """
        if t == 1:
            self._windows[0].fill(0)
        first, last = self._first, self._last
        start = max(first, self.index(-t) - _BLOCK)
        stop = min(last, self.index(t) + 1 + _BLOCK)
        # a free side's window edge is no wall: the cone reaches it only in
        # the last _BLOCK steps, which keep multiplying the live columns
        if not t:
            self._fresh_until = 0
        elif self._walls and start == first and stop == last:
            self._fresh_until = self.steps - 1
        else:
            if self._floor:
                start, stop = self._flush(t & 1)
            self._fresh_until = min(t + _BLOCK, self.steps - 1)
        self._span = (start, stop)
        floats = slice(2 * start, 2 * stop)
        (s0, s1), (t0, t1), (w0, w1) = self._sources, self._targets, self._buffers
        self._views = ((s0[:, floats], t1[:, floats], w1), (s1[:, floats], t0[:, floats], w0))

    def _reach(self) -> tuple[int, int]:
        """Window columns [lo, hi) the last product could write: its span and one more per side."""
        start, stop = self._span
        return max(0, start - 1), min(self.width, stop + 1)

    def _flush(self, cur: int) -> tuple[int, int]:
        """Zero both buffers outside the live columns of buffer ``cur``; return those padded.

        Nothing outside the last product's reach (a sink column among it)
        can be nonzero in either buffer, so only that reach is scanned and
        zeroed.  The live columns come back padded by ``_BLOCK`` and clipped
        to the multiplied columns.  A side whose first scanned column is
        live has nothing to zero but, beside a wall, the sink column, and
        that is skipped: the next product into each buffer rewrites its one
        written element, and ``advance`` zeroes that element in the
        current buffer when it returns.
        """
        lo, hi = self._reach()
        first, last = self._first, self._last
        scan_lo, scan_hi = max(first, lo), min(last, hi)
        a, b = _live_span(self._sources[cur], scan_lo, scan_hi, self._floor)
        if a > scan_lo:
            self._windows[:, :, lo:a] = 0
        if b < scan_hi:
            self._windows[:, :, b:hi] = 0
        return max(first, a - _BLOCK), min(last, b + _BLOCK)

    def advance(self, n: int) -> None:
        """Run ``n`` steps: coin and shift, then boundary measurements (left first).

        ``n`` is checked like ``steps`` (an integer >= 0, not ``bool``,
        else :class:`ValueError`), and a run past ``steps`` raises
        :class:`RuntimeError`; either way before anything moves.
        """
        if type(n) is not int or n < 0:  # a plain int >= 0 skips the slower checks
            validate_steps(n, name="n")
            n = int(n)
        t = self.t
        end = t + n
        if end > self.steps:
            raise RuntimeError(f"the window only holds {self.steps} steps")
        matmul, coin = np.matmul, self._coin
        record_left, record_right = self._records
        views, fresh_until, amps = self._views, self._fresh_until, self.amps
        while t < end:
            if t > fresh_until:
                self._refresh(t)
                views, fresh_until = self._views, self._fresh_until
            source, target, amps = views[t & 1]
            matmul(coin, source, out=target)
            if record_left is not None:
                record_left(amps.item(0, 0))
            if record_right is not None:
                record_right(amps.item(2, -1))
            t += 1
        self.t = end
        self.amps = amps
        if record_left is not None:
            amps[0, 0] = 0j
        if record_right is not None:
            amps[2, -1] = 0j

    def norm2(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def probability_array(self) -> np.ndarray:
        """P(m) over the whole window, indexed by ``index(m)``."""
        return np.sum(np.abs(self.amps) ** 2, axis=0)

    def mass_within(self, radius: int) -> float:
        """Total probability at positions m with |m| <= radius."""
        i0 = max(0, self.index(-radius))
        i1 = min(self.width, self.index(radius) + 1)
        return float(np.sum(np.abs(self.amps[:, i0:i1]) ** 2))


def _live_span(floats: np.ndarray, lo: int, hi: int, floor: float) -> tuple[int, int]:
    """Columns [a, b) from the first to the last in [lo, hi) with a float component >= ``floor``.

    ``floats`` holds column j's real and imaginary parts at 2j and 2j + 1.
    One pass reads a stretch of ``2 * _BLOCK`` columns at each end of the
    range, about a block more than a rebuild's padding, so it finds both
    ends of the span unless one has moved inward by a block since the last
    rebuild.  Then, or on a range no wider than the two stretches, it
    reads the whole range.  ``(lo, lo)`` when no column is live.  The
    mask of live float columns is searched as bytes, one per column, by
    ``find`` and ``rfind``, which costs no numpy call.
    """
    n = 2 * _BLOCK
    if hi - lo > 2 * n:
        edges = np.concatenate((floats[:, 2 * lo:2 * (lo + n)], floats[:, 2 * (hi - n):2 * hi]), axis=1)
        live = (np.abs(edges, out=edges).max(axis=0) >= floor).tobytes()
        i, j = live.find(1, 0, 2 * n), live.rfind(1, 2 * n)
        if i >= 0 and j >= 0:
            return lo + i // 2, hi - 2 * n + j // 2 + 1
    live = (np.abs(floats[:, 2 * lo:2 * hi]).max(axis=0) >= floor).tobytes()
    i = live.find(1)
    if i < 0:
        return lo, lo
    return lo + i // 2, lo + live.rfind(1) // 2 + 1


@dataclass(frozen=True)
class AbsorptionReport:
    """Outcome of a bounded (or free) walk run.

    ``absorbed_left[t-1]`` is the probability mass absorbed at the left
    boundary on step t (empty array when that side is free); likewise for
    the right.  ``first_hit_left`` holds the underlying complex amplitudes
    (``complex128``, empty on a free side or after zero steps), and
    ``absorbed_left`` is exactly ``np.abs(first_hit_left) ** 2``
    (``float64``).
    ``residual_norm`` is the squared norm still on the lattice after the
    last step; for bounded runs it estimates the localization deficit, the
    mass that will never be absorbed.
    """

    steps: int
    absorbed_left: np.ndarray
    absorbed_right: np.ndarray
    first_hit_left: np.ndarray
    first_hit_right: np.ndarray
    residual_norm: float

    @property
    def cumulative_left(self) -> float:
        return float(np.sum(self.absorbed_left))

    @property
    def cumulative_right(self) -> float:
        return float(np.sum(self.absorbed_right))


def run_walk(init: CoinSpinor, bounds: BoundarySpec, steps: int) -> AbsorptionReport:
    """Run the measured walk for ``steps`` steps from spinor ``init`` at 0.

    The initial spinor must be normalized within 1e-9; anything else is
    rejected rather than silently rescaled.  Each step applies the
    evolution and then measures the left boundary, then the right one
    (the projectors commute, the order is fixed for reproducibility).
    The whole run is one :meth:`WindowWalk.advance` call.
    """
    engine = WindowWalk(init, bounds, steps)
    engine.advance(steps)
    hit_left = np.array(engine.hit_left, dtype=complex)
    hit_right = np.array(engine.hit_right, dtype=complex)
    return AbsorptionReport(
        steps=steps,
        absorbed_left=np.abs(hit_left) ** 2,
        absorbed_right=np.abs(hit_right) ** 2,
        first_hit_left=hit_left,
        first_hit_right=hit_right,
        residual_norm=engine.norm2(),
    )
