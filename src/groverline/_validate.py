"""The one check of spinors, boundary distances and counts behind every entry point.

It imports no numpy, so that the routes which compute in plain floats, the
exact strip route and the query records, load none: a numpy scalar can
only reach it once numpy is loaded, and ``_is_reduced`` looks numpy up in
``sys.modules`` instead of importing it.  ``numbers`` and ``cmath`` are
imported only by the checks that exact built-in types skip, so a valid
query of plain ints and floats loads neither.  :mod:`groverline.walk`
re-exports the same objects.
"""

from __future__ import annotations

import sys

__all__ = ["INIT_NORM_TOL", "validate_input", "validate_steps"]

#: normalization slack accepted for initial spinors; anything worse is rejected
INIT_NORM_TOL = 1e-9

#: component types accepted as numbers by identity, before any ABC check
_BUILTIN_NUMBERS = (complex, float, int)

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
        import numbers

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
    import cmath
    import numbers

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
    """Whether ``c`` is a numpy float or complex narrower than a double.

    Without numpy loaded no numpy scalar exists, so numpy is looked up,
    never imported.
    """
    np = sys.modules.get("numpy")
    return np is not None and isinstance(c, np.inexact) and np.finfo(c.dtype).bits < 64


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
    if type(steps) is not int:  # bool is never an exact int
        import numbers

        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {steps!r}")
    if steps < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
