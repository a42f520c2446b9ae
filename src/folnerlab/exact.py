"""The one conversion of outside numbers (JSON, floats, CLI flags) to exact
rationals, and the one rule for what an outside integer is."""

from __future__ import annotations

import math
from fractions import Fraction


def is_integer(value) -> bool:
    """An int that is no bool (an int subclass: JSON true would pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def exact(value) -> Fraction:
    """``value`` as a Fraction.  A float is read by its repr, so 0.1 is 1/10
    rather than the nearest binary double; strings such as ``"1/3"`` or
    ``"0.25"`` are read as written.  NaN, infinities, booleans and
    non-numbers raise ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # an int subclass: JSON true would read as 1
        raise ValueError(f"{value!r} is not an exact number")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a finite number")
        value = repr(value)
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{value!r} is not an exact number") from exc
