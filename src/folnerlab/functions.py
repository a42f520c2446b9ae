"""Lipschitz test functions on the doubled lamplighter line.

Three kinds: affine combinations of the coordinate 1/(1 + |pos|) (0 at
the ends) and the component indicator, metric bumps, and Lipschitz
(McShane) envelopes of finitely many anchor values.  Every function
evaluates exactly (in ``Fraction``) at every point including the two
infinities, and carries a declared Lipschitz constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exact import exact
from .lamplighter import CHECK, Point, metric


@dataclass(frozen=True)
class TestFunction:
    kind: str
    label: str
    lipschitz: Fraction
    _eval: Callable[[Point], Fraction]

    def __call__(self, x: Point) -> Fraction:
        return self._eval(x)


def affine(c0, c1, c2) -> TestFunction:
    """c0 + c1 * 1/(1 + |pos|) (0 at the ends) + c2 * (check indicator).

    Within a component that coordinate (the first of the metric's planar
    embedding) moves at most 4 times the distance; across components the
    distance is 1 and the value moves at most |c1| + |c2|.
    """
    c0, c1, c2 = exact(c0), exact(c1), exact(c2)
    bound = max(4 * abs(c1), abs(c1) + abs(c2))

    def evaluate(x: Point) -> Fraction:
        coordinate = 0 if x.is_infinite() else Fraction(1, 1 + abs(x.pos))
        return c0 + c1 * coordinate + (c2 if x.component == CHECK else 0)

    return TestFunction("coordinate", f"affine({c0},{c1},{c2})", bound, evaluate)


def constant(c) -> TestFunction:
    return affine(c, 0, 0)


def ends_separator() -> TestFunction:
    """0 on the hat component, 1 on the check component (1-Lipschitz)."""
    return affine(0, 0, 1)


def bump(center: Point, radius) -> TestFunction:
    """max(0, 1 - d(x, center)/radius); Lipschitz constant 1/radius."""
    radius = exact(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")

    def evaluate(x: Point) -> Fraction:
        return max(Fraction(0), 1 - metric(x, center) / radius)

    return TestFunction("bump", f"bump({center.component},{center.pos},{radius})", 1 / radius, evaluate)


def envelope(anchors: Sequence[tuple[Point, object]], lipschitz=1) -> TestFunction:
    """McShane envelope min_i (v_i + L d(x, p_i)): L-Lipschitz by construction."""
    lipschitz = exact(lipschitz)
    pinned = tuple((p, exact(v)) for p, v in anchors)
    if not pinned:
        raise ValueError("need at least one anchor")

    def evaluate(x: Point) -> Fraction:
        return min(v + lipschitz * metric(x, p) for p, v in pinned)

    return TestFunction("lipschitz-envelope", f"envelope({len(pinned)} anchors)", lipschitz, evaluate)


def canonical_family() -> list[TestFunction]:
    from .lamplighter import INF_CHECK, hat

    return [
        constant(1),
        affine(0, 1, 0),
        ends_separator(),
        bump(hat(0), Fraction(1, 2)),
        bump(INF_CHECK, Fraction(1, 2)),
    ]


def random_affine(rng) -> TestFunction:
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]
    return affine(*coeffs)
