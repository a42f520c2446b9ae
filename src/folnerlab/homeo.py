"""Piecewise-linear order homeomorphisms of [0, 1] and matching diagnostics.

A map is stored as matched breakpoint lists with both coordinates
strictly increasing from (0,0) to (1,1).  Each map also computes, once,
its integer form: the common denominator D of its coordinates and its
breakpoints scaled by D to ``int``.  One exact merge-sweep kernel walks
two such breakpoint lists together and gives, at every point of the
merged grid, both maps' values as integer numerators over one integer
denominator, by cross-multiplication only.  The uniform distance is the
largest difference over that sweep (the sup of a piecewise-linear
difference is attained on the merged breakpoint grid), and composition
is the same sweep of the inner map's y-grid against the outer map's
x-grid; point evaluation interpolates on the same integer form.  The
matching number of two finite families counts how many members of the
first can be injected into the second moving each by less than a given
uniform radius.  Its adjacency stops each sweep at the first grid point
where the difference reaches the radius, and its augmenting-path search
keeps an explicit stack, so long augmenting paths never recurse.  It is
invariant under right composition, which makes it a useful Folner
diagnostic for this non-locally-compact group.  Repelling elements
squash everything left of x - eps below eps and everything right of
x + eps above 1 - eps; spreading them over a grid of x values yields
families whose orbit measures at y approach (1-y) delta_0 + y delta_1.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import GuardViolation, InvariantViolation
from .exact import exact
from .transport import DiscreteMeasure

#: Largest base family accepted when building repelling families.
BASE_FAMILY_GUARD = 64

_BISECTION_TOL = Fraction(1, 10**12)

#: A map's integer form: keys and values scaled by one common denominator.
IntegerForm = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class PLHomeo:
    """Orientation-preserving piecewise-linear homeomorphism of [0, 1]."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    #: (xs, ys, D): the breakpoints times their common denominator D.
    integer_form: IntegerForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2 or pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("first breakpoint must be (0, 0)")
        if pts[-1][0] != 1 or pts[-1][1] != 1:
            raise ValueError("last breakpoint must be (1, 1)")
        scale = math.lcm(*(c.denominator for pt in pts for c in pt))
        xs = tuple(x.numerator * (scale // x.denominator) for x, _ in pts)
        ys = tuple(y.numerator * (scale // y.denominator) for _, y in pts)
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("breakpoints must increase strictly in both coordinates")
        object.__setattr__(self, "integer_form", (xs, ys, scale))

    def __call__(self, t) -> Fraction:
        t = exact(t)
        if not 0 <= t <= 1:
            raise ValueError(f"argument {t} outside [0, 1]")
        xs, ys, scale = self.integer_form
        at, per = t.numerator * scale, t.denominator
        k = bisect_right(xs, at, key=lambda x: x * per) - 1
        if xs[k] * per == at:
            return self.breakpoints[k][1]
        value, width = _interpolate(xs, ys, k, at, per)
        return Fraction(value, scale * per * width)

    def xs(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.breakpoints)

    def to_dict(self) -> dict:
        return {"breakpoints": [[str(x), str(y)] for x, y in self.breakpoints]}

    @staticmethod
    def from_dict(raw: dict) -> "PLHomeo":
        return pl_homeo(raw["breakpoints"])


def pl_homeo(points: Iterable[Sequence]) -> PLHomeo:
    return PLHomeo(tuple((exact(x), exact(y)) for x, y in points))


IDENTITY_MAP = pl_homeo([(0, 0), (1, 1)])


def _interpolate(xs, ys, k: int, key: int, per: int) -> tuple[int, int]:
    """Value at key / per of segment k of an integer form, as a numerator
    over per * width, with the segment's width xs[k + 1] - xs[k]."""
    width = xs[k + 1] - xs[k]
    return ys[k] * per * width + (ys[k + 1] - ys[k]) * (key - xs[k] * per), width


def _sweep(f: IntegerForm, g: IntegerForm) -> Iterator[tuple[int, int, int]]:
    """Both maps' values at every point of their merged key grid, left to
    right, as (f numerator, g numerator, common denominator > 0).

    Keys and values are scaled integers rising from (0, 0) to (D, D); a
    key of one map inside a segment of the other is interpolated there.
    """
    fx, fy, fd = f
    gx, gy, gd = g
    i = j = 0
    while True:
        f_key, g_key = fx[i] * gd, gx[j] * fd  # both over fd * gd
        if f_key == g_key:
            yield fy[i] * gd, gy[j] * fd, fd * gd
            if f_key == fd * gd:
                return
            i += 1
            j += 1
        elif f_key < g_key:
            value, width = _interpolate(gx, gy, j - 1, f_key, fd)
            yield fy[i] * gd * width, value, fd * gd * width
            i += 1
        else:
            value, width = _interpolate(fx, fy, i - 1, g_key, gd)
            yield value, gy[j] * fd * width, fd * gd * width
            j += 1


def compose_maps(outer: PLHomeo, inner: PLHomeo) -> PLHomeo:
    """outer . inner, with breakpoints at the inner grid joined with the
    preimages of the outer grid: one sweep of the inner y-grid against the
    outer x-grid gives inner^-1(u) and outer(u) at each merged point u."""
    xs, ys, scale = inner.integer_form
    return PLHomeo(
        tuple(
            (Fraction(t, den), Fraction(value, den))
            for t, value, den in _sweep((ys, xs, scale), outer.integer_form)
        )
    )


def sup_distance(f: PLHomeo, g: PLHomeo) -> Fraction:
    """Exact uniform distance: the max of |f - g| over the merged grid,
    compared by cross-multiplication."""
    best, best_den = 0, 1
    for f_value, g_value, den in _sweep(f.integer_form, g.integer_form):
        gap = abs(f_value - g_value)
        if gap * best_den > best * den:
            best, best_den = gap, den
    return Fraction(best, best_den)


def _closer_than(f: PLHomeo, g: PLHomeo, radius: Fraction) -> bool:
    """sup_distance(f, g) < radius, stopping at the first grid point
    where |f - g| reaches the radius."""
    p, q = radius.numerator, radius.denominator
    return all(
        abs(f_value - g_value) * q < p * den
        for f_value, g_value, den in _sweep(f.integer_form, g.integer_form)
    )


@dataclass(frozen=True)
class HomeoFamily:
    members: tuple[PLHomeo, ...]
    label: str = ""
    n: int | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("a family must be non-empty")


def matching_number(left: HomeoFamily, right: HomeoFamily, radius) -> int:
    """Maximum number of members of `left` injectable into `right` with each
    image within uniform distance < radius (augmenting-path matching)."""
    radius = exact(radius)
    adjacency = [
        [j for j, e in enumerate(right.members) if _closer_than(e, f, radius)] for f in left.members
    ]
    return _max_matching(adjacency)


def _max_matching(adjacency: Sequence[Sequence[int]]) -> int:
    """Size of a maximum matching when left vertex i is adjacent to the
    right vertices adjacency[i]: one depth-first augmenting-path search per
    left vertex, on an explicit stack of (left vertex, unexplored edges)."""
    owner: dict[int, int] = {}
    count = 0
    for root in range(len(adjacency)):
        seen: set[int] = set()
        stack = [(root, iter(adjacency[root]))]
        path: list[int] = []  # path[k] leads from stack[k] to stack[k + 1]
        while stack:
            j = next((j for j in stack[-1][1] if j not in seen), None)
            if j is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            seen.add(j)
            path.append(j)
            if j in owner:
                stack.append((owner[j], iter(adjacency[owner[j]])))
                continue
            for (i, _), step in zip(stack, path):
                owner[step] = i
            count += 1
            break
    return count


def compose_family(family: HomeoFamily, g: PLHomeo) -> HomeoFamily:
    return HomeoFamily(
        tuple(compose_maps(f, g) for f in family.members), f"{family.label}.g", family.n
    )


def repelling_element(x, eps) -> PLHomeo:
    """The minimal-breakpoint map pushing [0, x - eps) below eps and
    (x + eps, 1] above 1 - eps; interior breakpoints whose first coordinate
    leaves (0, 1) are dropped."""
    x, eps = exact(x), exact(eps)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1]")
    if not 0 < eps < Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2)")
    pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
    if 0 < x - eps:
        pts.append((x - eps, eps))
    if x + eps < 1:
        pts.append((x + eps, 1 - eps))
    pts.append((Fraction(1), Fraction(1)))
    return PLHomeo(tuple(pts))


def is_repelling(f: PLHomeo, x, eps) -> bool:
    """Exact check of the repelling inequalities (via monotonicity they
    reduce to the two cut points)."""
    x, eps = exact(x), exact(eps)
    low_ok = x - eps <= 0 or f(x - eps) <= eps
    high_ok = x + eps >= 1 or f(x + eps) >= 1 - eps
    return low_ok and high_ok


def squash_margin(base: Sequence[PLHomeo], threshold: Fraction) -> Fraction:
    """Largest delta (up to 1e-12, certified valid) with g(delta) < threshold
    and g(1 - delta) > 1 - threshold for every g in the base, by bisection."""

    def good(d: Fraction) -> bool:
        return all(g(d) < threshold and g(1 - d) > 1 - threshold for g in base)

    lo, hi = Fraction(0), Fraction(1)
    if not good(lo):
        raise InvariantViolation("base family violates the endpoint conditions")
    while hi - lo > _BISECTION_TOL:
        mid = (lo + hi) / 2
        if good(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0:
        raise InvariantViolation("no positive squash margin found")
    return lo


def repelling_family(base: HomeoFamily, n: int) -> HomeoFamily:
    """Translate the base on the right by repelling elements over the grid
    {0, 1/n, ..., 1}; every member is (x, 1/n^2)-repelling for its grid x
    (verified exactly)."""
    if n < 2:
        raise ValueError("n must be at least 2 (the repelling margin needs 1/n^2 < 1/2)")
    if len(base.members) > BASE_FAMILY_GUARD:
        raise GuardViolation(f"base family exceeds the guard of {BASE_FAMILY_GUARD}")
    threshold = Fraction(1, n * n)
    eps = min(squash_margin(base.members, threshold), threshold)
    members: dict[PLHomeo, None] = {}  # an ordered seen-set
    for k in range(n + 1):
        x = Fraction(k, n)
        mover = repelling_element(x, eps)
        for g in base.members:
            member = compose_maps(g, mover)
            if not is_repelling(member, x, threshold):
                raise InvariantViolation(f"member at grid point {x} is not ({x}, {threshold})-repelling")
            members.setdefault(member)
    return HomeoFamily(tuple(members), f"repelling({base.label or 'base'}, n={n})", n)


def interval_empirical(family: HomeoFamily, y) -> DiscreteMeasure:
    """Uniform measure on the orbit {g(y)} (with multiplicity merged)."""
    y = exact(y)
    return DiscreteMeasure.uniform([g(y) for g in family.members])


def endpoint_fractions(family: HomeoFamily, y) -> tuple[Fraction, Fraction]:
    """Fractions of members sending y below 1/n^2 and above 1 - 1/n^2;
    requires the family to carry its n tag."""
    if family.n is None:
        raise ValueError("endpoint fractions need a family with an n tag")
    threshold = Fraction(1, family.n**2)
    y = exact(y)
    values = [g(y) for g in family.members]
    total = len(values)
    low = Fraction(sum(v <= threshold for v in values), total)
    high = Fraction(sum(v >= 1 - threshold for v in values), total)
    return low, high


def interval_distance(a, b) -> Fraction:
    return abs(exact(a) - exact(b))


def end_mixture(y) -> DiscreteMeasure:
    """(1 - y) delta_0 + y delta_1."""
    y = exact(y)
    return DiscreteMeasure.from_pairs(((Fraction(0), 1 - y), (Fraction(1), y)))
