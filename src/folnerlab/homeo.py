"""Piecewise-linear order homeomorphisms of [0, 1] and matching diagnostics.

A map is stored as matched breakpoint lists with both coordinates
strictly increasing from (0,0) to (1,1); composition, inversion, and the
uniform distance are exact in ``Fraction`` (the sup of a piecewise-linear
difference is attained on the merged breakpoint grid).  The matching
number of two finite families counts how many members of the first can be
injected into the second moving each by less than a given uniform radius;
it is invariant under right composition, which makes it a useful Folner
diagnostic for this non-locally-compact group.  Repelling elements squash
everything left of x - eps below eps and everything right of x + eps
above 1 - eps; spreading them over a grid of x values yields families
whose orbit measures at y approach (1-y) delta_0 + y delta_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import GuardViolation, InvariantViolation
from .exact import exact
from .transport import DiscreteMeasure

#: Largest base family accepted when building repelling families.
BASE_FAMILY_GUARD = 64

_BISECTION_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class PLHomeo:
    """Orientation-preserving piecewise-linear homeomorphism of [0, 1]."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = self.breakpoints
        if len(pts) < 2 or pts[0][0] != 0 or pts[0][1] != 0:
            raise ValueError("first breakpoint must be (0, 0)")
        if pts[-1][0] != 1 or pts[-1][1] != 1:
            raise ValueError("last breakpoint must be (1, 1)")
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("breakpoints must increase strictly in both coordinates")

    def __call__(self, t) -> Fraction:
        t = exact(t)
        if not 0 <= t <= 1:
            raise ValueError(f"argument {t} outside [0, 1]")
        pts = self.breakpoints
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        (x0, y0), (x1, y1) = pts[lo], pts[hi]
        if t == x0:
            return y0
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

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


def invert(f: PLHomeo) -> PLHomeo:
    return PLHomeo(tuple((y, x) for x, y in f.breakpoints))


def compose_maps(outer: PLHomeo, inner: PLHomeo) -> PLHomeo:
    """outer . inner, with breakpoints at the inner grid joined with the
    preimages of the outer grid."""
    inner_inv = invert(inner)
    grid = sorted(set(inner.xs()) | {inner_inv(x) for x in outer.xs()})
    return PLHomeo(tuple((t, outer(inner(t))) for t in grid))


def sup_distance(f: PLHomeo, g: PLHomeo) -> Fraction:
    """Exact uniform distance: the max of |f - g| over the merged grid."""
    grid = sorted(set(f.xs()) | set(g.xs()))
    return max(abs(f(t) - g(t)) for t in grid)


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
        [j for j, e in enumerate(right.members) if sup_distance(e, f) < radius]
        for f in left.members
    ]
    matched_right: dict[int, int] = {}

    def try_assign(i: int, seen: set[int]) -> bool:
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in matched_right or try_assign(matched_right[j], seen):
                matched_right[j] = i
                return True
        return False

    count = 0
    for i in range(len(left.members)):
        if try_assign(i, set()):
            count += 1
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
    members: list[PLHomeo] = []
    for k in range(n + 1):
        x = Fraction(k, n)
        mover = repelling_element(x, eps)
        for g in base.members:
            member = compose_maps(g, mover)
            if not is_repelling(member, x, threshold):
                raise InvariantViolation(f"member at grid point {x} is not ({x}, {threshold})-repelling")
            if member not in members:
                members.append(member)
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
