"""Piecewise-linear order homeomorphisms of [0, 1] and matching diagnostics.

A map is its integer form (xs, ys, D): the breakpoints, both coordinates
strictly increasing from (0, 0) to (1, 1), scaled to ``int`` by their
least common denominator D.  Equality and hashing read that form, and
the Fraction breakpoints are built only when read.  One exact
merge-sweep kernel walks two integer forms together and gives, at every
point of the merged grid, both maps' values as integer numerators over
one integer denominator, by cross-multiplication only.  The uniform
distance is the largest difference over that sweep (the sup of a
piecewise-linear difference is attained on the merged breakpoint grid),
and composition is the same sweep of the inner map's y-grid against the
outer map's x-grid, reduced to one integer form by one lcm and one gcd;
point evaluation, and evaluation of the inverse on the swapped form
(ys, xs, D), interpolate on the same integers to an unreduced integer
pair, which the repelling check and the endpoint counts compare by
cross-multiplication, with no Fraction per member.  The matching number
of two finite families counts how many members of the first can be
injected into the second moving each by less than a given uniform
radius.  Its adjacency walks each pair's sweep in one inlined loop that
stops at the first grid point where the difference reaches the radius,
and its augmenting-path search keeps an explicit stack, so long
augmenting paths never recurse.  It is invariant under right
composition, which makes it a useful Folner diagnostic for this
non-locally-compact group.  Repelling elements squash everything left
of x - eps below eps and everything right of x + eps above 1 - eps,
their integer forms read off x and eps over one denominator; spreading
them over a grid of x values yields families whose orbit measures at y
approach (1-y) delta_0 + y delta_1 in the interval distance, whose costs
enter the transport simplex as one integer block.  The squash margin
that lets a base family ride along is exact: half the closed-form
supremum min over g of min(g^-1(t), 1 - g^-1(1 - t)).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import GuardViolation, InvariantViolation
from .exact import exact, integer_scaled
from .transport import DiscreteMeasure, wasserstein

#: Largest base family accepted when building repelling families.
BASE_FAMILY_GUARD = 64
#: Largest grid n of a repelling family.  On the identity base at y = 1/3 on a
#: 2-vCPU Xeon, ``homeo empirical`` takes 0.24 s at n = 1024, 0.85 s at 4096
#: and 15 s at 16,384; the ``homeo-empirical`` scenario 0.6 s at 4096.
REPELLING_MAX_N = 4096
#: Largest |left| x |right| that a matching number compares.  On random maps
#: with six interior breakpoints at radius 2, where every pair is adjacent and
#: every sweep runs to the end, a 2-vCPU Xeon took 0.5 s at 300 x 300 pairs,
#: 1.8 s at 500 x 500 and 3.7 s at 700 x 700.
MATCH_MAX_PAIRS = 250_000

#: A map's integer form: keys and values scaled by their least common denominator.
IntegerForm = tuple[tuple[int, ...], tuple[int, ...], int]


@dataclass(frozen=True)
class PLHomeo:
    """Orientation-preserving piecewise-linear homeomorphism of [0, 1],
    given by its integer form.  Its scale D must be the least common
    denominator of the breakpoints, so that equal maps have equal forms:
    equality and hashing read that form alone."""

    #: (xs, ys, D): the breakpoints times their least common denominator D.
    integer_form: IntegerForm

    def __post_init__(self) -> None:
        xs, ys, scale = self.integer_form
        if len(xs) < 2 or xs[0] != 0 or ys[0] != 0:
            raise ValueError("first breakpoint must be (0, 0)")
        if xs[-1] != scale or ys[-1] != scale:
            raise ValueError("last breakpoint must be (1, 1)")
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            if not (x0 < x1 and y0 < y1):
                raise ValueError("breakpoints must increase strictly in both coordinates")

    @cached_property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        xs, ys, scale = self.integer_form
        return tuple((Fraction(x, scale), Fraction(y, scale)) for x, y in zip(xs, ys))

    def __call__(self, t) -> Fraction:
        t = exact(t)
        if not 0 <= t.numerator <= t.denominator:
            raise ValueError(f"argument {t} outside [0, 1]")
        return _evaluate(self.integer_form, t)

    def to_dict(self) -> dict:
        return {"breakpoints": [[str(x), str(y)] for x, y in self.breakpoints]}

    @staticmethod
    def from_dict(raw: dict) -> "PLHomeo":
        points = raw.get("breakpoints") if isinstance(raw, dict) else None
        if not isinstance(points, list) or any(not isinstance(p, list) or len(p) != 2 for p in points):
            raise ValueError(f"breakpoints must be a list of [x, y] pairs, got {raw!r}")
        return pl_homeo(points)


def pl_homeo(points: Iterable[Sequence]) -> PLHomeo:
    """The map through the breakpoints (x, y), each read by ``exact``."""
    coordinates, scale = integer_scaled([c for x, y in points for c in (x, y)])
    return PLHomeo((tuple(coordinates[0::2]), tuple(coordinates[1::2]), scale))


IDENTITY_MAP = pl_homeo([(0, 0), (1, 1)])


def _interpolate(xs, ys, k: int, key: int, per: int) -> tuple[int, int]:
    """Value at key / per of segment k of an integer form, as a numerator
    over per * width, with the segment's width xs[k + 1] - xs[k]."""
    width = xs[k + 1] - xs[k]
    return ys[k] * per * width + (ys[k + 1] - ys[k]) * (key - xs[k] * per), width


def _value_at(form: IntegerForm, num: int, per: int) -> tuple[int, int]:
    """The map with this integer form at num / per in [0, 1] (per > 0), as
    an unreduced pair (numerator, denominator > 0); on the swapped form
    (ys, xs, D) it is the inverse map."""
    xs, ys, scale = form
    at = num * scale
    k = bisect_right(xs, at // per) - 1  # the last key with xs[k] * per <= at
    if xs[k] * per == at:
        return ys[k], scale
    value, width = _interpolate(xs, ys, k, at, per)
    return value, scale * per * width


def _evaluate(form: IntegerForm, t: Fraction) -> Fraction:
    """The map with this integer form at t in [0, 1], reduced."""
    return Fraction(*_value_at(form, t.numerator, t.denominator))


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
    outer x-grid gives inner^-1(u) and outer(u) at each merged point u.
    The sweep's denominators are brought to one by their lcm, and the gcd
    of that and every numerator reduces it to the least one."""
    xs, ys, scale = inner.integer_form
    keys, values, dens = zip(*_sweep((ys, xs, scale), outer.integer_form))
    common = math.lcm(*dens)
    keys = [key * (common // den) for key, den in zip(keys, dens)]
    values = [value * (common // den) for value, den in zip(values, dens)]
    shrink = math.gcd(common, *keys, *values)
    return PLHomeo(
        (tuple(key // shrink for key in keys), tuple(value // shrink for value in values), common // shrink)
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
    where |f - g| reaches the radius.  It is `_sweep` inlined, from past
    the shared origin (where |f - g| = 0 reaches any radius <= 0) to
    before the shared end, each gap over fd * gd * width."""
    p, q = radius.numerator, radius.denominator
    if p <= 0:
        return False
    fx, fy, fd = f.integer_form
    gx, gy, gd = g.integer_form
    f_end, g_end = len(fx) - 1, len(gx) - 1
    reach = p * fd * gd
    i = j = 1
    while i < f_end or j < g_end:
        f_key, g_key = fx[i] * gd, gx[j] * fd
        if f_key == g_key:
            gap, width = fy[i] * gd - gy[j] * fd, 1
            i += 1
            j += 1
        elif f_key < g_key:  # g interpolated at f's key, as in _interpolate
            width = gx[j] - gx[j - 1]
            gap = (fy[i] * gd - gy[j - 1] * fd) * width - (gy[j] - gy[j - 1]) * (f_key - gx[j - 1] * fd)
            i += 1
        else:  # f interpolated at g's key
            width = fx[i] - fx[i - 1]
            gap = (fy[i - 1] * gd - gy[j] * fd) * width + (fy[i] - fy[i - 1]) * (g_key - fx[i - 1] * gd)
            j += 1
        if abs(gap) * q >= reach * width:
            return False
    return True


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
    image within uniform distance < radius (augmenting-path matching),
    refused past MATCH_MAX_PAIRS before any pair is compared."""
    m, n = len(left.members), len(right.members)
    if m * n > MATCH_MAX_PAIRS:
        raise GuardViolation(f"{m} x {n} members exceed the matching guard of {MATCH_MAX_PAIRS} pairs")
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


def _scaled(x, eps) -> tuple[int, int, int]:
    """x in [0, 1] and eps in (0, 1/2) over their least common denominator
    den, as (x * den, eps * den, den); ValueError outside those ranges."""
    x, eps = exact(x), exact(eps)
    den = math.lcm(x.denominator, eps.denominator)
    a, e = x.numerator * (den // x.denominator), eps.numerator * (den // eps.denominator)
    if not 0 <= a <= den:
        raise ValueError("x must lie in [0, 1]")
    if not 0 < 2 * e < den:
        raise ValueError("eps must lie in (0, 1/2)")
    return a, e, den


def repelling_element(x, eps) -> PLHomeo:
    """The minimal-breakpoint map pushing [0, x - eps) below eps and
    (x + eps, 1] above 1 - eps; interior breakpoints whose first coordinate
    leaves (0, 1) are dropped.  Its integer form is read off x and eps over
    their least common denominator, already the least one: as eps < 1/2 an
    interior breakpoint is kept, and its coordinates give back x and eps."""
    a, e, den = _scaled(x, eps)
    xs, ys = [0], [0]
    if a > e:
        xs.append(a - e)
        ys.append(e)
    if a + e < den:
        xs.append(a + e)
        ys.append(den - e)
    xs.append(den)
    ys.append(den)
    return PLHomeo((tuple(xs), tuple(ys), den))


def is_repelling(f: PLHomeo, x, eps) -> bool:
    """Exact check, for x in [0, 1] and eps in (0, 1/2), of the repelling
    inequalities f(x - eps) <= eps and f(x + eps) >= 1 - eps where the cut
    point lies in (0, 1) (via monotonicity they cover the two intervals),
    by cross-multiplication."""
    a, e, den = _scaled(x, eps)
    if a > e:
        value, per = _value_at(f.integer_form, a - e, den)
        if value * den > e * per:
            return False
    if a + e < den:
        value, per = _value_at(f.integer_form, a + e, den)
        if value * den < (den - e) * per:
            return False
    return True


def squash_margin(base: Sequence[PLHomeo], threshold) -> Fraction:
    """The exact margin delta = delta*/2, where
    delta* = min over g in the base of min(g^-1(t), 1 - g^-1(1 - t)) and t
    is the threshold in (0, 1); then g(delta) < t and g(1 - delta) > 1 - t
    for every g.

    Proof: each g is a strictly increasing bijection of [0, 1] fixing 0
    and 1, and so is g^-1, read here from the swapped integer form
    (ys, xs, D).  As 0 < t < 1, g^-1(t) > 0 and g^-1(1 - t) < 1, so
    delta* > 0.  Then delta < delta* <= g^-1(t) gives g(delta) < t, and
    1 - delta > 1 - delta* >= g^-1(1 - t) gives g(1 - delta) > 1 - t.
    delta* is the supremum of such margins, and not one itself: at
    delta* some g reaches t or 1 - t exactly."""
    t = exact(threshold)
    if not 0 < t < 1:
        raise InvariantViolation(f"squash threshold {t} lies outside (0, 1)")
    inverses = [(ys, xs, scale) for xs, ys, scale in (g.integer_form for g in base)]
    return min(min(_evaluate(inv, t), 1 - _evaluate(inv, 1 - t)) for inv in inverses) / 2


def repelling_family(base: HomeoFamily, n: int) -> HomeoFamily:
    """Translate the base on the right by repelling elements over the grid
    {0, 1/n, ..., 1}; every member is (x, 1/n^2)-repelling for its grid x
    (verified exactly)."""
    if n < 2:
        raise ValueError("n must be at least 2 (the repelling margin needs 1/n^2 < 1/2)")
    if n > REPELLING_MAX_N:
        raise GuardViolation(f"repelling families are built only for n <= {REPELLING_MAX_N}, got n={n}")
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
    """Fractions of members sending y in [0, 1] to at most 1/n^2 and to at
    least 1 - 1/n^2, counted by cross-multiplication; requires the family
    to carry its n tag."""
    if family.n is None:
        raise ValueError("endpoint fractions need a family with an n tag")
    y = exact(y)
    num, per = y.numerator, y.denominator
    if not 0 <= num <= per:
        raise ValueError(f"argument {y} outside [0, 1]")
    square = family.n**2
    low = high = 0
    for g in family.members:
        value, den = _value_at(g.integer_form, num, per)
        low += value * square <= den
        high += value * square >= den * (square - 1)
    total = len(family.members)
    return Fraction(low, total), Fraction(high, total)


def interval_distance(a, b) -> Fraction:
    """|a - b|; ``interval_distance.integer_block`` gives a whole block of them."""
    return abs(exact(a) - exact(b))


def _interval_block(sources, targets) -> tuple[list[list[int]], int]:
    """(rows, scale) with rows[i][j] / scale == |sources[i] - targets[j]|, the
    scale the lcm of the points' denominators, with no Fraction per cell."""
    scaled, scale = integer_scaled([*sources, *targets])
    cols = scaled[len(sources) :]
    return [[abs(p - q) for q in cols] for p in scaled[: len(sources)]], scale


interval_distance.integer_block = _interval_block


def end_mixture(y) -> DiscreteMeasure:
    """(1 - y) delta_0 + y delta_1."""
    y = exact(y)
    return DiscreteMeasure.from_pairs(((Fraction(0), 1 - y), (Fraction(1), y)))


def orbit_to_ends(family: HomeoFamily, y) -> tuple[DiscreteMeasure, Fraction, Fraction, Fraction, Fraction]:
    """The orbit measure of y under a repelling family, its endpoint
    fractions, its distance W to (1 - y) delta_0 + y delta_1, and the bound
    1/n^2 + 3/(n + 1) on W, which holds for any base.  A map that is
    (x, 1/n^2)-repelling at two grid points would send the points between
    them near both 0 and 1, so members at distinct grid points differ; and
    g -> g o mover is injective, so each of the n + 1 grid points has mass
    1/(n + 1).  A member at k/n sends y within 1/n^2 of 1 if k/n <= y - 1/n^2,
    of 0 if k/n >= y + 1/n^2, and at most one k is in between; moving each
    atom to its nearer end costs at most 1/n^2 + 1/(n + 1).  The end 1 then
    holds h/(n + 1), h the count of the first kind, in [ny - 1/n, ny + 1 - 1/n],
    plus at most one, so |h - (n + 1)y| < 2 and evening out the ends costs
    under 2/(n + 1).  W need not decrease in n: at y = 5/16 it rises from n = 8 to 16."""
    mu = interval_empirical(family, y)
    low, high = endpoint_fractions(family, y)
    value, _ = wasserstein(mu, end_mixture(y), interval_distance)
    return mu, low, high, value, Fraction(1, family.n**2) + Fraction(3, family.n + 1)
