"""Folner averaging on the doubled lamplighter line and its limit operator.

For the rate and box families the orbit averages of a point mass have a
closed form: a finite point spreads uniformly over the shift range, with
the component toggled on the exact fraction of supports containing its
position.  As n grows these empirical measures converge to a two-atom
measure on the pair of infinities whose weights are read off the rate
sequence; the resulting limit operator S is a positive contractive
projection and satisfies Seever's identity, while its averaging defect
factors exactly as r(1-r) * (gap of f at the ends) * (gap of h).
Since every limit measure lives on the two ends, S f is fixed by f's two
end values and the rate: S reads f once at each end.  For the same reason
the distance of an empirical measure to its limit has a closed form, a
fractional knapsack whose value is a sum of harmonic windows, so no
genericity row builds an empirical measure or solves a transport.
All quantities here are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InvariantViolation, refuse_past
from .exact import exact
from .folner import FolnerSet, RateFolner, RateSequence, flip_balance
from .functions import canonical_family
from .lamplighter import (
    CHECK,
    FLIP,
    HAT,
    INF_CHECK,
    INF_HAT,
    SIGMA,
    SIGMA_INV,
    GroupElement,
    Point,
    act,
    check,
    hat,
)
from .transport import DiscreteMeasure, assignment_distance, empirical_measure

GENERATORS = (SIGMA, SIGMA_INV, FLIP)

#: Largest n of a genericity row.  A row is a closed form with no
#: transport (see ``genericity_table``), so the ceiling is the size of its
#: exact value: on ``decay`` at hat(0) the distance at n = 13 has a
#: 3,556-digit denominator, and n = 14 passes the 4,300 digits Python
#: prints, which an exact CSV would need.
GENERICITY_MAX_N = 13
#: Largest n whose empirical measure (2^(n+2) + 2 atoms) is built for an
#: average; ``dynamics averaging --preset r-decay --g s`` to n = 10 took
#: 6.4 s on a 2-vCPU Xeon under Python 3.11, doubling per step.
AVERAGING_MAX_N = 10
AVERAGING_MAX_SHIFTS = 2 ** (AVERAGING_MAX_N + 1) + 1  # the shifts of rate set AVERAGING_MAX_N
#: The example cases' rates are explicit on |position| <= CASE_WIDTH, the
#: largest bound their verdicts may be checked on.
CASE_WIDTH = 256


def _end_masses(rate: RateSequence, x: Point) -> tuple[Fraction, Fraction]:
    """(hat-end mass, check-end mass) of the limit measure at a finite x."""
    r = rate.value(x.pos)
    return (1 - r, r) if x.component == HAT else (r, 1 - r)


def limit_measure(rate: RateSequence, x: Point) -> DiscreteMeasure:
    """Two-atom limit on the infinities: from a hat point of position b the
    check end receives weight r_b, from a check point the hat end does.
    Zero-mass atoms are dropped."""
    if x.is_infinite():
        return DiscreteMeasure.point_mass(x)
    masses = zip((INF_HAT, INF_CHECK), _end_masses(rate, x))
    return DiscreteMeasure(tuple((end, mass) for end, mass in masses if mass))


def limit_apply(rate: RateSequence, f: Callable) -> Callable[[Point], Fraction]:
    """(S f)(x) = integral of f against the limit measure at x.  S reads f
    once at each end, when the operator is built; at a finite x it returns
    the end-mass weighted sum of those two values, at an end f's value."""
    at_hat, at_check = exact(f(INF_HAT)), exact(f(INF_CHECK))

    def apply(x: Point) -> Fraction:
        if x.is_infinite():
            return at_hat if x.component == HAT else at_check
        hat_mass, check_mass = _end_masses(rate, x)
        return hat_mass * at_hat + check_mass * at_check

    return apply


def default_sample(radius: int = 10) -> list[Point]:
    pts = [INF_HAT, INF_CHECK]
    for s in range(-radius, radius + 1):
        pts += [hat(s), check(s)]
    return pts


def tau_bound(n: int) -> Fraction:
    """Artifact tolerance for the distance of the n-th empirical measure to
    its limit (position within [-n, n]): selection-ratio error 2^(-2n), plus
    the near-window mass at intra-component diameter 1/4, plus the far tail."""
    m = math.isqrt(2**n)
    if m * m < 2**n:
        m += 1
    shifts = 2 ** (n + 1) + 1
    return Fraction(1, 4**n) + Fraction(2 * m + 1, 4 * shifts) + Fraction(1, 2 * (1 + m))


@dataclass(frozen=True)
class GenericityRow:
    n: int
    distance: Fraction
    bound: Fraction
    #: The transported empirical measure's mass on the check component.
    check_mass: Fraction


def _harmonic(a: int, b: int) -> tuple[int, int]:
    """The sum of 1/j over a <= j <= b (a >= 1) as an unreduced integer pair
    (numerator, denominator) by binary splitting; (0, 1) when a > b."""
    if a > b:
        return 0, 1
    if a == b:
        return 1, a
    mid = (a + b) // 2
    p, q = _harmonic(a, mid)
    r, s = _harmonic(mid + 1, b)
    return p * s + r * q, q * s


def _end_cost_sum(lo: int, hi: int) -> tuple[int, int]:
    """4 times the sum of d_p = (1 + |sgn p|) / (4 (1 + |p|)) over the window
    lo <= p <= hi, as an integer pair; 4 d_p is 2/(1 + |p|), less 1 at p = 0,
    so the sum is twice a harmonic window on each side of 0.  An empty window
    (hi = lo - 1) gives 0."""
    p, q = _harmonic(max(lo, 0) + 1, hi + 1)
    r, s = _harmonic(1 - min(hi, -1), 1 - lo)
    zero = 1 if lo <= 0 <= hi else 0
    return 2 * (p * s + r * q) - zero * q * s, q * s


def _nearest_start(lo: int, hi: int, k: int) -> int:
    """a such that [a, a + k - 1] holds k positions of least |p| in [lo, hi]."""
    return min(max(-(k // 2), lo), hi - k + 1)


def _end_cost(p: int) -> Fraction:
    """d_p, the distance from position p to the end of its component."""
    return Fraction(2 if p else 1, 4 * (1 + abs(p)))


def _genericity_row(folner: RateFolner, x: Point, rate: RateSequence) -> GenericityRow:
    """W(S_n* delta_x, mu_x) in closed form; see ``genericity_table``."""
    n = folner.n
    if x.is_infinite():
        return GenericityRow(n, Fraction(0), tau_bound(n), Fraction(1 if x.component == CHECK else 0))
    shifts = folner.shifts()
    size = shifts.stop - shifts.start
    lo, hi = x.pos - shifts.stop + 1, x.pos - shifts.start
    t, r = flip_balance(folner, x.pos), rate.value(x.pos)
    crossing = abs(t - r)
    # the crossing component's mass: the toggled one (t) when t > r, else x's own
    mass = t if t > r else 1 - t
    reach, rest, next_cost = 0, Fraction(0), Fraction(0)
    if crossing:
        reach = crossing * size // mass
        rest = crossing - reach * mass / size
    start = _nearest_start(lo, hi, reach)
    if rest:  # the next nearest position: the one the window of reach + 1 adds
        after = _nearest_start(lo, hi, reach + 1)
        next_cost = _end_cost(after if after < start else start + reach)
    whole, whole_den = _end_cost_sum(lo, hi)
    crossed, crossed_den = _end_cost_sum(start, start + reach - 1)
    # crossing - rest * next_cost + (whole - mass * crossed) / (4 size), as one Fraction
    small = crossing - rest * next_cost
    big_num = whole * crossed_den * mass.denominator - mass.numerator * crossed * whole_den
    big_den = 4 * size * whole_den * crossed_den * mass.denominator
    distance = Fraction(
        small.numerator * big_den + small.denominator * big_num, small.denominator * big_den
    )
    return GenericityRow(n, distance, tau_bound(n), t if x.component == HAT else 1 - t)


def genericity_table(
    sets: Sequence[RateFolner], x: Point, rate: RateSequence
) -> tuple[list[GenericityRow], list[str]]:
    """Per-set transport distance W(S_n* delta_x, mu_x) of the empirical
    measure to the limit; flags any failure of monotone decrease along the
    list.  Every set is checked against the guard before any row is built.

    Each row is exact and in closed form, with no transport solved.  Let Q
    be the set's shift range, P = x.pos - Q the window of averaged
    positions, t the flip balance at x.pos and r the rate there.  The
    empirical measure puts mass (1 - t)/|Q| on x's component and t/|Q| on
    the other at every p in P; the limit puts 1 - r on the end of x's
    component and r on the other end, for a hat and a check x alike.  A unit of mass at p goes
    to its own component's end at cost d_p = (1 + |sgn p|)/(4 (1 + |p|))
    <= 1/4 or crosses to the other end at cost 1.  A plan crossing mass in
    both directions is not optimal: swapping the ends of two crossing units
    saves at least 2 - 1/2.  So an optimal plan crosses exactly
    e = |t - r|, from the component whose mass exceeds its end's (the
    toggled one, of mass M = t, when t > r, else x's own, M = 1 - t; e <= M
    since 0 <= r <= 1), and crossing at p costs 1 - d_p more than staying.
    The optimum is therefore a fractional knapsack: it crosses from the
    positions of least |p| first, whole atoms of mass M/|Q| at the k =
    floor(e |Q| / M) positions nearest 0 (a window W of P) and the rest
    e - k M/|Q| at the next one, q.  Its value is

        (1/|Q|) sum_P d_p + e - (M/|Q|) sum_W d_p - (e - k M/|Q|) d_q,

    and the two sums are harmonic windows on each side of 0, summed by
    integer binary splitting (Haible & Papanikolaou, "Fast multiprecision
    evaluation of series of rational numbers", 1998) and reduced once.
    The check mass is t for a hat point and 1 - t for a check point.  An
    infinite x is fixed by the group, so both measures are the point mass
    at x: distance 0 and check mass 1 on the check end, 0 on the hat end.
    """
    for folner in sets:
        refuse_past(folner.n, GENERICITY_MAX_N, "genericity n")
    rows = [_genericity_row(folner, x, rate) for folner in sets]
    violations = [
        f"distance increased from n={a.n} ({a.distance}) to n={b.n} ({b.distance})"
        for a, b in zip(rows, rows[1:])
        if b.distance > a.distance
    ]
    return rows, violations


def wf_estimate(sets: Sequence[FolnerSet], x: Point, y: Point) -> list[Fraction]:
    """The finite prefix W(S_n* delta_x, S_n* delta_y), the pair distance
    ``assignment_distance`` of each set; no limit is claimed, callers
    inspect stabilization themselves."""
    return [assignment_distance(folner, x, y) for folner in sets]


def seever_residual(
    rate: RateSequence, f: Callable, h: Callable, sample: Iterable[Point]
) -> Fraction:
    """max over the sample of |S(f * Sh)(x) - S(Sf * Sh)(x)|."""
    sf = limit_apply(rate, f)
    sh = limit_apply(rate, h)
    lhs = limit_apply(rate, lambda p: exact(f(p)) * sh(p))
    rhs = limit_apply(rate, lambda p: sf(p) * sh(p))
    return max((abs(lhs(x) - rhs(x)) for x in sample), default=Fraction(0))


def averaging_residual(rate: RateSequence, f: Callable, h: Callable, x: Point) -> Fraction:
    """S(f * Sh)(x) - (Sf * Sh)(x) at a finite point, which factors as
    r (1 - r) * (f(hat inf) - f(check inf)) * (h(hat inf) - h(check inf));
    the closed form is checked against direct evaluation."""
    if x.is_infinite():
        raise ValueError("averaging residual is defined at finite points")
    sh = limit_apply(rate, h)
    sf = limit_apply(rate, f)
    direct = limit_apply(rate, lambda p: exact(f(p)) * sh(p))(x) - sf(x) * sh(x)
    r = rate.value(x.pos)
    gap_f = exact(f(INF_HAT)) - exact(f(INF_CHECK))
    gap_h = exact(h(INF_HAT)) - exact(h(INF_CHECK))
    predicted = r * (1 - r) * gap_f * gap_h
    if direct != predicted:
        raise InvariantViolation(
            f"averaging residual mismatch at {x}: direct {direct} vs closed form {predicted}"
        )
    return direct


def translation_gap(
    rate: RateSequence, f: Callable, g: GroupElement, sample: Iterable[Point]
) -> Fraction:
    """max over the sample of |(Sf)(gx) - (Sf)(x)|; nonzero gaps witness an
    orbit closure carrying more than one invariant measure."""
    sf = limit_apply(rate, f)
    return max((abs(sf(act(g, x)) - sf(x)) for x in sample), default=Fraction(0))


def average_invariance_defect(
    folner: FolnerSet, g: GroupElement, f: Callable, sample: Iterable[Point]
) -> Fraction:
    """max over the sample of |S_n(g.f - f)(x)| where (g.f)(x) = f(gx);
    both functions are integrated against one empirical measure per x,
    refused past AVERAGING_MAX_SHIFTS shifts."""
    shifts = folner.shifts()
    if shifts is not None:
        flip_balance(folner, 0)  # a rate set's balance guard first, so the count prints
        refuse_past(shifts.stop - shifts.start, AVERAGING_MAX_SHIFTS, "averaged shifts")
    worst = Fraction(0)
    for x in sample:
        mu = empirical_measure(folner, x)
        worst = max(worst, abs(mu.integrate(lambda p: f(act(g, p))) - mu.integrate(f)))
    return worst


def invariance_gap(mu: DiscreteMeasure) -> Fraction:
    """max over the generators g and the canonical test functions f of
    |(g_* mu)(f) - mu(f)|."""
    functions = canonical_family()
    worst = Fraction(0)
    for g in GENERATORS:
        pushed = DiscreteMeasure.from_pairs((act(g, p), m) for p, m in mu.atoms)
        for f in functions:
            worst = max(worst, abs(pushed.integrate(f) - mu.integrate(f)))
    return worst


@dataclass(frozen=True)
class CaseBundle:
    """One of the four behaviours of the rate-family averages, with the
    rate realizing it and the expected verdicts."""

    case: str
    rate: RateSequence
    continuous: bool
    finite_ergodic: str  # "none" | "some" | "all"


_CASES = {
    "a": (RateSequence.constant(Fraction(1, 2)), False, "none"),
    "b": (RateSequence.decay(CASE_WIDTH), True, "none"),
    "c": (RateSequence.split(), True, "some"),
    "d": (RateSequence.constant(0), True, "all"),
}


def example_case(case: str) -> CaseBundle:
    if case not in _CASES:
        raise ValueError(f"case must be one of {sorted(_CASES)}, got {case!r}")
    rate, continuous, pattern = _CASES[case]
    return CaseBundle(case, rate, continuous, pattern)


def is_ergodic(rate: RateSequence, position: int) -> bool:
    """The limit at a finite point is ergodic iff it is a point mass."""
    return rate.value(position) in (Fraction(0), Fraction(1))


def verdicts(rate: RateSequence, position_bound: int = 64) -> tuple[bool, str]:
    """(continuity of x -> limit measure, ergodicity pattern over finite
    points with |position| <= bound).  Continuity holds iff the rate tends
    to 0 along both tails, i.e. iff the window default is 0."""
    continuous = rate.default == 0
    flags = [is_ergodic(rate, b) for b in range(-position_bound, position_bound + 1)]
    pattern = "all" if all(flags) else ("none" if not any(flags) else "some")
    return continuous, pattern
