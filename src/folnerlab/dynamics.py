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
end values and the rate: S reads f once at each end.
All quantities here are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import GuardViolation, InvariantViolation
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
    metric,
    other,
)
from .transport import DiscreteMeasure, wasserstein

GENERATORS = (SIGMA, SIGMA_INV, FLIP)

#: Largest n whose empirical measure (2^(n+2) + 2 atoms) is built for a
#: genericity row or an average.  Row n solves an atoms x 2 simplex from
#: its optimal start basis; on a 2-vCPU Xeon under Python 3.11 one row took
#: 0.03 s at n = 10 (4098 x 2), and ``dynamics met --preset r-decay --g s``
#: to n = 10 took 6.4 s, doubling per step.
GENERICITY_MAX_N = 10
#: The example cases' rates are explicit on |position| <= CASE_WIDTH, the
#: largest bound their verdicts may be checked on.
CASE_WIDTH = 256


def empirical_measure(folner: FolnerSet, x: Point) -> DiscreteMeasure:
    """The uniform average of point masses over the orbit piece F.x.

    Counting path for sets with a shift range (rate and box): for every
    shift a the averaged point sits at position pos - a, toggled with the
    exact support-balance fraction.  Other sets average over their
    elements.  Infinite points are fixed by the whole group.
    """
    if x.is_infinite():
        return DiscreteMeasure.point_mass(x)
    shifts = folner.shifts()
    if shifts is not None:
        toggled = flip_balance(folner, x.pos)
        weight = Fraction(1, len(shifts))
        # (component, mass) of each averaged point, the same for every shift
        parts = [(x.component, (1 - toggled) * weight)] if toggled < 1 else []
        if toggled > 0:
            parts.append((other(x.component), toggled * weight))
        return DiscreteMeasure.from_pairs(
            (Point(component, x.pos - a), mass) for a in shifts for component, mass in parts
        )
    return DiscreteMeasure.uniform([act(g, x) for g in folner.materialize()])


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


def _genericity_atoms(n: int) -> str:
    """Atoms of the n-th empirical measure, two per shift in [-2^n, 2^n]:
    2^(n+2) + 2, written out while it has at most 20 digits and as the
    formula past that, so no guard message builds a huge integer."""
    return str(2 ** (n + 2) + 2) if n <= 64 else f"(2^{n + 2} + 2)"


def genericity_guard(n: int) -> None:
    """Refuse a genericity row whose transportation simplex is over the guard."""
    if n > GENERICITY_MAX_N:
        raise GuardViolation(
            f"n = {n} needs a {_genericity_atoms(n)}x2 transportation simplex; the simplex size "
            f"guard allows n <= {GENERICITY_MAX_N} ({_genericity_atoms(GENERICITY_MAX_N)}x2), got {n}"
        )


def averaging_guard(n: int) -> None:
    """Refuse averages over an empirical measure past GENERICITY_MAX_N."""
    if n > GENERICITY_MAX_N:
        raise GuardViolation(
            f"n = {n} averages over {_genericity_atoms(n)}-atom empirical measures; the guard "
            f"allows n <= {GENERICITY_MAX_N} ({_genericity_atoms(GENERICITY_MAX_N)} atoms), got {n}"
        )


def genericity_table(
    sets: Sequence[RateFolner], x: Point, rate: RateSequence
) -> tuple[list[GenericityRow], list[str]]:
    """Per-set transport distance of the empirical measure to the limit;
    flags any failure of monotone decrease along the list.  Every set is
    checked against the simplex size guard before any transport runs."""
    for folner in sets:
        genericity_guard(folner.n)
    rows = []
    for folner in sets:
        mu = empirical_measure(folner, x)
        value, _ = wasserstein(mu, limit_measure(rate, x), metric)
        check_mass = mu.mass_where(lambda p: p.component == CHECK)
        rows.append(GenericityRow(folner.n, value, tau_bound(folner.n), check_mass))
    violations = [
        f"distance increased from n={a.n} ({a.distance}) to n={b.n} ({b.distance})"
        for a, b in zip(rows, rows[1:])
        if b.distance > a.distance
    ]
    return rows, violations


def wf_estimate(sets: Sequence[FolnerSet], x: Point, y: Point) -> list[Fraction]:
    """The finite prefix W(S_n* delta_x, S_n* delta_y); no limit is claimed,
    callers inspect stabilization themselves."""
    return [
        wasserstein(empirical_measure(folner, x), empirical_measure(folner, y), metric)[0]
        for folner in sets
    ]


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
    both functions are integrated against one empirical measure per x."""
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
