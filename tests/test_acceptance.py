"""Acceptance criteria, one test each, printed as PASS lines.

Every tolerance is pinned here: "exact"/"zero tolerance" items assert
Fraction equality, the remaining bounds use the stated 1e-9 / 1e-12.
"""

import random
import time
from fractions import Fraction

from oracles import brute_assignment_distance, brute_matching

from folnerlab.dynamics import (
    GENERATORS,
    average_invariance_defect,
    averaging_residual,
    default_sample,
    empirical_measure,
    example_case,
    genericity_table,
    invariance_gap,
    limit_apply,
    limit_measure,
    seever_residual,
    translation_gap,
    verdicts,
)
from folnerlab.folner import (
    RateSequence,
    box_folner,
    explicit_folner,
    flip_balance,
    left_defect,
    rate_folner,
)
from folnerlab.functions import bump, constant, ends_separator, random_affine
from folnerlab.homeo import (
    HomeoFamily,
    IDENTITY_MAP,
    compose_family,
    end_mixture,
    endpoint_fractions,
    interval_distance,
    interval_empirical,
    matching_number,
    repelling_family,
    sup_distance,
)
from folnerlab.lamplighter import (
    CHECK,
    FLIP,
    INF_CHECK,
    INF_HAT,
    SIGMA,
    SIGMA_INV,
    GroupElement,
    check,
    hat,
    metric,
)
from folnerlab.transport import DiscreteMeasure, assignment_distance, dual_lower_bound, wasserstein

TOL_9 = Fraction(1, 10**9)
TOL_12 = Fraction(1, 10**12)

PRESETS = {
    "const:0": RateSequence.constant(0),
    "const:0.5": RateSequence.constant(Fraction(1, 2)),
    "decay": RateSequence.decay(),
    "split": RateSequence.split(),
}


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def _random_point(rng, span=12):
    if rng.random() < 0.08:
        return rng.choice([INF_HAT, INF_CHECK])
    return (hat if rng.random() < 0.5 else check)(rng.randint(-span, span))


def _random_element(rng, span=6):
    flips = sorted(rng.sample(range(-span, span + 1), rng.randint(0, 3)))
    return GroupElement(rng.randint(-span, span), tuple(flips))


def _random_measure(rng, max_atoms=4):
    count = rng.randint(1, max_atoms)
    points = [_random_point(rng) for _ in range(count)]
    weights = [rng.randint(1, 5) for _ in range(count)]
    total = sum(weights)
    return DiscreteMeasure.from_pairs((p, Fraction(w, total)) for p, w in zip(points, weights))


def test_acceptance_1_selection_ratio_bound():
    start = time.monotonic()
    for name, rate in PRESETS.items():
        for n in (1, 2, 3):
            folner = rate_folner(rate, n)
            for l0 in range(-n, n + 1):
                gap = abs(folner.balance(l0) - rate.value(l0))
                assert gap <= Fraction(1, 4**n), (name, n, l0)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(1, f"support-balance bound 2^(-2n) exact for all presets ({elapsed:.2f}s)")


def test_acceptance_2_genericity_at_the_origin():
    start = time.monotonic()
    for name, rate in PRESETS.items():
        profile = rate
        sets = [rate_folner(rate, n) for n in (1, 2, 3)]
        rows, violations = genericity_table(sets, hat(0), profile)
        assert violations == [], name
        assert rows[0].distance >= rows[1].distance >= rows[2].distance
        # the check-component mass equals the support containment ratio,
        # verified on the fully enumerated sets (n = 3 has 17408 elements)
        for folner in sets:
            materialized = explicit_folner(folner.materialize())
            assert materialized.size == (2 ** (folner.n + 1) + 1) * folner.cardinality
            mass = empirical_measure(materialized, hat(0)).mass_where(
                lambda p: p.component == CHECK
            )
            assert mass == flip_balance(materialized, 0) == flip_balance(folner, 0), (name, folner.n)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(2, f"empirical-to-limit distances non-increasing, check mass exact ({elapsed:.2f}s)")


def test_acceptance_3_right_averaging_and_balance():
    start = time.monotonic()
    zero = RateSequence.constant(0)
    for n in range(1, 9):
        box = box_folner(-n, n)
        mass = empirical_measure(box, hat(0)).mass_where(lambda p: p.component == CHECK)
        assert mass == Fraction(1, 2), n
        assert flip_balance(rate_folner(zero, n), 0) == 0, n
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(3, f"box check-mass exactly 1/2 for n=1..8; zero-rate balance 0 ({elapsed:.2f}s)")


def test_acceptance_4_left_folner_certification():
    start = time.monotonic()
    for rate in (PRESETS["const:0"], PRESETS["const:0.5"]):
        for n in range(1, 9):
            assert left_defect(rate_folner(rate, n), SIGMA) == Fraction(2, 2 ** (n + 1) + 1)
        for g in (SIGMA, SIGMA_INV, FLIP):
            values = [left_defect(rate_folner(rate, n), g) for n in (2, 3, 4)]
            assert values[0] >= values[1] >= values[2], g
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(4, f"shift defect 2/(2^(n+1)+1) exact for n=1..8, monotone generators ({elapsed:.2f}s)")


def test_acceptance_5_transport_cross_validation():
    start = time.monotonic()
    rng = random.Random(20240)
    # factorial brute force, sizes <= 6
    for _ in range(10):
        size = rng.randint(2, 6)
        elements = set()
        while len(elements) < size:
            elements.add(_random_element(rng))
        folner = explicit_folner(elements)
        x, y = _random_point(rng), _random_point(rng)
        assert assignment_distance(folner, x, y) == brute_assignment_distance(folner, x, y)
    # permutation form equals transport of the empirical measures, sizes <= 64
    sizes = [64] * 3 + [rng.randint(2, 64) for _ in range(97)]
    for size in sizes:
        elements = set()
        while len(elements) < size:
            elements.add(_random_element(rng))
        folner = explicit_folner(elements)
        x, y = _random_point(rng), _random_point(rng)
        assigned = assignment_distance(folner, x, y)
        value, plan = wasserstein(
            empirical_measure(folner, x), empirical_measure(folner, y), metric
        )
        assert abs(assigned - value) <= TOL_9
        assert assigned == value  # exact arithmetic makes the 1e-9 bound sharp
    # dual lower bound never exceeds the primal
    separator = ends_separator()
    for _ in range(50):
        mu, nu = _random_measure(rng), _random_measure(rng)
        anchors = [p for p, _ in (mu.atoms + nu.atoms)][:3]
        witnesses = [separator] + [(lambda a: (lambda z: metric(z, a)))(a) for a in anchors]
        lb = dual_lower_bound(mu, nu, witnesses, metric)
        primal, _ = wasserstein(mu, nu, metric)
        assert lb <= primal + TOL_9 and lb <= primal
    # triangle inequality on 1000 random triples
    for _ in range(1000):
        mu, nu, pi = (_random_measure(rng, 3) for _ in range(3))
        d_mn, _ = wasserstein(mu, nu, metric)
        d_mp, _ = wasserstein(mu, pi, metric)
        d_pn, _ = wasserstein(pi, nu, metric)
        assert d_mn <= d_mp + d_pn + TOL_9 and d_mn <= d_mp + d_pn
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(5, f"assignment = brute force = transport, dual <= primal, triangle ok ({elapsed:.2f}s)")


def test_acceptance_6_operator_identities():
    start = time.monotonic()
    rng = random.Random(31337)
    sample = default_sample(10)
    for name, rate in PRESETS.items():
        profile = rate
        for _ in range(20):
            f, h = random_affine(rng), random_affine(rng)
            assert seever_residual(profile, f, h, sample) <= TOL_12, name
            b = rng.randint(-10, 10)
            value = averaging_residual(profile, f, h, hat(b))
            r = rate.value(b)
            gap_f = Fraction(f(INF_HAT)) - Fraction(f(INF_CHECK))
            gap_h = Fraction(h(INF_HAT)) - Fraction(h(INF_CHECK))
            assert abs(value - r * (1 - r) * gap_f * gap_h) <= TOL_12
        separator = ends_separator()
        for b in range(-8, 9):
            residual = averaging_residual(profile, separator, separator, hat(b))
            assert (abs(residual) <= TOL_12) == (rate.value(b) in (0, 1))
    zero_profile = PRESETS["const:0"]
    separator = ends_separator()
    gap = translation_gap(zero_profile, separator, FLIP, sample)
    expected = abs(Fraction(separator(INF_HAT)) - Fraction(separator(INF_CHECK)))
    assert abs(gap - expected) <= TOL_12
    continuous, pattern = verdicts(zero_profile, 64)
    assert continuous and pattern == "all"
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(6, f"Seever exact, averaging = r(1-r)*gaps, flip gap witnesses two ends ({elapsed:.2f}s)")


def test_acceptance_7_four_case_table():
    start = time.monotonic()
    expected = {"a": (False, "none"), "b": (True, "none"), "c": (True, "some"), "d": (True, "all")}
    target = DiscreteMeasure.point_mass(INF_HAT)
    for case, verdict in expected.items():
        bundle = example_case(case)
        assert (bundle.continuous, bundle.finite_ergodic) == verdict
        assert verdicts(bundle.rate, 64) == verdict
        for b in range(-64, 65):
            mu_hat = limit_measure(bundle.rate, hat(b))
            value, _ = wasserstein(mu_hat, target, metric)
            assert value == bundle.rate.value(b)
            mu_check = limit_measure(bundle.rate, check(b))
            hat_weight = mu_hat.mass_where(lambda p: p.component != CHECK)
            check_weight = mu_check.mass_where(lambda p: p.component == CHECK)
            assert hat_weight == check_weight  # hat/check swap symmetry
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(7, f"four alternatives reproduced; swap symmetry exact over |b| <= 64 ({elapsed:.2f}s)")


def test_acceptance_8_appendix_checks():
    start = time.monotonic()
    zero = RateSequence.constant(0)
    sample = default_sample(5)
    separator = ends_separator()
    for g in GENERATORS:
        values = [
            average_invariance_defect(rate_folner(zero, n), g, separator, sample)
            for n in (1, 2, 3)
        ]
        assert values[0] >= values[1] >= values[2], g
    for rate in PRESETS.values():
        profile = rate
        for x in default_sample(6):
            assert invariance_gap(limit_measure(profile, x)) == 0
    rng = random.Random(97)
    profile = PRESETS["decay"]
    ones = limit_apply(profile, constant(1))
    assert all(ones(x) == 1 for x in sample)
    for _ in range(100):
        f = bump(_random_point(rng, span=6), Fraction(rng.randint(1, 8), 8))
        sf = limit_apply(profile, f)
        ssf = limit_apply(profile, sf)
        for x in sample:
            assert sf(x) >= 0
            assert ssf(x) == sf(x)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(8, f"averaged invariance defects monotone; limits invariant; S projection ({elapsed:.2f}s)")


def test_acceptance_9_interval_example():
    start = time.monotonic()
    base = HomeoFamily((IDENTITY_MAP,), "identity")
    for y in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        previous = None
        for n in (4, 8, 16, 32):
            family = repelling_family(base, n)
            low, high = endpoint_fractions(family, y)
            assert abs(low - (1 - y)) <= Fraction(2, n)
            assert abs(high - y) <= Fraction(2, n)
            value, _ = wasserstein(interval_empirical(family, y), end_mixture(y), interval_distance)
            if previous is not None and 0 < y < 1:
                assert value < previous
            previous = value
    rng = random.Random(4242)
    from test_homeo import random_homeo

    for _ in range(8):
        left = HomeoFamily(tuple(random_homeo(rng) for _ in range(rng.randint(2, 7))))
        right = HomeoFamily(tuple(random_homeo(rng) for _ in range(rng.randint(2, 7))))
        radius = Fraction(rng.randint(1, 8), 16)
        adjacency = [
            {j for j, e in enumerate(right.members) if sup_distance(e, f) < radius}
            for f in left.members
        ]
        expected = brute_matching(adjacency, len(left.members), len(right.members))
        assert matching_number(left, right, radius) == expected
        g = random_homeo(rng)
        assert matching_number(left, right, radius) == matching_number(
            compose_family(left, g), compose_family(right, g), radius
        )
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(9, f"endpoint fractions within 2/n, transport decreasing, matching exact ({elapsed:.2f}s)")
