"""Averaging, limit measures, and the operator identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folnerlab.dynamics import (
    CASE_WIDTH,
    GENERATORS,
    average_invariance_defect,
    averaging_residual,
    default_sample,
    empirical_measure,
    example_case,
    genericity_table,
    invariance_gap,
    is_ergodic,
    limit_apply,
    limit_measure,
    seever_residual,
    tau_bound,
    translation_gap,
    verdicts,
)
from folnerlab.folner import RateSequence, box_folner, explicit_folner, rate_folner, translate_folner
from folnerlab.functions import (
    affine,
    bump,
    constant,
    ends_separator,
    envelope,
    random_affine,
)
from folnerlab.lamplighter import (
    CHECK,
    FLIP,
    HAT,
    IDENTITY,
    INF,
    INF_CHECK,
    INF_HAT,
    SIGMA,
    GroupElement,
    Point,
    act,
    check,
    compose,
    hat,
    metric,
)
from folnerlab.transport import DiscreteMeasure, wasserstein
from oracles import (
    box_average_tail_bound,
    limit_apply_by_measure,
    right_box_averages,
    simplex_genericity_row,
    verify_lipschitz,
)

HALF = RateSequence.constant(Fraction(1, 2))
ZERO = RateSequence.constant(0)
PRESETS = {"zero": ZERO, "half": HALF, "decay": RateSequence.decay(), "split": RateSequence.split()}


def test_empirical_fixed_points():
    for folner in (rate_folner(HALF, 2), box_folner(-2, 2)):
        assert empirical_measure(folner, INF_HAT) == DiscreteMeasure.point_mass(INF_HAT)
        assert empirical_measure(folner, INF_CHECK) == DiscreteMeasure.point_mass(INF_CHECK)


def test_empirical_counting_matches_enumeration():
    for rate in PRESETS.values():
        for n in (1, 2):
            virtual = rate_folner(rate, n)
            materialized = explicit_folner(virtual.materialize())
            for x in (hat(0), check(1), hat(-2)):
                counted = dict(empirical_measure(virtual, x).atoms)
                enumerated = dict(empirical_measure(materialized, x).atoms)
                assert counted == enumerated
    box_virtual = box_folner(-2, 2)
    box_materialized = explicit_folner(box_virtual.materialize())
    for x in (hat(0), check(2), hat(5)):
        assert dict(empirical_measure(box_virtual, x).atoms) == dict(
            empirical_measure(box_materialized, x).atoms
        )


def test_empirical_check_mass():
    mu = empirical_measure(rate_folner(HALF, 1), hat(0))
    assert mu.mass_where(lambda p: p.component == CHECK) == Fraction(1, 2)
    for n in (1, 2, 3):
        nu = empirical_measure(box_folner(-n, n), hat(0))
        assert nu.mass_where(lambda p: p.component == CHECK) == Fraction(1, 2)


def test_full_rate_toggles_everything():
    ones = RateSequence.constant(1)
    mu = empirical_measure(rate_folner(ones, 1), hat(0))
    assert mu.mass_where(lambda p: p.component == CHECK) == 1
    assert limit_measure(ones, hat(0)) == DiscreteMeasure.point_mass(INF_CHECK)
    assert is_ergodic(ones, 0)


def test_average_two_evaluation_orders_agree():
    f = affine(1, Fraction(1, 2), Fraction(-1, 3))
    for folner in (rate_folner(HALF, 1), box_folner(-1, 1)):
        elements = folner.materialize()
        for x in (hat(0), check(1), INF_CHECK):
            via_measure = empirical_measure(folner, x).integrate(f)
            via_elements = empirical_measure(explicit_folner(elements), x).integrate(f)
            direct = sum((Fraction(f(act(g, x))) for g in elements), Fraction(0)) / len(elements)
            assert via_measure == via_elements == direct


def test_average_of_constant():
    assert empirical_measure(rate_folner(HALF, 2), hat(3)).integrate(constant(7)) == 7
    assert empirical_measure(box_folner(-1, 1), INF_CHECK).integrate(ends_separator()) == 1


def test_limit_measure_cases():
    prof = HALF
    mu = limit_measure(prof, hat(0))
    assert dict(mu.atoms) == {INF_HAT: Fraction(1, 2), INF_CHECK: Fraction(1, 2)}
    assert limit_measure(prof, INF_HAT) == DiscreteMeasure.point_mass(INF_HAT)
    zero_prof = ZERO
    assert limit_measure(zero_prof, check(5)) == DiscreteMeasure.point_mass(INF_CHECK)
    assert limit_measure(zero_prof, hat(5)) == DiscreteMeasure.point_mass(INF_HAT)


def test_limit_measure_supported_on_the_two_ends():
    for rate in PRESETS.values():
        prof = rate
        for x in default_sample(6):
            support = set(limit_measure(prof, x).support())
            assert support <= {INF_HAT, INF_CHECK}


def test_genericity_zero_at_infinity():
    rows, violations = genericity_table(
        [rate_folner(HALF, n) for n in (1, 2, 3)], INF_HAT, HALF
    )
    assert [r.distance for r in rows] == [0, 0, 0]
    assert violations == []


def test_genericity_decreasing_and_bounded():
    for name, rate in PRESETS.items():
        sets = [rate_folner(rate, n) for n in (1, 2, 3)]
        rows, violations = genericity_table(sets, hat(0), rate)
        assert violations == []
        assert rows[0].distance > rows[1].distance > rows[2].distance
        for row in rows:
            assert row.distance <= row.bound, name


#: Presets and constant rates p/q with q <= 12, including 0 and 1.
GENERICITY_RATES = st.one_of(
    st.sampled_from(["decay", "split", "zero", "const:1/2"]),
    st.fractions(min_value=0, max_value=1, max_denominator=12).map(lambda r: f"const:{r}"),
)
#: Both ends, and finite points inside and outside the n <= 7 shift windows.
GENERICITY_POINTS = st.one_of(
    st.sampled_from([INF_HAT, INF_CHECK]),
    st.builds(Point, st.sampled_from([HAT, CHECK]), st.integers(-140, 140)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7), GENERICITY_RATES, GENERICITY_POINTS)
def test_closed_genericity_row_is_the_simplex_row(n, preset, x):
    rate = RateSequence.from_preset(preset)
    folner = rate_folner(rate, n)
    rows, _ = genericity_table([folner], x, rate)
    assert rows == [simplex_genericity_row(folner, x, rate)]


def test_genericity_rows_at_the_guard_ceiling():
    """On decay at hat(0) the exact distances at n = 10, 12 and 13 have
    denominators of 1,490 and 5,935 bits and 3,556 digits."""
    rate = PRESETS["decay"]
    sets = [rate_folner(rate, n) for n in (10, 12, 13)]
    rows, violations = genericity_table(sets, hat(0), rate)
    assert violations == []
    assert rows == [simplex_genericity_row(folner, hat(0), rate) for folner in sets]
    assert [row.distance.denominator.bit_length() for row in rows] == [1490, 5935, 11811]
    assert len(str(rows[2].distance.denominator)) == 3556
    assert [float(row.distance) for row in rows] == [
        0.0032992441591187076,
        0.000994183812767146,
        0.0005394148368329854,
    ]


def test_tau_bound_decreasing():
    values = [tau_bound(n) for n in (1, 2, 3, 4, 5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_genericity_bound_off_origin():
    # the tolerance schedule covers all tracked positions |pos| <= n
    for rate in (HALF, PRESETS["decay"], PRESETS["split"]):
        sets = [rate_folner(rate, n) for n in (2, 3)]
        for x in (hat(1), check(1), hat(-2), check(2)):
            rows, _ = genericity_table(sets, x, rate)
            assert all(row.distance <= row.bound for row in rows)


def test_genericity_translated_sequence():
    # right-translating by f_n . sigma^(-n) drags the hat origin to check n,
    # whose zero-rate limit is the check end
    sets = [rate_folner(ZERO, n) for n in (1, 2, 3)]
    translations = [compose(GroupElement(0, (n,)), GroupElement(-n, ())) for n in (1, 2, 3)]
    translated = translate_folner(sets, translations)
    target = DiscreteMeasure.point_mass(INF_CHECK)
    distances = []
    for folner in translated:
        value, _ = wasserstein(empirical_measure(folner, hat(0)), target, metric)
        distances.append(value)
    assert distances[0] > distances[1] > distances[2]


def test_right_box_averages():
    separator = ends_separator()
    boxes = [(-n, n) for n in (1, 2, 3, 4)]
    values = right_box_averages(boxes, hat(0), separator)
    assert values == [Fraction(1, 2)] * 4  # check mass is exactly one half
    assert right_box_averages(boxes, INF_CHECK, separator) == [1, 1, 1, 1]


def test_right_box_average_tail_bound():
    f = affine(0, 1, Fraction(1, 2))
    target = (Fraction(f(INF_HAT)) + Fraction(f(INF_CHECK))) / 2
    previous_bound = None
    for n in (1, 2, 4, 8):
        box = (-n, n)
        value = right_box_averages([box], hat(0), f)[0]
        bound = box_average_tail_bound(box, hat(0), f)
        assert abs(value - target) <= bound
        if previous_bound is not None:
            assert bound < previous_bound
        previous_bound = bound


def test_limit_operator_constant_and_projection():
    prof = PRESETS["decay"]
    s_const = limit_apply(prof, constant(3))
    sample = default_sample(10)
    assert all(s_const(x) == 3 for x in sample)  # S1 = 1 scaled
    f = affine(1, Fraction(1, 3), Fraction(2, 5))
    sf = limit_apply(prof, f)
    ssf = limit_apply(prof, sf)
    assert all(ssf(x) == sf(x) for x in sample)  # S^2 = S


def test_limit_operator_zero_rate():
    sf = limit_apply(ZERO, affine(0, 1, 1))
    f = affine(0, 1, 1)
    for b in range(-10, 11):
        assert sf(hat(b)) == Fraction(f(INF_HAT))


def test_limit_operator_positivity():
    rng = random.Random(71)
    prof = PRESETS["split"]
    sample = default_sample(8)
    for _ in range(50):
        f = bump(hat(rng.randint(-4, 4)), Fraction(rng.randint(1, 4), 4))
        sf = limit_apply(prof, f)
        assert all(sf(x) >= 0 for x in sample)


RATES = PRESETS | {f"case-{c}": example_case(c).rate for c in "abcd"}
COEFFICIENTS = st.fractions(min_value=-4, max_value=4, max_denominator=12)
LIMIT_POINTS = st.builds(
    Point, st.sampled_from(["hat", "check"]), st.integers(-300, 300) | st.just(INF)
)
TEST_FUNCTIONS = st.one_of(
    st.builds(affine, COEFFICIENTS, COEFFICIENTS, COEFFICIENTS),
    st.builds(bump, LIMIT_POINTS, st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)),
    st.builds(
        envelope,
        st.lists(st.tuples(LIMIT_POINTS, COEFFICIENTS), min_size=1, max_size=3),
        st.integers(1, 3),
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(RATES)), TEST_FUNCTIONS, TEST_FUNCTIONS, LIMIT_POINTS)
def test_limit_apply_matches_the_measure_oracle(name, f, h, x):
    rate, oracle = RATES[name], limit_apply_by_measure
    assert limit_apply(rate, f)(x) == oracle(rate, f)(x)
    assert limit_apply(rate, limit_apply(rate, f))(x) == oracle(rate, oracle(rate, f))(x)
    sh, oracle_sh = limit_apply(rate, h), oracle(rate, h)
    fast = limit_apply(rate, lambda p: f(p) * sh(p))
    assert fast(x) == oracle(rate, lambda p: f(p) * oracle_sh(p))(x)


def test_limit_measure_matches_from_pairs_on_every_case():
    for case in "abcd":
        rate = example_case(case).rate
        for end in (INF_HAT, INF_CHECK):
            assert limit_measure(rate, end) == DiscreteMeasure.point_mass(end)
        for b in range(-CASE_WIDTH, CASE_WIDTH + 1):
            r = rate.value(b)
            for x, hat_mass in ((hat(b), 1 - r), (check(b), r)):
                expected = DiscreteMeasure.from_pairs(((INF_HAT, hat_mass), (INF_CHECK, 1 - hat_mass)))
                assert limit_measure(rate, x) == expected


def test_seever_residual_zero():
    sample = default_sample(8)
    rng = random.Random(73)
    for rate in PRESETS.values():
        prof = rate
        assert seever_residual(prof, constant(2), random_affine(rng), sample) == 0
        for _ in range(10):
            f, h = random_affine(rng), random_affine(rng)
            assert seever_residual(prof, f, h, sample) == 0


def test_averaging_residual_formula():
    separator = ends_separator()
    prof = HALF
    assert averaging_residual(prof, separator, separator, hat(0)) == Fraction(1, 4)
    assert averaging_residual(prof, constant(5), separator, hat(0)) == 0
    rng = random.Random(79)
    for rate in PRESETS.values():
        prof = rate
        for _ in range(10):
            f, h = random_affine(rng), random_affine(rng)
            b = rng.randint(-6, 6)
            value = averaging_residual(prof, f, h, check(b))
            r = rate.value(b)
            gap_f = Fraction(f(INF_HAT)) - Fraction(f(INF_CHECK))
            gap_h = Fraction(h(INF_HAT)) - Fraction(h(INF_CHECK))
            assert value == r * (1 - r) * gap_f * gap_h


def test_averaging_residual_vanishes_iff_rate_degenerate():
    separator = ends_separator()
    for name, rate in PRESETS.items():
        prof = rate
        for b in (-3, 0, 2):
            value = averaging_residual(prof, separator, separator, hat(b))
            assert (value == 0) == (rate.value(b) in (0, 1))


def test_translation_gap_examples():
    separator = ends_separator()
    sample = default_sample(10)
    # constant rates are shift-invariant
    for rate in (ZERO, HALF):
        assert translation_gap(rate, separator, SIGMA, sample) == 0
    assert translation_gap(PRESETS["decay"], separator, IDENTITY, sample) == 0
    # at zero rate the flip swaps the two point-mass limits at the origin
    gap = translation_gap(ZERO, separator, FLIP, sample)
    expected = abs(Fraction(separator(INF_HAT)) - Fraction(separator(INF_CHECK)))
    assert gap == expected == 1


def test_average_invariance_defect():
    sample = default_sample(5)
    separator = ends_separator()
    assert average_invariance_defect(rate_folner(ZERO, 1), IDENTITY, separator, sample) == 0
    assert average_invariance_defect(rate_folner(ZERO, 2), SIGMA, constant(4), sample) == 0
    for g in GENERATORS:
        values = [
            average_invariance_defect(rate_folner(ZERO, n), g, separator, sample)
            for n in (1, 2, 3)
        ]
        assert values[0] >= values[1] >= values[2]


def test_invariance_gap():
    assert invariance_gap(DiscreteMeasure.point_mass(INF_HAT)) == 0
    balanced = DiscreteMeasure.from_pairs(
        ((INF_HAT, Fraction(1, 2)), (INF_CHECK, Fraction(1, 2)))
    )
    assert invariance_gap(balanced) == 0
    assert invariance_gap(DiscreteMeasure.point_mass(hat(0))) > 0
    for rate in PRESETS.values():
        prof = rate
        for x in default_sample(4):
            assert invariance_gap(limit_measure(prof, x)) == 0


def test_example_cases():
    expected = {"a": (False, "none"), "b": (True, "none"), "c": (True, "some"), "d": (True, "all")}
    for case, (continuous, pattern) in expected.items():
        bundle = example_case(case)
        assert (bundle.continuous, bundle.finite_ergodic) == (continuous, pattern)
        assert verdicts(bundle.rate, 64) == (continuous, pattern)
    with pytest.raises(ValueError):
        example_case("e")


def test_case_distance_to_hat_end_is_rate():
    target = DiscreteMeasure.point_mass(INF_HAT)
    for case in "abcd":
        profile = example_case(case).rate
        for b in range(-16, 17):
            mu = limit_measure(profile, hat(b))
            value, _ = wasserstein(mu, target, metric)
            assert value == profile.value(b)


def test_case_hat_check_symmetry():
    for case in "abcd":
        profile = example_case(case).rate
        for b in range(-16, 17):
            mu_hat = limit_measure(profile, hat(b))
            mu_check = limit_measure(profile, check(b))
            assert mu_hat.mass_where(lambda p: p.component == CHECK) == mu_check.mass_where(
                lambda p: p.component != CHECK
            )


def test_is_ergodic():
    assert is_ergodic(ZERO, 3)
    assert not is_ergodic(HALF, 3)
    split = PRESETS["split"]
    assert is_ergodic(split, -1) and not is_ergodic(split, 1)


def test_canonical_functions_respect_declared_lipschitz():

    sample = default_sample(12)
    for f in (
        affine(1, Fraction(1, 2), Fraction(1, 3)),
        ends_separator(),
        bump(hat(0), Fraction(1, 2)),
        bump(INF_CHECK, Fraction(1, 4)),
        envelope([(hat(0), Fraction(1)), (INF_CHECK, Fraction(0))], Fraction(1, 2)),
    ):
        verify_lipschitz(f, sample)


def test_envelope_interpolates_anchors():

    f = envelope([(hat(0), Fraction(0)), (INF_HAT, Fraction(1, 8))], 1)
    assert f(hat(0)) == 0
    # the anchor value plus the Lipschitz cone caps the other anchor
    assert f(INF_HAT) == min(Fraction(1, 8), metric(INF_HAT, hat(0)))


def _tenth_on_check(p):
    """A float-valued function: 0.1 on the check component, 0.0 on hat."""
    return 0.1 if p.component == CHECK else 0.0


def test_float_values_are_read_by_their_repr():
    """0.1 is read as 1/10 wherever a function value enters, so the Seever
    residual vanishes and the averaging closed form holds exactly."""
    separator = ends_separator()
    assert seever_residual(HALF, _tenth_on_check, separator, default_sample(4)) == 0
    assert seever_residual(HALF, _tenth_on_check, _tenth_on_check, default_sample(4)) == 0
    assert averaging_residual(HALF, _tenth_on_check, separator, hat(0)) == Fraction(1, 40)
    assert averaging_residual(HALF, _tenth_on_check, _tenth_on_check, hat(0)) == Fraction(1, 400)


def test_function_parameters_are_read_by_their_repr():
    assert bump(hat(0), 0.1).lipschitz == 10
    assert bump(hat(0), 0.1)(hat(0)) == 1
    f = envelope([(hat(0), 0.1), (check(0), 0.2)], lipschitz=0.5)
    assert f.lipschitz == Fraction(1, 2)
    assert f(hat(0)) == Fraction(1, 10)
    assert f(check(0)) == Fraction(1, 5)
