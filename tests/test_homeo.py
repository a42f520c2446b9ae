"""Piecewise-linear maps, matching numbers, and repelling families."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    breakpoint_xs,
    brute_matching,
    cost_matrix,
    invert,
    pl_compose_breakpoints,
    pl_endpoint_fractions,
    pl_is_repelling,
    pl_sup_distance,
    pl_value,
    repelling_breakpoints,
    repelling_points,
)

from folnerlab.errors import GuardViolation, InvariantViolation
from folnerlab.homeo import (
    _closer_than,
    _max_matching,
    BASE_FAMILY_GUARD,
    HomeoFamily,
    IDENTITY_MAP,
    PLHomeo,
    compose_family,
    compose_maps,
    end_mixture,
    endpoint_fractions,
    interval_distance,
    interval_empirical,
    is_repelling,
    matching_number,
    pl_homeo,
    repelling_element,
    repelling_family,
    sup_distance,
    squash_margin,
)
from folnerlab.transport import wasserstein


def random_homeo(rng, max_breaks=3):
    count = rng.randint(0, max_breaks)
    xs = sorted(rng.sample([Fraction(i, 12) for i in range(1, 12)], count))
    ys = sorted(rng.sample([Fraction(i, 12) for i in range(1, 12)], count))
    pts = [(Fraction(0), Fraction(0))] + list(zip(xs, ys)) + [(Fraction(1), Fraction(1))]
    return pl_homeo(pts)


def test_validation():
    with pytest.raises(ValueError):
        pl_homeo([(0, 0), (1, 2)])
    with pytest.raises(ValueError):
        pl_homeo([(Fraction(1, 4), Fraction(1, 4)), (1, 1)])
    with pytest.raises(ValueError):
        pl_homeo([(0, 0), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4)), (1, 1)])


def test_evaluation():
    tent = pl_homeo([(0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)])
    assert tent(0) == 0
    assert tent(1) == 1
    assert tent(Fraction(1, 2)) == Fraction(3, 4)
    assert tent(Fraction(1, 4)) == Fraction(3, 8)


def test_compose_and_invert_are_exact():
    rng = random.Random(3)
    sample = [Fraction(i, 16) for i in range(17)]
    for _ in range(30):
        f, g = random_homeo(rng), random_homeo(rng)
        fg = compose_maps(f, g)
        for t in sample:
            assert fg(t) == f(g(t))
        f_inv = invert(f)
        for t in sample:
            assert f_inv(f(t)) == t
            assert f(f_inv(t)) == t


def test_sup_distance_examples():
    assert sup_distance(IDENTITY_MAP, IDENTITY_MAP) == 0
    kink = pl_homeo([(0, 0), (Fraction(1, 2), Fraction(3, 4)), (1, 1)])
    assert sup_distance(IDENTITY_MAP, kink) == Fraction(1, 4)
    rng = random.Random(5)
    for _ in range(20):
        f, g = random_homeo(rng), random_homeo(rng)
        assert sup_distance(f, g) == sup_distance(g, f)


def test_sup_distance_dominates_pointwise():
    rng = random.Random(7)
    sample = [Fraction(i, 40) for i in range(41)]
    for _ in range(20):
        f, g = random_homeo(rng), random_homeo(rng)
        bound = sup_distance(f, g)
        assert all(abs(f(t) - g(t)) <= bound for t in sample)


def test_matching_identity_family():
    rng = random.Random(9)
    members = tuple(random_homeo(rng) for _ in range(5))
    family = HomeoFamily(members)
    assert matching_number(family, family, Fraction(1, 1000)) == len(members)


def test_matching_against_brute_force():
    rng = random.Random(11)
    for _ in range(15):
        left = HomeoFamily(tuple(random_homeo(rng) for _ in range(rng.randint(1, 5))))
        right = HomeoFamily(tuple(random_homeo(rng) for _ in range(rng.randint(1, 5))))
        radius = Fraction(rng.randint(1, 8), 16)
        adjacency = [
            {j for j, e in enumerate(right.members) if sup_distance(e, f) < radius}
            for f in left.members
        ]
        expected = brute_matching(adjacency, len(left.members), len(right.members))
        assert matching_number(left, right, radius) == expected


def test_matching_monotone_in_radius_and_bounded():
    rng = random.Random(13)
    left = HomeoFamily(tuple(random_homeo(rng) for _ in range(6)))
    right = HomeoFamily(tuple(random_homeo(rng) for _ in range(4)))
    values = [matching_number(left, right, Fraction(k, 8)) for k in range(1, 9)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= min(len(left.members), len(right.members)) for v in values)


def test_matching_right_composition_invariance():
    rng = random.Random(17)
    for _ in range(10):
        left = HomeoFamily(tuple(random_homeo(rng) for _ in range(4)))
        right = HomeoFamily(tuple(random_homeo(rng) for _ in range(4)))
        g = random_homeo(rng)
        radius = Fraction(rng.randint(1, 8), 16)
        assert matching_number(left, right, radius) == matching_number(
            compose_family(left, g), compose_family(right, g), radius
        )


def test_repelling_element_examples():
    g = repelling_element(Fraction(1, 2), Fraction(1, 8))
    assert g(Fraction(1, 4)) <= Fraction(1, 8)
    assert g(Fraction(3, 4)) >= Fraction(7, 8)
    assert g(Fraction(1, 5)) < Fraction(1, 8)  # strict off the cut point
    degenerate = repelling_element(0, Fraction(1, 8))
    assert len(degenerate.breakpoints) == 3
    assert degenerate(Fraction(1, 4)) > Fraction(7, 8)
    for x, eps in ((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 8)), (-1, Fraction(1, 8))):
        with pytest.raises(ValueError):
            repelling_element(x, eps)
        with pytest.raises(ValueError):
            is_repelling(g, x, eps)


def test_repelling_grid_property():
    x, eps = Fraction(2, 5), Fraction(1, 10)
    g = repelling_element(x, eps)
    assert is_repelling(g, x, eps)
    for k in range(0, 40):
        y = Fraction(k, 39)
        if y < x - eps:
            assert g(y) < eps
        if y > x + eps:
            assert g(y) > 1 - eps


def test_repelling_family_small():
    family = repelling_family(HomeoFamily((IDENTITY_MAP,), "id"), 2)
    assert len(family.members) == 3
    threshold = Fraction(1, 4)
    for k, member in enumerate(family.members):
        assert is_repelling(member, Fraction(k, 2), threshold)


def test_repelling_family_cardinality():
    base = HomeoFamily((IDENTITY_MAP, pl_homeo([(0, 0), (Fraction(1, 3), Fraction(1, 2)), (1, 1)])))
    family = repelling_family(base, 4)
    assert len(family.members) == 5 * 2


def test_repelling_family_members_verified():
    for n in (3, 5, 8):
        family = repelling_family(HomeoFamily((IDENTITY_MAP,), "id"), n)
        threshold = Fraction(1, n * n)
        for k, member in enumerate(family.members):
            x = Fraction(k, n)
            if x - threshold > 0:
                assert member(x - threshold) <= threshold
            if x + threshold < 1:
                assert member(x + threshold) >= 1 - threshold


def test_repelling_family_requires_n_at_least_two():
    with pytest.raises(ValueError):
        repelling_family(HomeoFamily((IDENTITY_MAP,), "id"), 1)


def test_repelling_family_guard():
    big = HomeoFamily((IDENTITY_MAP,) * (BASE_FAMILY_GUARD + 1))
    with pytest.raises(GuardViolation):
        repelling_family(big, 4)


def test_squash_margin_certified():
    base = [pl_homeo([(0, 0), (Fraction(1, 8), Fraction(1, 2)), (1, 1)])]
    threshold = Fraction(1, 16)
    delta = squash_margin(base, threshold)
    assert delta > 0
    assert all(g(delta) < threshold and g(1 - delta) > 1 - threshold for g in base)


def test_squash_margin_on_the_identity_base_is_exact():
    assert squash_margin([IDENTITY_MAP], Fraction(1, 64)) == Fraction(1, 128)
    for outside in (0, 1):
        with pytest.raises(InvariantViolation, match="outside"):
            squash_margin([IDENTITY_MAP], outside)


def test_interval_empirical_endpoints():
    family = repelling_family(HomeoFamily((IDENTITY_MAP,), "id"), 4)
    assert dict(interval_empirical(family, 0).atoms) == {Fraction(0): Fraction(1)}
    assert dict(interval_empirical(family, 1).atoms) == {Fraction(1): Fraction(1)}
    low, high = endpoint_fractions(family, 0)
    assert (low, high) == (1, 0)
    low, high = endpoint_fractions(family, 1)
    assert (low, high) == (0, 1)


def test_interval_empirical_fraction_bounds():
    for n in (4, 8, 16):
        family = repelling_family(HomeoFamily((IDENTITY_MAP,), "id"), n)
        for y in (0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1):
            low, high = endpoint_fractions(family, y)
            assert abs(low - (1 - y)) <= Fraction(2, n)
            assert abs(high - y) <= Fraction(2, n)


def test_interval_empirical_transport_decreasing():
    for y in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        previous = None
        for n in (4, 8, 16):
            family = repelling_family(HomeoFamily((IDENTITY_MAP,), "id"), n)
            value, _ = wasserstein(interval_empirical(family, y), end_mixture(y), interval_distance)
            if previous is not None:
                assert value < previous
            previous = value


def test_interval_empirical_transport_within_the_coupling_bound():
    # W_n <= 1/n^2 + 3/(n + 1), derived in experiment._run_homeo, exactly at
    # every y = k/16, including y = 5/16 where W_16 > W_8
    for n in [*range(2, 20), 32, 64]:
        family = repelling_family(HomeoFamily((IDENTITY_MAP,), "id"), n)
        for k in range(17):
            y = Fraction(k, 16)
            value, _ = wasserstein(interval_empirical(family, y), end_mixture(y), interval_distance)
            assert value <= Fraction(1, n * n) + Fraction(3, n + 1)


#: Points of [0, 1]: both ends, and fractions with small and large denominators.
UNIT_POINTS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(0, 1, max_denominator=12),
    st.fractions(0, 1, max_denominator=10**9),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(UNIT_POINTS, min_size=1, max_size=7), st.lists(UNIT_POINTS, min_size=1, max_size=7))
def test_interval_block_cells_are_the_interval_distance(sources, targets):
    sources = sources + sources[:2]  # duplicates
    targets = targets + [Fraction(0), Fraction(1)]
    rows, scale = interval_distance.integer_block(sources, targets)
    assert all(isinstance(c, int) for row in rows for c in row)
    assert [[Fraction(c, scale) for c in row] for row in rows] == cost_matrix(sources, targets, interval_distance)


def test_serialization_roundtrip():
    kink = pl_homeo([(0, 0), (Fraction(1, 3), Fraction(2, 3)), (1, 1)])
    assert PLHomeo.from_dict(kink.to_dict()) == kink


# Property tests: the integer merge sweep against the Fraction reference.

INTERIOR = st.builds(Fraction, st.integers(1, 29), st.integers(2, 30)).filter(lambda v: v < 1)


@st.composite
def pl_maps(draw, max_breaks=4):
    xs = sorted(draw(st.lists(INTERIOR, unique=True, max_size=max_breaks)))
    ys = sorted(draw(st.lists(INTERIOR, unique=True, min_size=len(xs), max_size=len(xs))))
    return pl_homeo(((Fraction(0), Fraction(0)), *zip(xs, ys), (Fraction(1), Fraction(1))))


@settings(max_examples=100, deadline=None)
@given(pl_maps(), pl_maps(), st.lists(st.fractions(min_value=0, max_value=1, max_denominator=50), max_size=6))
def test_evaluation_matches_pointwise_reference(f, g, sample):
    for t in [*sample, *breakpoint_xs(g), *breakpoint_xs(f)]:
        assert f(t) == pl_value(f.breakpoints, t)


@settings(max_examples=100, deadline=None)
@given(pl_maps(), pl_maps())
def test_sweep_sup_distance_matches_pointwise_maximum(f, g):
    assert sup_distance(f, g) == pl_sup_distance(f, g)


@settings(max_examples=100, deadline=None)
@given(pl_maps(), pl_maps(), st.fractions(min_value=-1, max_value=2, max_denominator=60))
def test_early_exit_predicate_matches_reference(f, g, extra):
    reference = pl_sup_distance(f, g)
    grid = {*breakpoint_xs(f), *breakpoint_xs(g)}
    gaps = {abs(pl_value(f.breakpoints, t) - pl_value(g.breakpoints, t)) for t in grid}
    for radius in gaps | {extra, reference, reference + Fraction(1, 10**9)}:
        assert _closer_than(f, g, radius) == (reference < radius)


@settings(max_examples=100, deadline=None)
@given(pl_maps(), pl_maps())
def test_compose_matches_pointwise_formula(outer, inner):
    composed = compose_maps(outer, inner)
    reference = pl_homeo(pl_compose_breakpoints(outer, inner))
    assert composed.breakpoints == reference.breakpoints
    # the lcm-gcd reduction yields the canonical form, so equality and hashing agree
    assert composed.integer_form == reference.integer_form and hash(composed) == hash(reference)


@settings(max_examples=100, deadline=None)
@given(pl_maps())
def test_serialization_roundtrip_property(f):
    again = PLHomeo.from_dict(f.to_dict())
    assert again == f and again.breakpoints == f.breakpoints
    assert again.integer_form == f.integer_form


@settings(max_examples=100, deadline=None)
@given(pl_maps())
def test_a_map_is_its_integer_form(f):
    again, read = PLHomeo(f.integer_form), pl_homeo(f.breakpoints)
    assert again == read == f and hash(again) == hash(read) == hash(f)


@pytest.mark.parametrize(
    "form",
    [((0, 1), (0, 2), 2), ((1, 2), (0, 2), 2), ((0, 1, 1, 2), (0, 1, 2, 2), 2), ((0,), (0,), 1)],
    ids=["end-off-the-diagonal", "start-off-the-origin", "repeated-key", "one-point"],
)
def test_integer_forms_are_checked(form):
    with pytest.raises(ValueError):
        PLHomeo(form)


@settings(max_examples=200, deadline=None)
@given(pl_maps(1), pl_maps(1))
def test_equality_and_hashing_follow_the_breakpoints(f, g):
    assert (f == g) == (f.breakpoints == g.breakpoints)
    if f == g:
        assert hash(f) == hash(g)
    # composing with the identity runs the sweep and its lcm-gcd reduction
    for same in (compose_maps(f, IDENTITY_MAP), compose_maps(IDENTITY_MAP, f), pl_homeo(f.breakpoints)):
        assert same == f and hash(same) == hash(f) and same.integer_form == f.integer_form


@settings(max_examples=100, deadline=None)
@given(
    st.lists(pl_maps(), min_size=1, max_size=4),
    st.fractions(min_value=0, max_value=1, max_denominator=200).filter(lambda t: 0 < t < 1),
)
def test_squash_margin_is_half_the_inverse_supremum_and_strict(base, t):
    reach = min(min(invert(g)(t), 1 - invert(g)(1 - t)) for g in base)
    delta = squash_margin(base, t)
    assert delta == reach / 2
    assert all(g(delta) < t and g(1 - delta) > 1 - t for g in base)
    # the supremum itself is not a margin
    assert not all(g(reach) < t and g(1 - reach) > 1 - t for g in base)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(pl_maps(3), min_size=1, max_size=5),
    st.lists(pl_maps(3), min_size=1, max_size=5),
    st.integers(min_value=0),
)
def test_matching_matches_brute_force_on_sampled_radii(left, right, pick):
    distances = sorted({pl_sup_distance(e, f) for e in right for f in left})
    radius = distances[pick % len(distances)]  # ties exercise the strict test
    adjacency = [{j for j, e in enumerate(right) if pl_sup_distance(e, f) < radius} for f in left]
    expected = brute_matching(adjacency, len(left), len(right))
    assert matching_number(HomeoFamily(tuple(left)), HomeoFamily(tuple(right)), radius) == expected


@settings(max_examples=20, deadline=None)
@given(st.lists(pl_maps(3), min_size=1, max_size=3), st.sampled_from([2, 4, 8]))
def test_repelling_family_members_and_order_match_reference(maps, n):
    base = HomeoFamily((*maps, maps[0]))  # a repeated base map yields duplicate members
    members = repelling_family(base, n).members
    assert [m.breakpoints for m in members] == repelling_breakpoints(base, n)


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=40)
EPS = st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=40).filter(lambda e: 0 < e < Fraction(1, 2))


@settings(max_examples=150, deadline=None)
@given(pl_maps(), UNIT, EPS)
def test_is_repelling_matches_reference(f, x, eps):
    # x itself, and the x that put a cut point exactly on 0 or on 1
    for at in (x, eps, 1 - eps, Fraction(0), Fraction(1)):
        assert is_repelling(f, at, eps) == pl_is_repelling(f.breakpoints, at, eps)


@settings(max_examples=150, deadline=None)
@given(pl_maps(), UNIT.filter(lambda t: 0 < t < 1))
def test_is_repelling_at_exact_ties(f, t):
    # eps chosen so that f(x - eps) = eps, or f(x + eps) = 1 - eps, exactly
    value = pl_value(f.breakpoints, t)
    for x, eps in ((t + value, value), (t - (1 - value), 1 - value)):
        if 0 <= x <= 1 and 0 < eps < Fraction(1, 2):
            assert is_repelling(f, x, eps) == pl_is_repelling(f.breakpoints, x, eps)
            # a hair less eps moves the tied cut point to where the inequality fails
            assert not is_repelling(f, x, eps - Fraction(1, 10**6))


@settings(max_examples=100, deadline=None)
@given(UNIT, EPS)
def test_repelling_element_matches_its_fraction_breakpoints(x, eps):
    reference = pl_homeo(repelling_points(x, eps))
    g = repelling_element(x, eps)
    assert g.integer_form == reference.integer_form and g.breakpoints == reference.breakpoints
    assert is_repelling(g, x, eps)


@settings(max_examples=100, deadline=None)
@given(st.lists(pl_maps(), min_size=1, max_size=6), st.integers(2, 8), UNIT)
def test_endpoint_fractions_match_fraction_counts(maps, n, y):
    threshold = Fraction(1, n * n)
    if 0 < y < 1:  # members landing exactly on both thresholds
        maps += [pl_homeo([(0, 0), (y, v), (1, 1)]) for v in (threshold, 1 - threshold)]
    family = HomeoFamily(tuple(maps), n=n)
    for at in (y, Fraction(0), Fraction(1)):
        assert endpoint_fractions(family, at) == pl_endpoint_fractions(maps, n, at)
    for outside in (-y - Fraction(1, 7), 1 + y + Fraction(1, 7)):
        with pytest.raises(ValueError, match="outside"):
            endpoint_fractions(family, outside)


def test_max_matching_long_augmenting_chain():
    # left i meets rights i and i + 1; the last left meets only right 0, so
    # its augmenting path runs through every earlier left vertex
    size = 1501
    adjacency = [[i, i + 1] for i in range(size - 1)] + [[0]]
    assert _max_matching(adjacency) == size
