"""Group arithmetic, the action, and the metric on the doubled line."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folnerlab.errors import WordParseError
from folnerlab.lamplighter import (
    FLIP,
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
    inverse,
    metric,
    parse_word,
    word_of,
)
from oracles import embedding_metric, fold_word


def random_element(rng, span=6, max_flips=4):
    flips = sorted(rng.sample(range(-span, span + 1), rng.randint(0, max_flips)))
    return GroupElement(rng.randint(-span, span), tuple(flips))


def random_point(rng, span=50):
    if rng.random() < 0.1:
        return rng.choice([INF_HAT, INF_CHECK])
    return Point(rng.choice(["hat", "check"]), rng.randint(-span, span))


POINTS = st.builds(
    Point, st.sampled_from(["hat", "check"]), st.integers(-(10**6), 10**6) | st.just(INF)
)
# Small shifts and supports, so products often cancel flips.
ELEMENTS = st.builds(
    GroupElement,
    st.integers(-8, 8),
    st.lists(st.integers(-8, 8), unique=True, max_size=6).map(sorted).map(tuple),
)
# Points within reach of those supports (|pos| <= 12, infinity rarely),
# so act's component toggle fires in about a fifth of the action checks.
NEAR_POINTS = st.builds(
    Point, st.sampled_from(["hat", "check"]), st.sampled_from([INF, *range(-12, 13)])
)


def test_compose_flip_then_shift():
    # f . sigma picks up a translated flip
    assert compose(FLIP, SIGMA) == GroupElement(1, (1,))


def test_compose_identity_is_neutral():
    g = GroupElement(3, (-1, 4))
    assert compose(g, IDENTITY) == g
    assert compose(IDENTITY, g) == g


def test_compose_cancellation():
    g = GroupElement(2, (1,))
    h = GroupElement(-2, (-1,))
    assert compose(g, h) == IDENTITY
    # oracle: both sides act identically on a window of points
    for s in range(-5, 6):
        for point in (hat(s), check(s)):
            assert act(g, act(h, point)) == point


def test_inverse_examples():
    assert inverse(IDENTITY) == IDENTITY
    assert inverse(GroupElement(1, (1,))) == GroupElement(-1, (0,))
    assert inverse(GroupElement(-3, (-2, 5))) == GroupElement(3, (1, 8))


@settings(max_examples=200, deadline=None)
@given(ELEMENTS)
def test_inverse_property(g):
    assert compose(g, inverse(g)) == IDENTITY
    assert compose(inverse(g), g) == IDENTITY


def test_act_examples():
    assert act(SIGMA, check(5)) == check(4)
    assert act(GroupElement(0, (3,)), hat(3)) == check(3)
    rng = random.Random(1)
    for _ in range(50):
        g = random_element(rng)
        assert act(g, INF_HAT) == INF_HAT
        assert act(g, INF_CHECK) == INF_CHECK


@settings(max_examples=300, deadline=None)
@given(ELEMENTS, ELEMENTS, NEAR_POINTS)
def test_action_axiom(g, h, x):
    assert act(compose(g, h), x) == act(g, act(h, x))


@settings(max_examples=200, deadline=None)
@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_group_axioms_randomized(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, IDENTITY) == compose(IDENTITY, a) == a


def test_commutation_identity():
    # flip at b then shift by a equals shift by a then flip at a + b
    for a in range(-20, 21):
        for b in range(-20, 21):
            shift = GroupElement(a, ())
            assert compose(GroupElement(0, (b,)), shift) == compose(shift, GroupElement(0, (a + b,)))


def test_canonical_forms_act_differently():
    # desk-scale injectivity: distinct canonical forms induce distinct maps
    window = [hat(s) for s in range(-10, 11)] + [check(s) for s in range(-10, 11)]
    window += [INF_HAT, INF_CHECK]
    signatures = set()
    count = 0
    positions = range(-3, 4)
    for shift in positions:
        for mask in range(2 ** len(positions)):
            flips = tuple(p for i, p in enumerate(positions) if mask >> i & 1)
            g = GroupElement(shift, flips)
            signatures.add(tuple(act(g, x) for x in window))
            count += 1
    assert len(signatures) == count


def test_metric_examples():
    assert metric(hat(0), check(0)) == 1
    assert metric(hat(3), hat(3)) == 0
    assert metric(hat(8), INF_HAT) == Fraction(1, 18)


def test_metric_axioms_randomized():
    rng = random.Random(17)
    pts = [random_point(rng, span=30) for _ in range(60)]
    for _ in range(500):
        x, y, z = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        assert metric(x, y) == metric(y, x)
        assert (metric(x, y) == 0) == (x == y)
        assert metric(x, z) <= metric(x, y) + metric(y, z)


def test_metric_compactification():
    previous = None
    for k in range(1, 12):
        d = metric(hat(2**k), INF_HAT)
        assert previous is None or d < previous
        previous = d
    assert previous < Fraction(1, 1000)
    # separation: distinct finite points at bounded position stay apart
    for t in range(-100, 101):
        if t != 5:
            assert metric(hat(5), hat(t)) > 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["hat", "check"]), st.integers(-(10**6), 10**6) | st.just(INF), POINTS)
def test_metric_matches_the_embedding_oracle(component, pos, y):
    x = Point(component, pos)
    assert metric(x, y) == embedding_metric(x, y)
    near = Point(y.component, pos)  # the same position on y's component
    assert metric(near, y) == embedding_metric(near, y)


@settings(max_examples=300, deadline=None)
@given(POINTS, POINTS, POINTS)
def test_metric_axioms_property(x, y, z):
    assert metric(x, y) == metric(y, x)
    assert (metric(x, y) == 0) == (x == y)
    assert metric(x, z) <= metric(x, y) + metric(y, z)


def test_cross_distance_is_one():
    rng = random.Random(23)
    for _ in range(100):
        s, t = rng.randint(-40, 40), rng.randint(-40, 40)
        assert metric(hat(s), check(t)) == 1


def test_parse_word_examples():
    assert parse_word("f") == FLIP
    assert parse_word("") == IDENTITY
    assert parse_word("s f s f") == GroupElement(2, (1, 2))


def test_parse_word_matches_sequential_action():
    # parsing then acting equals applying the tokens one by one, first first
    tokens = "s f S S f s f".split()
    parsed = parse_word(" ".join(tokens))
    gens = {"f": FLIP, "s": SIGMA, "S": inverse(SIGMA)}
    for s in range(-5, 6):
        for point in (hat(s), check(s)):
            stepped = point
            for token in tokens:
                stepped = act(gens[token], stepped)
            assert act(parsed, point) == stepped


def test_parse_word_rejects_unknown_token():
    with pytest.raises(WordParseError):
        parse_word("s q")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["f", "s", "S"]), max_size=40),
    st.one_of(st.none(), st.tuples(st.integers(0, 40), st.sampled_from(["F", "q", "ff", "s,", "1"]))),
    st.sampled_from([" ", "\t", " \n "]),
)
def test_parse_word_is_the_fold_of_compose(tokens, stray, separator):
    """The same element as composing token by token, or the same error on an unknown token."""
    if stray is not None:
        tokens.insert(*stray)
    word = separator.join(tokens)
    outcomes = []
    for parse in (parse_word, fold_word):
        try:
            outcomes.append(parse(word))
        except WordParseError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_parse_word_is_linear_in_the_word():
    """8,000 "s f" pairs parse far inside a second (a fold of ``compose``
    re-sorts the growing flip support at every token: about 8 s on a
    2-vCPU Xeon)."""
    start = time.perf_counter()
    g = parse_word(" ".join(["s f"] * 8000))
    assert time.perf_counter() - start < 1
    assert g == GroupElement(8000, tuple(range(1, 8001)))


def test_word_roundtrip():
    rng = random.Random(29)
    for _ in range(100):
        g = random_element(rng)
        assert parse_word(word_of(g)) == g


def test_point_validation():
    with pytest.raises(ValueError):
        Point("hat", 1.5)
    with pytest.raises(ValueError):
        Point("middle", 0)
    assert Point("hat", INF).is_infinite()


def test_element_validation():
    with pytest.raises(ValueError):
        GroupElement(0, (2, 1))
    with pytest.raises(ValueError):
        GroupElement(0, (1, 1))


def test_serialization_roundtrip():
    g = GroupElement(-2, (-4, 0, 3))
    assert GroupElement.from_dict(g.to_dict()) == g
    for p in (hat(3), check(-1), INF_HAT):
        assert Point.from_dict(p.to_dict()) == p


@settings(max_examples=200, deadline=None)
@given(ELEMENTS, POINTS)
def test_json_round_trips_property(g, x):
    assert GroupElement.from_dict(json.loads(json.dumps(g.to_dict()))) == g
    assert Point.from_dict(json.loads(json.dumps(x.to_dict()))) == x


@pytest.mark.parametrize(
    "raw",
    [
        {"shift": True, "flips": [False]},
        {"shift": 1, "flips": [True]},
        {"shift": 1.0, "flips": []},
        {"shift": "1", "flips": []},
        {"shift": 0, "flips": [0.5]},
        {"shift": 0, "flips": [[1]]},
        {"shift": 0, "flips": 3},
        {"shift": 0, "flips": "12"},
        {"shift": 0},
        {"flips": []},
    ],
)
def test_element_from_dict_refuses_non_integers(raw):
    with pytest.raises(ValueError):
        GroupElement.from_dict(raw)
