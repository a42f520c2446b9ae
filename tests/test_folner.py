"""Folner families: selection words, cardinalities, defects, balances."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_defect, packed_words, selection_word, word_family

from folnerlab.errors import GuardViolation, HorizonExhausted
from folnerlab.folner import (
    INTERLEAVE_HORIZON,
    RateSequence,
    box_folner,
    explicit_folner,
    flip_balance,
    interleave_folner,
    left_defect,
    rate_folner,
    right_defect,
    translate_folner,
)
from folnerlab.lamplighter import (
    FLIP,
    IDENTITY,
    SIGMA,
    SIGMA_INV,
    GroupElement,
    act,
    check,
    hat,
    parse_word,
)

HALF = RateSequence.constant(Fraction(1, 2))
ZERO = RateSequence.constant(0)
PRESETS = [ZERO, HALF, RateSequence.decay(), RateSequence.split()]


def test_selection_word_examples():
    assert selection_word(HALF, 1, 1) == (1, 1, 1)
    assert selection_word(HALF, 1, 3) == (0, 0, 0)
    for n in (1, 2):
        for k in (1, 4**n):
            assert selection_word(ZERO, n, k) == (0,) * (2 * n + 1)
    with pytest.raises(ValueError):
        selection_word(HALF, 1, 5)


def test_word_family_shape():
    for rate in PRESETS:
        for n in (1, 2):
            words = word_family(rate, n)
            assert len(words) == 4**n
            assert all(len(w) == 4 * n + 1 for w in words)
            assert len(set(words)) == len(words)


def test_word_family_zero_rate_structure():
    # middle three bits all zero, outer bits enumerate {0,1}^2
    words = word_family(ZERO, 1)
    assert all(w[1:4] == (0, 0, 0) for w in words)
    assert {(w[0], w[4]) for w in words} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _supports(folner) -> set:
    return {g.flips for g in folner.materialize()}


def test_support_family_cardinalities():
    for rate in PRESETS:
        family = {1: 4, 2: 16, 3: 1024}
        for n, expected in family.items():
            folner = rate_folner(rate, n)
            assert folner.cardinality == expected
            elements = folner.materialize()
            assert len(elements) == folner.size
            assert len({g.flips for g in elements}) == expected


def test_support_extends_defining_property():
    words = set(word_family(HALF, 1))
    for entry in _supports(rate_folner(HALF, 1)):
        restricted = tuple(int(l in entry) for l in range(-2, 3))
        assert restricted in words


def test_support_contains_example():
    folner = rate_folner(HALF, 1)
    containing = [b for b in _supports(folner) if 0 in b]
    assert len(containing) == 2
    assert folner.balance(0) == Fraction(1, 2)


def test_contains_fraction_matches_enumeration():
    for rate in PRESETS:
        for n in (1, 2, 3):
            folner = rate_folner(rate, n)
            entries = _supports(folner)
            for position in range(-(2**n), 2**n + 1):
                counted = sum(position in b for b in entries)
                assert folner.balance(position) == Fraction(counted, len(entries))


def test_selection_ratio_bound():
    # |fraction of supports containing l0 - r_l0| <= 2^(-2n), exactly
    for rate in PRESETS:
        for n in (1, 2, 3):
            folner = rate_folner(rate, n)
            for l0 in range(-n, n + 1):
                gap = abs(folner.balance(l0) - rate.value(l0))
                assert gap <= Fraction(1, 4**n)


def test_rate_folner_sizes():
    assert rate_folner(HALF, 1).size == 20
    assert rate_folner(HALF, 3).size == 17 * 1024
    elements = rate_folner(HALF, 1).materialize()
    assert len(elements) == 20
    assert all(abs(g.shift) <= 2 and all(abs(b) <= 2 for b in g.flips) for g in elements)


def test_rate_folner_materialize_guard():
    with pytest.raises(GuardViolation):
        rate_folner(HALF, 4).materialize()


def test_box_materialize_guard():
    with pytest.raises(GuardViolation):
        box_folner(0, 22).materialize()


def test_box_folner_examples():
    assert set(box_folner(0, 0).materialize()) == {GroupElement(0, ()), GroupElement(0, (0,))}
    assert box_folner(-2, 2).size == 5 * 32
    for low, high in ((0, 1), (-1, 1), (2, 7)):
        assert (IDENTITY in box_folner(low, high).materialize()) == (low <= 0 <= high)


def test_left_defect_sigma_closed_form():
    for rate in (ZERO, HALF):
        for n in range(1, 9):
            folner = rate_folner(rate, n)
            assert left_defect(folner, SIGMA) == Fraction(2, 2 ** (n + 1) + 1)
            assert left_defect(folner, SIGMA_INV) == Fraction(2, 2 ** (n + 1) + 1)


def test_left_defect_identity():
    assert left_defect(rate_folner(HALF, 2), IDENTITY) == 0
    assert right_defect(box_folner(-1, 1), IDENTITY) == 0


def test_left_defect_flip_against_enumeration():
    # brute-force symmetric difference is the oracle for the counting path
    for rate in PRESETS:
        for n in (1, 2):
            folner = rate_folner(rate, n)
            for g in (FLIP, SIGMA, GroupElement(0, (2,)), parse_word("s f"), parse_word("S f s")):
                assert left_defect(folner, g) == brute_defect(folner, g, "left")
                assert right_defect(folner, g) == brute_defect(folner, g, "right")


def test_counting_fuzz_random_rates():
    # the counting formulas must agree with brute-force set algebra for
    # arbitrary rate windows, not just the presets
    rng = random.Random(424242)
    for _ in range(50):
        window = {rng.randint(-6, 6): Fraction(rng.randint(0, 8), 8) for _ in range(rng.randint(0, 8))}
        rate = RateSequence.make(Fraction(rng.randint(0, 4), 4), window)
        n = rng.randint(1, 2)
        folner = rate_folner(rate, n)
        flips = tuple(sorted(rng.sample(range(-(2**n) - 2, 2**n + 3), rng.randint(0, 3))))
        g = GroupElement(rng.randint(-(2**n) - 2, 2**n + 2), flips)
        assert left_defect(folner, g) == brute_defect(folner, g, "left")
        if g.shift == 0:
            assert right_defect(folner, g) == brute_defect(folner, g, "right")
        position = rng.randint(-(2**n) - 1, 2**n + 1)
        entries = _supports(folner)
        assert folner.balance(position) == Fraction(
            sum(position in b for b in entries), len(entries)
        )


def test_counting_matches_enumeration_n3():
    folner = rate_folner(HALF, 3)
    for g in (SIGMA, FLIP, GroupElement(0, (7,))):
        assert left_defect(folner, g) == brute_defect(folner, g, "left")
    assert right_defect(folner, FLIP) == brute_defect(folner, FLIP, "right")


def test_left_defect_nonincreasing_for_generators():
    for g in (SIGMA, SIGMA_INV, FLIP):
        values = [left_defect(rate_folner(ZERO, n), g) for n in (2, 3, 4)]
        assert values[0] >= values[1] >= values[2]


def test_right_defect_window_flip_is_two():
    for b in (0, 1, -1):
        for n in range(max(abs(b) + 1, 1), 6):
            assert right_defect(rate_folner(HALF, n), GroupElement(0, (b,))) == 2


def test_right_defect_free_zone_flip_is_zero():
    # positions between the window and the bound leave the family invariant
    assert right_defect(rate_folner(HALF, 3), GroupElement(0, (7,))) == 0
    assert right_defect(rate_folner(HALF, 3), GroupElement(0, (-8,))) == 0


def test_right_defect_out_of_bounds_flip():
    assert right_defect(rate_folner(HALF, 2), GroupElement(0, (9,))) == 2


def test_box_defect_formulas_against_enumeration():
    for low, high in ((0, 0), (-1, 1), (2, 3)):
        folner = box_folner(low, high)
        for g in (SIGMA, FLIP, GroupElement(0, (1,)), parse_word("s f"), parse_word("S S f")):
            assert left_defect(folner, g) == brute_defect(folner, g, "left")
            assert right_defect(folner, g) == brute_defect(folner, g, "right")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(0, 4),
    st.integers(-7, 7),
    st.lists(st.integers(-8, 8), unique=True, max_size=4),
)
def test_box_defects_in_closed_form_match_enumeration(low, extra, shift, flips):
    # shifts past the width and flips outside the box included
    folner = box_folner(low, low + extra)
    g = GroupElement(shift, tuple(sorted(flips)))
    assert left_defect(folner, g) == brute_defect(folner, g, "left")
    assert right_defect(folner, g) == brute_defect(folner, g, "right")


def test_box_right_defect_flip_zero():
    for n in range(1, 5):
        assert right_defect(box_folner(-n, n), FLIP) == 0


def test_flip_balance():
    for n in (1, 2, 3):
        assert abs(flip_balance(rate_folner(HALF, n), 0) - Fraction(1, 2)) <= Fraction(1, 4**n)
        assert flip_balance(rate_folner(ZERO, n), 0) == 0
        box = box_folner(-n, n)
        for b in range(-n, n + 1):
            assert flip_balance(box, b) == Fraction(1, 2)
        assert flip_balance(box, n + 1) == 0
    assert flip_balance(rate_folner(HALF, 2), 99) == 0


@pytest.mark.parametrize("key", ["x", "1.5", "", "+1", True])
def test_rate_window_keys_are_integer_positions(key):
    with pytest.raises(ValueError, match=re.escape(f"rate window key {key!r} is not an integer position")):
        RateSequence.make(0, {key: "1/2"})


def test_flip_balance_explicit():
    folner = explicit_folner([IDENTITY, FLIP, GroupElement(1, (0, 2))])
    assert flip_balance(folner, 0) == Fraction(2, 3)


def test_interleave_alternating():
    families = [lambda j: rate_folner(ZERO, j + 1), lambda j: rate_folner(HALF, j + 1)]
    schedule = [0, 1, 0, 1]
    tests = [[SIGMA]] * 4
    chosen = interleave_folner(families, schedule, tests)
    assert [dict(f.recipe)["family"] for f in chosen] == ["0", "1", "0", "1"]
    for slot, folner in enumerate(chosen, start=1):
        assert max(left_defect(folner, g) for g in [SIGMA]) <= Fraction(1, slot)


def test_interleave_identity_tests_take_first_member():
    chosen = interleave_folner([lambda j: rate_folner(HALF, j + 1)], [0, 0], [[IDENTITY], [IDENTITY]])
    assert all(dict(f.recipe)["member"] == "0" for f in chosen)


def test_interleave_horizon_exhausted():
    # defect against sigma stays 2/5 in a constant family: slots 1 and 2
    # (targets 1 and 1/2) take member 0, and slot 3 (target 1/3) finds none
    inspected = []

    def family(index):
        inspected.append(index)
        return rate_folner(HALF, 1)

    with pytest.raises(HorizonExhausted, match="slot 3"):
        interleave_folner([family], [0, 0, 0], [[SIGMA]] * 3)
    assert inspected == [0, 0, *range(INTERLEAVE_HORIZON)]


def test_interleave_callable_errors_propagate():
    def family(index):
        if index == 1:
            raise IndexError("broken family member")
        return rate_folner(HALF, 1)

    # member 0 serves slots 1 and 2; slot 3 (target 1/3 < 2/5) asks for member 1
    with pytest.raises(IndexError, match="broken family member"):
        interleave_folner([family], [0, 0, 0], [[SIGMA]] * 3)


def test_translate_identity_keeps_sets():
    sets = [rate_folner(HALF, n) for n in (1, 2)]
    translated = translate_folner(sets, [IDENTITY, IDENTITY])
    for before, after in zip(sets, translated):
        assert set(before.materialize()) == set(after.elements)


def test_translate_preserves_left_defects():
    rng = random.Random(3)
    sets = [rate_folner(HALF, n) for n in (1, 2)]
    translations = [GroupElement(1, (0,)), GroupElement(-2, (1, 3))]
    translated = translate_folner(sets, translations)
    for before, after in zip(sets, translated):
        assert after.size == before.size
        for g in (SIGMA, FLIP, GroupElement(rng.randint(-2, 2), (0,))):
            assert left_defect(after, g) == brute_defect(before, g, "left")


def test_translate_repel_example():
    # g_n = f_n . sigma^(-n) sends the hat origin to the check point at n
    from folnerlab.lamplighter import compose

    for n in (1, 2, 3):
        g = compose(GroupElement(0, (n,)), GroupElement(-n, ()))
        assert g == GroupElement(-n, (0,))
        assert act(g, hat(0)) == check(n)


def test_rate_presets():
    assert RateSequence.from_preset("r-const:0.5").value(3) == Fraction(1, 2)
    assert RateSequence.from_preset("r-zero").value(-7) == 0
    assert RateSequence.from_preset("decay").value(2) == Fraction(1, 4)
    split = RateSequence.from_preset("r-split")
    assert split.value(-1) == 0
    assert split.value(0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        RateSequence.from_preset("r-bogus")
    with pytest.raises(ValueError):
        RateSequence.constant(1.5)


def test_folner_serialization():
    folner = rate_folner(HALF, 1)
    assert folner.to_dict() == {"recipe": dict(folner.recipe), "size": 20}
    payload = explicit_folner(folner.materialize()).to_dict()
    assert payload["size"] == 20
    assert len(payload["elements"]) == 20


def _packed(word) -> int:
    return sum(bit << i for i, bit in enumerate(word))


_fractions = st.fractions(min_value=0, max_value=1, max_denominator=300)
_rates = st.builds(
    RateSequence.make,
    _fractions,
    st.dictionaries(st.integers(-6, 6), _fractions, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(_rates, st.integers(1, 4))
def test_integer_words_match_the_fraction_definition(rate, n):
    words = packed_words(rate_folner(rate, n))
    assert len(words) == 4**n
    assert words == {_packed(w) for w in word_family(rate, n)}


@settings(max_examples=20, deadline=None)
@given(
    _rates,
    st.integers(1, 3),
    st.integers(-10, 10),
    st.lists(st.integers(-10, 10), unique=True, max_size=3).map(sorted).map(tuple),
)
def test_counted_shares_match_the_base_enumeration(rate, n, shift, flips):
    # An explicit set answers through FolnerSet's enumeration; a rate set counts.
    folner = rate_folner(rate, n)
    enumerated = explicit_folner(folner.materialize())
    g, pure = GroupElement(shift, flips), GroupElement(0, flips)
    assert folner.left_share(g) == enumerated.left_share(g)
    assert folner.right_share(pure) == enumerated.right_share(pure)
    assert folner.balance(shift) == enumerated.balance(shift)


@settings(max_examples=100, deadline=None)
@given(_rates)
def test_rate_dict_round_trip(rate):
    assert RateSequence.from_dict(rate.to_dict()) == rate
    assert RateSequence.from_dict(json.loads(json.dumps(rate.to_dict()))) == rate


def test_rate_dict_is_exact():
    third = RateSequence.make(Fraction(1, 3), {-1: 0.1, 2: "2/7"})
    assert third.to_dict() == {"default": "1/3", "window": {"-1": "1/10", "2": "2/7"}}
    assert RateSequence.from_dict(third.to_dict()) == third
