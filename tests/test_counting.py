"""The polynomial stay count of rate sets against the listed words, and
certified defects far past the word listing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import brute_defect, packed_words, word_stay_count
from test_folner import _rates

from folnerlab.errors import GuardViolation
from folnerlab.folner import (
    COUNT_MAX_N,
    RateFolner,
    RateSequence,
    flip_balance,
    left_defect,
    rate_folner,
    right_defect,
)
from folnerlab.lamplighter import FLIP, SIGMA, SIGMA_INV, GroupElement, inverse, parse_word

DECAY, SPLIT = RateSequence.decay(), RateSequence.split()


@settings(max_examples=60, deadline=None)
@given(_rates, st.integers(1, 5), st.data())
def test_stay_count_matches_the_word_scan(rate, n, data):
    folner = rate_folner(rate, n)
    masks = data.draw(st.lists(st.integers(0, 2 ** (4 * n + 1) - 1), min_size=1, max_size=4))
    # Differences of two words keep at least one word each, so the
    # interval-to-interval overlaps are exercised, not only empty targets.
    words = sorted(packed_words(folner))
    word = st.sampled_from(words)
    pairs = data.draw(st.lists(st.tuples(word, word), max_size=4))
    for mask in masks + [u ^ v for u, v in pairs]:
        assert folner.stay_count(mask) == word_stay_count(folner, mask)


_elements = st.builds(
    lambda shift, flips: GroupElement(shift, tuple(sorted(flips))),
    st.integers(-6, 6),
    st.sets(st.integers(-6, 6), max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(_rates, st.integers(1, 2), _elements)
def test_defects_match_the_materialized_sets(rate, n, g):
    folner = rate_folner(rate, n)
    assert left_defect(folner, g) == brute_defect(folner, g, "left")
    assert right_defect(folner, g) == brute_defect(folner, g, "right")


@pytest.mark.parametrize(
    "rate, n",
    [(DECAY, 20), (DECAY, 32), (DECAY, 64), (SPLIT, 32)],
    ids=["decay-20", "decay-32", "decay-64", "split-32"],
)
def test_certified_defects_far_past_the_word_listing(rate, n):
    folner = rate_folner(rate, n)
    shift_defect = Fraction(2, 2 ** (n + 1) + 1)
    assert left_defect(folner, SIGMA) == shift_defect
    assert left_defect(folner, SIGMA_INV) == shift_defect
    assert right_defect(folner, FLIP) == 2
    # Two flips and three shifts: subadditivity bounds the defect of g.
    g = parse_word("f s f S S")
    bound = 2 * left_defect(folner, FLIP) + 3 * shift_defect
    assert 0 < left_defect(folner, g) == left_defect(folner, inverse(g)) <= bound
    for l in range(-n, n + 1):
        assert abs(flip_balance(folner, l) - rate.value(l)) <= Fraction(1, 4**n)


def test_counting_guard_sits_at_the_count_limit():
    left_defect(rate_folner(DECAY, COUNT_MAX_N), SIGMA)
    with pytest.raises(GuardViolation, match=f"n <= {COUNT_MAX_N}"):
        left_defect(rate_folner(DECAY, COUNT_MAX_N + 1), SIGMA)
    with pytest.raises(GuardViolation):
        right_defect(rate_folner(DECAY, COUNT_MAX_N + 1), FLIP)


def test_counting_never_lists_the_words(monkeypatch):
    def refuse(self):
        raise AssertionError("counting listed the selection words")

    monkeypatch.setattr(RateFolner, "materialize", refuse)
    # The counting workload's words: generators, a word and its inverse, and a product.
    g, h = parse_word("f s S f s"), parse_word("S f f s")
    elements = [SIGMA, SIGMA_INV, FLIP, g, inverse(g), h, parse_word("S f f s f s S f s")]
    n = 7
    for preset in ("const:1/2", "decay", "split"):
        folner = rate_folner(RateSequence.from_preset(preset), n)
        s, big_s, _, dg, dg_inv, dh, dhg = [left_defect(folner, x) for x in elements]
        assert s == big_s == Fraction(2, 2 ** (n + 1) + 1)
        assert dg == dg_inv
        assert dhg <= dg + dh
        assert right_defect(folner, FLIP) == 2
        assert all(0 <= flip_balance(folner, l) <= 1 for l in range(-n, n + 1))
