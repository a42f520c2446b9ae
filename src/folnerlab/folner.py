"""Folner-set constructions for the lamplighter group, with exact counting.

Two families are provided.  The *rate* family, indexed by n and a rate
sequence r with values in [0, 1], puts the shift in [-2^n, 2^n] and draws
the flip support from tuples whose restriction to the window [-2n, 2n]
extends one of 2^(2n) "selection" words; the middle section of each word
tracks thresholds of r so the fraction of supports containing a position
l in [-n, n] lands within 2^(-2n) of r_l.  These sets are left Folner but
never right Folner (a flip at a window position moves the whole set off
itself).  The *box* family takes all shifts and all flip supports inside
one finite interval; it balances every in-box flip position exactly at 1/2.

Sets of interesting size are never materialized: cardinalities, defects
|gF \\ F| and flip balances are computed by counting over the 2^(2n)
selection words only, as exact rationals.  Enumeration paths exist below
the size guards and must agree with the counting paths exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GuardViolation, HorizonExhausted
from .lamplighter import IDENTITY, GroupElement, compose, word_of

#: Largest n for which a rate set may be materialized (|F_4| is ~5.5e8).
MATERIALIZE_MAX_N = 3
#: Largest box (interval length) that may be materialized.
BOX_MATERIALIZE_MAX = 22
#: Largest n for which counting over selection words is attempted (4^n words).
COUNT_MAX_N = 10
#: Default search horizon (members inspected per family) when interleaving.
INTERLEAVE_HORIZON = 16


def _to_rate(value) -> Fraction:
    v = Fraction(repr(value)) if isinstance(value, float) else Fraction(value)
    if not 0 <= v <= 1:
        raise ValueError(f"rate value {value!r} outside [0, 1]")
    return v


@dataclass(frozen=True)
class RateSequence:
    """A [0, 1]-valued sequence: explicit values on a finite window, a
    constant default outside it."""

    default: Fraction
    window: tuple[tuple[int, Fraction], ...] = ()
    #: ``window`` as a dict, built once per instance for ``value``.
    _lookup: dict[int, Fraction] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_lookup", dict(self.window))

    @staticmethod
    def make(default, window=None) -> "RateSequence":
        items = tuple(sorted((int(k), _to_rate(v)) for k, v in (window or {}).items()))
        return RateSequence(_to_rate(default), items)

    @staticmethod
    def constant(value) -> "RateSequence":
        return RateSequence.make(value)

    @staticmethod
    def decay(width: int = 128) -> "RateSequence":
        """r_l = 1/(|l|+2) on the window, 0 beyond: continuous, nowhere 0/1."""
        return RateSequence.make(0, {l: Fraction(1, abs(l) + 2) for l in range(-width, width + 1)})

    @staticmethod
    def split(width: int = 128) -> "RateSequence":
        """r_l = 0 for l < 0 and 1/(l+2) for l >= 0 (0 beyond the window)."""
        return RateSequence.make(0, {l: Fraction(1, l + 2) for l in range(0, width + 1)})

    @staticmethod
    def from_preset(name: str) -> "RateSequence":
        key = name.removeprefix("r-")
        if key.startswith("const:"):
            return RateSequence.constant(Fraction(key.split(":", 1)[1]))
        if key == "zero":
            return RateSequence.constant(0)
        if key == "decay":
            return RateSequence.decay()
        if key == "split":
            return RateSequence.split()
        raise ValueError(f"unknown rate preset {name!r}")

    def value(self, position: int) -> Fraction:
        return self._lookup.get(position, self.default)

    def to_dict(self) -> dict:
        return {
            "default": float(self.default),
            "window": {str(k): float(v) for k, v in self.window},
        }

    @staticmethod
    def from_dict(raw: dict) -> "RateSequence":
        return RateSequence.make(raw.get("default", 0), raw.get("window", {}))


def selection_word(rate: RateSequence, n: int, k: int) -> tuple[int, ...]:
    """The k-th threshold word over positions -n..n: bit l is 1 iff
    0 < r_l - (k-1) 2^(-2n) <= 1."""
    if not 1 <= k <= 4**n:
        raise ValueError(f"k={k} outside 1..{4 ** n}")
    offset = Fraction(k - 1, 4**n)
    return tuple(int(0 < rate.value(l) - offset <= 1) for l in range(-n, n + 1))


def word_family(rate: RateSequence, n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^(2n) words over the window -2n..2n: selection word in the
    middle, the bits of k-1 (little-endian, 2n of them) split around it."""
    words = []
    for k in range(1, 4**n + 1):
        pad = [(k - 1) >> i & 1 for i in range(2 * n)]
        words.append(tuple(pad[:n]) + selection_word(rate, n, k) + tuple(pad[n:]))
    return tuple(words)


@lru_cache(maxsize=None)
def _encoded_words(rate: RateSequence, n: int) -> frozenset[int]:
    """word_family packed into ints; bit index of window position l is l + 2n."""
    if n > COUNT_MAX_N:
        raise GuardViolation(f"selection-word counting supports n <= {COUNT_MAX_N}, got {n}")
    encoded = set()
    for word in word_family(rate, n):
        encoded.add(sum(bit << i for i, bit in enumerate(word)))
    if len(encoded) != 4**n:
        raise AssertionError("selection words must be pairwise distinct")
    return frozenset(encoded)


@lru_cache(maxsize=None)
def _stay_count(rate: RateSequence, n: int, mask: int) -> int:
    """How many window words remain in the family after XOR with mask."""
    if mask == 0:
        return 4**n
    words = _encoded_words(rate, n)
    return sum((u ^ mask) in words for u in words)


def _ones_count(rate: RateSequence, n: int, position: int) -> int:
    """How many window words have bit 1 at the given window position.

    Inside the threshold section [-n, n] the bit is 1 for exactly
    ceil(r * 4^n) of the 4^n words; in the enumeration padding each bit is
    set for exactly half of them.
    """
    if abs(position) <= n:
        return math.ceil(rate.value(position) * 4**n)
    return 4**n // 2


@dataclass(frozen=True)
class SupportFamily:
    """The implicit family of flip supports for the rate construction:
    strictly increasing tuples in [-2^n, 2^n] whose window restriction
    matches one of the selection-padded words; positions outside the
    window are free."""

    rate: RateSequence
    n: int

    @property
    def bound(self) -> int:
        return 2**self.n

    @property
    def window_positions(self) -> range:
        return range(-2 * self.n, 2 * self.n + 1)

    @property
    def free_positions(self) -> tuple[int, ...]:
        b, w = self.bound, 2 * self.n
        return tuple(itertools.chain(range(-b, -w), range(w + 1, b + 1)))

    @property
    def cardinality(self) -> int:
        return 4**self.n * 2 ** len(self.free_positions)

    def contains_fraction(self, position: int) -> Fraction:
        """Exact fraction of supports containing the given position."""
        if abs(position) <= 2 * self.n:
            return Fraction(_ones_count(self.rate, self.n, position), 4**self.n)
        if abs(position) <= self.bound:
            return Fraction(1, 2)
        return Fraction(0)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        if self.n > MATERIALIZE_MAX_N:
            raise GuardViolation(
                f"support enumeration is guarded at n <= {MATERIALIZE_MAX_N}, got {self.n}"
            )
        free = self.free_positions
        for word in word_family(self.rate, self.n):
            fixed = [l for l, bit in zip(self.window_positions, word) if bit]
            for r in range(len(free) + 1):
                for extra in itertools.combinations(free, r):
                    yield tuple(sorted(fixed + list(extra)))


def support_family(rate: RateSequence, n: int) -> SupportFamily:
    if n < 1:
        raise ValueError("n must be a positive integer")
    return SupportFamily(rate, n)


@dataclass(frozen=True)
class FolnerSet:
    """A finite set of group elements with a provenance recipe.

    ``kind`` dispatches the computation: "rate" and "box" sets support
    counting paths without materialization; "explicit" sets carry their
    elements.  ``recipe`` is serialization metadata only.
    """

    kind: str
    size: int
    elements: tuple[GroupElement, ...] | None
    rate: RateSequence | None = None
    n: int | None = None
    box: tuple[int, ...] | None = None
    recipe: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        out = {"recipe": dict(self.recipe), "size": self.size}
        if self.elements is not None:
            out["elements"] = [g.to_dict() for g in self.elements]
        return out


def _sorted_elements(elements: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    return tuple(sorted(set(elements), key=lambda g: (g.shift, g.flips)))


def rate_folner(rate: RateSequence, n: int, materialize: bool = False) -> FolnerSet:
    """The n-th rate set: shifts in [-2^n, 2^n], supports from the family."""
    family = support_family(rate, n)
    size = (2 ** (n + 1) + 1) * family.cardinality
    recipe = (("kind", "rate"), ("n", str(n)), ("rate", repr(rate.to_dict())))
    out = FolnerSet("rate", size, None, rate=rate, n=n, recipe=recipe)
    if materialize:
        return replace(out, elements=enumerate_elements(out))
    return out


def box_folner(positions: Iterable[int], materialize: bool = False) -> FolnerSet:
    """All elements whose shift and flip support live inside one finite set."""
    box = tuple(sorted(set(int(p) for p in positions)))
    if not box:
        raise ValueError("box must be non-empty")
    size = len(box) * 2 ** len(box)
    recipe = (("kind", "box"), ("positions", repr(list(box))))
    out = FolnerSet("box", size, None, box=box, recipe=recipe)
    if materialize:
        return replace(out, elements=enumerate_elements(out))
    return out


def explicit_folner(elements: Iterable[GroupElement], note: str = "explicit") -> FolnerSet:
    elems = _sorted_elements(elements)
    if not elems:
        raise ValueError("a Folner set must be non-empty")
    return FolnerSet("explicit", len(elems), elems, recipe=(("kind", note),))


def enumerate_elements(folner: FolnerSet) -> tuple[GroupElement, ...]:
    """Materialize the elements (guarded for the implicit kinds)."""
    if folner.elements is not None:
        return folner.elements
    if folner.kind == "rate":
        if folner.n > MATERIALIZE_MAX_N:
            raise GuardViolation(
                f"rate sets materialize only for n <= {MATERIALIZE_MAX_N}, got n={folner.n}"
            )
        family = support_family(folner.rate, folner.n)
        bound = family.bound
        elems = [
            GroupElement(a, b)
            for b in family.tuples()
            for a in range(-bound, bound + 1)
        ]
        return _sorted_elements(elems)
    if folner.kind == "box":
        if len(folner.box) > BOX_MATERIALIZE_MAX:
            raise GuardViolation(
                f"box sets materialize only for |box| <= {BOX_MATERIALIZE_MAX}"
            )
        elems = []
        for a in folner.box:
            for r in range(len(folner.box) + 1):
                for flips in itertools.combinations(folner.box, r):
                    elems.append(GroupElement(a, flips))
        return _sorted_elements(elems)
    raise GuardViolation(f"cannot enumerate a {folner.kind!r} set without elements")


def shift_range(folner: FolnerSet) -> tuple[int, ...]:
    """The multiset-free range of shifts (counting kinds only)."""
    if folner.kind == "rate":
        bound = 2**folner.n
        return tuple(range(-bound, bound + 1))
    if folner.kind == "box":
        return folner.box
    raise GuardViolation(f"shift range unavailable for kind {folner.kind!r}")


def flip_balance(folner: FolnerSet, position: int) -> Fraction:
    """Exact fraction of elements whose flip support contains the position."""
    if folner.kind == "rate":
        return support_family(folner.rate, folner.n).contains_fraction(position)
    if folner.kind == "box":
        return Fraction(1, 2) if position in folner.box else Fraction(0)
    elements = enumerate_elements(folner)
    return Fraction(sum(position in g.flips for g in elements), len(elements))


def _defect_from_intersection(size: int, intersection: int) -> Fraction:
    # |gF| = |F|, so |gF \ F| = 2 (|F| - |gF & F|).
    return Fraction(2 * (size - intersection), size)


def _rate_left_intersection(folner: FolnerSet, g: GroupElement) -> int:
    rate, n = folner.rate, folner.n
    bound, w = 2**n, 2 * n
    free_factor = 2 ** ((2 ** (n + 1) + 1) - (4 * n + 1))
    total = 0
    for a in range(-bound, bound + 1):
        if not -bound <= a + g.shift <= bound:
            continue
        shifted = [d + a for d in g.flips]
        if any(abs(p) > bound for p in shifted):
            continue
        mask = sum(1 << (p + w) for p in shifted if abs(p) <= w)
        total += _stay_count(rate, n, mask) * free_factor
    return total


def _rate_right_intersection(folner: FolnerSet, g: GroupElement) -> int | None:
    """Counting path for right translation; only pure flips are countable."""
    if g.shift != 0:
        return None
    rate, n = folner.rate, folner.n
    bound, w = 2**n, 2 * n
    if any(abs(d) > bound for d in g.flips):
        return 0
    mask = sum(1 << (d + w) for d in g.flips if abs(d) <= w)
    free_factor = 2 ** ((2 ** (n + 1) + 1) - (4 * n + 1))
    return (2 * bound + 1) * _stay_count(rate, n, mask) * free_factor


def _box_left_intersection(box: tuple[int, ...], g: GroupElement) -> int:
    members = set(box)
    good = sum(
        1
        for a in box
        if a + g.shift in members and all(d + a in members for d in g.flips)
    )
    return good * 2 ** len(box)


def _box_right_intersection(box: tuple[int, ...], g: GroupElement) -> int:
    members = set(box)
    shifted = {q + g.shift for q in members}
    if any(d not in members and d not in shifted for d in g.flips):
        return 0
    stable = [q for q in box if q + g.shift in members]
    return len(stable) * 2 ** len(stable)


def _enumerated_intersection(folner: FolnerSet, g: GroupElement, side: str) -> int:
    elements = set(enumerate_elements(folner))
    if side == "left":
        translated = {compose(g, h) for h in elements}
    else:
        translated = {compose(h, g) for h in elements}
    return len(elements & translated)


def left_defect(folner: FolnerSet, g: GroupElement) -> Fraction:
    """Exact |gF \\ F| / |F|."""
    if g == IDENTITY:
        return Fraction(0)
    if folner.kind == "rate":
        return _defect_from_intersection(folner.size, _rate_left_intersection(folner, g))
    if folner.kind == "box":
        return _defect_from_intersection(folner.size, _box_left_intersection(folner.box, g))
    return _defect_from_intersection(folner.size, _enumerated_intersection(folner, g, "left"))


def right_defect(folner: FolnerSet, g: GroupElement) -> Fraction:
    """Exact |Fg \\ F| / |F|."""
    if g == IDENTITY:
        return Fraction(0)
    if folner.kind == "rate":
        counted = _rate_right_intersection(folner, g)
        if counted is None:
            if folner.n > MATERIALIZE_MAX_N:
                raise GuardViolation(
                    "right translation by a shifted element needs enumeration; "
                    f"n={folner.n} exceeds the materialization guard"
                )
            counted = _enumerated_intersection(folner, g, "right")
        return _defect_from_intersection(folner.size, counted)
    if folner.kind == "box":
        return _defect_from_intersection(folner.size, _box_right_intersection(folner.box, g))
    return _defect_from_intersection(folner.size, _enumerated_intersection(folner, g, "right"))


def defect_by_enumeration(folner: FolnerSet, g: GroupElement, side: str = "left") -> Fraction:
    """Reference path: symmetric difference of materialized sets."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _defect_from_intersection(folner.size, _enumerated_intersection(folner, g, side))


def translate_folner(
    sets: Sequence[FolnerSet], translations: Sequence[GroupElement]
) -> list[FolnerSet]:
    """Right-translate the n-th set by the n-th element (cardinalities kept)."""
    if len(sets) != len(translations):
        raise ValueError("need one translation per set")
    out = []
    for folner, g in zip(sets, translations):
        elems = tuple(compose(h, g) for h in enumerate_elements(folner))
        translated = explicit_folner(elems, note="translated")
        if len(elems) != folner.size:
            raise AssertionError("translation must preserve cardinality")
        out.append(
            replace(
                translated,
                recipe=(("kind", "translated"), ("by", word_of(g)), ("source", repr(dict(folner.recipe)))),
            )
        )
    return out


def union_folner(sets: Sequence[FolnerSet]) -> FolnerSet:
    """Explicit union (plumbing for monotone/exhausting repairs)."""
    elems: list[GroupElement] = []
    for folner in sets:
        elems.extend(enumerate_elements(folner))
    return explicit_folner(elems, note="union")


def interleave_folner(
    families: Sequence[Sequence[FolnerSet] | Callable[[int], FolnerSet]],
    schedule: Sequence[int],
    test_elements: Sequence[Sequence[GroupElement]],
    target: Callable[[int], Fraction] | None = None,
    horizon: int = INTERLEAVE_HORIZON,
) -> list[FolnerSet]:
    """Pick, for each slot n, a member of family schedule[n-1] whose left
    defect against every test element is at most target(n) (default 1/n).

    The search inspects at most ``horizon`` members per slot and fails
    loudly if none qualifies.
    """
    if len(schedule) != len(test_elements):
        raise ValueError("need one test set per schedule slot")
    target = target or (lambda n: Fraction(1, n))
    chosen = []
    for slot, (family_index, tests) in enumerate(zip(schedule, test_elements), start=1):
        family = families[family_index]
        bound = target(slot)
        picked = None
        for member_index in range(horizon):
            try:
                member = family(member_index) if callable(family) else family[member_index]
            except IndexError:
                break
            worst = max((left_defect(member, g) for g in tests), default=Fraction(0))
            if worst <= bound:
                picked = replace(
                    member,
                    recipe=(
                        ("kind", "interleaved"),
                        ("family", str(family_index)),
                        ("member", str(member_index)),
                        ("certified_defect", str(worst)),
                    ),
                )
                break
        if picked is None:
            raise HorizonExhausted(
                f"slot {slot}: no member of family {family_index} within the first "
                f"{horizon} reaches defect {bound}"
            )
        chosen.append(picked)
    return chosen
