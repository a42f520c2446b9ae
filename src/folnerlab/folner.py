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

Rate, box and explicit sets share one protocol (``FolnerSet``): ``size``,
``shifts()``, ``balance(position)``, ``left_share(g)`` and
``right_share(g)`` (the kept shares |gF & F|/|F| and |Fg & F|/|F| as
exact fractions), ``materialize()`` and ``to_dict()``.  The base class
enumerates ``materialize()``, and each kind overrides what it counts.
Only an explicit set holds its ``elements``; the rate and box kinds
build theirs in ``materialize()``, under their size guards.  The
module-level ``left_defect``, ``right_defect`` and ``flip_balance`` work
on any kind through the protocol.  Sets of interesting size are never
materialized, and a rate set's defects never build its 2^(#free)
free-position factor or its 4^n selection words: the kept share is
counted in window units, one stay count per XOR mask, each a sum over
the threshold intervals of the selection section and the aligned dyadic
blocks that tile them (see ``RateFolner.stay_count``).  The enumeration
runs below the size guards and must agree with the counting paths exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GuardViolation, HorizonExhausted
from .exact import exact, is_integer
from .lamplighter import IDENTITY, GroupElement, compose, word_of

#: Largest n for which a rate set may be materialized (|F_4| is ~5.5e8).
MATERIALIZE_MAX_N = 3
#: Largest box (interval length) that may be materialized.
BOX_MATERIALIZE_MAX = 22
#: Largest box width whose size width 2^width is built: 4,300 digits at 14,270
#: positions, and at 14,271 one past the 4,300 Python converts to a string.
BOX_SIZE_MAX_WIDTH = 14_270
#: Largest n for which rate-set defects are counted.  One stay count costs
#: O(n^2) integer steps; the CLI ``folner defect --preset r-decay --n 64
#: --g "f s s f S S f"`` takes about 0.8 s on a 2-core Xeon.
COUNT_MAX_N = 64
#: Largest n whose rate-set size is built: |F_12| has 2,464 decimal digits,
#: |F_13| 4,929, past the 4,300 Python converts to a string by default.
SIZE_MAX_N = 12
#: Largest n whose rate-set balances are built: a window balance c_l / 4^n
#: has 4^n as denominator when c_l is odd, and 4^7142 has 4,300 decimal
#: digits, 4^7143 4,301.
BALANCE_MAX_N = 7142
#: Search horizon (members inspected per family) when interleaving.
INTERLEAVE_HORIZON = 16


def _to_rate(value) -> Fraction:
    v = exact(value)
    if not 0 <= v <= 1:
        raise ValueError(f"rate value {value!r} outside [0, 1]")
    return v


def _to_position(key) -> int:
    """A window key as an integer position: an int, or its decimal string."""
    if is_integer(key):
        return key
    if isinstance(key, str) and key.isascii() and key.removeprefix("-").isdecimal():
        return int(key)
    raise ValueError(f"rate window key {key!r} is not an integer position")


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
        items = tuple(sorted((_to_position(k), _to_rate(v)) for k, v in (window or {}).items()))
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
            return RateSequence.constant(key.split(":", 1)[1])
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
        """Exact fraction strings, so ``from_dict(to_dict(r)) == r``."""
        return {
            "default": str(self.default),
            "window": {str(k): str(v) for k, v in self.window},
        }

    @staticmethod
    def from_dict(raw: dict) -> "RateSequence":
        if not isinstance(raw, dict) or not raw.keys() <= {"default", "window"}:
            raise ValueError(f"a rate mapping holds only 'default' and 'window', got {raw!r}")
        if not isinstance(raw.get("window", {}), dict):
            raise ValueError(f"a rate window must be an object of position: value, got {raw['window']!r}")
        return RateSequence.make(raw.get("default", 0), raw.get("window", {}))


@dataclass(frozen=True)
class FolnerSet:
    """A finite set of group elements with a provenance recipe.

    Every kind provides ``size``, ``shifts()`` (the shift range when the
    set is a shift range times a support family, else None) and
    ``materialize()``, its elements (guarded for the rate and box kinds).
    ``balance(position)``, ``left_share(g)`` and ``right_share(g)``
    (|gF & F|/|F| and |Fg & F|/|F|) enumerate ``materialize()`` unless the
    kind counts them.  ``recipe`` is serialization metadata only.
    """

    recipe: tuple[tuple[str, str], ...] = field(default=(), kw_only=True)

    def balance(self, position: int) -> Fraction:
        elements = self.materialize()
        return Fraction(sum(position in g.flips for g in elements), len(elements))

    def left_share(self, g: GroupElement) -> Fraction:
        elements = set(self.materialize())
        return Fraction(len(elements & {compose(g, h) for h in elements}), len(elements))

    def right_share(self, g: GroupElement) -> Fraction:
        elements = set(self.materialize())
        return Fraction(len(elements & {compose(h, g) for h in elements}), len(elements))

    def to_dict(self) -> dict:
        return {"recipe": dict(self.recipe), "size": self.size}


def _sorted_elements(elements: Iterable[GroupElement]) -> tuple[GroupElement, ...]:
    return tuple(sorted(set(elements), key=lambda g: (g.shift, g.flips)))


@dataclass(frozen=True)
class RateFolner(FolnerSet):
    """The n-th rate set: shifts in [-2^n, 2^n] times the flip supports,
    the strictly increasing tuples in [-2^n, 2^n] whose restriction to the
    window [-2n, 2n] is one of the 4^n selection-padded words; positions
    outside the window are free.

    Window words and flip masks are packed into ints, bit l + 2n for
    position l: word j + 1 is its section over [-n, n] with the low n bits
    of j below it and the high n above it.
    """

    rate: RateSequence
    n: int
    #: How many words stay in the family after XOR with a mask, by mask.
    _stays: dict[int, int] = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def cardinality(self) -> int:
        """The number of flip supports: 4^n window words times 2^(#free),
        #free = 2(2^n - 2n); guarded at n <= SIZE_MAX_N, since it has
        about 2^(n+1) bits."""
        if self.n > SIZE_MAX_N:
            raise GuardViolation(
                f"rate-set sizes are built only for n <= {SIZE_MAX_N} (|F_{SIZE_MAX_N}| has "
                f"2,464 digits; |F_n| has about 2^(n+1) bits), got n={self.n}"
            )
        return 4**self.n * 2 ** (2 * (2**self.n - 2 * self.n))

    @property
    def size(self) -> int:
        return (2 ** (self.n + 1) + 1) * self.cardinality

    def shifts(self) -> range:
        return range(-(2**self.n), 2**self.n + 1)

    def threshold(self, position: int) -> int:
        """c_l = ceil(r_l 4^n): word k sets window bit l (|l| <= n) iff k-1 < c_l."""
        r = self.rate.value(position)
        return -(-r.numerator * 4**self.n // r.denominator)

    def _sections(self) -> Iterator[tuple[int, int, int]]:
        """(start, end, section) for each nonempty j-interval on which the
        packed section bits of word j + 1 are constant, in increasing j.

        Sweeping j upward through the sorted thresholds clears one section
        bit at each, so the sections strictly shrink and are distinct.
        """
        n = self.n
        ends = sorted((self.threshold(l), 1 << (l + 2 * n)) for l in range(-n, n + 1))
        section, start = sum(bit for _, bit in ends), 0
        for end, bit in ends + [(4**n, 0)]:
            if end > start:
                yield start, end, section
                start = end
            section ^= bit

    @cached_property
    def _tiling(self) -> tuple[dict[int, tuple[int, int]], tuple[tuple[int, tuple], ...]]:
        """The section intervals by section, and each interval's section with
        the aligned dyadic blocks (start, length) that tile it."""
        where, tiling = {}, []
        for start, end, section in self._sections():
            where[section] = (start, end)
            blocks = []
            while start < end:
                # The longest block aligned at start that fits before end.
                align = (start & -start) or end
                size = 1 << min(align.bit_length(), (end - start).bit_length()) - 1
                blocks.append((start, size))
                start += size
            tiling.append((section, tuple(blocks)))
        return where, tuple(tiling)

    def stay_count(self, mask: int) -> int:
        """How many window words remain in the family after XOR with mask.

        Word j + 1 is the bits of j as padding plus section(j), which is
        constant on each interval A of the ``_tiling``.  With p the mask's
        padding read as bits of j and m its section part, word j + 1 stays
        iff section(j ^ p) = section(j) ^ m.  The sections are distinct,
        so on A that asks j ^ p to lie in the one interval B whose section
        is section(A) ^ m, if there is one.  XOR with p maps an aligned
        dyadic block of A onto an aligned dyadic block of the same length,
        so each block adds one interval overlap: O(n^2) integer steps per
        mask over the at most 2n + 2 intervals of 4n blocks each.
        """
        n = self.n
        if n > COUNT_MAX_N:
            raise GuardViolation(
                f"rate-set defects are counted only for n <= {COUNT_MAX_N}, got {n}"
            )
        if not mask:
            return 4**n
        if mask not in self._stays:
            pad = (mask & (1 << n) - 1) | (mask >> 3 * n + 1) << n
            flip = mask & ((1 << 2 * n + 1) - 1) << n
            where, tiling = self._tiling
            total = 0
            for section, blocks in tiling:
                target = where.get(section ^ flip)
                if target is None:
                    continue
                low, high = target
                for start, size in blocks:
                    image = (start ^ pad) & -size
                    if image < high and image + size > low:
                        total += min(image + size, high) - max(image, low)
            self._stays[mask] = total
        return self._stays[mask]

    def balance(self, position: int) -> Fraction:
        """Exact fraction of supports containing the given position: c_l / 4^n
        inside [-n, n], one half on the padding and the free positions.
        Guarded at n <= BALANCE_MAX_N, the largest n whose balances print."""
        if self.n > BALANCE_MAX_N:
            raise GuardViolation(
                f"rate-set balances are built only for n <= {BALANCE_MAX_N} (a balance c/4^n past it "
                f"can have more than 4,300 digits, the most Python prints), got n={self.n}"
            )
        if abs(position) <= self.n:
            return Fraction(self.threshold(position), 4**self.n)
        return Fraction(1, 2) if abs(position) <= 2**self.n else Fraction(0)

    def _window_mask(self, positions: Iterable[int]) -> int:
        """The flips at the given positions that land in the window, packed
        like the words; flips at free positions keep every support."""
        w = 2 * self.n
        return sum(1 << (p + w) for p in positions if abs(p) <= w)

    def left_share(self, g: GroupElement) -> Fraction:
        """|gF & F| / |F|, counted in window units: shift a of F keeps
        stay_count(mask) of its 4^n words, and the 2^(#free) factor cancels.

        The admissible shifts (a + g.shift and every flip d + a inside the
        bound) form one interval [lo, hi].  Only the shifts that move a
        flip into the window give a nonzero mask; the rest keep 4^n each.
        """
        bound, w = 2**self.n, 2 * self.n
        whole = self.stay_count(0)  # 4^n; also the counting guard
        flips = g.flips
        lo = max(-bound, -bound - g.shift, -bound - min(flips, default=0))
        hi = min(bound, bound - g.shift, bound - max(flips, default=0))
        near = {a for d in flips for a in range(max(lo, -w - d), min(hi, w - d) + 1)}
        kept = max(0, hi - lo + 1 - len(near)) * whole + sum(
            self.stay_count(self._window_mask(d + a for d in flips)) for a in near
        )
        return Fraction(kept, (2 * bound + 1) * whole)

    def right_share(self, g: GroupElement) -> Fraction:
        """Counted for pure flips; a shifted g needs enumeration (guarded)."""
        if g.shift != 0:
            return super().right_share(g)
        whole = self.stay_count(0)  # 4^n; also the counting guard
        if any(abs(d) > 2**self.n for d in g.flips):
            return Fraction(0)
        return Fraction(self.stay_count(self._window_mask(g.flips)), whole)

    def materialize(self) -> tuple[GroupElement, ...]:
        """Every element: each window word with every subset of the free
        positions as a support, at every shift."""
        n, b, w = self.n, 2**self.n, 2 * self.n
        if n > MATERIALIZE_MAX_N:
            raise GuardViolation(f"rate sets materialize only for n <= {MATERIALIZE_MAX_N}, got n={n}")
        free = tuple(itertools.chain(range(-b, -w), range(w + 1, b + 1)))
        words = (
            (j & (1 << n) - 1) | (j >> n) << 3 * n + 1 | section
            for start, end, section in self._sections()
            for j in range(start, end)
        )
        supports = [
            tuple(sorted([l for l in range(-w, w + 1) if word >> (l + w) & 1] + list(extra)))
            for word in words
            for r in range(len(free) + 1)
            for extra in itertools.combinations(free, r)
        ]
        shifts = self.shifts()
        return _sorted_elements(GroupElement(a, flips) for flips in supports for a in shifts)


@dataclass(frozen=True)
class BoxFolner(FolnerSet):
    """All elements whose shift and flip support lie in [low, high]."""

    low: int
    high: int

    @property
    def width(self) -> int:
        return self.high - self.low + 1

    @property
    def size(self) -> int:
        if self.width > BOX_SIZE_MAX_WIDTH:
            raise GuardViolation(f"box sizes are built only up to width {BOX_SIZE_MAX_WIDTH}, got {self.width}")
        return self.width * 2**self.width

    def shifts(self) -> range:
        return range(self.low, self.high + 1)

    def balance(self, position: int) -> Fraction:
        return Fraction(1, 2) if self.low <= position <= self.high else Fraction(0)

    def left_share(self, g: GroupElement) -> Fraction:
        # Shift a keeps all its supports iff a + t is in the box for t = 0, g.shift and each flip.
        offsets, width = (0, g.shift, *g.flips), self.width
        return Fraction(max(0, width - max(offsets) + min(offsets)), width)

    def right_share(self, g: GroupElement) -> Fraction:
        s, box, width = g.shift, self.shifts(), self.width
        if any(d not in box and d - s not in box for d in g.flips):
            return Fraction(0)
        stable = max(0, width - abs(s))
        # |Fg & F| = stable 2^stable (shifts a with a + s in the box, each with the supports that
        # match g.flips where q + s leaves the box) out of |F| = width 2^width.
        return Fraction(stable, width * 2 ** (width - stable))

    def materialize(self) -> tuple[GroupElement, ...]:
        box = self.shifts()
        if self.width > BOX_MATERIALIZE_MAX:
            raise GuardViolation(f"box sets materialize only for |box| <= {BOX_MATERIALIZE_MAX}")
        return _sorted_elements(
            GroupElement(a, flips)
            for a in box
            for r in range(len(box) + 1)
            for flips in itertools.combinations(box, r)
        )


@dataclass(frozen=True)
class ExplicitFolner(FolnerSet):
    """A set given by its elements; every count enumerates them."""

    elements: tuple[GroupElement, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def shifts(self) -> None:
        return None

    def materialize(self) -> tuple[GroupElement, ...]:
        return self.elements

    def to_dict(self) -> dict:
        return super().to_dict() | {"elements": [g.to_dict() for g in self.elements]}


def rate_folner(rate: RateSequence, n: int) -> RateFolner:
    """The n-th rate set: shifts in [-2^n, 2^n], supports from the family."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return RateFolner(rate, n, recipe=(("kind", "rate"), ("n", str(n)), ("rate", repr(rate.to_dict()))))


def box_folner(low: int, high: int) -> BoxFolner:
    """All elements whose shift and flip support lie in [low, high]."""
    if low > high:
        raise ValueError(f"a box needs low <= high, got {low} > {high}")
    return BoxFolner(low, high, recipe=(("kind", "box"), ("low", str(low)), ("high", str(high))))


def explicit_folner(elements: Iterable[GroupElement]) -> ExplicitFolner:
    elems = _sorted_elements(elements)
    if not elems:
        raise ValueError("a Folner set must be non-empty")
    return ExplicitFolner(elems, recipe=(("kind", "explicit"),))


def flip_balance(folner: FolnerSet, position: int) -> Fraction:
    """Exact fraction of elements whose flip support contains the position."""
    return folner.balance(position)


def left_defect(folner: FolnerSet, g: GroupElement) -> Fraction:
    """Exact |gF ^ F| / |F| = 2 |gF \\ F| / |F|, ^ the symmetric difference."""
    if g == IDENTITY:
        return Fraction(0)
    # |gF| = |F|, so |gF ^ F| / |F| = 2 |gF \ F| / |F| = 2 (1 - |gF & F| / |F|).
    return 2 * (1 - folner.left_share(g))


def right_defect(folner: FolnerSet, g: GroupElement) -> Fraction:
    """Exact |Fg ^ F| / |F| = 2 |Fg \\ F| / |F|, ^ the symmetric difference."""
    if g == IDENTITY:
        return Fraction(0)
    return 2 * (1 - folner.right_share(g))


def translate_folner(
    sets: Sequence[FolnerSet], translations: Sequence[GroupElement]
) -> list[FolnerSet]:
    """Right-translate the n-th set by the n-th element (cardinalities kept)."""
    if len(sets) != len(translations):
        raise ValueError("need one translation per set")
    out = []
    for folner, g in zip(sets, translations):
        elems = tuple(compose(h, g) for h in folner.materialize())
        translated = explicit_folner(elems)
        if len(elems) != folner.size:
            raise AssertionError("translation must preserve cardinality")
        out.append(
            replace(
                translated,
                recipe=(("kind", "translated"), ("by", word_of(g)), ("source", repr(dict(folner.recipe)))),
            )
        )
    return out


def interleave_folner(
    families: Sequence[Callable[[int], FolnerSet]],
    schedule: Sequence[int],
    test_elements: Sequence[Sequence[GroupElement]],
) -> list[FolnerSet]:
    """Pick, for each slot n, a member of family schedule[n-1] whose left
    defect against every test element is at most 1/n.

    The search inspects members 0 to INTERLEAVE_HORIZON - 1 of the family
    (errors a family raises propagate) and fails loudly if none qualifies.
    """
    if len(schedule) != len(test_elements):
        raise ValueError("need one test set per schedule slot")
    chosen = []
    for slot, (family_index, tests) in enumerate(zip(schedule, test_elements), start=1):
        family = families[family_index]
        bound = Fraction(1, slot)
        for member_index in range(INTERLEAVE_HORIZON):
            member = family(member_index)
            worst = max((left_defect(member, g) for g in tests), default=Fraction(0))
            if worst <= bound:
                recipe = (
                    ("kind", "interleaved"),
                    ("family", str(family_index)),
                    ("member", str(member_index)),
                    ("certified_defect", str(worst)),
                )
                chosen.append(replace(member, recipe=recipe))
                break
        else:
            raise HorizonExhausted(
                f"slot {slot}: no member of family {family_index} within the first "
                f"{INTERLEAVE_HORIZON} reaches defect {bound}"
            )
    return chosen
