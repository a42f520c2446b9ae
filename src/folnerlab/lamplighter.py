"""Exact arithmetic for the lamplighter group acting on a doubled integer line.

The space consists of two copies ("hat" and "check") of ``Z + {infinity}``,
each carrying the one-point-compactification topology.  The group is
generated by the transposition ``f`` of the two origins and the shift
``sigma``; every element is kept in the canonical form

    (shift a, flip support b_1 < ... < b_k)

meaning ``sigma^a . f_{b_k} . ... . f_{b_1}`` where ``f_b`` swaps the two
copies of position ``b``.  All operations are pure and exact: positions are
integers (with ``math.inf`` as the point at infinity) and distances are
``fractions.Fraction`` values.  The metric has one form, its integer cost
block (``metric.integer_block``), and ``metric(x, y)`` is that block's one
cell for x and y; no Fraction embedding of the line is kept beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import WordParseError
from .exact import is_integer

INF = math.inf
HAT = "hat"
CHECK = "check"


@dataclass(frozen=True)
class Point:
    """A point (component, position) with position an integer or infinity."""

    component: str
    pos: int | float

    def __post_init__(self):
        if self.component not in (HAT, CHECK):
            raise ValueError(f"unknown component {self.component!r}")
        if not (isinstance(self.pos, int) or self.pos == INF):
            raise ValueError(f"position must be an integer or infinity, got {self.pos!r}")

    def is_infinite(self) -> bool:
        return self.pos == INF

    def to_dict(self) -> dict:
        return {"component": self.component, "pos": "inf" if self.is_infinite() else self.pos}

    @staticmethod
    def from_dict(raw: dict) -> "Point":
        if "component" not in raw or "pos" not in raw:
            raise ValueError(f"a point needs 'component' and 'pos', got {raw!r}")
        pos = raw["pos"]
        if pos == "inf":
            pos = INF
        elif not is_integer(pos):
            raise ValueError(f"position must be an integer or 'inf', got {pos!r}")
        return Point(raw["component"], pos)


def hat(pos: int | float) -> Point:
    return Point(HAT, pos)


def check(pos: int | float) -> Point:
    return Point(CHECK, pos)


INF_HAT = hat(INF)
INF_CHECK = check(INF)


@dataclass(frozen=True)
class GroupElement:
    """Canonical pair (shift, strictly increasing flip support)."""

    shift: int
    flips: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.shift, int):
            raise ValueError("shift must be an integer")
        if any(not isinstance(b, int) for b in self.flips):
            raise ValueError("flips must be integers")
        if any(self.flips[i] >= self.flips[i + 1] for i in range(len(self.flips) - 1)):
            raise ValueError("flips must be strictly increasing")

    def to_dict(self) -> dict:
        return {"shift": self.shift, "flips": list(self.flips)}

    @staticmethod
    def from_dict(raw: dict) -> "GroupElement":
        if "shift" not in raw or "flips" not in raw:
            raise ValueError(f"an element needs 'shift' and 'flips', got {raw!r}")
        shift, flips = raw["shift"], raw["flips"]
        if not isinstance(flips, (list, tuple)) or not all(map(is_integer, (shift, *flips))):
            raise ValueError(f"shift and flips must be integers, got {raw!r}")
        return GroupElement(shift, tuple(flips))


IDENTITY = GroupElement(0, ())
FLIP = GroupElement(0, (0,))       # the transposition of the two origins
SIGMA = GroupElement(1, ())        # the coordinate shift
SIGMA_INV = GroupElement(-1, ())


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Canonical form of g . h (h acts first).

    The flip supports combine by symmetric difference after translating
    g's support by h's shift; this encodes ``f_b . sigma^a = sigma^a . f_{a+b}``
    together with every flip being an involution.
    """
    translated = {b + h.shift for b in g.flips}
    return GroupElement(g.shift + h.shift, tuple(sorted(translated.symmetric_difference(h.flips))))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(-g.shift, tuple(b - g.shift for b in g.flips))


def other(component: str) -> str:
    """The component that a flip swaps with ``component``."""
    return CHECK if component == HAT else HAT


def act(g: GroupElement, x: Point) -> Point:
    """Apply g to x: infinity is fixed within its component; a finite
    position toggles component iff it lies in g's flip support, then shifts."""
    if x.is_infinite():
        return x
    return Point(other(x.component) if x.pos in g.flips else x.component, x.pos - g.shift)


def metric(x: Point, y: Point) -> Fraction:
    """Distance on the doubled line: the one cell of ``metric.integer_block``
    for x and y, whose docstring gives the formula, computed alone."""
    lcm = math.lcm(_denominator(x), _denominator(y))
    scale = 4 * lcm
    return Fraction(_cell(_scaled(x, lcm), _scaled(y, lcm), scale), scale)


def _denominator(p: Point) -> int:
    """d = 1 + |pos| of a finite point, 1 at an end (which needs no scale)."""
    return 1 if p.pos == INF else 1 + abs(p.pos)


def _scaled(p: Point, lcm: int) -> tuple[str, int, int]:
    """(component, k, s k): lcm times p's planar embedding, k = lcm/d."""
    if p.pos == INF:
        return p.component, 0, 0
    k = lcm // _denominator(p)
    return p.component, k, k if p.pos > 0 else -k if p.pos < 0 else 0


def _cell(a: tuple[str, int, int], b: tuple[str, int, int], scale: int) -> int:
    """The distance between two scaled points, times the scale."""
    return abs(a[1] - b[1]) + abs(a[2] - b[2]) if a[0] == b[0] else scale


def _integer_block(sources, targets) -> tuple[list[list[int]], int]:
    """The distance from every source (row) to every target (column) as
    integers over one scale: (rows, scale), with rows[i][j] / scale the
    distance from sources[i] to targets[j].

    The metric is a quarter of the l1 distance of the planar embeddings
    (1/d, s/d), d = 1 + |pos|, s = sign(pos), with the ends at (0, 0).
    With L the lcm of d over the finite points of both lists, L times an
    embedding is the integer pair (k, s k), k = L/d, so over the scale 4 L
    a cell within a component is |k_a - k_b| + |s_a k_a - s_b k_b| and a
    cell across components is the scale itself."""
    lcm = math.lcm(*{_denominator(p) for p in (*sources, *targets)})
    scale = 4 * lcm
    cols = [_scaled(q, lcm) for q in targets]
    return [[_cell(a, b, scale) for b in cols] for a in (_scaled(p, lcm) for p in sources)], scale


metric.integer_block = _integer_block


_TOKENS = {"f": FLIP, "s": SIGMA, "S": SIGMA_INV}


def parse_word(word: str) -> GroupElement:
    """Fold a whitespace-separated generator word into canonical form.

    Tokens are listed in the order they are applied: ``"s f"`` means
    shift first, then flip, i.e. the element f . sigma = (1, {0}).
    As in ``compose``, each token's flips move by the shift so far, so the
    word folds in one pass to a shift and a flip set, sorted once at the end.
    """
    shift, flips = 0, set()
    for token in word.split():
        if token not in _TOKENS:
            raise WordParseError(f"unknown token {token!r}; expected one of f, s, S")
        flips ^= {b + shift for b in _TOKENS[token].flips}
        shift += _TOKENS[token].shift
    return GroupElement(shift, tuple(sorted(flips)))


def word_of(g: GroupElement) -> str:
    """A generator word (in application order) that parses back to g."""
    tokens: list[str] = []
    for b in g.flips:
        conj = ["s"] * b if b >= 0 else ["S"] * (-b)
        tokens += conj + ["f"] + (["S"] * b if b >= 0 else ["s"] * (-b))
    tokens += ["s"] * g.shift if g.shift >= 0 else ["S"] * (-g.shift)
    return " ".join(tokens)
