"""Reference computations made apart from folnerlab.

Every value the benchmark checks is recomputed here from its formula or by
a direct algorithm: the metric of the doubled line, the rate presets, the
Folner closed forms, the two-atom limit transport as a fractional knapsack,
assignment by permutation brute force, PL uniform distance and matching
by an iterative augmenting-path search.  Nothing here imports folnerlab,
so a fault in the program cannot hide in the reference.

Points are pairs ``(component, pos)`` with ``pos`` an int or ``math.inf``;
PL maps are tuples of ``(x, y)`` Fraction breakpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

HAT, CHECK = "hat", "check"
#: Width of the explicit window of the ``decay`` and ``split`` presets.
PRESET_WIDTH = 128


class Checks:
    """Counts checked operations and keeps a message for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def equal(self, got, want, what: str) -> None:
        self.expect(got == want, f"{what}: got {got!r}, expected {want!r}")

    @property
    def failed(self) -> int:
        return len(self.failures)


# ------------------------------------------------------------ lamplighter

def other(component: str) -> str:
    return CHECK if component == HAT else HAT


def _embed(pos) -> tuple[Fraction, Fraction]:
    if pos == math.inf:
        return Fraction(0), Fraction(0)
    sign = (pos > 0) - (pos < 0)
    return Fraction(1, 1 + abs(pos)), Fraction(sign, 1 + abs(pos))


def distance(p, q) -> Fraction:
    """1 across components, a quarter of the l1 distance of the planar
    embeddings (both tails converging to the origin) within one."""
    if p[0] != q[0]:
        return Fraction(1)
    (a0, a1), (b0, b1) = _embed(p[1]), _embed(q[1])
    return (abs(a0 - b0) + abs(a1 - b1)) / 4


def act(shift: int, flips, point):
    """Image of a point under the element (shift, flips)."""
    component, pos = point
    if pos == math.inf:
        return point
    return (other(component) if pos in flips else component, pos - shift)


def invert_word(word: str) -> str:
    """The generator word of the inverse element (f is an involution)."""
    swap = {"s": "S", "S": "s", "f": "f"}
    return " ".join(swap[t] for t in reversed(word.split()))


# ------------------------------------------------------------------ rates

def rate(preset: str, position: int) -> Fraction:
    """r_l of a rate preset, from its definition."""
    if preset.startswith("const:"):
        return Fraction(preset.split(":", 1)[1])
    if preset == "zero":
        return Fraction(0)
    if preset == "decay":
        return Fraction(1, abs(position) + 2) if abs(position) <= PRESET_WIDTH else Fraction(0)
    if preset == "split":
        return Fraction(1, position + 2) if 0 <= position <= PRESET_WIDTH else Fraction(0)
    raise ValueError(f"unknown preset {preset!r}")


def selection_balance(r: Fraction, n: int) -> Fraction:
    """ceil(r 4^n) / 4^n: the share of threshold words with the bit set."""
    scale = 4**n
    return Fraction(-(-r.numerator * scale // r.denominator), scale)


def rate_set_balance(preset: str, n: int, position: int) -> Fraction:
    """Share of the n-th rate set whose flip support holds the position."""
    if abs(position) <= n:
        return selection_balance(rate(preset, position), n)
    if abs(position) <= 2**n:
        return Fraction(1, 2)
    return Fraction(0)


def shift_defect(n: int) -> Fraction:
    """|sF \\ F| / |F| for the n-th rate set: one shift column of 2^(n+1)+1
    leaves the set and the defect counts it twice."""
    return Fraction(2, 2 ** (n + 1) + 1)


def tau_bound(n: int) -> Fraction:
    """The paper's tolerance for the n-th genericity distance."""
    m = math.isqrt(2**n)
    if m * m < 2**n:
        m += 1
    shifts = 2 ** (n + 1) + 1
    return Fraction(1, 4**n) + Fraction(2 * m + 1, 4 * shifts) + Fraction(1, 2 * (1 + m))


# ---------------------------------------------------------------- measures

def rate_set_empirical(preset: str, n: int, point) -> dict:
    """Uniform average over the n-th rate set of point masses at g.x."""
    component, pos = point
    toggled = rate_set_balance(preset, n, pos)
    shifts = range(-(2**n), 2**n + 1)
    weight = Fraction(1, len(shifts))
    out: dict = {}
    for a in shifts:
        for c, share in ((component, 1 - toggled), (other(component), toggled)):
            if share:
                key = (c, pos - a)
                out[key] = out.get(key, 0) + share * weight
    return out


def explicit_empirical(elements, point) -> dict:
    """Uniform average of point masses at g.x over explicit (shift, flips)."""
    weight = Fraction(1, len(elements))
    out: dict = {}
    for shift, flips in elements:
        key = act(shift, flips, point)
        out[key] = out.get(key, 0) + weight
    return out


def limit_masses(preset: str, point) -> dict:
    """Two-atom limit at a finite point: the far component gets r_b."""
    r = rate(preset, point[1])
    far = r if point[0] == HAT else 1 - r
    return {(HAT, math.inf): 1 - far, (CHECK, math.inf): far}


def knapsack_to_two_atoms(source: dict, target: dict) -> Fraction:
    """Exact transport from any measure to a two-atom one.

    Sending mass x_i of atom i to the first target atom and the rest to
    the second costs sum a_i c_i2 + sum x_i (c_i1 - c_i2); with sum x_i
    fixed, the cheapest fill takes atoms by increasing c_i1 - c_i2.
    """
    (t1, m1), (t2, _) = sorted(target.items())
    base = Fraction(0)
    gains = []
    for p, mass in source.items():
        c1, c2 = distance(p, t1), distance(p, t2)
        base += mass * c2
        gains.append((c1 - c2, mass))
    gains.sort()
    left, total = m1, base
    for gain, mass in gains:
        take = min(mass, left)
        total += take * gain
        left -= take
        if left == 0:
            break
    return total


def brute_assignment(costs) -> Fraction:
    """Minimum average cost over all permutations."""
    n = len(costs)
    best = min(sum((costs[i][p[i]] for i in range(n)), Fraction(0)) for p in permutations(range(n)))
    return best / n


def marginals(flows) -> tuple[dict, dict]:
    rows: dict = {}
    cols: dict = {}
    for i, j, mass in flows:
        rows[i] = rows.get(i, 0) + mass
        cols[j] = cols.get(j, 0) + mass
    return rows, cols


# ------------------------------------------------------------------- homeo

def pl_eval(breakpoints, t: Fraction) -> Fraction:
    for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:]):
        if t <= x1:
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
    raise ValueError(f"{t} outside [0, 1]")


def sup_distance(f, g) -> Fraction:
    """max |f - g| over [0, 1]; a PL difference peaks at a breakpoint."""
    grid = sorted({x for x, _ in f} | {x for x, _ in g})
    return max(abs(pl_eval(f, t) - pl_eval(g, t)) for t in grid)


def max_matching(adjacency, right_size: int) -> int:
    """Maximum bipartite matching by breadth-first augmenting paths."""
    match_left = [-1] * len(adjacency)
    match_right = [-1] * right_size
    size = 0
    for root in range(len(adjacency)):
        reached_from = [-1] * right_size
        queue, end = [root], -1
        for i in queue:
            for j in adjacency[i]:
                if reached_from[j] != -1:
                    continue
                reached_from[j] = i
                if match_right[j] == -1:
                    end = j
                    break
                queue.append(match_right[j])
            if end != -1:
                break
        while end != -1:
            i = reached_from[end]
            match_right[end], match_left[i], end = i, end, match_left[i]
        if match_left[root] != -1:
            size += 1
    return size


def radius_between(distances) -> Fraction:
    """A radius that admits exactly the pairs at or below the median of the
    column minima, so some right members have a partner and some need not."""
    columns = list(zip(*distances))
    minima = sorted(min(col) for col in columns)
    cut = minima[len(minima) // 2]
    above = [d for row in distances for d in row if d > cut]
    return (cut + min(above)) / 2 if above else cut + 1
