"""Finitely supported measures and exact optimal transport.

The Wasserstein distance between two finitely supported probability
measures is computed as an exact minimum-cost transportation plan
(simplex on the transportation polytope with Bland pivoting, which onto
two target atoms starts at the optimal fractional-knapsack fill).  The
permutation form over a finite group set is solved by an exact
shortest-augmenting-path assignment; at every finite size the two agree
(Birkhoff), which the test suite checks against both a factorial brute
force and a basis-enumeration oracle.

Both kernels scale their rational inputs to integers at entry (costs by
the lcm of their denominators, masses by the lcm of theirs), run on
Python ``int`` and divide back at exit, so results stay exact and no
``Fraction`` is built inside a pivot or augmenting loop.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .errors import GuardViolation, LipschitzViolation, MetricOracleError
from .exact import exact
from . import lamplighter
from .folner import FolnerSet, enumerate_elements

#: Largest group set accepted by the assignment solver.
ASSIGNMENT_GUARD = 4096


def _checked_cost(dist, x, y) -> Fraction:
    value = dist(x, y)
    try:
        cost = exact(value)
    except ValueError as exc:
        raise MetricOracleError(f"metric returned {value!r} at ({x!r}, {y!r})") from exc
    if cost < 0:
        raise MetricOracleError(f"metric returned negative value {value!r}")
    return cost


def cost_matrix(sources: Sequence, targets: Sequence, dist: Callable) -> list[list[Fraction]]:
    """Exact costs dist(p, q) for every source p (row) and target q (column)."""
    return [[_checked_cost(dist, p, q) for q in targets] for p in sources]


@dataclass(frozen=True)
class DiscreteMeasure:
    """A probability measure with finitely many atoms (duplicates merged).
    ``from_pairs`` requires the masses to sum to exactly 1."""

    atoms: tuple[tuple[Hashable, Fraction], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Hashable, object]]) -> "DiscreteMeasure":
        merged: dict[Hashable, Fraction] = {}
        for point, mass in pairs:
            m = exact(mass)
            if m < 0:
                raise ValueError(f"negative mass {mass!r}")
            if m > 0:
                merged[point] = merged.get(point, Fraction(0)) + m
        if not merged:
            raise ValueError("a measure needs at least one atom of positive mass")
        total = sum(merged.values())
        if total != 1:
            raise ValueError(f"masses sum to {total}, not 1")
        return DiscreteMeasure(tuple(merged.items()))

    @staticmethod
    def point_mass(point: Hashable) -> "DiscreteMeasure":
        return DiscreteMeasure(((point, Fraction(1)),))

    @staticmethod
    def uniform(points: Sequence[Hashable]) -> "DiscreteMeasure":
        n = len(points)
        return DiscreteMeasure.from_pairs((p, Fraction(1, n)) for p in points)

    def integrate(self, f: Callable) -> Fraction:
        return sum((mass * exact(f(point)) for point, mass in self.atoms), Fraction(0))

    def support(self) -> tuple[Hashable, ...]:
        return tuple(point for point, _ in self.atoms)

    def mass_where(self, predicate: Callable[[Hashable], bool]) -> Fraction:
        return sum((mass for point, mass in self.atoms if predicate(point)), Fraction(0))


@dataclass(frozen=True)
class TransportPlan:
    """Flows (source index, target index, mass) between two atom lists."""

    flows: tuple[tuple[int, int, Fraction], ...]

    def validate(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
        row = defaultdict(Fraction)
        col = defaultdict(Fraction)
        for i, j, mass in self.flows:
            if mass < 0:
                raise ValueError("negative flow")
            row[i] += mass
            col[j] += mass
        for i, (_, mass) in enumerate(mu.atoms):
            if row[i] != mass:
                raise ValueError(f"row marginal {i} is {row[i]}, expected {mass}")
        for j, (_, mass) in enumerate(nu.atoms):
            if col[j] != mass:
                raise ValueError(f"column marginal {j} is {col[j]}, expected {mass}")

    def cost(self, costs: Sequence[Sequence[Fraction]]) -> Fraction:
        return sum((mass * costs[i][j] for i, j, mass in self.flows), Fraction(0))


def _integer_scaled(values) -> tuple[list[int], int]:
    """Integers proportional to the rationals in ``values``, and the common
    denominator (their lcm) that divides them back."""
    fractions = [Fraction(x) for x in values]
    scale = math.lcm(*(x.denominator for x in fractions))
    return [x.numerator * (scale // x.denominator) for x in fractions], scale


def _integer_costs(costs) -> tuple[list[list[int]], int]:
    """A cost matrix as integers over one common denominator."""
    width = len(costs[0]) if costs else 0
    flat, scale = _integer_scaled([c for row in costs for c in row])
    return [flat[k * width : (k + 1) * width] for k in range(len(costs))], scale


def _entering_cell(cost, pot, m):
    """Bland's entering cell: the first cell in row-major order whose
    reduced cost c_ij - u_i - v_j is negative, or None at an optimum."""
    v = pot[m:]
    for i, row in enumerate(cost):
        ui = pot[i]
        for j, c in enumerate(row):
            if c - ui < v[j]:
                return i, j
    return None


def _start_basis(rs, rd, cost) -> dict[tuple[int, int], int]:
    """The north-west corner start tree as {cell: flow}, m + n - 1 cells,
    some maybe 0.  With two columns the corner walks the rows by
    (c_i0 - c_i1, i): the knapsack fill, optimal because the row that
    closes column 0 and opens column 1 has a difference between theirs."""
    m, n = len(rs), len(rd)
    rows = sorted(range(m), key=lambda i: (cost[i][0] - cost[i][1], i)) if n == 2 else range(m)
    flow: dict[tuple[int, int], int] = {}
    k = j = 0
    while True:
        i = rows[k]
        q = min(rs[i], rd[j])
        flow[i, j] = q
        rs[i] -= q
        rd[j] -= q
        if k == m - 1 and j == n - 1:
            return flow
        if rs[i] == 0 and k < m - 1:
            k += 1
        else:
            j += 1


def transportation_plan(supplies, demands, costs):
    """Exact minimum-cost transportation: ``_start_basis``, then simplex
    pivots with Bland's rule (first negative reduced cost enters, smallest
    tied minus-cell leaves).  Returns (value, flows dict).  Two columns
    start at the knapsack fill, ties by row index, so no pivot runs.

    The solve runs on integer-scaled costs and masses; positive scaling
    keeps every comparison, so the pivots are those of the rational
    problem.  The basis is a spanning tree on rows 0..m-1 and columns
    m..m+n-1, hung from row 0 with parent links and depths.  Each pivot
    re-hangs only the subtree the leaving cell cuts off from row 0; its
    potentials, recomputed from the tree equations, shift by the entering
    cell's reduced cost, and no other potential moves.
    """
    m, n = len(supplies), len(demands)
    cost, cost_scale = _integer_costs(costs)
    masses, mass_scale = _integer_scaled([*supplies, *demands])
    flow = _start_basis(masses[:m], masses[m:], cost)
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for i, j in flow:
        adj[i].add(m + j)
        adj[m + j].add(i)

    pot = [0] * (m + n)  # u_i at node i, v_j at node m + j
    parent = [-1] * (m + n)
    depth = [0] * (m + n)

    def hang(node: int, above: int) -> None:
        """Hang the component of ``node`` (apart from ``above``) below
        ``above``; its potentials follow from u_i + v_j = c_ij."""
        parent[node] = above
        stack = [node]
        while stack:
            x = stack.pop()
            p = parent[x]
            depth[x] = depth[p] + 1
            pot[x] = (cost[x][p - m] if x < m else cost[p][x - m]) - pot[p]
            for y in adj[x]:
                if y != p:
                    parent[y] = x
                    stack.append(y)

    for y in adj[0]:
        hang(y, 0)

    def cell(x: int) -> tuple[int, int]:
        """The basic cell joining node x to its parent."""
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    cap = 200 + 30 * m * n
    for _ in range(cap):
        entering = _entering_cell(cost, pot, m)
        if entering is None:
            break
        ie, je = entering
        # Walk both ends of the entering cell up to their common ancestor.
        # Along the cycle r_ie .. c_je the tree cells alternate -, +, -, ...,
        # so a cell is a minus cell when the walk crosses it from a row to a
        # column: below a row on the r_ie side, below a column on the c_je side.
        a, b = ie, m + je
        a_side, b_side = [], []
        while a != b:
            if depth[a] >= depth[b]:
                a_side.append(a)
                a = parent[a]
            else:
                b_side.append(b)
                b = parent[b]
        minus = [cell(x) for x in a_side if x < m] + [cell(x) for x in b_side if x >= m]
        plus = [cell(x) for x in a_side if x >= m] + [cell(x) for x in b_side if x < m]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if flow[c] == theta)
        if theta:
            for c in minus:
                flow[c] -= theta
            for c in plus:
                flow[c] += theta
        flow[entering] = theta
        del flow[leaving]
        # The leaving cell's lower end roots the subtree cut off from row 0;
        # the end of the entering cell inside it hangs from the other end.
        li, lj = leaving
        lower = li if parent[li] == m + lj else m + lj
        adj[li].discard(m + lj)
        adj[m + lj].discard(li)
        adj[ie].add(m + je)
        adj[m + je].add(ie)
        if lower in a_side:
            hang(ie, m + je)
        else:
            hang(m + je, ie)
    else:
        raise AssertionError("transportation simplex failed to terminate")
    value = Fraction(sum(q * cost[i][j] for (i, j), q in flow.items()), cost_scale * mass_scale)
    return value, {c: Fraction(q, mass_scale) for c, q in flow.items() if q > 0}


def wasserstein(
    mu: DiscreteMeasure, nu: DiscreteMeasure, dist: Callable
) -> tuple[Fraction, TransportPlan]:
    """Exact optimal-transport distance and an optimal plan."""
    costs = cost_matrix(mu.support(), nu.support(), dist)
    supplies = [mass for _, mass in mu.atoms]
    demands = [mass for _, mass in nu.atoms]
    value, flow = transportation_plan(supplies, demands, costs)
    plan = TransportPlan(tuple(sorted((i, j, q) for (i, j), q in flow.items())))
    plan.validate(mu, nu)
    return value, plan


def dual_lower_bound(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    witnesses: Iterable[Callable],
    dist: Callable,
) -> Fraction:
    """max over witnesses of |mu(f) - nu(f)|, after verifying each witness
    is 1-Lipschitz on every pair of support points.  Always a lower bound
    for the transport distance."""
    points = list(dict.fromkeys(mu.support() + nu.support()))
    best = Fraction(0)
    for f in witnesses:
        declared = getattr(f, "lipschitz", Fraction(1))
        if declared > 1:
            raise LipschitzViolation(f"witness declares Lipschitz constant {declared} > 1")
        values = {p: exact(f(p)) for p in points}
        for a in range(len(points)):
            for b in range(a + 1, len(points)):
                p, q = points[a], points[b]
                if abs(values[p] - values[q]) > _checked_cost(dist, p, q):
                    raise LipschitzViolation(
                        f"witness violates the 1-Lipschitz bound on ({p!r}, {q!r})"
                    )
        best = max(best, abs(mu.integrate(f) - nu.integrate(f)))
    return best


def solve_assignment(costs: Sequence[Sequence[Fraction]]) -> tuple[Fraction, list[int]]:
    """Exact square assignment via shortest augmenting paths with dual
    potentials; returns (total cost, column assigned to each row).  The
    costs are scaled to integers by the lcm of their denominators, so the
    potentials and slacks are ``int`` throughout."""
    n = len(costs)
    cost, scale = _integer_costs(costs)
    INF = float("inf")
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row occupying column j (1-based, 0 = free)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        way = [0] * (n + 1)
        while True:
            used[j0] = True
            i0, delta, j1 = match[j0], INF, 0
            row, ui = cost[i0 - 1], u[i0]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[match[j] - 1] = j - 1
    return Fraction(sum(cost[i][assignment[i]] for i in range(n)), scale), assignment


def assignment_distance(
    folner: FolnerSet,
    x: "lamplighter.Point",
    y: "lamplighter.Point",
    act: Callable = lamplighter.act,
    dist: Callable = lamplighter.metric,
) -> Fraction:
    """min over permutations p of F of the average of d(gx, p(g)y)."""
    elements = enumerate_elements(folner)
    if len(elements) > ASSIGNMENT_GUARD:
        raise GuardViolation(
            f"assignment guard: |F| = {len(elements)} exceeds {ASSIGNMENT_GUARD}"
        )
    xs = [act(g, x) for g in elements]
    ys = [act(g, y) for g in elements]
    total, _ = solve_assignment(cost_matrix(xs, ys, dist))
    return total / len(elements)
