"""Finitely supported measures and exact optimal transport.

The Wasserstein distance between two finitely supported probability
measures is computed as an exact minimum-cost transportation plan
(simplex on the transportation polytope with Bland pivoting).  Onto two
target atoms it starts at the optimal fractional-knapsack fill; onto
three or more it starts from the least-cost tree, which fills the cells
by increasing cost, ties by row and then column, and leaves few pivots
(none for ``wf_estimate`` on ``decay``, hat(0) against hat(3), at
n <= 6).  Its integer flows are checked against the scaled marginals
before they are divided back.

The same simplex is the one kernel of the permutation form over a finite
group set: ``assignment_distance`` is ``wasserstein`` on the two counted
orbit measures, and ``solve_assignment`` runs it with unit masses.
Masses in multiples of 1/|F| keep every basic flow in such multiples, so
the plan is a permutation up to relabelling equal points.  At every
finite size the permutation form and the transport distance agree
(Birkhoff), which the test suite checks against a factorial brute force,
the expanded Hungarian solve and a basis-enumeration oracle.

The simplex runs on Python ``int`` and divides back at exit, so results
stay exact and no ``Fraction`` is built inside a pivot.  It takes its
costs as integers over one scale, from the metric's ``integer_block``:
``lamplighter.metric`` and ``homeo.interval_distance`` each give a whole
block at once, with no ``Fraction`` per cell.  Each integer cost is a
positive multiple of the exact cost, the same for every cell, so the
pivots and the plans are those of the rational problem.  Masses are
scaled by the lcm of their denominators.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Sequence

from .errors import GuardViolation, InvariantViolation, LipschitzViolation
from .exact import exact
from . import lamplighter
from .folner import FolnerSet

#: Largest transport ``assignment_distance`` solves, in cells |F.x| x |F.y|
#: over the distinct orbit points.  A set whose orbit points are all
#: distinct is the costly case: on a 2-vCPU Xeon under Python 3.11 the
#: shifts 0..k-1 (x = hat(0), y = hat(3)) took 0.9 s at 300 x 300 points
#: (90,000 cells) and 2.0 s at 400 x 400, nearly all of it in pivots.
ASSIGNMENT_GUARD = 90_000


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
                merged[point] = merged[point] + m if point in merged else m
        if not merged:
            raise ValueError("a measure needs at least one atom of positive mass")
        total = _total(merged.values())
        if total != 1:
            raise ValueError(f"masses sum to {total}, not 1")
        return DiscreteMeasure(tuple(merged.items()))

    @staticmethod
    def point_mass(point: Hashable) -> "DiscreteMeasure":
        return DiscreteMeasure(((point, Fraction(1)),))

    @staticmethod
    def uniform(points: Sequence[Hashable]) -> "DiscreteMeasure":
        """Mass 1/len(points) per point; equal points are one atom, in first-seen order."""
        n = len(points)
        return DiscreteMeasure.from_pairs((p, Fraction(c, n)) for p, c in Counter(points).items())

    def integrate(self, f: Callable) -> Fraction:
        return sum((mass * exact(f(point)) for point, mass in self.atoms), Fraction(0))

    def support(self) -> tuple[Hashable, ...]:
        return tuple(point for point, _ in self.atoms)

    def mass_where(self, predicate: Callable[[Hashable], bool]) -> Fraction:
        return _total(mass for point, mass in self.atoms if predicate(point))


@dataclass(frozen=True)
class TransportPlan:
    """Flows (source index, target index, mass) between two atom lists."""

    flows: tuple[tuple[int, int, Fraction], ...]


def _integer_scaled(values) -> tuple[list[int], int]:
    """Integers proportional to the rationals in ``values``, and the common
    denominator (their lcm) that divides them back."""
    fractions = [x if isinstance(x, Fraction) else exact(x) for x in values]
    scale = math.lcm(*(x.denominator for x in fractions))
    return [x.numerator * (scale // x.denominator) for x in fractions], scale


def _total(values) -> Fraction:
    """The exact sum of rationals, added as integers over their common
    denominator rather than one Fraction at a time."""
    numerators, scale = _integer_scaled(values)
    return Fraction(sum(numerators), scale)


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
    """A feasible start tree as {cell: flow}, m + n - 1 cells, some maybe 0.

    With three or more columns (and two or more rows) it is the least-cost
    start: the cells are visited by increasing cost, ties by row and then
    column, and each takes min(remaining supply, remaining demand) while
    both are positive.  Every allocation closes its row or its column, so
    these cells form a forest; zero-flow cells, visited in the same order,
    complete it to a spanning tree wherever they join two components.

    Otherwise it is the north-west corner, which onto two columns walks the
    rows by (c_i0 - c_i1, i): the knapsack fill, optimal because the row
    that closes column 0 and opens column 1 has a difference between
    theirs.  A single row or column has one feasible plan, which the corner
    finds without sorting."""
    m, n = len(rs), len(rd)
    if m > 1 and n > 2:
        return _least_cost_start(rs, rd, cost)
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


def _least_cost_start(rs, rd, cost) -> dict[tuple[int, int], int]:
    """The least-cost start tree of ``_start_basis``.  A stable sort of the
    row-major cell indices by cost gives the visiting order."""
    m, n = len(rs), len(rd)
    flat = [c for row in cost for c in row]
    order = sorted(range(m * n), key=flat.__getitem__)
    flow: dict[tuple[int, int], int] = {}
    left = sum(rs)
    for k in order:
        if not left:
            break
        i, j = divmod(k, n)
        q = min(rs[i], rd[j])
        if q > 0:
            flow[i, j] = q
            rs[i] -= q
            rd[j] -= q
            left -= q
    root = list(range(m + n))  # union-find over rows 0..m-1, columns m..m+n-1

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in flow:
        root[find(i)] = find(m + j)
    missing = m + n - 1 - len(flow)
    for k in order:
        if not missing:
            break
        i, j = divmod(k, n)
        a, b = find(i), find(m + j)
        if a != b:
            root[a] = b
            flow[i, j] = 0
            missing -= 1
    return flow


def _check_marginals(flow: dict[tuple[int, int], int], supplies, demands) -> None:
    """Raise unless the integer flows are >= 0 and their row and column sums
    are the scaled masses."""
    rows = [0] * len(supplies)
    cols = [0] * len(demands)
    for (i, j), q in flow.items():
        if q < 0:
            raise ValueError("negative flow")
        rows[i] += q
        cols[j] += q
    for kind, sums, masses in (("row", rows, supplies), ("column", cols, demands)):
        for k, (got, want) in enumerate(zip(sums, masses)):
            if got != want:
                raise ValueError(f"{kind} marginal {k} is {got}, expected {want} (scaled)")


def transportation_plan(supplies, demands, costs, scale):
    """Exact minimum-cost transportation: ``_start_basis``, then simplex
    pivots with Bland's rule (first negative reduced cost enters, smallest
    tied minus-cell leaves).  Returns (value, flows dict).  Two columns
    start at the knapsack fill, ties by row index, so no pivot runs.
    Three or more columns start from the least-cost tree (cells by
    increasing cost, ties by row and then column, completed by zero-flow
    cells in the same order), so the pivots only finish what it leaves.

    ``costs`` holds integers that stand for themselves over ``scale``, and
    the masses are scaled to integers by the lcm of their denominators;
    positive scaling keeps every comparison, so the pivots are those of the
    rational problem.  The basis is a spanning
    tree on rows 0..m-1 and columns m..m+n-1, hung from row 0 with parent
    links and depths; a start that is not one raises ``InvariantViolation``
    before any pivot.  Each pivot re-hangs only the subtree the leaving
    cell cuts off from row 0; its potentials, recomputed from the tree
    equations, shift by the entering cell's reduced cost, and no other
    potential moves.
    """
    m, n = len(supplies), len(demands)
    masses, mass_scale = _integer_scaled([*supplies, *demands])
    flow = _start_basis(masses[:m], masses[m:], costs)
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for i, j in flow:
        adj[i].add(m + j)
        adj[m + j].add(i)

    pot = [0] * (m + n)  # u_i at node i, v_j at node m + j
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    # Hang the start from row 0, marking each node as it is reached.  Its
    # cells form a spanning tree only if there are m + n - 1 of them and
    # they reach every node; any other start would leave the re-hanging
    # and the cycle walks below unbounded.
    reached = [0]
    for x in reached:
        for y in adj[x]:
            if parent[y] < 0 and y:
                parent[y] = x
                depth[y] = depth[x] + 1
                pot[y] = (costs[y][x - m] if y < m else costs[x][y - m]) - pot[x]
                reached.append(y)
    if len(flow) != m + n - 1 or len(reached) != m + n:
        raise InvariantViolation(
            f"start basis is not a spanning tree: {len(flow)} cells reach {len(reached)} "
            f"of {m + n} nodes from row 0"
        )

    def hang(node: int, above: int) -> None:
        """Hang the component of ``node`` (apart from ``above``) below
        ``above``; its potentials follow from u_i + v_j = c_ij."""
        parent[node] = above
        stack = [node]
        while stack:
            x = stack.pop()
            p = parent[x]
            depth[x] = depth[p] + 1
            pot[x] = (costs[x][p - m] if x < m else costs[p][x - m]) - pot[p]
            for y in adj[x]:
                if y != p:
                    parent[y] = x
                    stack.append(y)

    def cell(x: int) -> tuple[int, int]:
        """The basic cell joining node x to its parent."""
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    cap = 200 + 30 * m * n
    for _ in range(cap):
        entering = _entering_cell(costs, pot, m)
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
    _check_marginals(flow, masses[:m], masses[m:])
    value = Fraction(sum(q * costs[i][j] for (i, j), q in flow.items()), scale * mass_scale)
    return value, {c: Fraction(q, mass_scale) for c, q in flow.items() if q > 0}


def wasserstein(
    mu: DiscreteMeasure, nu: DiscreteMeasure, dist: Callable
) -> tuple[Fraction, TransportPlan]:
    """Exact optimal-transport distance and an optimal plan, on the costs
    that ``dist.integer_block`` gives as integers over one scale."""
    costs, scale = dist.integer_block(mu.support(), nu.support())
    supplies = [mass for _, mass in mu.atoms]
    demands = [mass for _, mass in nu.atoms]
    value, flow = transportation_plan(supplies, demands, costs, scale)
    return value, TransportPlan(tuple(sorted((i, j, q) for (i, j), q in flow.items())))


def dual_lower_bound(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    witnesses: Iterable[Callable],
    dist: Callable,
) -> Fraction:
    """max over witnesses of |mu(f) - nu(f)|, after verifying each witness
    is 1-Lipschitz on every pair of support points.  Always a lower bound
    for the transport distance.

    The P x P block of costs between the P support points is built at the
    first witness by ``dist.integer_block`` and kept for the later
    witnesses, which read its upper triangle: O(P^2) memory."""
    points = list(dict.fromkeys(mu.support() + nu.support()))
    size = len(points)
    costs = None
    best = Fraction(0)
    for f in witnesses:
        declared = getattr(f, "lipschitz", Fraction(1))
        if declared > 1:
            raise LipschitzViolation(f"witness declares Lipschitz constant {declared} > 1")
        values = {p: exact(f(p)) for p in points}
        if costs is None:
            costs, cost_scale = dist.integer_block(points, points)
        scaled, value_scale = _integer_scaled(values.values())
        # |f(p) - f(q)| <= d(p, q), both sides over value_scale * cost_scale
        for a in range(size):
            fa, row = scaled[a], costs[a]
            for b in range(a + 1, size):
                if abs(fa - scaled[b]) * cost_scale > row[b] * value_scale:
                    raise LipschitzViolation(
                        f"witness violates the 1-Lipschitz bound on ({points[a]!r}, {points[b]!r})"
                    )
        mu_f = sum(mass * values[p] for p, mass in mu.atoms)
        best = max(best, abs(mu_f - sum(mass * values[p] for p, mass in nu.atoms)))
    return best


def solve_assignment(costs: Sequence[Sequence[Fraction]]) -> tuple[Fraction, list[int]]:
    """Exact square assignment: ``transportation_plan`` with every row and
    column mass 1.  Returns (total cost, column assigned to each row).  With
    integer marginals every basic flow is integral, so each row has exactly
    one positive cell, and it carries the whole unit.  No program path calls
    it; it stays because the benchmark tracer wraps it by name."""
    n = len(costs)
    total, flows = transportation_plan([1] * n, [1] * n, *_integer_costs(costs))
    assignment = [0] * n
    for i, j in flows:
        assignment[i] = j
    return total, assignment


def assignment_distance(folner: FolnerSet, x: "lamplighter.Point", y: "lamplighter.Point") -> Fraction:
    """min over permutations p of F of the average of d(gx, p(g)y).

    This is ``wasserstein`` between the uniform orbit measures of F.x and
    F.y, each atom a distinct orbit point with its count over |F| as mass:
    a flow in multiples of 1/|F| is a permutation of F up to relabelling
    equal points, and every basic flow is one, so the minimum is the one of
    the |F| x |F| problem."""
    elements = folner.materialize()
    mu = DiscreteMeasure.uniform([lamplighter.act(g, x) for g in elements])
    nu = DiscreteMeasure.uniform([lamplighter.act(g, y) for g in elements])
    if len(mu.atoms) * len(nu.atoms) > ASSIGNMENT_GUARD:
        raise GuardViolation(
            f"assignment guard: {len(mu.atoms)} x {len(nu.atoms)} distinct orbit points exceed "
            f"{ASSIGNMENT_GUARD} cells"
        )
    return wasserstein(mu, nu, lamplighter.metric)[0]
