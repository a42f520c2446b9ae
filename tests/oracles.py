"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's solver code paths: assignment by
factorial enumeration and by the classical square Hungarian solve (the
reference for the simplex on unit and counted assignments), transportation by enumerating spanning bases of
the bipartite support graph or, onto two atoms, as a fractional knapsack
(value and plan),
matching by trying every injection, defects by materializing both sets,
the rate family's selection words from their Fraction definition and
their stay counts by scanning the listed words,
PL maps by evaluating their breakpoint lists point by point in Fraction
(and inverting them by swapping coordinates), repelling elements,
repelling checks and endpoint counts from their Fraction definitions,
the lamplighter metric from its planar embedding, the limit operator by
integrating against the limit measure, and right-box averages with their
tail bound.  Test-only checks live here too: the marginals of a transport
plan and the declared Lipschitz constant of a test function.  Cost
matrices are built with one Fraction per cell, the reference for the
metrics' integer blocks; the dual bound checks each witness pair by pair
in Fraction; and generator words are parsed by a left fold of
``compose``, one token at a time.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import combinations, permutations

from folnerlab.errors import LipschitzViolation, WordParseError
from folnerlab.exact import exact
from folnerlab.folner import FolnerSet, box_folner
from folnerlab.dynamics import empirical_measure, limit_measure
from folnerlab.functions import TestFunction
from folnerlab.homeo import PLHomeo, pl_homeo, squash_margin
from folnerlab.transport import _integer_costs
from folnerlab.lamplighter import (
    FLIP,
    IDENTITY,
    INF_HAT,
    SIGMA,
    SIGMA_INV,
    GroupElement,
    act,
    compose,
    embedding,
    hat,
    metric,
)


def brute_assignment(costs) -> Fraction:
    """Minimum total cost over all permutations (n <= 8 or so)."""
    n = len(costs)
    best = None
    for perm in permutations(range(n)):
        total = sum((costs[i][perm[i]] for i in range(n)), Fraction(0))
        if best is None or total < best:
            best = total
    return best


def unit_hungarian(costs) -> tuple[Fraction, list[int]]:
    """The classical square Hungarian solve by shortest augmenting paths
    with dual potentials, on integer-scaled costs; returns (total cost,
    column assigned to each row).  The reference for the assignment kernel."""
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


def brute_assignment_distance(folner: FolnerSet, x, y) -> Fraction:
    elements = folner.materialize()
    xs = [act(g, x) for g in elements]
    ys = [act(g, y) for g in elements]
    costs = [[metric(p, q) for q in ys] for p in xs]
    return brute_assignment(costs) / len(elements)


def _solve_tree_flows(cells, supplies, demands):
    """Unique flow on a spanning tree of the transportation graph, or None
    if the tree equations force a negative flow."""
    flows = {}
    remaining_s = list(supplies)
    remaining_d = list(demands)
    cells = set(cells)
    while cells:
        # peel a leaf: a row or column meeting exactly one remaining cell
        progress = False
        for i, j in sorted(cells):
            row_cells = [c for c in cells if c[0] == i]
            col_cells = [c for c in cells if c[1] == j]
            if len(row_cells) == 1:
                q = remaining_s[i]
            elif len(col_cells) == 1:
                q = remaining_d[j]
            else:
                continue
            if q < 0:
                return None
            flows[(i, j)] = q
            remaining_s[i] -= q
            remaining_d[j] -= q
            cells.remove((i, j))
            progress = True
            break
        if not progress:
            return None
    if any(remaining_s) or any(remaining_d):
        return None
    if any(q < 0 for q in flows.values()):
        return None
    return flows


def vertex_enumeration_transport(supplies, demands, costs) -> Fraction:
    """Optimal transportation value by enumerating all spanning bases
    (m + n - 1 cells whose tree equations give a nonnegative flow)."""
    m, n = len(supplies), len(demands)
    all_cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for cells in combinations(all_cells, m + n - 1):
        # a spanning tree meets every row and every column
        if len({i for i, _ in cells}) < m or len({j for _, j in cells}) < n:
            continue
        flows = _solve_tree_flows(cells, supplies, demands)
        if flows is None:
            continue
        total = sum((q * costs[i][j] for (i, j), q in flows.items()), Fraction(0))
        if best is None or total < best:
            best = total
    assert best is not None, "no feasible basis found"
    return best


def _knapsack_order(costs) -> list[int]:
    """Source rows in increasing order of c_i0 - c_i1, ties by row index."""
    return sorted(range(len(costs)), key=lambda i: (costs[i][0] - costs[i][1], i))


def two_atom_transport(supplies, demands, costs) -> Fraction:
    """Optimal transportation onto one or two target atoms as a fractional
    knapsack: every source first sends its whole mass to the last atom,
    then sources in the knapsack order move mass to the first atom until
    its demand is met."""
    total = sum((s * row[-1] for s, row in zip(supplies, costs)), Fraction(0))
    if len(demands) == 1:
        return total
    room = demands[0]
    for i in _knapsack_order(costs):
        moved = min(supplies[i], room)
        total += moved * (costs[i][0] - costs[i][1])
        room -= moved
    return total


def two_atom_plan(supplies, demands, costs) -> dict:
    """The knapsack fill onto two target atoms as {(i, j): flow}, positive
    flows only: sources in the knapsack order fill the first atom until
    its demand is met, and the rest of each source goes to the second."""
    flows = {}
    room = demands[0]
    for i in _knapsack_order(costs):
        moved = min(supplies[i], room)
        room -= moved
        for j, q in ((0, moved), (1, supplies[i] - moved)):
            if q:
                flows[i, j] = q
    return flows


def brute_matching(adjacency, size_left, size_right) -> int:
    """Maximum matching by trying every injection of every subset."""
    best = 0
    for k in range(min(size_left, size_right), best, -1):
        for rows in combinations(range(size_left), k):
            for image in permutations(range(size_right), k):
                if all(image[t] in adjacency[rows[t]] for t in range(k)):
                    return k
    return best


def brute_defect(folner: FolnerSet, g: GroupElement, side: str) -> Fraction:
    """|gF Δ F| / |F| (or right-sided) from materialized elements."""
    elements = set(folner.materialize())
    moved = {compose(g, h) if side == "left" else compose(h, g) for h in elements}
    return Fraction(len(elements ^ moved), len(elements))


def selection_word(rate, n: int, k: int) -> tuple[int, ...]:
    """The k-th threshold word over positions -n..n: bit l is 1 iff
    0 < r_l - (k-1) 2^(-2n) <= 1."""
    if not 1 <= k <= 4**n:
        raise ValueError(f"k={k} outside 1..{4 ** n}")
    offset = Fraction(k - 1, 4**n)
    return tuple(int(0 < rate.value(l) - offset <= 1) for l in range(-n, n + 1))


def word_family(rate, n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^(2n) words over the window -2n..2n: selection word in the
    middle, the bits of k-1 (little-endian, 2n of them) split around it."""
    words = []
    for k in range(1, 4**n + 1):
        pad = [(k - 1) >> i & 1 for i in range(2 * n)]
        words.append(tuple(pad[:n]) + selection_word(rate, n, k) + tuple(pad[n:]))
    return tuple(words)


def packed_words(folner) -> frozenset:
    """A rate set's 4^n window words packed into ints, bit l + 2n for
    position l: word j + 1 is its section over [-n, n] with the low n bits
    of j below it and the high n above it."""
    n = folner.n
    return frozenset(
        (j & (1 << n) - 1) | (j >> n) << 3 * n + 1 | section
        for start, end, section in folner._sections()
        for j in range(start, end)
    )


def word_stay_count(folner, mask: int) -> int:
    """How many of a rate set's listed window words stay in its family
    after XOR with mask: one set lookup per word (4^n of them)."""
    words = packed_words(folner)
    return sum((u ^ mask) in words for u in words)


def pl_value(points, t) -> Fraction:
    """Value at t of the PL map with these breakpoints: binary search for
    the segment, then one Fraction interpolation."""
    lo, hi = 0, len(points) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if points[mid][0] <= t:
            lo = mid
        else:
            hi = mid
    (x0, y0), (x1, y1) = points[lo], points[hi]
    if t == x0:
        return y0
    return y0 + (y1 - y0) * (t - x0) / (x1 - x0)


def breakpoint_xs(f: PLHomeo) -> tuple[Fraction, ...]:
    """The first coordinates of a PL map's breakpoints."""
    return tuple(x for x, _ in f.breakpoints)


def invert(f: PLHomeo) -> PLHomeo:
    return pl_homeo((y, x) for x, y in f.breakpoints)


def pl_sup_distance(f, g) -> Fraction:
    """max |f - g| evaluated point by point over the merged breakpoint grid."""
    grid = sorted({*breakpoint_xs(f), *breakpoint_xs(g)})
    return max(abs(pl_value(f.breakpoints, t) - pl_value(g.breakpoints, t)) for t in grid)


def pl_compose_breakpoints(outer, inner) -> tuple:
    """Breakpoints of outer . inner: the inner grid joined with the
    preimages of the outer grid, each point evaluated as outer(inner(t))."""
    inverse = tuple((y, x) for x, y in inner.breakpoints)
    grid = sorted({x for x, _ in inner.breakpoints} | {pl_value(inverse, x) for x, _ in outer.breakpoints})
    return tuple((t, pl_value(outer.breakpoints, pl_value(inner.breakpoints, t))) for t in grid)


def repelling_points(x, eps) -> tuple:
    """Fraction breakpoints of the repelling element at x: (x - eps, eps)
    if x - eps > 0 and (x + eps, 1 - eps) if x + eps < 1, between (0, 0)
    and (1, 1)."""
    points = [(Fraction(0), Fraction(0))]
    if x - eps > 0:
        points.append((x - eps, eps))
    if x + eps < 1:
        points.append((x + eps, 1 - eps))
    return (*points, (Fraction(1), Fraction(1)))


def pl_is_repelling(points, x, eps) -> bool:
    """f(x - eps) <= eps if x - eps > 0, and f(x + eps) >= 1 - eps if
    x + eps < 1, each evaluated in Fraction."""
    low_ok = x - eps <= 0 or pl_value(points, x - eps) <= eps
    high_ok = x + eps >= 1 or pl_value(points, x + eps) >= 1 - eps
    return low_ok and high_ok


def pl_endpoint_fractions(maps, n: int, y) -> tuple[Fraction, Fraction]:
    """Fractions of the maps' Fraction values at y that are at most 1/n^2
    and at least 1 - 1/n^2."""
    threshold = Fraction(1, n * n)
    values = [pl_value(f.breakpoints, y) for f in maps]
    low = sum(v <= threshold for v in values)
    high = sum(v >= 1 - threshold for v in values)
    return Fraction(low, len(values)), Fraction(high, len(values))


def repelling_breakpoints(base, n: int) -> list:
    """Breakpoints of the repelling family's members in order: base maps
    composed point by point with the grid's repelling elements, duplicates
    dropped by scanning the members kept so far."""
    threshold = Fraction(1, n * n)
    eps = min(squash_margin(base.members, threshold), threshold)
    members = []
    for k in range(n + 1):
        mover = pl_homeo(repelling_points(Fraction(k, n), eps))
        for g in base.members:
            points = pl_compose_breakpoints(g, mover)
            if points not in members:
                members.append(points)
    return members


def embedding_metric(x, y) -> Fraction:
    """The doubled-line distance as a quarter of the l1 distance of the
    planar embeddings within a component, 1 across components."""
    if x.component != y.component:
        return Fraction(1)
    px, py = embedding(x.pos), embedding(y.pos)
    return Fraction(1, 4) * (abs(px[0] - py[0]) + abs(px[1] - py[1]))


def limit_apply_by_measure(rate, f):
    """(S f)(x) as the integral of f against the limit measure at x."""
    return lambda x: limit_measure(rate, x).integrate(f)


def right_box_averages(boxes, x, f) -> list[Fraction]:
    """Averages of f over the box family at x, one value per box (low, high)."""
    return [empirical_measure(box_folner(low, high), x).integrate(f) for low, high in boxes]


def box_average_tail_bound(box, x, f) -> Fraction:
    """Exact bound for |average - (f(hat inf) + f(check inf))/2| on a box
    (low, high) containing x's position: Lipschitz constant times the mean
    distance of the shifted copies to the end."""
    positions = range(box[0], box[1] + 1)
    total = sum(metric(hat(x.pos - a), INF_HAT) for a in positions)
    return f.lipschitz * Fraction(total, len(positions))


def validate_plan(plan, mu, nu) -> None:
    """Raise ValueError unless the plan's flows are nonnegative and its
    marginals are exactly mu's and nu's masses."""
    row = defaultdict(Fraction)
    col = defaultdict(Fraction)
    for i, j, mass in plan.flows:
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


def scaled_to_unit(f: TestFunction) -> TestFunction:
    """Rescale so the declared Lipschitz constant is at most 1."""
    if f.lipschitz <= 1:
        return f
    factor = 1 / f.lipschitz

    def evaluate(x) -> Fraction:
        return factor * f(x)

    return TestFunction(f.kind, f"{f.label}/{f.lipschitz}", Fraction(1), evaluate)


def verify_lipschitz(f: TestFunction, points) -> None:
    """Exact pairwise check of the declared constant; raises on violation."""
    pts = list(points)
    values = {p: f(p) for p in pts}
    for a in range(len(pts)):
        for b in range(a + 1, len(pts)):
            p, q = pts[a], pts[b]
            if abs(values[p] - values[q]) > f.lipschitz * metric(p, q):
                raise LipschitzViolation(
                    f"{f.label}: |f({p}) - f({q})| exceeds {f.lipschitz} * d"
                )


def cost_matrix(sources, targets, dist) -> list[list[Fraction]]:
    """dist(p, q) as one Fraction per cell, source p by row and target q by column."""
    return [[exact(dist(p, q)) for q in targets] for p in sources]


def dual_bound(mu, nu, witnesses, dist) -> Fraction:
    """max over witnesses of |mu(f) - nu(f)|, each witness first checked
    in Fraction to be 1-Lipschitz on every pair of support points (and to
    declare no constant above 1), with the messages of ``dual_lower_bound``."""
    points = list(dict.fromkeys(mu.support() + nu.support()))
    best = Fraction(0)
    for f in witnesses:
        declared = getattr(f, "lipschitz", Fraction(1))
        if declared > 1:
            raise LipschitzViolation(f"witness declares Lipschitz constant {declared} > 1")
        for p, q in combinations(points, 2):
            if abs(exact(f(p)) - exact(f(q))) > exact(dist(p, q)):
                raise LipschitzViolation(f"witness violates the 1-Lipschitz bound on ({p!r}, {q!r})")
        best = max(best, abs(mu.integrate(f) - nu.integrate(f)))
    return best


def fold_word(word: str) -> GroupElement:
    """A generator word, tokens in the order they apply, as the left fold
    of ``compose`` from the identity, one token at a time."""
    generators = {"f": FLIP, "s": SIGMA, "S": SIGMA_INV}
    out = IDENTITY
    for token in word.split():
        if token not in generators:
            raise WordParseError(f"unknown token {token!r}; expected one of f, s, S")
        out = compose(generators[token], out)
    return out
