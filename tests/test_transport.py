"""Exact transport: plans, duals, assignment, and their cross-checks."""

import functools
import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    brute_assignment,
    brute_assignment_distance,
    cost_matrix,
    dual_bound,
    scaled_to_unit,
    two_atom_plan,
    two_atom_transport,
    unit_hungarian,
    validate_plan,
    vertex_enumeration_transport,
)

from folnerlab.dynamics import (
    empirical_measure,
    genericity_table,
    limit_measure,
    wf_estimate,
)
from folnerlab.errors import GuardViolation, InvariantViolation, LipschitzViolation
from folnerlab.exact import exact
from folnerlab.folner import RateSequence, explicit_folner, rate_folner
from folnerlab.functions import ends_separator, affine
from folnerlab.lamplighter import (
    INF_CHECK,
    INF_HAT,
    GroupElement,
    act,
    check,
    hat,
    metric,
)
from folnerlab import transport
from folnerlab.transport import (
    ASSIGNMENT_GUARD,
    DiscreteMeasure,
    TransportPlan,
    _integer_costs,
    assignment_distance,
    dual_lower_bound,
    solve_assignment,
    transportation_plan,
    wasserstein,
)

HALF = RateSequence.constant(Fraction(1, 2))


def random_point(rng, span=20):
    if rng.random() < 0.08:
        return rng.choice([INF_HAT, INF_CHECK])
    return (hat if rng.random() < 0.5 else check)(rng.randint(-span, span))


def random_measure(rng, max_atoms=4):
    count = rng.randint(1, max_atoms)
    points = [random_point(rng) for _ in range(count)]
    weights = [rng.randint(1, 5) for _ in range(count)]
    total = sum(weights)
    return DiscreteMeasure.from_pairs(
        (p, Fraction(w, total)) for p, w in zip(points, weights)
    )


def random_element(rng, span=5):
    flips = sorted(rng.sample(range(-span, span + 1), rng.randint(0, 3)))
    return GroupElement(rng.randint(-span, span), tuple(flips))


def test_point_mass_distance():
    for x, y in [(hat(0), check(0)), (hat(1), hat(4)), (INF_HAT, check(-2))]:
        value, plan = wasserstein(DiscreteMeasure.point_mass(x), DiscreteMeasure.point_mass(y), metric)
        assert value == metric(x, y)
        assert plan.flows == ((0, 0, Fraction(1)),)


def test_identical_measures_distance_zero():
    rng = random.Random(5)
    for _ in range(20):
        mu = random_measure(rng)
        value, _ = wasserstein(mu, mu, metric)
        assert value == 0


def test_two_atom_example_against_vertex_oracle():
    mu = DiscreteMeasure.uniform([hat(0), hat(1)])
    nu = DiscreteMeasure.uniform([hat(0), hat(2)])
    value, _ = wasserstein(mu, nu, metric)
    assert value == metric(hat(1), hat(2)) / 2
    costs = [[metric(p, q) for q, _ in nu.atoms] for p, _ in mu.atoms]
    oracle = vertex_enumeration_transport([m for _, m in mu.atoms], [m for _, m in nu.atoms], costs)
    assert value == oracle


def test_transport_matches_vertex_oracle_random():
    rng = random.Random(9)
    for _ in range(40):
        mu, nu = random_measure(rng, 3), random_measure(rng, 3)
        costs = [[metric(p, q) for q, _ in nu.atoms] for p, _ in mu.atoms]
        value, plan = wasserstein(mu, nu, metric)
        oracle = vertex_enumeration_transport(
            [m for _, m in mu.atoms], [m for _, m in nu.atoms], costs
        )
        assert value == oracle
        validate_plan(plan, mu, nu)
        assert sum(q * costs[i][j] for i, j, q in plan.flows) == value


def test_plan_feasibility_and_value():
    rng = random.Random(21)
    for _ in range(50):
        mu, nu = random_measure(rng), random_measure(rng)
        costs = [[metric(p, q) for q, _ in nu.atoms] for p, _ in mu.atoms]
        value, plan = wasserstein(mu, nu, metric)
        validate_plan(plan, mu, nu)
        assert sum(q * costs[i][j] for i, j, q in plan.flows) == value
        assert all(q > 0 for _, _, q in plan.flows)


def test_wasserstein_metric_axioms():
    rng = random.Random(33)
    for _ in range(60):
        mu, nu, pi = (random_measure(rng) for _ in range(3))
        d_mn, _ = wasserstein(mu, nu, metric)
        d_nm, _ = wasserstein(nu, mu, metric)
        assert d_mn == d_nm
        d_mp, _ = wasserstein(mu, pi, metric)
        d_pn, _ = wasserstein(pi, nu, metric)
        assert d_mn <= d_mp + d_pn


def test_masses_and_marginals_are_checked_exactly():
    near = Fraction(1, 2) + Fraction(1, 10**12)
    with pytest.raises(ValueError, match="masses sum to"):
        DiscreteMeasure.from_pairs([(hat(0), Fraction(1, 2)), (hat(1), near)])
    mu = DiscreteMeasure.from_pairs([(hat(0), Fraction(1, 2)), (hat(1), Fraction(1, 2))])
    nu = DiscreteMeasure.point_mass(hat(0))
    validate_plan(TransportPlan(((0, 0, Fraction(1, 2)), (1, 0, Fraction(1, 2)))), mu, nu)
    with pytest.raises(ValueError, match="row marginal 1"):
        validate_plan(TransportPlan(((0, 0, Fraction(1, 2)), (1, 0, near))), mu, nu)


def test_outside_numbers_convert_exactly():
    tenths = DiscreteMeasure.from_pairs([(hat(0), 0.1), (hat(1), 0.2), (hat(2), 0.7)])
    assert [m for _, m in tenths.atoms] == [Fraction(1, 10), Fraction(1, 5), Fraction(7, 10)]
    thirds = DiscreteMeasure.from_pairs([(hat(0), "1/3"), (hat(1), "2/3")])
    assert thirds.atoms[0][1] == Fraction(1, 3)
    for bad in (float("nan"), float("inf"), "nan", "1/0", [1]):
        with pytest.raises(ValueError):
            exact(bad)
    assert affine(0.1, 0, 0)(hat(0)) == Fraction(1, 10)


def test_dual_constant_witness_gives_zero():
    rng = random.Random(41)
    mu, nu = random_measure(rng), random_measure(rng)
    assert dual_lower_bound(mu, nu, [lambda _: Fraction(1)], metric) == 0


def test_dual_matches_primal_on_point_masses():
    x, y = hat(0), check(3)
    mu, nu = DiscreteMeasure.point_mass(x), DiscreteMeasure.point_mass(y)
    witness = lambda z: metric(z, y)
    assert dual_lower_bound(mu, nu, [witness], metric) == metric(x, y)


def test_dual_below_primal_random():
    rng = random.Random(43)
    separator = ends_separator()
    for _ in range(40):
        mu, nu = random_measure(rng), random_measure(rng)
        anchors = [p for p, _ in (mu.atoms + nu.atoms)][:3]
        witnesses = [separator] + [(lambda a: (lambda z: metric(z, a)))(a) for a in anchors]
        lb = dual_lower_bound(mu, nu, witnesses, metric)
        primal, _ = wasserstein(mu, nu, metric)
        assert lb <= primal


def test_dual_rejects_bad_witness():
    mu = DiscreteMeasure.point_mass(hat(0))
    nu = DiscreteMeasure.point_mass(hat(1))
    too_steep = scaled_to_unit(affine(0, 1, 0))  # fine
    assert dual_lower_bound(mu, nu, [too_steep], metric) >= 0
    with pytest.raises(LipschitzViolation):
        dual_lower_bound(mu, nu, [lambda z: 10 * metric(z, hat(0))], metric)


def test_assignment_same_point_is_zero():
    folner = rate_folner(HALF, 1)
    assert assignment_distance(folner, hat(3), hat(3)) == 0


def test_assignment_matches_brute_force():
    rng = random.Random(51)
    for _ in range(12):
        size = rng.randint(2, 6)
        elements = set()
        while len(elements) < size:
            elements.add(random_element(rng))
        folner = explicit_folner(elements)
        x, y = random_point(rng, span=6), random_point(rng, span=6)
        assert assignment_distance(folner, x, y) == brute_assignment_distance(folner, x, y)


def test_assignment_equals_wasserstein_of_empirical():
    rng = random.Random(57)
    for _ in range(25):
        size = rng.randint(2, 24)
        elements = set()
        while len(elements) < size:
            elements.add(random_element(rng))
        folner = explicit_folner(elements)
        x, y = random_point(rng, span=8), random_point(rng, span=8)
        assigned = assignment_distance(folner, x, y)
        value, _ = wasserstein(
            empirical_measure(folner, x), empirical_measure(folner, y), metric
        )
        assert assigned == value


def test_assignment_guard(monkeypatch):
    """One shift more than the guard's square side sends x and y to that
    many distinct points each, just past the guard: refused before the
    metric's cost block is built or any solve runs."""
    side = math.isqrt(ASSIGNMENT_GUARD) + 1
    folner = explicit_folner(GroupElement(a, ()) for a in range(side))

    def refuse(*args, **kwargs):
        raise AssertionError("the guard let the transport run")

    monkeypatch.setattr(metric, "integer_block", refuse)
    monkeypatch.setattr(transport, "transportation_plan", refuse)
    with pytest.raises(GuardViolation, match=f"{side} x {side} distinct orbit points"):
        assignment_distance(folner, hat(0), hat(3))


def test_float_masses_are_read_by_their_repr():
    value, flows = transportation_plan([0.1, 0.2, 0.7], [1], *_integer_costs([[1], [1], [1]]))
    assert value == 1
    assert flows == {(0, 0): Fraction(1, 10), (1, 0): Fraction(1, 5), (2, 0): Fraction(7, 10)}


def test_solve_assignment_small():
    costs = [[Fraction(4), Fraction(1)], [Fraction(2), Fraction(3)]]
    value, assignment = solve_assignment(costs)
    assert value == 3
    assert assignment == [1, 0]


def test_wf_estimate_examples():
    sets = [rate_folner(HALF, n) for n in (1, 2, 3)]
    assert wf_estimate(sets, hat(0), hat(0)) == [0, 0, 0]
    assert wf_estimate(sets, INF_HAT, INF_CHECK) == [1, 1, 1]
    # the half rate splits both orbit measures identically
    assert wf_estimate(sets, hat(0), check(0)) == [0, 0, 0]


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure.from_pairs([(hat(0), Fraction(1, 2))])
    with pytest.raises(ValueError):
        DiscreteMeasure.from_pairs([(hat(0), Fraction(-1)), (hat(1), Fraction(2))])
    merged = DiscreteMeasure.from_pairs(
        [(hat(0), Fraction(1, 2)), (hat(0), Fraction(1, 4)), (hat(1), Fraction(1, 4))]
    )
    assert len(merged.atoms) == 2


# ------------------------------------------------------------ exact kernels

#: Instances with mixed cost denominators, degenerate (equal-part) masses and
#: tied costs, with the value, flows and assignments recorded from the
#: all-Fraction kernels the integer ones replaced.  The last eight transports
#: have tied optima, so their flows pin the start rule together with the
#: pivot rules: the 6x2 and 5x2 ones are tied knapsacks recorded from the
#: two-column start (rows by c_i0 - c_i1, ties by row index); the six with
#: three or more columns start from the least-cost tree (cells by cost,
#: ties by row and then column), four of them already at the optimum.
#: The six plans of RERECORDED changed when problems with three or more
#: columns moved from the north-west corner to the least-cost start; they
#: were recorded again from that rule, with the same values.
GOLDEN = json.loads((Path(__file__).parent / "transport_golden.json").read_text())

#: Indices into GOLDEN["transport"] of the 5x5, 2x9, 6x6, 2x4, second 3x3
#: and first 2x6 cases.
RERECORDED = [3, 6, 8, 12, 13, 15]


def _fractions(values):
    return [Fraction(x) for x in values]


@pytest.mark.parametrize("case", GOLDEN["transport"], ids=lambda case: f"{len(case['supplies'])}x{len(case['demands'])}")
def test_transportation_plan_golden(case):
    value, flows = transportation_plan(
        _fractions(case["supplies"]),
        _fractions(case["demands"]),
        *_integer_costs([_fractions(r) for r in case["costs"]]),
    )
    assert value == Fraction(case["value"])
    assert flows == {(i, j): Fraction(q) for i, j, q in case["flows"]}


@pytest.mark.parametrize(
    "case",
    [GOLDEN["transport"][k] for k in RERECORDED],
    ids=lambda case: f"{len(case['supplies'])}x{len(case['demands'])}",
)
def test_rerecorded_golden_plans_are_optimal(case):
    """Each re-recorded plan meets the marginals exactly and reaches the
    oracle's value: the basis enumeration, or on the uniform square cases
    too large for it the permutation brute force (Birkhoff)."""
    supplies, demands = _fractions(case["supplies"]), _fractions(case["demands"])
    costs = [_fractions(r) for r in case["costs"]]
    flows = {(i, j): Fraction(q) for i, j, q in case["flows"]}
    assert _feasible(flows, supplies, demands)
    value = sum(q * costs[i][j] for (i, j), q in flows.items())
    assert value == Fraction(case["value"])
    m, n = len(supplies), len(demands)
    if math.comb(m * n, m + n - 1) <= 50_000:
        assert value == vertex_enumeration_transport(supplies, demands, costs)
    else:
        assert m == n and set(supplies + demands) == {Fraction(1, n)}
        assert value == brute_assignment(costs) / n


@pytest.mark.parametrize("case", GOLDEN["assignment"], ids=lambda case: f"n{len(case['costs'])}")
def test_solve_assignment_golden(case):
    value, assignment = solve_assignment([_fractions(r) for r in case["costs"]])
    assert value == Fraction(case["value"])
    assert assignment == case["assignment"]


COSTS = st.fractions(min_value=0, max_value=12, max_denominator=12)


def _masses(weights):
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def transport_problems(draw, max_side=4):
    weights = st.lists(st.integers(0, 6), min_size=1, max_size=max_side).filter(any)
    supplies = _masses(draw(weights))
    demands = _masses(draw(weights))
    costs = [[draw(COSTS) for _ in demands] for _ in supplies]
    return supplies, demands, costs


def _feasible(flows, supplies, demands):
    rows = [sum((q for (i, _), q in flows.items() if i == r), Fraction(0)) for r in range(len(supplies))]
    cols = [sum((q for (_, j), q in flows.items() if j == c), Fraction(0)) for c in range(len(demands))]
    return rows == supplies and cols == demands and all(q > 0 for q in flows.values())


@settings(max_examples=40, deadline=None)
@given(transport_problems())
def test_transportation_plan_matches_vertex_enumeration(problem):
    supplies, demands, costs = problem
    value, flows = transportation_plan(supplies, demands, *_integer_costs(costs))
    assert value == vertex_enumeration_transport(supplies, demands, costs)
    assert _feasible(flows, supplies, demands)
    assert sum(q * costs[i][j] for (i, j), q in flows.items()) == value


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(COSTS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_solve_assignment_matches_brute_force(costs):
    value, assignment = solve_assignment(costs)
    assert value == brute_assignment(costs)
    assert sorted(assignment) == list(range(len(costs)))
    assert sum(costs[i][j] for i, j in enumerate(assignment)) == value


@settings(max_examples=60, deadline=None)
@given(transport_problems(max_side=6), st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50))
def test_scaling_costs_scales_the_value_and_keeps_the_plan(problem, factor):
    supplies, demands, costs = problem
    value, flows = transportation_plan(supplies, demands, *_integer_costs(costs))
    scaled_value, scaled_flows = transportation_plan(
        supplies, demands, *_integer_costs([[factor * c for c in row] for row in costs])
    )
    assert scaled_value == factor * value
    assert scaled_flows == flows


@pytest.mark.parametrize("preset", ["const:1/2", "const:1/3", "zero", "decay", "split"])
def test_genericity_distances_match_knapsack(preset):
    rate = RateSequence.from_preset(preset)
    profile = rate
    sets = [rate_folner(rate, n) for n in range(1, 6)]
    for x in (hat(0), check(2), hat(-3)):
        rows, _ = genericity_table(sets, x, profile)
        target = limit_measure(profile, x)
        for folner, row in zip(sets, rows):
            source = empirical_measure(folner, x)
            costs = cost_matrix(source.support(), target.support(), metric)
            expected = two_atom_transport(
                [m for _, m in source.atoms], [m for _, m in target.atoms], costs
            )
            assert row.distance == expected


#: Few distinct costs, so tied differences c_i0 - c_i1 are common.
TIED_COSTS = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)])


@st.composite
def two_column_problems(draw):
    """m <= 8 rows onto two columns, with zero masses on either side."""
    supplies = _masses(draw(st.lists(st.integers(0, 6), min_size=1, max_size=8).filter(any)))
    demands = _masses(draw(st.lists(st.integers(0, 6), min_size=2, max_size=2).filter(any)))
    costs = [[draw(st.one_of(TIED_COSTS, COSTS)) for _ in range(2)] for _ in supplies]
    return supplies, demands, costs


@settings(max_examples=200, deadline=None)
@given(two_column_problems())
def test_two_column_start_is_the_knapsack_plan_and_needs_no_pivot(problem):
    supplies, demands, costs = problem
    passes = []
    entering_cell = transport._entering_cell
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_entering_cell", lambda *a: passes.append(a) or entering_cell(*a))
        value, flows = transportation_plan(supplies, demands, *_integer_costs(costs))
    assert len(passes) == 1
    assert flows == two_atom_plan(supplies, demands, costs)
    assert value == two_atom_transport(supplies, demands, costs)
    if len(supplies) <= 4:
        assert value == vertex_enumeration_transport(supplies, demands, costs)


@st.composite
def wide_problems(draw):
    """Up to 4 rows onto 3 to 5 columns, with zero masses on either side
    and few distinct costs."""
    supplies = _masses(draw(st.lists(st.integers(0, 6), min_size=1, max_size=4).filter(any)))
    demands = _masses(draw(st.lists(st.integers(0, 6), min_size=3, max_size=5).filter(any)))
    costs = [[draw(st.one_of(TIED_COSTS, COSTS)) for _ in demands] for _ in supplies]
    return supplies, demands, costs


def _is_spanning_tree(cells, m, n):
    root = list(range(m + n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j in cells:
        a, b = find(i), find(m + j)
        if a == b:
            return False
        root[a] = b
    return len(cells) == m + n - 1


@settings(max_examples=200, deadline=None)
@given(wide_problems())
def test_least_cost_start_is_a_feasible_spanning_tree_and_the_value_is_optimal(problem):
    supplies, demands, costs = problem
    m, n = len(supplies), len(demands)
    starts = []
    start_basis = transport._start_basis

    def recorded(rs, rd, cost):
        scaled = list(rs), list(rd)
        flow = start_basis(rs, rd, cost)
        starts.append((scaled, dict(flow)))
        return flow

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_start_basis", recorded)
        value, flows = transportation_plan(supplies, demands, *_integer_costs(costs))
    [((rs, rd), start)] = starts
    assert _is_spanning_tree(list(start), m, n)
    assert all(q >= 0 for q in start.values())
    assert [sum(q for (i, _), q in start.items() if i == r) for r in range(m)] == rs
    assert [sum(q for (_, j), q in start.items() if j == c) for c in range(n)] == rd
    assert _feasible(flows, supplies, demands)
    assert sum(q * costs[i][j] for (i, j), q in flows.items()) == value
    if m * n <= 12:
        assert value == vertex_enumeration_transport(supplies, demands, costs)


def test_wide_wf_transport_starts_at_its_optimum():
    """decay, hat(0) against hat(3), at n = 4: a 66x66 transport that took
    2,317 pricing passes from the north-west corner prices once from the
    least-cost start."""
    passes = []
    entering_cell = transport._entering_cell
    folner = rate_folner(RateSequence.from_preset("decay"), 4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_entering_cell", lambda *a: passes.append(a) or entering_cell(*a))
        [value] = wf_estimate([folner], hat(0), hat(3))
    assert len(passes) == 1
    assert value == Fraction(292489905781, 983315773440)


def test_wf_at_n5_on_decay_is_exact():
    """The 130x130 transport of decay, hat(0) against hat(3), at n = 5; the
    value is the one the north-west corner with Bland pivots reached."""
    folner = rate_folner(RateSequence.from_preset("decay"), 5)
    assert wf_estimate([folner], hat(0), hat(3)) == [
        Fraction(13190725487917507, 43988560551936000)
    ]


# ------------------------------------------------------ counted assignment


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.lists(TIED_COSTS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_solve_assignment_on_tied_costs_is_an_optimal_permutation(costs):
    value, assignment = solve_assignment(costs)
    assert value == unit_hungarian(costs)[0]
    assert sorted(assignment) == list(range(len(costs)))
    assert sum(costs[i][j] for i, j in enumerate(assignment)) == value


@st.composite
def counted_problems(draw):
    """Row and column counts (zeros allowed) with equal totals, and integer costs."""
    supply = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(any))
    demand = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(lambda d: sum(d) >= sum(supply)))
    # move the surplus off the demand side, last column first
    surplus = sum(demand) - sum(supply)
    for j in reversed(range(len(demand))):
        cut = min(surplus, demand[j])
        demand[j] -= cut
        surplus -= cut
    costs = [[draw(st.integers(0, 6)) for _ in demand] for _ in supply]
    return costs, supply, demand


@settings(max_examples=200, deadline=None)
@given(counted_problems())
def test_counted_kernel_equals_the_expanded_hungarian(problem):
    """The simplex on integer counts (zeros allowed) against the Hungarian
    solve of the problem expanded to one row and column per unit."""
    costs, supply, demand = problem
    total, flows = transportation_plan(supply, demand, *_integer_costs(costs))
    rows = [i for i, count in enumerate(supply) for _ in range(count)]
    cols = [j for j, count in enumerate(demand) for _ in range(count)]
    expanded, _ = unit_hungarian([[Fraction(costs[i][j]) for j in cols] for i in rows])
    assert total == expanded
    assert all(q > 0 and q.denominator == 1 for q in flows.values())
    assert [sum(q for (_, j), q in flows.items() if j == c) for c in range(len(demand))] == demand
    assert [sum(q for (i, _), q in flows.items() if i == r) for r in range(len(supply))] == supply
    assert total == sum(q * costs[i][j] for (i, j), q in flows.items())


ZERO_COSTS = [[Fraction(0)] * 4 for _ in range(4)]
DOMINANT_COSTS = [[Fraction(10**30) if (i, j) == (2, 1) else Fraction(1, 3) for j in range(5)] for i in range(5)]


@pytest.mark.parametrize(
    "costs, value",
    [(ZERO_COSTS, 0), (DOMINANT_COSTS, Fraction(5, 3))],
    ids=["all-zero", "one-dominant"],
)
def test_assignment_on_zero_and_dominant_costs_is_the_identity(costs, value):
    assert solve_assignment(costs) == (value, list(range(len(costs))))
    assert unit_hungarian(costs)[0] == value


def test_assignment_on_a_materialized_rate_set_equals_the_expanded_solve():
    folner = rate_folner(RateSequence.from_preset("decay"), 2)
    elements = folner.materialize()
    for x, y in [(hat(0), check(2)), (hat(-1), hat(3)), (INF_HAT, check(0))]:
        assigned = assignment_distance(folner, x, y)
        xs = [act(g, x) for g in elements]
        ys = [act(g, y) for g in elements]
        expanded, _ = unit_hungarian(cost_matrix(xs, ys, metric))
        assert assigned == expanded / len(elements)
        value, _ = wasserstein(empirical_measure(folner, x), empirical_measure(folner, y), metric)
        assert assigned == value


def test_assignment_at_the_guard_with_few_distinct_orbit_points():
    """4096 elements, but 8 shifts move x and y to at most 16 distinct
    points each, so the simplex solves a small counted problem, far inside
    the guard on distinct-point cells."""
    lamps = range(-4, 5)
    elements = [
        GroupElement(a, flips)
        for a in range(-4, 4)
        for size in range(len(lamps) + 1)
        for flips in combinations(lamps, size)
    ]
    assert len(elements) == 4096
    folner = explicit_folner(elements)
    x, y = hat(1), check(-2)
    value, _ = wasserstein(empirical_measure(folner, x), empirical_measure(folner, y), metric)
    assert assignment_distance(folner, x, y) == value


ELEMENTS = st.builds(
    GroupElement,
    st.integers(-2, 2),
    st.lists(st.integers(-3, 3), max_size=3, unique=True).map(sorted).map(tuple),
)
FINITE_POINTS = st.builds(lambda hatted, pos: (hat if hatted else check)(pos), st.booleans(), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(st.sets(ELEMENTS, min_size=1, max_size=64), FINITE_POINTS, FINITE_POINTS)
def test_assignment_with_repeated_orbit_points_equals_the_expanded_hungarian(elements, x, y):
    """Five shifts and two components leave at most 10 distinct orbit
    points, so sets of up to 64 elements repeat them.  The counted solve
    must match the Hungarian solve of the full |F| x |F| problem, which
    runs no simplex code."""
    folner = explicit_folner(elements)
    members = folner.elements
    expanded, _ = unit_hungarian(cost_matrix([act(g, x) for g in members], [act(g, y) for g in members], metric))
    assert assignment_distance(folner, x, y) == expanded / len(members)


def test_corrupted_flow_makes_wasserstein_raise():
    start_basis = transport._start_basis

    def corrupted(rs, rd, cost):
        flow = start_basis(rs, rd, cost)
        cell = next(iter(flow))
        flow[cell] += 1
        return flow

    mu, nu = DiscreteMeasure.point_mass(hat(0)), DiscreteMeasure.point_mass(hat(1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_start_basis", corrupted)
        with pytest.raises(ValueError, match="row marginal 0"):
            wasserstein(mu, nu, metric)


def test_dual_error_order_and_exact_bound():
    mu, nu = DiscreteMeasure.point_mass(hat(0)), DiscreteMeasure.point_mass(hat(2))

    def broken(*args):
        raise AssertionError("the metric must not be called")

    broken.integer_block = broken
    steep = lambda z: metric(z, hat(0))
    steep.lipschitz = Fraction(2)
    with pytest.raises(LipschitzViolation, match="declares Lipschitz constant 2"):
        dual_lower_bound(mu, nu, [steep], broken)
    gap = metric(hat(0), hat(2))
    tight = lambda z: metric(z, hat(0))
    assert dual_lower_bound(mu, nu, [tight], metric) == gap
    over = lambda z: metric(z, hat(0)) * (1 + Fraction(1, 10**9))
    with pytest.raises(LipschitzViolation, match="1-Lipschitz bound on"):
        dual_lower_bound(mu, nu, [over], metric)


#: Positions near the origin (many tied costs) and far out (large lcms).
POSITIONS = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6))
POINTS = st.one_of(
    st.sampled_from([INF_HAT, INF_CHECK]),
    st.builds(lambda hatted, pos: (hat if hatted else check)(pos), st.booleans(), POSITIONS),
)
#: Few distinct points, so measures share atoms and costs tie.
TIED_POINTS = st.one_of(st.sampled_from([INF_HAT, INF_CHECK]), FINITE_POINTS)


@st.composite
def measures(draw, points=TIED_POINTS):
    atoms = draw(st.lists(st.tuples(points, st.integers(1, 4)), min_size=1, max_size=6))
    total = sum(w for _, w in atoms)
    return DiscreteMeasure.from_pairs((p, Fraction(w, total)) for p, w in atoms)


@settings(max_examples=80, deadline=None)
@given(st.lists(POINTS, min_size=1, max_size=7), st.lists(POINTS, min_size=1, max_size=7))
def test_integer_block_cells_are_the_metric(sources, targets):
    sources = sources + sources[:2]  # duplicates
    rows, scale = metric.integer_block(sources, targets)
    assert [len(row) for row in rows] == [len(targets)] * len(sources)
    assert all(isinstance(c, int) for row in rows for c in row)
    for p, row in zip(sources, rows):
        assert [Fraction(c, scale) for c in row] == [metric(p, q) for q in targets]


def test_integer_block_is_carried_by_wrappers():
    """``functools.wraps`` copies the block, so a wrapped metric takes the
    same path as the plain one."""
    traced = functools.wraps(metric)(lambda p, q: metric(p, q))
    assert traced.integer_block is metric.integer_block


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([TIED_POINTS, POINTS]).flatmap(lambda points: st.tuples(measures(points), measures(points))))
def test_wasserstein_from_the_block_equals_the_oracle_costs(pair):
    """The value and plan of the simplex on the Fraction-per-cell costs."""
    mu, nu = pair
    supplies = [m for _, m in mu.atoms]
    demands = [m for _, m in nu.atoms]
    costs = cost_matrix(mu.support(), nu.support(), metric)
    value, flows = transportation_plan(supplies, demands, *_integer_costs(costs))
    want = TransportPlan(tuple(sorted((i, j, q) for (i, j), q in flows.items())))
    assert wasserstein(mu, nu, metric) == (value, want)


@settings(max_examples=60, deadline=None)
@given(measures(), measures(), st.lists(TIED_POINTS, max_size=3), st.integers(0, 10**9))
def test_dual_bound_from_the_block_equals_the_oracle_dual(mu, nu, anchors, excess):
    """Equal bounds, or the same Lipschitz violation on the same pair, as
    the dual checked pair by pair in Fraction."""
    witnesses = [ends_separator()] + [(lambda a: (lambda z: metric(z, a)))(a) for a in anchors]
    if excess:
        witnesses.append(lambda z: metric(z, INF_HAT) * (1 + Fraction(1, excess)))
    outcomes = []
    for dual in (dual_lower_bound, dual_bound):
        try:
            outcomes.append(dual(mu, nu, witnesses, metric))
        except LipschitzViolation as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def _drop_one_zero_cell(start):
    def short(rs, rd, cost):
        flow = start(rs, rd, cost)
        del flow[next(cell for cell, q in flow.items() if q == 0)]
        return flow

    return short


def _one_cell_too_many(start):
    def extra(rs, rd, cost):
        flow = start(rs, rd, cost)
        flow[next((i, j) for i in range(len(rs)) for j in range(len(rd)) if (i, j) not in flow)] = 0
        return flow

    return extra


def _cycle_instead_of_a_cell(start):
    def cyclic(rs, rd, cost):  # rows 0, 1 and columns 0, 1 close a cycle; row 2 is cut off
        return {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 0, (1, 0): 0}

    return cyclic


@pytest.mark.parametrize(
    "broken",
    [_drop_one_zero_cell, _one_cell_too_many, _cycle_instead_of_a_cell],
    ids=["one-short", "one-extra", "cycle"],
)
def test_start_that_is_not_a_spanning_tree_raises(broken):
    """A degenerate 3x3 problem: the least-cost start fills the diagonal and
    adds two zero-flow cells.  Without a spanning tree the cycle walk would
    never end, so the solve must refuse it."""
    third = [Fraction(1, 3)] * 3
    costs = [[Fraction(int(i != j)) for j in range(3)] for i in range(3)]
    assert transportation_plan(third, third, *_integer_costs(costs))[0] == 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_least_cost_start", broken(transport._least_cost_start))
        with pytest.raises(InvariantViolation, match="not a spanning tree"):
            transportation_plan(third, third, *_integer_costs(costs))
