"""The three library workloads: inputs, timed calls and output checks.

Each workload is three functions.  ``inputs(seed)`` builds the program's
inputs (set-up, untimed); ``run(inputs, watch)`` makes the program calls,
timing them with ``watch`` and returning what they produced; ``check``
compares those outputs with ``oracle`` and records one operation per
comparison.  The program is reached through module attributes at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from folnerlab import dynamics, folner, functions, homeo, lamplighter, transport

import oracle

HAT, CHECK = oracle.HAT, oracle.CHECK


class Stopwatch:
    """Wall and CPU time summed over the ``with`` blocks it times."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._wall
        self.cpu += time.process_time() - self._cpu


def _point(key) -> lamplighter.Point:
    return lamplighter.Point(*key)


def _key(point) -> tuple:
    return (point.component, point.pos)


def _profile(rate):
    # The limit operator is keyed by a one-field wrapper today; accept its removal.
    wrapper = getattr(dynamics, "LimitProfile", None)
    return wrapper(rate) if wrapper is not None else rate


def _random_word(rng: random.Random) -> str:
    return " ".join(rng.choice("sSf") for _ in range(rng.randint(3, 5)))


# --------------------------------------------------------------- transport

#: Explicit sets for the assignment solver; the last three also get a brute force.
ASSIGN_SIZES = (56, 40, 5, 6, 7)
BRUTE_MAX = 7
#: The simplex instances are fixed, so every seed runs the same pivots:
#: genericity at n = 5, 6 (130x2 and 258x2) and wf at n = 3 (34x34).
GENERICITY = ("decay", (5, 6), (HAT, 3))
WF = ("decay", 3, (HAT, 3), (CHECK, 2))


def _random_elements(rng: random.Random, size: int) -> list[tuple[int, tuple[int, ...]]]:
    """Distinct elements with shifts in [-3, 3] and up to four lamps in
    [-6, 6]: many elements, few distinct orbit points."""
    chosen: set = set()
    while len(chosen) < size:
        flips = tuple(sorted(rng.sample(range(-6, 7), rng.randint(0, 4))))
        chosen.add((rng.randint(-3, 3), flips))
    return sorted(chosen)


def transport_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    instances = []
    for size in ASSIGN_SIZES:
        elements = _random_elements(rng, size)
        x = (rng.choice((HAT, CHECK)), rng.randint(-3, 3))
        y = (rng.choice((HAT, CHECK)), rng.randint(-3, 3))
        group = [lamplighter.GroupElement(a, flips) for a, flips in elements]
        instances.append((elements, x, y, folner.explicit_folner(group)))
    preset, sizes, x = GENERICITY
    rate = folner.RateSequence.from_preset(preset)
    generic = [folner.rate_folner(rate, n) for n in sizes]
    wf_preset, wf_n, wx, wy = WF
    wf_set = folner.rate_folner(folner.RateSequence.from_preset(wf_preset), wf_n)
    return {
        "instances": instances,
        "generic": (generic, _point(x), _profile(rate)),
        "wf": (wf_set, _point(wx), _point(wy)),
    }


def transport_run(inputs: dict, watch: Stopwatch) -> dict:
    metric = lamplighter.metric
    out: dict = {"assign": []}
    with watch:
        for _, x, y, fset in inputs["instances"]:
            px, py = _point(x), _point(y)
            assigned = transport.assignment_distance(fset, px, py)
            mu = dynamics.empirical_measure(fset, px)
            nu = dynamics.empirical_measure(fset, py)
            value, plan = transport.wasserstein(mu, nu, metric)
            out["assign"].append((assigned, value, plan.flows, mu.atoms, nu.atoms))
        sets, x, profile = inputs["generic"]
        rows, violations = dynamics.genericity_table(sets, x, profile)
        out["generic"] = ([(r.n, r.distance) for r in rows], violations)
        wf_set, wx, wy = inputs["wf"]
        forward = dynamics.wf_estimate([wf_set], wx, wy)[0]
        mu_y = dynamics.empirical_measure(wf_set, wy)
        mu_x = dynamics.empirical_measure(wf_set, wx)
        backward, plan = transport.wasserstein(mu_y, mu_x, metric)
        witnesses = [
            functions.ends_separator(),
            lambda p: lamplighter.metric(p, wx),
            lambda p: lamplighter.metric(p, wy),
        ]
        dual = transport.dual_lower_bound(mu_x, mu_y, witnesses, metric)
        out["wf"] = (forward, backward, dual, plan.flows, mu_y.atoms, mu_x.atoms)
    return out


def _check_plan(flows, rows_at, cols_at, want_rows: dict, want_cols: dict, ck, what: str) -> None:
    rows, cols = oracle.marginals(flows)
    got_rows = {_key(p): rows.get(i, 0) for i, (p, _) in enumerate(rows_at)}
    got_cols = {_key(p): cols.get(j, 0) for j, (p, _) in enumerate(cols_at)}
    ck.equal(got_rows, want_rows, f"{what}: plan row marginals")
    ck.equal(got_cols, want_cols, f"{what}: plan column marginals")


def transport_check(inputs: dict, out: dict, ck: oracle.Checks) -> None:
    for (elements, x, y, _), (assigned, value, flows, mu, nu) in zip(inputs["instances"], out["assign"]):
        what = f"assignment |F|={len(elements)}"
        ck.equal(assigned, value, f"{what}: assignment vs wasserstein")
        _check_plan(
            flows, mu, nu,
            oracle.explicit_empirical(elements, x), oracle.explicit_empirical(elements, y),
            ck, what,
        )
        if len(elements) <= BRUTE_MAX:
            xs = [oracle.act(a, flips, x) for a, flips in elements]
            ys = [oracle.act(a, flips, y) for a, flips in elements]
            costs = [[oracle.distance(p, q) for q in ys] for p in xs]
            ck.equal(assigned, oracle.brute_assignment(costs), f"{what}: brute force")
    preset, sizes, x = GENERICITY
    rows, violations = out["generic"]
    ck.equal([n for n, _ in rows], list(sizes), "genericity: rows")
    ck.equal(violations, [], "genericity: monotone decrease")
    for n, dist in rows:
        source = oracle.rate_set_empirical(preset, n, x)
        target = oracle.limit_masses(preset, x)
        ck.equal(dist, oracle.knapsack_to_two_atoms(source, target), f"genericity n={n}: knapsack")
        ck.expect(dist <= oracle.tau_bound(n), f"genericity n={n}: {dist} above tau {oracle.tau_bound(n)}")
    wf_preset, wf_n, wx, wy = WF
    forward, backward, dual, flows, mu_y, mu_x = out["wf"]
    ck.equal(backward, forward, "wf: W(y, x) vs W(x, y)")
    ck.expect(dual <= forward, f"wf: dual bound {dual} above W {forward}")
    _check_plan(
        flows, mu_y, mu_x,
        oracle.rate_set_empirical(wf_preset, wf_n, wy), oracle.rate_set_empirical(wf_preset, wf_n, wx),
        ck, "wf",
    )


# ---------------------------------------------------------------- counting

#: (preset, n): the largest n each preset counts within a few seconds.
COUNTING_SETS = (("const:1/2", 7), ("decay", 4), ("split", 4))
FIXED_WORDS = ("s", "S", "f")


def counting_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    g, h = _random_word(rng), _random_word(rng)
    words = FIXED_WORDS + (g, oracle.invert_word(g), h, f"{h} {g}")
    return {
        "words": words,
        "elements": [lamplighter.parse_word(w) for w in words],
        "sets": [
            (preset, n, folner.rate_folner(folner.RateSequence.from_preset(preset), n))
            for preset, n in COUNTING_SETS
        ],
    }


def counting_run(inputs: dict, watch: Stopwatch) -> list[dict]:
    out = []
    with watch:
        for _, n, fset in inputs["sets"]:
            # The first flip-carrying word fills the set's word caches; the rest reuse them.
            left = [folner.left_defect(fset, g) for g in inputs["elements"]]
            right = folner.right_defect(fset, lamplighter.FLIP)
            balance = [folner.flip_balance(fset, l) for l in range(-n, n + 1)]
            out.append({"left": left, "right": right, "balance": balance})
    return out


def counting_check(inputs: dict, out: list[dict], ck: oracle.Checks) -> None:
    for (preset, n, _), got in zip(inputs["sets"], out):
        what = f"{preset} n={n}"
        s, big_s, _, g, g_inv, h, gh = got["left"]
        ck.equal(s, oracle.shift_defect(n), f"{what}: left defect of s")
        ck.equal(big_s, oracle.shift_defect(n), f"{what}: left defect of S")
        ck.equal(got["right"], 2, f"{what}: right defect of f")
        ck.equal(g_inv, g, f"{what}: defect of g^-1 vs g")
        ck.expect(gh <= g + h, f"{what}: defect of gh {gh} above {g} + {h}")
        for l, value in zip(range(-n, n + 1), got["balance"]):
            ck.equal(value, oracle.rate_set_balance(preset, n, l), f"{what}: balance at {l}")
            ck.expect(
                abs(value - oracle.rate(preset, l)) <= Fraction(1, 4**n),
                f"{what}: balance {value} at {l} not within 4^-n of the rate",
            )


# ------------------------------------------------------------------- homeo

MATCH_N = 24
END_N = 64
BASE_SIZE = 3


def _random_map(rng: random.Random) -> homeo.PLHomeo:
    grid = [Fraction(i, 12) for i in range(1, 12)]
    xs, ys = sorted(rng.sample(grid, 3)), sorted(rng.sample(grid, 3))
    return homeo.pl_homeo([(0, 0), *zip(xs, ys), (1, 1)])


def homeo_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    base = homeo.HomeoFamily(tuple(_random_map(rng) for _ in range(BASE_SIZE)), "base")
    return {
        "base": base,
        "identity": homeo.HomeoFamily((homeo.IDENTITY_MAP,), "identity"),
        "mover": _random_map(rng),
        "ys": sorted(Fraction(k, 16) for k in rng.sample(range(1, 16), 3)),
    }


def homeo_run(inputs: dict, watch: Stopwatch) -> dict:
    with watch:
        family = homeo.repelling_family(inputs["base"], MATCH_N)
        identity = homeo.repelling_family(inputs["identity"], MATCH_N)
    distances = [
        [oracle.sup_distance(f.breakpoints, e.breakpoints) for e in identity.members]
        for f in family.members
    ]
    radius = oracle.radius_between(distances)
    with watch:
        matched = homeo.matching_number(family, identity, radius)
        g = inputs["mover"]
        moved = homeo.matching_number(
            homeo.compose_family(family, g), homeo.compose_family(identity, g), radius
        )
        wide = homeo.repelling_family(inputs["base"], END_N)
        ends = [
            (fam.n, y, homeo.endpoint_fractions(fam, y)) for fam in (family, wide) for y in inputs["ys"]
        ]
    return {
        "size": len(family.members),
        "distances": distances,
        "radius": radius,
        "matched": matched,
        "moved": moved,
        "ends": ends,
    }


def homeo_check(inputs: dict, out: dict, ck: oracle.Checks) -> None:
    adjacency = [[j for j, d in enumerate(row) if d < out["radius"]] for row in out["distances"]]
    reference = oracle.max_matching(adjacency, len(out["distances"][0]))
    ck.equal(out["matched"], reference, "matching number vs augmenting-path reference")
    ck.equal(out["moved"], out["matched"], "matching number after right composition")
    ck.expect(0 < out["matched"] < out["size"], f"matching number {out['matched']} not inside (0, {out['size']})")
    for n, y, (low, high) in out["ends"]:
        ck.expect(abs(low - (1 - y)) <= Fraction(2, n), f"n={n} y={y}: low fraction {low}")
        ck.expect(abs(high - y) <= Fraction(2, n), f"n={n} y={y}: high fraction {high}")


WORKLOADS = {
    "transport": (transport_inputs, transport_run, transport_check),
    "counting": (counting_inputs, counting_run, counting_check),
    "homeo": (homeo_inputs, homeo_run, homeo_check),
}
