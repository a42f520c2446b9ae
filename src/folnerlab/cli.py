"""Command-line front end.

Subcommands: folner, transport, dynamics, homeo, experiment.  Each
dynamics action is a one-scenario experiment: it runs the scenario that
DYNAMICS_ACTIONS names, with its flags as the scenario's parameters,
checked and written like a config's.  Exit codes: 0 ok, 1 usage error,
2 invariant failure, 3 guard violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, GuardViolation, InvariantViolation
from .exact import exact
from .experiment import (
    ExperimentConfig,
    ScenarioSpec,
    guard_violations,
    run_experiment,
    validate_config,
    violation_message,
    write_outputs,
)
from .folner import (
    RateSequence,
    box_folner,
    flip_balance,
    interleave_folner,
    left_defect,
    rate_folner,
    right_defect,
    translate_folner,
)
from .homeo import (
    HomeoFamily,
    IDENTITY_MAP,
    PLHomeo,
    end_mixture,
    endpoint_fractions,
    interval_distance,
    interval_empirical,
    matching_number,
    repelling_element,
    repelling_family,
)
from .lamplighter import FLIP, Point, metric, parse_word
from .transport import DiscreteMeasure, cost_matrix, dual_lower_bound, solve_assignment, wasserstein


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_json_list(path: str, keys: tuple[str, ...]) -> list[dict]:
    """The JSON file at ``path`` as a list of objects that each hold ``keys``.
    An unreadable file, malformed JSON or any other shape raises ValueError,
    which ``main`` reports as an ``error:`` line with exit code 1."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"cannot read {path} as JSON: {exc}") from exc
    if not isinstance(raw, list) or not all(
        isinstance(entry, dict) and all(key in entry for key in keys) for entry in raw
    ):
        raise ValueError(f"{path} must hold a JSON list of objects with keys {', '.join(keys)}")
    return raw


def _load_measure(path: str) -> DiscreteMeasure:
    pairs = []
    for entry in _read_json_list(path, ("point", "mass")):
        point = entry["point"]
        pairs.append((Point.from_dict(point) if isinstance(point, dict) else exact(point), entry["mass"]))
    return DiscreteMeasure.from_pairs(pairs)


def _measure_dist(mu: DiscreteMeasure):
    sample = mu.support()[0]
    return metric if isinstance(sample, Point) else interval_distance


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _run(config: ExperimentConfig, args) -> int:
    """Run the config with the --out, --seed and --format flags laid over
    it; the results go to stdout unless there is an out directory."""
    flags = {"out": args.out, "seed": args.seed, "fmt": args.fmt}
    config = replace(config, **{name: value for name, value in flags.items() if value is not None})
    table = run_experiment(config)
    write_outputs(table, config)
    if config.out is None:
        sys.stdout.write(table.to_csv() if config.fmt == "csv" else table.to_json())
    return table.exit_code()


def _number(value: Fraction) -> dict:
    return {"exact": str(value), "float": float(value)}


# ---------------------------------------------------------------- folner

def _cmd_folner(args) -> int:
    rate = RateSequence.from_preset(args.preset)
    if args.action == "build":
        if args.kind == "box":
            folner = box_folner(range(args.a_min, args.a_max + 1))
        else:
            folner = rate_folner(rate, args.n)
        payload = folner.to_dict()
        if args.materialize:
            payload["elements"] = [g.to_dict() for g in folner.materialize()]
        _emit(payload, args)
        return 0
    if args.action == "defect":
        folner = rate_folner(rate, args.n)
        g = parse_word(args.g)
        value = left_defect(folner, g) if args.side == "left" else right_defect(folner, g)
        _emit({"side": args.side, "word": args.g, "defect": _number(value)}, args)
        return 0
    if args.action == "balance":
        folner = (
            box_folner(range(args.a_min, args.a_max + 1))
            if args.kind == "box"
            else rate_folner(rate, args.n)
        )
        _emit({"position": args.b, "balance": _number(flip_balance(folner, args.b))}, args)
        return 0
    if args.action == "interleave":
        presets = [RateSequence.from_preset(p) for p in args.presets.split(",")]
        families = [
            (lambda r: (lambda j: rate_folner(r, j + 1)))(r) for r in presets
        ]
        schedule = [i % len(families) for i in range(args.count)]
        tests = [[FLIP, parse_word("s")] for _ in range(args.count)]
        chosen = interleave_folner(families, schedule, tests)
        _emit([dict(f.recipe) for f in chosen], args)
        return 0
    if args.action == "translate":
        sets = [rate_folner(rate, n) for n in range(1, args.n + 1)]
        words = args.g.split(",")
        if len(words) == 1:
            words = words * len(sets)
        translated = translate_folner(sets, [parse_word(w) for w in words])
        _emit([dict(f.recipe) | {"size": f.size} for f in translated], args)
        return 0


# -------------------------------------------------------------- transport

def _cmd_transport(args) -> int:
    mu = _load_measure(args.mu)
    nu = _load_measure(args.nu)
    if len({isinstance(p, Point) for p in mu.support() + nu.support()}) > 1:
        raise ValueError("--mu and --nu must hold only lamplighter points or only interval numbers")
    dist = _measure_dist(mu)
    if args.action == "wasserstein":
        value, plan = wasserstein(mu, nu, dist)
        _emit(
            {
                "value": _number(value),
                "plan": [[i, j, str(q)] for i, j, q in plan.flows],
            },
            args,
        )
        return 0
    if args.action == "assign":
        if len(mu.atoms) != len(nu.atoms) or any(m != mu.atoms[0][1] for _, m in mu.atoms + nu.atoms):
            raise UsageError("assign expects two uniform measures with equal support sizes")
        total, _ = solve_assignment(cost_matrix(mu.support(), nu.support(), dist))
        value = total / len(mu.atoms)
        _emit({"value": _number(value), "note": "uniform-uniform assignment equals transport"}, args)
        return 0
    if args.action == "dual":
        support = list(dict.fromkeys(mu.support() + nu.support()))
        witnesses = [(lambda p: (lambda z: dist(z, p)))(p) for p in support]
        value = dual_lower_bound(mu, nu, witnesses, dist)
        primal, _ = wasserstein(mu, nu, dist)
        _emit({"lower_bound": _number(value), "primal": _number(primal)}, args)
        return 0


# --------------------------------------------------------------- dynamics

_AVERAGING = ("averaging", {"preset": "rate", "g": "g", "nmax": "nmax"})

#: Each action: the scenario it runs, and the scenario parameter each flag sets.
DYNAMICS_ACTIONS = {
    "generic": ("genericity", {"preset": "rate", "nmax": "nmax"}),
    "rightavg": ("rightavg", {"nmax": "nmax"}),
    "seever": ("operator-identities", {"preset": "rate", "pairs": "pairs"}),
    "averaging": _AVERAGING,
    "tinv": _AVERAGING,
    "met": _AVERAGING,
    "thm-example": ("thm-example", {"case": "case"}),
}


def _cmd_dynamics(args) -> int:
    """The parser leaves a flag None unless it is given, so a flag the
    action does not map is a usage error, and a flag left out takes the
    scenario's default."""
    scenario, flags = DYNAMICS_ACTIONS[args.action]
    every = dict.fromkeys(flag for _, mapped in DYNAMICS_ACTIONS.values() for flag in mapped)
    given = {flag: getattr(args, flag) for flag in every if getattr(args, flag) is not None}
    stray = [f"--{flag}" for flag in given if flag not in flags]
    if stray:
        raise UsageError(f"dynamics {args.action} does not take {', '.join(stray)}")
    params = {param: given[flag] for flag, param in flags.items() if flag in given}
    return _run(ExperimentConfig((ScenarioSpec(scenario, params),)), args)


# ------------------------------------------------------------------ homeo

def _load_family(path: str | None) -> HomeoFamily:
    if path is None:
        return HomeoFamily((IDENTITY_MAP,), "identity")
    entries = _read_json_list(path, ("breakpoints",))
    for points in (entry["breakpoints"] for entry in entries):
        if not isinstance(points, list) or any(not isinstance(p, list) or len(p) != 2 for p in points):
            raise ValueError(f"{path}: breakpoints must be a list of [x, y] pairs, got {points!r}")
    return HomeoFamily(tuple(PLHomeo.from_dict(entry) for entry in entries), path)


def _cmd_homeo(args) -> int:
    if args.action == "match":
        left = _load_family(args.base)
        right = _load_family(args.other or args.base)
        value = matching_number(left, right, exact(args.radius))
        _emit({"matching": value, "left": len(left.members), "right": len(right.members)}, args)
        return 0
    if args.action == "repel":
        g = repelling_element(exact(args.x), exact(args.eps))
        _emit(g.to_dict(), args)
        return 0
    if args.action == "empirical":
        family = repelling_family(_load_family(args.base), args.n)
        y = exact(args.y)
        mu = interval_empirical(family, y)
        low, high = endpoint_fractions(family, y)
        value, _ = wasserstein(mu, end_mixture(y), interval_distance)
        _emit(
            {
                "measure": [{"point": float(p), "mass": float(m)} for p, m in mu.atoms],
                "low_fraction": _number(low),
                "high_fraction": _number(high),
                "w_to_end_mixture": _number(value),
            },
            args,
        )
        return 0


# ------------------------------------------------------------- experiment

def _cmd_experiment(args) -> int:
    config = validate_config(Path(args.config).read_text()) if args.config else ExperimentConfig(())
    return _run(config, args)


def build_parser() -> _Parser:
    parser = _Parser(prog="folnerlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out", default=None, help="output file; for dynamics and experiment, a results and manifest directory"
    )
    runs = argparse.ArgumentParser(add_help=False, parents=[common])
    runs.add_argument("--seed", type=int, default=None, help="seed for randomized suites")
    runs.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    folner = sub.add_parser("folner", parents=[common])
    folner.add_argument("action", choices=("build", "defect", "balance", "interleave", "translate"))
    folner.add_argument("--preset", default="r-const:0.5")
    folner.add_argument("--presets", default="r-zero,r-const:0.5", help="comma list (interleave)")
    folner.add_argument("--n", type=int, default=1)
    folner.add_argument("--kind", choices=("rate", "box"), default="rate")
    folner.add_argument("--a-min", type=int, default=-2)
    folner.add_argument("--a-max", type=int, default=2)
    folner.add_argument("--b", type=int, default=0)
    folner.add_argument("--g", default="s")
    folner.add_argument("--side", choices=("left", "right"), default="left")
    folner.add_argument("--count", type=int, default=3)
    folner.add_argument("--materialize", action="store_true")
    folner.set_defaults(func=_cmd_folner)

    transport = sub.add_parser("transport", parents=[common])
    transport.add_argument("action", choices=("wasserstein", "assign", "dual"))
    transport.add_argument("--mu", required=True)
    transport.add_argument("--nu", required=True)
    transport.set_defaults(func=_cmd_transport)

    dynamics = sub.add_parser("dynamics", parents=[runs])
    dynamics.add_argument("action", choices=tuple(DYNAMICS_ACTIONS))
    dynamics.add_argument("--case", choices=("a", "b", "c", "d"))
    dynamics.add_argument("--preset")
    dynamics.add_argument("--nmax", type=int)
    dynamics.add_argument("--pairs", type=int)
    dynamics.add_argument("--g")
    dynamics.set_defaults(func=_cmd_dynamics)

    homeo = sub.add_parser("homeo", parents=[common])
    homeo.add_argument("action", choices=("match", "repel", "empirical"))
    homeo.add_argument("--n", type=int, default=8)
    homeo.add_argument("--y", type=float, default=0.5)
    homeo.add_argument("--x", type=float, default=0.5)
    homeo.add_argument("--eps", type=float, default=0.125)
    homeo.add_argument("--radius", type=float, default=0.25)
    homeo.add_argument("--base", default=None, help="JSON file with a list of PL maps")
    homeo.add_argument("--other", default=None)
    homeo.set_defaults(func=_cmd_homeo)

    experiment = sub.add_parser("experiment", parents=[runs])
    experiment.add_argument("--config", default=None)
    experiment.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        for violation in exc.violations:
            print(violation_message(violation), file=sys.stderr)
        return 3 if guard_violations(exc) else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2
    except GuardViolation as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
