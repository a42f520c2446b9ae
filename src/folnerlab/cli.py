"""Command-line front end.

Subcommands: folner, transport, dynamics, homeo, experiment.  ACTIONS names
each job's one action and the flags it reads, FLAGS declares each flag once,
and one dispatcher refuses any other flag.  No option matches by prefix.
Exit codes: 0 ok, 1 usage error, 2 invariant failure, 3 guard violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, GuardViolation, InvariantViolation, refuse_past
from .exact import exact
from .experiment import (
    ExperimentConfig,
    ScenarioSpec,
    _integer,
    _unit,
    guard_violations,
    run_experiment,
    validate_config,
    write_outputs,
)
from .folner import (
    MATERIALIZE_MAX_N,
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
    interval_distance,
    matching_number,
    orbit_to_ends,
    repelling_element,
    repelling_family,
)
from .lamplighter import FLIP, Point, metric, parse_word
from .transport import DiscreteMeasure, dual_lower_bound, wasserstein


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read -1/3 and -1e-1 as values too, not only argparse's -1 and -1.5.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _read_json_list(path: str, keys: tuple[str, ...]) -> list[dict]:
    """The JSON file at ``path`` as a list of objects that each hold exactly ``keys``.
    An unreadable file, malformed JSON or any other shape raises ValueError,
    which ``main`` reports as an ``error:`` line with exit code 1."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"cannot read {path} as JSON: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(e, dict) and e.keys() == set(keys) for e in raw):
        raise ValueError(f"{path} must hold a JSON list of objects with exactly the keys {', '.join(keys)}")
    return raw


def _load_measure(path: str) -> DiscreteMeasure:
    """The measure in the file at ``path``; each point is a lamplighter point or a number in [0, 1]."""
    pairs = []
    for entry in _read_json_list(path, ("point", "mass")):
        raw = entry["point"]
        point = Point.from_dict(raw) if isinstance(raw, dict) else exact(raw)
        if not isinstance(point, Point) and not 0 <= point <= 1:
            raise ValueError(f"{path}: an interval point must be a number in [0, 1], got {raw!r}")
        pairs.append((point, entry["mass"]))
    return DiscreteMeasure.from_pairs(pairs)


def _load_family(path: str | None) -> HomeoFamily:
    if path is None:
        return HomeoFamily((IDENTITY_MAP,), "identity")
    entries = _read_json_list(path, ("breakpoints",))
    return HomeoFamily(tuple(PLHomeo.from_dict(entry) for entry in entries), path)


def _emit(payload, args) -> None:
    """The payload as JSON, each Fraction in it as its exact string and its float."""
    try:
        text = json.dumps(
            payload, indent=2, sort_keys=True, default=lambda q: {"exact": str(q), "float": float(q)}
        ) + "\n"
    except ValueError as exc:  # an int with more digits than Python converts to a string
        limit = sys.get_int_max_str_digits()
        raise GuardViolation(f"the result holds a number of more than {limit} digits, the print limit") from exc
    if args.out:
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


def _checked(read, check):
    """An argparse type: the value ``read`` makes of the text, refused in ``check``'s words."""

    def parse(text: str):
        value = read(text)
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = read.__name__  # argparse names it when ``read`` refuses the text
    return parse


def _positive(value: Fraction) -> Fraction:
    if value <= 0:
        raise ValueError("must be a number in (0, inf)")
    return value


def _folner_set(args):
    """The box over --a-min..--a-max, or rate set n of --preset, as --kind says."""
    if args.kind == "box":
        if args.a_min > args.a_max:
            raise UsageError(f"--a-min must be at most --a-max, got {args.a_min} > {args.a_max}")
        return box_folner(args.a_min, args.a_max)
    return rate_folner(RateSequence.from_preset(args.preset), args.n)


def _build(args) -> dict:
    folner = _folner_set(args)
    payload = folner.to_dict()
    if args.materialize:
        payload["elements"] = [g.to_dict() for g in folner.materialize()]
    return payload


def _defect(args) -> dict:
    folner = rate_folner(RateSequence.from_preset(args.preset), args.n)
    defect = left_defect if args.side == "left" else right_defect
    return {"side": args.side, "word": args.g, "defect": defect(folner, parse_word(args.g))}


def _balance(args) -> dict:
    return {"position": args.b, "balance": flip_balance(_folner_set(args), args.b)}


#: Largest ``folner interleave --count``.  On a 2-vCPU Xeon under Python 3.11,
#: r-decay,r-split took 0.8 s at 128, 1.7-3.0 s at 256 and 4.5-5.7 s at 512.
INTERLEAVE_MAX_COUNT = 256


def _interleave(args) -> list:
    refuse_past(args.count, INTERLEAVE_MAX_COUNT, "--count")
    presets = [RateSequence.from_preset(p) for p in args.presets.split(",")]
    families = [lambda j, r=r: rate_folner(r, j + 1) for r in presets]
    schedule = [i % len(families) for i in range(args.count)]
    tests = [[FLIP, parse_word("s")] for _ in range(args.count)]
    return [dict(f.recipe) for f in interleave_folner(families, schedule, tests)]


def _translate(args) -> list:
    refuse_past(args.n, MATERIALIZE_MAX_N, "materialized rate-set n")
    rate = RateSequence.from_preset(args.preset)
    sets = [rate_folner(rate, n) for n in range(1, args.n + 1)]
    words = args.g.split(",")
    if len(words) == 1:
        words = words * len(sets)
    translated = translate_folner(sets, [parse_word(w) for w in words])
    return [dict(f.recipe) | {"size": f.size} for f in translated]


#: Largest count P of distinct support points of ``transport dual``, whose P witnesses each
#: check P(P-1)/2 pairs of O(P)-bit integers.  On a 2-vCPU Xeon under Python 3.11, measures of
#: random positions in +-10^6 took 1.25 s at P = 100 and 6.4 s at P = 150.
DUAL_MAX_POINTS = 100


def _measures(args):
    """--mu and --nu and their metric; ``dual`` refuses past ``DUAL_MAX_POINTS`` before any cost."""
    mu, nu = _load_measure(args.mu), _load_measure(args.nu)
    support = mu.support() + nu.support()
    if len({isinstance(p, Point) for p in support}) > 1:
        raise ValueError("--mu and --nu must hold only lamplighter points or only interval numbers")
    if args.action == "dual":
        refuse_past(len(set(support)), DUAL_MAX_POINTS, "dual support points")
    return mu, nu, metric if isinstance(support[0], Point) else interval_distance


def _wasserstein(args) -> dict:
    value, plan = wasserstein(*_measures(args))
    return {"value": value, "plan": [[i, j, str(q)] for i, j, q in plan.flows]}


def _assign(args) -> dict:
    mu, nu, dist = _measures(args)
    if len(mu.atoms) != len(nu.atoms) or any(m != mu.atoms[0][1] for _, m in mu.atoms + nu.atoms):
        raise UsageError("assign expects two uniform measures with equal support sizes")
    return {"value": wasserstein(mu, nu, dist)[0], "note": "uniform-uniform assignment equals transport"}


def _dual(args) -> dict:
    mu, nu, dist = _measures(args)
    witnesses = [lambda z, p=p: dist(z, p) for p in dict.fromkeys(mu.support() + nu.support())]
    primal, _ = wasserstein(mu, nu, dist)
    return {"lower_bound": dual_lower_bound(mu, nu, witnesses, dist), "primal": primal}


def _match(args) -> dict:
    left, right = _load_family(args.base), _load_family(args.other or args.base)
    value = matching_number(left, right, args.radius)
    return {"matching": value, "left": len(left.members), "right": len(right.members)}


def _repel(args) -> dict:
    return repelling_element(args.x, args.eps).to_dict()


def _empirical(args) -> dict:
    family = repelling_family(_load_family(args.base), args.n)
    mu, low, high, value, bound = orbit_to_ends(family, args.y)
    if value > bound:
        raise InvariantViolation(f"distance exceeds {bound} at n={args.n}, y={args.y}")
    return {
        "measure": [{"point": float(p), "mass": float(m)} for p, m in mu.atoms],
        "low_fraction": low,
        "high_fraction": high,
        "w_to_end_mixture": value,
    }


#: The flags that each folner --kind reads.
KIND_FLAGS = {"rate": ("preset", "n"), "box": ("a_min", "a_max")}

#: Each subcommand's flags: the value a flag takes when left out, and its argparse keywords.
FLAGS = {
    "folner": {
        "preset": ("r-const:0.5", {}),
        "presets": ("r-zero,r-const:0.5", {"help": "comma list of rate presets"}),
        "n": (1, {"type": _checked(int, _integer(1))}),
        "kind": ("rate", {"choices": tuple(KIND_FLAGS)}),
        "a_min": (-2, {"type": int}),
        "a_max": (2, {"type": int}),
        "b": (0, {"type": int}),
        "g": ("s", {}),
        "side": ("left", {"choices": ("left", "right")}),
        "count": (3, {"type": _checked(int, _integer(1))}),
        "materialize": (False, {"action": "store_true"}),
    },
    "transport": {"mu": (None, {"required": True}), "nu": (None, {"required": True})},
    "dynamics": {
        "preset": (None, {}),
        "nmax": (None, {"type": int}),
        "pairs": (None, {"type": int}),
        "g": (None, {}),
        "case": (None, {}),
    },
    "homeo": {
        "n": (8, {"type": _checked(int, _integer(2))}),
        "y": (Fraction(1, 2), {"type": _checked(exact, _unit)}),
        "x": (Fraction(1, 2), {"type": exact}),
        "eps": (Fraction(1, 8), {"type": exact}),
        "radius": (Fraction(1, 4), {"type": _checked(exact, _positive)}),
        "base": (None, {"help": "JSON file with a list of PL maps"}),
        "other": (None, {}),
    },
}

#: Each subcommand's actions: a handler that returns the payload and the flags it reads,
#: or for dynamics the scenario the action runs and the parameter each flag sets.
ACTIONS = {
    "folner": {
        "build": (_build, ("kind", "materialize")),
        "defect": (_defect, ("preset", "n", "g", "side")),
        "balance": (_balance, ("kind", "b")),
        "interleave": (_interleave, ("presets", "count")),
        "translate": (_translate, ("preset", "n", "g")),
    },
    "transport": {
        "wasserstein": (_wasserstein, ("mu", "nu")),
        "assign": (_assign, ("mu", "nu")),
        "dual": (_dual, ("mu", "nu")),
    },
    "dynamics": {
        "generic": ("genericity", {"preset": "rate", "nmax": "nmax"}),
        "rightavg": ("rightavg", {"nmax": "nmax"}),
        "seever": ("operator-identities", {"preset": "rate", "pairs": "pairs"}),
        "averaging": ("averaging", {"preset": "rate", "g": "g", "nmax": "nmax"}),
        "thm-example": ("thm-example", {"case": "case"}),
    },
    "homeo": {
        "match": (_match, ("base", "other", "radius")),
        "repel": (_repel, ("x", "eps")),
        "empirical": (_empirical, ("base", "n", "y")),
    },
}


def _dispatch(args) -> int:
    """The parser leaves a flag None unless it is given.  A given flag the action
    does not read is a usage error; one left out takes its FLAGS default."""
    flags = FLAGS[args.command]
    runs, reads = ACTIONS[args.command][args.action]
    given = [flag for flag in flags if getattr(args, flag) is not None]
    vars(args).update({flag: default for flag, (default, _) in flags.items() if flag not in given})
    if "kind" in reads:
        reads = (*reads, *KIND_FLAGS[args.kind])
    stray = ["--" + flag.replace("_", "-") for flag in given if flag not in reads]
    if stray:
        raise UsageError(f"{args.command} {args.action} does not take {', '.join(stray)}")
    if isinstance(runs, str):
        params = {param: getattr(args, flag) for flag, param in reads.items() if flag in given}
        return _run(ExperimentConfig((ScenarioSpec(runs, params),)), args)
    _emit(runs(args), args)
    return 0


def _cmd_experiment(args) -> int:
    config = validate_config(Path(args.config).read_text()) if args.config else ExperimentConfig(())
    return _run(config, args)


def build_parser() -> _Parser:
    parser = _Parser(prog="folnerlab", description=__doc__, allow_abbrev=False)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file")
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--out", help="directory for results and manifest.json")
    runs.add_argument("--seed", type=int, help="seed for randomized suites")
    runs.add_argument("--format", dest="fmt", choices=("csv", "json"))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, actions in ACTIONS.items():
        parents = [runs if command == "dynamics" else common]
        subparser = sub.add_parser(command, parents=parents, allow_abbrev=False)
        subparser.add_argument("action", choices=tuple(actions))
        for flag, (_, keywords) in FLAGS[command].items():
            subparser.add_argument("--" + flag.replace("_", "-"), default=None, **keywords)
    sub.add_parser("experiment", parents=[runs], allow_abbrev=False).add_argument("--config")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _cmd_experiment(args) if args.command == "experiment" else _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print("\n".join(exc.violations), file=sys.stderr)
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
