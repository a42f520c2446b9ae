"""Reproducible experiment scenarios with CSV/JSON export.

A config names scenarios and parameters; running one produces a sorted
result table (experiment, n, subject, quantity, value, provenance) plus a
manifest carrying the config hash, the seed, and any invariant failures.
Identical config and seed yield byte-identical CSV.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from .dynamics import (
    CASE_WIDTH,
    average_invariance_defect,
    averaging_guard,
    averaging_residual,
    default_sample,
    empirical_measure,
    example_case,
    genericity_guard,
    genericity_table,
    invariance_gap,
    limit_measure,
    seever_residual,
    translation_gap,
    verdicts,
)
from .errors import ConfigError, GuardViolation
from .exact import exact, is_integer
from .folner import RateSequence, box_folner, flip_balance, left_defect, rate_folner, right_defect
from .functions import ends_separator, random_affine
from .homeo import HomeoFamily, IDENTITY_MAP, orbit_to_ends, repelling_family
from .lamplighter import (
    CHECK,
    FLIP,
    INF_HAT,
    SIGMA,
    SIGMA_INV,
    GroupElement,
    check,
    hat,
    metric,
    parse_word,
)
from .transport import DiscreteMeasure, wasserstein

PROVENANCE_TAGS = ("paper-bound", "closed-form", "brute-force-oracle")

CSV_HEADER = "experiment,n,subject,quantity,value,provenance"


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    n: int | None
    subject: str
    quantity: str
    value: float
    provenance: str

    def csv_line(self) -> str:
        n = "" if self.n is None else str(self.n)
        return f"{self.experiment},{n},{self.subject},{self.quantity},{self.value!r},{self.provenance}"


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(
        self, experiment: str, n: int | None, subject: str, quantity: str, value, provenance: str
    ) -> None:
        self.rows.append(ResultRow(experiment, n, subject, quantity, float(value), provenance))

    def sorted_rows(self) -> list[ResultRow]:
        return sorted(
            self.rows, key=lambda r: (r.experiment, r.n if r.n is not None else -1, r.subject, r.quantity)
        )

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [r.csv_line() for r in self.sorted_rows()]) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": self.metadata,
            "failures": self.failures,
            "rows": [asdict(r) for r in self.sorted_rows()],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def exit_code(self) -> int:
        return 2 if self.failures else 0


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario as configured; ``params`` is the raw config mapping."""

    id: str
    params: dict


@dataclass(frozen=True)
class ExperimentConfig:
    scenarios: tuple[ScenarioSpec, ...]
    seed: int = 0
    fmt: str = "csv"
    out: str | None = None

    def canonical(self) -> dict:
        return {
            "scenarios": [{"id": s.id, "params": s.params} for s in self.scenarios],
            "seed": self.seed,
            "format": self.fmt,
            "out": self.out,
        }


@dataclass(frozen=True)
class Param:
    """One scenario parameter.  ``parse`` turns the raw config value into
    the value the runner reads, or raises ValueError naming the accepted
    range; ``guard`` raises GuardViolation when that value is past a cost
    guard."""

    default: object
    parse: Callable
    guard: Callable | None = None


@dataclass(frozen=True)
class Scenario:
    run: Callable
    params: dict[str, Param]


def resolve(params: dict[str, Param], raw: dict, where: str) -> tuple[dict, list[str]]:
    """The values ``params`` read from ``raw``, defaults filled in, and every
    violation as the CLI prints it: ``guard violation: `` or ``config error: ``,
    then ``where`` and the parameter.  A key that names no parameter is a
    violation too."""
    values = {}
    violations = [
        f"config error: {where}{name}: unknown parameter; accepted: {', '.join(params)}"
        for name in sorted(set(raw) - set(params))
    ]
    for name, param in params.items():
        try:
            values[name] = param.parse(raw.get(name, param.default))
            if param.guard is not None:
                param.guard(values[name])
        except GuardViolation as exc:
            violations.append(f"guard violation: {where}{name}: {exc}")
        except ValueError as exc:
            violations.append(f"config error: {where}{name}: {exc}")
    return values, violations


def _integer(low: int, high: float = math.inf) -> Callable:
    def parse(value):
        if not is_integer(value) or not low <= value <= high:
            raise ValueError(f"must be an integer in [{low}, {high}]")
        return value

    return parse


def _ceiling(high: int) -> Callable:
    def guard(n: int) -> None:
        if n > high:
            raise GuardViolation(f"the run-time guard allows n <= {high}, got {n}")

    return guard


def _choice(*options: str) -> Callable:
    def parse(value):
        if value not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return value

    return parse


def _list_of(item: Callable, what: str) -> Callable:
    """A list of ``what``, each entry read by ``item`` and refused in its words."""

    def parse(value):
        if not isinstance(value, list):
            raise ValueError(f"must be a list of {what}")
        return [item(entry) for entry in value]

    return parse


def _unit(value):
    """``value`` as given, once ``exact`` reads it as a number in [0, 1]."""
    if not 0 <= exact(value) <= 1:
        raise ValueError("must be a number in [0, 1]")
    return value


def _rate(value) -> RateSequence:
    if isinstance(value, str):
        return RateSequence.from_preset(value)
    if isinstance(value, dict):
        return RateSequence.from_dict(value)
    raise ValueError("expected a preset name or a rate mapping")


def _word(value) -> tuple[str, GroupElement]:
    if not isinstance(value, str):
        raise ValueError("must be a generator word")
    return value, parse_word(value)


def _run_thm_example(values: dict, rng, table: ResultTable) -> None:
    case, bmax = values["case"], values["bmax"]
    bundle = example_case(case)
    name = f"thm-example-{case}"
    continuous, pattern = verdicts(bundle.rate, bmax)
    table.add(name, None, "verdict", "continuous", continuous, "closed-form")
    table.add(name, None, "verdict", "ergodic-everywhere", pattern == "all", "closed-form")
    table.add(name, None, "verdict", "ergodic-somewhere", pattern != "none", "closed-form")
    if continuous != bundle.continuous or pattern != bundle.finite_ergodic:
        table.failures.append(f"{name}: computed verdicts diverge from the expected alternative")
    target = DiscreteMeasure.point_mass(INF_HAT)
    for b in range(-bmax, bmax + 1):
        mu = limit_measure(bundle.rate, hat(b))
        value, _ = wasserstein(mu, target, metric)
        if value != bundle.rate.value(b):
            table.failures.append(f"{name}: W(limit at hat {b}, point mass) != rate value")
        table.add(name, None, f"hat:{b}", "w-to-hat-end", value, "closed-form")
        swapped = limit_measure(bundle.rate, check(b))
        hat_mass = mu.mass_where(lambda p: p.component != CHECK)
        swapped_check = swapped.mass_where(lambda p: p.component == CHECK)
        if hat_mass != swapped_check:
            table.failures.append(f"{name}: hat/check symmetry broken at position {b}")


def _run_genericity(values: dict, rng, table: ResultTable) -> None:
    rate = values["rate"]
    sets = [rate_folner(rate, n) for n in range(1, values["nmax"] + 1)]
    rows, violations = genericity_table(sets, hat(0), rate)
    table.failures.extend(f"genericity: {v}" for v in violations)
    for folner, row in zip(sets, rows):
        table.add("genericity", row.n, "hat:0", "w-to-limit", row.distance, "closed-form")
        table.add("genericity", row.n, "hat:0", "tolerance", row.bound, "closed-form")
        if row.check_mass != flip_balance(folner, 0):
            table.failures.append(f"genericity: check mass differs from support ratio at n={row.n}")
        table.add("genericity", row.n, "hat:0", "check-mass", row.check_mass, "brute-force-oracle")


def _run_rightavg(values: dict, rng, table: ResultTable) -> None:
    for n in range(1, values["nmax"] + 1):
        mass = empirical_measure(box_folner(-n, n), hat(0)).mass_where(lambda p: p.component == CHECK)
        table.add("rightavg", n, "hat:0", "check-mass", mass, "closed-form")
        if mass != Fraction(1, 2):
            table.failures.append(f"rightavg: check mass at n={n} is {mass}, expected 1/2")
        balance = flip_balance(rate_folner(RateSequence.constant(0), n), 0)
        table.add("rightavg", n, "rate-zero", "flip-balance", balance, "paper-bound")
        if balance != 0:
            table.failures.append(f"rightavg: zero-rate balance at n={n} is {balance}")


def _run_operator_identities(values: dict, rng, table: ResultTable) -> None:
    rate = values["rate"]
    sample = default_sample(8)
    worst_seever = Fraction(0)
    for _ in range(values["pairs"]):
        f, h = random_affine(rng), random_affine(rng)
        worst_seever = max(worst_seever, seever_residual(rate, f, h, sample))
        averaging_residual(rate, f, h, hat(rng.randint(-8, 8)))
    table.add(
        "operator-identities", None, "random-pairs", "seever-residual", worst_seever, "closed-form"
    )
    if worst_seever != 0:
        table.failures.append(f"operator-identities: Seever residual is {worst_seever}, not 0")
    gap = translation_gap(rate, ends_separator(), FLIP, sample)
    table.add("operator-identities", None, "flip", "translation-gap", gap, "closed-form")
    checked = invariance_gap(limit_measure(rate, hat(0)))
    table.add(
        "operator-identities", None, "limit-at-hat0", "invariance-gap", checked, "closed-form"
    )
    if checked != 0:
        table.failures.append("operator-identities: limit measure is not invariant")


def _run_averaging(values: dict, rng, table: ResultTable) -> None:
    """The averaging residual and the translation gap of the limit operator
    on the ends separator, and the averaged Koopman defect of g for n = 1..nmax."""
    rate, (word, g), f = values["rate"], values["g"], ends_separator()
    sample = default_sample(8)
    residual = averaging_residual(rate, f, f, hat(0))
    table.add("averaging", None, "hat:0", "averaging-residual", residual, "closed-form")
    gap = translation_gap(rate, f, g, sample)
    table.add("averaging", None, word, "translation-gap", gap, "closed-form")
    for n in range(1, values["nmax"] + 1):
        defect = average_invariance_defect(rate_folner(rate, n), g, f, sample)
        table.add("averaging", n, word, "average-invariance-defect", defect, "brute-force-oracle")


def _run_homeo(values: dict, rng, table: ResultTable) -> None:
    """Orbit measures of y under the identity's repelling grid families,
    checked against the bound of ``orbit_to_ends``."""
    base = HomeoFamily((IDENTITY_MAP,), "identity")
    families = {n: repelling_family(base, n) for n in values["n"]}
    for y in values["y"]:
        for n in values["n"]:
            _, low, high, value, bound = orbit_to_ends(families[n], y)
            table.add("homeo-empirical", n, f"y={y}", "low-endpoint-fraction", low, "closed-form")
            table.add("homeo-empirical", n, f"y={y}", "high-endpoint-fraction", high, "closed-form")
            table.add("homeo-empirical", n, f"y={y}", "w-to-end-mixture", value, "brute-force-oracle")
            if value > bound:
                table.failures.append(f"homeo-empirical: distance exceeds {bound} at n={n}, y={y}")


def _run_folner_defect(values: dict, rng, table: ResultTable) -> None:
    for n in range(1, values["nmax"] + 1):
        folner = rate_folner(values["rate"], n)
        for word, g in values["generators"]:
            value = left_defect(folner, g)
            provenance = "closed-form" if g in (SIGMA, SIGMA_INV) else "brute-force-oracle"
            table.add("folner-defect", n, f"g={word or 'e'}", "left-defect", value, provenance)
        rvalue = right_defect(folner, FLIP)
        table.add("folner-defect", n, "g=f", "right-defect", rvalue, "paper-bound")
        if rvalue != 2:
            table.failures.append(f"folner-defect: right defect of the origin flip at n={n} is {rvalue}")


#: Every scenario: its runner and, per parameter, the one default, check and guard.
SCENARIOS = {
    "thm-example": Scenario(
        _run_thm_example,
        {"case": Param("d", _choice("a", "b", "c", "d")), "bmax": Param(16, _integer(1, CASE_WIDTH))},
    ),
    "genericity": Scenario(
        _run_genericity,
        {"rate": Param("const:0.5", _rate), "nmax": Param(3, _integer(1), genericity_guard)},
    ),
    # Ceiling from timed runs on a 2-vCPU Xeon: 0.1 s to n = 64, 1.1-1.3 s to 256.
    "rightavg": Scenario(_run_rightavg, {"nmax": Param(8, _integer(1), _ceiling(256))}),
    "operator-identities": Scenario(
        _run_operator_identities,
        {"rate": Param("const:0.5", _rate), "pairs": Param(20, _integer(1, 1000))},
    ),
    "averaging": Scenario(
        _run_averaging,
        {
            "rate": Param("const:0.5", _rate),
            "g": Param("f", _word),
            "nmax": Param(3, _integer(1), averaging_guard),
        },
    ),
    "homeo-empirical": Scenario(
        _run_homeo,
        {
            "n": Param([4, 8, 16, 32], _list_of(_integer(2), "integers")),
            # Each y is kept as written: it labels its rows as y=<value>.
            "y": Param([0.25, 0.5, 0.75], _list_of(_unit, "numbers")),
        },
    ),
    "folner-defect": Scenario(
        _run_folner_defect,
        {
            "rate": Param("zero", _rate),
            # Ceiling from timed runs on decay with s, S and f on a 2-vCPU Xeon:
            # 0.6 s to n = 32, 3.4 s to 48, 8.4 s to 64 (COUNT_MAX_N).
            "nmax": Param(4, _integer(1), _ceiling(32)),
            "generators": Param(["s", "S", "f"], _list_of(_word, "generator words")),
        },
    ),
}


def _of_type(kind: type, what: str) -> Callable:
    def parse(value):
        if not isinstance(value, kind):
            raise ValueError(f"must be {what}")
        return value

    return parse


#: The keys of a config, and of each of its scenario entries, read as parameters are.
CONFIG_KEYS = {
    "seed": Param(0, _integer(-math.inf)),
    "format": Param("csv", _choice("csv", "json")),
    "out": Param(None, _of_type((str, type(None)), "a path string")),
    "scenarios": Param([], _list_of(_of_type(dict, "a list of objects"), "objects")),
}
ENTRY_KEYS = {"id": Param(None, _choice(*SCENARIOS)), "params": Param({}, _of_type(dict, "an object"))}


def validate_config(raw: str) -> ExperimentConfig:
    """Parse and range-check a config; raises ConfigError listing every
    violation as the CLI prints it."""
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config error: config is not valid JSON: {exc}"])
    if not isinstance(data, dict):
        raise ConfigError(["config error: config must be a JSON object"])
    values, violations = resolve(CONFIG_KEYS, data, "")
    scenarios: list[ScenarioSpec] = []
    for index, entry in enumerate(values.get("scenarios", [])):
        where = f"scenarios[{index}]."
        spec, found = resolve(ENTRY_KEYS, entry, where)
        violations.extend(found)
        if not found:
            violations.extend(resolve(SCENARIOS[spec["id"]].params, spec["params"], f"{where}params.")[1])
            scenarios.append(ScenarioSpec(spec["id"], spec["params"]))
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(tuple(scenarios), seed=values["seed"], fmt=values["format"], out=values["out"])


def guard_violations(error: ConfigError) -> list[str]:
    return [v for v in error.violations if v.startswith("guard violation: ")]


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run every scenario; deterministic for a fixed config and seed."""
    table = ResultTable()
    rng = random.Random(config.seed)
    for spec in config.scenarios:
        scenario = SCENARIOS[spec.id]
        values, violations = resolve(scenario.params, spec.params, f"{spec.id}.params.")
        if violations:
            raise ConfigError(violations)
        scenario.run(values, rng, table)
    table.metadata = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "version": __version__,
        "rows": len(table.rows),
        "provenance_tags": list(PROVENANCE_TAGS),
    }
    return table


def write_outputs(table: ResultTable, config: ExperimentConfig) -> None:
    """Write results.(csv|json) plus manifest.json under the out directory."""
    if config.out is None:
        return
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"results.{config.fmt}").write_text(table.to_csv() if config.fmt == "csv" else table.to_json())
    manifest = dict(table.metadata)
    manifest["failures"] = table.failures
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
