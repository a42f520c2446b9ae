"""Reproducible experiment scenarios with CSV/JSON export.

A config names scenarios and parameters; running one produces a sorted
result table (experiment, n, subject, quantity, value, provenance) plus a
manifest carrying the config hash, the seed, and any invariant failures.
Identical config and seed yield byte-identical CSV.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dynamics import (
    LimitProfile,
    averaging_residual,
    default_sample,
    empirical_measure,
    example_case,
    genericity_table,
    invariance_gap,
    limit_measure,
    seever_residual,
    translation_gap,
    verdicts,
)
from .errors import ConfigError
from .folner import (
    MATERIALIZE_MAX_N,
    RateSequence,
    box_folner,
    flip_balance,
    left_defect,
    rate_folner,
    right_defect,
)
from .functions import ends_separator, random_affine
from .homeo import (
    HomeoFamily,
    IDENTITY_MAP,
    end_mixture,
    endpoint_fractions,
    interval_distance,
    interval_empirical,
    repelling_family,
)
from .lamplighter import CHECK, FLIP, INF_HAT, SIGMA, SIGMA_INV, check, hat, metric, parse_word
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
            "rows": [
                {
                    "experiment": r.experiment,
                    "n": r.n,
                    "subject": r.subject,
                    "quantity": r.quantity,
                    "value": r.value,
                    "provenance": r.provenance,
                }
                for r in self.sorted_rows()
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def exit_code(self) -> int:
        return 2 if self.failures else 0


@dataclass(frozen=True)
class ScenarioSpec:
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


KNOWN_SCENARIOS = ("thm-example", "genericity", "rightavg", "operator-identities", "homeo-empirical", "folner-defect")

_GUARD_MARK = "guard:"

#: Largest genericity nmax.  Row n solves a transportation simplex of up to
#: (2^(n+2) + 2) x 2 cells; on a 2-core Xeon one row took 0.9 s at n = 7
#: (514 x 2) and 8.2 s at n = 8 (1026 x 2).
GENERICITY_MAX_N = 7


def _genericity_rows(n: int) -> int:
    """Atoms of the n-th empirical measure: two per shift in [-2^n, 2^n]."""
    return 2 * (2 ** (n + 1) + 1)


def _check_rate(params: dict, key: str, violations: list[str], where: str) -> None:
    raw = params.get(key)
    if raw is None:
        return
    if isinstance(raw, str):
        try:
            RateSequence.from_preset(raw)
        except ValueError as exc:
            violations.append(f"{where}.{key}: {exc}")
        return
    if isinstance(raw, dict):
        try:
            RateSequence.from_dict(raw)
        except ValueError as exc:
            violations.append(f"{where}.{key}: {exc}")
        return
    violations.append(f"{where}.{key}: expected a preset name or a rate mapping")


def validate_config(raw: str) -> ExperimentConfig:
    """Parse and range-check a config; raises ConfigError listing every
    violation (guard violations are prefixed so the CLI can exit 3)."""
    violations: list[str] = []
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(data, dict):
        raise ConfigError(["config must be a JSON object"])
    seed = data.get("seed", 0)
    if not isinstance(seed, int):
        violations.append("seed: must be an integer")
        seed = 0
    fmt = data.get("format", "csv")
    if fmt not in ("csv", "json"):
        violations.append("format: must be 'csv' or 'json'")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        violations.append("out: must be a path string")
        out = None
    scenarios: list[ScenarioSpec] = []
    raw_scenarios = data.get("scenarios", [])
    if not isinstance(raw_scenarios, list):
        violations.append("scenarios: must be a list")
        raw_scenarios = []
    for index, entry in enumerate(raw_scenarios):
        where = f"scenarios[{index}]"
        if not isinstance(entry, dict) or "id" not in entry:
            violations.append(f"{where}: each scenario needs an 'id'")
            continue
        sid = entry["id"]
        params = entry.get("params", {})
        if sid not in KNOWN_SCENARIOS:
            violations.append(f"{where}.id: unknown scenario {sid!r}")
            continue
        if not isinstance(params, dict):
            violations.append(f"{where}.params: must be an object")
            continue
        if sid == "thm-example":
            if params.get("case", "d") not in ("a", "b", "c", "d"):
                violations.append(f"{where}.params.case: must be one of a, b, c, d")
            bmax = params.get("bmax", 16)
            if not isinstance(bmax, int) or not 1 <= bmax <= 256:
                violations.append(f"{where}.params.bmax: must be an integer in [1, 256]")
        if sid == "genericity":
            _check_rate(params, "rate", violations, where)
            nmax = params.get("nmax", 3)
            if not isinstance(nmax, int) or nmax < 1:
                violations.append(f"{where}.params.nmax: must be a positive integer")
            elif nmax > GENERICITY_MAX_N:
                violations.append(
                    f"{_GUARD_MARK}{where}.params.nmax: n = {nmax} needs a "
                    f"{_genericity_rows(nmax)}x2 transportation simplex; the simplex size guard allows "
                    f"n <= {GENERICITY_MAX_N} ({_genericity_rows(GENERICITY_MAX_N)}x2), got {nmax}"
                )
        if sid == "rightavg":
            nmax = params.get("nmax", 8)
            if not isinstance(nmax, int) or not 1 <= nmax <= 10:
                violations.append(f"{where}.params.nmax: must be an integer in [1, 10]")
        if sid == "operator-identities":
            _check_rate(params, "rate", violations, where)
            pairs = params.get("pairs", 20)
            if not isinstance(pairs, int) or not 1 <= pairs <= 1000:
                violations.append(f"{where}.params.pairs: must be an integer in [1, 1000]")
        if sid == "homeo-empirical":
            sizes = params.get("n", [4, 8, 16, 32])
            if not isinstance(sizes, list) or any(
                not isinstance(n, int) or not 2 <= n <= 64 for n in sizes
            ):
                violations.append(f"{where}.params.n: must be a list of integers in [2, 64]")
            ys = params.get("y", [0.25, 0.5, 0.75])
            if not isinstance(ys, list) or any(
                not isinstance(y, (int, float)) or not 0 <= y <= 1 for y in ys
            ):
                violations.append(f"{where}.params.y: must be a list of numbers in [0, 1]")
        if sid == "folner-defect":
            _check_rate(params, "rate", violations, where)
            nmax = params.get("nmax", 4)
            if not isinstance(nmax, int) or not 1 <= nmax <= 8:
                violations.append(f"{where}.params.nmax: must be an integer in [1, 8]")
            if params.get("materialize") and isinstance(nmax, int) and nmax > MATERIALIZE_MAX_N:
                violations.append(
                    f"{_GUARD_MARK}{where}.params.nmax: materialize=true supports "
                    f"n <= {MATERIALIZE_MAX_N} (size guard), got {nmax}"
                )
        scenarios.append(ScenarioSpec(sid, params))
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(tuple(scenarios), seed=seed, fmt=fmt, out=out)


def guard_violations(error: ConfigError) -> list[str]:
    return [v for v in error.violations if v.startswith(_GUARD_MARK)]


def _rate_of(params: dict, default: str = "const:0.5") -> RateSequence:
    raw = params.get("rate", default)
    if isinstance(raw, dict):
        return RateSequence.from_dict(raw)
    return RateSequence.from_preset(raw)


def _run_thm_example(scenario: ScenarioSpec, rng, table: ResultTable) -> None:
    case = scenario.params.get("case", "d")
    bmax = scenario.params.get("bmax", 16)
    bundle = example_case(case)
    name = f"thm-example-{case}"
    continuous, pattern = verdicts(bundle.profile, bmax)
    table.rows.append(ResultRow(name, None, "verdict", "continuous", float(continuous), "closed-form"))
    table.rows.append(
        ResultRow(name, None, "verdict", "ergodic-everywhere", float(pattern == "all"), "closed-form")
    )
    table.rows.append(
        ResultRow(name, None, "verdict", "ergodic-somewhere", float(pattern != "none"), "closed-form")
    )
    if continuous != bundle.continuous or pattern != bundle.finite_ergodic:
        table.failures.append(f"{name}: computed verdicts diverge from the expected alternative")
    target = DiscreteMeasure.point_mass(INF_HAT)
    for b in range(-bmax, bmax + 1):
        mu = limit_measure(bundle.profile, hat(b))
        value, _ = wasserstein(mu, target, metric)
        expected = bundle.profile.rate.value(b)
        if value != expected:
            table.failures.append(f"{name}: W(limit at hat {b}, point mass) != rate value")
        table.rows.append(
            ResultRow(name, None, f"hat:{b}", "w-to-hat-end", float(value), "closed-form")
        )
        swapped = limit_measure(bundle.profile, check(b))
        hat_mass = mu.mass_where(lambda p: p.component != CHECK)
        swapped_check = swapped.mass_where(lambda p: p.component == CHECK)
        if hat_mass != swapped_check:
            table.failures.append(f"{name}: hat/check symmetry broken at position {b}")


def _run_genericity(scenario: ScenarioSpec, rng, table: ResultTable) -> None:
    rate = _rate_of(scenario.params)
    nmax = scenario.params.get("nmax", 3)
    profile = LimitProfile(rate)
    sets = [rate_folner(rate, n) for n in range(1, nmax + 1)]
    rows, violations = genericity_table(sets, hat(0), profile)
    table.failures.extend(f"genericity: {v}" for v in violations)
    for row in rows:
        table.rows.append(
            ResultRow("genericity", row.n, "hat:0", "w-to-limit", float(row.distance), "closed-form")
        )
        table.rows.append(
            ResultRow("genericity", row.n, "hat:0", "tolerance", float(row.bound), "closed-form")
        )
        folner = sets[row.n - 1]
        mass = empirical_measure(folner, hat(0)).mass_where(lambda p: p.component == CHECK)
        ratio = flip_balance(folner, 0)
        if mass != ratio:
            table.failures.append(f"genericity: check mass differs from support ratio at n={row.n}")
        table.rows.append(
            ResultRow("genericity", row.n, "hat:0", "check-mass", float(mass), "brute-force-oracle")
        )


def _run_rightavg(scenario: ScenarioSpec, rng, table: ResultTable) -> None:
    nmax = scenario.params.get("nmax", 8)
    for n in range(1, nmax + 1):
        box = box_folner(range(-n, n + 1))
        mass = empirical_measure(box, hat(0)).mass_where(lambda p: p.component == CHECK)
        table.rows.append(
            ResultRow("rightavg", n, "hat:0", "check-mass", float(mass), "closed-form")
        )
        if mass != Fraction(1, 2):
            table.failures.append(f"rightavg: check mass at n={n} is {mass}, expected 1/2")
        balance = flip_balance(rate_folner(RateSequence.constant(0), n), 0)
        table.rows.append(
            ResultRow("rightavg", n, "rate-zero", "flip-balance", float(balance), "paper-bound")
        )
        if balance != 0:
            table.failures.append(f"rightavg: zero-rate balance at n={n} is {balance}")


def _run_operator_identities(scenario: ScenarioSpec, rng, table: ResultTable) -> None:
    rate = _rate_of(scenario.params)
    pairs = scenario.params.get("pairs", 20)
    profile = LimitProfile(rate)
    sample = default_sample(8)
    worst_seever = Fraction(0)
    for _ in range(pairs):
        f, h = random_affine(rng), random_affine(rng)
        worst_seever = max(worst_seever, seever_residual(profile, f, h, sample))
        averaging_residual(profile, f, h, hat(rng.randint(-8, 8)))
    table.rows.append(
        ResultRow("operator-identities", None, "random-pairs", "seever-residual", float(worst_seever), "closed-form")
    )
    if worst_seever > Fraction(1, 10**12):
        table.failures.append("operator-identities: Seever residual exceeded tolerance")
    gap = translation_gap(profile, ends_separator(), FLIP, sample)
    table.rows.append(
        ResultRow("operator-identities", None, "flip", "translation-gap", float(gap), "closed-form")
    )
    checked = invariance_gap(limit_measure(profile, hat(0)))
    table.rows.append(
        ResultRow("operator-identities", None, "limit-at-hat0", "invariance-gap", float(checked), "closed-form")
    )
    if checked != 0:
        table.failures.append("operator-identities: limit measure is not invariant")


def _run_homeo(scenario: ScenarioSpec, rng, table: ResultTable) -> None:
    sizes = scenario.params.get("n", [4, 8, 16, 32])
    ys = scenario.params.get("y", [0.25, 0.5, 0.75])
    base = HomeoFamily((IDENTITY_MAP,), "identity")
    for y in ys:
        previous = None
        for n in sizes:
            family = repelling_family(base, n)
            low, high = endpoint_fractions(family, y)
            table.rows.append(
                ResultRow("homeo-empirical", n, f"y={y}", "low-endpoint-fraction", float(low), "closed-form")
            )
            table.rows.append(
                ResultRow("homeo-empirical", n, f"y={y}", "high-endpoint-fraction", float(high), "closed-form")
            )
            value, _ = wasserstein(interval_empirical(family, y), end_mixture(y), interval_distance)
            table.rows.append(
                ResultRow("homeo-empirical", n, f"y={y}", "w-to-end-mixture", float(value), "brute-force-oracle")
            )
            if previous is not None and value >= previous and 0 < float(y) < 1:
                table.failures.append(f"homeo-empirical: distance did not decrease at n={n}, y={y}")
            previous = value


def _run_folner_defect(scenario: ScenarioSpec, rng, table: ResultTable) -> None:
    rate = _rate_of(scenario.params, default="zero")
    nmax = scenario.params.get("nmax", 4)
    words = scenario.params.get("generators", ["s", "S", "f"])
    for n in range(1, nmax + 1):
        folner = rate_folner(rate, n)
        for word in words:
            g = parse_word(word)
            value = left_defect(folner, g)
            provenance = "closed-form" if g in (SIGMA, SIGMA_INV) else "brute-force-oracle"
            table.rows.append(
                ResultRow("folner-defect", n, f"g={word or 'e'}", "left-defect", float(value), provenance)
            )
        rvalue = right_defect(folner, FLIP)
        table.rows.append(
            ResultRow("folner-defect", n, "g=f", "right-defect", float(rvalue), "paper-bound")
        )
        if rvalue != 2:
            table.failures.append(f"folner-defect: right defect of the origin flip at n={n} is {rvalue}")


_RUNNERS = {
    "thm-example": _run_thm_example,
    "genericity": _run_genericity,
    "rightavg": _run_rightavg,
    "operator-identities": _run_operator_identities,
    "homeo-empirical": _run_homeo,
    "folner-defect": _run_folner_defect,
}


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run every scenario; deterministic for a fixed config and seed."""
    table = ResultTable()
    rng = random.Random(config.seed)
    for scenario in config.scenarios:
        _RUNNERS[scenario.id](scenario, rng, table)
    table.metadata = {
        "config_hash": config_hash(config),
        "seed": config.seed,
        "version": __version__,
        "rows": len(table.rows),
        "provenance_tags": list(PROVENANCE_TAGS),
    }
    return table


def write_outputs(table: ResultTable, config: ExperimentConfig) -> list[Path]:
    """Write results.(csv|json) plus manifest.json under the out directory."""
    if config.out is None:
        return []
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    result_path = out_dir / f"results.{config.fmt}"
    result_path.write_text(table.to_csv() if config.fmt == "csv" else table.to_json())
    written.append(result_path)
    manifest = dict(table.metadata)
    manifest["failures"] = table.failures
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)
    return written
