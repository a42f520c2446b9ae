"""CLI surfaces, config validation, exit codes, and determinism."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import cost_matrix, two_atom_transport, unit_hungarian

from folnerlab import cli, experiment, homeo
from folnerlab.cli import ACTIONS, DUAL_MAX_POINTS, FLAGS, INTERLEAVE_MAX_COUNT, KIND_FLAGS, main
from folnerlab.dynamics import empirical_measure, limit_measure
from folnerlab.errors import ConfigError
from folnerlab.experiment import (
    ExperimentConfig,
    ResultTable,
    ScenarioSpec,
    guard_violations,
    run_experiment,
    validate_config,
)
from folnerlab.folner import BOX_SIZE_MAX_WIDTH, RateSequence, rate_folner
from folnerlab.homeo import (
    IDENTITY_MAP,
    MATCH_MAX_PAIRS,
    REPELLING_MAX_N,
    HomeoFamily,
    PLHomeo,
    endpoint_fractions,
    matching_number,
    repelling_family,
)
from folnerlab.lamplighter import Point, hat, metric
from folnerlab.transport import ASSIGNMENT_GUARD


def run_cli(*argv):
    return main(list(argv))


def test_folner_build_json(capsys):
    assert run_cli("folner", "build", "--preset", "r-const:0.5", "--n", "1", "--materialize") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 20
    assert len(payload["elements"]) == 20


def test_folner_build_box(capsys):
    assert run_cli("folner", "build", "--kind", "box", "--a-min", "-1", "--a-max", "1", "--materialize") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 3 * 8
    assert payload["recipe"]["kind"] == "box"


def test_folner_defect(capsys):
    assert run_cli("folner", "defect", "--preset", "r-zero", "--n", "2", "--g", "s") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defect"]["exact"] == "2/9"


def test_folner_balance_box(capsys):
    assert run_cli("folner", "balance", "--kind", "box", "--a-min", "-2", "--a-max", "2", "--b", "0") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["balance"]["exact"] == "1/2"


def test_folner_materialize_guard_exit_code(capsys):
    assert run_cli("folner", "build", "--n", "4", "--materialize") == 3


def test_folner_bad_word_exit_code(capsys):
    assert run_cli("folner", "defect", "--g", "s q") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("folner", "defect", "--n", "2"),
        ("transport", "wasserstein", "--mu", "mu.json", "--nu", "nu.json"),
        ("homeo", "repel"),
    ],
    ids=["folner", "transport", "homeo"],
)
@pytest.mark.parametrize("flag", [("--format", "csv"), ("--seed", "5")], ids=["format", "seed"])
def test_seed_and_format_are_usage_errors_where_they_do_not_act(capsys, argv, flag):
    assert run_cli(*argv, *flag) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: unrecognized arguments: " + flag[0])


def test_transport_commands(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    mu.write_text(
        json.dumps(
            [
                {"point": {"component": "hat", "pos": 0}, "mass": 0.5},
                {"point": {"component": "hat", "pos": 1}, "mass": 0.5},
            ]
        )
    )
    nu.write_text(
        json.dumps(
            [
                {"point": {"component": "hat", "pos": 0}, "mass": 0.5},
                {"point": {"component": "hat", "pos": 2}, "mass": 0.5},
            ]
        )
    )
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(nu)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"]["exact"] == "1/24"
    assert run_cli("transport", "assign", "--mu", str(mu), "--nu", str(nu)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"]["exact"] == "1/24"
    assert run_cli("transport", "dual", "--mu", str(mu), "--nu", str(nu)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"]["float"] <= payload["primal"]["float"]


def test_transport_assign_is_the_hungarian_value_per_atom(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    points_mu = [("hat", 0), ("hat", 3), ("check", 1)]
    points_nu = [("hat", 2), ("check", -1), ("check", 4)]
    for path, points in ((mu, points_mu), (nu, points_nu)):
        path.write_text(
            json.dumps([{"point": {"component": c, "pos": p}, "mass": "1/3"} for c, p in points])
        )
    assert run_cli("transport", "assign", "--mu", str(mu), "--nu", str(nu)) == 0
    total, _ = unit_hungarian(
        cost_matrix([Point(c, p) for c, p in points_mu], [Point(c, p) for c, p in points_nu], metric)
    )
    assert json.loads(capsys.readouterr().out)["value"]["exact"] == str(total / 3)


def test_transport_interval_measures(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    mu.write_text(json.dumps([{"point": 0.0, "mass": 1.0}]))
    nu.write_text(json.dumps([{"point": 1.0, "mass": 1.0}]))
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(nu)) == 0
    assert json.loads(capsys.readouterr().out)["value"]["float"] == 1.0


@pytest.mark.parametrize("point", ["1e400", 2, -5, "-1/3", "4/3"])
def test_transport_refuses_interval_points_outside_the_unit_interval(tmp_path, capsys, point):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([{"point": point, "mass": 1}]))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps([{"point": 1, "mass": 1}]))
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(nu)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {mu}: an interval point must be a number in [0, 1], got {point!r}\n"


def _write_lamplighter_measure(path, positions):
    atoms = [{"point": {"component": "hat", "pos": p}, "mass": f"1/{len(positions)}"} for p in positions]
    path.write_text(json.dumps(atoms))


@pytest.mark.parametrize("action", ["wasserstein", "assign", "dual"])
def test_transport_guards_refuse_before_any_cost(tmp_path, monkeypatch, capsys, action):
    """The atoms of --mu and --nu one cell past the assignment guard, or for
    the dual one support point past its ceiling, exit 3 before the metric's
    cost block is built."""

    def refuse(*args):
        raise AssertionError("the guard let the costs be built")

    monkeypatch.setattr(metric, "integer_block", refuse)
    mu, nu = tmp_path / "mu.json", tmp_path / "nu.json"
    if action == "dual":
        half = DUAL_MAX_POINTS // 2 + 1
        _write_lamplighter_measure(mu, range(half))
        _write_lamplighter_measure(nu, range(half, DUAL_MAX_POINTS + 1))
        message = f"the dual is checked on at most {DUAL_MAX_POINTS} support points, got {DUAL_MAX_POINTS + 1}"
    else:
        side = math.isqrt(ASSIGNMENT_GUARD)
        _write_lamplighter_measure(mu, range(side + 1))
        _write_lamplighter_measure(nu, range(side))
        message = f"{side + 1} x {side} atoms exceed the assignment guard of {ASSIGNMENT_GUARD} cells"
    assert run_cli("transport", action, "--mu", str(mu), "--nu", str(nu)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"guard violation: {message}\n"


def test_transport_refuses_non_finite_masses(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([{"point": {"component": "hat", "pos": 0}, "mass": "nan"}]))
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(mu)) == 1
    assert "not an exact number" in capsys.readouterr().err


def test_transport_refuses_masses_off_one_by_a_trillionth(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([{"point": 0, "mass": "1/2"}, {"point": 1, "mass": "500000000001/1000000000000"}]))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps([{"point": 0, "mass": 1}]))
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(nu)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: masses sum to 1000000000001/1000000000000")


MALFORMED_JSON = {
    "not-json": "{nope",
    "object": json.dumps({"point": 0, "mass": 1}),
    "number": "3",
    "string": json.dumps("x"),
    "null": "null",
    "empty": "[]",
    "list-of-lists": json.dumps([[0, 0], [1, 1]]),
    "no-point": json.dumps([{"mass": 1}]),
    "no-mass": json.dumps([{"point": 0}]),
    "point-without-pos": json.dumps([{"point": {"component": "hat"}, "mass": 1}]),
    "point-list": json.dumps([{"point": [1], "mass": 1}]),
    "mass-list": json.dumps([{"point": 0, "mass": [1]}]),
    "mass-null": json.dumps([{"point": 0, "mass": None}]),
    "mixed-points": json.dumps(
        [{"point": 0, "mass": "1/2"}, {"point": {"component": "hat", "pos": 0}, "mass": "1/2"}]
    ),
    "breakpoints-number": json.dumps([{"breakpoints": 3}]),
    "breakpoints-flat": json.dumps([{"breakpoints": [0, 1]}]),
    "breakpoints-triples": json.dumps([{"breakpoints": [[0, 0, 0], [1, 1, 1]]}]),
    "breakpoints-object-entry": json.dumps([{"breakpoints": [[{}, 0], [1, 1]]}]),
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_JSON) + ["directory", "missing", "not-utf8"])
def test_cli_readers_refuse_every_malformed_shape(tmp_path, capsys, shape):
    bad = tmp_path / "bad.json"
    if shape == "directory":
        bad.mkdir()
    elif shape == "not-utf8":
        bad.write_bytes(b"\xff\xfe\x00")
    elif shape != "missing":
        bad.write_text(MALFORMED_JSON[shape])
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps([{"point": 0, "mass": 1}]))
    for argv in (
        ("transport", "wasserstein", "--mu", str(bad), "--nu", str(ok)),
        ("transport", "wasserstein", "--mu", str(ok), "--nu", str(bad)),
        ("homeo", "match", "--base", str(bad)),
        ("homeo", "empirical", "--base", str(bad), "--n", "2"),
    ):
        assert run_cli(*argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), argv


BREAKPOINT_SHAPES = sorted(shape for shape in MALFORMED_JSON if shape.startswith("breakpoints-"))


@pytest.mark.parametrize("shape", BREAKPOINT_SHAPES)
def test_pl_maps_read_their_own_shape(shape):
    (entry,) = json.loads(MALFORMED_JSON[shape])
    with pytest.raises(ValueError):
        PLHomeo.from_dict(entry)


@pytest.mark.parametrize(
    "raw",
    [{"window": [1]}, {"window": "0"}, {"defualt": "1/2"}, {"default": 0, "windows": {}}, ["zero"], "zero"],
    ids=["window-list", "window-string", "misspelled-default", "misspelled-window", "list", "string"],
)
def test_rate_mappings_read_their_own_shape(raw):
    with pytest.raises(ValueError):
        RateSequence.from_dict(raw)


def test_misspelled_rate_key_is_a_config_error(tmp_path, capsys):
    config = {"scenarios": [{"id": "genericity", "params": {"nmax": 1, "rate": {"defualt": "1/2"}}}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("experiment", "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: scenarios[0].params.rate: ")
    assert "defualt" in captured.err


def test_unreadable_config_and_unwritable_output_exit_one(tmp_path, capsys):
    assert run_cli("experiment", "--config", str(tmp_path)) == 1
    assert run_cli("folner", "build", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.count("error: ") == 2


def test_transport_refuses_boolean_positions(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([{"point": {"component": "hat", "pos": True}, "mass": 1}]))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps([{"point": {"component": "hat", "pos": 1}, "mass": 1}]))
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(nu)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: position must be an integer or 'inf', got True\n"


def test_transport_refuses_mixed_measure_kinds(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([{"point": {"component": "hat", "pos": 0}, "mass": 1}]))
    nu = tmp_path / "nu.json"
    nu.write_text(json.dumps([{"point": 0, "mass": 1}]))
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(nu)) == 1
    assert "only lamplighter points or only interval numbers" in capsys.readouterr().err


def test_dynamics_thm_example(capsys):
    assert run_cli("dynamics", "thm-example", "--case", "d") == 0
    out = capsys.readouterr().out
    assert "continuous,1.0" in out
    assert "ergodic-everywhere,1.0" in out


def test_dynamics_generic_csv(capsys):
    assert run_cli("dynamics", "generic", "--preset", "r-const:0.5", "--nmax", "2") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "experiment,n,subject,quantity,value,provenance"
    assert len(lines) == 7


def test_dynamics_seever(capsys):
    assert run_cli("dynamics", "seever", "--preset", "r-decay", "--pairs", "5", "--seed", "1") == 0


def test_homeo_empirical(capsys):
    assert run_cli("homeo", "empirical", "--n", "8", "--y", "0.5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 <= payload["low_fraction"]["float"] <= 1
    assert payload["w_to_end_mixture"]["float"] > 0
    assert abs(sum(entry["mass"] for entry in payload["measure"]) - 1.0) < 1e-9


def test_homeo_empirical_action_exits_2_past_the_coupling_bound(capsys, monkeypatch):
    real = cli.orbit_to_ends
    monkeypatch.setattr(cli, "orbit_to_ends", lambda family, y: (*real(family, y)[:4], Fraction(0)))
    assert run_cli("homeo", "empirical", "--n", "8", "--y", "1/2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invariant failure: distance exceeds 0 at n=8, y=1/2\n"


def test_homeo_match_identity(capsys):
    assert run_cli("homeo", "match", "--radius", "0.25") == 0
    assert json.loads(capsys.readouterr().out)["matching"] == 1


def test_homeo_match_refuses_past_its_pair_ceiling_before_any_pair(tmp_path, monkeypatch, capsys):
    """Identity families one member past MATCH_MAX_PAIRS exit 3, naming both
    counts, before any pair of maps is compared."""

    def refuse(*args):
        raise AssertionError("the guard let the pairs be compared")

    monkeypatch.setattr(homeo, "_closer_than", refuse)
    side = math.isqrt(MATCH_MAX_PAIRS)
    for name, size in (("base.json", side + 1), ("other.json", side)):
        (tmp_path / name).write_text(json.dumps([IDENTITY_MAP.to_dict()] * size))
    monkeypatch.chdir(tmp_path)
    assert run_cli("homeo", "match", "--base", "base.json", "--other", "other.json") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"guard violation: {side + 1} x {side} members exceed the matching guard of {MATCH_MAX_PAIRS} pairs\n"
    )
    monkeypatch.setattr(homeo, "_closer_than", lambda f, g, radius: True)
    assert matching_number(HomeoFamily((IDENTITY_MAP,) * side), HomeoFamily((IDENTITY_MAP,) * side), 1) == side


def test_folner_interleave(capsys):
    assert run_cli("folner", "interleave", "--presets", "r-zero,r-const:0.5", "--count", "3") == 0
    recipes = json.loads(capsys.readouterr().out)
    assert [entry["kind"] for entry in recipes] == ["interleaved"] * 3
    assert [entry["family"] for entry in recipes] == ["0", "1", "0"]


def test_folner_translate(capsys):
    assert run_cli("folner", "translate", "--preset", "r-zero", "--n", "2", "--g", "s f") == 0
    recipes = json.loads(capsys.readouterr().out)
    assert [entry["kind"] for entry in recipes] == ["translated"] * 2
    assert [entry["size"] for entry in recipes] == [20, 9 * 16]


def _refuse(*args, **kwargs):
    raise AssertionError("the guard let the work start")


def test_folner_translate_checks_n_before_building_a_set(capsys, monkeypatch):
    monkeypatch.setattr(cli, "rate_folner", _refuse)
    assert run_cli("folner", "translate", "--preset", "r-zero", "--n", "20000") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard violation: rate sets materialize only for n <= 3, got n=20000\n"


def test_folner_interleave_count_has_a_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(cli, "interleave_folner", lambda *args: [])
    assert run_cli("folner", "interleave", "--count", str(INTERLEAVE_MAX_COUNT)) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "interleave_folner", _refuse)
    assert run_cli("folner", "interleave", "--count", "99999999999999999999") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"guard violation: the run-time guard allows --count <= {INTERLEAVE_MAX_COUNT}, got 99999999999999999999\n"
    )


def test_dynamics_other_actions(capsys):
    assert run_cli("dynamics", "rightavg", "--nmax", "3") == 0
    capsys.readouterr()
    assert run_cli("dynamics", "averaging", "--preset", "r-zero", "--nmax", "2", "--g", "s") == 0
    capsys.readouterr()
    assert run_cli("dynamics", "averaging", "--preset", "r-zero", "--g", "f") == 0
    out = capsys.readouterr().out
    assert "translation-gap,1.0" in out
    assert run_cli("dynamics", "averaging", "--preset", "r-const:0.5") == 0
    out = capsys.readouterr().out
    assert "residual,0.25" in out


@pytest.mark.parametrize("action", ["tinv", "met"])
def test_dynamics_averaging_has_one_name(capsys, action):
    assert run_cli("dynamics", action, "--preset", "r-zero") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: argument action: invalid choice: '{action}' (choose from ")


def test_homeo_repel(capsys):
    assert run_cli("homeo", "repel", "--x", "0.5", "--eps", "0.125") == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["breakpoints"]) == 4


def test_validate_config_minimal_roundtrip():
    config = validate_config('{"scenarios": [], "seed": 3}')
    assert config.scenarios == ()
    assert config.seed == 3
    assert validate_config(json.dumps(config.canonical())) == config
    table = run_experiment(config)
    assert table.rows == [] and table.exit_code() == 0


def test_validate_config_rejects_bad_rate():
    with pytest.raises(ConfigError) as err:
        validate_config(
            '{"scenarios": [{"id": "genericity", "params": {"rate": {"default": 1.5}}}]}'
        )
    assert any("rate" in v for v in err.value.violations)
    with pytest.raises(ConfigError) as err:
        validate_config('{"scenarios": [{"id": "genericity", "params": {"rate": {"window": [1]}}}]}')
    assert any("rate" in v for v in err.value.violations)


@pytest.mark.parametrize(
    "config, field",
    [
        ({"seed": True, "scenarios": []}, "seed"),
        ({"scenarios": [{"id": "rightavg", "params": {"nmax": True}}]}, "params.nmax"),
        ({"scenarios": [{"id": "homeo-empirical", "params": {"n": [4, True]}}]}, "params.n"),
        ({"scenarios": [{"id": "homeo-empirical", "params": {"y": [False]}}]}, "params.y"),
    ],
)
def test_config_integers_refuse_booleans(tmp_path, capsys, config, field):
    with pytest.raises(ConfigError) as err:
        validate_config(json.dumps(config))
    assert any(v.startswith(f"config error: {field}") or f".{field}:" in v for v in err.value.violations)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("experiment", "--config", str(path), "--out", str(tmp_path / "res")) == 1
    assert field in capsys.readouterr().err


def test_homeo_empirical_checks_the_coupling_bound(tmp_path, monkeypatch):
    rising = tmp_path / "rising.json"  # at y = 5/16 the distance rises from n = 8 to 16
    rising.write_text(
        json.dumps({"scenarios": [{"id": "homeo-empirical", "params": {"n": [8, 16, 32, 64], "y": [0.3125]}}]})
    )
    assert run_cli("experiment", "--config", str(rising), "--out", str(tmp_path / "res")) == 0
    real = experiment.repelling_family

    def identity_from_8(base, n):
        return HomeoFamily((IDENTITY_MAP,), "identity", n) if n >= 8 else real(base, n)

    monkeypatch.setattr(experiment, "repelling_family", identity_from_8)
    config = ExperimentConfig((ScenarioSpec("homeo-empirical", {"n": [4, 8, 16], "y": [0.5]}),), seed=1)
    table = run_experiment(config)
    assert table.failures == [
        "homeo-empirical: distance exceeds 67/192 at n=8, y=0.5",
        "homeo-empirical: distance exceeds 785/4352 at n=16, y=0.5",
    ]
    assert table.exit_code() == 2


def test_validate_config_guard_marked():
    with pytest.raises(ConfigError) as err:
        validate_config('{"scenarios": [{"id": "genericity", "params": {"nmax": 11}}]}')
    assert guard_violations(err.value)
    assert any("size guard" in v for v in err.value.violations)
    assert any("8194x2" in v for v in err.value.violations)


def test_genericity_guard_follows_the_simplex_size(tmp_path, capsys):
    within = tmp_path / "within.json"
    within.write_text(
        json.dumps({"scenarios": [{"id": "genericity", "params": {"rate": "const:1/2", "nmax": 4}}]})
    )
    assert run_cli("experiment", "--config", str(within), "--out", str(tmp_path / "res")) == 0
    rows = (tmp_path / "res" / "results.csv").read_text().splitlines()
    assert any(row.startswith("genericity,4,") for row in rows)
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"scenarios": [{"id": "genericity", "params": {"nmax": 11}}]}))
    capsys.readouterr()
    assert run_cli("experiment", "--config", str(over)) == 3
    assert "8194x2 transportation simplex" in capsys.readouterr().err


def test_validate_config_unknown_scenario():
    with pytest.raises(ConfigError) as err:
        validate_config('{"scenarios": [{"id": "mystery"}]}')
    assert not guard_violations(err.value)


def test_any_nonzero_seever_residual_fails(tmp_path, capsys, monkeypatch):
    tiny = lambda *args: Fraction(1, 10**13)  # noqa: E731
    monkeypatch.setattr("folnerlab.experiment.seever_residual", tiny)
    assert run_cli("dynamics", "seever", "--pairs", "2") == 2
    config = ExperimentConfig((ScenarioSpec("operator-identities", {"rate": "r-decay", "pairs": 2}),), seed=1)
    table = run_experiment(config)
    assert table.failures == ["operator-identities: Seever residual is 1/10000000000000, not 0"]
    assert table.exit_code() == 2


def test_experiment_cli_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scenarios": [{"id": "rightavg", "params": {"nmax": 2}}]}))
    assert run_cli("experiment", "--config", str(good), "--out", str(tmp_path / "res")) == 0
    guard = tmp_path / "guard.json"
    guard.write_text(json.dumps({"scenarios": [{"id": "genericity", "params": {"nmax": 11}}]}))
    assert run_cli("experiment", "--config", str(guard)) == 3
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert run_cli("experiment", "--config", str(malformed)) == 1


def test_experiment_deterministic_csv(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "seed": 11,
                "scenarios": [
                    {"id": "operator-identities", "params": {"rate": "r-decay", "pairs": 5}},
                    {"id": "rightavg", "params": {"nmax": 3}},
                ],
            }
        )
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("experiment", "--config", str(config_path), "--out", str(out_a)) == 0
    assert run_cli("experiment", "--config", str(config_path), "--out", str(out_b)) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["failures"] == []


def test_failure_exit_code_mapping():
    table = ResultTable()
    table.failures.append("synthetic failure")
    assert table.exit_code() == 2


def test_experiment_full_run_has_no_failures(tmp_path):
    config = ExperimentConfig(
        (
            ScenarioSpec("thm-example", {"case": "d", "bmax": 8}),
            ScenarioSpec("genericity", {"rate": "const:0.5", "nmax": 2}),
            ScenarioSpec("homeo-empirical", {"n": [4, 8], "y": [0.5]}),
            ScenarioSpec("folner-defect", {"rate": "zero", "nmax": 3}),
        ),
        seed=5,
    )
    table = run_experiment(config)
    assert table.failures == []
    assert table.exit_code() == 0
    tags = {row.provenance for row in table.rows}
    assert tags <= {"paper-bound", "closed-form", "brute-force-oracle"}


def test_usage_error_returns_one():
    assert run_cli("folner") == 1
    assert run_cli("nonexistent") == 1


def test_thm_example_case_b_over_the_whole_bmax_range(tmp_path):
    config = tmp_path / "b.json"
    config.write_text(json.dumps({"scenarios": [{"id": "thm-example", "params": {"case": "b", "bmax": 256}}]}))
    assert run_cli("experiment", "--config", str(config), "--out", str(tmp_path / "res")) == 0
    assert json.loads((tmp_path / "res" / "manifest.json").read_text())["failures"] == []
    rows = (tmp_path / "res" / "results.csv").read_text().splitlines()
    assert f"thm-example-b,,hat:256,w-to-hat-end,{1 / 258!r},closed-form" in rows
    assert "thm-example-b,,verdict,ergodic-somewhere,0.0,closed-form" in rows


def test_dynamics_generic_guard_exit_code(capsys):
    assert run_cli("dynamics", "generic", "--preset", "r-const:0.5", "--nmax", "11") == 3
    assert "8194x2" in capsys.readouterr().err


@pytest.mark.parametrize("action, size", [("generic", "(2^100002 + 2)x2"), ("averaging", "(2^100002 + 2)-atom")])
def test_guard_messages_past_the_print_limit(capsys, action, size):
    """2^100002 has more digits than Python prints, so the guard names the
    size as a formula and still exits 3."""
    assert run_cli("dynamics", action, "--preset", "r-decay", "--nmax", "100000") == 3
    err = capsys.readouterr().err
    assert err.startswith("guard violation: ") and "n = 100000" in err and size in err


def test_dynamics_generic_runs_past_the_old_guard(capsys):
    assert run_cli("dynamics", "generic", "--preset", "r-decay", "--nmax", "8") == 0
    rows = capsys.readouterr().out.splitlines()
    rate = RateSequence.from_preset("decay")
    source, target = empirical_measure(rate_folner(rate, 8), hat(0)), limit_measure(rate, hat(0))
    expected = two_atom_transport(
        [m for _, m in source.atoms],
        [m for _, m in target.atoms],
        cost_matrix(source.support(), target.support(), metric),
    )
    assert f"genericity,8,hat:0,w-to-limit,{float(expected)!r},closed-form" in rows


def test_folner_defect_params_checked_with_the_config():
    bad_word = {"scenarios": [{"id": "folner-defect", "params": {"generators": ["s", "q"]}}]}
    with pytest.raises(ConfigError) as err:
        validate_config(json.dumps(bad_word))
    assert any(".params.generators:" in v for v in err.value.violations)
    assert not guard_violations(err.value)
    # materialize is no parameter of the scenario: a config error, not a guard
    flagged = {"scenarios": [{"id": "folner-defect", "params": {"nmax": 5, "materialize": True}}]}
    with pytest.raises(ConfigError) as err:
        validate_config(json.dumps(flagged))
    assert err.value.violations == [
        "config error: scenarios[0].params.materialize: unknown parameter; accepted: rate, nmax, generators"
    ]
    assert not guard_violations(err.value)


def test_run_experiment_checks_unvalidated_params():
    with pytest.raises(ConfigError) as err:
        run_experiment(ExperimentConfig((ScenarioSpec("rightavg", {"nmax": 0}),)))
    assert any("nmax" in v for v in err.value.violations)


def test_folner_defect_counts_past_the_word_listing(capsys):
    assert run_cli("folner", "defect", "--preset", "r-decay", "--n", "10", "--g", "f s f") == 0
    assert json.loads(capsys.readouterr().out)["defect"]["exact"] == "13971595/537133056"
    assert run_cli("folner", "defect", "--preset", "r-decay", "--n", "64", "--g", "f s s f S S f") == 0
    capsys.readouterr()
    assert run_cli("folner", "defect", "--preset", "r-decay", "--n", "65") == 3
    assert "n <= 64" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["13", "20"])
def test_folner_build_refuses_sizes_past_the_print_limit(capsys, n):
    assert run_cli("folner", "build", "--kind", "rate", "--preset", "r-decay", "--n", n) == 3
    err = capsys.readouterr().err
    assert "guard violation" in err and "n <= 12" in err


def test_folner_build_prints_the_largest_size(capsys):
    assert run_cli("folner", "build", "--kind", "rate", "--preset", "r-decay", "--n", "12") == 0
    size = json.loads(capsys.readouterr().out)["size"]
    assert size == (2**13 + 1) * 4**12 * 2 ** (2 * (2**12 - 24))


def test_dynamics_met_guard_exit_code(capsys):
    assert run_cli("dynamics", "averaging", "--preset", "r-decay", "--g", "s", "--nmax", "11") == 3
    assert "8194-atom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("generic", "--nmax", "0"),
        ("generic", "--nmax", "-2"),
        ("rightavg", "--nmax", "0"),
        ("seever", "--pairs", "0"),
    ],
)
def test_dynamics_flags_out_of_range_exit_one(capsys, argv):
    assert run_cli("dynamics", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("averaging", "--pairs", "3"), "--pairs"),
        (("thm-example", "--preset", "nope"), "--preset"),
    ],
)
def test_dynamics_flag_the_action_does_not_map_is_a_usage_error(capsys, argv, flag):
    assert run_cli("dynamics", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: dynamics {argv[0]} does not take {flag}\n"


def test_guard_violations_print_as_guards(tmp_path, capsys):
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"scenarios": [{"id": "genericity", "params": {"nmax": 11}}]}))
    assert run_cli("experiment", "--config", str(over)) == 3
    assert capsys.readouterr().err.startswith(
        "guard violation: scenarios[0].params.nmax: n = 11 needs a 8194x2 transportation simplex"
    )
    assert run_cli("dynamics", "averaging", "--nmax", "11") == 3
    assert capsys.readouterr().err == (
        "guard violation: averaging.params.nmax: n = 11 averages over 8194-atom empirical measures; "
        "the guard allows n <= 10 (4098 atoms), got 11\n"
    )


def test_folner_balance_stops_at_the_print_limit(capsys):
    assert run_cli("folner", "balance", "--preset", "r-decay", "--n", "7142", "--b", "1") == 0
    assert json.loads(capsys.readouterr().out)["balance"]["float"] == pytest.approx(1 / 3)
    assert run_cli("folner", "balance", "--preset", "r-decay", "--n", "7143", "--b", "1") == 3
    err = capsys.readouterr().err
    assert err.startswith("guard violation: ") and "n <= 7142" in err


def test_dynamics_flags_left_out_take_the_scenario_defaults(tmp_path, capsys):
    assert run_cli("dynamics", "rightavg") == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1] == "rightavg,8,rate-zero,flip-balance,0.0,paper-bound"
    out = tmp_path / "res"
    assert run_cli("dynamics", "generic", "--out", str(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    default = ExperimentConfig((ScenarioSpec("genericity", {}),), out=str(out))
    assert manifest["config_hash"] == experiment.config_hash(default)


def test_dynamics_out_names_a_results_directory(tmp_path, capsys):
    out = tmp_path / "res"
    assert run_cli("dynamics", "rightavg", "--nmax", "2", "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert (out / "results.csv").read_text().splitlines()[1] == "rightavg,1,hat:0,check-mass,0.5,closed-form"
    assert json.loads((out / "manifest.json").read_text())["failures"] == []


#: The stdout of each ``dynamics`` action at fixed flags, recorded from a
#: run of that action once every action ran its registry scenario.
DYNAMICS_GOLDEN = json.loads((Path(__file__).parent / "cli_dynamics_golden.json").read_text())


def _dynamics_id(index: int, case: dict) -> str:
    """The action word; a case after the first of its action adds its flags."""
    earlier = {c["argv"][0] for c in DYNAMICS_GOLDEN[:index]}
    return " ".join(case["argv"]) if case["argv"][0] in earlier else case["argv"][0]


@pytest.mark.parametrize("case", DYNAMICS_GOLDEN, ids=[_dynamics_id(k, c) for k, c in enumerate(DYNAMICS_GOLDEN)])
def test_dynamics_output_is_byte_identical(capsys, case):
    assert run_cli("dynamics", *case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_every_dynamics_action_is_pinned():
    assert {case["argv"][0] for case in DYNAMICS_GOLDEN} == set(ACTIONS["dynamics"])


#: The stdout of each folner, transport and homeo action at fixed flags,
#: with its input files inline: the README examples, the CI steps, every
#: action bare (so the flag defaults are pinned) and the other branch of
#: each action.  Recorded before the actions shared one dispatcher.
ACTIONS_GOLDEN = json.loads((Path(__file__).parent / "cli_actions_golden.json").read_text())


@pytest.mark.parametrize("case", ACTIONS_GOLDEN, ids=[" ".join(case["argv"]) for case in ACTIONS_GOLDEN])
def test_action_output_is_byte_identical(tmp_path, monkeypatch, capsys, case):
    for name, content in case["files"].items():
        (tmp_path / name).write_text(json.dumps(content))
    monkeypatch.chdir(tmp_path)
    assert run_cli(*case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_every_action_is_pinned():
    pinned = {tuple(case["argv"][:2]) for case in ACTIONS_GOLDEN}
    tabled = {(command, action) for command, actions in ACTIONS.items() for action in actions}
    tabled -= {("dynamics", action) for action in ACTIONS["dynamics"]}
    assert pinned == tabled


def _stray_flags():
    """(argv, flag) for every flag of a subcommand that the action does not
    read; an action that takes --kind is tried under each kind."""
    for command, actions in ACTIONS.items():
        for action, (_, reads) in actions.items():
            kinds = KIND_FLAGS if "kind" in reads else {None: ()}
            for kind, kind_reads in kinds.items():
                argv = (command, action) + (() if kind is None else ("--kind", kind))
                for flag in FLAGS[command]:
                    if flag not in reads and flag not in kind_reads:
                        yield argv, flag


STRAY_FLAGS = list(_stray_flags())

#: A value each flag's parser accepts; the flag is refused before it is read.
STRAY_VALUES = {"kind": ("box",), "side": ("right",), "case": ("a",), "n": ("2",), "materialize": ()}


@pytest.mark.parametrize("argv, flag", STRAY_FLAGS, ids=[" ".join((*a, f)) for a, f in STRAY_FLAGS])
def test_a_flag_the_action_does_not_read_is_a_usage_error(capsys, argv, flag):
    option = "--" + flag.replace("_", "-")
    assert run_cli(*argv, option, *STRAY_VALUES.get(flag, ("1",))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {argv[0]} {argv[1]} does not take {option}\n"


@pytest.mark.parametrize(
    "argv, stray",
    [
        (
            ("folner", "defect", "--kind", "box", "--a-min", "-1", "--a-max", "1", "--n", "2", "--g", "s"),
            "--kind, --a-min, --a-max",
        ),
        (("homeo", "match", "--n", "64", "--y", "0.3"), "--n, --y"),
        (("folner", "build", "--kind", "box", "--preset", "r-zero", "--n", "2"), "--preset, --n"),
        (("folner", "balance", "--a-min", "-1", "--b", "0"), "--a-min"),
    ],
)
def test_stray_flags_are_named_in_one_usage_line(capsys, argv, stray):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {argv[0]} {argv[1]} does not take {stray}\n"


@pytest.mark.parametrize("command", list(ACTIONS))
def test_help_lists_every_action(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        run_cli(command, "--help")
    assert exit_.value.code == 0
    assert "{" + ",".join(ACTIONS[command]) + "}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, option",
    [
        (("transport", "wasserstein", "--mu", "a.json", "--nu", "b.json", "--n", "2"), "--n"),
        (("folner", "defect", "--pre", "r-zero"), "--pre"),
        (("homeo", "repel", "--ep", "0.1"), "--ep"),
        (("dynamics", "generic", "--nm", "2"), "--nm"),
        (("experiment", "--conf", "config.json"), "--conf"),
    ],
)
def test_no_option_matches_by_prefix(capsys, argv, option):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: unrecognized arguments: {option}")


def test_homeo_flags_are_read_as_exact_numbers(capsys):
    assert run_cli("homeo", "empirical", "--n", "8", "--y", "1/3") == 0
    payload = json.loads(capsys.readouterr().out)
    family = repelling_family(HomeoFamily((IDENTITY_MAP,), "identity"), 8)
    low, high = endpoint_fractions(family, Fraction(1, 3))
    assert (payload["low_fraction"]["exact"], payload["high_fraction"]["exact"]) == (str(low), str(high))
    assert run_cli("homeo", "repel", "--x", "1/3", "--eps", "1/7") == 0
    breakpoints = json.loads(capsys.readouterr().out)["breakpoints"]
    assert breakpoints == [["0", "0"], ["4/21", "1/7"], ["10/21", "6/7"], ["1", "1"]]
    for decimal, fraction in (("0.5", "1/2"), ("0.3125", "5/16"), ("1e-1", "1/10")):
        assert run_cli("homeo", "empirical", "--n", "8", "--y", decimal) == 0
        from_decimal = capsys.readouterr().out
        assert run_cli("homeo", "empirical", "--n", "8", "--y", fraction) == 0
        assert capsys.readouterr().out == from_decimal


@pytest.mark.parametrize(
    "argv",
    [
        ("empirical", "--y", "nan"),
        ("repel", "--eps", "inf"),
        ("match", "--radius", "1/0"),
        ("repel", "--x", ""),
    ],
)
def test_homeo_flags_refuse_what_is_no_exact_number(capsys, argv):
    assert run_cli("homeo", *argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: argument {argv[1]}: invalid exact value")


@pytest.mark.parametrize(
    "argv",
    [
        ("folner", "interleave", "--count", "0"),
        ("folner", "interleave", "--count", "-2"),
        ("folner", "translate", "--n", "0"),
        ("folner", "defect", "--n", "0"),
        ("folner", "build", "--n", "-1"),
    ],
)
def test_counting_flags_refuse_values_below_one(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument {argv[2]}: must be an integer in [1, inf]\n"


@pytest.mark.parametrize("radius", ["0", "-1", "-0.5", "0/7", "-1/3", "-1e-1"])
def test_match_radius_must_be_positive(capsys, radius):
    assert run_cli("homeo", "match", "--radius", radius) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: argument --radius: must be a number in (0, inf)\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("homeo", "repel", "--x", "-1/2"), "error: x must lie in [0, 1]"),
        (("homeo", "repel", "--eps", "-1e-1"), "error: eps must lie in (0, 1/2)"),
        (("homeo", "empirical", "--y", "-3/4"), "usage error: argument --y: must be a number in [0, 1]"),
    ],
)
def test_negative_fractions_are_flag_values(capsys, argv, message):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("folner", "build", "--kind", "box", "--a-min", "3", "--a-max", "2"),
        ("folner", "balance", "--kind", "box", "--a-min", "1", "--a-max", "-1", "--b", "0"),
    ],
)
def test_box_bounds_are_checked_at_the_flags(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    low, high = argv[argv.index("--a-min") + 1], argv[argv.index("--a-max") + 1]
    assert captured.err == f"usage error: --a-min must be at most --a-max, got {low} > {high}\n"


def test_flags_are_refused_by_their_config_twins(capsys):
    assert "choices" not in FLAGS["dynamics"]["case"][1]
    assert run_cli("dynamics", "thm-example", "--case", "e") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: thm-example.params.case: must be one of a, b, c, d\n"
    assert run_cli("homeo", "empirical", "--n", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: argument --n: must be an integer in [2, inf]\n"


@pytest.mark.parametrize(
    "scenario, params, ceiling",
    [("rightavg", {}, 256), ("folner-defect", {"rate": "decay"}, 32)],
)
def test_scenario_ceilings_run_and_guard_past_them(tmp_path, capsys, scenario, params, ceiling):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenarios": [{"id": scenario, "params": {**params, "nmax": ceiling}}]}))
    assert run_cli("experiment", "--config", str(path)) == 0
    assert f"\n{scenario},{ceiling}," in capsys.readouterr().out
    path.write_text(json.dumps({"scenarios": [{"id": scenario, "params": {**params, "nmax": ceiling + 1}}]}))
    assert run_cli("experiment", "--config", str(path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"guard violation: scenarios[0].params.nmax: the run-time guard allows n <= {ceiling}, got {ceiling + 1}\n"
    )


@pytest.mark.parametrize(
    "content, argv",
    [
        ([{"point": 0, "mass": True}], ("transport", "wasserstein", "--mu", "{}", "--nu", "{}")),
        ([{"point": True, "mass": 1}], ("transport", "wasserstein", "--mu", "{}", "--nu", "{}")),
        ([{"breakpoints": [[0, 0], [True, 1]]}], ("homeo", "match", "--base", "{}")),
        ({"rate": {"default": True}}, ("experiment", "--config", "{}")),
        ({"rate": {"default": 0, "window": {"0": True}}}, ("experiment", "--config", "{}")),
    ],
    ids=["mass", "point", "breakpoint", "rate-default", "rate-window"],
)
def test_json_booleans_are_no_numbers(tmp_path, capsys, content, argv):
    path = tmp_path / "input.json"
    if argv[0] == "experiment":
        content = {"scenarios": [{"id": "genericity", "params": {"nmax": 1, **content}}]}
    path.write_text(json.dumps(content))
    assert run_cli(*(arg.format(path) for arg in argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("error: ", "config error: "))
    assert "True is not an exact number" in captured.err


TOP_KEYS = "accepted: seed, format, out, scenarios"


@pytest.mark.parametrize(
    "config, messages",
    [
        ({"sede": 5, "scenarios": []}, [f"sede: unknown parameter; {TOP_KEYS}"]),
        ({"fromat": "json", "scenarios": []}, [f"fromat: unknown parameter; {TOP_KEYS}"]),
        (
            {"scenarios": [{"id": "rightavg", "parms": {"nmax": 1}}]},
            ["scenarios[0].parms: unknown parameter; accepted: id, params"],
        ),
        ({"seed": "5"}, ["seed: must be an integer in [-inf, inf]"]),
        ({"format": "xml", "out": 3}, ["format: must be one of csv, json", "out: must be a path string"]),
        ({"scenarios": {"id": "rightavg"}}, ["scenarios: must be a list of objects"]),
        ({"scenarios": [{"id": "rightavg", "params": []}]}, ["scenarios[0].params: must be an object"]),
        (
            {"scenarios": [{"params": {}}, {"id": "mystery"}, {"id": ["rightavg"]}]},
            [f"scenarios[{i}].id: must be one of {', '.join(experiment.SCENARIOS)}" for i in range(3)],
        ),
    ],
)
def test_config_keys_are_checked_like_parameters(tmp_path, capsys, config, messages):
    with pytest.raises(ConfigError) as err:
        validate_config(json.dumps(config))
    assert err.value.violations == [f"config error: {m}" for m in messages]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("experiment", "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"config error: {m}\n" for m in messages)


def test_homeo_n_and_y_read_alike_as_flags_and_in_a_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenarios": [{"id": "homeo-empirical", "params": {"n": [65], "y": ["1/3"]}}]}))
    assert run_cli("experiment", "--config", str(config)) == 0
    rows = capsys.readouterr().out.splitlines()
    assert run_cli("homeo", "empirical", "--n", "65", "--y", "1/3") == 0
    low = Fraction(json.loads(capsys.readouterr().out)["low_fraction"]["exact"])
    assert f"homeo-empirical,65,y=1/3,low-endpoint-fraction,{float(low)!r},closed-form" in rows
    assert run_cli("homeo", "empirical", "--y", "2") == 1
    assert capsys.readouterr().err == "usage error: argument --y: must be a number in [0, 1]\n"
    config.write_text(json.dumps({"scenarios": [{"id": "homeo-empirical", "params": {"n": [4, 1], "y": [2]}}]}))
    assert run_cli("experiment", "--config", str(config)) == 1
    assert capsys.readouterr().err == (
        "config error: scenarios[0].params.n: must be an integer in [2, inf]\n"
        "config error: scenarios[0].params.y: must be a number in [0, 1]\n"
    )


def test_repelling_families_stop_at_one_ceiling(tmp_path, capsys):
    over = str(REPELLING_MAX_N + 1)
    message = f"guard violation: repelling families are built only for n <= {REPELLING_MAX_N}, got n={over}\n"
    assert run_cli("homeo", "empirical", "--n", over) == 3
    assert capsys.readouterr().err == message
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenarios": [{"id": "homeo-empirical", "params": {"n": [int(over)]}}]}))
    assert run_cli("experiment", "--config", str(config)) == 3
    assert capsys.readouterr().err == message


PRINT_LIMIT = f"the result holds a number of more than {sys.get_int_max_str_digits()} digits, the print limit"


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("folner", "build", "--kind", "box", "--a-min", "-10000", "--a-max", "10000"),
            f"box sizes are built only up to width {BOX_SIZE_MAX_WIDTH}, got 20001",
        ),
        (("homeo", "empirical", "--n", "1778", "--y", "0.5"), PRINT_LIMIT),
    ],
    ids=["box-size", "homeo-distance"],
)
def test_results_past_the_print_limit_are_guard_violations(capsys, argv, message):
    """The box's size is refused before it is built, the distance when it is printed."""
    assert run_cli(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"guard violation: {message}\n"


@pytest.mark.parametrize("high", [str(BOX_SIZE_MAX_WIDTH), "99999999999999999999"])
def test_box_sizes_stop_at_the_print_limit(capsys, high):
    """The widest box whose size is built prints it in full; a box one
    position wider, or too wide for a range's length, is refused."""
    assert run_cli("folner", "build", "--kind", "box", "--a-min", "1", "--a-max", str(BOX_SIZE_MAX_WIDTH - 1)) == 0
    size = json.loads(capsys.readouterr().out)["size"]
    assert len(str(size)) == sys.get_int_max_str_digits()
    assert run_cli("folner", "build", "--kind", "box", "--a-min", "0", "--a-max", high) == 3
    width = int(high) + 1
    assert capsys.readouterr().err == (
        f"guard violation: box sizes are built only up to width {BOX_SIZE_MAX_WIDTH}, got {width}\n"
    )


def test_a_box_over_ten_to_the_twenty_balances_at_one_half(capsys):
    """A box is its two ends, so its balance is the closed form at any width."""
    bound = str(10**20)
    assert run_cli("folner", "balance", "--kind", "box", "--a-min", f"-{bound}", "--a-max", bound) == 0
    assert json.loads(capsys.readouterr().out)["balance"]["exact"] == "1/2"


def test_measure_and_family_files_refuse_extra_keys(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([{"point": "1/2", "mass": 1, "weight": 2}]))
    assert run_cli("transport", "wasserstein", "--mu", str(mu), "--nu", str(mu)) == 1
    assert capsys.readouterr().err == f"error: {mu} must hold a JSON list of objects with exactly the keys point, mass\n"
    base = tmp_path / "base.json"
    base.write_text(json.dumps([{"breakpoints": [[0, 0], [1, 1]], "label": "identity"}]))
    assert run_cli("homeo", "match", "--base", str(base)) == 1
    assert capsys.readouterr().err == f"error: {base} must hold a JSON list of objects with exactly the keys breakpoints\n"


@pytest.mark.parametrize("key", ["x", "1.5"])
def test_a_rate_window_key_is_named_when_refused(tmp_path, capsys, key):
    config = {"scenarios": [{"id": "genericity", "params": {"rate": {"window": {key: "1/2"}}}}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli("experiment", "--config", str(path)) == 1
    assert capsys.readouterr().err == (
        f"config error: scenarios[0].params.rate: rate window key {key!r} is not an integer position\n"
    )
