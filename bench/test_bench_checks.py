"""Each benchmark check reports a failed operation when fed a wrong value.

The workloads run on shrunken inputs so this file takes seconds: first
the true outputs must pass every check, then each output is corrupted in
turn and the check that guards it must fail.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import cli_workload  # noqa: E402
import library  # noqa: E402
import oracle  # noqa: E402
from folnerlab import experiment  # noqa: E402


def _outputs(monkeypatch, workload: str, **small):
    for name, value in small.items():
        monkeypatch.setattr(library, name, value)
    make_inputs, run, check = library.WORKLOADS[workload]
    inputs = make_inputs(5)
    outputs = run(inputs, library.Stopwatch())
    ck = oracle.Checks()
    check(inputs, outputs, ck)
    assert ck.failures == [] and ck.attempted > 0
    return inputs, outputs, check


def _fails(check, inputs, outputs, mutate, message: str) -> None:
    wrong = copy.deepcopy(outputs)
    mutate(wrong)
    ck = oracle.Checks()
    check(inputs, wrong, ck)
    assert any(message in f for f in ck.failures), ck.failures


def _bump_flow(flows):
    (i, j, mass), *rest = flows
    return ((i, j, mass + Fraction(1, 7)), *rest)


TRANSPORT_CASES = {
    "assignment vs wasserstein": lambda o: o["assign"].__setitem__(0, (o["assign"][0][0] + 1, *o["assign"][0][1:])),
    "plan row marginals": lambda o: o["assign"].__setitem__(
        1, (*o["assign"][1][:2], _bump_flow(o["assign"][1][2]), *o["assign"][1][3:])
    ),
    "brute force": lambda o: o["assign"].__setitem__(
        2, (o["assign"][2][0] + 1, o["assign"][2][1] + 1, *o["assign"][2][2:])
    ),
    "genericity: rows": lambda o: o.__setitem__("generic", (o["generic"][0][:1], o["generic"][1])),
    "monotone decrease": lambda o: o.__setitem__("generic", (o["generic"][0], ["increase"])),
    "knapsack": lambda o: o.__setitem__(
        "generic", ([(n, d + Fraction(1, 10**6)) for n, d in o["generic"][0]], o["generic"][1])
    ),
    "above tau": lambda o: o.__setitem__("generic", ([(n, Fraction(1)) for n, _ in o["generic"][0]], o["generic"][1])),
    "W(y, x) vs W(x, y)": lambda o: o.__setitem__("wf", (o["wf"][0], o["wf"][1] + 1, *o["wf"][2:])),
    "dual bound": lambda o: o.__setitem__("wf", (*o["wf"][:2], o["wf"][0] + 1, *o["wf"][3:])),
    "wf: plan column marginals": lambda o: o.__setitem__("wf", (*o["wf"][:3], _bump_flow(o["wf"][3]), *o["wf"][4:])),
}


@pytest.mark.parametrize("message", sorted(TRANSPORT_CASES))
def test_transport_checks(monkeypatch, message):
    inputs, outputs, check = _outputs(
        monkeypatch,
        "transport",
        ASSIGN_SIZES=(6, 5, 4),
        GENERICITY=("decay", (1, 2), (oracle.HAT, 1)),
        WF=("decay", 1, (oracle.HAT, 0), (oracle.CHECK, 1)),
    )
    _fails(check, inputs, outputs, TRANSPORT_CASES[message], message)


def _left(index, value):
    def mutate(out):
        out[0]["left"][index] = value(out[0]["left"])

    return mutate


COUNTING_CASES = {
    "left defect of s": _left(0, lambda d: d[0] + 1),
    "left defect of S": _left(1, lambda d: d[1] / 2),
    "defect of g^-1 vs g": _left(4, lambda d: d[3] + Fraction(1, 3)),
    "defect of gh": _left(6, lambda d: d[3] + d[5] + 1),
    "right defect of f": lambda out: out[1].__setitem__("right", Fraction(1)),
    "balance at": lambda out: out[2]["balance"].__setitem__(0, out[2]["balance"][0] + Fraction(1, 4**9)),
    "not within 4^-n": lambda out: out[0]["balance"].__setitem__(1, out[0]["balance"][1] + 1),
}


@pytest.mark.parametrize("message", sorted(COUNTING_CASES))
def test_counting_checks(monkeypatch, message):
    inputs, outputs, check = _outputs(
        monkeypatch, "counting", COUNTING_SETS=(("const:1/2", 2), ("decay", 2), ("split", 2))
    )
    _fails(check, inputs, outputs, COUNTING_CASES[message], message)


HOMEO_CASES = {
    "augmenting-path reference": lambda o: o.update(matched=o["matched"] + 1, moved=o["moved"] + 1),
    "after right composition": lambda o: o.update(moved=o["moved"] - 1),
    "not inside": lambda o: o.update(matched=0, moved=0),
    "low fraction": lambda o: o["ends"].__setitem__(0, (*o["ends"][0][:2], (Fraction(2), o["ends"][0][2][1]))),
    "high fraction": lambda o: o["ends"].__setitem__(-1, (*o["ends"][-1][:2], (o["ends"][-1][2][0], Fraction(-1)))),
}


@pytest.mark.parametrize("message", sorted(HOMEO_CASES))
def test_homeo_checks(monkeypatch, message):
    inputs, outputs, check = _outputs(monkeypatch, "homeo", MATCH_N=4, END_N=8)
    _fails(check, inputs, outputs, HOMEO_CASES[message], message)


@pytest.fixture
def small_experiment(monkeypatch):
    for name, value in dict(THM_BMAX=4, RIGHTAVG_NMAX=2, DEFECT_NMAX=2, HOMEO_N=[4, 8], OPERATOR_PAIRS=2).items():
        monkeypatch.setattr(cli_workload, name, value)
    cfg = cli_workload.config(5)
    table = experiment.run_experiment(experiment.validate_config(json.dumps(cfg)))
    manifest = json.dumps({"failures": table.failures})
    expected = cli_workload.expected_rows(cfg)
    ck = oracle.Checks()
    cli_workload.check_invocation(0, manifest, table.to_csv(), expected, ck, "run")
    assert ck.failures == [] and ck.attempted == 1 + len(expected)
    return manifest, table.to_csv(), expected


def _corrupt_row(csv: str, prefix: str) -> str:
    lines = csv.splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    fields = lines[index].split(",")
    fields[4] = repr(float(fields[4]) + 0.125)
    lines[index] = ",".join(fields)
    return "".join(lines)


@pytest.mark.parametrize(
    "prefix",
    ["rightavg,1,hat:0,check-mass", "folner-defect,2,g=S,left-defect", "folner-defect,1,g=f,right-defect",
     "thm-example-b,,hat:-3,", "thm-example-c,,hat:2,", "genericity,3,hat:0,check-mass"],
)
def test_experiment_row_checks(small_experiment, prefix):
    manifest, csv, expected = small_experiment
    ck = oracle.Checks()
    cli_workload.check_invocation(0, manifest, _corrupt_row(csv, prefix), expected, ck, "run")
    assert ck.failed == 1 and prefix.split(",")[0] in ck.failures[0]


def test_experiment_exit_and_manifest_checks(small_experiment):
    manifest, csv, expected = small_experiment
    for returncode, text in ((2, manifest), (0, json.dumps({"failures": ["x"]})), (0, None)):
        ck = oracle.Checks()
        cli_workload.check_invocation(returncode, text, csv, expected, ck, "run")
        assert ck.failed == 1 and "exit code" in ck.failures[0]
    ck = oracle.Checks()
    cli_workload.check_invocation(0, manifest, csv.replace("rightavg,2", "rightavg,3"), expected, ck, "run")
    assert ck.failed == 1 and "got None" in ck.failures[0]


def test_same_csv_check(small_experiment):
    _, csv, _ = small_experiment
    for other in (csv + "\n", None):
        ck = oracle.Checks()
        cli_workload.check_same_csv(other, csv, ck, "second invocation")
        assert ck.failed == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
