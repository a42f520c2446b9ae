"""Every argv drawn from the action table, and every config drawn from the
scenario registry, ends in a documented exit: a code in {0, 1, 2, 3}, no
traceback, and each stderr line under one of the prefixes ``main`` prints.

The argvs run in one child process (``cli_child.py``) with its address
space capped and an alarm per argv, so a run that grows without bound
fails the property instead of exhausting the machine."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from folnerlab.cli import ACTIONS, FLAGS, KIND_FLAGS
from folnerlab.experiment import SCENARIOS

TESTS = Path(__file__).parent
#: The address space of the child, and the wall time each argv may take.
CHILD_MEMORY = 2**30
CHILD_SECONDS = 20
#: What ``main`` writes at the start of each stderr line, one per exit path.
PREFIXES = ("usage error: ", "config error: ", "error: ", "invariant failure: ", "guard violation: ")

HUGE = "99999999999999999999"
INTEGERS = ["0", "1", "2", "3", "-1", "-3", HUGE, "-" + HUGE]
NUMBERS = [*INTEGERS, "1/3", "-1/3", "0.25", "1e-1", "1e400", "2/0", "nan", "inf", "-inf"]
JUNK = ["junk", "", "s f x", "1/3/5", "--"]
PRESETS = ["r-zero", "r-decay", "r-split", "r-const:0.5", "r-const:1/3", "r-const:2", "r-const:nan", "decay"]
WORDS = ["s", "f", "S", "s f S", "f s s f S S f", "s,f,S f"]
#: Files that are not measures or families; missing.json is never written.
MALFORMED = {
    "empty.json": "", "object.json": "{}", "numbers.json": "[1, 2]", "cut.json": "[{", "missing.json": None,
}


def _golden_files() -> dict[str, str]:
    """Each distinct measure and family file of the golden CLI cases, by a new name."""
    cases = json.loads((TESTS / "cli_actions_golden.json").read_text())
    contents = sorted({json.dumps(content) for case in cases for content in case["files"].values()})
    return {f"golden{k}.json": text for k, text in enumerate(contents)}


FILES = {**_golden_files(), **MALFORMED}
ANY_VALUE = [*NUMBERS, *JUNK, *PRESETS, *WORDS, *FILES]
#: The values each flag is most often given: its choices, or values of its kind.
FLAG_VALUES = {
    **dict.fromkeys(("n", "count", "a_min", "a_max", "b", "nmax", "pairs"), INTEGERS),
    **dict.fromkeys(("x", "y", "eps", "radius"), NUMBERS),
    "preset": PRESETS,
    "presets": [",".join(PRESETS[:2]), ",".join(PRESETS[1:4]), *PRESETS],
    "g": WORDS,
    "mu": list(FILES),
    "nu": list(FILES),
    "base": list(FILES),
    "other": list(FILES),
}


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    """Send an argv to the child and read its answer; the child runs in a
    directory holding the golden and malformed files."""
    where = tmp_path_factory.mktemp("argvs")
    for name, text in FILES.items():
        if text is not None:
            (where / name).write_text(text)
    path = os.pathsep.join([str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    process = subprocess.Popen(
        [sys.executable, str(TESTS / "cli_child.py"), str(CHILD_MEMORY), str(CHILD_SECONDS)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=where, env=env,
    )

    def run(argv: list[str]) -> dict:
        process.stdin.write(json.dumps(argv) + "\n")
        process.stdin.flush()
        answer = process.stdout.readline()
        assert answer, f"the child died on {argv}"
        return json.loads(answer)

    run.where = where
    yield run
    process.stdin.close()
    process.wait(timeout=30)


def _assert_documented_exit(answer: dict, argv: list[str]) -> None:
    assert answer["escaped"] is None, f"{argv}:\n{answer['escaped']}"
    assert answer["code"] in (0, 1, 2, 3), argv
    assert "Traceback" not in answer["err"], argv
    for line in answer["err"].splitlines():
        assert line.startswith(PREFIXES), f"{argv}: {line!r}"


@st.composite
def argvs(draw) -> list[str]:
    """A command, one of its actions (or a junk one), mostly the flags that
    action reads and sometimes one more of the command's flags, each flag
    mostly given a value of its kind."""
    command = draw(st.sampled_from(sorted(ACTIONS)))
    action = draw(st.sampled_from([*ACTIONS[command], "junk"]))
    reads = list(ACTIONS[command][action][1]) if action in ACTIONS[command] else []
    if "kind" in reads:
        reads += [flag for kind_reads in KIND_FLAGS.values() for flag in kind_reads]
    flags = draw(st.lists(st.sampled_from(reads), unique=True)) if reads else []
    if draw(st.integers(0, 4)) == 0:
        flags.append(draw(st.sampled_from(sorted(FLAGS[command]))))
    argv = [command, action]
    for flag in flags:
        _, keywords = FLAGS[command][flag]
        argv.append("--" + flag.replace("_", "-"))
        if keywords.get("action") != "store_true":
            kind = keywords.get("choices") or FLAG_VALUES.get(flag, ANY_VALUE)
            argv.append(draw(st.sampled_from(list(kind) if draw(st.integers(0, 4)) else ANY_VALUE)))
    return argv


@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_drawn_argv_ends_in_a_documented_exit(child, argv):
    _assert_documented_exit(child(argv), argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["folner", "build", "--n", HUGE],
            "rate-set sizes are built only for n <= 12 (|F_12| has 2,464 digits; "
            f"|F_n| has about 2^(n+1) bits), got n={HUGE}",
        ),
        (["folner", "defect", "--n", HUGE], f"rate-set defects are counted only for n <= 64, got {HUGE}"),
        (
            ["folner", "defect", "--side", "right", "--n", HUGE],
            f"rate sets materialize only for n <= 3, got n={HUGE}",
        ),
    ],
    ids=["size", "left-share", "materialize"],
)
def test_rate_set_guards_read_n_before_2_to_the_n(child, argv, message):
    """Each guard refuses n before 2^n is built: at n = 10^20 the size, the
    counted left share and the enumeration each ended in a MemoryError
    under the child's cap."""
    assert child(argv) == {"code": 3, "err": f"guard violation: {message}\n", "escaped": None}


JSON_VALUES = [
    0, 1, 2, 3, -1, 99999999999999999999, -99999999999999999999, 0.25, 1e300, True, None,
    "1/3", "0.5", "nan", "junk", "decay", "const:0.5", "s f", [], [2, 3], [0.25, "1/3"], ["s", "f"],
    [99999999999999999999], ["junk"], {}, {"default": "1/2"},
]
#: The values each scenario parameter is most often given.
PARAM_VALUES = {
    **dict.fromkeys(("bmax", "nmax", "pairs"), [0, 1, 2, 3, -1, 99999999999999999999, True, "2"]),
    "case": ["a", "b", "c", "d", "e"],
    "rate": ["zero", "decay", "split", "const:0.5", "const:2", {"default": "1/2", "window": {"0": "1/3"}}],
    "g": ["s", "f", "s f S", "x"],
    "generators": [["s", "f"], ["S"], ["x"], []],
    "n": [[2, 3], [4], [1], [99999999999999999999], []],
    "y": [[0.25, "1/3"], [0], [1], [2], ["nan"]],
}


@st.composite
def configs(draw) -> dict:
    """One or two scenario entries: a registered id (or a junk one) with some
    of its parameters and sometimes a misspelt one, each parameter mostly
    given a value of its kind."""
    entries = []
    for _ in range(draw(st.integers(1, 2))):
        scenario = draw(st.sampled_from([*SCENARIOS, "junk"]))
        names = list(SCENARIOS[scenario].params) if scenario in SCENARIOS else ["nmax"]
        keys = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
        if draw(st.integers(0, 4)) == 0:
            keys.append("nmx")
        params = {}
        for key in keys:
            kind = PARAM_VALUES.get(key, JSON_VALUES)
            params[key] = draw(st.sampled_from(kind if draw(st.integers(0, 4)) else JSON_VALUES))
        entries.append({"id": scenario, "params": params})
    return {"scenarios": entries}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=configs())
def test_every_drawn_config_ends_in_a_documented_exit(child, config):
    path = child.where / "config.json"
    path.write_text(json.dumps(config))
    _assert_documented_exit(child(["experiment", "--config", "config.json"]), config)
