"""The ``experiment`` workload: its config and the checks on its output.

The config holds all six scenarios, each inside its config guard.  The
seed sets the config seed (the random function pairs of
``operator-identities``), the constant rate of ``genericity`` and one
random generator word of ``folner-defect``; the sizes never change, so
every seed does the same amount of work.  This module does not import
folnerlab: the checks read the CSV and the manifest the CLI wrote.
"""

from __future__ import annotations

import json
import random

import oracle

THM_BMAX = 128
THM_PRESETS = {"a": "const:1/2", "b": "decay", "c": "split", "d": "zero"}
GENERICITY_NMAX = 3
RIGHTAVG_NMAX = 10
DEFECT_NMAX = 3
DEFECT_PRESET = "decay"
HOMEO_N = [8, 16, 32, 64]
# Fixed: at y = 5/16, 7/16, 9/16 and 11/16 the scenario reports a
# distance that does not decrease from n = 8 to n = 16.
HOMEO_Y = [0.25, 0.5, 0.75]
OPERATOR_PAIRS = 20


def config(seed: int) -> dict:
    rng = random.Random(seed)
    q = rng.randint(3, 9)
    word = " ".join(rng.choice("sSf") for _ in range(rng.randint(2, 4)))
    return {
        "seed": seed,
        "format": "csv",
        "scenarios": [
            *({"id": "thm-example", "params": {"case": case, "bmax": THM_BMAX}} for case in THM_PRESETS),
            {"id": "genericity", "params": {"rate": f"const:{rng.randint(1, q - 1)}/{q}", "nmax": GENERICITY_NMAX}},
            {"id": "rightavg", "params": {"nmax": RIGHTAVG_NMAX}},
            {"id": "operator-identities", "params": {"rate": "decay", "pairs": OPERATOR_PAIRS}},
            {"id": "operator-identities", "params": {"rate": "const:1/2", "pairs": OPERATOR_PAIRS}},
            {"id": "homeo-empirical", "params": {"n": HOMEO_N, "y": HOMEO_Y}},
            {
                "id": "folner-defect",
                "params": {"rate": DEFECT_PRESET, "nmax": DEFECT_NMAX, "generators": ["s", "S", "f", word]},
            },
        ],
    }


def empty_config(seed: int) -> dict:
    return {"seed": seed, "format": "csv", "scenarios": []}


def _value(x) -> str:
    """A value as the CSV writes it."""
    return repr(float(x))


def expected_rows(cfg: dict) -> dict:
    """(experiment, n, subject, quantity) -> CSV value, from closed forms."""
    rows = {}
    for scenario in cfg["scenarios"]:
        sid, params = scenario["id"], scenario["params"]
        if sid == "thm-example":
            preset = THM_PRESETS[params["case"]]
            for b in range(-params["bmax"], params["bmax"] + 1):
                key = (f"thm-example-{params['case']}", "", f"hat:{b}", "w-to-hat-end")
                rows[key] = _value(oracle.rate(preset, b))
        elif sid == "genericity":
            r0 = oracle.rate(params["rate"], 0)
            for n in range(1, params["nmax"] + 1):
                rows[("genericity", str(n), "hat:0", "check-mass")] = _value(oracle.selection_balance(r0, n))
        elif sid == "rightavg":
            for n in range(1, params["nmax"] + 1):
                rows[("rightavg", str(n), "hat:0", "check-mass")] = _value(0.5)
        elif sid == "folner-defect":
            for n in range(1, params["nmax"] + 1):
                for word in ("s", "S"):
                    rows[("folner-defect", str(n), f"g={word}", "left-defect")] = _value(oracle.shift_defect(n))
                rows[("folner-defect", str(n), "g=f", "right-defect")] = _value(2)
    return rows


def parse_csv(text: str) -> dict:
    table = {}
    for line in text.splitlines()[1:]:
        experiment, n, subject, quantity, value, _ = line.split(",")
        table[(experiment, n, subject, quantity)] = value
    return table


def check_invocation(returncode: int, manifest: str | None, csv: str | None, expected: dict, ck, what: str) -> None:
    """Exit code and manifest failures as one operation, then one per closed-form row."""
    failures = json.loads(manifest)["failures"] if manifest else ["no manifest written"]
    ck.expect(returncode == 0 and failures == [], f"{what}: exit code {returncode}, failures {failures}")
    table = parse_csv(csv or "")
    for key, want in expected.items():
        ck.equal(table.get(key), want, f"{what}: row {key}")


def check_same_csv(csv: str | None, reference: str | None, ck, what: str) -> None:
    ck.expect(csv is not None and csv == reference, f"{what}: CSV differs from the reference run")
