"""Experiment output stays byte-identical to a recorded run.

``experiment_golden.json`` holds three configs, each with the fixed
``out`` "golden-out" (the out path enters the config hash): the
benchmark's experiment config (``bench/cli_workload.config``) at seeds 1
and 2, and a JSON-format config that runs every scenario once.  Their
results and ``table.metadata`` were recorded from the implementation
that built selection words from Fractions and validated each scenario
with its own code.  The ``homeo-empirical`` ``w-to-end-mixture`` rows (12
in each bench-seed case, 2 in ``json-format``) were re-recorded when the
squash margin became the exact delta*/2 in place of a bisection to
1e-12; every other row, the endpoint fractions included, kept its value.
"""

import json
from pathlib import Path

import pytest

from folnerlab.experiment import run_experiment, validate_config

CASES = json.loads((Path(__file__).parent / "experiment_golden.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_experiment_output_is_byte_identical(case):
    config = validate_config(json.dumps(case["config"]))
    table = run_experiment(config)
    results = table.to_csv() if config.fmt == "csv" else table.to_json()
    assert results == case["results"]
    assert json.dumps(table.metadata, indent=2, sort_keys=True) + "\n" == case["metadata"]
