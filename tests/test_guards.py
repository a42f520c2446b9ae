"""The guard ledger: one row per ceiling that ``src/`` refuses.

Each row makes one call one past its ceiling: through the CLI where a flag,
a file or a config reaches it, and through the library where only the
library does.  The work the ceiling guards is patched to raise, so a
refusal that came after the work would fail here, and the row expects exit
3 and its exact line.  Two checks on the source keep the ledger whole: no
module raises GuardViolation except ``errors.refuse_past`` and the print
check of ``cli._emit``, and every ``refuse_past`` call has a row.
"""

import ast
import importlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import pytest

from folnerlab import cli, dynamics, experiment, folner, homeo
from folnerlab.dynamics import AVERAGING_MAX_SHIFTS, average_invariance_defect, default_sample, genericity_table
from folnerlab.errors import GuardViolation
from folnerlab.folner import RateFolner, RateSequence, rate_folner
from folnerlab.functions import ends_separator
from folnerlab.homeo import IDENTITY_MAP
from folnerlab.lamplighter import hat, metric, parse_word
from folnerlab.transport import ASSIGNMENT_GUARD, DiscreteMeasure, empirical_measure

SRC = Path(__file__).parent.parent / "src" / "folnerlab"
DECAY = RateSequence.from_preset("decay")


def _measure(positions) -> str:
    """A uniform measure on hat points at the given positions, as a --mu file."""
    return json.dumps([{"point": {"component": "hat", "pos": p}, "mass": f"1/{len(positions)}"} for p in positions])


def _identities(count: int) -> str:
    """A family of ``count`` identity maps, as a --base file."""
    return json.dumps([IDENTITY_MAP.to_dict()] * count)


@dataclass(frozen=True)
class Row:
    #: The refusal: its module and the ``what`` it names, or for a config
    #: parameter "experiment" and "<scenario>.<parameter>".
    site: tuple[str, str]
    #: The exact message, as it follows ``guard violation: ``.
    line: str
    #: The work the ceiling guards, (owner, attribute), patched to raise; None
    #: where that work is one power of two computed inline.
    kernel: tuple | None
    #: The one-past CLI argv, with the files it reads, or else a library call.
    argv: tuple[str, ...] = ()
    files: dict[str, str] = field(default_factory=dict)
    call: Callable | None = None


SIDE = math.isqrt(ASSIGNMENT_GUARD)

LEDGER = [
    Row(("folner", "rate-set size n"), "the guard allows rate-set size n <= 12, got 13", None,
        ("folner", "build", "--n", "13")),
    Row(("folner", "counted rate-set n"), "the guard allows counted rate-set n <= 64, got 65",
        (RateFolner, "_sections"), ("folner", "defect", "--n", "65")),
    Row(("folner", "rate-set balance n"), "the guard allows rate-set balance n <= 7142, got 7143",
        (RateFolner, "threshold"), ("folner", "balance", "--n", "7143", "--b", "1")),
    Row(("folner", "materialized rate-set n"), "the guard allows materialized rate-set n <= 3, got 4",
        (RateFolner, "_sections"), ("folner", "build", "--materialize", "--n", "4")),
    Row(("folner", "box-size width"), "the guard allows box-size width <= 14270, got 14271", None,
        ("folner", "build", "--kind", "box", "--a-min", "0", "--a-max", "14270")),
    Row(("folner", "materialized box width"), "the guard allows materialized box width <= 22, got 23",
        (folner, "_sorted_elements"),
        ("folner", "build", "--kind", "box", "--materialize", "--a-min", "0", "--a-max", "22")),
    Row(("cli", "--count"), "the guard allows --count <= 256, got 257",
        (cli, "interleave_folner"), ("folner", "interleave", "--count", "257")),
    Row(("cli", "materialized rate-set n"), "the guard allows materialized rate-set n <= 3, got 4",
        (cli, "rate_folner"), ("folner", "translate", "--n", "4")),
    Row(("cli", "dual support points"), "the guard allows dual support points <= 100, got 101",
        (metric, "integer_block"), ("transport", "dual", "--mu", "dual-mu.json", "--nu", "dual-nu.json"),
        {"dual-mu.json": _measure(range(51)), "dual-nu.json": _measure(range(51, 101))}),
    Row(("homeo", "matching pairs"), "the guard allows matching pairs <= 250000, got 250500",
        (homeo, "_closer_than"), ("homeo", "match", "--base", "match-501.json", "--other", "match-500.json"),
        {"match-501.json": _identities(501), "match-500.json": _identities(500)}),
    Row(("homeo", "repelling-family n"), "the guard allows repelling-family n <= 4096, got 4097",
        (homeo, "squash_margin"), ("homeo", "empirical", "--n", "4097")),
    Row(("homeo", "base-family members"), "the guard allows base-family members <= 64, got 65",
        (homeo, "squash_margin"), ("homeo", "empirical", "--base", "base-65.json"),
        {"base-65.json": _identities(65)}),
    Row(("dynamics", "genericity n"), "the guard allows genericity n <= 13, got 14",
        (dynamics, "_genericity_row"), call=lambda: genericity_table([rate_folner(DECAY, 14)], hat(0), DECAY)),
    Row(("dynamics", "averaged shifts"), f"the guard allows averaged shifts <= {AVERAGING_MAX_SHIFTS}, got 4097",
        (dynamics, "empirical_measure"), call=lambda: average_invariance_defect(
            rate_folner(DECAY, 11), parse_word("s"), ends_separator(), default_sample(8))),
    Row(("transport", "transport cells"),
        f"the guard allows transport cells <= {ASSIGNMENT_GUARD}, got {(SIDE + 1) * SIDE}", (metric, "integer_block"),
        ("transport", "wasserstein", "--mu", "cells-mu.json", "--nu", "cells-nu.json"),
        {"cells-mu.json": _measure(range(SIDE + 1)), "cells-nu.json": _measure(range(SIDE))}),
    Row(("transport", "orbit-measure atoms"), f"the guard allows orbit-measure atoms <= {ASSIGNMENT_GUARD}, got 524290",
        (DiscreteMeasure, "from_pairs"), call=lambda: empirical_measure(rate_folner(DECAY, 17), hat(0))),
    Row(("experiment", "genericity.nmax"), "genericity.params.nmax: the guard allows nmax <= 13, got 14",
        (experiment, "genericity_table"), ("dynamics", "generic", "--nmax", "14")),
    Row(("experiment", "rightavg.nmax"), "rightavg.params.nmax: the guard allows nmax <= 256, got 257",
        (experiment, "empirical_measure"), ("dynamics", "rightavg", "--nmax", "257")),
    Row(("experiment", "averaging.nmax"), "averaging.params.nmax: the guard allows nmax <= 10, got 11",
        (experiment, "averaging_residual"), ("dynamics", "averaging", "--nmax", "11")),
    Row(("experiment", "folner-defect.nmax"), "scenarios[0].params.nmax: the guard allows nmax <= 32, got 33",
        (experiment, "left_defect"), ("experiment", "--config", "defect-33.json"),
        {"defect-33.json": json.dumps({"scenarios": [{"id": "folner-defect", "params": {"nmax": 33}}]})}),
]


def _refuse(*args, **kwargs):
    raise AssertionError("the guard let its work start")


@pytest.mark.parametrize("row", LEDGER, ids=[".".join(row.site) for row in LEDGER])
def test_each_ceiling_refuses_one_past_it_before_its_work(row, tmp_path, monkeypatch, capsys):
    if row.kernel is not None:
        monkeypatch.setattr(*row.kernel, _refuse)
    if row.call is not None:
        with pytest.raises(GuardViolation) as refused:
            row.call()
        assert str(refused.value) == row.line
        return
    for name, text in row.files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(row.argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"guard violation: {row.line}\n"


def _nodes():
    """(module, enclosing function, node) for every node of every module of ``src/``."""

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            yield inner, child
            yield from walk(child, inner)

    for path in sorted(SRC.glob("*.py")):
        for where, node in walk(ast.parse(path.read_text()), None):
            yield path.stem, where, node


def test_only_refuse_past_and_the_print_check_raise_guard_violations():
    raisers = {
        (module, where)
        for module, where, node in _nodes()
        if isinstance(node, ast.Raise) and node.exc is not None
        and ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc).endswith("GuardViolation")
    }
    assert raisers == {("errors", "refuse_past"), ("cli", "_emit")}


def test_every_refuse_past_call_has_a_ledger_row():
    """Each call names a module constant as its ceiling and a literal
    ``what``, and its row's line names both.  Config parameters are one call
    in ``resolve``, and one site per parameter that has a ceiling."""
    rows = {row.site: row for row in LEDGER}
    sites = set()
    for module, where, node in _nodes():
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "refuse_past"):
            continue
        _, ceiling, what = node.args
        if (module, where) == ("experiment", "resolve"):
            found = {
                (module, f"{scenario}.{name}"): (name, param.ceiling)
                for scenario, spec in experiment.SCENARIOS.items()
                for name, param in spec.params.items()
                if param.ceiling is not None
            }
        else:
            assert isinstance(ceiling, ast.Name) and isinstance(what, ast.Constant), ast.unparse(node)
            value = getattr(importlib.import_module(f"folnerlab.{module}"), ceiling.id)
            found = {(module, what.value): (what.value, value)}
        for site, (name, value) in found.items():
            assert site in rows, f"{site} has no ledger row"
            assert f"the guard allows {name} <= {value}, got " in rows[site].line
        sites |= found.keys()
    assert sites == rows.keys()
