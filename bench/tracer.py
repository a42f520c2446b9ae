"""Spans around calls into folnerlab's public functions, for the traced run.

``Tracer.install`` wraps each function in ``TARGETS`` and puts the wrapper
in place of every reference to it in folnerlab's modules: module
attributes, default arguments and, for ``RateSequence.value``, the class
attribute.  Each call records a span (name, start, end, parent) in memory
and a size computed from its arguments or result.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _words(args, kwargs, result) -> int:
    """4^n selection words behind a rate set's defect (0 for other kinds)."""
    n = getattr(args[0], "n", None)
    return 4**n if isinstance(n, int) else 0


def _cells(args, kwargs, result) -> int:
    return len(args[0]) * len(args[1])


def _cubed(args, kwargs, result) -> int:
    return len(args[0]) ** 3


def _atoms(args, kwargs, result) -> int:
    return len(result.atoms)


#: (span name, module, attribute, size of one call or None)
TARGETS = (
    ("lamplighter.compose", "folnerlab.lamplighter", "compose", None),
    ("lamplighter.act", "folnerlab.lamplighter", "act", None),
    ("lamplighter.metric", "folnerlab.lamplighter", "metric", None),
    ("folner.left_defect", "folnerlab.folner", "left_defect", _words),
    ("folner.right_defect", "folnerlab.folner", "right_defect", None),
    ("folner.flip_balance", "folnerlab.folner", "flip_balance", None),
    ("folner.rate_value", "folnerlab.folner", "RateSequence.value", None),
    ("transport.transportation_plan", "folnerlab.transport", "transportation_plan", _cells),
    ("transport.solve_assignment", "folnerlab.transport", "solve_assignment", _cubed),
    ("transport.wasserstein", "folnerlab.transport", "wasserstein", None),
    ("dynamics.empirical_measure", "folnerlab.dynamics", "empirical_measure", _atoms),
    ("dynamics.limit_measure", "folnerlab.dynamics", "limit_measure", None),
    ("homeo.sup_distance", "folnerlab.homeo", "sup_distance", None),
    ("homeo.compose_maps", "folnerlab.homeo", "compose_maps", None),
    ("homeo.matching_number", "folnerlab.homeo", "matching_number", None),
    ("homeo.repelling_family", "folnerlab.homeo", "repelling_family", None),
    ("experiment.validate_config", "folnerlab.experiment", "validate_config", None),
    ("experiment.run_experiment", "folnerlab.experiment", "run_experiment", None),
    ("experiment.write_outputs", "folnerlab.experiment", "write_outputs", None),
)

#: Per-layer metric -> (span names summed, field).  Fields: self_s, calls, size.
LAYER_METRICS = {
    "lamplighter.metric.calls": (("lamplighter.metric",), "calls"),
    "lamplighter.act.calls": (("lamplighter.act",), "calls"),
    "lamplighter.compose.calls": (("lamplighter.compose",), "calls"),
    "lamplighter.self_s": (("lamplighter.compose", "lamplighter.act", "lamplighter.metric"), "self_s"),
    "folner.left_defect.self_s": (("folner.left_defect",), "self_s"),
    "folner.left_defect.calls": (("folner.left_defect",), "calls"),
    "folner.left_defect.words": (("folner.left_defect",), "size"),
    "folner.right_defect.self_s": (("folner.right_defect",), "self_s"),
    "folner.flip_balance.self_s": (("folner.flip_balance",), "self_s"),
    "folner.rate_value.self_s": (("folner.rate_value",), "self_s"),
    "folner.rate_value.calls": (("folner.rate_value",), "calls"),
    "transport.transportation_plan.self_s": (("transport.transportation_plan",), "self_s"),
    "transport.transportation_plan.calls": (("transport.transportation_plan",), "calls"),
    "transport.transportation_plan.cells": (("transport.transportation_plan",), "size"),
    "transport.solve_assignment.self_s": (("transport.solve_assignment",), "self_s"),
    "transport.solve_assignment.calls": (("transport.solve_assignment",), "calls"),
    "transport.solve_assignment.n3": (("transport.solve_assignment",), "size"),
    "transport.wasserstein.self_s": (("transport.wasserstein",), "self_s"),
    "dynamics.empirical_measure.self_s": (("dynamics.empirical_measure",), "self_s"),
    "dynamics.empirical_measure.atoms": (("dynamics.empirical_measure",), "size"),
    "dynamics.limit_measure.self_s": (("dynamics.limit_measure",), "self_s"),
    "dynamics.limit_measure.calls": (("dynamics.limit_measure",), "calls"),
    "homeo.sup_distance.self_s": (("homeo.sup_distance",), "self_s"),
    "homeo.sup_distance.calls": (("homeo.sup_distance",), "calls"),
    "homeo.compose_maps.self_s": (("homeo.compose_maps",), "self_s"),
    "homeo.compose_maps.calls": (("homeo.compose_maps",), "calls"),
    "homeo.matching_number.self_s": (("homeo.matching_number",), "self_s"),
    "homeo.repelling_family.self_s": (("homeo.repelling_family",), "self_s"),
    "experiment.validate_config.self_s": (("experiment.validate_config",), "self_s"),
    "experiment.run_experiment.self_s": (("experiment.run_experiment",), "self_s"),
    "experiment.write_outputs.self_s": (("experiment.write_outputs",), "self_s"),
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index (-1 at the top), size]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[4] = size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "folnerlab" or name.startswith("folnerlab.")]
        for name, module_name, attribute, size in TARGETS:
            owner = importlib.import_module(module_name)
            path = attribute.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self.wrap(name, original, size)
            if len(path) > 1:
                setattr(owner, path[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif callable(value) and getattr(value, "__defaults__", None):
                        value.__defaults__ = tuple(
                            wrapper if d is original else d for d in value.__defaults__
                        )

    def clear(self) -> None:
        self.spans.clear()

    def totals(self) -> dict:
        """span name -> {"self_s", "calls", "size"}."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "size": 0})
        for (name, start, end, _, size), inner in zip(self.spans, children):
            entry = out[name]
            entry["self_s"] += end - start - inner
            entry["calls"] += 1
            entry["size"] += size
        return out

    def layer_metrics(self) -> dict:
        totals = self.totals()
        return {
            metric: sum((totals[name][field] for name in names if name in totals), 0.0 if field == "self_s" else 0)
            for metric, (names, field) in LAYER_METRICS.items()
        }

    def write_jsonl(self, path) -> None:
        with open(path, "w") as sink:
            for name, start, end, parent, size in self.spans:
                sink.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "size": size}) + "\n")
