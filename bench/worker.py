"""One round of a workload in a fresh process.

    python3 bench/worker.py <workload> <seed> plain|traced|setup <out dir> [<config>]

``bench/run.py`` starts it with ``PYTHONPATH=src``.  It imports folnerlab,
builds the inputs, notes when it is ready, runs the timed calls, checks
them and prints one JSON object.  A fresh process per round means every
round starts with the program's caches empty, as a user's run does.
``setup`` stops once the inputs are built.  ``traced`` first installs
the tracer.  ``experiment`` runs only traced: it calls
``folnerlab.cli.main`` in process on the given config (plain rounds of
that workload run the CLI itself).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, seed, mode, out_dir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    traced = mode == "traced"
    result: dict = {}
    if traced:
        start = time.perf_counter()
        import folnerlab.cli

        result["import_s"] = time.perf_counter() - start
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if workload == "experiment":
        result["ready"] = time.perf_counter()
        result["returncode"] = folnerlab.cli.main(["experiment", "--config", argv[4], "--out", str(out_dir)])
        result["main_done"] = time.perf_counter()
        result["layers"] = tracer.layer_metrics()
    else:
        import library
        import oracle

        make_inputs, run, check = library.WORKLOADS[workload]
        inputs = make_inputs(seed)
        result["ready"] = time.perf_counter()
        if mode == "setup":
            print(json.dumps(result))
            return 0
        if traced:
            tracer.clear()
        watch = library.Stopwatch()
        outputs = run(inputs, watch)
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["wall_s"], result["cpu_s"] = watch.wall, watch.cpu
        if traced:
            result["layers"] = tracer.layer_metrics()
        ck = oracle.Checks()
        check(inputs, outputs, ck)
        result["attempted"], result["failures"] = ck.attempted, ck.failures
    if traced:
        tracer.write_jsonl(out_dir / f"trace-{workload}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
