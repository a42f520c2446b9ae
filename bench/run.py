"""folnerlab benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload experiment|transport|counting|homeo \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark repeats whole rounds of its workload, each in a fresh
process started with a fixed ``PYTHONHASHSEED``, one at a time, until
``--seconds`` have passed (at least ``MIN_ROUNDS``).  Every output is
checked against ``oracle``; each comparison is one attempted operation.

``--trace 0`` reports the end-to-end metrics as medians over the rounds:
``wall_s`` (the timed calls, or the whole ``folnerlab experiment``
process), ``cpu_s``, ``setup_s`` (start-up, import and inputs, or the CLI
on an empty config) and ``peak_rss_mb``.  ``--trace 1`` alternates plain
and traced rounds and reports the per-layer metrics of the traced ones,
``cli.import_s`` and the tracing overhead ``trace.overhead_s``.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import cli_workload
import oracle

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("experiment", "transport", "counting", "homeo")
MIN_ROUNDS = 3
#: Set-up is short and noisy, so each round measures it this many times.
SETUPS_PER_ROUND = 3
#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


class Child:
    """One finished child process with its timing and resource use."""

    def __init__(self, cmd: list[str], env: dict, stdout: Path):
        stderr = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            self.start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.end = time.perf_counter()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = stdout.read_text()
        self.stderr = stderr.read_text()

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def result(self) -> dict:
        if self.returncode != 0 or not self.stdout.strip():
            raise BenchError(f"worker exited with {self.returncode}:\n{self.stderr[-2000:]}")
        return json.loads(self.stdout.strip().splitlines()[-1])


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.out = ROOT / ".bench_out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layer_names: list[str] = []
        self.checks = oracle.Checks()
        self.reference_csv: str | None = None
        if workload == "experiment":
            self.config = self._write_json("config.json", cli_workload.config(seed))
            self.empty = self._write_json("empty.json", cli_workload.empty_config(seed))
            self.expected = cli_workload.expected_rows(cli_workload.config(seed))

    def _write_json(self, name: str, payload: dict) -> Path:
        path = self.out / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    def child(self, args: list[str], label: str) -> Child:
        return Child([sys.executable, *args], self.env, self.out / f"{label}.out")

    def warm_up(self) -> None:
        """Compile the program's byte code once, before anything is timed."""
        child = self.child(["-c", "import folnerlab.cli"], "warm-up")
        if child.returncode != 0:
            raise BenchError(f"cannot import folnerlab from src/:\n{child.stderr[-2000:]}")

    # -------------------------------------------------------- experiment

    def _cli(self, config: Path, label: str) -> tuple[Child, str | None, str | None]:
        results = self.out / label
        shutil.rmtree(results, ignore_errors=True)
        child = self.child(
            ["-m", "folnerlab.cli", "experiment", "--config", str(config), "--out", str(results)], label
        )
        return child, _read(results / "manifest.json"), _read(results / "results.csv")

    def experiment_round(self) -> None:
        for _ in range(SETUPS_PER_ROUND):
            setup, manifest, _ = self._cli(self.empty, "setup")
            self.samples["setup_s"].append(setup.wall_s)
            self.checks.expect(
                setup.returncode == 0 and manifest is not None, f"empty config: exit code {setup.returncode}"
            )
        csvs = []
        for label in ("run-a", "run-b"):
            child, manifest, csv = self._cli(self.config, label)
            self.samples["wall_s"].append(child.wall_s)
            self.samples["cpu_s"].append(child.cpu_s)
            self.samples["peak_rss_mb"].append(child.rss_mb)
            cli_workload.check_invocation(child.returncode, manifest, csv, self.expected, self.checks, label)
            csvs.append(csv)
        cli_workload.check_same_csv(csvs[1], csvs[0], self.checks, "second invocation")
        self.reference_csv = csvs[0]

    def experiment_traced_round(self) -> None:
        results = self.out / "traced"
        shutil.rmtree(results, ignore_errors=True)
        results.mkdir()
        child = self.child(
            [str(BENCH / "worker.py"), "experiment", str(self.seed), "traced", str(results), str(self.config)],
            "traced",
        )
        res = child.result()
        self._traced(res, res["main_done"] - child.start)
        csv = _read(results / "results.csv")
        cli_workload.check_invocation(
            res["returncode"], _read(results / "manifest.json"), csv, self.expected, self.checks, "traced"
        )
        cli_workload.check_same_csv(csv, self.reference_csv, self.checks, "traced in-process run")

    # ----------------------------------------------------------- library

    def _worker(self, mode: str) -> tuple[Child, dict]:
        child = self.child([str(BENCH / "worker.py"), self.workload, str(self.seed), mode, str(self.out)], mode)
        return child, child.result()

    def library_round(self, traced: bool = False) -> None:
        if not traced:
            for _ in range(SETUPS_PER_ROUND - 1):
                child, res = self._worker("setup")
                self.samples["setup_s"].append(res["ready"] - child.start)
        child, res = self._worker("traced" if traced else "plain")
        self.checks.attempted += res["attempted"]
        self.checks.failures += res["failures"]
        if traced:
            self._traced(res, res["wall_s"])
            return
        self.samples["wall_s"].append(res["wall_s"])
        self.samples["cpu_s"].append(res["cpu_s"])
        self.samples["setup_s"].append(res["ready"] - child.start)
        self.samples["peak_rss_mb"].append(res["rss_kb"] / 1024)

    def _traced(self, res: dict, wall_s: float) -> None:
        self.samples["traced_wall_s"].append(wall_s)
        self.samples["cli.import_s"].append(res["import_s"])
        self.layer_names = list(res["layers"])
        for name, value in res["layers"].items():
            self.samples[name].append(value)

    # --------------------------------------------------------------- run

    def run(self, seconds: float, trace: bool) -> dict:
        self.warm_up()
        plain = self.experiment_round if self.workload == "experiment" else self.library_round
        if self.workload == "experiment":
            traced = self.experiment_traced_round
        else:
            traced = lambda: self.library_round(traced=True)  # noqa: E731
        start = time.perf_counter()
        durations: list[float] = []
        # Start a round only if a typical one still ends within the run.
        while len(durations) < MIN_ROUNDS or time.perf_counter() - start + statistics.median(durations) <= seconds:
            began = time.perf_counter()
            plain()
            if trace:
                traced()
            durations.append(time.perf_counter() - began)
        median = {name: statistics.median(values) for name, values in self.samples.items()}
        if trace:
            median["trace.overhead_s"] = median["traced_wall_s"] - median["wall_s"]
            names = [*self.layer_names, "cli.import_s", "trace.overhead_s"]
        else:
            names = ["wall_s", "cpu_s", "setup_s", "peak_rss_mb"]
        metrics = {name: {"value": median[name], "unit": _unit(name)} for name in names}
        for name, metric in metrics.items():
            count = len(self.samples.get(name, ()))
            print(f"{self.workload} {name} = {metric['value']:.6g} {metric['unit']}" + f" (median of {count})" * bool(count))
        for failure in self.checks.failures[:20]:
            print(f"FAILED: {failure}", file=sys.stderr)
        return {
            "correct": not self.checks.failures,
            "attempted": self.checks.attempted,
            "failed": self.checks.failed,
            "metrics": metrics,
        }


def _read(path: Path) -> str | None:
    return path.read_text() if path.is_file() else None


def _unit(name: str) -> str:
    return "MB" if name.endswith("_mb") else "s" if name.endswith("_s") else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "folnerlab" / "__init__.py").is_file():
        print(f"error: no folnerlab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = Bench(args.workload, args.seed).run(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
