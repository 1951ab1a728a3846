"""End-to-end and per-layer benchmark of roofcalc.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cy_pair --seed 1 --seconds 30 --trace 0

Every repetition is one call of `roofcalc.cli.main(argv)` in a fresh
interpreter (`child.py`) with ROOFCALC_THREADS=1 and PYTHONHASHSEED=0.  A
round runs each input of the workload once; rounds repeat while another
round fits in `--seconds`.  Every output is checked against the independent
oracles in `oracles.py` (untimed), and the checkers' self-test runs once per
run.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json
(medians over the run's rounds); with `--trace 1` they are its per-layer
metrics, from one untraced round and two traced rounds whose outputs and
counts must agree.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ROOT / ".perfbench_out"

CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "LC_ALL": "C.UTF-8",
    "PYTHONHASHSEED": "0",
    "ROOFCALC_THREADS": "1",
}
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 30

CY_K, CY_N = 4, 9
HYPER_NS = (19, 21, 23)  # cubic hypersurfaces of dimension 18, 20, 22
HYPER_DEGREE = 3


def workload_inputs(name: str) -> list[list[str]]:
    if name == "cy_pair":
        return [["pair", "--k", str(CY_K), "--n", str(CY_N)]]
    if name == "chase_hyper":
        return [
            ["hodge", "--k", "1", "--n", str(big_n + 1), "--bundle", f"O({HYPER_DEGREE})"]
            for big_n in HYPER_NS
        ]
    if name == "paper_suite":
        return [["verify", "--suite", "paper", "--json"]]
    raise SystemExit(f"unknown workload {name!r}")


class Checker:
    """Oracle checks for one workload; built once per run (untimed)."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        if workload == "cy_pair":
            x = oracles.torus_weights(CY_N, seed)
            self.pair_checks = oracles.pair_checks(
                CY_K,
                CY_N,
                oracles.localised_euler(CY_K, CY_N, "QD(2)", x),
                oracles.localised_euler(CY_K + 1, CY_N, "U(2)", x),
            )

    def check(self, argv: list[str], out: dict) -> list[str]:
        if self.workload == "cy_pair":
            return oracles.check_pair_output(out, CY_K, CY_N, self.pair_checks)
        if self.workload == "chase_hyper":
            return oracles.check_hypersurface_output(out, int(argv[4]) - 1, HYPER_DEGREE)
        return oracles.check_suite_output(out)

    def self_test(self, argv: list[str], out: dict) -> list[str]:
        if self.workload == "cy_pair":
            o = out["outputs"]
            return oracles.self_test_pair(
                oracles.parse_diamond(o["diamond1"]),
                oracles.parse_diamond(o["diamond2"]),
                self.pair_checks,
            )
        if self.workload == "chase_hyper":
            return oracles.self_test_hypersurface(out, int(argv[4]) - 1, HYPER_DEGREE)
        return oracles.self_test_suite(out)


def spawn(argv: list[str] | None, trace: bool = False, spans: Path | None = None) -> dict:
    """Run one child; returns its record plus `setup_s`, or {"error": ...}."""
    job = json.dumps({"argv": argv, "trace": trace, "spans": str(spans) if spans else None})
    cmd = [sys.executable, str(CHILD), str(ROOT), job]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    record = json.loads(lines[-1])
    record["setup_s"] = record["imported"] - t0
    return record


def outputs_of(record: dict) -> dict:
    """The CLI's JSON report without its timing block."""
    out = json.loads(record["stdout"])
    out.pop("timing", None)
    return out


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.inputs = workload_inputs(workload)
        self.rng = random.Random(seed)
        self.checker = Checker(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.reference: dict[str, dict] = {}
        self.setup_samples: list[float] = []

    def round(self, trace: bool = False, tag: str = "") -> list[tuple[list[str], dict]] | None:
        """Each input once, in a seeded order.  Returns the records, or None
        when an operation of the round failed (the rest are still run)."""
        order = list(self.inputs)
        self.rng.shuffle(order)
        records = []
        for argv in order:
            spans = None
            if trace:
                OUT_DIR.mkdir(exist_ok=True)
                spans = OUT_DIR / f"{self.workload}-{tag}-{self.inputs.index(argv)}.spans.tsv.gz"
            self.attempted += 1
            record = spawn(argv, trace, spans)
            if "error" in record:
                self.failed += 1
                self.failures.append(f"{' '.join(argv)}: {record['error']}")
                continue
            self.setup_samples.append(record["setup_s"])
            self.verify(argv, record)
            records.append((argv, record))
        self.rounds += 1
        return records if len(records) == len(order) else None

    def verify(self, argv: list[str], record: dict) -> None:
        key = " ".join(argv)
        if record["exit_code"] != 0:
            self.problems.append(f"{key}: exit code {record['exit_code']}")
        try:
            self._verify(key, argv, outputs_of(record))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.problems.append(f"{key}: unreadable output: {exc!r}")

    def _verify(self, key: str, argv: list[str], out: dict) -> None:
        if key not in self.reference:
            self.reference[key] = out
            self.problems += [f"self-test: {p}" for p in self.checker.self_test(argv, out)]
        elif out != self.reference[key]:
            self.problems.append(f"{key}: output differs between repetitions")
        self.problems += [f"{key}: {p}" for p in self.checker.check(argv, out)]

    def fill_setup_samples(self) -> None:
        while len(self.setup_samples) < MIN_SETUP_SAMPLES:
            record = spawn(None)
            if "error" in record:
                self.problems.append(f"set-up child: {record['error']}")
                return
            self.setup_samples.append(record["setup_s"])


def round_wall(records: list[tuple[list[str], dict]]) -> float:
    return sum(r["wall_s"] for _, r in records)


def measure(run: Run, seconds: float) -> dict[str, float]:
    start = time.perf_counter()
    walls, rss = [], []
    while True:
        records = run.round()
        if records is not None:
            walls.append(round_wall(records))
            rss.append(max(r["peak_rss_kb"] for _, r in records) / 1024)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / run.rounds > seconds:
            break
    run.fill_setup_samples()
    print(f"round wall_s: {[round(w, 3) for w in walls]}", file=sys.stderr)
    if not walls:
        return {}
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(run.setup_samples),
        "peak_rss_mb": statistics.median(rss),
    }


def trace(run: Run) -> dict[str, float]:
    """One untraced round, then two traced rounds: outputs must match the
    untraced ones (checked in `Run.verify`) and counts must repeat."""
    plain = run.round()
    traced = [run.round(trace=True, tag=f"pass{i}") for i in (1, 2)]
    if plain is None or None in traced:
        return {}
    layers = []
    for records in traced:
        total: dict[str, float] = {}
        for _, record in records:
            for name, value in record["layers"].items():
                total[name] = total.get(name, 0) + value
        layers.append(total)
    for name, value in layers[0].items():
        is_time = name.endswith("_s") or name.endswith(".s")
        if not is_time and value != layers[1][name]:
            run.problems.append(f"trace count {name} differs: {value} vs {layers[1][name]}")
    layers[0]["trace.overhead_s"] = round_wall(traced[0]) - round_wall(plain)
    return layers[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "roofcalc" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no roofcalc sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    warm = spawn(None)  # compiles the bytecode cache; not a sample
    if "error" in warm:
        print(f"cannot import roofcalc: {warm['error']}", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = trace(run) if args.trace else measure(run, args.seconds)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and run.failed == 0:
        run.problems.append(f"metrics not measured: {missing}")
    for line in run.failures + run.problems:
        print(line, file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
