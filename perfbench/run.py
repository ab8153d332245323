#!/usr/bin/env python3
"""End-to-end benchmark of lbmem: one workload per call.

    python3 perfbench/run.py --workload serve-local --seed 1 --seconds 10 \\
        --trace 0 [--size small]

Run from the repository root. Builds perfbench/ (the lbmem library from
src/ plus driver.cpp, Release) into .bench_build/perfbench, runs the
driver, checks the outputs and prints one JSON line as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. `--trace 0`
reports the end_to_end metrics of BENCHMARK.json, `--trace 1` its
per_layer metrics, preceded by a per-kind x outcome table. `--size small`
shrinks every workload to seconds, for perfbench/test_perfbench.py.

Deterministic figures (event counts, makespan, ...) are stored per
(workload, size, seed, source digest) under .bench_build/perfbench and
must repeat exactly on every later run of the same sources.

Exit codes: 0 result printed; 2 usage; 3 a correctness check failed;
4 the build, the driver or the analysis failed. A failed run prints no
result line. `failed` is always 0 in a printed result: a shed event, an
unrepaired processor failure or an invalid final schedule fails the run
instead; any other rejected event is a correct answer that leaves the
state untouched, counted in the per-layer `online.reject_ratio`.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve-local", "serve-churn")


class Failure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise Failure(4, "lbmem sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise Failure(4, "build failed: " + " ".join(step))
    return BUILD / "perfbench_driver"


def source_digest():
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*.cpp"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_determinism(args, figures):
    """Deterministic figures must match every earlier run of these sources."""
    path = BUILD / "determinism" / f"{args.workload}-{args.size}-{args.seed}.json"
    record = {"source": source_digest(), "deterministic": figures}
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored["source"] == record["source"] and stored != record:
            raise Failure(3, "deterministic figures differ from an earlier "
                          f"run: {stored['deterministic']} vs {figures}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))


def expected_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run(args):
    driver = build()
    out_dir = BUILD / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--out", str(out_dir)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode == 3:
        raise Failure(3, "the driver's correctness gate failed")
    if proc.returncode != 0:
        raise Failure(4, f"driver exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    check_determinism(args, raw["deterministic"])

    metrics = {name: (m["value"], m["unit"])
               for name, m in raw["metrics"].items()}
    if args.trace:
        span_metrics, rows = layers.analyse(raw["spans_file"], raw["ops"],
                                            raw["replay"])
        metrics.update(span_metrics)
        dropped = metrics["obs.spans_dropped"][0]
        if dropped:
            raise Failure(3, f"{dropped:.0f} spans dropped")
        if rows and raw["replay"]:
            print(f"{args.workload} seed {args.seed}: per-kind x outcome "
                  "(event-by-event replay of the trace)")
            print("\n".join(layers.format_rows(rows)))

    expected = expected_metrics(args.trace)
    if {n: u for n, (_, u) in metrics.items()} != expected:
        raise Failure(4, "emitted metrics differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(expected))}")
    print("checks passed: " +
          ", ".join(raw["checks"] + ["deterministic_across_runs"]))
    return {
        "correct": True,
        "attempted": raw["attempted"],
        "failed": 0,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in expected.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "small"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    # A terminated benchmark stops its driver too: SystemExit unwinds
    # through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args)
    except Failure as failure:
        log(str(failure))
        return failure.code
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as error:
        log(f"error: {error}")
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
