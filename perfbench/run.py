"""mve benchmark: one workload, one closed-loop client, one JSON result line.

    python3 perfbench/run.py --workload desk-pruned --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the engine is imported from its `src/` and
the planted corpus generator from `tests/synthdata.py`. With `--trace 0` the
end-to-end metrics are measured over a window of `--seconds`, with
`--trace 1` the per-layer metrics of a separate traced run (spans go to
`perfbench/out/`). The last line of stdout
is `{"correct", "attempted", "failed", "metrics"}`; lines before it give the
machine, the settings, sample counts, every metric with its unit, and the
output fingerprints. `--workload all` runs every workload in turn, each in its
own process, and ends with one line that holds them all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checkout import OUT, ROOT, CheckoutError, pin_blas, use_checkout_sources

pin_blas()  # before anything imports numpy

WORKLOAD_NAMES = ("desk-pruned", "desk-sweep", "desk-padded")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_one(args: argparse.Namespace) -> int:
    import common
    import runs

    begin = time.perf_counter()
    inputs = common.make_inputs(common.WORKLOADS[args.workload], args.seed)
    inputs_s = time.perf_counter() - begin
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            outcome = runs.traced_run(inputs, args.seconds, Path(workdir), trace_path)
        else:
            outcome = runs.timed_run(inputs, args.seconds, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    config = inputs.config
    print(f"mve benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(common.machine_facts(), sort_keys=True))
    print("settings: " + json.dumps({
        "docs": len(inputs.corpus), "queries": len(inputs.queries),
        "strategy": common.STRATEGY, "p": inputs.p, "q_len": config.q_len,
        "dim": config.dim, "k": config.k, "k_prime": config.k_prime,
        "n_probe": config.n_probe, "engine_seed": config.seed,
        "request": inputs.workload.request, "clients": 1, "loop": "closed",
    }, sort_keys=True))
    print("info: " + json.dumps({**outcome.info, "inputs_s": inputs_s}, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"error_rate = {outcome.failed / max(outcome.attempted, 1)!r} "
          f"(failed {outcome.failed} of {outcome.attempted} attempted)")
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in outcome.metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
