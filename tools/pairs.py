#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/pairs.py PARENT CHANGE --workload desk-pruned --pairs 10 --seed 500
    python3 tools/pairs.py PARENT CHANGE --workload all --pairs 10 --seed 500 --seconds 30 \
        --out BENCH_11.json

PARENT and CHANGE are checkout directories. Pair ``i`` runs
``perfbench/run.py --trace 0`` once in each, both with seed ``S + i``; the
parent runs first in even pairs and the change in odd ones, so drift in the
host's speed falls on both sides alike. Each checkout runs its own
``perfbench/``. ``--seconds`` defaults to ``run_seconds`` of the change's
``BENCHMARK.json``, which also gives each metric's direction and bound.

For every workload and metric the report gives each side's median and
quartiles, the change of the medians in %, and the pairs the change won
(ties count for neither). The verdict is ``gain`` when the change won at
least 9 in 10 of the pairs and its median is better by more than the
parent's interquartile distance, and ``regression`` when its median is worse
than the parent's by more than the bound. Otherwise it is ``unresolved`` when
either side's interquartile distance is wider than the bound (as a share of
the parent's median), unless every run of the change is better than every
run of the parent, and ``-`` when the medians are within the bound and the
runs are steady enough to tell. Every run's output fingerprints
(``run_sha256``, ``sweep_csv_sha256``) must equal its partner's.

``--out FILE`` also writes the comparison as one JSON file, the trajectory
record a performance claim commits: the settings, each pair's seed, order
and both runs' metrics, every metric's summary and the fingerprints.

Exit status: 0 when every run is correct and every fingerprint agrees, 1
otherwise (a run that fails stops the comparison).
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

FINGERPRINTS = ("run_sha256", "sweep_csv_sha256")
HEADER_PREFIX = "mve benchmark: workload="


class RunError(RuntimeError):
    """A benchmark run exited non-zero or reported failures."""


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py` run: ``{"metrics": {"W/name": value},
    "fingerprints": {"W": {name: sha}}}``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RunError(f"{checkout}: {' '.join(command[1:])} exited {done.returncode}\n"
                       f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RunError(f"{checkout}: seed {seed}: {result['failed']} of "
                       f"{result['attempted']} operations failed or a check did not hold")
    metrics = {}
    for name, entry in result["metrics"].items():
        metrics[name if "/" in name else f"{workload}/{name}"] = entry["value"]
    fingerprints: dict[str, dict[str, str]] = {}
    current = workload
    for line in lines:
        if line.startswith(HEADER_PREFIX):
            current = line[len(HEADER_PREFIX):].split()[0]
        elif line.startswith("info: "):
            info = json.loads(line[len("info: "):])
            fingerprints[current] = {k: info[k] for k in FINGERPRINTS if k in info}
    return {"metrics": metrics, "fingerprints": fingerprints}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, wins and verdict for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75])
    c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
    gain = sign * (c_med - p_med)
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= math.ceil(0.9 * len(parent)) and gain > p_q3 - p_q1:
        verdict = "gain"
    elif gain < -bound * abs(p_med):
        verdict = "regression"
    elif spread > bound * abs(p_med) and not separated:
        verdict = "unresolved"
    else:
        verdict = "-"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "pct": 100.0 * (c_med - p_med) / p_med if p_med else math.nan,
        "wins": wins,
        "verdict": verdict,
    }


def summaries(runs: dict[str, list[dict]], declared: dict) -> dict[str, dict]:
    """:func:`summarize` of every declared end-to-end metric, keyed
    ``workload/metric`` in the order the runs report them."""
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    rows = {}
    for key in runs["parent"][0]["metrics"]:
        declared_metric = metrics.get(key.split("/", 1)[1])
        if declared_metric is not None:
            rows[key] = summarize(
                [run["metrics"][key] for run in runs["parent"]],
                [run["metrics"][key] for run in runs["change"]],
                declared_metric["better"],
                declared_metric["bound"],
            )
    return rows


def _number(value: float) -> float | None:
    """A float for JSON; NaN, which JSON cannot hold, becomes null."""
    value = float(value)
    return None if math.isnan(value) else value


def trajectory(settings: dict, seeds: list[int], orders: list[tuple[str, str]],
               runs: dict[str, list[dict]], rows: dict[str, dict], agree: bool) -> dict:
    """The ``--out`` record of one comparison."""
    quartiles = ("q1", "median", "q3")
    return {
        **settings,
        "pairs": [
            {
                "seed": seed,
                "order": list(order),
                "parent": runs["parent"][i]["metrics"],
                "change": runs["change"][i]["metrics"],
            }
            for i, (seed, order) in enumerate(zip(seeds, orders))
        ],
        "summary": {
            key: {
                "parent": dict(zip(quartiles, map(_number, row["parent"]))),
                "change": dict(zip(quartiles, map(_number, row["change"]))),
                "pct": _number(row["pct"]),
                "wins": int(row["wins"]),
                "verdict": row["verdict"],
            }
            for key, row in rows.items()
        },
        "fingerprints_agree": agree,
        "fingerprints": runs["change"][-1]["fingerprints"],
    }


def write_trajectory(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=1, sort_keys=True, allow_nan=False) + "\n",
                    encoding="utf-8")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="first pair's seed")
    parser.add_argument("--seconds", type=float, help="timed window of each run")
    parser.add_argument("--out", type=Path, help="also write the comparison as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    seeds = [args.seed + i for i in range(args.pairs)]
    orders = [("parent", "change") if i % 2 == 0 else ("change", "parent")
              for i in range(args.pairs)]
    agree = True
    for i, (seed, order) in enumerate(zip(seeds, orders)):
        for side in order:
            try:
                run = run_benchmark(sides[side], args.workload, seed, seconds)
            except RunError as exc:
                print(f"pairs: {exc}", file=sys.stderr)
                return 1
            runs[side].append(run)
            print(f"pair {i} seed {seed} {side}: {json.dumps(run['metrics'], sort_keys=True)}",
                  flush=True)
        if runs["parent"][-1]["fingerprints"] != runs["change"][-1]["fingerprints"]:
            agree = False
            print(f"pair {i} seed {seed}: fingerprints differ: parent "
                  f"{runs['parent'][-1]['fingerprints']} change "
                  f"{runs['change'][-1]['fingerprints']}", flush=True)

    rows = summaries(runs, declared)
    print(f"\n{args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
          f"{seconds:g} s windows; parent {args.parent}, change {args.change}")
    print(f"{'workload/metric':36s} {'parent q1 / median / q3':>32s} "
          f"{'change q1 / median / q3':>32s} {'change':>8s} {'wins':>6s}  verdict")
    for key, row in rows.items():
        quartiles = {side: " / ".join(f"{v:.4g}" for v in row[side]) for side in sides}
        print(f"{key:36s} {quartiles['parent']:>32s} {quartiles['change']:>32s} "
              f"{row['pct']:+7.1f}% {row['wins']:>3d}/{args.pairs:<2d}  {row['verdict']}")
    fingerprints = runs["change"][-1]["fingerprints"]
    print("fingerprints " + ("agree" if agree else "DIFFER") + ": "
          + json.dumps(fingerprints, sort_keys=True))
    if args.out is not None:
        settings = {"workload": args.workload, "seconds": seconds}
        write_trajectory(args.out, trajectory(settings, seeds, orders, runs, rows, agree))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
