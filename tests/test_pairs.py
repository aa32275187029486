"""``tools/pairs.py``: the paired-run summary and the ``--out`` record, on
synthetic runs (no benchmark run is started)."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_gives_quartiles_wins_and_verdicts(pairs):
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    faster = [value * 1.5 for value in parent]
    row = pairs.summarize(parent, faster, "higher", 0.25)
    assert row["parent"] == pytest.approx((11.0, 12.0, 13.0))
    assert row["change"] == pytest.approx((16.5, 18.0, 19.5))
    assert row["pct"] == pytest.approx(50.0)
    assert row["wins"] == 10 and row["verdict"] == "gain"
    # lower is better: the same numbers are now a regression past the bound
    row = pairs.summarize(parent, faster, "lower", 0.25)
    assert row["wins"] == 0 and row["verdict"] == "regression"
    # 8 wins of 10 is no gain, and a difference inside the bound no regression
    nudged = [p + (0.1 if i < 8 else -0.1) for i, p in enumerate(parent)]
    assert pairs.summarize(parent, nudged, "higher", 0.25)["verdict"] == "-"
    # a difference within the parent's interquartile distance is no gain
    assert pairs.summarize(parent, [p + 0.5 for p in parent], "higher", 0.25)["verdict"] == "-"
    assert math.isnan(pairs.summarize([0.0, 0.0], [1.0, 1.0], "higher", 0.1)["pct"])


def test_summarize_calls_a_spread_wider_than_the_bound_unresolved(pairs):
    # desk-sweep setup_s in BENCH_21, which read "-": parent quartiles
    # 0.127-0.165 s around a 0.141 s median, 27% of it, against a bound of 25%
    record = json.loads((ROOT / "BENCH_21.json").read_text(encoding="utf-8"))
    runs = {
        side: [pair[side]["desk-sweep/setup_s"] for pair in record["pairs"]]
        for side in ("parent", "change")
    }
    row = pairs.summarize(runs["parent"], runs["change"], "lower", 0.25)
    q1, median, q3 = row["parent"]
    assert (q3 - q1) / median == pytest.approx(0.269, abs=1e-3)
    assert row["wins"] == 6 and row["verdict"] == "unresolved"
    parent = runs["parent"]
    steady = [median] * 10
    assert pairs.summarize(parent, steady, "lower", 0.25)["verdict"] == "unresolved"
    # either side's spread counts
    assert pairs.summarize(steady, parent, "lower", 0.25)["verdict"] == "unresolved"
    assert pairs.summarize(parent, parent, "lower", 0.30)["verdict"] == "-"
    # every change run better than every parent run tells, however wide,
    # though a gain within the parent's spread is no gain
    below = [min(parent) - 0.001 * i for i in range(1, 11)]
    assert pairs.summarize(parent, below, "lower", 0.25)["verdict"] == "-"
    # gain and regression come first
    assert pairs.summarize(parent, [v / 2 for v in parent], "lower", 0.25)["verdict"] == "gain"
    assert pairs.summarize(parent, [v * 2 for v in parent], "lower", 0.25)["verdict"] == (
        "regression"
    )


def synthetic_runs(count: int) -> dict[str, list[dict]]:
    def run(side: str, i: int) -> dict:
        speed = 50.0 + i if side == "parent" else 65.0 + i
        return {
            "metrics": {
                "desk-padded/requests_per_s": speed,
                "desk-padded/peak_rss_mb": 130.0,
                "desk-padded/mrr10": 0.0,
                "desk-padded/not_declared": 1.0,
            },
            "fingerprints": {"desk-padded": {"run_sha256": "f6ad"}},
        }

    return {side: [run(side, i) for i in range(count)] for side in ("parent", "change")}


def test_trajectory_record_round_trips_through_the_writer(pairs, tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = synthetic_runs(4)
    rows = pairs.summaries(runs, declared)
    assert list(rows) == [
        "desk-padded/requests_per_s", "desk-padded/peak_rss_mb", "desk-padded/mrr10",
    ]
    seeds = [700, 701, 702, 703]
    orders = [("parent", "change"), ("change", "parent")] * 2
    settings = {"workload": "desk-padded", "seconds": 30.0}
    path = tmp_path / "BENCH.json"
    pairs.write_trajectory(path, pairs.trajectory(settings, seeds, orders, runs, rows, True))
    record = json.loads(path.read_text(encoding="utf-8"))

    assert record["workload"] == "desk-padded" and record["seconds"] == 30.0
    assert [pair["seed"] for pair in record["pairs"]] == seeds
    assert [pair["order"] for pair in record["pairs"]] == [list(o) for o in orders]
    assert record["pairs"][1]["change"]["desk-padded/requests_per_s"] == 66.0
    assert record["pairs"][1]["parent"]["desk-padded/requests_per_s"] == 51.0
    speed = record["summary"]["desk-padded/requests_per_s"]
    assert speed["parent"] == {"q1": 50.75, "median": 51.5, "q3": 52.25}
    assert speed["change"]["median"] == 66.5
    assert speed["wins"] == 4 and speed["verdict"] == "gain"
    assert speed["pct"] == pytest.approx(100.0 * 15.0 / 51.5)
    # a median of 0 gives no percentage, which JSON holds as null
    assert record["summary"]["desk-padded/mrr10"]["pct"] is None
    assert "desk-padded/not_declared" not in record["summary"]
    assert record["fingerprints_agree"] is True
    assert record["fingerprints"] == {"desk-padded": {"run_sha256": "f6ad"}}
