"""Tests of the benchmark itself: percentiles, self times, counters, and the
traced paths' equality with the engine's own entry points.

Run from the checkout root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mve.engine import EngineConfig, build_engine, load_engine
from synthdata import planted_fixture

import common
import runs
import tracing

PERFBENCH = Path(__file__).resolve().parent.parent
STRATEGIES = ("first", "icf")


@pytest.fixture(scope="module")
def small():
    fixture = planted_fixture(
        num_docs=400, num_queries=8, doc_len=10, vocab_size=300, common_band=(15, 80), seed=99
    )
    config = EngineConfig(
        dim=32, q_len=fixture.q_len + 4, k=100, k_prime=50, n_list=None, n_probe=4,
        sample_fraction=0.5, iterations=10, seed=11,
    )
    return fixture, config, build_engine(fixture.corpus, config)


# --------------------------------------------------------------------------
# Percentile rule
# --------------------------------------------------------------------------


@pytest.mark.parametrize("percentile", [50, 80, 90, 95, 99])
def test_tail_needs_ten_samples_beyond(percentile):
    n = common.min_samples_for(percentile)
    samples = [float(v) for v in range(n)]
    value = common.tail_value(samples, percentile)
    assert sum(s > value for s in samples) >= 10
    with pytest.raises(ValueError):
        common.tail_value(samples[:-1], percentile)


def test_tail_is_the_nearest_rank():
    assert common.min_samples_for(90) == 100
    samples = [float(v) for v in reversed(range(1, 101))]
    assert common.tail_value(samples, 90) == 90.0
    assert common.tail_value([1.0] * 150, 90) == 1.0
    with pytest.raises(ValueError):
        common.tail_value([], 90)


def test_closed_loop_ends_on_whole_passes_with_enough_samples_for_the_tail():
    out = runs.Outcome()
    loop = runs._ClosedLoop(["a", "b", "c"], str.upper, str.__eq__, out)
    loop.step()
    assert len(loop.latencies) == 1
    loop.finish()
    n = len(loop.latencies)
    assert n % 3 == 0 and n >= common.min_samples_for(common.TAIL_PERCENTILE)
    common.tail_value(loop.latencies, common.TAIL_PERCENTILE)
    assert loop.first == ["A", "B", "C"]
    assert (out.attempted, out.failed) == (n, 0)


def test_closed_loop_counts_changed_answers_and_exceptions_as_failures():
    answers = iter(["x", "y", "x", "boom", "z"])

    def send(_):
        answer = next(answers)
        if answer == "boom":
            raise ValueError(answer)
        return answer

    out = runs.Outcome()
    loop = runs._ClosedLoop(["q0", "q1"], send, str.__eq__, out)
    for _ in range(5):
        loop.latencies.append(loop._request(len(loop.latencies)))
    # q0: x, then x again (same), then z (differs); q1: y, then an exception
    assert (out.attempted, out.failed) == (5, 2)


def test_trimmed_mean_drops_the_same_share_from_each_end():
    assert common.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0], 0.2) == 3.0
    assert common.trimmed_mean([5.0, 1.0, 3.0, 7.0], 0.2) == 4.0  # cuts nothing from 4
    assert common.trimmed_mean([2.0], 0.2) == 2.0
    with pytest.raises(ValueError):
        common.trimmed_mean([], 0.2)


def test_interleave_gives_each_activity_its_share_of_the_window(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(runs.time, "perf_counter", lambda: clock[0])
    steps = []

    def activity(name, cost):
        def step():
            steps.append(name)
            clock[0] += cost

        return step

    activities = {"short": activity("short", 1.0), "long": activity("long", 3.0)}
    shares = {"short": 0.25, "long": 0.75}
    assert runs._interleave(activities, shares, 120.0) == {"short": 30.0, "long": 90.0}
    assert steps == ["short", "long"] * 30  # ties go to the first activity
    steps.clear()
    runs._interleave(activities, shares, 0.5)
    assert steps == ["short", "long"]  # a short window still runs every activity


# --------------------------------------------------------------------------
# Self time
# --------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    tracer = tracing.Tracer(
        spans=[
            ["root", 0, 100, -1, None],
            ["a", 10, 30, 0, None],
            ["b", 20, 50, 0, None],  # overlaps a: covered 10..50 once
            ["c", 90, 120, 0, None],  # runs past the root: only 90..100 counts
            ["d", 25, 28, 1, None],  # grandchild: counts against a, not root
        ]
    )
    assert tracer.self_ns() == [50, 17, 30, 30, 3]
    assert tracer.self_totals() == {"root": 50, "a": 17, "b": 30, "c": 30, "d": 3}
    assert tracer.self_totals(first=3) == {"c": 30, "d": 3}


def test_nested_self_times_sum_to_the_root_duration():
    tracer = tracing.Tracer()
    with tracer.span("root"):
        for _ in range(3):
            with tracer.span("child"):
                with tracer.span("grandchild"):
                    sum(range(1000))
    root = tracer.spans[0]
    assert sum(tracer.self_ns()) == root[2] - root[1]
    assert all(own >= 0 for own in tracer.self_ns())
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 3, 0, 5]


# --------------------------------------------------------------------------
# Traced paths reproduce the engine
# --------------------------------------------------------------------------


def test_traced_build_and_load_equal_the_engine(small, tmp_path):
    fixture, config, engine = small
    tracer = tracing.Tracer()
    rebuilt = tracing.traced_build(fixture.corpus, config, tracer)
    assert tracing.engine_difference(rebuilt, engine) is None
    loaded = tracing.traced_save_load(rebuilt, tmp_path / "engine", tracer)
    assert tracing.engine_difference(loaded, engine) is None
    assert tracing.engine_difference(loaded, load_engine(tmp_path / "engine")) is None
    names = {s[0] for s in tracer.spans}
    assert {"core.embed_corpus", "index.train", "index.assign", "index.load"} <= names


def test_engine_difference_names_the_part(small):
    fixture, config, engine = small
    other = build_engine(fixture.corpus, dataclasses.replace(config, seed=12))
    assert tracing.engine_difference(other, engine) is not None


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_traced_search_ranks_like_engine_search(small, strategy):
    fixture, config, engine = small
    tracer = tracing.Tracer()
    for p in (1, 3, config.q_len):
        for _, text in fixture.queries:
            ranking, candidates = engine.search(text, strategy=strategy, p=p)
            traced = tracing.traced_search(engine, text, strategy, p, tracer)
            assert traced.ranking.entries == ranking.entries
            assert traced.candidates.docs == candidates.docs
    assert "retrieval.maxsim" in {s[0] for s in tracer.spans}


def test_traced_sweep_writes_the_same_csv(small):
    fixture, config, engine = small
    qrels = common.Qrels(fixture.judgments)
    p_values = [1, 2, config.q_len]
    expected = engine.sweep(fixture.queries, qrels, STRATEGIES, p_values).to_csv()
    tracer = tracing.Tracer()
    table = tracing.traced_sweep(engine, fixture.queries, qrels, STRATEGIES, p_values, tracer)
    assert table.to_csv() == expected
    names = {s[0] for s in tracer.spans}
    wrapped = {"evaluation.ann", "evaluation.maxsim", "evaluation.metrics", "evaluation.ttest"}
    assert wrapped <= names
    # the wrappers are gone again
    assert common.format_run_lines.__module__ == "mve.evaluation"
    import mve.evaluation

    assert mve.evaluation.ann_candidates.__module__ == "mve.retrieval"


# --------------------------------------------------------------------------
# Deterministic counters
# --------------------------------------------------------------------------


def _counters(fixture, config):
    engine = build_engine(fixture.corpus, config)
    tracer = tracing.Tracer()
    return [
        tracing.search_counters(engine, tracing.traced_search(engine, text, "icf", p, tracer))
        for p in (1, config.q_len)
        for _, text in fixture.queries
    ]


def test_counters_repeat_exactly_for_a_fixed_seed(small):
    fixture, config, _ = small
    first, second = _counters(fixture, config), _counters(fixture, config)
    assert first == second
    for counts in first:
        assert counts["ann_distinct_vectors"] <= counts["ann_calls"]
        assert counts["candidates"] <= counts["union_inputs"]
        assert counts["ann_hits"] <= counts["ann_scanned"]
        assert counts["maxsim_flops"] == 2 * config.q_len * config.dim * counts["rerank_tokens"]
    masks = [c for c in first if c["ann_calls"] == config.q_len]
    # every padded query repeats its MASK vector, so fewer vectors than calls
    assert all(c["ann_distinct_vectors"] < c["ann_calls"] for c in masks)


# --------------------------------------------------------------------------
# The oracle
# --------------------------------------------------------------------------


def test_oracle_accepts_engine_results_and_rejects_damaged_ones(small):
    fixture, config, engine = small
    doc_number = {d: i for i, d in enumerate(engine.index.store.doc_ids)}
    _, text = fixture.queries[0]
    ranking, candidates = engine.search(text, strategy="icf", p=config.q_len)
    assert common.check_search(engine, text, ranking, candidates, doc_number) is None
    entries = list(ranking.entries)
    swapped = dataclasses.replace(ranking)
    object.__setattr__(swapped, "entries", (entries[1], entries[0], *entries[2:]))
    assert common.check_search(engine, text, swapped, candidates, doc_number) is not None
    shifted = dataclasses.replace(ranking)
    bumped = (entries[0][0], entries[0][1] + 1e-2)
    object.__setattr__(shifted, "entries", (bumped, *entries[1:]))
    assert common.check_search(engine, text, shifted, candidates, doc_number) is not None


# --------------------------------------------------------------------------
# Outside a checkout
# --------------------------------------------------------------------------


def test_refuses_to_run_without_the_engine_sources(tmp_path):
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=skip)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-pruned", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
