"""The timed run (end-to-end metrics) and the traced run (per-layer metrics)
of one workload. Import only after `checkout.use_checkout_sources()`.

Load comes from one closed-loop client in this process: each request is sent
when the previous one has returned. A request is one `Engine.search` on the
search workloads and one `Engine.sweep` over a pair of queries on
`desk-sweep`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from mve.engine import Engine, build_engine, load_engine, save_engine
from mve.evaluation import format_run_lines

import common
import tracing
from checkout import ROOT, child_env

N_SETUPS = 3  # build + save + load, each followed by a first query
# The timed window interleaves three activities: closed-loop requests, fresh
# loads of the saved engine (each followed by a first query) and `mve search`
# cold starts. Each step runs the activity furthest behind its share of the
# window, so that every metric samples the whole window: the speed of a shared
# host switches between states for tens of seconds at a time.
SHARES = {"request": 0.35, "reload": 0.15, "cli": 0.5}
TRIM = 0.2  # load, first-query and CLI times are means with this share cut from each end
SUBPROCESS_TIMEOUT_S = 120
TRACED_SWEEP_QUERIES = 4  # traced sweep size on the search workloads


class Outcome:
    """Attempted and failed operations, the reasons for failures, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict[str, object] = {}

    def attempt(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def fail(self, problem: str | None) -> None:
        """A later check of an operation already attempted."""
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def check(self, problem: str | None) -> None:
        """A whole-run check; a failure marks the run incorrect."""
        if problem is not None:
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def _search(engine: Engine, inputs: common.Inputs, text: str):
    return engine.search(text, strategy=common.STRATEGY, p=inputs.p)


def _sweep(engine: Engine, inputs: common.Inputs, queries):
    return engine.sweep(
        queries, inputs.qrels, common.SWEEP_STRATEGIES, inputs.sweep_p_values(), threads=1
    )


class _ClosedLoop:
    """Requests sent back to back, one at a time; every repeat of an item
    must answer `same` as its first answer."""

    def __init__(self, items: list, send, same, out: Outcome) -> None:
        self.items, self.send, self.same, self.out = items, send, same, out
        self.latencies: list[float] = []  # ms
        self.first: list = [None] * len(items)

    def step(self) -> None:
        self.latencies.append(self._request(len(self.latencies)))

    def finish(self) -> None:
        """Send requests until the tail percentile has its sample count and
        the loop has made a whole number of passes over the items, so that
        each item weighs the same whatever order the seed gave them."""
        min_samples = common.min_samples_for(common.TAIL_PERCENTILE)
        while len(self.latencies) < min_samples or len(self.latencies) % len(self.items):
            self.step()

    def _request(self, i: int) -> float:
        k = i % len(self.items)
        begin = time.perf_counter_ns()
        try:
            answer = self.send(self.items[k])
        except Exception as exc:  # counted as a failed request
            self.out.attempt(f"request {k}: {type(exc).__name__}: {exc}")
            return (time.perf_counter_ns() - begin) / 1e6
        latency = (time.perf_counter_ns() - begin) / 1e6
        if self.first[k] is None:
            self.first[k] = answer
            self.out.attempt(None)
        else:
            repeat = self.same(answer, self.first[k])
            self.out.attempt(None if repeat else f"request {k}: a repeat answered differently")
        return latency


def _cli_search(
    launcher: list[str], directory: Path, inputs: common.Inputs, qid: str, text: str
):
    """Run `python <launcher> search ...` for one query; (wall seconds, result)."""
    argv = [
        sys.executable, *launcher, "search", "--index", str(directory), "--query", text,
        "--qid", qid, "--strategy", common.STRATEGY, "--p", str(inputs.p),
    ]
    begin = time.perf_counter()
    done = subprocess.run(
        argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return time.perf_counter() - begin, done


def _check_cli(done, expected: str) -> str | None:
    if done.returncode != 0:
        return f"mve search exited {done.returncode}: {done.stderr.strip()[-300:]}"
    if done.stdout != expected:
        return "mve search output differs from Engine.search"
    return None


def _search_all(engine: Engine, inputs: common.Inputs, out: Outcome):
    """One untimed search per query, in query order: (qid, text, ranking, candidates)."""
    results = []
    for qid, text in inputs.queries:
        results.append((qid, text, *_search(engine, inputs, text)))
        out.attempt(None)
    return results


def _check_sweep(engine: Engine, inputs: common.Inputs, out: Outcome) -> None:
    """Sweep all queries once: fingerprint the CSV, check the acceptance
    suite's sanity floor on the unpruned baseline row, and check that the
    workload's (strategy, p) row agrees with the searches' metrics."""
    begin = time.perf_counter()
    table = _sweep(engine, inputs, inputs.queries)
    out.info["full_sweep_s"] = time.perf_counter() - begin
    out.info["sweep_csv_sha256"] = hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest()
    baseline = table.row("first", inputs.config.q_len)
    if baseline.mrr10 <= 0.5:
        out.check(f"unpruned mrr10 {baseline.mrr10} is not above the acceptance suite's 0.5")
    row = table.row(common.STRATEGY, inputs.p)
    mrr = out.metrics["mrr10"][0]
    docs = out.metrics["candidates_per_query"][0]
    if abs(row.mrr10 - mrr) > 1e-9 or abs(row.mean_docs - docs) > 1e-9:
        out.check(
            f"sweep row ({row.strategy}, {row.p}) mrr10={row.mrr10} mean_docs="
            f"{row.mean_docs} disagrees with search mrr10={mrr} candidates={docs}"
        )


def _check_results(engine: Engine, inputs: common.Inputs, results, outcome: Outcome) -> None:
    """Oracle check of every search, then the effectiveness and size metrics."""
    doc_number = {d: i for i, d in enumerate(engine.index.store.doc_ids)}
    for qid, text, ranking, candidates in results:
        problem = common.check_search(engine, text, ranking, candidates, doc_number)
        outcome.fail(None if problem is None else f"{qid}: {problem}")
    pairs = sorted((qid, ranking) for qid, _, ranking, _ in results)
    outcome.info["run_sha256"] = common.run_fingerprint(pairs)
    outcome.metric("mrr10", common.mrr_at_10(pairs, inputs.qrels), "1")
    outcome.metric(
        "candidates_per_query", sum(len(c) for *_, c in results) / len(results), "count"
    )


def _interleave(activities: dict, shares: dict[str, float], seconds: float) -> dict[str, float]:
    """Run steps of the activities for `seconds`, and until each has run,
    each step the activity furthest behind its share of the time; return the
    seconds each took."""
    spent = dict.fromkeys(shares, 0.0)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not all(spent.values()):
        kind = min(shares, key=lambda k: spent[k] / shares[k])
        begin = time.perf_counter()
        activities[kind]()
        spent[kind] += time.perf_counter() - begin
    return spent


class _Laps:
    """Wall time of each phase of a run, for the info line."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now


def timed_run(inputs: common.Inputs, seconds: float, workdir: Path) -> Outcome:
    out = Outcome()
    laps = _Laps()
    queries = inputs.queries
    n = len(queries)
    # First queries and CLI searches take the queries in id order, so that
    # every seed times the same ones; the seed orders the closed loop.
    by_id = sorted(queries)
    setup_s, load_s, first_ms, first_rankings, cli_s, cli_runs = [], [], [], [], [], []

    def first_query(engine: Engine) -> None:
        qid, text = by_id[len(first_ms) % n]
        begin = time.perf_counter()
        ranking, _ = _search(engine, inputs, text)
        first_ms.append((time.perf_counter() - begin) * 1e3)
        first_rankings.append((qid, ranking))

    # Set-up: build, save and load, then the first query on the fresh engine.
    directory = workdir / "engine"
    for _ in range(N_SETUPS):
        shutil.rmtree(directory, ignore_errors=True)
        begin = time.perf_counter()
        built = build_engine(inputs.corpus, inputs.config)
        save_engine(built, directory)
        engine = load_engine(directory)
        setup_s.append(time.perf_counter() - begin)
        del built
        first_query(engine)
    laps.lap("setup")

    if inputs.workload.request == "search":
        loop = _ClosedLoop(
            queries, lambda q: _search(engine, inputs, q[1]),
            lambda a, b: a[0].entries == b[0].entries, out,
        )
    else:
        pairs = [queries[j : j + common.SWEEP_BATCH] for j in range(0, n, common.SWEEP_BATCH)]
        loop = _ClosedLoop(
            pairs, lambda pair: _sweep(engine, inputs, pair).to_csv(), str.__eq__, out
        )

    def reload() -> None:
        # A separate engine: the closed loop keeps its warm one, so that no
        # request is the second query on a cold engine.
        begin = time.perf_counter()
        fresh = load_engine(directory)
        load_s.append(time.perf_counter() - begin)
        first_query(fresh)

    def cli() -> None:
        qid, text = by_id[len(cli_s) % n]
        elapsed, done = _cli_search(["-m", "mve"], directory, inputs, qid, text)
        cli_s.append(elapsed)
        cli_runs.append((qid, done))

    spent = _interleave({"request": loop.step, "reload": reload, "cli": cli}, SHARES, seconds)
    loop.finish()
    laps.lap("window")
    latencies = loop.latencies
    tail = common.TAIL_PERCENTILE
    for name, value, unit in (
        ("setup_s", common.median(setup_s), "s"),
        ("load_s", common.trimmed_mean(load_s, TRIM), "s"),
        ("first_query_ms", common.trimmed_mean(first_ms, TRIM), "ms"),
        ("requests_per_s", len(latencies) / (sum(latencies) / 1e3), "1/s"),
        (f"request_ms_p{tail}", common.tail_value(latencies, tail), "ms"),
        ("cli_search_s", common.trimmed_mean(cli_s, TRIM), "s"),
    ):
        out.metric(name, value, unit)

    # Outside the timed window: the oracle, effectiveness, fresh-load and CLI answers.
    if inputs.workload.request == "search":
        results = [(*q, *a) for q, a in zip(queries, loop.first) if a is not None]
        _check_results(engine, inputs, results, out)
    else:
        results = _search_all(engine, inputs, out)
        _check_results(engine, inputs, results, out)
        _check_sweep(engine, inputs, out)
    by_query = {qid: ranking for qid, _, ranking, _ in results}
    for qid, ranking in first_rankings:
        same = qid in by_query and ranking.entries == by_query[qid].entries
        out.attempt(None if same else f"{qid}: first query after a fresh load ranked differently")
    for qid, done in cli_runs:
        expected = format_run_lines(qid, by_query[qid]) if qid in by_query else None
        out.attempt(_check_cli(done, expected))
    out.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
    laps.lap("checks")

    out.info["phase_s"] = laps.seconds
    out.info["window_share_s"] = spent
    out.info["samples"] = {
        "setup": len(setup_s), "load": len(load_s), "first_query": len(first_ms),
        "requests": len(latencies), "request_cycle": len(loop.items), "cli": len(cli_s),
        "queries": n,
    }
    return out


def traced_run(inputs: common.Inputs, seconds: float, workdir: Path, trace_path: Path) -> Outcome:
    out = Outcome()
    tracer = tracing.Tracer()
    queries = inputs.queries
    n = len(queries)

    def seconds_of(totals: dict[str, int], name: str) -> float:
        return totals.get(name, 0) / 1e9

    # Build path, rebuilt and compared with build_engine.
    mark = len(tracer.spans)
    rebuilt = tracing.traced_build(inputs.corpus, inputs.config, tracer)
    totals = tracer.self_totals(mark)
    built = build_engine(inputs.corpus, inputs.config)
    out.attempt(_differs("rebuilt build path", tracing.engine_difference(rebuilt, built)))
    del rebuilt
    for name in ("core.embed_corpus", "core.lexicon", "index.store", "index.train", "index.assign"):
        out.metric(f"{name}_s", seconds_of(totals, name), "s")
    objective = built.index.centroids.objective_history
    out.metric("index.kmeans_objective", objective[-1], "cosine")
    sizes = np.array([len(ids) for ids in built.index.lists], dtype=np.float64)
    out.metric("index.list_max_over_mean", sizes.max() / sizes.mean(), "ratio")

    # Save and load, rebuilt and compared with load_engine.
    directory = workdir / "engine"
    mark = len(tracer.spans)
    engine = tracing.traced_save_load(built, directory, tracer)
    totals = tracer.self_totals(mark)
    reloaded = load_engine(directory)
    out.attempt(_differs("rebuilt load path", tracing.engine_difference(engine, reloaded)))
    out.attempt(_differs("save/load round trip", tracing.engine_difference(engine, built)))
    del built
    for name in ("index.save", "index.load", "core.load_lexicon"):
        out.metric(f"{name}_s", seconds_of(totals, name), "s")
    store = engine.index.store
    index_bytes = (directory / "index.mvix").stat().st_size
    out.metric(
        "index.bytes_per_vector_byte", index_bytes / (store.num_embeddings * store.dim * 4), "ratio"
    )

    # Searches: untraced Engine.search and the traced rebuild, alternating.
    mark = len(tracer.spans)
    untraced_ms, traced_ms, counters = [], [], []

    def request(i: int) -> None:
        qid, text = queries[i % n]
        tracer.query_id = qid
        timings = {}
        for side in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            begin = time.perf_counter_ns()
            if side == "untraced":
                ranking, candidates = _search(engine, inputs, text)
            else:
                traced = tracing.traced_search(engine, text, common.STRATEGY, inputs.p, tracer)
            timings[side] = (time.perf_counter_ns() - begin) / 1e6
        tracer.query_id = None
        same = (
            traced.ranking.entries == ranking.entries
            and traced.candidates.docs == candidates.docs
        )
        out.attempt(None if same else f"{qid}: traced search differs from Engine.search")
        if i < n:
            counters.append(tracing.search_counters(engine, traced))
        untraced_ms.append(timings["untraced"])
        traced_ms.append(timings["traced"])

    started, i = time.perf_counter(), 0
    while i < n or time.perf_counter() - started < seconds:
        request(i)
        i += 1
    totals = tracer.self_totals(mark)
    searches = len(traced_ms)
    for name in ("core.encode", "retrieval.order", "retrieval.ann", "retrieval.union",
                 "retrieval.rerank", "retrieval.maxsim"):
        out.metric(f"{name}_ms", totals.get(name, 0) / 1e6 / searches, "ms")
    for key, unit in (("ann_calls", "count"), ("ann_distinct_vectors", "count"),
                      ("ann_scanned", "count"), ("ann_bytes", "bytes"), ("ann_hits", "count"),
                      ("union_inputs", "count"), ("rerank_tokens", "count"),
                      ("maxsim_flops", "flop")):
        out.metric(f"retrieval.{key}", sum(c[key] for c in counters) / len(counters), unit)
    out.metric(
        "retrieval.union_yield",
        sum(c["candidates"] for c in counters) / sum(c["union_inputs"] for c in counters),
        "ratio",
    )
    out.metric("trace.overhead_ms", common.median(traced_ms) - common.median(untraced_ms), "ms")

    # The sweep, with the names mve.evaluation calls wrapped.
    swept = queries if inputs.workload.request == "sweep" else queries[:TRACED_SWEEP_QUERIES]
    expected = _sweep(engine, inputs, swept).to_csv()
    mark = len(tracer.spans)
    table = tracing.traced_sweep(
        engine, swept, inputs.qrels, common.SWEEP_STRATEGIES, inputs.sweep_p_values(), tracer
    )
    totals = tracer.self_totals(mark)
    out.attempt(None if table.to_csv() == expected else "traced sweep differs from Engine.sweep")
    out.metric("evaluation.query_self_ms", totals["evaluation.sweep"] / 1e6 / len(swept), "ms")
    for name in ("ann", "maxsim", "metrics", "ttest"):
        per_query_ns = totals.get(f"evaluation.{name}", 0) / len(swept)
        out.metric(f"evaluation.{name}_ms", per_query_ns / 1e6, "ms")

    # One CLI search with its import, load and search time taken apart.
    qid, text = queries[0]
    ranking, _ = _search(engine, inputs, text)
    timings_path = workdir / "cli_timings.json"
    child = Path(__file__).with_name("cli_child.py")
    _, done = _cli_search([str(child), str(timings_path)], directory, inputs, qid, text)
    problem = _check_cli(done, format_run_lines(qid, ranking))
    out.attempt(problem)
    if problem is None:
        cli = json.loads(timings_path.read_text(encoding="utf-8"))
        out.metric("cli.import_s", cli["import_s"], "s")
        out.metric("cli.self_s", cli["run_s"] - cli["load_s"] - cli["search_s"], "s")

    tracer.write(trace_path)
    out.info["trace_file"] = str(trace_path.relative_to(ROOT))
    out.info["spans"] = len(tracer.spans)
    out.info["samples"] = {"traced_searches": searches, "swept_queries": len(swept), "queries": n}
    return out


def _differs(what: str, part: str | None) -> str | None:
    return None if part is None else f"{what} differs in {part}"
