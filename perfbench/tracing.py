"""Spans recorded from outside the engine, and the traced paths that emit them.

A traced run rebuilds the engine's build, save/load, search and sweep paths
from the same public calls the engine makes and records one span around each
call. The rebuilt paths must reproduce `build_engine`, `load_engine`,
`Engine.search` and `Engine.sweep` exactly; the run checks that. Counters are
computed from `index.lists` and array sizes after the spans have closed, so
they cost no traced time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import mve.evaluation
import mve.retrieval
from mve.core import build_lexicon, embed_corpus, load_lexicon, save_lexicon
from mve.engine import CONFIG_FILE, INDEX_FILE, LEXICON_FILE, Engine, EngineConfig
from mve.index import (
    EmbeddingStore,
    build_ivf,
    default_n_list,
    load_index,
    save_index,
    train_centroids,
)
from mve.retrieval import ann_candidates, order_embeddings, pruned_union, rerank


@dataclass
class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent index, query id]."""

    spans: list[list] = field(default_factory=list)
    query_id: str | None = None
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.query_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the part of it its children cover."""
        children: dict[int, list[tuple[int, int]]] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0
            reach = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out

    def self_totals(self, first: int = 0) -> dict[str, int]:
        """Summed self time in ns by span name, over spans from index `first`."""
        totals: dict[str, int] = {}
        for (name, *_), own in zip(self.spans[first:], self.self_ns()[first:]):
            totals[name] = totals.get(name, 0) + own
        return totals

    def write(self, path: Path) -> None:
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as out:
            for (name, start, end, parent, qid), self_time in zip(self.spans, own):
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "query": qid, "self_ns": self_time}
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(module, replacements: dict[str, Callable]) -> Iterator[None]:
    """Swap module attributes for the duration of the block."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


# --------------------------------------------------------------------------
# Build, save and load
# --------------------------------------------------------------------------


def traced_build(corpus, config: EngineConfig, tracer: Tracer) -> Engine:
    """`build_engine` without a dump, one span per stage."""
    with tracer.span("build"):
        with tracer.span("core.embed_corpus"):
            entries, vocab = embed_corpus(corpus, config.seed, config.dim)
        with tracer.span("core.lexicon"):
            lexicon = build_lexicon(entries)
        with tracer.span("index.store"):
            store = EmbeddingStore.from_documents(entries)
        n_list = config.n_list
        if n_list is None:
            total = store.num_embeddings
            sample_size = min(total, math.ceil(config.sample_fraction * total))
            n_list = min(default_n_list(total), sample_size)
        config = dataclasses.replace(config, n_list=n_list)
        with tracer.span("index.train"):
            centroids = train_centroids(
                store, config.sample_fraction, n_list, config.iterations, config.seed
            )
        with tracer.span("index.assign"):
            index = build_ivf(store, centroids)
    return Engine(config=config, vocab=vocab, lexicon=lexicon, index=index)


def traced_save_load(engine: Engine, directory: Path, tracer: Tracer) -> Engine:
    """`save_engine` then `load_engine`, one span per file."""
    with tracer.span("save"):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / CONFIG_FILE).write_text(engine.config.to_json(), encoding="utf-8")
        with tracer.span("core.save_lexicon"):
            save_lexicon(engine.lexicon, engine.vocab, directory / LEXICON_FILE)
        with tracer.span("index.save"):
            save_index(engine.index, directory / INDEX_FILE)
    with tracer.span("load"):
        config = EngineConfig.from_mapping(
            json.loads((directory / CONFIG_FILE).read_text(encoding="utf-8"))
        )
        with tracer.span("index.load"):
            index = load_index(directory / INDEX_FILE)
        with tracer.span("core.load_lexicon"):
            lexicon, vocab = load_lexicon(directory / LEXICON_FILE, num_docs=index.store.num_docs)
    return Engine(config=config, vocab=vocab, lexicon=lexicon, index=index)


def engine_difference(a: Engine, b: Engine) -> str | None:
    """Name the first part in which two engines differ, or None."""
    if a.config != b.config:
        return "config"
    if list(a.vocab.surfaces()) != list(b.vocab.surfaces()):
        return "vocabulary"
    la, lb = a.lexicon, b.lexicon
    if (la.entries, la.num_docs, la.num_tokens) != (lb.entries, lb.num_docs, lb.num_tokens):
        return "lexicon"
    sa, sb = a.index.store, b.index.store
    if sa.doc_ids != sb.doc_ids or sa.doc_offsets.tobytes() != sb.doc_offsets.tobytes():
        return "document table"
    if sa.vectors.tobytes() != sb.vectors.tobytes():
        return "store vectors"
    if a.index.centroids.vectors.tobytes() != b.index.centroids.vectors.tobytes():
        return "centroids"
    if len(a.index.lists) != len(b.index.lists) or any(
        x.tobytes() != y.tobytes() for x, y in zip(a.index.lists, b.index.lists)
    ):
        return "inverted lists"
    return None


# --------------------------------------------------------------------------
# Search
# --------------------------------------------------------------------------


@dataclass
class TracedSearch:
    ranking: object
    candidates: object
    query: object
    processed: list[int]  # query positions that ran candidate generation
    hits: list[np.ndarray]  # per processed position
    doc_sets: list[set[str]]


def traced_search(
    engine: Engine, text: str, strategy: str, p: int, tracer: Tracer
) -> TracedSearch:
    """`Engine.search` rebuilt: encode, order, ANN per position, union, rerank."""
    scoring = tracer.wrap("retrieval.maxsim", mve.retrieval.score_documents)
    with tracer.span("search"), patched(mve.retrieval, {"score_documents": scoring}):
        config = engine.pruning(strategy=strategy, p=p)
        with tracer.span("core.encode"):
            query = engine.encoder.encode(text)
        with tracer.span("retrieval.order"):
            ordering = order_embeddings(query, engine.lexicon, config.strategy)
        processed = ordering[: config.p]
        results = []
        for position in processed:
            with tracer.span("retrieval.ann"):
                results.append(
                    ann_candidates(
                        engine.index, query.embeddings[position], config.k_prime, config.n_probe
                    )
                )
        doc_sets = [docs for _, docs in results]
        with tracer.span("retrieval.union"):
            candidates = pruned_union(doc_sets, config.p)
        with tracer.span("retrieval.rerank"):
            ranking = rerank(candidates, query, engine.index.store, engine.config.k)
    return TracedSearch(ranking, candidates, query, processed, [h for h, _ in results], doc_sets)


def search_counters(engine: Engine, traced: TracedSearch) -> dict[str, float]:
    """Work counts of one search, derived from the index and array sizes."""
    index = engine.index
    store = index.store
    n_probe = min(engine.config.n_probe, index.n_list)
    list_sizes = np.array([len(ids) for ids in index.lists], dtype=np.int64)
    vectors = traced.query.embeddings[traced.processed]
    scanned = 0
    for phi in vectors:
        probed = np.argsort(-(index.centroids.vectors @ phi), kind="stable")[:n_probe]
        scanned += int(list_sizes[probed].sum())
    calls = len(traced.processed)
    union_inputs = sum(len(docs) for docs in traced.doc_sets)
    numbers = [store.index_of(d) for d in traced.candidates.docs]
    rerank_tokens = int(store.doc_offsets[numbers, 1].sum()) if numbers else 0
    dim = store.dim
    return {
        "ann_calls": calls,
        "ann_distinct_vectors": int(np.unique(vectors, axis=0).shape[0]),
        "ann_scanned": scanned,
        # centroid block per call, plus each scanned vector and its int64 id
        "ann_bytes": calls * index.n_list * dim * 4 + scanned * (dim * 4 + 8),
        "ann_hits": sum(len(h) for h in traced.hits),
        "union_inputs": union_inputs,
        "candidates": len(traced.candidates),
        "rerank_tokens": rerank_tokens,
        "maxsim_flops": 2 * traced.query.q_len * rerank_tokens * dim,
    }


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------


def traced_sweep(engine: Engine, queries, qrels, strategies, p_values, tracer: Tracer):
    """`Engine.sweep` with the names `mve.evaluation` calls wrapped in spans."""
    ev = mve.evaluation
    wrap = {
        "ann_candidates": "evaluation.ann",
        "score_documents": "evaluation.maxsim",
        "ndcg_at": "evaluation.metrics",
        "average_precision": "evaluation.metrics",
        "rr_at": "evaluation.metrics",
        "Ranking": "evaluation.metrics",
        "paired_t_test_bonferroni": "evaluation.ttest",
    }
    replacements = {name: tracer.wrap(span, getattr(ev, name)) for name, span in wrap.items()}
    with patched(ev, replacements), tracer.span("evaluation.sweep"):
        return engine.sweep(queries, qrels, strategies, p_values, threads=1)
