"""Workload definitions, generated inputs, percentiles, the brute-force
correctness oracle, fingerprints and machine facts.

Import only after `checkout.use_checkout_sources()` has run.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

import mve
from mve.engine import Engine, EngineConfig
from mve.evaluation import Qrels, format_run_lines
from mve.retrieval import CandidateSet, Ranking
from synthdata import planted_fixture

from checkout import BLAS_ENV

# Desk-scale engine settings of the acceptance suite (criterion 5).
ENGINE_SEED = 2024
STRATEGY = "icf"  # every search workload orders rare tokens first, as the paper does
SWEEP_STRATEGIES = ("first", "icf")
SWEEP_P_VALUES = (1, 2, 3, 4)  # plus q_len
SWEEP_BATCH = 2  # queries per sweep request; the t-test needs at least two

# p80 keeps ten samples beyond it within one pass over the 64 queries. On
# desk-padded it falls among the bulk of the per-query costs; p90 falls on the
# step up to its five slowest queries, where a small shift moves it by 9%.
TAIL_PERCENTILE = 80
BEYOND_TAIL = 10  # samples that must lie above the reported tail percentile

# The corpus is fixed: the planted fixture at its own default seed and the
# acceptance suite's desk scale. The workload seed orders its planted queries.
# A 40,000-doc corpus, whose store does not fit in L3, was too noisy to keep.
NUM_DOCS = 5000
NUM_QUERIES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    pad_to_default_q_len: bool  # q_len = EngineConfig's default, not the fixture's
    p: int | None  # None: no pruning (p = q_len)
    request: str  # "search" or "sweep"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-pruned", False, 1, "search"),
        Workload("desk-sweep", False, 1, "sweep"),
        Workload("desk-padded", True, None, "search"),
    )
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    corpus: list[tuple[str, str]]
    queries: list[tuple[str, str]]  # in request order
    qrels: Qrels
    config: EngineConfig

    @property
    def p(self) -> int:
        return self.workload.p or self.config.q_len

    def sweep_p_values(self) -> list[int]:
        return [*SWEEP_P_VALUES, self.config.q_len]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the workload's inputs; `seed` sets the order in which the
    planted queries are sent (and so the sweep pairs and the first-query and
    CLI picks). The corpus and judgements do not depend on it: per-seed
    corpora of 50,000 docs moved latency by up to 4x through k-means list
    balance alone, which would drown every change being measured."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    fixture = planted_fixture(num_docs=NUM_DOCS, num_queries=NUM_QUERIES)
    order = np.random.default_rng(seed).permutation(NUM_QUERIES)
    queries = [fixture.queries[int(i)] for i in order]
    q_len = EngineConfig().q_len if workload.pad_to_default_q_len else fixture.q_len
    config = EngineConfig(
        dim=64, q_len=q_len, k=1000, k_prime=1000, n_list=None, n_probe=10,
        sample_fraction=0.05, iterations=20, seed=ENGINE_SEED,
    )
    return Inputs(workload, fixture.corpus, queries, Qrels(fixture.judgments), config)


# --------------------------------------------------------------------------
# Percentiles
# --------------------------------------------------------------------------


def min_samples_for(percentile: float, beyond: int = BEYOND_TAIL) -> int:
    """Fewest samples for which the nearest-rank `percentile` has `beyond`
    samples strictly above its rank."""
    n = 1
    while n - math.ceil(percentile / 100.0 * n) < beyond:
        n += 1
    return n


def tail_value(samples: Sequence[float], percentile: float, beyond: int = BEYOND_TAIL) -> float:
    """Nearest-rank percentile, refused unless `beyond` samples lie above it."""
    n = len(samples)
    rank = math.ceil(percentile / 100.0 * n)
    if n == 0 or n - rank < beyond:
        raise ValueError(
            f"p{percentile} of {n} samples has {max(n - rank, 0)} above it, needs {beyond}"
        )
    return sorted(samples)[rank - 1]


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def trimmed_mean(samples: Sequence[float], cut: float) -> float:
    """Mean of the samples left after the lowest and the highest `cut` share
    (rounded down) are dropped. Unlike the median it moves smoothly with the
    share of samples taken while a shared host ran slow."""
    if not samples:
        raise ValueError("no samples")
    drop = int(cut * len(samples))
    kept = sorted(samples)[drop : len(samples) - drop]
    return float(statistics.fmean(kept))


# --------------------------------------------------------------------------
# Correctness oracle
# --------------------------------------------------------------------------

SCORE_ATOL = 1e-4  # f32 dot products summed over up to 32 query rows
SCORE_RTOL = 1e-5


def brute_force_scores(
    query_embeddings: np.ndarray, engine: Engine, doc_numbers: np.ndarray
) -> np.ndarray:
    """MaxSim in float64 with plain numpy: per document, the maximum dot
    product of each query row over the document's rows, summed over rows.

    Documents are padded to a common length and the padding masked to -inf,
    so no segment reduction of the engine's is reused. Equal query rows (the
    MASK padding) have equal maxima, so each distinct row is scored once and
    weighted by how often it occurs.
    """
    store = engine.index.store
    starts = store.doc_offsets[doc_numbers, 0]
    lengths = store.doc_offsets[doc_numbers, 1]
    width = int(lengths.max()) if len(doc_numbers) else 0
    slots = np.arange(width)
    valid = slots[None, :] < lengths[:, None]  # (docs, width)
    rows = np.where(valid, starts[:, None] + slots[None, :], 0)
    docs = store.vectors[rows].astype(np.float64)  # (docs, width, dim)
    q, counts = np.unique(
        np.asarray(query_embeddings, dtype=np.float64), axis=0, return_counts=True
    )
    sims = (docs.reshape(-1, q.shape[1]) @ q.T).reshape(len(doc_numbers), width, q.shape[0])
    sims[~valid] = -np.inf
    return sims.max(axis=1) @ counts.astype(np.float64)


def check_search(
    engine: Engine, query_text: str, ranking: Ranking, candidates: CandidateSet,
    doc_number: dict[str, int],
) -> str | None:
    """Return why a search result disagrees with the oracle, or None.

    The oracle rescores every candidate by brute force. The ranking must hold
    the best `k` candidates by oracle score, in descending oracle order, with
    each engine score within f32 tolerance of the oracle's.
    """
    query = engine.encoder.encode(query_text)
    docs = sorted(candidates.docs)
    numbers = np.array([doc_number[d] for d in docs], dtype=np.int64)
    oracle = dict(zip(docs, brute_force_scores(query.embeddings, engine, numbers)))
    k = engine.config.k
    entries = ranking.entries
    if len(entries) != min(k, len(docs)):
        return f"ranking holds {len(entries)} docs for {len(docs)} candidates at k={k}"
    ranked = [d for d, _ in entries]
    if len(set(ranked)) != len(ranked) or not set(ranked) <= set(docs):
        return "ranking is not a set of distinct candidates"

    def tol(x: float) -> float:
        return SCORE_ATOL + SCORE_RTOL * abs(x)

    for doc_id, score in entries:
        if abs(score - oracle[doc_id]) > tol(oracle[doc_id]):
            return f"{doc_id}: engine score {score!r} vs oracle {oracle[doc_id]!r}"
    for (a, sa), (b, sb) in zip(entries, entries[1:]):
        if oracle[a] < oracle[b] - tol(oracle[b]):
            return f"{a} ranked above {b} but scores lower"
        if sa == sb and a > b:
            return f"tie between {a} and {b} not broken by ascending doc id"
    unranked = set(docs) - set(ranked)
    if unranked and entries:
        floor = oracle[entries[-1][0]]
        best_left = max(oracle[d] for d in unranked)
        if best_left > floor + tol(floor):
            return f"a candidate scoring {best_left!r} was cut below {floor!r}"
    return None


def mrr_at_10(results: Sequence[tuple[str, Ranking]], qrels: Qrels) -> float:
    """Mean reciprocal rank of the first judged-relevant doc in the top 10."""
    total = 0.0
    for qid, ranking in results:
        relevant = {d for d, g in qrels.judgments.get(qid, {}).items() if g >= 1}
        for rank, (doc_id, _) in enumerate(ranking.entries[:10], start=1):
            if doc_id in relevant:
                total += 1.0 / rank
                break
    return total / len(results)


def run_fingerprint(results: Sequence[tuple[str, Ranking]]) -> str:
    """sha256 of the TREC run text `mve search` would print for these results."""
    digest = hashlib.sha256()
    for qid, ranking in results:
        digest.update(format_run_lines(qid, ranking).encode("utf-8"))
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Machine facts
# --------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts() -> dict:
    import scipy

    try:
        getconf = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        )
        l3 = int(getconf.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "l3_bytes": l3,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mve_source": os.path.dirname(mve.__file__),
    }
