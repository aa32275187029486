"""Retrieval effectiveness metrics, paired significance testing, and the
pruning sweep harness.

Metric conventions, declared once so results are reproducible: DCG gain is
the raw relevance grade (not 2^grade - 1) with a 1/log2(rank + 1) discount;
queries without judged-relevant documents score 0 for every metric and stay
in the means; Bonferroni corrects over every (strategy, p, metric)
comparison a sweep performs.

The sweep computes only what its CSV reads. Every distinct query vector of a
sweep call (queries are embedded context-free, so CLS, MASK and repeated
words are shared) is probed once, before any query is evaluated, and its
candidate set is held for the whole call. Each cell's ranking ends
where its metrics stop reading: at the later of rank ``CUTOFF`` and the
cell's last relevant hit within depth ``k``, so every metric is that of the
full ranking, while the document counts count every hit.

Importing this module does not import scipy: the t-test's tail,
``scipy.special.stdtr`` (what ``scipy.stats.t.sf`` evaluates), is imported on
the test's first call, so only the sweep pays for it. Queries, qrels and run
files are read as UTF-8, and bytes that are not raise
:class:`~mve.errors.InvalidInputError` naming the file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import Lexicon, QueryEncoder, QueryRepresentation, is_single_field, open_text
from .errors import InvalidConfigError, InvalidInputError
from .index import EmbeddingStore, IvfIndex

# perfbench's traced_sweep swaps ann_candidates, score_documents and Ranking,
# like the metric functions and paired_t_test_bonferroni below, for timed
# wrappers among this module's globals, so the sweep must keep calling them
# through these names
from .retrieval import (
    CandidateSet,
    RankedEntries,
    Ranking,
    Strategy,
    _as_strategy,
    _best_first,
    _check_int,
    ann_candidates,
    order_embeddings,
    pruned_union,
    score_documents,
)

METRIC_NAMES = ("ndcg10", "map", "mrr10")
CUTOFF = 10  # the depth nDCG@10 and MRR@10 read, and the shallowest sweep cell


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgements; unjudged pairs implicitly grade 0."""

    judgments: dict[str, dict[str, int]]

    def __post_init__(self) -> None:
        for qid, docs in self.judgments.items():
            for doc_id, grade in docs.items():
                if grade < 0:
                    raise InvalidInputError(
                        f"negative grade for query {qid!r}, doc {doc_id!r}"
                    )

    def judged(self, query_id: str) -> dict[str, int]:
        return self.judgments.get(query_id, {})

    def relevant(self, query_id: str) -> set[str]:
        return {d for d, g in self.judged(query_id).items() if g >= 1}

    def query_ids(self) -> list[str]:
        return sorted(self.judgments)


def load_qrels(path: str | Path) -> Qrels:
    """Read TREC qrels: ``qid 0 doc_id grade``, whitespace-separated.

    A ``(qid, doc_id)`` pair judged on two lines is rejected, since no grade
    of the two is more right than the other.
    """
    judgments: dict[str, dict[str, int]] = {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise InvalidInputError(f"{path}:{lineno}: expected 'qid 0 doc_id grade'")
            qid, _, doc_id, grade_text = parts
            try:
                grade = int(grade_text)
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: non-integer grade") from exc
            docs = judgments.setdefault(qid, {})
            if doc_id in docs:
                raise InvalidInputError(
                    f"{path}:{lineno}: query {qid!r} judges doc {doc_id!r} twice"
                )
            docs[doc_id] = grade
    return Qrels(judgments)


def load_queries(path: str | Path) -> list[tuple[str, str]]:
    """Read a queries file: one ``qid<TAB>text`` line per query, UTF-8.

    Query ids must be non-empty and free of whitespace, and query text must
    hold more than whitespace.
    """
    queries: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise InvalidInputError(f"{path}:{lineno}: expected qid<TAB>text")
            qid, text = line.split("\t", 1)
            if not is_single_field(qid):
                raise InvalidInputError(
                    f"{path}:{lineno}: query id {qid!r} is empty or contains whitespace"
                )
            if qid in seen:
                raise InvalidInputError(f"{path}:{lineno}: duplicate query id {qid!r}")
            if not text.strip():
                raise InvalidInputError(f"{path}:{lineno}: query {qid!r} has empty text")
            seen.add(qid)
            queries.append((qid, text))
    if not queries:
        raise InvalidInputError(f"{path}: no queries found")
    return queries


def format_run_lines(query_id: str, ranking: Ranking, tag: str = "mve") -> str:
    """One query's ranking in TREC run format: ``qid Q0 doc_id rank score tag``."""
    return "".join(
        f"{query_id} Q0 {doc_id} {rank} {score:.6f} {tag}\n"
        for rank, (doc_id, score) in enumerate(ranking.entries, start=1)
    )


def read_run(path: str | Path) -> dict[str, Ranking]:
    """Read a TREC run file back into per-query rankings.

    Entries are reordered by (score descending, doc id ascending), the same
    tie rule the engine uses, so externally produced runs evaluate
    deterministically. A NaN score is rejected; ``inf`` and ``-inf`` are
    accepted, since they order like any other score.
    """
    per_query: dict[str, dict[str, float]] = {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected 'qid Q0 doc_id rank score tag'"
                )
            qid, _, doc_id, _, score_text, _ = parts
            try:
                score = float(score_text)
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: non-numeric score") from exc
            if math.isnan(score):  # NaN would order the ranking by line order
                raise InvalidInputError(f"{path}:{lineno}: score is NaN")
            docs = per_query.setdefault(qid, {})
            if doc_id in docs:
                raise InvalidInputError(f"{path}:{lineno}: duplicate doc {doc_id!r}")
            docs[doc_id] = score
    rankings: dict[str, Ranking] = {}
    for qid, docs in per_query.items():
        ordered = sorted(docs.items(), key=lambda item: (-item[1], item[0]))
        rankings[qid] = Ranking(entries=tuple(ordered), k=len(ordered))
    return rankings


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def _dcg(gains: Iterable[int]) -> float:
    return sum(g / math.log2(rank + 1) for rank, g in enumerate(gains, start=1))


def ndcg_at(ranking: Ranking, qrels: Qrels, query_id: str, cutoff: int = CUTOFF) -> float:
    """Normalized DCG at a cutoff; 0 when the query has no relevant docs."""
    _check_int("cutoff", cutoff)
    if cutoff < 1:
        raise InvalidConfigError(f"cutoff must be >= 1, got {cutoff}")
    judged = qrels.judged(query_id)
    dcg = _dcg(judged.get(doc_id, 0) for doc_id in ranking.entries.ids[:cutoff])
    ideal = _dcg(sorted(judged.values(), reverse=True)[:cutoff])
    return dcg / ideal if ideal > 0.0 else 0.0


def average_precision(ranking: Ranking, qrels: Qrels, query_id: str) -> float:
    """Mean precision at each relevant retrieved rank, over all relevant docs.

    Relevant documents never retrieved contribute 0; queries without judged
    relevant documents score 0.
    """
    relevant = qrels.relevant(query_id)
    if not relevant:
        return 0.0
    ids = ranking.entries.ids
    ranks = [rank for rank, doc_id in enumerate(ids, start=1) if doc_id in relevant]
    precision_sum = 0.0
    for hits, rank in enumerate(ranks, start=1):
        precision_sum += hits / rank
    return precision_sum / len(relevant)


def rr_at(ranking: Ranking, qrels: Qrels, query_id: str, cutoff: int = CUTOFF) -> float:
    """Reciprocal rank of the first relevant doc within the cutoff, else 0."""
    _check_int("cutoff", cutoff)
    if cutoff < 1:
        raise InvalidConfigError(f"cutoff must be >= 1, got {cutoff}")
    relevant = qrels.relevant(query_id)
    for rank, doc_id in enumerate(ranking.entries.ids[:cutoff], start=1):
        if doc_id in relevant:
            return 1.0 / rank
    return 0.0


# --------------------------------------------------------------------------
# Significance
# --------------------------------------------------------------------------


class TTestResult(NamedTuple):
    t: float
    p_value: float
    significant: bool


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:  # also rejects NaN
        raise InvalidConfigError(f"alpha must lie in (0, 1), got {alpha}")


def paired_t_test_bonferroni(
    a: Sequence[float],
    b: Sequence[float],
    num_comparisons: int,
    alpha: float = 0.05,
) -> TTestResult:
    """Two-sided paired t-test with a Bonferroni-scaled significance level.

    The statistic is mean(d) / (sd(d) / sqrt(n)) over the paired differences
    d = a - b (sample standard deviation, n - 1 degrees of freedom), and the
    result is significant iff p < alpha / num_comparisons, for an alpha in
    (0, 1) and an integer num_comparisons of at least 1. All-zero differences
    yield (t=0, p=1, not significant); zero spread around a nonzero mean
    yields an infinite statistic and p = 0.
    """
    _check_int("num_comparisons", num_comparisons)
    if num_comparisons < 1:
        raise InvalidConfigError(f"num_comparisons must be >= 1, got {num_comparisons}")
    _check_alpha(alpha)
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise InvalidInputError("paired samples must be 1-d and of equal length")
    n = xs.size
    if n < 2:
        raise InvalidInputError("need at least two paired observations")
    diffs = xs - ys
    # the operations diffs.mean() and diffs.std(ddof=1) run, in their order
    # (pairwise np.add.reduce, true division, squared deviations, sqrt),
    # without numpy's per-call overhead: the same bits in about half the time
    mean = float(np.add.reduce(diffs)) / n
    deviations = diffs - mean
    sd = math.sqrt(float(np.add.reduce(deviations * deviations)) / (n - 1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, False)
        t = math.inf if mean > 0 else -math.inf
        p_value = 0.0
    else:
        # the survival function scipy.stats.t.sf evaluates; scipy.special
        # is imported here so that only callers of the test pay its import
        from scipy.special import stdtr

        t = mean / (sd / math.sqrt(n))
        p_value = 2.0 * float(stdtr(n - 1, -abs(t)))
    return TTestResult(float(t), p_value, p_value < alpha / num_comparisons)


# --------------------------------------------------------------------------
# Sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    strategy: str
    p: int
    ndcg10: float
    map: float
    mrr10: float
    mean_docs: float
    mean_rel_docs: float
    sig_ndcg10: bool
    sig_map: bool
    sig_mrr10: bool


CSV_HEADER = "strategy,p,ndcg10,map,mrr10,mean_docs,mean_rel_docs,sig_ndcg10,sig_map,sig_mrr10"


@dataclass(frozen=True)
class SweepTable:
    """One row per (strategy, p); the table behind the effectiveness-vs-p
    and retrieved-count-vs-p curves."""

    rows: tuple[SweepRow, ...]

    def row(self, strategy: Strategy | str, p: int) -> SweepRow:
        wanted = _as_strategy(strategy).value
        for row in self.rows:
            if row.strategy == wanted and row.p == p:
                return row
        raise KeyError(f"no sweep row for ({wanted}, {p})")

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.strategy},{r.p},{r.ndcg10:.6f},{r.map:.6f},{r.mrr10:.6f},"
                f"{r.mean_docs:.6f},{r.mean_rel_docs:.6f},"
                f"{int(r.sig_ndcg10)},{int(r.sig_map)},{int(r.sig_mrr10)}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv())


class _QueryOutcome(NamedTuple):
    """Per-query metrics for each (strategy, p) plus the unpruned baseline."""

    per_config: dict[tuple[str, int], tuple[float, float, float, int, int]]
    baseline: tuple[float, float, float]


def _evaluate_query(
    query_id: str,
    query: QueryRepresentation,
    store: EmbeddingStore,
    lexicon: Lexicon,
    qrels: Qrels,
    strategies: Sequence[Strategy],
    p_values: Sequence[int],
    k: int,
    doc_sets: Sequence[CandidateSet],
) -> _QueryOutcome:
    """Evaluate every (strategy, p) cell for one encoded query in a single
    pass, from ``doc_sets``, the candidate set of each query position.

    Each cell's candidate set is a prefix union over the strategy's ordering
    of positions, and every ranking is read off one shared scoring of the
    full union, so all cells are mutually consistent by construction.

    A cell's ranking holds only what its metrics read: its first ``k`` hits,
    ending at the later of rank ``CUTOFF`` and its last relevant hit. nDCG@10
    and MRR@10 read the first ``CUTOFF`` entries and MAP the ranks of the
    relevant ones, so each metric is that of the full ranking, bit for bit.
    The document counts count every hit.
    """
    distinct_sets = [doc_sets[position] for position in query.distinct_rows[0].tolist()]
    union = pruned_union(distinct_sets, len(distinct_sets))
    scores = score_documents(query, store, union.numbers)
    order = _best_first(scores)
    ranked = union.numbers[order]
    ranked_scores = scores[order]
    relevant = np.zeros(store.num_docs, dtype=bool)
    for number in map(store.index_of, qrels.relevant(query_id)):
        if number is not None:  # judged docs the store lacks are never ranked
            relevant[number] = True
    ranked_relevant = relevant[ranked]

    def metrics_for(member: np.ndarray) -> tuple[float, float, float, int, int]:
        """Metrics and counts of the cell whose doc numbers ``member`` marks."""
        hits = np.flatnonzero(member[ranked])
        hit_relevant = ranked_relevant[hits]
        relevant_at = np.flatnonzero(hit_relevant[:k])
        depth = max(CUTOFF, int(relevant_at[-1]) + 1) if relevant_at.size else CUTOFF
        kept = hits[: min(k, depth)]
        entries = RankedEntries(store.doc_id_array[ranked[kept]].tolist(), ranked_scores[kept])
        ranking = Ranking(entries=entries, k=k)
        return (
            ndcg_at(ranking, qrels, query_id),
            average_precision(ranking, qrels, query_id),
            rr_at(ranking, qrels, query_id),
            int(hits.size),
            int(np.count_nonzero(hit_relevant)),
        )

    baseline = metrics_for(np.ones(store.num_docs, dtype=bool))[:3]
    per_config: dict[tuple[str, int], tuple[float, float, float, int, int]] = {}
    for strategy in strategies:
        ordering = order_embeddings(query, lexicon, strategy)
        member = np.zeros(store.num_docs, dtype=bool)
        consumed = 0
        for p in p_values:
            while consumed < p:
                member[doc_sets[ordering[consumed]].numbers] = True
                consumed += 1
            per_config[(strategy.value, p)] = metrics_for(member)
    return _QueryOutcome(per_config=per_config, baseline=baseline)


def sweep(
    queries: Sequence[tuple[str, str]],
    qrels: Qrels,
    index: IvfIndex,
    lexicon: Lexicon,
    encoder: QueryEncoder,
    strategies: Sequence[Strategy | str],
    p_values: Sequence[int],
    *,
    k: int = 1000,
    k_prime: int = 1000,
    n_probe: int = 10,
    alpha: float = 0.05,
    threads: int = 1,
) -> SweepTable:
    """Run the full pruning sweep and aggregate per-(strategy, p) means.

    Each requested cell reports mean nDCG@10, MAP, MRR@10, mean documents
    retrieved, and mean relevant documents retrieved over all queries, plus
    per-metric significance of a paired t-test against the unpruned baseline
    (p = q_len, which is strategy-independent). Bonferroni corrects across
    all (strategy, p, metric) cells of this sweep, and every t-test needs two
    queries or more. Queries are processed in ascending query-id order.
    Every distinct query vector is probed once, before any query is
    evaluated; ``threads`` only distributes the probes and the per-query
    work and never changes the output.
    """
    if len(queries) < 2:  # every t-test pairs two queries or more
        raise InvalidInputError(f"sweep needs at least two queries, got {len(queries)}")
    if isinstance(strategies, str):
        raise InvalidConfigError(
            f"strategies must be a sequence of strategies, not one string: {strategies!r}"
        )
    strategies = [_as_strategy(s) for s in strategies]
    if not strategies or len(set(strategies)) != len(strategies):
        raise InvalidConfigError("strategies must be non-empty and unique")
    p_values = list(p_values)
    for p in p_values:
        _check_int("every p in p_values", p)
    for name, value in (("k", k), ("k_prime", k_prime), ("n_probe", n_probe), ("threads", threads)):
        _check_int(name, value)
    if k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    p_values = sorted(set(int(p) for p in p_values))
    if not p_values:
        raise InvalidConfigError("p_values must be non-empty")
    if p_values[0] < 1 or p_values[-1] > encoder.q_len:
        raise InvalidConfigError(
            f"p_values must lie in [1, q_len={encoder.q_len}], got {p_values}"
        )
    if threads < 1:
        raise InvalidConfigError(f"threads must be >= 1, got {threads}")
    _check_alpha(alpha)
    ordered_queries = sorted(queries, key=lambda pair: pair[0])
    if len({qid for qid, _ in ordered_queries}) != len(ordered_queries):
        raise InvalidInputError("duplicate query ids")

    # every distinct vector of the call, keyed by its bytes as distinct_rows
    # compares rows, in order of first appearance; each query maps its
    # positions to the vectors' numbers
    encoded = [encoder.encode(text) for _, text in ordered_queries]
    number_of: dict[bytes, int] = {}
    vectors: list[np.ndarray] = []
    position_vectors: list[list[int]] = []
    for query in encoded:
        firsts, slots = query.distinct_rows
        numbers = []
        for position in firsts.tolist():
            row = query.embeddings[position]
            number = number_of.setdefault(row.tobytes(), len(vectors))
            if number == len(vectors):
                vectors.append(row)
            numbers.append(number)
        position_vectors.append([numbers[slot] for slot in slots.tolist()])

    def probe(row: np.ndarray) -> CandidateSet:
        return ann_candidates(index, row, k_prime, n_probe)[1]

    def work(qid: str, query: QueryRepresentation, numbers: list[int]) -> _QueryOutcome:
        return _evaluate_query(
            qid, query, index.store, lexicon, qrels, strategies, p_values, k,
            [doc_sets[number] for number in numbers],
        )

    qids = [qid for qid, _ in ordered_queries]
    if threads == 1:
        doc_sets = list(map(probe, vectors))
        outcomes = list(map(work, qids, encoded, position_vectors))
    else:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            doc_sets = list(pool.map(probe, vectors))
            outcomes = list(pool.map(work, qids, encoded, position_vectors))

    num_queries = len(outcomes)
    baselines = {
        name: [o.baseline[i] for o in outcomes] for i, name in enumerate(METRIC_NAMES)
    }
    num_comparisons = len(strategies) * len(p_values) * len(METRIC_NAMES)
    rows = []
    for strategy in strategies:
        for p in p_values:
            cells = [o.per_config[(strategy.value, p)] for o in outcomes]
            means = [sum(cell[i] for cell in cells) / num_queries for i in range(5)]
            significant = {}
            for i, name in enumerate(METRIC_NAMES):
                result = paired_t_test_bonferroni(
                    [cell[i] for cell in cells], baselines[name], num_comparisons, alpha
                )
                significant[name] = result.significant
            rows.append(
                SweepRow(
                    strategy=strategy.value,
                    p=p,
                    ndcg10=means[0],
                    map=means[1],
                    mrr10=means[2],
                    mean_docs=means[3],
                    mean_rel_docs=means[4],
                    sig_ndcg10=significant["ndcg10"],
                    sig_map=significant["map"],
                    sig_mrr10=significant["mrr10"],
                )
            )
    return SweepTable(rows=tuple(rows))
