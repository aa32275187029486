"""Two-stage retrieval: per-embedding candidate generation over the inverted
file, pruned union of the per-embedding document sets, and exact MaxSim
reranking.

Pruning only limits the first stage. The ordering strategy decides which
query embeddings run candidate generation; the reranker always scores with
the complete query representation. Every tie anywhere (probe choice, top-k'
cut, final ranking) breaks toward the lowest id, which makes runs bitwise
reproducible regardless of thread interleaving; ``rerank`` and the sweep
order candidates best first with ``_best_first``, numpy's default sort with
its ties put back in doc-id order (its stable sort on a few scores). Candidates travel as a
``CandidateSet``, the distinct doc numbers of one store; doc id strings are
read from it only at the edges. A ``Ranking`` holds two columns, its doc ids
and their float64 scores, and builds ``(doc_id, score)`` pairs only when they
are read; it refers to no store, so a kept ranking keeps no engine alive.

A probe picks its lists with ``_best_first_head``: the first ``n_probe``
of a stable sort of the centroid scores, of which it sorts only the scores
at or above the ``n_probe``-th after a partition. It reads the embeddings
of its probed lists with ``EmbeddingStore.rows``, which gathers the rows
their codes name from the store's table: on desk a table of 1,751 rows and
448 kB, and for a store read from an embeddings dump every embedding, with
codes 0 ... n-1. Every embedding is bit for bit its code's row, so the
gathered block holds the probed embeddings' bytes and the gemv gives their
scores. Its top k' comes from one partition of uint64 keys that pack a
32-bit score key over the embedding id: the cut and its tie rule are
exactly those of ``np.lexsort`` on (score descending, id ascending), which
is why a store holds at most 2**32 embeddings. ``ann_candidates`` sorts
the kept keys to return its hits in that order; ``search`` only collects
their documents and leaves them unsorted. Doc ids leave the pipeline
through the store's doc-id column, ``EmbeddingStore.doc_id_array``.

Candidate generation and MaxSim run once per distinct query embedding: the
MASK padding and repeated words share one vector, so they share one ANN
probe and one column of the similarity matrix. ``search`` builds one
candidate set from the documents of all its probes' hits; the sweep keeps
one set per distinct vector, since its cells union different prefixes of
them. ``p`` still counts query positions, as in the paper. ``search``
checks the probe arguments once per query, and ``rerank`` orders only the
candidates that can reach its top k, which ``_best_first_head`` finds with
a partition; the sweep orders every candidate, since its metrics read
every hit.
MaxSim multiplies token-major (document tokens by distinct query rows), and
its float64 sum of the maxima still runs over every position in query order,
one addition per position, each over a contiguous row of the widened maxima.
A score keeps the bits of the all-positions product as long as BLAS
computes each entry of a product independently of how many query rows it
holds; small products (few document tokens, or one distinct row) may take
another kernel and differ in the last bits.

``score_documents`` has two routes to the same bits, and
``_maxsim_route`` picks one:

- *table*: multiplies the whole ``store.table`` in place, once per query,
  and takes each candidate's maxima over the rows of that product its
  tokens' codes name. Taken where ``mve.index._exact_in_place`` allows the
  smaller of the gathered product (candidate rows x distinct query rows)
  and the table's, and the candidates hold at least ``_TABLE_MIN_SHARE``
  of the table's rows.
- *gather*: every other set gathers its rows into one block, multiplies
  it, and takes each candidate's maxima over its own rows of that product.

Both take the maxima with one kernel, ``_table_maxima``, one token position
at a time.
"""

from __future__ import annotations

import collections.abc
import enum
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import Lexicon, QueryEncoder, QueryRepresentation, TokenKind
from .errors import ConsistencyError, InvalidConfigError, InvalidInputError
from .index import EmbeddingStore, IvfIndex, _exact_in_place


class Strategy(str, enum.Enum):
    """Query-embedding orderings for the first stage."""

    FIRST = "first"  # order of occurrence: CLS, query tokens, masked tokens
    ICF = "icf"  # ascending collection frequency, specials last
    IDF = "idf"  # descending inverse document frequency, specials last


def _as_strategy(value: object) -> Strategy:
    """``value`` as a :class:`Strategy`: a member or its name."""
    try:
        return Strategy(value)
    except ValueError as exc:
        raise InvalidConfigError(
            f"strategy must be one of {[s.value for s in Strategy]}, got {value!r}"
        ) from exc


def _check_int(name: str, value: object) -> None:
    """Reject a count that is not an integer: a bool or a float would
    otherwise pass the range checks and be truncated or fail later."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PruningConfig:
    """First-stage knobs: ordering strategy, embeddings processed, ANN cut,
    and probe width."""

    strategy: Strategy
    p: int
    k_prime: int
    n_probe: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", _as_strategy(self.strategy))
        for name in ("p", "k_prime", "n_probe"):
            _check_int(name, getattr(self, name))
        if self.p < 1:
            raise InvalidConfigError(f"p must be >= 1, got {self.p}")
        if self.k_prime < 1:
            raise InvalidConfigError(f"k_prime must be >= 1, got {self.k_prime}")
        if self.n_probe < 1:
            raise InvalidConfigError(f"n_probe must be >= 1, got {self.n_probe}")


@dataclass(frozen=True, eq=False, repr=False)
class CandidateSet:
    """First-stage output: distinct doc numbers of one store.

    ``numbers`` holds each candidate's doc number once, in ascending doc-id
    order, so ordering the candidates by score alone with ``_best_first``
    breaks ties by doc id. It is built from a 1-d array of integer doc
    numbers, repeats allowed; floats, bools and other shapes are rejected
    rather than converted. ``docs`` gives the candidates' doc ids as a set of
    strings.

    Repeats are dropped by marking the numbers' doc-id ranks in a boolean
    array over the whole store and reading it back in rank order, which
    costs one byte per stored document whatever the input size. On 5,000
    documents it took 32 us for 10,000 numbers, about what the 9 probes of
    a desk-padded search return, where sorting the ranks took 145 us (one
    core, numpy 2.4).
    """

    store: EmbeddingStore
    numbers: np.ndarray  # distinct doc numbers, ascending by doc id

    def __post_init__(self) -> None:
        numbers = np.asarray(self.numbers)
        if numbers.ndim != 1:
            raise InvalidInputError("candidate doc numbers must form a 1-d array")
        if numbers.size and numbers.dtype.kind not in "iu":
            raise InvalidInputError(
                f"candidate doc numbers must be integers, got dtype {numbers.dtype}"
            )
        numbers = numbers.astype(np.int64, copy=False)
        num_docs = self.store.num_docs
        if numbers.size and not (0 <= numbers.min() and numbers.max() < num_docs):
            raise InvalidInputError("candidate doc number outside the store")
        marked = np.zeros(num_docs, dtype=bool)
        marked[self.store.id_rank[numbers]] = True
        numbers = self.store.id_order[np.flatnonzero(marked)]
        numbers.flags.writeable = False
        object.__setattr__(self, "numbers", numbers)

    @property
    def docs(self) -> set[str]:
        return set(self.store.doc_id_array[self.numbers].tolist())

    def __len__(self) -> int:
        return len(self.numbers)


class RankedEntries(collections.abc.Sequence):
    """A ranking's ``(doc_id, score)`` pairs, held as two columns.

    ``ids`` is a tuple of doc ids and ``scores`` a read-only float64 array of
    the same length. A pair is built only when one is read, and a slice is
    entries again. Entries compare equal to entries with the same columns and
    to the tuple of the same pairs, and hash like that tuple.
    """

    __slots__ = ("ids", "scores")

    def __init__(self, ids: Iterable[str], scores: Iterable[float]) -> None:
        ids = tuple(ids)
        scores = np.array(scores, dtype=np.float64)
        if scores.shape != (len(ids),):
            raise InvalidInputError("a ranking needs exactly one score per doc id")
        scores.flags.writeable = False
        self.ids = ids
        self.scores = scores

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int | slice):  # type: ignore[override]
        if isinstance(i, slice):
            return RankedEntries(self.ids[i], self.scores[i])
        return self.ids[i], float(self.scores[i])

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return zip(self.ids, self.scores.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RankedEntries):
            return self.ids == other.ids and np.array_equal(self.scores, other.scores)
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"RankedEntries({tuple(self)!r})"


@dataclass(frozen=True)
class Ranking:
    """Scored documents, best first: descending score, ties by ascending doc
    id, truncated to depth ``k``. NaN scores come last, ordered by doc id
    among themselves.

    ``entries`` is a :class:`RankedEntries`, a read-only sequence of
    ``(doc_id, float64 score)`` pairs over a doc-id tuple and a score array.
    A ranking built from other pairs, e.g. read from a run file, is first
    turned into those columns. A ranking owns its ids and scores and refers
    to no store, so keeping it keeps no engine alive.
    """

    entries: RankedEntries
    k: int

    def __post_init__(self) -> None:
        _check_int("ranking depth k", self.k)
        if self.k < 1:
            raise InvalidConfigError(f"ranking depth must be >= 1, got {self.k}")
        entries = self.entries
        if not isinstance(entries, RankedEntries):
            pairs = tuple(entries)
            scores = [score for _, score in pairs]
            if not all(isinstance(score, numbers.Real) for score in scores):
                raise InvalidInputError("ranking scores must be real numbers")
            entries = RankedEntries([doc_id for doc_id, _ in pairs], scores)
            object.__setattr__(self, "entries", entries)
        ids, scores = entries.ids, entries.scores
        if len(ids) > self.k:
            raise InvalidInputError("ranking holds more entries than its depth")
        # a position is out of order when its score rises, or when it ties
        # its predecessor with a smaller id; ids are compared at ties only
        out_of_order = scores[1:] > scores[:-1]
        ties = scores[1:] == scores[:-1]
        nan = np.isnan(scores)
        if nan.any():  # NaN ranks last, as ``_best_first`` puts it, and ties NaN
            out_of_order |= nan[:-1] & ~nan[1:]
            ties |= nan[1:] & nan[:-1]
        for i in np.flatnonzero(ties).tolist():
            out_of_order[i] = ids[i + 1] < ids[i]
        first_out = int(np.argmax(out_of_order)) + 1 if out_of_order.any() else len(ids)
        if len(set(ids)) != len(ids):
            # the error first in rank order is reported, a repeated id
            # before an order violation at the same position
            seen = set()
            for doc_id in ids[: first_out + 1]:
                if doc_id in seen:
                    raise InvalidInputError(f"duplicate doc id {doc_id!r} in ranking")
                seen.add(doc_id)
        if first_out < len(ids):
            raise InvalidInputError("ranking violates the (score desc, doc id asc) order")

    def doc_ids(self) -> list[str]:
        return list(self.entries.ids)

    def __len__(self) -> int:
        return len(self.entries)


def order_embeddings(
    query: QueryRepresentation, lexicon: Lexicon, strategy: Strategy | str
) -> list[int]:
    """Permutation of query positions in first-stage processing order.

    FIRST keeps the order of occurrence. ICF sorts wordpieces by ascending
    collection frequency and IDF by descending smoothed idf (both stable, so
    equal keys keep occurrence order); under either, specials follow the
    wordpieces, CLS first and then the masked tokens in occurrence order.
    Tokens missing from the lexicon count as cf = 0, i.e. highest priority.
    """
    strategy = _as_strategy(strategy)
    positions = list(range(query.q_len))
    if strategy is Strategy.FIRST:
        return positions
    wordpieces = [i for i in positions if query.tokens[i].kind is TokenKind.WORDPIECE]
    cls = [i for i in positions if query.tokens[i].kind is TokenKind.CLS]
    masks = [i for i in positions if query.tokens[i].kind is TokenKind.MASK]
    if strategy is Strategy.ICF:
        wordpieces.sort(key=lambda i: lexicon.cf(query.tokens[i].id))
    else:
        wordpieces.sort(key=lambda i: -lexicon.idf(query.tokens[i].id))
    return wordpieces + cls + masks


def ann_candidates(
    index: IvfIndex, phi: np.ndarray, k_prime: int, n_probe: int
) -> tuple[np.ndarray, CandidateSet]:
    """Approximate nearest neighbours of one query embedding.

    Probes the ``n_probe`` centroids most similar to ``phi``, scans their
    lists with exact dot products, and keeps the ``k_prime`` best embedding
    ids (score descending, ties by ascending id). Returns those ids together
    with the candidate set of their documents. Probe scores only select the
    hits; they are never surfaced as ranking scores.
    """
    phi = np.asarray(phi, dtype=np.float32)
    _check_probe(index, phi[np.newaxis], k_prime, n_probe)
    keys = _probe(index, phi, k_prime, n_probe)
    keys.sort()
    hits = _key_ids(keys)
    return hits, CandidateSet(index.store, index.store.doc_of[hits])


def _check_probe(index: IvfIndex, rows: np.ndarray, k_prime: int, n_probe: int) -> None:
    """Raise what probing each of the float32 query embeddings ``rows``
    (one a row) would: a row that is not ``index.dim`` long or not finite,
    a ``k_prime`` below 1, or an ``n_probe`` outside ``[1, n_list]``."""
    if rows.shape[1:] != (index.dim,):
        raise InvalidInputError(
            f"query embedding has shape {rows.shape[1:]}, expected ({index.dim},)"
        )
    if not np.isfinite(rows).all():
        raise InvalidInputError("query embedding contains NaN or Inf")
    _check_int("k_prime", k_prime)
    _check_int("n_probe", n_probe)
    if k_prime < 1:
        raise InvalidConfigError(f"k_prime must be >= 1, got {k_prime}")
    if not (1 <= n_probe <= index.n_list):
        raise InvalidConfigError(
            f"n_probe must be between 1 and n_list={index.n_list}, got {n_probe}"
        )


def _probe(index: IvfIndex, phi: np.ndarray, k_prime: int, n_probe: int) -> np.ndarray:
    """The hits of :func:`ann_candidates` for a float32 ``phi`` that
    ``_check_probe`` passed, as the packed keys of :func:`_top_keys`, in no
    particular order and without their candidate set.

    The ``n_probe`` lists are the first of ``np.argsort(-centroid_scores,
    kind="stable")``, which ``_best_first_head`` finds by sorting only the
    scores at or above the cut. Their embeddings are read with
    ``index.store.rows``, one block of their exact bytes in list order.
    """
    probed = _best_first_head(index.centroids.vectors @ phi, n_probe)
    ids = np.concatenate([index.lists[c] for c in probed])
    return _top_keys(ids, index.store.rows(ids) @ phi, k_prime)


def _top_keys(ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The keys of the ``k`` ids of the highest float32 ``scores``, ties by
    ascending id, for distinct ids below 2**32; the ids come back in no
    particular order, which is all a candidate set needs.

    Each id is packed with its score into one uint64 key, a 32-bit score key
    in the high half and the id in the low half, so the keys order by both.
    The score key is the float32 bit pattern mapped so that a higher score
    gives a smaller key: -0.0 is first folded into 0.0, which ``lexsort``
    takes as equal, and NaN maps to the largest key, as ``lexsort`` puts NaN
    last. A partition keeps the ``k`` smallest keys.
    """
    bits = (scores + np.float32(0)).view(np.uint32)
    # a negative score keeps its bits; a non-negative one becomes 2**31 - 1 - bits
    keys = bits ^ (((bits >> np.uint32(31)) - np.uint32(1)) & np.uint32(0x7FFFFFFF))
    keys[np.isnan(scores)] = 0xFFFFFFFF
    packed = keys.astype(np.uint64) << np.uint64(32) | ids.astype(np.uint64)
    if packed.size > k:
        packed = np.partition(packed, k - 1)[:k]
    return packed


def _key_ids(keys: np.ndarray) -> np.ndarray:
    """The int64 ids in the low halves of packed keys. Sorted keys give
    their ids best score first, ties by ascending id:
    ``_key_ids(np.sort(_top_keys(ids, scores, k)))`` is
    ``ids[np.lexsort((ids, -scores))[:k]]``."""
    return (keys & np.uint64(0xFFFFFFFF)).astype(np.int64)


def pruned_union(per_embedding: Sequence[CandidateSet], p: int) -> CandidateSet:
    """Union of the first ``p`` per-embedding candidate sets, all over one store.

    With ``p`` equal to the number of sets this is the unpruned union. With
    ``p == 1`` the first set is returned as it is. A caller that holds one set
    for several query positions passes it once: the sweep passes one set per
    distinct query vector.
    """
    _check_int("p", p)
    if p < 1:
        raise InvalidConfigError(f"p must be >= 1, got {p}")
    if p > len(per_embedding):
        raise InvalidConfigError(
            f"p={p} exceeds the {len(per_embedding)} per-embedding sets provided"
        )
    store = per_embedding[0].store
    if any(docs.store is not store for docs in per_embedding[:p]):
        raise ConsistencyError("candidate sets from different stores")
    if p == 1:
        return per_embedding[0]
    return CandidateSet(store, np.concatenate([docs.numbers for docs in per_embedding[:p]]))


def _table_maxima(
    table: np.ndarray, codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Each document's column maxima over the rows of ``table`` its tokens'
    codes name; document ``i`` owns ``codes[starts[i] : starts[i] + lengths[i]]``.

    The documents are taken longest first and their tokens one position at
    a time, so every step gathers and compares whole contiguous rows of the
    documents still that long; a segmented reduction (numpy's ``reduceat``)
    over the gathered rows walks each column with a stride instead. On a
    desk-sweep union (4,202 documents, 50,424 rows, 9 columns; one core of
    a shared Xeon) this took 0.48–0.81 ms against 1.34–2.58 ms (10th–90th
    percentile of 30 s of repeats), and the benchmark's desk-sweep
    requests_per_s spread less than half as far from run to run. Each
    maximum sees its document's rows in token order, as the segmented
    reduction does, and keeps its bits: both keep the later of two equal
    values, so even -0.0 against 0.0 ends the same.
    """
    order = np.argsort(-lengths, kind="stable")
    rows = starts[order]
    # documents longer than 1, 2, ...: a prefix of ``order``
    longer = np.searchsorted(-lengths[order], -np.arange(1, int(lengths.max())), side="left")
    maxima = np.take(table, codes[rows], axis=0)
    for offset, count in enumerate(longer.tolist(), 1):
        head = maxima[:count]
        np.maximum(head, np.take(table, codes[rows[:count] + offset], axis=0), out=head)
    out = np.empty_like(maxima)
    out[order] = maxima
    return out


def _position_sums(query: QueryRepresentation, maxima: np.ndarray) -> np.ndarray:
    """Sum each document's float64 maxima position by position in query
    order (one addition per position, a column repeated for every position
    sharing it), so equal inputs always reproduce the same score bit for bit.

    The maxima are widened into one contiguous row per distinct query row,
    so each addition reads a contiguous row rather than a strided column."""
    by_slot = maxima.T.astype(np.float64, order="C")
    first, *rest = query.distinct_rows[1].tolist()
    total = by_slot[first].copy()
    for slot in rest:
        total += by_slot[slot]
    return total


def exact_score(query: QueryRepresentation, doc_embeddings: np.ndarray) -> float:
    """Exact MaxSim score of one document against the full query.

    Sum over all query embeddings of the maximum dot product against the
    document's embeddings. Pruning never applies here: every query position
    contributes, including CLS and the masked tokens.
    """
    doc = np.asarray(doc_embeddings, dtype=np.float32)
    if doc.ndim != 2 or doc.shape[0] == 0:
        raise InvalidInputError("document must have at least one embedding")
    if doc.shape[1] != query.dim:
        raise InvalidInputError(
            f"dimension mismatch: query {query.dim}, document {doc.shape[1]}"
        )
    sims = doc @ query.embeddings[query.distinct_rows[0]].T
    rows = np.arange(len(doc))
    maxima = _table_maxima(sims, rows, rows[:1], np.array([len(doc)]))
    return float(_position_sums(query, maxima)[0])


# Medians of 40 random candidate sets a point, one BLAS thread: on a store
# of 60,000 contextual rows of dim 64 (every row its own code) gathering
# cost as much as the whole table at a share of about 0.4 with 2 or 4
# distinct query rows, 0.5 with 9 or 16 and 0.6 with 32, and 1.5-2.4 times
# as much at a share of 1; on the desk store's table of 1,751 rows it broke
# even at 0.4-0.6. At 0.6 the table was no slower at any of these counts.
_TABLE_MIN_SHARE = 0.6  # candidate rows / table rows


def _maxsim_route(store: EmbeddingStore, distinct: int, rows: int) -> str:
    """The product ``score_documents`` takes for ``rows`` candidate rows
    with ``distinct`` distinct query rows: ``"table"`` where
    ``mve.index._exact_in_place`` lets the table's product stand for the
    gathered one and the candidates hold a large enough share of its rows,
    else ``"gather"``.
    """
    table_rows = len(store.table)
    if _exact_in_place(min(rows, table_rows), distinct) and rows >= _TABLE_MIN_SHARE * table_rows:
        return "table"
    return "gather"


def score_documents(
    query: QueryRepresentation, store: EmbeddingStore, doc_numbers: np.ndarray
) -> np.ndarray:
    """Exact MaxSim scores for many stored documents in one pass.

    The candidates' token rows are scored from a per-query product of the
    store's whole table or of a gathered copy of their own rows; both routes
    give the same bits (see ``mve.index._exact_in_place``). ``doc_numbers`` must be
    integer doc numbers of ``store``, and the query must have the store's
    dimension.
    """
    if query.dim != store.dim:
        raise InvalidInputError(f"dimension mismatch: query {query.dim}, store {store.dim}")
    numbers = np.asarray(doc_numbers)
    if numbers.ndim != 1:
        raise InvalidInputError("doc numbers must form a 1-d array")
    if numbers.size == 0:
        return np.empty(0, dtype=np.float64)
    if numbers.dtype.kind not in "iu":
        raise InvalidInputError(f"doc numbers must be integers, got dtype {numbers.dtype}")
    if int(numbers.min()) < 0 or int(numbers.max()) >= store.num_docs:
        raise InvalidInputError(f"doc number outside the store of {store.num_docs} documents")
    doc_numbers = numbers.astype(np.int64, copy=False)
    starts = store.doc_offsets[doc_numbers, 0]
    lengths = store.doc_offsets[doc_numbers, 1]
    rows = int(lengths.sum())
    q_rows = query.embeddings[query.distinct_rows[0]]
    if _maxsim_route(store, len(q_rows), rows) == "table":
        sims, codes = store.table @ q_rows.T, store.codes
    else:
        # the candidates' rows back to back, each document's from its start
        gathered = np.cumsum(lengths) - lengths
        token_rows = np.arange(rows) + np.repeat(starts - gathered, lengths)
        sims, codes, starts = store.rows(token_rows) @ q_rows.T, np.arange(rows), gathered
    return _position_sums(query, _table_maxima(sims, codes, starts, lengths))


# Up to this many scores, ``_best_first`` is numpy's stable sort itself. On
# 10 to 128 random float32 or float64 scores the stable sort took 0.3-0.6 of
# the time of the default sort and its tie pass; from 256 to 1,024 the two
# were within about 30% of each other, and on 4,096 the stable sort took
# 3-4.5 times as long (medians of 15 repeats, one core, numpy 2.4).
_STABLE_SORT_MAX = 128


def _best_first(scores: np.ndarray) -> np.ndarray:
    """Positions of ``scores`` best first, equal scores in ascending position
    order: exactly ``np.argsort(-scores, kind="stable")``, NaN last.

    Candidates come in doc-id order, so ranking them by this order breaks
    ties by doc id. Above ``_STABLE_SORT_MAX`` scores numpy's default sort
    is several times faster than its stable one; it may leave equal scores
    in any order, so each run of equal scores (-0.0 equal to 0.0, NaN equal
    to NaN) is put back in position order afterwards, by one sort of (run
    start, position) keys over the tied entries only.
    """
    keys = -scores
    if scores.size <= _STABLE_SORT_MAX:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys)
    ranked = keys[order]
    tied = np.zeros(order.size + 1, dtype=bool)
    np.equal(ranked[1:], ranked[:-1], out=tied[1:-1])
    if order.size and np.isnan(ranked[-1]):  # NaN sorts last and equals no score
        nan = np.isnan(ranked)
        tied[1:-1] |= nan[1:] & nan[:-1]
    if not tied.any():
        return order
    # tied[i] marks that entry i continues the run of entry i - 1
    continues = tied[:-1]
    in_run = continues | tied[1:]
    run_start = np.maximum.accumulate(np.where(continues, 0, np.arange(order.size)))
    packed = run_start[in_run] * order.size + order[in_run]
    packed.sort()
    order[in_run] = packed % order.size
    return order


def _best_first_head(scores: np.ndarray, n: int) -> np.ndarray:
    """``_best_first(scores)[:n]`` for ``n >= 1``.

    When there are more than ``n`` scores, a partition finds the ``n``-th
    best, and only the scores at least that good are ordered: no other
    score can come before them, and a stable order ranks a subset as it
    ranks the whole. A NaN ``n``-th best leaves no such cut (NaN compares
    false), so the whole array is ordered then.
    """
    if n < scores.size:
        keys = -scores
        cut = np.partition(keys, n - 1)[n - 1]
        if not np.isnan(cut):
            chosen = (keys <= cut).nonzero()[0]
            return chosen[_best_first(scores[chosen])[:n]]
    return _best_first(scores)[:n]


def rerank(
    candidates: CandidateSet, query: QueryRepresentation, store: EmbeddingStore, k: int
) -> Ranking:
    """Score every candidate exactly and keep the best ``k``.

    Descending score; ties break by ascending doc id. Only the scores at
    least as good as the ``k``-th best are ordered (``_best_first_head``).
    """
    _check_int("k", k)
    if k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    if candidates.store is not store:
        raise ConsistencyError("candidate set was built on a different store")
    scores = score_documents(query, store, candidates.numbers)
    order = _best_first_head(scores, k)
    ids = store.doc_id_array[candidates.numbers[order]].tolist()
    return Ranking(entries=RankedEntries(ids, scores[order]), k=k)


def search(
    query_text: str,
    index: IvfIndex,
    lexicon: Lexicon,
    encoder: QueryEncoder,
    config: PruningConfig,
    k: int,
) -> tuple[Ranking, CandidateSet]:
    """End-to-end search for one query.

    Encodes and orders the query embeddings, runs candidate generation for
    the first ``config.p`` of them (once per distinct vector among them),
    takes the documents of all their hits as one candidate set, and reranks
    it with the full query representation. Returns the ranking and the
    candidate set (the latter feeds the retrieved-count metrics).

    The probe arguments are checked once for the whole query, with the
    errors and messages ``ann_candidates`` gives; each distinct vector is
    then probed unchecked, and its hits are never sorted.
    """
    query = encoder.encode(query_text)
    if config.p > query.q_len:
        raise InvalidConfigError(f"p={config.p} exceeds q_len={query.q_len}")
    ordering = order_embeddings(query, lexicon, config.strategy)
    slots = query.distinct_rows[1].tolist()
    # each distinct vector among the first p positions, probed at the first
    # position that holds it, in processing order
    first_position: dict[int, int] = {}
    for position in ordering[: config.p]:
        first_position.setdefault(slots[position], position)
    rows = query.embeddings[list(first_position.values())]
    _check_probe(index, rows, config.k_prime, config.n_probe)
    keys = [_probe(index, phi, config.k_prime, config.n_probe) for phi in rows]
    hits = _key_ids(np.concatenate(keys))
    candidates = CandidateSet(index.store, index.store.doc_of[hits])
    return rerank(candidates, query, index.store, k), candidates
