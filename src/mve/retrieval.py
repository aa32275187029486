"""Two-stage retrieval: per-embedding candidate generation over the inverted
file, pruned union of the per-embedding document sets, and exact MaxSim
reranking.

Pruning only limits the first stage. The ordering strategy decides which
query embeddings run candidate generation; the reranker always scores with
the complete query representation. Every tie anywhere (probe choice, top-k'
cut, final ranking) breaks toward the lowest id, which makes runs bitwise
reproducible regardless of thread interleaving; ``rerank`` and the sweep
order candidates best first with ``_best_first``, numpy's default sort with
its ties put back in doc-id order. Candidates travel as a
``CandidateSet``, the distinct doc numbers of one store; doc id strings are
read from it only at the edges. A ``Ranking`` holds two columns, its doc ids
and their float64 scores, and builds ``(doc_id, score)`` pairs only when they
are read; it refers to no store, so a kept ranking keeps no engine alive.

A probe gathers the rows of its probed lists with ``np.take`` from the
store's table, ``store.table``, through ``IvfIndex.list_rows``, the rows
the lists' codes name: on desk a table of 1,751 rows and 448 kB, and for a
store read from an embeddings dump every embedding, with codes 0 ... n-1.
Every embedding is bit for bit its code's row, so the gathered block holds
the probed embeddings' bytes and the gemv gives their scores.
Its top k' comes from one sort of uint64 keys that pack a 32-bit score key
over the embedding id: the cut and its tie rule are exactly those of
``np.lexsort`` on (score descending, id ascending), which is why a store
holds at most 2**32 embeddings. Doc ids leave the pipeline through the
store's doc-id column, ``EmbeddingStore.doc_id_array``.

Candidate generation and MaxSim run once per distinct query embedding: the
MASK padding and repeated words share one vector, so they share one ANN
probe and one column of the similarity matrix. ``search`` builds one
candidate set from the documents of all its probes' hits; the sweep keeps
one set per distinct vector, since its cells union different prefixes of
them. ``p`` still counts query positions, as in the paper.
MaxSim multiplies token-major (document tokens by distinct query rows), and
its float64 sum of the maxima still runs over every position in query order,
one addition per position. A score keeps the bits of the all-positions
product as long as BLAS computes each entry of a product independently of
how many query rows it holds; small products (few document tokens, or one
distinct row) may take another kernel and differ in the last bits.

``score_documents`` has two routes to the same bits, and
``_maxsim_route`` picks one:

- *table*: multiplies the whole ``store.table`` in place, once per query,
  and takes each candidate's maxima over the rows of that product its
  tokens' codes name. Taken when there are two or more distinct query rows,
  the gathered product (candidate rows x distinct query rows) and the
  table's product both hold at least ``_IN_PLACE_MIN_PRODUCT`` entries, and
  the candidates hold at least ``_TABLE_MIN_SHARE`` of the table's rows.
- *gather*: every other set gathers its rows into one block, multiplies
  it, and takes each candidate's maxima over its own rows of that product.

Both take the maxima with one kernel, ``_table_maxima``, one token position
at a time. Above the floor BLAS gives a row's entries the same bits in any
product and at any row offset, while small products and gemv (one distinct
row) do not, so the table route runs only where the gathered product's
bits are already independent of where its rows sit.
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
from .index import EmbeddingStore, IvfIndex


class Strategy(str, enum.Enum):
    """Query-embedding orderings for the first stage."""

    FIRST = "first"  # order of occurrence: CLS, query tokens, masked tokens
    ICF = "icf"  # ascending collection frequency, specials last
    IDF = "idf"  # descending inverse document frequency, specials last


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
        try:
            object.__setattr__(self, "strategy", Strategy(self.strategy))
        except ValueError as exc:
            raise InvalidConfigError(
                f"strategy must be one of {[s.value for s in Strategy]}, got {self.strategy!r}"
            ) from exc
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
        if numbers.size and not (0 <= numbers.min() and numbers.max() < self.store.num_docs):
            raise InvalidInputError("candidate doc number outside the store")
        ranks = np.sort(self.store.id_rank[numbers])
        # the sorted ranks without repeats, as np.unique gives them; np.unique
        # took about ten times as long on 1,000 ranks with numpy 2.4
        first = np.ones(ranks.size, dtype=bool)
        np.not_equal(ranks[1:], ranks[:-1], out=first[1:])
        numbers = self.store.id_order[ranks[first]]
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
    id, truncated to depth ``k``.

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
        for i in np.flatnonzero(scores[1:] == scores[:-1]).tolist():
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
    strategy = Strategy(strategy)
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
    hits = _probe(index, phi, k_prime, n_probe)
    return hits, CandidateSet(index.store, index.store.doc_of[hits])


def _probe(index: IvfIndex, phi: np.ndarray, k_prime: int, n_probe: int) -> np.ndarray:
    """The hits of :func:`ann_candidates`, without their candidate set.

    The probed rows are gathered from ``index.store.table`` through
    ``index.list_rows``; the block holds the probed embeddings' exact bytes
    in list order.
    """
    phi = np.asarray(phi, dtype=np.float32)
    if phi.shape != (index.dim,):
        raise InvalidInputError(f"query embedding has shape {phi.shape}, expected ({index.dim},)")
    if not np.isfinite(phi).all():
        raise InvalidInputError("query embedding contains NaN or Inf")
    _check_int("k_prime", k_prime)
    _check_int("n_probe", n_probe)
    if k_prime < 1:
        raise InvalidConfigError(f"k_prime must be >= 1, got {k_prime}")
    if not (1 <= n_probe <= index.n_list):
        raise InvalidConfigError(
            f"n_probe must be between 1 and n_list={index.n_list}, got {n_probe}"
        )
    centroid_sims = index.centroids.vectors @ phi
    probed = np.argsort(-centroid_sims, kind="stable")[:n_probe]
    ids = np.concatenate([index.lists[c] for c in probed])
    rows = np.concatenate([index.list_rows[c] for c in probed])
    return _top_ids(ids, np.take(index.store.table, rows, axis=0) @ phi, k_prime)


def _top_ids(ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` ids of the highest float32 ``scores``, ties by ascending
    id: ``ids[np.lexsort((ids, -scores))[:k]]`` for distinct ids below 2**32.

    Each id is packed with its score into one uint64 key, a 32-bit score key
    in the high half and the id in the low half, so one sort orders by both.
    The score key is the float32 bit pattern mapped so that a higher score
    gives a smaller key: -0.0 is first folded into 0.0, which ``lexsort``
    takes as equal, and NaN maps to the largest key, as ``lexsort`` puts NaN
    last. Only the ``k`` smallest keys are sorted.
    """
    bits = (scores + np.float32(0)).view(np.uint32)
    # a negative score keeps its bits; a non-negative one becomes 2**31 - 1 - bits
    keys = bits ^ (((bits >> np.uint32(31)) - np.uint32(1)) & np.uint32(0x7FFFFFFF))
    keys[np.isnan(scores)] = 0xFFFFFFFF
    packed = keys.astype(np.uint64) << np.uint64(32) | ids.astype(np.uint64)
    if packed.size > k:
        packed = np.partition(packed, k - 1)[:k]
    packed.sort()
    return (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)


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
    sharing it), so equal inputs always reproduce the same score bit for bit."""
    maxima = maxima.astype(np.float64)
    first, *rest = query.distinct_rows[1].tolist()
    total = maxima[:, first].copy()
    for slot in rest:
        total += maxima[:, slot]
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


# The table MaxSim route rests on a property of OpenBLAS 0.3.31
# (numpy's wheel) sgemm. Measured at dims 3 to 768 and 2 to 32 distinct
# query rows: once rows x distinct rows exceeds about 1,200 (the largest
# differing product seen was 1,179), every entry of ``X[a:b] @ Q.T`` has the
# bits of ``(X @ Q.T)[a:b]`` at any offset ``a``; and, measured at dims 3
# to 768 and checked at dims 3, 16, 17, 64, 128 and 768 by test_retrieval.py's
# test_blas_premise_of_the_in_place_route, a row's entries have the same
# bits in any other product above that size that holds the row. Below that
# a small-matrix kernel gives other bits, and one distinct row runs gemv,
# whose bits depend on the row's position. The floor keeps the table's
# product, and the gathered product it stands for, well above that boundary.
_IN_PLACE_MIN_PRODUCT = 8192  # rows x distinct query rows
# Medians of 40 random candidate sets a point, one BLAS thread: on a store
# of 60,000 contextual rows of dim 64 (every row its own code) gathering
# cost as much as the whole table at a share of about 0.4 with 2 or 4
# distinct query rows, 0.5 with 9 or 16 and 0.6 with 32, and 1.5-2.4 times
# as much at a share of 1; on the desk store's table of 1,751 rows it broke
# even at 0.4-0.6. At 0.6 the table was no slower at any of these counts.
_TABLE_MIN_SHARE = 0.6  # candidate rows / table rows


def _maxsim_route(store: EmbeddingStore, distinct: int, rows: int) -> str:
    """The product ``score_documents`` takes for ``rows`` candidate rows
    with ``distinct`` distinct query rows: ``"table"`` or ``"gather"``.

    Only ``"gather"`` runs for one distinct row or a product under the
    floor, whose bits depend on their rows' positions. Above it the whole
    table is multiplied once the candidates hold a large enough share of
    its rows.
    """
    table_rows = len(store.table)
    if (
        distinct >= 2
        and min(rows, table_rows) * distinct >= _IN_PLACE_MIN_PRODUCT
        and rows >= _TABLE_MIN_SHARE * table_rows
    ):
        return "table"
    return "gather"


def score_documents(
    query: QueryRepresentation, store: EmbeddingStore, doc_numbers: np.ndarray
) -> np.ndarray:
    """Exact MaxSim scores for many stored documents in one pass.

    The candidates' token rows are scored from a per-query product of the
    store's whole table or of a gathered copy of their own rows; both routes
    give the same bits (see the module docstring). ``doc_numbers`` must be
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


def _best_first(scores: np.ndarray) -> np.ndarray:
    """Positions of ``scores`` best first, equal scores in ascending position
    order: exactly ``np.argsort(-scores, kind="stable")``, NaN last.

    Candidates come in doc-id order, so ranking them by this order breaks
    ties by doc id. numpy's default sort is several times faster than its
    stable one; it may leave equal scores in any order, so each run of equal
    scores (-0.0 equal to 0.0, NaN equal to NaN) is put back in position
    order afterwards, by one sort of (run start, position) keys over the
    tied entries only.
    """
    keys = -scores
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


def rerank(
    candidates: CandidateSet, query: QueryRepresentation, store: EmbeddingStore, k: int
) -> Ranking:
    """Score every candidate exactly and keep the best ``k``.

    Descending score; ties break by ascending doc id.
    """
    _check_int("k", k)
    if k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    if candidates.store is not store:
        raise ConsistencyError("candidate set was built on a different store")
    scores = score_documents(query, store, candidates.numbers)
    order = _best_first(scores)[:k]
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
    hits = [
        _probe(index, query.embeddings[position], config.k_prime, config.n_probe)
        for position in first_position.values()
    ]
    candidates = CandidateSet(index.store, index.store.doc_of[np.concatenate(hits)])
    return rerank(candidates, query, index.store, k), candidates
