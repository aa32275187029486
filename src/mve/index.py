"""Document-embedding store, spherical k-means training, inverted-file
construction, and binary persistence.

The inverted file is coarse-only: every stored embedding sits, at full
precision, in the list of its nearest centroid by dot product. Probing a
subset of lists makes first-stage search approximate; probing all lists makes
it exact, which the tests rely on.
"""

from __future__ import annotations

import bisect
import math
import numbers
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .core import _SEED_MASK, DocumentEntry, is_single_field
from .errors import CorruptIndexError, InvalidConfigError, InvalidInputError

INDEX_MAGIC = b"MVIX"
CODES_MAGIC = b"MVCD"
DUMP_MAGIC = b"MVED"
FORMAT_VERSION = 1

_ASSIGN_CHUNK = 8192
_STABLE_PRODUCT_FLOOR = 8192  # rows x columns; read by _exact_in_place alone
# embeddings compared with their code's row at a time: of 1,024 to 16,384,
# 2,048 checked the desk store (60,000 x 64) fastest, in about 2 ms
_CODE_CHECK_CHUNK = 2048
# rows of the inverted-list section a load reads into its one buffer before
# it checks or places them. On the desk index (60,000 x 64, 244 lists; a
# shared 2-core host, warm) the list section took 7-9.5 ms at every size
# from 1,024 to 16,384 rows, within the host's noise: about 3 ms to read
# 16 MB with about 250 ``readinto`` calls and 4-5 ms to check every row
# against its code's row. 4,096 rows keep the buffer at 1.1 MB, and the
# load's tracemalloc peak at 4.8 MB.
_LOAD_CHECK_BATCH = 4096
# the first stage packs an embedding id into 32 bits
_MAX_EMBEDDINGS = 2**32


def _exact_in_place(rows: int, columns: int) -> bool:
    """Whether products of ``columns`` columns, the smaller of which holds
    ``rows`` rows, give a row's entries the same bits in either, so one may
    be taken in place of the other: MaxSim's table route, the list
    assignment over the store's table and the k-means rounds over a
    sample's distinct rows ask it.

    It rests on OpenBLAS 0.3.31 (numpy's wheel) sgemm, measured at dims 3 to
    768 and 2 to 32 columns: once rows x columns exceeds about 1,200 (the
    largest differing product seen was 1,179), every entry of
    ``X[a:b] @ Q.T`` has the bits of ``(X @ Q.T)[a:b]`` at any offset ``a``,
    and a row's entries have the same bits in any other product above that
    size that holds the row. Below that a small-matrix kernel gives other
    bits, and one column runs gemv, whose bits depend on the row's position:
    on 60 random stores of 8,192 + 1 to 39 rows with 2 to 24 centroids, 38
    final assignment chunks under the floor had other bits than the table's
    product. Hence two columns or more and ``_STABLE_PRODUCT_FLOOR`` entries,
    well above that boundary. test_retrieval.py's
    test_blas_premise_of_the_in_place_route and test_index.py's
    test_blas_premise_of_the_table_assignment check it at dims 3, 16, 17,
    64, 128 and 768.
    """
    return columns >= 2 and rows * columns >= _STABLE_PRODUCT_FLOOR


def _check_codes(codes: object, bound: int) -> np.ndarray:
    """``codes`` as a new read-only intp array, once they are integers that
    lie in ``[0, bound)`` and use every value there."""
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.dtype.kind not in "iu":
        raise InvalidInputError("store codes must be one integer per embedding")
    if codes.size and not (0 <= codes.min() and codes.max() < bound):
        raise InvalidInputError(f"store codes must lie in [0, {bound})")
    codes = codes.astype(np.intp)
    codes.flags.writeable = False
    unused = np.flatnonzero(np.bincount(codes, minlength=bound) == 0)
    if unused.size:
        raise InvalidInputError(f"store code {int(unused[0])} has no embedding")
    return codes


def _bits(rows: np.ndarray) -> np.ndarray:
    """The bits of float32 ``rows`` whose last axis is contiguous, as
    unsigned integers: two coordinates to one uint64 where the row length is
    even, which compares faster than one uint32 each."""
    return rows.view(np.uint64 if rows.shape[-1] % 2 == 0 else np.uint32)


def _check_code_rows(
    table: np.ndarray, codes: np.ndarray, rows: np.ndarray, ids: np.ndarray
) -> None:
    """Raise unless every one of ``rows``, embeddings ``ids``, is bit for
    bit the row of ``table`` its code names."""
    # bits, not values: -0.0 == 0.0, and NaN equals nothing
    table_bits, bits = _bits(table), _bits(rows)
    for start in range(0, len(codes), _CODE_CHECK_CHUNK):
        block = codes[start : start + _CODE_CHECK_CHUNK]
        same = np.take(table_bits, block, axis=0) == bits[start : start + len(block)]
        if not same.all():
            at = start + int(np.argmin(same.all(axis=1)))
            raise InvalidInputError(
                f"embedding {int(ids[at])} differs from another embedding of its code "
                f"{int(codes[at])}"
            )


@dataclass(frozen=True, init=False, eq=False)
class EmbeddingStore:
    """All document embeddings concatenated in corpus order, as a table of
    rows and one code per embedding: embedding ``i``, whose embedding id is
    its global row number, is bit for bit ``table[codes[i]]``, and
    :meth:`rows` reads embeddings that way. The built-in embedder's store
    takes one row per vocabulary token (the desk store's 60,000 embeddings
    are 1,751 rows, 448 kB instead of 15 MB), so a product with the store's
    rows can be taken once per row. A store whose rows do not repeat, such
    as one read from an embeddings dump, has its embeddings as the table and
    codes ``0 ... n-1``.

    ``EmbeddingStore(table, codes, lengths, doc_ids)`` makes every store;
    document ``doc_ids[i]`` owns the next ``lengths[i]`` embeddings. It
    raises :class:`InvalidInputError` unless there are at most 2**32 codes,
    so that every embedding id fits in 32 bits (checked before anything is
    converted or read); ``table`` is a finite 2-d float32 array of dim 1 or
    more; the codes are integers in ``[0, len(table))`` that use every row;
    the doc ids are unique; and ``lengths`` is a 1-d integer array, one per
    doc id, each at least 1, summing to the number of codes. No embedding is
    compared with another: they are the table's rows by construction. The
    store keeps a read-only view of ``table`` (a copy only where it is not
    C-ordered float32), which the caller must not write afterwards, and its
    own read-only intp copy of the codes. Every store, built or loaded,
    passes these checks.

    ``doc_offsets[i] == (start, length)``, derived from the lengths, locates
    document ``i`` among the embeddings. ``doc_id_array`` holds the doc ids
    as a read-only object array, indexed by doc number.

    ``vectors`` reads every embedding in id order: a full gather,
    ``num_embeddings * dim * 4`` bytes made on each read and never kept; the
    engine's own request path never reads it.
    """

    doc_offsets: np.ndarray  # (num_docs, 2) int64 rows of (start, length)
    doc_ids: tuple[str, ...]
    codes: np.ndarray  # embedding id -> row of ``table``
    table: np.ndarray = field(repr=False)  # (num_rows, dim) float32
    num_embeddings: int
    doc_of: np.ndarray = field(repr=False)  # embedding id -> doc number
    id_rank: np.ndarray = field(repr=False)  # doc number -> rank of its id
    id_order: np.ndarray = field(repr=False)  # ascending doc id -> doc number
    doc_id_array: np.ndarray = field(repr=False)  # doc number -> doc id

    def __init__(
        self,
        table: np.ndarray,
        codes: np.ndarray,
        lengths: np.ndarray,
        doc_ids: Sequence[str],
    ) -> None:
        def set_(name: str, value: object) -> None:
            object.__setattr__(self, name, value)

        if np.ndim(codes) and len(codes) > _MAX_EMBEDDINGS:
            raise InvalidInputError(
                f"store holds {len(codes)} embeddings, more than {_MAX_EMBEDDINGS}"
            )
        table = np.ascontiguousarray(table, dtype=np.float32).view()
        if table.ndim != 2 or table.shape[1] == 0:
            raise InvalidInputError("store table must be a (n, dim) array")
        table.flags.writeable = False
        if not np.isfinite(table).all():
            raise InvalidInputError("store vectors contain NaN or Inf")
        codes = _check_codes(codes, len(table))
        doc_ids = tuple(doc_ids)
        index_of = dict(zip(doc_ids, range(len(doc_ids))))
        if len(index_of) != len(doc_ids):
            raise InvalidInputError("duplicate doc ids in store")
        lengths = np.asarray(lengths)
        if lengths.ndim != 1 or lengths.dtype.kind not in "iu" or not lengths.size:
            raise InvalidInputError("document lengths must be a non-empty 1-d integer array")
        if len(lengths) != len(doc_ids):
            raise InvalidInputError("doc_ids and document lengths differ in length")
        lengths = lengths.astype(np.int64)  # a u64 of 2**63 or more wraps negative
        if (lengths < 1).any():
            raise InvalidInputError("every document must own at least one embedding")
        ends = np.cumsum(lengths)
        # no length above the total keeps the int64 sum from wrapping
        if (lengths > len(codes)).any() or int(ends[-1]) != len(codes):
            raise InvalidInputError(
                f"document lengths do not sum to the store's {len(codes)} embeddings"
            )
        set_("doc_offsets", np.stack([ends - lengths, lengths], axis=1))
        set_("doc_ids", doc_ids)
        set_("codes", codes)
        set_("table", table)
        set_("num_embeddings", len(codes))
        set_("doc_of", np.repeat(np.arange(len(doc_ids)), lengths))
        set_("_index_of", index_of)
        order = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__))
        set_("id_order", order)
        set_("id_rank", np.argsort(order))
        doc_id_array = np.array(doc_ids, dtype=object)
        doc_id_array.flags.writeable = False
        set_("doc_id_array", doc_id_array)

    @classmethod
    def from_blocks(cls, blocks: Sequence[tuple[str, np.ndarray]]) -> "EmbeddingStore":
        """A store of ``(doc_id, (length, dim) matrix)`` blocks in the given
        order, whose table is their rows, one per embedding, with codes
        ``0 ... n-1``."""
        if not blocks:
            raise InvalidInputError("cannot build a store from no documents")
        matrices = [np.asarray(matrix) for _, matrix in blocks]
        for (doc_id, _), matrix in zip(blocks, matrices):
            if matrix.ndim != 2:
                raise InvalidInputError(
                    f"embeddings of doc {doc_id!r} must be a (length, dim) array, "
                    f"not {matrix.ndim}-d"
                )
        dims = {matrix.shape[1] for matrix in matrices}
        if len(dims) != 1:
            raise InvalidInputError(f"mixed embedding dimensions: {sorted(dims)}")
        table = np.concatenate(matrices, axis=0)
        return cls(
            table,
            np.arange(len(table)),
            [len(matrix) for matrix in matrices],
            [doc_id for doc_id, _ in blocks],
        )

    @classmethod
    def from_documents(cls, corpus: Sequence[DocumentEntry]) -> "EmbeddingStore":
        return cls.from_blocks([(doc.doc_id, doc.embeddings) for doc in corpus])

    @property
    def vectors(self) -> np.ndarray:
        """Every embedding in id order, a ``(num_embeddings, dim)`` float32
        array: a new read-only ``np.take(table, codes)`` on each read."""
        vectors = np.take(self.table, self.codes, axis=0)
        vectors.flags.writeable = False
        return vectors

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def dim(self) -> int:
        return int(self.table.shape[1])

    def rows(self, ids: np.ndarray | slice) -> np.ndarray:
        """The embeddings ``ids`` names, an array of embedding ids or a slice
        of them, as a new array of the table's rows, ``table[codes[ids]]``."""
        return np.take(self.table, self.codes[ids], axis=0)

    def index_of(self, doc_id: str) -> int | None:
        return self._index_of.get(doc_id)  # type: ignore[attr-defined]

    def doc_vectors(self, doc_number: int) -> np.ndarray:
        """The embeddings of document ``doc_number``, in ``[0, num_docs)``."""
        if (
            isinstance(doc_number, bool)
            or not isinstance(doc_number, numbers.Integral)
            or not 0 <= doc_number < self.num_docs
        ):
            raise InvalidInputError(
                f"doc number must be an integer in [0, {self.num_docs}), got {doc_number!r}"
            )
        start, length = self.doc_offsets[doc_number].tolist()
        return self.rows(slice(start, start + length))


@dataclass(frozen=True)
class Centroids:
    """Coarse quantizer: unit-length centroid vectors.

    ``objective_history`` records the mean assigned similarity at each
    training iteration; it is training metadata and is not persisted.
    """

    vectors: np.ndarray  # (n_list, dim) float32
    objective_history: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        object.__setattr__(self, "vectors", vectors)
        if vectors.ndim != 2 or vectors.shape[0] == 0 or vectors.shape[1] == 0:
            raise InvalidInputError("centroids must be a non-empty (n_list, dim) array")
        if not np.isfinite(vectors).all():
            raise InvalidInputError("centroids contain NaN or Inf")

    @property
    def n_list(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


@dataclass(frozen=True)
class IvfIndex:
    """Inverted file over an embedding store.

    ``lists[c]`` holds the embedding ids assigned to centroid ``c`` in
    ascending id order, and the lists are a disjoint cover of the store.
    They hold ids only; their embeddings are read with ``store.rows``.
    """

    store: EmbeddingStore
    centroids: Centroids
    lists: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.centroids.dim != self.store.dim:
            raise InvalidInputError("centroid and store dimensions differ")
        if len(self.lists) != self.centroids.n_list:
            raise InvalidInputError("one inverted list per centroid required")
        lists = tuple(np.ascontiguousarray(l, dtype=np.int64) for l in self.lists)
        object.__setattr__(self, "lists", lists)
        joined = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
        total = self.store.num_embeddings
        # n ids in range that mark all n slots are a disjoint cover; a
        # negative id would mark a slot from the end, so range comes first
        covered = np.zeros(total, dtype=bool)
        if joined.size == total and 0 <= joined.min() and joined.max() < total:
            covered[joined] = True
        if not covered.all():
            raise InvalidInputError("inverted lists are not a disjoint cover of the store")

    @property
    def n_list(self) -> int:
        return self.centroids.n_list

    @property
    def dim(self) -> int:
        return self.store.dim


def default_n_list(num_embeddings: int) -> int:
    return max(1, int(math.isqrt(num_embeddings)))


def _sample_size(total: int, fraction: float) -> int:
    """The k-means training sample drawn from ``total`` embeddings."""
    return min(total, math.ceil(fraction * total))


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return (matrix / norms).astype(np.float32)


def _kmeans_pp_init(sample: np.ndarray, n_list: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with squared chord distance 2 - 2*sim on unit vectors."""
    n = sample.shape[0]
    chosen = [int(rng.integers(n))]
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    best_sim = sample @ sample[chosen[0]]
    weights = np.empty(n, dtype=np.float64)
    while len(chosen) < n_list:
        # 2 + (-2 * sim) is 2 - 2 * sim exactly, and -2 * sim is exact in float32
        np.multiply(best_sim, -2.0, out=weights)
        weights += 2.0
        np.maximum(weights, 0.0, out=weights)
        weights[taken] = 0.0
        total = weights.sum()
        if total <= 0.0:
            # All remaining points coincide with a centroid; take the lowest
            # index not yet chosen.
            pick = int(np.argmin(taken))
        else:
            weights /= total
            cutpoints = np.cumsum(weights, out=weights)
            pick = int(np.searchsorted(cutpoints, rng.random(), side="right"))
            pick = min(pick, n - 1)
        chosen.append(pick)
        taken[pick] = True
        np.maximum(best_sim, sample @ sample[pick], out=best_sim)
    return sample[np.array(chosen)].copy()


def train_centroids(
    store: EmbeddingStore,
    sample_fraction: float,
    n_list: int,
    iterations: int,
    seed: int,
) -> Centroids:
    """Train the coarse quantizer on a random sample of the stored embeddings.

    Spherical k-means: points and centroids are L2-normalized working copies,
    assignment maximizes the dot product (ties to the lowest centroid index),
    and the update step renormalizes cluster means. A cluster left empty by an
    assignment round is re-seeded with the point least similar to its own
    centroid. Deterministic for a fixed seed.

    Cluster sums are float64 and add their points one at a time in sample
    order (one ``np.bincount`` over every (centroid, coordinate) cell), and
    each mean's norm is the square root of its own dot product, as
    ``np.linalg.norm`` takes it for one vector.

    Sample points of one code are one row of ``store.table``, so each
    round's similarity block is taken over the sample's distinct rows and
    gathered back by code where :func:`_exact_in_place` (distinct rows x
    centroids) allows it: its entries then have the bits of the whole
    sample's block. Other blocks and samples without repeats multiply the
    whole sample. The k-means++ seeding multiplies the whole sample either
    way.

    Args:
        store: Embeddings to sample from.
        sample_fraction: Fraction in (0, 1] sampled without replacement.
        n_list: Number of centroids; at most the sample size.
        iterations: Number of assign/update rounds, at least 1. Training
            stops early once a round leaves the centroids bit for bit
            unchanged: every later round would repeat it exactly, so the
            result and ``objective_history`` (padded with that round's value
            to ``iterations`` entries) are those of all ``iterations`` rounds.
        seed: Seeds both the sample draw and the k-means++ initialization.
    """
    if not (0.0 < sample_fraction <= 1.0):
        raise InvalidConfigError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    if n_list < 1:
        raise InvalidConfigError(f"n_list must be >= 1, got {n_list}")
    if iterations < 1:
        raise InvalidConfigError(f"iterations must be >= 1, got {iterations}")
    total = store.num_embeddings
    sample_size = _sample_size(total, sample_fraction)
    if n_list > sample_size:
        raise InvalidConfigError(
            f"n_list {n_list} exceeds the sample size {sample_size}"
        )
    rng = np.random.default_rng(seed & _SEED_MASK)
    picked = np.sort(rng.choice(total, size=sample_size, replace=False))
    sample = _normalize_rows(store.rows(picked))
    _, first, inverse = np.unique(store.codes[picked], return_index=True, return_inverse=True)
    if len(first) < sample_size and _exact_in_place(len(first), n_list):
        points, point_of = sample[first], inverse
    else:
        points, point_of = sample, slice(None)

    centroids = _kmeans_pp_init(sample, n_list, rng)
    dim = sample.shape[1]
    sample64 = sample.astype(np.float64).ravel()
    history: list[float] = []
    for _ in range(iterations):
        previous = centroids.copy()
        sims = points @ centroids.T
        nearest = np.argmax(sims, axis=1)  # first maximum = lowest centroid index
        assign = nearest[point_of]
        assigned_sim = sims[np.arange(len(points)), nearest][point_of].astype(np.float64)
        history.append(float(assigned_sim.mean()))

        cells = (assign[:, None] * dim + np.arange(dim)).ravel()
        sums = np.bincount(cells, weights=sample64, minlength=n_list * dim).reshape(n_list, dim)
        counts = np.bincount(assign, minlength=n_list)
        filled = np.flatnonzero(counts > 0)
        means = sums[filled] / counts[filled, None]
        # np.linalg.norm(means, axis=1) sums pairwise and can round a
        # centroid coordinate the other way
        norms = np.sqrt([row.dot(row) for row in means])
        moved = norms > 0.0  # zero-norm mean keeps the previous centroid
        centroids[filled[moved]] = (means[moved] / norms[moved, None]).astype(np.float32)

        stealable = assigned_sim.copy()
        for c in np.flatnonzero(counts == 0):
            victim = int(np.argmin(stealable))
            centroids[c] = sample[victim]
            stealable[victim] = np.inf
        # A round is a function of the centroids alone, so once it returns
        # its input bit for bit every later round repeats it exactly. Bytes,
        # not np.array_equal, which takes -0.0 for 0.0.
        if centroids.tobytes() == previous.tobytes():
            history.extend([history[-1]] * (iterations - len(history)))
            break
    return Centroids(vectors=centroids, objective_history=tuple(history))


def _argmax_chunks(
    count: int, rows: Callable[[slice], np.ndarray], centroids: np.ndarray
) -> np.ndarray:
    """The argmax column of ``rows(s) @ centroids.T`` for each of ``count``
    rows, read ``_ASSIGN_CHUNK`` rows at a time, as the narrowest unsigned
    integers that hold a column index: numpy's stable sort takes keys of 16
    bits or fewer by radix, which on desk's 60,000 list ids took 1 ms
    against 5 ms as int64 (2-core host)."""
    assign = np.empty(count, dtype=np.min_scalar_type(len(centroids) - 1))
    for start in range(0, count, _ASSIGN_CHUNK):
        block = rows(slice(start, start + _ASSIGN_CHUNK))
        assign[start : start + len(block)] = np.argmax(block @ centroids.T, axis=1)
    return assign


def build_ivf(store: EmbeddingStore, centroids: Centroids) -> IvfIndex:
    """Assign every stored embedding to its argmax-dot-product centroid.

    Ties go to the lowest centroid index. Full-precision vectors stay
    available through the store; the coarse assignment only routes probes.

    An embedding is its code's row of ``store.table``, so where the table
    has fewer rows than the store, each table row is assigned once, in
    chunks of the table, and each embedding takes its code's centroid. That
    gives every embedding the centroid a chunk of the embeddings themselves
    would, bit for bit, where :func:`_exact_in_place` allows the smallest
    chunk on either side (rows x centroids); otherwise (a tiny table, a
    final chunk of a few rows, one centroid, or codes ``0 ... n-1``) the
    store's embeddings are multiplied chunk by chunk.
    """
    if centroids.dim != store.dim:
        raise InvalidInputError(
            f"dimension mismatch: store {store.dim}, centroids {centroids.dim}"
        )
    vectors, table = centroids.vectors, store.table
    # the fewest rows of any chunk _argmax_chunks multiplies on either side
    smallest = min(n % _ASSIGN_CHUNK or _ASSIGN_CHUNK for n in (len(table), store.num_embeddings))
    if len(table) < store.num_embeddings and _exact_in_place(smallest, len(vectors)):
        assign = _argmax_chunks(len(table), table.__getitem__, vectors)[store.codes]
    else:
        assign = _argmax_chunks(store.num_embeddings, store.rows, vectors)
    # a stable sort keeps each list's embedding ids ascending
    order = np.argsort(assign, kind="stable")
    boundaries = np.searchsorted(assign[order], np.arange(centroids.n_list + 1))
    lists = tuple(order[boundaries[c] : boundaries[c + 1]] for c in range(centroids.n_list))
    return IvfIndex(store=store, centroids=centroids, lists=lists)


# --------------------------------------------------------------------------
# Binary persistence
#
# Index file (little-endian):
#   magic "MVIX", u32 version, u32 dim, u32 n_list, u64 num_docs,
#   u64 num_embeddings;
#   per doc: u32 name_len, UTF-8 name, u64 start, u32 len;
#   centroid block: n_list * dim * f32;
#   per list: u64 count, then count * (u64 embedding_id + dim * f32).
# --------------------------------------------------------------------------

_HEADER = struct.Struct("<IIIQQ")
_DOC_TAIL = struct.Struct("<QI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _entry_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])


def save_index(index: IvfIndex, path: str | Path) -> None:
    """Serialize an index; :func:`load_index` restores it bitwise.

    The header and the document table go out as one write each, then the
    centroid block, then each inverted list as its count and one record
    block written from the block's own buffer. No buffer is larger than the
    document table or one list block.
    """
    store = index.store
    with open(path, "wb") as out:
        out.write(INDEX_MAGIC)
        out.write(
            _HEADER.pack(
                FORMAT_VERSION,
                store.dim,
                index.n_list,
                store.num_docs,
                store.num_embeddings,
            )
        )
        names = [doc_id.encode("utf-8") for doc_id in store.doc_ids]
        out.write(
            b"".join(
                [
                    _U32.pack(len(name)) + name + _DOC_TAIL.pack(start, length)
                    for name, (start, length) in zip(names, store.doc_offsets.tolist())
                ]
            )
        )
        out.write(np.ascontiguousarray(index.centroids.vectors, dtype="<f4"))
        entry_dtype = _entry_dtype(store.dim)
        for ids in index.lists:
            out.write(_U64.pack(len(ids)))
            block = np.empty(len(ids), dtype=entry_dtype)
            block["id"] = ids
            block["vec"] = store.rows(ids)
            out.write(block)


def _read_exact(handle: BinaryIO, count: int, section: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise CorruptIndexError(f"truncated index file: {section}")
    return data


_DOC_FIELDS = np.dtype([("start", "<u8"), ("length", "<u4")])


def _walk_doc_table(table: bytes, num_docs: int) -> tuple[list[int], int]:
    """Where each of the first ``num_docs`` entries of a document table
    starts, by its name lengths, and where the last ends: past
    ``len(table)`` if they do not fit."""
    unpack_len = _U32.unpack_from
    fixed = _U32.size + _DOC_TAIL.size
    entries: list[int] = []
    at = 0
    try:
        for _ in range(num_docs):
            entries.append(at)
            at += unpack_len(table, at)[0] + fixed
    except struct.error:  # a length field runs past the end
        at = len(table) + 1
    return entries, at


def _parse_doc_table(
    table: bytes, entries: list[int], at: int
) -> tuple[tuple[str, ...], np.ndarray]:
    """The doc ids and lengths of the table entries :func:`_walk_doc_table`
    found, once each entry's start is the sum of the lengths before it.
    numpy gathers the names, each followed by a ``\n``, into one buffer that
    decodes in one call, and the start and length fields into one array.
    """
    data = np.frombuffer(table, dtype=np.uint8)
    starts = np.array(entries, dtype=np.int64) + _U32.size
    stops = np.append(starts[1:] - _U32.size, at) - _DOC_TAIL.size
    spans = stops - starts + 1  # each name and the byte after it
    into = np.cumsum(spans) - spans
    joined = data[np.arange(int(spans.sum())) + np.repeat(starts - into, spans)]
    joined[into + spans - 1] = ord("\n")
    try:
        text = joined[:-1].tobytes().decode("utf-8")
    except UnicodeDecodeError:
        text = ""
    doc_ids = text.split("\n")
    # str.split() drops empty names and splits at whitespace, so it equals
    # the split at the separators only if every name is a single field
    if len(doc_ids) != len(entries) or text.split() != doc_ids:
        for i, (a, b) in enumerate(zip(starts.tolist(), stops.tolist())):
            try:
                doc_id = table[a:b].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptIndexError(f"document table: undecodable name at entry {i}") from exc
            if not is_single_field(doc_id):
                raise CorruptIndexError(
                    f"document table: doc id {doc_id!r} at entry {i} is empty or "
                    "contains whitespace"
                )

    fields = data[stops[:, None] + np.arange(_DOC_TAIL.size)].view(_DOC_FIELDS)[:, 0]
    lengths = fields["length"]
    # compared as u64: a cast first would wrap starts of 2**63 or more negative
    before = np.cumsum(lengths, dtype=np.uint64) - lengths
    wrong = np.flatnonzero(fields["start"] != before)
    if wrong.size:
        i = int(wrong[0])
        raise CorruptIndexError(
            f"document table: entry {i} starts at embedding {int(fields['start'][i])}, "
            f"but the entries before it hold {int(before[i])}"
        )
    return tuple(doc_ids), lengths


# --------------------------------------------------------------------------
# Codes file (little-endian):
#   magic "MVCD", u32 version, u64 num_embeddings;
#   num_embeddings * u32 code, in embedding-id order.
# --------------------------------------------------------------------------

_CODES_HEADER = struct.Struct("<IQ")


def save_codes(store: EmbeddingStore, path: str | Path) -> None:
    """Write the codes of a store; :func:`load_index` reads them back beside
    the index file."""
    with open(path, "wb") as out:
        out.write(CODES_MAGIC)
        out.write(_CODES_HEADER.pack(FORMAT_VERSION, len(store.codes)))
        out.write(store.codes.astype("<u4"))


def _read_codes(path: Path, num_embeddings: int) -> np.ndarray:
    data = path.read_bytes()
    head = len(CODES_MAGIC) + _CODES_HEADER.size
    if data[: len(CODES_MAGIC)] != CODES_MAGIC:
        raise CorruptIndexError(f"{path}: bad magic {data[:4]!r}, expected {CODES_MAGIC!r}")
    if len(data) < head:
        raise CorruptIndexError(f"{path}: truncated header")
    version, count = _CODES_HEADER.unpack_from(data, len(CODES_MAGIC))
    if version != FORMAT_VERSION:
        raise CorruptIndexError(f"{path}: unsupported version {version}")
    if count != num_embeddings:
        raise CorruptIndexError(
            f"{path}: holds codes for {count} embeddings, the index {num_embeddings}"
        )
    if len(data) != head + 4 * count:
        raise CorruptIndexError(
            f"{path}: {len(data)} bytes, but {count} codes take {head + 4 * count}"
        )
    codes = np.frombuffer(data, dtype="<u4", offset=head)
    if count and codes.max() >= num_embeddings:
        raise CorruptIndexError(
            f"{path}: store codes must lie in [0, {num_embeddings}), the number of embeddings"
        )
    return codes


def _fill_code_rows(
    table: np.ndarray, filled: np.ndarray, codes: np.ndarray, ids: np.ndarray, rows: np.ndarray
) -> None:
    """Check ``rows``, embeddings ``ids`` of ``codes`` in the order a load
    reads them, against ``table``. A code not yet ``filled`` takes its first
    of ``rows`` as its table row; every row, that one too, must then be bit
    for bit its code's row, so a code is checked across calls as well."""
    new = np.flatnonzero(~filled[codes])
    if new.size:
        fresh = codes[new]
        first = np.empty(len(table), dtype=np.intp)
        first[fresh] = len(codes)
        np.minimum.at(first, fresh, new)
        taken = first[fresh] == new  # once for each fresh code, at its first row
        table[fresh[taken]] = rows[new[taken]]
        filled[fresh] = True
    _check_code_rows(table, codes, rows, ids)


def load_index(path: str | Path, codes_path: str | Path | None = None) -> IvfIndex:
    """Read an index file, validating every section before constructing.

    The sizes the header fixes (at least 16 bytes per document, the centroid
    block and a count per list, and one record per embedding) are checked
    against the file's size before anything is allocated, so a damaged
    count fails as corruption instead of as a huge allocation. Every section
    after the document table has a size the header fixes, so the table is
    read in one call and parsed in bulk; where its entries overrun that
    read but are whole and sound in the file, the file was cut after the
    table, and the error names the section it ends in and the bytes
    missing. Doc ids must decode as UTF-8 and, as
    :func:`mve.engine.build_engine` requires, be non-empty and free of
    whitespace, so that a run file can carry them, and each document must
    start where the lengths before it end, so damage to the table is found
    before the list section is read. The inverted lists are then read in
    batches of ``_LOAD_CHECK_BATCH`` rows into one reused buffer (see
    :func:`_read_lists`), and each batch's ids are range-checked before use.
    Without ``codes_path`` each batch is scattered into one block of every
    embedding, which becomes the store's table, with codes ``0 ... n-1``.

    With ``codes_path`` the store takes the codes that file holds (see
    :func:`save_codes`), read and checked before the lists, so that damage
    to them fails before the list section is read: one per embedding, each
    below the number of embeddings, and every value up to their maximum
    used. It keeps only one row per code, never the
    ``(num_embeddings, dim)`` block: the first embedding of a code read
    becomes its row, and every embedding, in every list, is compared bit for
    bit with its code's row where it lies in the buffer.

    Either way the load ends in one call of
    ``EmbeddingStore(table, codes, lengths, doc_ids)``, which checks them as
    it checks any store, the codes read from ``codes_path`` a second time.

    On the desk index (60,000 embeddings of dim 64, 5,000 documents; a
    shared 2-core host, warm) a load with codes takes about 12-13.5 ms: 3 ms
    to read the list section, 4-5 ms to check it, 1.5 ms for the document
    table, 0.9 ms to build the store and 0.4 ms the index.

    Raises:
        CorruptIndexError: On a bad magic, unsupported version, truncation,
            or internally inconsistent content, in either file. Nothing
            partial is returned.
    """
    try:
        return _load_index(Path(path), None if codes_path is None else Path(codes_path))
    except InvalidInputError as exc:
        named = "" if codes_path is None else f" with {codes_path}"
        raise CorruptIndexError(f"inconsistent index content{named}: {exc}") from exc


def _load_index(path: Path, codes_path: Path | None) -> IvfIndex:
    """:func:`load_index`, raising :class:`InvalidInputError` for content
    that reads but does not form an index."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != INDEX_MAGIC:
            raise CorruptIndexError(f"bad magic {magic!r}, expected {INDEX_MAGIC!r}")
        version, dim, n_list, num_docs, num_embeddings = _HEADER.unpack(
            _read_exact(handle, _HEADER.size, "header")
        )
        if version != FORMAT_VERSION:
            raise CorruptIndexError(f"unsupported version {version}")
        if dim == 0 or n_list == 0 or num_docs == 0 or num_embeddings == 0:
            raise CorruptIndexError("header declares an empty index")
        file_size = os.fstat(handle.fileno()).st_size
        rest = n_list * (dim * 4 + _U64.size) + num_embeddings * (_U64.size + dim * 4)
        least = len(INDEX_MAGIC) + _HEADER.size + num_docs * (_U32.size + _DOC_TAIL.size) + rest
        if least > file_size:
            raise CorruptIndexError(
                f"header declares {num_docs} documents, {n_list} lists and "
                f"{num_embeddings} embeddings of dim {dim}, which need at least "
                f"{least} bytes, but the file has {file_size}"
            )

        table_at = handle.tell()
        doc_table = _read_exact(handle, file_size - table_at - rest, "document table")
        entries, table_size = _walk_doc_table(doc_table, num_docs)
        if table_size > len(doc_table):  # a cut after the table if the table is whole
            handle.seek(table_at)
            whole = handle.read()
            entries, end = _walk_doc_table(whole, num_docs)
            if end > len(whole):
                raise CorruptIndexError("truncated index file: document table")
            _parse_doc_table(whole, entries, end)  # raises for a damaged table
            cut = "centroid block" if len(whole) - end < n_list * dim * 4 else "inverted lists"
            missing = end + rest - len(whole)
            raise CorruptIndexError(f"truncated index file: {cut}, bytes missing: {missing}")
        doc_ids, lengths = _parse_doc_table(doc_table, entries, table_size)
        handle.seek(table_at + table_size)

        centroid_bytes = _read_exact(handle, n_list * dim * 4, "centroid block")
        centroid_vectors = np.frombuffer(centroid_bytes, dtype="<f4").reshape(n_list, dim).copy()

        if codes_path is None:
            table = np.empty((num_embeddings, dim), dtype=np.float32)
            codes = np.arange(num_embeddings)

            def place(ids: np.ndarray, rows: np.ndarray) -> None:
                table[ids] = rows

        else:
            # _read_codes has checked their count and bound; as intp, the
            # fill below indexes with them faster than with the file's u4
            codes = _read_codes(codes_path, num_embeddings)
            num_rows = int(codes.max()) + 1
            codes = _check_codes(codes, num_rows)
            # zeros, not empty: a code that no list holds leaves its row
            # finite, and the lists then fail as a cover of the store
            table = np.zeros((num_rows, dim), dtype=np.float32)
            filled = np.zeros(len(table), dtype=bool)

            def place(ids: np.ndarray, rows: np.ndarray) -> None:
                _fill_code_rows(table, filled, codes[ids], ids, rows)

        lists = _read_lists(handle, n_list, num_embeddings, dim, place)
        if handle.read(1):
            raise CorruptIndexError("trailing data after the final inverted list")

    store = EmbeddingStore(table, codes, lengths, doc_ids)
    return IvfIndex(store=store, centroids=Centroids(centroid_vectors), lists=lists)


def _read_lists(
    handle: BinaryIO,
    n_list: int,
    num_embeddings: int,
    dim: int,
    place: Callable[[np.ndarray, np.ndarray], None],
) -> tuple[np.ndarray, ...]:
    """Read the inverted-list section; return each list's ids.

    The records go into one reused buffer of ``_LOAD_CHECK_BATCH`` rows,
    each list's straight from the file with ``readinto``; a batch may end
    inside a list. Each full batch, and the last, has its ids range-checked
    and copied into one array of every id, of which each list is a view,
    and is then handed to ``place`` as its ids and its rows, a view of the
    buffer that ``place`` must not keep.
    """
    records = np.empty(max(1, min(_LOAD_CHECK_BATCH, num_embeddings)), dtype=_entry_dtype(dim))
    into = memoryview(records).cast("B")
    size = records.itemsize
    joined = np.empty(num_embeddings, dtype=np.int64)
    ends: list[int] = []  # rows through each list so far
    done = held = 0  # rows placed; rows in the buffer

    def flush() -> None:
        nonlocal done, held
        batch = records[:held]
        # range-checked as u64: a cast first would wrap ids of 2**63 or more negative
        beyond = batch["id"] >= num_embeddings
        if beyond.any():
            c = bisect.bisect_right(ends, done + int(beyond.argmax()))
            raise CorruptIndexError(f"inverted list {c}: embedding id out of range")
        ids = joined[done : done + held]
        ids[:] = batch["id"]
        place(ids, batch["vec"])
        done, held = done + held, 0

    for c in range(n_list):
        (count,) = _U64.unpack(_read_exact(handle, _U64.size, f"inverted list {c}"))
        if count > num_embeddings - done - held:
            raise CorruptIndexError(
                f"inverted list {c}: lists hold more embeddings than the header declares"
            )
        ends.append(done + held + count)
        while count:
            take = min(count, len(records) - held)
            if handle.readinto(into[held * size : (held + take) * size]) != take * size:
                raise CorruptIndexError(f"truncated index file: inverted list {c}")
            held, count = held + take, count - take
            if held == len(records):
                flush()
    if held:
        flush()
    if done != num_embeddings:
        raise CorruptIndexError(
            f"header declares {num_embeddings} embeddings but lists hold {done}"
        )
    return tuple(joined[start:end] for start, end in zip([0, *ends], ends))


# --------------------------------------------------------------------------
# External embedding dumps (real encoder outputs)
#
#   magic "MVED", u32 version, u32 dim, u64 num_docs;
#   per doc: u32 name_len, UTF-8 name, u32 num_embeddings, then
#   num_embeddings * dim * f32, little-endian.
# --------------------------------------------------------------------------

_DUMP_HEADER = struct.Struct("<IIQ")


def _check_dump_doc(i: int, doc_id: str, matrix: np.ndarray) -> None:
    """Raise unless dump doc ``i`` has a doc id that is non-empty and free
    of whitespace, and at least one embedding, all finite."""
    if not is_single_field(doc_id):
        raise InvalidInputError(f"dump doc {i}: doc id {doc_id!r} is empty or contains whitespace")
    if not len(matrix):
        raise InvalidInputError(f"dump doc {doc_id!r} has no embeddings")
    if not np.isfinite(matrix).all():
        raise InvalidInputError(f"dump doc {doc_id!r}: non-finite embedding values")


def write_embeddings_dump(docs: Sequence[tuple[str, np.ndarray]], path: str | Path) -> None:
    """Write per-document embedding matrices in the ingestion format.

    Every doc is checked before the file is opened, by the rules and with
    the messages of :func:`read_embeddings_dump`, so every dump written
    reads back, and a refused one leaves no file.
    """
    if not docs:
        raise InvalidInputError("refusing to write an empty embeddings dump")
    matrices = [np.ascontiguousarray(matrix, dtype="<f4") for _, matrix in docs]
    dim = matrices[0].shape[-1]
    if dim == 0:
        raise InvalidInputError("refusing to write an embeddings dump of dim 0")
    for i, ((doc_id, _), matrix) in enumerate(zip(docs, matrices)):
        if matrix.ndim != 2 or matrix.shape[1] != dim:
            raise InvalidInputError(
                f"dump doc {doc_id!r}: expected shape (n, {dim}), got {matrix.shape}"
            )
        _check_dump_doc(i, doc_id, matrix)
    names = [doc_id.encode("utf-8") for doc_id, _ in docs]
    with open(path, "wb") as out:
        out.write(DUMP_MAGIC)
        out.write(_DUMP_HEADER.pack(FORMAT_VERSION, dim, len(docs)))
        for name, matrix in zip(names, matrices):
            out.write(_U32.pack(len(name)))
            out.write(name)
            out.write(_U32.pack(len(matrix)))
            out.write(matrix.tobytes())


def read_embeddings_dump(path: str | Path) -> list[tuple[str, np.ndarray]]:
    """Read an external embeddings dump.

    Dumps are user input, so failures raise :class:`InvalidInputError`
    (unlike our own index files, which raise :class:`CorruptIndexError`).
    Doc ids must be non-empty and free of whitespace. Each name and each
    doc's embeddings are checked against the bytes left in a regular file
    before they are read, so a damaged length or count fails as truncation,
    not as a huge allocation; a pipe is read unchecked.
    """
    docs: list[tuple[str, np.ndarray]] = []
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        # the bytes after the magic; a pipe has no size to check against
        left = info.st_size - len(DUMP_MAGIC) if stat.S_ISREG(info.st_mode) else math.inf

        def need(count: int, section: str) -> bytes:
            nonlocal left
            data = handle.read(count) if count <= left else b""
            if len(data) != count:
                raise InvalidInputError(f"truncated embeddings dump: {section}")
            left -= count
            return data

        magic = handle.read(len(DUMP_MAGIC))
        if magic != DUMP_MAGIC:
            raise InvalidInputError(f"bad dump magic {magic!r}, expected {DUMP_MAGIC!r}")
        version, dim, num_docs = _DUMP_HEADER.unpack(need(_DUMP_HEADER.size, "header"))
        if version != FORMAT_VERSION:
            raise InvalidInputError(f"unsupported dump version {version}")
        if dim == 0 or num_docs == 0:
            raise InvalidInputError("dump header declares no content")
        for i in range(num_docs):
            (name_len,) = _U32.unpack(need(4, f"doc {i} name"))
            try:
                doc_id = need(name_len, f"doc {i} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidInputError(f"dump doc {i}: undecodable name") from exc
            (count,) = _U32.unpack(need(4, f"doc {doc_id!r} count"))
            raw = need(count * dim * 4, f"doc {doc_id!r} embeddings")
            matrix = np.frombuffer(raw, dtype="<f4").reshape(count, dim).copy()
            _check_dump_doc(i, doc_id, matrix)
            docs.append((doc_id, matrix))
        if handle.read(1):
            raise InvalidInputError("trailing data after the final dump document")
    return docs
