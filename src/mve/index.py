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
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .core import DocumentEntry, is_single_field
from .errors import CorruptIndexError, InvalidConfigError, InvalidInputError

INDEX_MAGIC = b"MVIX"
CODES_MAGIC = b"MVCD"
DUMP_MAGIC = b"MVED"
FORMAT_VERSION = 1

_SEED_MASK = (1 << 64) - 1
_ASSIGN_CHUNK = 8192
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


def _check_codes(
    codes: object, count: int | None, bound: int, bound_name: str, used: int = 0
) -> np.ndarray:
    """``codes`` as a read-only intp array, once they are integers, ``count``
    of them if given, that lie in ``[0, bound)`` and use every value up to
    their maximum and below ``used``."""
    codes = np.asarray(codes)
    if codes.ndim != 1 or codes.dtype.kind not in "iu" or count not in (None, len(codes)):
        raise InvalidInputError("store codes must be one integer per embedding")
    if codes.size and not (0 <= codes.min() and codes.max() < bound):
        raise InvalidInputError(f"store codes must lie in [0, {bound}), {bound_name}")
    codes = codes.astype(np.intp)
    codes.flags.writeable = False
    unused = np.flatnonzero(np.bincount(codes, minlength=used) == 0)
    if unused.size:
        raise InvalidInputError(f"store code {int(unused[0])} has no embedding")
    return codes


def _bits(rows: np.ndarray) -> np.ndarray:
    """The bits of float32 ``rows`` whose last axis is contiguous, as
    unsigned integers: two coordinates to one uint64 where the row length is
    even, which compares faster than one uint32 each."""
    return rows.view(np.uint64 if rows.shape[-1] % 2 == 0 else np.uint32)


def _check_code_rows(
    table: np.ndarray, codes: np.ndarray, rows: np.ndarray, ids: np.ndarray | None = None
) -> None:
    """Raise unless every one of ``rows`` is bit for bit the row of
    ``table`` its code names; ``ids`` numbers the rows' embeddings, by
    default from 0."""
    # bits, not values: -0.0 == 0.0, and NaN equals nothing
    table_bits, bits = _bits(table), _bits(rows)
    for start in range(0, len(codes), _CODE_CHECK_CHUNK):
        block = codes[start : start + _CODE_CHECK_CHUNK]
        same = np.take(table_bits, block, axis=0) == bits[start : start + len(block)]
        if not same.all():
            at = start + int(np.argmin(same.all(axis=1)))
            i = at if ids is None else int(ids[at])
            raise InvalidInputError(
                f"embedding {i} differs from another embedding of its code {int(codes[at])}"
            )


def _code_rows(vectors: np.ndarray, codes: object) -> tuple[np.ndarray, np.ndarray]:
    """Check a store's ``codes`` against its ``vectors``; return the codes as
    a read-only intp array and the row of each code."""
    codes = _check_codes(codes, len(vectors), len(vectors), "the number of embeddings")
    picked = np.empty(int(codes.max()) + 1, dtype=np.intp)
    picked[codes] = np.arange(len(codes))  # any embedding of each code; all are compared next
    table = vectors[picked]
    _check_code_rows(table, codes, vectors)
    table.flags.writeable = False
    return codes, table


def _offsets(lengths: object) -> np.ndarray:
    """``(start, length)`` rows of documents that own ``lengths`` rows in turn."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.stack([np.cumsum(lengths) - lengths, lengths], axis=1)


@dataclass(frozen=True, init=False, eq=False)
class EmbeddingStore:
    """All document embeddings concatenated in corpus order.

    ``doc_offsets[i] == (start, length)`` locates document ``i`` among the
    embeddings; the global row number of an embedding is its embedding id.
    A store holds at most 2**32 embeddings, so every id fits in 32 bits.
    ``doc_id_array`` holds the doc ids as a read-only object array, indexed
    by doc number.

    Every store is a ``table`` and its ``codes``: embedding ``i`` is bit for
    bit ``table[codes[i]]``, and :meth:`rows` reads embeddings that way. The
    built-in embedder's store takes one row per vocabulary token: the desk
    store's 60,000 embeddings are 1,751 rows, 448 kB instead of 15 MB, so a
    product with the store's rows can be taken once per row. A store of
    embeddings whose rows do not repeat, such as one read from an embeddings
    dump, is the same thing with its embeddings as the table and codes
    ``0 ... n-1``. Both arrays are read-only.

    ``EmbeddingStore(vectors, doc_offsets, doc_ids, codes=None)`` builds a
    store from its embeddings. Without codes the table is ``vectors`` itself,
    not a copy. Given codes must use every value from 0 to their maximum,
    which must lie below the number of embeddings; the table is built from
    the embeddings themselves, and a code whose embeddings differ in any bit
    (-0.0 is not 0.0) is rejected. :meth:`from_table` builds a store from its
    table and codes instead, whose rows are the embeddings by construction.

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
        vectors: np.ndarray,
        doc_offsets: np.ndarray,
        doc_ids: Sequence[str],
        codes: np.ndarray | None = None,
    ) -> None:
        if np.ndim(vectors) and len(vectors) > _MAX_EMBEDDINGS:
            raise InvalidInputError(
                f"store holds {len(vectors)} embeddings, more than {_MAX_EMBEDDINGS}"
            )
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] == 0:
            raise InvalidInputError("store vectors must be a (n, dim) array")
        if codes is None:
            table = vectors.view()  # read-only; the caller's array stays writeable
            table.flags.writeable = False
            codes = np.arange(len(vectors))
            codes.flags.writeable = False
        else:
            codes, table = _code_rows(vectors, codes)
        self._init(table, codes, doc_offsets, doc_ids)

    @classmethod
    def _over(
        cls, table: np.ndarray, codes: np.ndarray, doc_offsets: np.ndarray, doc_ids: Sequence[str]
    ) -> "EmbeddingStore":
        """A store over a read-only float32 ``table`` and read-only intp
        ``codes`` that the caller has checked, both kept as they are."""
        store = cls.__new__(cls)
        store._init(table, codes, doc_offsets, doc_ids)
        return store

    def _init(
        self,
        table: np.ndarray,
        codes: np.ndarray,
        doc_offsets: np.ndarray,
        doc_ids: Sequence[str],
    ) -> None:
        def set_(name: str, value: object) -> None:
            object.__setattr__(self, name, value)

        num_embeddings = len(codes)
        if num_embeddings > _MAX_EMBEDDINGS:
            raise InvalidInputError(
                f"store holds {num_embeddings} embeddings, more than {_MAX_EMBEDDINGS}"
            )
        offsets = np.ascontiguousarray(doc_offsets, dtype=np.int64)
        doc_ids = tuple(doc_ids)
        set_("doc_offsets", offsets)
        set_("doc_ids", doc_ids)
        set_("codes", codes)
        set_("table", table)
        set_("num_embeddings", num_embeddings)
        # every embedding is a row of the table
        if not np.isfinite(table).all():
            raise InvalidInputError("store vectors contain NaN or Inf")
        if offsets.ndim != 2 or offsets.shape[1] != 2 or offsets.shape[0] == 0:
            raise InvalidInputError("doc_offsets must be a non-empty (n, 2) array")
        if len(doc_ids) != offsets.shape[0]:
            raise InvalidInputError("doc_ids and doc_offsets differ in length")
        index_of = dict(zip(doc_ids, range(len(doc_ids))))
        if len(index_of) != len(doc_ids):
            raise InvalidInputError("duplicate doc ids in store")
        starts, lengths = offsets[:, 0], offsets[:, 1]
        if (lengths < 1).any():
            raise InvalidInputError("every document must own at least one embedding")
        expected = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        if (starts != expected).any() or int(lengths.sum()) != num_embeddings:
            raise InvalidInputError("doc offsets do not partition the vector block")
        set_("doc_of", np.repeat(np.arange(len(doc_ids)), lengths))
        set_("_index_of", index_of)
        order = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__))
        set_("id_order", order)
        set_("id_rank", np.argsort(order))
        doc_id_array = np.array(doc_ids, dtype=object)
        doc_id_array.flags.writeable = False
        set_("doc_id_array", doc_id_array)

    @classmethod
    def from_lengths(
        cls,
        vectors: np.ndarray,
        lengths: np.ndarray,
        doc_ids: Sequence[str],
        codes: np.ndarray | None = None,
    ) -> "EmbeddingStore":
        """A store over one block of vectors in which document ``doc_ids[i]``
        owns the next ``lengths[i]`` rows."""
        return cls(vectors, _offsets(lengths), tuple(doc_ids), codes)

    @classmethod
    def from_table(
        cls, table: np.ndarray, codes: np.ndarray, lengths: np.ndarray, doc_ids: Sequence[str]
    ) -> "EmbeddingStore":
        """A store in which embedding ``i`` is ``table[codes[i]]`` and
        document ``doc_ids[i]`` owns the next ``lengths[i]`` embeddings.

        The embeddings are the table's rows by construction, so none is
        compared with another. The codes must be integers that lie in
        ``[0, len(table))`` and use every row, the table must be finite, and
        there may be at most 2**32 embeddings. The store keeps a copy of the
        table.
        """
        table = np.array(table, dtype=np.float32, order="C")
        if table.ndim != 2 or table.shape[1] == 0:
            raise InvalidInputError("store table must be a (n, dim) array")
        table.flags.writeable = False
        codes = _check_codes(codes, None, len(table), "the rows of the table", len(table))
        return cls._over(table, codes, _offsets(lengths), doc_ids)

    @classmethod
    def from_blocks(cls, blocks: Sequence[tuple[str, np.ndarray]]) -> "EmbeddingStore":
        """A store of ``(doc_id, (length, dim) matrix)`` blocks in the given order."""
        if not blocks:
            raise InvalidInputError("cannot build a store from no documents")
        dims = {matrix.shape[1] for _, matrix in blocks}
        if len(dims) != 1:
            raise InvalidInputError(f"mixed embedding dimensions: {sorted(dims)}")
        return cls.from_lengths(
            np.concatenate([matrix for _, matrix in blocks], axis=0),
            [matrix.shape[0] for _, matrix in blocks],
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
    ascending id order; vectors are resolved through the store, so the lists
    are a disjoint cover of it.

    ``list_rows[c]`` names the rows of ``store.table`` that hold those
    embeddings, one for one, ``store.codes[lists[c]]``: bit for bit the
    embeddings' rows.
    """

    store: EmbeddingStore
    centroids: Centroids
    lists: tuple[np.ndarray, ...]
    list_rows: tuple[np.ndarray, ...] = field(init=False, repr=False)

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
        # one gather over the joined lists, cut into read-only views
        rows = self.store.codes[joined]
        rows.flags.writeable = False
        ends = np.cumsum([len(ids) for ids in lists]).tolist()
        list_rows = tuple(rows[end - len(ids) : end] for ids, end in zip(lists, ends))
        object.__setattr__(self, "list_rows", list_rows)

    @property
    def n_list(self) -> int:
        return self.centroids.n_list

    @property
    def dim(self) -> int:
        return self.store.dim


def default_n_list(num_embeddings: int) -> int:
    return max(1, int(math.isqrt(num_embeddings)))


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix.astype(np.float64), axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return (matrix / norms).astype(np.float32)


def _kmeans_pp_init(sample: np.ndarray, n_list: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding with squared chord distance 2 - 2*sim on unit vectors."""
    n = sample.shape[0]
    chosen = [int(rng.integers(n))]
    best_sim = sample @ sample[chosen[0]]
    while len(chosen) < n_list:
        weights = np.maximum(2.0 - 2.0 * best_sim.astype(np.float64), 0.0)
        weights[chosen] = 0.0
        total = weights.sum()
        if total <= 0.0:
            # All remaining points coincide with a centroid; take the lowest
            # index not yet chosen.
            taken = np.zeros(n, dtype=bool)
            taken[chosen] = True
            pick = int(np.flatnonzero(~taken)[0])
        else:
            cutpoints = np.cumsum(weights / total)
            pick = int(np.searchsorted(cutpoints, rng.random(), side="right"))
            pick = min(pick, n - 1)
        chosen.append(pick)
        best_sim = np.maximum(best_sim, sample @ sample[pick])
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
    sample_size = min(total, math.ceil(sample_fraction * total))
    if n_list > sample_size:
        raise InvalidConfigError(
            f"n_list {n_list} exceeds the sample size {sample_size}"
        )
    rng = np.random.default_rng(seed & _SEED_MASK)
    picked = np.sort(rng.choice(total, size=sample_size, replace=False))
    sample = _normalize_rows(store.rows(picked))

    centroids = _kmeans_pp_init(sample, n_list, rng)
    dim = sample.shape[1]
    sample64 = sample.astype(np.float64).ravel()
    history: list[float] = []
    for _ in range(iterations):
        previous = centroids.copy()
        sims = sample @ centroids.T
        assign = np.argmax(sims, axis=1)  # first maximum = lowest centroid index
        assigned_sim = sims[np.arange(sample_size), assign].astype(np.float64)
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


def build_ivf(store: EmbeddingStore, centroids: Centroids) -> IvfIndex:
    """Assign every stored embedding to its argmax-dot-product centroid.

    Ties go to the lowest centroid index. Full-precision vectors stay
    available through the store; the coarse assignment only routes probes.
    """
    if centroids.dim != store.dim:
        raise InvalidInputError(
            f"dimension mismatch: store {store.dim}, centroids {centroids.dim}"
        )
    assign = np.empty(store.num_embeddings, dtype=np.int64)
    for start in range(0, store.num_embeddings, _ASSIGN_CHUNK):
        block = store.rows(slice(start, start + _ASSIGN_CHUNK))
        assign[start : start + block.shape[0]] = np.argmax(block @ centroids.vectors.T, axis=1)
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


def _parse_doc_table(
    table: bytes, num_docs: int, num_embeddings: int
) -> tuple[tuple[str, ...], np.ndarray, int]:
    """Parse the first ``num_docs`` entries of a document table.

    Returns the doc ids, the ``(start, length)`` rows as int64 and the
    table's size in bytes. One loop walks the name lengths, noting where
    each entry starts; numpy then gathers the names, each followed by a
    ``\n``, into one buffer that decodes in one call, and the start and
    length fields into one structured array.
    """
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
    if at > len(table):
        raise CorruptIndexError("truncated index file: document table")

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
    if len(doc_ids) != num_docs or text.split() != doc_ids:
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
    beyond = np.flatnonzero(fields["start"] >= num_embeddings)
    if beyond.size:
        i = int(beyond[0])
        raise CorruptIndexError(
            f"document table: entry {i} starts at embedding {int(fields['start'][i])}, "
            f"past the {num_embeddings} the header declares"
        )
    offsets = np.stack([fields["start"], fields["length"]], axis=1).astype(np.int64)
    return tuple(doc_ids), offsets, at


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
    return np.frombuffer(data, dtype="<u4", offset=head)


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
    read in one call and parsed in bulk. Doc ids must decode as UTF-8 and,
    as :func:`mve.engine.build_engine` requires, be non-empty and free of
    whitespace, so that a run file can carry them. The inverted lists are
    then read in batches of ``_LOAD_CHECK_BATCH`` rows into one reused
    buffer (see :func:`_read_lists`), and each batch's ids are range-checked
    before use. Without ``codes_path`` each batch is scattered into one block
    of every embedding, which becomes the store's table, with codes
    ``0 ... n-1``.

    With ``codes_path`` the store takes the codes that file holds (see
    :func:`save_codes`), read and checked once before the lists, and keeps
    only one row per code, never the ``(num_embeddings, dim)`` block: the
    first embedding of a code read becomes its row, and every embedding, in
    every list, is compared bit for bit with its code's row where it lies in
    the buffer. The store then takes those codes and that table as they are.

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
        if dim == 0 or n_list == 0 or num_docs == 0:
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
        doc_ids, offsets, table_size = _parse_doc_table(
            _read_exact(handle, file_size - table_at - rest, "document table"),
            num_docs,
            num_embeddings,
        )
        handle.seek(table_at + table_size)

        centroid_bytes = _read_exact(handle, n_list * dim * 4, "centroid block")
        centroid_vectors = np.frombuffer(centroid_bytes, dtype="<f4").reshape(n_list, dim).copy()

        if codes_path is None:
            vectors = np.empty((num_embeddings, dim), dtype=np.float32)

            def place(ids: np.ndarray, rows: np.ndarray) -> None:
                vectors[ids] = rows

        else:
            codes = _check_codes(
                _read_codes(codes_path, num_embeddings),
                num_embeddings,
                num_embeddings,
                "the number of embeddings",
            )
            # zeros, not empty: a code that no list holds leaves its row
            # finite, and the lists then fail as a cover of the store
            table = np.zeros((int(codes.max()) + 1, dim), dtype=np.float32)
            filled = np.zeros(len(table), dtype=bool)

            def place(ids: np.ndarray, rows: np.ndarray) -> None:
                _fill_code_rows(table, filled, codes[ids], ids, rows)

        lists = _read_lists(handle, n_list, num_embeddings, dim, place)
        if handle.read(1):
            raise CorruptIndexError("trailing data after the final inverted list")

    if codes_path is None:
        store = EmbeddingStore(vectors, offsets, doc_ids)
    else:
        # the codes were checked as they were read and the table was built
        # from them, so the store takes both as they are
        table.flags.writeable = False
        store = EmbeddingStore._over(table, codes, offsets, doc_ids)
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


def write_embeddings_dump(docs: Sequence[tuple[str, np.ndarray]], path: str | Path) -> None:
    """Write per-document embedding matrices in the ingestion format."""
    if not docs:
        raise InvalidInputError("refusing to write an empty embeddings dump")
    dim = int(np.asarray(docs[0][1]).shape[1])
    with open(path, "wb") as out:
        out.write(DUMP_MAGIC)
        out.write(_DUMP_HEADER.pack(FORMAT_VERSION, dim, len(docs)))
        for doc_id, matrix in docs:
            arr = np.ascontiguousarray(matrix, dtype="<f4")
            if arr.ndim != 2 or arr.shape[1] != dim:
                raise InvalidInputError(f"dump doc {doc_id!r}: expected shape (n, {dim})")
            name = doc_id.encode("utf-8")
            out.write(_U32.pack(len(name)))
            out.write(name)
            out.write(_U32.pack(arr.shape[0]))
            out.write(arr.tobytes())


def read_embeddings_dump(path: str | Path) -> list[tuple[str, np.ndarray]]:
    """Read an external embeddings dump.

    Dumps are user input, so failures raise :class:`InvalidInputError`
    (unlike our own index files, which raise :class:`CorruptIndexError`).
    Doc ids must be non-empty and free of whitespace.
    """

    def need(handle: BinaryIO, count: int, section: str) -> bytes:
        data = handle.read(count)
        if len(data) != count:
            raise InvalidInputError(f"truncated embeddings dump: {section}")
        return data

    docs: list[tuple[str, np.ndarray]] = []
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != DUMP_MAGIC:
            raise InvalidInputError(f"bad dump magic {magic!r}, expected {DUMP_MAGIC!r}")
        version, dim, num_docs = _DUMP_HEADER.unpack(need(handle, _DUMP_HEADER.size, "header"))
        if version != FORMAT_VERSION:
            raise InvalidInputError(f"unsupported dump version {version}")
        if dim == 0 or num_docs == 0:
            raise InvalidInputError("dump header declares no content")
        for i in range(num_docs):
            (name_len,) = _U32.unpack(need(handle, 4, f"doc {i} name"))
            try:
                doc_id = need(handle, name_len, f"doc {i} name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InvalidInputError(f"dump doc {i}: undecodable name") from exc
            if not is_single_field(doc_id):
                raise InvalidInputError(
                    f"dump doc {i}: doc id {doc_id!r} is empty or contains whitespace"
                )
            (count,) = _U32.unpack(need(handle, 4, f"doc {doc_id!r} count"))
            if count == 0:
                raise InvalidInputError(f"dump doc {doc_id!r} has no embeddings")
            raw = need(handle, count * dim * 4, f"doc {doc_id!r} embeddings")
            matrix = np.frombuffer(raw, dtype="<f4").reshape(count, dim).copy()
            if not np.isfinite(matrix).all():
                raise InvalidInputError(f"dump doc {doc_id!r}: non-finite embedding values")
            docs.append((doc_id, matrix))
        if handle.read(1):
            raise InvalidInputError("trailing data after the final dump document")
    return docs
