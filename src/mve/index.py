"""Document-embedding store, spherical k-means training, inverted-file
construction, and binary persistence.

The inverted file is coarse-only: every stored embedding sits, at full
precision, in the list of its nearest centroid by dot product. Probing a
subset of lists makes first-stage search approximate; probing all lists makes
it exact, which the tests rely on.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Sequence

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
# the first stage packs an embedding id into 32 bits
_MAX_EMBEDDINGS = 2**32


def _code_rows(vectors: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check a store's ``codes`` against its ``vectors``; return the codes as
    a read-only intp array and the row of each code."""
    codes = np.asarray(codes)
    if codes.shape != (len(vectors),) or codes.dtype.kind not in "iu":
        raise InvalidInputError("store codes must be one integer per embedding")
    if codes.size and not (0 <= codes.min() and codes.max() < len(vectors)):
        raise InvalidInputError(
            f"store codes must lie in [0, {len(vectors)}), the number of embeddings"
        )
    codes = codes.astype(np.intp)
    codes.flags.writeable = False
    unused = np.flatnonzero(np.bincount(codes) == 0)
    if unused.size:
        raise InvalidInputError(f"store code {int(unused[0])} has no embedding")
    picked = np.empty(int(codes.max()) + 1, dtype=np.intp)
    picked[codes] = np.arange(len(codes))  # any embedding of each code; all are compared next
    distinct = vectors[picked]
    # bits, not values: -0.0 == 0.0, and NaN equals nothing
    bits, distinct_bits = vectors.view(np.uint32), distinct.view(np.uint32)
    for start in range(0, len(codes), _CODE_CHECK_CHUNK):
        block = codes[start : start + _CODE_CHECK_CHUNK]
        same = np.take(distinct_bits, block, axis=0) == bits[start : start + len(block)]
        if not same.all():
            i = start + int(np.argmin(same.all(axis=1)))
            raise InvalidInputError(
                f"embedding {i} differs from another embedding of its code {int(codes[i])}"
            )
    distinct.flags.writeable = False
    return codes, distinct


@dataclass(frozen=True)
class EmbeddingStore:
    """All document embeddings concatenated in corpus order.

    ``doc_offsets[i] == (start, length)`` locates document ``i`` inside
    ``vectors``; the global row number of an embedding is its embedding id.
    A store holds at most 2**32 embeddings, so every id fits in 32 bits.
    ``doc_id_array`` holds the doc ids as a read-only object array, indexed
    by doc number.

    ``codes``, when given, names each embedding's row of ``distinct``: every
    embedding is bit for bit ``distinct[codes[i]]``, so a product with the
    store's rows can be taken once per distinct row. The codes must use
    every value from 0 to their maximum, which must lie below the number of
    embeddings; ``distinct`` is built from the embeddings themselves, and a
    code whose embeddings differ in any bit (-0.0 is not 0.0) is rejected.
    Without codes ``distinct`` is None.
    """

    vectors: np.ndarray  # (num_embeddings, dim) float32
    doc_offsets: np.ndarray  # (num_docs, 2) int64 rows of (start, length)
    doc_ids: tuple[str, ...]
    codes: np.ndarray | None = None  # embedding id -> row of ``distinct``
    distinct: np.ndarray | None = field(init=False, repr=False)  # (num_codes, dim) float32
    doc_of: np.ndarray = field(init=False, repr=False)  # embedding id -> doc number
    id_rank: np.ndarray = field(init=False, repr=False)  # doc number -> rank of its id
    id_order: np.ndarray = field(init=False, repr=False)  # ascending doc id -> doc number
    doc_id_array: np.ndarray = field(init=False, repr=False)  # doc number -> doc id

    def __post_init__(self) -> None:
        if np.ndim(self.vectors) and len(self.vectors) > _MAX_EMBEDDINGS:
            raise InvalidInputError(
                f"store holds {len(self.vectors)} embeddings, more than {_MAX_EMBEDDINGS}"
            )
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        offsets = np.ascontiguousarray(self.doc_offsets, dtype=np.int64)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "doc_offsets", offsets)
        if vectors.ndim != 2 or vectors.shape[1] == 0:
            raise InvalidInputError("store vectors must be a (n, dim) array")
        distinct = None
        if self.codes is not None:
            codes, distinct = _code_rows(vectors, self.codes)
            object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "distinct", distinct)
        # with codes every embedding is a row of ``distinct``
        if not np.isfinite(vectors if distinct is None else distinct).all():
            raise InvalidInputError("store vectors contain NaN or Inf")
        if offsets.ndim != 2 or offsets.shape[1] != 2 or offsets.shape[0] == 0:
            raise InvalidInputError("doc_offsets must be a non-empty (n, 2) array")
        if len(self.doc_ids) != offsets.shape[0]:
            raise InvalidInputError("doc_ids and doc_offsets differ in length")
        index_of = dict(zip(self.doc_ids, range(len(self.doc_ids))))
        if len(index_of) != len(self.doc_ids):
            raise InvalidInputError("duplicate doc ids in store")
        starts, lengths = offsets[:, 0], offsets[:, 1]
        if (lengths < 1).any():
            raise InvalidInputError("every document must own at least one embedding")
        expected = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        if (starts != expected).any() or int(lengths.sum()) != vectors.shape[0]:
            raise InvalidInputError("doc offsets do not partition the vector block")
        object.__setattr__(self, "doc_of", np.repeat(np.arange(len(self.doc_ids)), lengths))
        object.__setattr__(self, "_index_of", index_of)
        order = np.array(sorted(range(len(self.doc_ids)), key=self.doc_ids.__getitem__))
        object.__setattr__(self, "id_order", order)
        object.__setattr__(self, "id_rank", np.argsort(order))
        doc_id_array = np.array(self.doc_ids, dtype=object)
        doc_id_array.flags.writeable = False
        object.__setattr__(self, "doc_id_array", doc_id_array)

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
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        return cls(vectors, np.stack([starts, lengths], axis=1), tuple(doc_ids), codes)

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
    def num_embeddings(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def index_of(self, doc_id: str) -> int | None:
        return self._index_of.get(doc_id)  # type: ignore[attr-defined]

    def doc_vectors(self, doc_number: int) -> np.ndarray:
        start, length = self.doc_offsets[doc_number]
        return self.vectors[start : start + length]


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
    sample = _normalize_rows(store.vectors[picked])

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
        block = store.vectors[start : start + _ASSIGN_CHUNK]
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
            block["vec"] = store.vectors[ids]
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
    table's size in bytes. One loop walks the name lengths; the names are
    decoded in one call over their ``\n``-joined bytes, and the start and
    length fields are read through one structured view of their gathered
    bytes.
    """
    unpack_len = _U32.unpack_from
    name_starts: list[int] = []
    name_stops: list[int] = []
    at = 0
    try:
        for _ in range(num_docs):
            (name_len,) = unpack_len(table, at)
            at += _U32.size
            name_starts.append(at)
            at += name_len
            name_stops.append(at)
            at += _DOC_TAIL.size
    except struct.error:  # a length field runs past the end
        at = len(table) + 1
    if at > len(table):
        raise CorruptIndexError("truncated index file: document table")

    names = [table[a:b] for a, b in zip(name_starts, name_stops)]
    try:
        text = b"\n".join(names).decode("utf-8")
    except UnicodeDecodeError:
        text = ""
    doc_ids = text.split("\n")
    # str.split() drops empty names and splits at whitespace, so it equals
    # the split at the separators only if every name is a single field
    if len(doc_ids) != num_docs or text.split() != doc_ids:
        for i, raw in enumerate(names):
            try:
                doc_id = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptIndexError(f"document table: undecodable name at entry {i}") from exc
            if not is_single_field(doc_id):
                raise CorruptIndexError(
                    f"document table: doc id {doc_id!r} at entry {i} is empty or "
                    "contains whitespace"
                )

    fields = np.frombuffer(
        b"".join([table[a : a + _DOC_TAIL.size] for a in name_stops]), dtype=_DOC_FIELDS
    )
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
    """Write the codes of a store that has them; :func:`load_index` reads
    them back beside the index file."""
    if store.codes is None:
        raise InvalidInputError("store has no codes to save")
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


def load_index(path: str | Path, codes_path: str | Path | None = None) -> IvfIndex:
    """Read an index file, validating every section before constructing.

    The sizes the header fixes (at least 16 bytes per document, the centroid
    block and a count per list, and one record per embedding) are checked
    against the file's size before anything is allocated, so a damaged
    count fails as corruption instead of as a huge allocation. Every section
    after the document table has a size the header fixes, so the table is
    read in one call and parsed in bulk. Doc ids must decode as UTF-8 and,
    as :func:`mve.engine.build_engine` requires, be non-empty and free of
    whitespace, so that a run file can carry them. Each inverted list is
    then read as one block, and its ids are range-checked before use.

    With ``codes_path`` the store also takes the codes that file holds (see
    :func:`save_codes`), and each embedding is checked bit for bit against
    the other embeddings of its code.

    Raises:
        CorruptIndexError: On a bad magic, unsupported version, truncation,
            or internally inconsistent content, in either file. Nothing
            partial is returned.
    """
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

        entry_dtype = _entry_dtype(dim)
        vectors = np.empty((num_embeddings, dim), dtype=np.float32)
        lists: list[np.ndarray] = []
        seen = 0
        for c in range(n_list):
            (count,) = _U64.unpack(_read_exact(handle, 8, f"inverted list {c}"))
            seen += count
            if seen > num_embeddings:
                raise CorruptIndexError(
                    f"inverted list {c}: lists hold more embeddings than the header declares"
                )
            block = np.frombuffer(
                _read_exact(handle, count * entry_dtype.itemsize, f"inverted list {c}"),
                dtype=entry_dtype,
            )
            # range-checked as u64: a cast first would wrap ids of 2**63 or more negative
            if count and (block["id"] >= num_embeddings).any():
                raise CorruptIndexError(f"inverted list {c}: embedding id out of range")
            ids = block["id"].astype(np.int64)
            vectors[ids] = block["vec"]
            lists.append(ids)
        if seen != num_embeddings:
            raise CorruptIndexError(
                f"header declares {num_embeddings} embeddings but lists hold {seen}"
            )
        if handle.read(1):
            raise CorruptIndexError("trailing data after the final inverted list")

    codes = None if codes_path is None else _read_codes(Path(codes_path), num_embeddings)
    try:
        store = EmbeddingStore(vectors, offsets, doc_ids, codes)
        return IvfIndex(store=store, centroids=Centroids(centroid_vectors), lists=tuple(lists))
    except InvalidInputError as exc:
        named = "" if codes_path is None else f" with {codes_path}"
        raise CorruptIndexError(f"inconsistent index content{named}: {exc}") from exc


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
