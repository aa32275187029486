"""Identity guards for the first-stage probe.

``ann_candidates`` gathers the probed rows with ``np.take``, from the
store's table through its codes, selects
its top k' with one sort of packed (score key, id) uint64 keys, and
``CandidateSet`` drops repeated ranks through one preallocated mask. The
``reference_*`` functions below are verbatim copies of the probe and the
dedup they replaced, which gathered from ``store.vectors``, selected with
``np.lexsort`` and marked repeats with ``np.diff``. Every probe must return
the same hit bytes and the same candidate numbers as the reference, and a
store whose embeddings repeat rows of its table the same hit bytes as its
twin whose table is every embedding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mve.index
from mve.errors import ConsistencyError, CorruptIndexError, InvalidConfigError, InvalidInputError
from mve.index import EmbeddingStore, IvfIndex, build_ivf, load_index, save_index, train_centroids
from mve.retrieval import CandidateSet, _top_ids, ann_candidates

from conftest import build_sample_index

# ---------------------------------------------------------------------------
# Reference copies of the lexsort probe and the np.diff dedup
# ---------------------------------------------------------------------------


def reference_candidate_numbers(store: EmbeddingStore, numbers: np.ndarray) -> np.ndarray:
    numbers = np.asarray(numbers, dtype=np.int64)
    if numbers.size and not (0 <= numbers.min() and numbers.max() < store.num_docs):
        raise InvalidInputError("candidate doc number outside the store")
    ranks = np.sort(store.id_rank[numbers])
    # the sorted ranks without repeats, as np.unique gives them; np.unique
    # took about ten times as long on 1,000 ranks with numpy 2.4
    numbers = store.id_order[ranks[np.diff(ranks, prepend=-1) != 0]]
    numbers.flags.writeable = False
    return numbers


def reference_ann_candidates(
    index: IvfIndex, phi: np.ndarray, k_prime: int, n_probe: int
) -> tuple[np.ndarray, np.ndarray]:
    phi = np.asarray(phi, dtype=np.float32)
    if phi.shape != (index.dim,):
        raise InvalidInputError(f"query embedding has shape {phi.shape}, expected ({index.dim},)")
    if not np.isfinite(phi).all():
        raise InvalidInputError("query embedding contains NaN or Inf")
    if k_prime < 1:
        raise InvalidConfigError(f"k_prime must be >= 1, got {k_prime}")
    if not (1 <= n_probe <= index.n_list):
        raise InvalidConfigError(
            f"n_probe must be between 1 and n_list={index.n_list}, got {n_probe}"
        )
    centroid_sims = index.centroids.vectors @ phi
    probed = np.argsort(-centroid_sims, kind="stable")[:n_probe]
    ids = np.concatenate([index.lists[c] for c in probed])
    scores = index.store.vectors[ids] @ phi
    hits = ids[np.lexsort((ids, -scores))[:k_prime]]
    return hits, reference_candidate_numbers(index.store, index.store.doc_of[hits])


def assert_same_probe(index: IvfIndex, phi: np.ndarray, k_prime: int, n_probe: int) -> None:
    hits, candidates = ann_candidates(index, phi, k_prime, n_probe)
    want_hits, want_numbers = reference_ann_candidates(index, phi, k_prime, n_probe)
    assert hits.dtype == want_hits.dtype and hits.tobytes() == want_hits.tobytes()
    numbers = candidates.numbers
    assert numbers.dtype == want_numbers.dtype and numbers.tobytes() == want_numbers.tobytes()
    assert not numbers.flags.writeable


# ---------------------------------------------------------------------------
# The packed-key top k'
# ---------------------------------------------------------------------------

_QUIET_NAN = 0x00400000  # gemv and the other arithmetic produce quiet NaNs only

SPECIAL_BITS = [
    0x00000000,  # +0.0
    0x80000000,  # -0.0
    0x7F800000,  # +inf
    0xFF800000,  # -inf
    0x7FC00000,  # NaN
    0xFFC00000,  # NaN, sign set
    0x7FC00001,  # NaN with a payload
    0x00000001,  # smallest subnormal
    0x80000001,
    0x007FFFFF,  # largest subnormal
    0x807FFFFF,
    0x00800000,  # smallest normal
    0x80800000,
    0x7F7FFFFF,  # largest finite
    0xFF7FFFFF,
    0x3F800000,  # 1.0
    0xBF800000,  # -1.0
]


def quiet(bits: int) -> int:
    if bits & 0x7F800000 == 0x7F800000 and bits & 0x007FFFFF:
        bits |= _QUIET_NAN
    return bits


@st.composite
def probe_inputs(draw):
    """Scores with ties and every special float32, over ids that come as
    shuffled ascending runs below 2**32, as concatenated lists do."""
    k = draw(st.integers(1, 40))
    n = draw(st.integers(k - 1, 3 * k))
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**32 - 1).map(quiet)),
            min_size=1,
            max_size=8 if draw(st.booleans()) else max(n, 1),  # small pools tie heavily
        )
    )
    bits = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    scores = np.array(bits, dtype=np.uint32).view(np.float32)
    ids = draw(
        st.lists(
            st.one_of(st.integers(0, 3 * n + 2), st.integers(2**32 - 3 * n - 3, 2**32 - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    runs = [sorted(run) for run in np.split(np.array(ids, dtype=np.int64), cuts)]
    order = draw(st.permutations(range(len(runs))))
    ids = np.concatenate([np.empty(0, dtype=np.int64)] + [runs[i] for i in order])
    return ids.astype(np.int64), scores, k


@settings(max_examples=600, deadline=None)
@given(probe_inputs())
def test_packed_top_ids_equal_the_lexsort_cut(inputs):
    ids, scores, k = inputs
    want = ids[np.lexsort((ids, -scores))[:k]]
    got = _top_ids(ids, scores, k)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_packed_top_ids_order_at_the_edges():
    # one id per score, listed from the best score down: the order lexsort
    # gives, with -0.0 tying 0.0 and every NaN last, each tie by id
    bits = [0x7F800000, 0x7F7FFFFF, 0x3F800000, 0x00800000, 0x00000001, 0x80000000,
            0x00000000, 0x80000001, 0x80800000, 0xBF800000, 0xFF7FFFFF, 0xFF800000,
            0xFFC00000, 0x7FC00000]
    scores = np.array(bits, dtype=np.uint32).view(np.float32)
    ids = np.array([3, 2, 1, 0, 4, 6, 5, 13, 12, 11, 10, 9, 7, 8], dtype=np.int64)
    got = _top_ids(ids, scores, len(ids))
    assert got.tolist() == [3, 2, 1, 0, 4, 5, 6, 13, 12, 11, 10, 9, 7, 8]
    assert got.tolist() == ids[np.lexsort((ids, -scores))].tolist()
    assert _top_ids(ids, scores, 3).tolist() == [3, 2, 1]
    assert _top_ids(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32), 5).size == 0


# ---------------------------------------------------------------------------
# Whole probes against the reference
# ---------------------------------------------------------------------------


def distinct_query_vectors(engine, queries) -> list[np.ndarray]:
    vectors: dict[bytes, np.ndarray] = {}
    for _, text in queries:
        for row in engine.encoder.encode(text).embeddings:
            vectors.setdefault(row.tobytes(), row)
    return list(vectors.values())


def identity_twin(index: IvfIndex) -> IvfIndex:
    """The same index over the same rows, with every embedding as its own
    row of the table (codes 0 ... n-1)."""
    store = index.store
    twin = EmbeddingStore(store.vectors, store.doc_offsets, store.doc_ids)
    return IvfIndex(store=twin, centroids=index.centroids, lists=index.lists)


def assert_same_as_identity_twin(
    index: IvfIndex, twin: IvfIndex, phi: np.ndarray, k_prime: int, n_probe: int
) -> None:
    hits, candidates = ann_candidates(index, phi, k_prime, n_probe)
    twin_hits, twin_candidates = ann_candidates(twin, phi, k_prime, n_probe)
    assert hits.dtype == twin_hits.dtype and hits.tobytes() == twin_hits.tobytes()
    assert candidates.numbers.tobytes() == twin_candidates.numbers.tobytes()


@pytest.mark.parametrize(
    "engine_name", ["small_planted_engine", "padded_planted_engine", "wide_planted_engine"]
)
def test_probe_matches_the_reference_on_the_planted_engine(engine_name, request):
    engine = request.getfixturevalue(engine_name)
    fixture = request.getfixturevalue(
        "wide_planted" if engine_name == "wide_planted_engine" else "small_planted"
    )
    index = engine.index
    # a built engine's embeddings repeat rows of its table, so its probes
    # gather from fewer rows than there are embeddings
    store = index.store
    assert len(store.table) < store.num_embeddings
    assert all(
        rows.tobytes() == store.codes[ids].tobytes() and not rows.flags.writeable
        for ids, rows in zip(index.lists, index.list_rows)
    )
    twin = identity_twin(index)
    assert all(np.array_equal(rows, ids) for ids, rows in zip(twin.lists, twin.list_rows))
    vectors = distinct_query_vectors(engine, fixture.queries)
    assert len(vectors) > 20
    beyond = store.num_embeddings + 1  # more than any probe scans
    for phi in vectors:
        for n_probe in (1, 10, index.n_list):
            for k_prime in (1, 7, 1000, beyond):
                assert_same_probe(index, phi, k_prime, n_probe)
            assert_same_as_identity_twin(index, twin, phi, beyond, n_probe)


def store_with_duplicates(dim: int, seed: int, coded: bool = False) -> EmbeddingStore:
    """A store whose 600 rows repeat 40 distinct vectors, so probes tie
    across lists and across the k' cut; ``coded`` gives it the codes of
    those vectors."""
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((40, dim)).astype(np.float32)
    picks = rng.integers(0, len(pool), size=600)
    vectors = pool[picks]
    lengths = np.full(100, 6)
    doc_ids = [f"d{i:03d}" for i in rng.permutation(100)]  # doc-id order differs from doc order
    codes = np.unique(picks, return_inverse=True)[1] if coded else None
    return EmbeddingStore.from_lengths(vectors, lengths, doc_ids, codes)


@pytest.mark.parametrize("dim", [3, 17])
def test_probe_matches_the_reference_on_stores_with_duplicated_rows(dim):
    store = store_with_duplicates(dim, seed=dim)
    index = build_ivf(store, train_centroids(store, 1.0, 8, 10, seed=dim + 1))
    rng = np.random.default_rng(dim + 2)
    queries = list(rng.standard_normal((10, dim)).astype(np.float32)) + [
        store.vectors[i].copy() for i in rng.integers(0, store.num_embeddings, size=10)
    ]
    for phi in queries:
        for n_probe in (1, 3, index.n_list):
            for k_prime in (1, 7, 50, 599, 601):
                assert_same_probe(index, phi, k_prime, n_probe)


@pytest.mark.parametrize("dim", [3, 17, 64])
def test_probe_matches_the_reference_on_coded_stores_with_duplicated_rows(dim):
    store = store_with_duplicates(dim, seed=dim + 30, coded=True)
    assert len(store.table) <= 40
    index = build_ivf(store, train_centroids(store, 1.0, 8, 10, seed=dim + 31))
    twin = identity_twin(index)
    rng = np.random.default_rng(dim + 32)
    queries = list(rng.standard_normal((10, dim)).astype(np.float32)) + [
        store.vectors[i].copy() for i in rng.integers(0, store.num_embeddings, size=10)
    ]
    offsets_seen: set[int] = set()  # offsets mod 4 of rows equal to another row of the block
    tail_seen = cut_in_run_seen = False
    for phi in queries:
        order = np.argsort(-(index.centroids.vectors @ phi), kind="stable")
        for n_probe in (1, 3, index.n_list):
            ids = np.concatenate([index.lists[c] for c in order[:n_probe]])
            codes = store.codes[ids]
            repeated = np.bincount(codes)[codes] > 1
            offsets_seen.update((np.flatnonzero(repeated) % 4).tolist())
            tail = len(ids) - len(ids) % 4
            tail_seen |= bool(repeated[tail:].any())
            # the reference order; a cut between two copies of one vector
            ranked = ids[np.lexsort((ids, -(store.vectors[ids] @ phi)))]
            same = np.flatnonzero(store.codes[ranked[1:]] == store.codes[ranked[:-1]]) + 1
            cuts = [int(same[0]), int(same[len(same) // 2])] if same.size else []
            cut_in_run_seen |= bool(cuts)
            for k_prime in [1, 7, 50, 599, 601, *cuts]:
                assert_same_probe(index, phi, k_prime, n_probe)
                assert_same_as_identity_twin(index, twin, phi, k_prime, n_probe)
    assert offsets_seen == {0, 1, 2, 3} and tail_seen and cut_in_run_seen


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 99), max_size=300))
def test_candidate_numbers_equal_the_diff_dedup(numbers):
    store = store_with_duplicates(3, seed=5)
    got = CandidateSet(store, np.array(numbers, dtype=np.int64)).numbers
    want = reference_candidate_numbers(store, np.array(numbers, dtype=np.int64))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The store limit that the packed keys need, and the doc-id column
# ---------------------------------------------------------------------------


class RowsOnly:
    """Reports a row count; any attempt to read or copy its rows fails."""

    ndim = 2

    def __init__(self, rows: int) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return self.rows

    def __array__(self, *args, **kwargs):
        raise ConsistencyError("the store read the rows")


def test_store_rejects_more_than_two_to_the_32_embeddings_before_copying():
    offsets = np.array([[0, 2**32 + 1]])
    with pytest.raises(InvalidInputError, match="more than 4294967296"):
        EmbeddingStore(RowsOnly(2**32 + 1), offsets, ("d",))  # type: ignore[arg-type]
    # 2**32 rows pass the limit and only then are read
    with pytest.raises(ConsistencyError, match="read the rows"):
        EmbeddingStore(RowsOnly(2**32), offsets, ("d",))  # type: ignore[arg-type]


def test_store_limit_applies_to_built_and_loaded_stores(tmp_path, monkeypatch):
    index = build_sample_index()
    path = tmp_path / "index.mvix"
    save_index(index, path)
    rows = index.store.num_embeddings
    monkeypatch.setattr(mve.index, "_MAX_EMBEDDINGS", rows - 1)
    with pytest.raises(InvalidInputError, match=f"store holds {rows} embeddings"):
        EmbeddingStore(index.store.vectors, index.store.doc_offsets, index.store.doc_ids)
    with pytest.raises(CorruptIndexError, match=f"inconsistent index content: store holds {rows}"):
        load_index(path)
    monkeypatch.setattr(mve.index, "_MAX_EMBEDDINGS", rows)
    assert load_index(path).store.num_embeddings == rows


def test_doc_id_array_is_a_read_only_column_of_the_doc_ids():
    store = store_with_duplicates(3, seed=7)
    column = store.doc_id_array
    assert column.dtype == object and column.tolist() == list(store.doc_ids)
    assert all(a is b for a, b in zip(column, store.doc_ids))
    assert not column.flags.writeable
    with pytest.raises(ValueError):
        column[0] = "x"
