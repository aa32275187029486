import struct
import tracemalloc

import numpy as np
import pytest

import mve.index

from mve.core import FIRST_WORDPIECE_ID, token_table, tokenize_flat
from mve.engine import EngineConfig, build_engine, load_engine, save_engine
from mve.errors import CorruptIndexError, InvalidConfigError, InvalidInputError
from mve.index import (
    Centroids,
    EmbeddingStore,
    IvfIndex,
    build_ivf,
    default_n_list,
    load_index,
    read_embeddings_dump,
    save_codes,
    save_index,
    train_centroids,
    write_embeddings_dump,
)

from conftest import build_sample_index, random_store
from synthdata import planted_fixture


def unit(vector):
    arr = np.asarray(vector, dtype=np.float64)
    return (arr / np.linalg.norm(arr)).astype(np.float32)


# ---------------------------------------------------------------------------
# EmbeddingStore
# ---------------------------------------------------------------------------


def test_store_offsets_must_partition():
    vectors = np.ones((4, 2), dtype=np.float32)
    with pytest.raises(InvalidInputError):
        EmbeddingStore(vectors, np.array([[0, 2], [3, 1]]), ("a", "b"))  # gap
    with pytest.raises(InvalidInputError):
        EmbeddingStore(vectors, np.array([[0, 2], [1, 3]]), ("a", "b"))  # overlap
    with pytest.raises(InvalidInputError):
        EmbeddingStore(vectors, np.array([[0, 4], [4, 0]]), ("a", "b"))  # empty doc
    store = EmbeddingStore(vectors, np.array([[0, 3], [3, 1]]), ("a", "b"))
    assert list(store.doc_of) == [0, 0, 0, 1]
    assert store.index_of("b") == 1 and store.index_of("zz") is None


def coded_vectors(codes, dim=4, seed=0):
    """Rows of a random table picked by ``codes``, and the table."""
    table = np.random.default_rng(seed).standard_normal((max(codes) + 1, dim)).astype(np.float32)
    return table[np.asarray(codes)], table


def test_store_codes_name_each_embedding_row_of_the_distinct_table():
    codes = [2, 0, 1, 2, 2, 0]
    vectors, table = coded_vectors(codes)
    store = EmbeddingStore.from_lengths(vectors, [2, 3, 1], ["a", "b", "c"], codes)
    assert store.table.tobytes() == table.tobytes()
    assert store.codes.tolist() == codes
    assert not store.codes.flags.writeable and not store.table.flags.writeable
    # without codes the vectors are the table, not a copy, and each is its own row
    plain = EmbeddingStore.from_lengths(vectors, [2, 3, 1], ["a", "b", "c"])
    assert plain.codes.tolist() == list(range(6)) and not plain.codes.flags.writeable
    assert np.shares_memory(plain.table, vectors) and not plain.table.flags.writeable
    assert vectors.flags.writeable


@pytest.mark.parametrize(
    "codes, message",
    [
        ([0, 1, 2], "one integer per embedding"),
        ([0.0, 1.0, 2.0, 0.0], "one integer per embedding"),
        ([0, 1, 4, 0], r"lie in \[0, 4\)"),
        ([0, -1, 1, 0], r"lie in \[0, 4\)"),
        ([0, 2, 2, 0], "code 1 has no embedding"),
    ],
)
def test_store_rejects_codes_that_are_not_a_dense_row_per_embedding(codes, message):
    vectors, _ = coded_vectors([0, 1, 2, 0])
    with pytest.raises(InvalidInputError, match=message):
        EmbeddingStore.from_lengths(vectors, [4], ["a"], codes)


def test_store_rejects_codes_whose_embeddings_differ_in_any_bit():
    codes = [0, 1, 0, 1]
    vectors, _ = coded_vectors(codes)
    flipped = vectors.copy()
    flipped.view(np.uint32)[3, 2] ^= 1  # the last mantissa bit of a shared code's row
    with pytest.raises(InvalidInputError, match="differs from another embedding of its code 1"):
        EmbeddingStore.from_lengths(flipped, [4], ["a"], codes)
    signed = np.zeros((2, 3), dtype=np.float32)
    signed[1, 0] = -0.0
    with pytest.raises(InvalidInputError, match="differs from another embedding of its code 0"):
        EmbeddingStore.from_lengths(signed, [2], ["a"], [0, 0])
    # a non-finite value is caught on the distinct rows
    infinite = vectors.copy()
    infinite[[1, 3], 0] = np.inf
    with pytest.raises(InvalidInputError, match="NaN or Inf"):
        EmbeddingStore.from_lengths(infinite, [4], ["a"], codes)


def test_store_from_table_equals_the_store_built_from_its_rows():
    codes = [2, 0, 1, 2, 2, 0]
    vectors, table = coded_vectors(codes)
    built = EmbeddingStore.from_lengths(vectors, [2, 3, 1], ["a", "b", "c"], codes)
    store = EmbeddingStore.from_table(table, codes, [2, 3, 1], ["a", "b", "c"])
    for name in ("table", "codes", "doc_offsets", "doc_of", "id_order"):
        assert getattr(store, name).tobytes() == getattr(built, name).tobytes(), name
    assert not store.table.flags.writeable
    assert store.doc_ids == built.doc_ids and store.num_embeddings == 6 and store.dim == 4
    # the store keeps its own copy of the table
    table[0] = 0.0
    assert store.table.tobytes() == built.table.tobytes()


@pytest.mark.parametrize(
    "codes, message",
    [
        ([[0, 1], [2, 0]], "one integer per embedding"),
        ([0.0, 1.0, 2.0, 0.0], "one integer per embedding"),
        ([0, 1, 3, 0], r"lie in \[0, 3\)"),
        ([0, -1, 1, 0], r"lie in \[0, 3\)"),
        ([0, 1, 1, 0], "code 2 has no embedding"),
    ],
)
def test_store_from_table_rejects_codes_that_do_not_use_each_row(codes, message):
    _, table = coded_vectors([0, 1, 2])
    with pytest.raises(InvalidInputError, match=message):
        EmbeddingStore.from_table(table, codes, [len(np.ravel(codes))], ["a"])


def test_store_from_table_checks_the_table_and_the_embedding_limit(monkeypatch):
    _, table = coded_vectors([0, 1, 2])
    infinite = table.copy()
    infinite[1, 0] = np.nan
    with pytest.raises(InvalidInputError, match="NaN or Inf"):
        EmbeddingStore.from_table(infinite, [0, 1, 2], [3], ["a"])
    with pytest.raises(InvalidInputError, match=r"\(n, dim\) array"):
        EmbeddingStore.from_table(table[:, :0], [0, 1, 2], [3], ["a"])
    with pytest.raises(InvalidInputError, match="do not partition"):
        EmbeddingStore.from_table(table, [0, 1, 2], [2], ["a"])
    monkeypatch.setattr(mve.index, "_MAX_EMBEDDINGS", 5)
    EmbeddingStore.from_table(table, [0, 1, 2, 0, 1], [5], ["a"])
    with pytest.raises(InvalidInputError, match="store holds 6 embeddings, more than 5"):
        EmbeddingStore.from_table(table, [0, 1, 2, 0, 1, 2], [6], ["a"])


def test_coded_store_vectors_are_a_new_read_only_gather_on_each_read():
    codes = [2, 0, 1, 2, 2, 0]
    vectors, table = coded_vectors(codes)
    for store in (
        EmbeddingStore(vectors, [[0, 2], [2, 4]], ("a", "b"), codes),
        EmbeddingStore(
            vectors=vectors, doc_offsets=[[0, 2], [2, 4]], doc_ids=("a", "b"), codes=codes
        ),
        EmbeddingStore.from_table(table, codes, [2, 4], ["a", "b"]),
        EmbeddingStore(vectors, [[0, 2], [2, 4]], ("a", "b")),
    ):
        first, second = store.vectors, store.vectors
        assert first.tobytes() == vectors.tobytes() and first.shape == (6, 4)
        assert first is not second and not first.flags.writeable
        assert store.rows(np.array([3, 1])).tobytes() == vectors[[3, 1]].tobytes()
        assert store.rows(slice(2, 5)).tobytes() == vectors[2:5].tobytes()
        assert store.doc_vectors(1).tobytes() == vectors[2:].tobytes()


@pytest.mark.parametrize("doc_number", [-1, -3, 3, 10**6, 1.0, True, "0"])
def test_doc_vectors_rejects_doc_numbers_outside_the_store(doc_number):
    store = random_store(3, 4, seed=2)
    with pytest.raises(InvalidInputError, match=r"doc number must be an integer in \[0, 3\)"):
        store.doc_vectors(doc_number)
    last = store.vectors[-store.doc_offsets[2, 1] :]
    assert store.doc_vectors(np.int64(2)).tobytes() == last.tobytes()


def array_bytes(*holders) -> tuple[int, int]:
    """The bytes of the distinct arrays the attributes of ``holders`` hold,
    directly or in a tuple, and the element count of the largest."""
    arrays = {}
    for holder in holders:
        for value in vars(holder).values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    arrays[id(item)] = item
    return sum(a.nbytes for a in arrays.values()), max(a.size for a in arrays.values())


@pytest.mark.parametrize("engine_name", ["small_planted_engine", "wide_planted_engine"])
def test_coded_engines_hold_no_block_of_every_embedding(engine_name, request, tmp_path):
    built = request.getfixturevalue(engine_name)
    save_engine(built, tmp_path)
    loaded = load_engine(tmp_path)
    # the bytes the store held when it was built from its embeddings
    token_ids, lengths, vocab = tokenize_flat(
        request.getfixturevalue(engine_name.replace("_engine", "")).corpus
    )
    config = built.config
    vectors = token_table(len(vocab), config.seed, config.dim)[token_ids - FIRST_WORDPIECE_ID]
    for engine in (built, loaded):
        index, store = engine.index, engine.index.store
        assert store.codes is not None and store.num_embeddings == len(vectors)
        full = store.num_embeddings * store.dim
        total, largest = array_bytes(store, index, index.centroids)
        assert largest < full and total < full * 4 / 2, (total, full * 4)
        assert store.vectors.tobytes() == vectors.tobytes()


def test_a_coded_load_never_holds_the_list_section(tmp_path):
    # the list section of the 36,000 embeddings is 9.5 MB and their vectors
    # 9.2 MB; a load reads the section in batches of a few thousand rows
    fixture = planted_fixture(num_docs=3000, num_queries=8)
    config = EngineConfig(dim=64, q_len=fixture.q_len, sample_fraction=0.05, seed=3)
    save_engine(build_engine(fixture.corpus, config), tmp_path)
    tracemalloc.start()
    try:
        index = load_index(tmp_path / "index.mvix", tmp_path / "codes.bin")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    vectors = index.store.num_embeddings * index.store.dim * 4
    assert index.store.num_embeddings == 36_000
    assert peak < vectors / 2, (peak, vectors)


def test_store_from_documents_concatenates_in_corpus_order():
    store = random_store(10, 8, seed=1)
    assert store.num_docs == 10
    assert store.doc_vectors(3).shape[0] == store.doc_offsets[3, 1]
    rebuilt = np.concatenate([store.doc_vectors(i) for i in range(10)])
    assert rebuilt.tobytes() == store.vectors.tobytes()


# ---------------------------------------------------------------------------
# Centroid training
# ---------------------------------------------------------------------------


def test_single_centroid_is_normalized_sample_mean():
    store = random_store(20, 8, seed=2)
    centroids = train_centroids(store, 1.0, n_list=1, iterations=5, seed=3)
    # independent mean of the (already unit-norm) vectors, renormalized
    mean = store.vectors.astype(np.float64).mean(axis=0)
    expected = mean / np.linalg.norm(mean)
    assert np.allclose(centroids.vectors[0], expected, atol=1e-6)


def test_two_separated_clusters_recover_their_means():
    rng = np.random.default_rng(4)
    a = unit([1.0] + [0.0] * 7) + rng.standard_normal((60, 8)) * 0.02
    b = unit([0.0] * 7 + [1.0]) + rng.standard_normal((60, 8)) * 0.02
    vectors = np.concatenate([a, b]).astype(np.float32)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors = (vectors / norms).astype(np.float32)
    offsets = np.stack([np.arange(120), np.ones(120, dtype=np.int64)], axis=1)
    store = EmbeddingStore(vectors, offsets, tuple(f"d{i}" for i in range(120)))
    centroids = train_centroids(store, 1.0, n_list=2, iterations=20, seed=5)

    for group in (vectors[:60], vectors[60:]):
        group_mean = unit(group.astype(np.float64).mean(axis=0))
        cosines = centroids.vectors.astype(np.float64) @ group_mean.astype(np.float64)
        assert cosines.max() > 0.99


def test_training_is_bitwise_deterministic():
    store = random_store(50, 8, seed=6)
    first = train_centroids(store, 0.5, n_list=4, iterations=8, seed=7)
    second = train_centroids(store, 0.5, n_list=4, iterations=8, seed=7)
    assert first.vectors.tobytes() == second.vectors.tobytes()
    assert first.objective_history == second.objective_history


def test_training_objective_is_non_decreasing():
    for seed in range(5):
        store = random_store(80, 8, seed=100 + seed)
        centroids = train_centroids(store, 1.0, n_list=6, iterations=12, seed=seed)
        history = centroids.objective_history
        assert len(history) == 12
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-9


def test_training_repairs_empty_clusters():
    # 10 copies of one point and 2 of another force an empty third cluster
    base = np.concatenate([np.tile(unit([1, 0, 0, 0]), (10, 1)), np.tile(unit([0, 1, 0, 0]), (2, 1))])
    offsets = np.stack([np.arange(12), np.ones(12, dtype=np.int64)], axis=1)
    store = EmbeddingStore(base.astype(np.float32), offsets, tuple(f"d{i}" for i in range(12)))
    centroids = train_centroids(store, 1.0, n_list=3, iterations=4, seed=0)
    assert centroids.vectors.shape == (3, 4)
    assert np.isfinite(centroids.vectors).all()
    # the index over these centroids still partitions the store
    index = build_ivf(store, centroids)
    assert sorted(np.concatenate(index.lists).tolist()) == list(range(12))


def test_training_config_validation():
    store = random_store(10, 4, seed=8)
    with pytest.raises(InvalidConfigError):
        train_centroids(store, 0.0, n_list=1, iterations=1, seed=0)
    with pytest.raises(InvalidConfigError):
        train_centroids(store, 1.5, n_list=1, iterations=1, seed=0)
    with pytest.raises(InvalidConfigError):
        train_centroids(store, 0.1, n_list=50, iterations=1, seed=0)  # n_list > sample


# ---------------------------------------------------------------------------
# IVF construction
# ---------------------------------------------------------------------------


def test_single_list_holds_everything_in_store_order():
    store = random_store(12, 8, seed=9)
    index = build_ivf(store, train_centroids(store, 1.0, 1, 3, seed=10))
    assert len(index.lists) == 1
    assert list(index.lists[0]) == list(range(store.num_embeddings))


def test_assignment_to_matching_orthogonal_centroid():
    eye = np.eye(4, dtype=np.float32)
    offsets = np.stack([np.arange(4), np.ones(4, dtype=np.int64)], axis=1)
    store = EmbeddingStore(eye.copy(), offsets, ("a", "b", "c", "d"))
    index = build_ivf(store, Centroids(eye.copy()))
    # embedding i equals centroid i exactly
    for c in range(4):
        assert list(index.lists[c]) == [c]


def test_assignment_matches_exhaustive_oracle():
    store = random_store(60, 8, seed=11)
    centroids = train_centroids(store, 1.0, 8, 10, seed=12)
    index = build_ivf(store, centroids)

    assigned = {}
    for c, ids in enumerate(index.lists):
        for embedding_id in ids:
            assigned[int(embedding_id)] = c

    cvecs = centroids.vectors
    for embedding_id in range(store.num_embeddings):
        sims = [float(store.vectors[embedding_id] @ cvecs[c]) for c in range(len(cvecs))]
        best = max(range(len(cvecs)), key=lambda c: (sims[c], -c))
        assert assigned[embedding_id] == best
        # assignment optimality with lowest-index tie rule
        winner = assigned[embedding_id]
        assert all(sims[winner] >= sims[c] for c in range(len(cvecs)))


def test_lists_are_a_disjoint_cover():
    store = random_store(40, 8, seed=13)
    index = build_ivf(store, train_centroids(store, 1.0, 5, 5, seed=14))
    joined = np.concatenate(index.lists)
    assert sorted(joined.tolist()) == list(range(store.num_embeddings))
    # and each list holds its embedding ids in strictly ascending order
    assert all((np.diff(ids) > 0).all() for ids in index.lists)


def test_build_ivf_rejects_dim_mismatch():
    store = random_store(10, 8, seed=15)
    with pytest.raises(InvalidInputError):
        build_ivf(store, Centroids(np.eye(4, dtype=np.float32)))


def test_default_n_list():
    assert default_n_list(0) == 1
    assert default_n_list(10000) == 100


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def assert_indexes_identical(a: IvfIndex, b: IvfIndex):
    assert a.store.vectors.tobytes() == b.store.vectors.tobytes()
    assert a.store.doc_offsets.tobytes() == b.store.doc_offsets.tobytes()
    assert a.store.doc_ids == b.store.doc_ids
    assert a.centroids.vectors.tobytes() == b.centroids.vectors.tobytes()
    assert len(a.lists) == len(b.lists)
    for left, right in zip(a.lists, b.lists):
        assert left.tobytes() == right.tobytes()


def test_save_load_round_trip_is_bitwise(tmp_path):
    index = build_sample_index()
    path = tmp_path / "index.mvix"
    save_index(index, path)
    assert_indexes_identical(index, load_index(path))
    # a second save is byte-identical too
    second = tmp_path / "again.mvix"
    save_index(load_index(path), second)
    assert path.read_bytes() == second.read_bytes()


def test_codes_round_trip_beside_the_index(tmp_path):
    index = build_sample_index()
    store = index.store
    # the sample store's first five rows, repeated
    codes = np.arange(store.num_embeddings) % 5
    coded = IvfIndex(
        store=EmbeddingStore(store.vectors[codes], store.doc_offsets, store.doc_ids, codes),
        centroids=index.centroids,
        lists=index.lists,
    )
    path, codes_path = tmp_path / "index.mvix", tmp_path / "codes.bin"
    save_index(coded, path)
    save_codes(coded.store, codes_path)
    loaded = load_index(path, codes_path)
    assert_indexes_identical(coded, loaded)
    assert loaded.store.codes.tolist() == codes.tolist()
    assert loaded.store.table.tobytes() == coded.store.table.tobytes()
    # without the codes file the same index loads with its embeddings as the table
    plain = load_index(path)
    assert_indexes_identical(coded, plain)
    assert plain.store.codes.tolist() == list(range(store.num_embeddings))
    assert plain.store.table.tobytes() == coded.store.vectors.tobytes()
    # a store whose codes are 0 ... n-1 saves them like any other
    save_codes(index.store, codes_path)
    assert load_index(path, codes_path).store.codes.tolist() == list(range(store.num_embeddings))


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "index.mvix"
    save_index(build_sample_index(), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptIndexError, match="magic"):
        load_index(path)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "index.mvix"
    save_index(build_sample_index(), path)
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptIndexError, match="version"):
        load_index(path)


def test_load_rejects_truncated_file(tmp_path):
    path = tmp_path / "index.mvix"
    save_index(build_sample_index(), path)
    data = path.read_bytes()
    for cut in (3, 20, len(data) // 2, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(CorruptIndexError):
            load_index(path)


def test_load_rejects_overdeclared_embeddings(tmp_path):
    # num_embeddings (u64) lives at byte offset 24 = magic + 3 u32 + u64
    path = tmp_path / "index.mvix"
    index = build_sample_index()
    save_index(index, path)
    data = bytearray(path.read_bytes())
    declared = struct.unpack_from("<Q", data, 24)[0]
    struct.pack_into("<Q", data, 24, declared + 5)
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptIndexError, match="declares"):
        load_index(path)


def test_load_rejects_trailing_data(tmp_path):
    path = tmp_path / "index.mvix"
    save_index(build_sample_index(), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CorruptIndexError, match="trailing"):
        load_index(path)


# ---------------------------------------------------------------------------
# External embedding dumps
# ---------------------------------------------------------------------------


def test_dump_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    docs = [(f"doc{i}", rng.standard_normal((1 + i, 6)).astype(np.float32)) for i in range(4)]
    path = tmp_path / "embeddings.mved"
    write_embeddings_dump(docs, path)
    loaded = read_embeddings_dump(path)
    assert [d for d, _ in loaded] == [d for d, _ in docs]
    for (_, original), (_, restored) in zip(docs, loaded):
        assert original.tobytes() == restored.tobytes()


def test_dump_rejects_bad_content(tmp_path):
    path = tmp_path / "embeddings.mved"
    rng = np.random.default_rng(18)
    write_embeddings_dump([("a", rng.standard_normal((2, 4)).astype(np.float32))], path)

    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    bad = tmp_path / "bad.mved"
    bad.write_bytes(bytes(data))
    with pytest.raises(InvalidInputError, match="magic"):
        read_embeddings_dump(bad)

    bad.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(InvalidInputError, match="truncated"):
        read_embeddings_dump(bad)

    nan_doc = np.full((1, 4), np.nan, dtype=np.float32)
    nan_path = tmp_path / "nan.mved"
    write_embeddings_dump([("a", nan_doc)], nan_path)
    with pytest.raises(InvalidInputError, match="finite"):
        read_embeddings_dump(nan_path)
