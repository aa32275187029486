import os
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

from conftest import build_sample_index, coded_store, random_store
from synthdata import planted_fixture


def unit(vector):
    arr = np.asarray(vector, dtype=np.float64)
    return (arr / np.linalg.norm(arr)).astype(np.float32)


# ---------------------------------------------------------------------------
# EmbeddingStore
# ---------------------------------------------------------------------------


def test_store_offsets_must_partition():
    vectors, codes = np.ones((4, 2), dtype=np.float32), np.arange(4)
    with pytest.raises(InvalidInputError, match="do not sum to the store's 4 embeddings"):
        EmbeddingStore(vectors, codes, [2, 1], ("a", "b"))  # short
    with pytest.raises(InvalidInputError, match="do not sum to the store's 4 embeddings"):
        EmbeddingStore(vectors, codes, [2, 3], ("a", "b"))  # long
    with pytest.raises(InvalidInputError, match="at least one embedding"):
        EmbeddingStore(vectors, codes, [4, 0], ("a", "b"))  # empty doc
    with pytest.raises(InvalidInputError, match="at least one embedding"):
        EmbeddingStore(vectors, codes, np.array([2**64 - 1, 5], dtype=np.uint64), ("a", "b"))
    with pytest.raises(InvalidInputError, match="do not sum"):
        EmbeddingStore(vectors, codes, [2**62, 2**62, 2**62, 2**62 + 4], "abcd")  # wraps to 4
    with pytest.raises(InvalidInputError, match="duplicate doc ids"):
        EmbeddingStore(vectors, codes, [3, 1], ("a", "a"))
    store = EmbeddingStore(vectors, codes, [3, 1], ("a", "b"))
    assert store.doc_offsets.tolist() == [[0, 3], [3, 1]] and store.doc_offsets.dtype == np.int64
    assert list(store.doc_of) == [0, 0, 0, 1]
    assert store.index_of("b") == 1 and store.index_of("zz") is None


@pytest.mark.parametrize(
    "lengths",
    [
        [2.9, 4.9],  # truncated to (2, 4), they would sum to the 6 embeddings
        [2.0, 4.0],
        np.array([True, True]),
        [[2, 4]],
        [6],
        [],
    ],
    ids=["fractional", "float", "bool", "2-d", "one for two doc ids", "none"],
)
def test_store_lengths_must_be_one_integer_per_doc_id(lengths):
    table = np.eye(2, dtype=np.float32)
    codes = [0, 1] * (1 if np.asarray(lengths).dtype == bool else 3)
    with pytest.raises(InvalidInputError, match="document lengths|differ in length"):
        EmbeddingStore(table, codes, lengths, ["a", "b"])


def coded_vectors(codes, dim=4, seed=0):
    """Rows of a random table picked by ``codes``, and the table."""
    table = np.random.default_rng(seed).standard_normal((max(codes) + 1, dim)).astype(np.float32)
    return table[np.asarray(codes)], table


def test_store_codes_name_each_embedding_row_of_the_distinct_table():
    codes = [2, 0, 1, 2, 2, 0]
    vectors, table = coded_vectors(codes)
    store = EmbeddingStore(table, codes, [2, 3, 1], ["a", "b", "c"])
    assert store.table.tobytes() == table.tobytes()
    assert store.codes.tolist() == codes
    assert store.vectors.tobytes() == vectors.tobytes()
    assert not store.codes.flags.writeable and not store.table.flags.writeable
    # with codes 0 ... n-1 each embedding is its own row of the table
    plain = EmbeddingStore(vectors, np.arange(6), [2, 3, 1], ["a", "b", "c"])
    assert plain.codes.tolist() == list(range(6)) and not plain.codes.flags.writeable
    assert plain.table.tobytes() == vectors.tobytes()


def test_store_from_table_equals_the_store_built_from_its_rows():
    codes = np.array([2, 0, 1, 2, 2, 0], dtype=np.uint32)
    vectors, table = coded_vectors(codes)
    built = EmbeddingStore(vectors, np.arange(6), [2, 3, 1], ["a", "b", "c"])
    store = EmbeddingStore(table, codes, np.array([2, 3, 1], dtype=np.uint32), ["a", "b", "c"])
    for name in ("vectors", "doc_offsets", "doc_of", "id_order", "id_rank"):
        assert getattr(store, name).tobytes() == getattr(built, name).tobytes(), name
    ids = np.array([5, 0, 3, 3])
    assert store.rows(ids).tobytes() == built.rows(ids).tobytes()
    assert store.doc_ids == built.doc_ids and store.num_embeddings == 6 and store.dim == 4
    # a C-ordered float32 table is kept as a read-only view, not a copy, and
    # the caller's array stays writeable; the codes are the store's own intp copy
    assert np.shares_memory(store.table, table) and not store.table.flags.writeable
    assert table.flags.writeable
    assert store.codes.dtype == np.intp and not np.shares_memory(store.codes, codes)
    # any other table is converted to one
    wide = EmbeddingStore(table.astype(np.float64), codes, [6], ["a"])
    assert wide.table.dtype == np.float32 and wide.table.tobytes() == table.tobytes()


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
        EmbeddingStore(table, codes, [len(np.ravel(codes))], ["a"])


def test_store_from_table_checks_the_table_and_the_embedding_limit(monkeypatch):
    _, table = coded_vectors([0, 1, 2])
    infinite = table.copy()
    infinite[1, 0] = np.nan
    with pytest.raises(InvalidInputError, match="NaN or Inf"):
        EmbeddingStore(infinite, [0, 1, 2], [3], ["a"])
    with pytest.raises(InvalidInputError, match=r"\(n, dim\) array"):
        EmbeddingStore(table[:, :0], [0, 1, 2], [3], ["a"])
    with pytest.raises(InvalidInputError, match=r"\(n, dim\) array"):
        EmbeddingStore(table[0], [0, 1, 2], [3], ["a"])
    with pytest.raises(InvalidInputError, match="do not sum"):
        EmbeddingStore(table, [0, 1, 2], [2], ["a"])
    monkeypatch.setattr(mve.index, "_MAX_EMBEDDINGS", 5)
    EmbeddingStore(table, [0, 1, 2, 0, 1], [5], ["a"])
    with pytest.raises(InvalidInputError, match="store holds 6 embeddings, more than 5"):
        EmbeddingStore(table, [0, 1, 2, 0, 1, 2], [6], ["a"])


def test_coded_store_vectors_are_a_new_read_only_gather_on_each_read():
    codes = [2, 0, 1, 2, 2, 0]
    vectors, table = coded_vectors(codes)
    for store in (
        EmbeddingStore(table, codes, [2, 4], ["a", "b"]),
        EmbeddingStore(vectors, np.arange(6), [2, 4], ("a", "b")),
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


@pytest.mark.parametrize(
    "block", [np.ones(4, dtype=np.float32), "abcd", np.ones((1, 2, 4), dtype=np.float32)],
    ids=["1-d", "string", "3-d"],
)
def test_store_from_blocks_rejects_a_block_that_is_not_a_matrix(block):
    good = np.ones((2, 4), dtype=np.float32)
    with pytest.raises(InvalidInputError, match="embeddings of doc 'b' must be a"):
        EmbeddingStore.from_blocks([("a", good), ("b", block)])
    corpus = [("a", "alpha beta"), ("b", "gamma")]
    config = EngineConfig(dim=4, q_len=2, n_list=1, sample_fraction=1.0)
    with pytest.raises(InvalidInputError, match="embeddings of doc 'b' must be a"):
        build_engine(corpus, config, dump_docs=[("a", good), ("b", block)])


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
    store = EmbeddingStore(vectors, np.arange(120), [1] * 120, [f"d{i}" for i in range(120)])
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
    store = EmbeddingStore(
        base.astype(np.float32), np.arange(12), [1] * 12, [f"d{i}" for i in range(12)]
    )
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
    store = EmbeddingStore(eye.copy(), np.arange(4), [1] * 4, ("a", "b", "c", "d"))
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


def reference_build_ivf_lists(store, centroids):
    """The lists of every embedding assigned chunk by chunk of the store's
    embeddings, as build_ivf did before it assigned table rows."""
    vectors = store.vectors
    assign = np.empty(len(vectors), dtype=np.int64)
    for start in range(0, len(vectors), 8192):
        block = vectors[start : start + 8192]
        assign[start : start + len(block)] = np.argmax(block @ centroids.vectors.T, axis=1)
    return [np.flatnonzero(assign == c) for c in range(centroids.n_list)]


def random_centroids(n_list, dim, seed):
    rng = np.random.default_rng(seed)
    return Centroids(unit(rng.standard_normal((n_list, dim))).reshape(n_list, dim))


def spy_assignment_rows(monkeypatch):
    """The row count of each chunked assignment build_ivf runs."""
    counts = []
    real = mve.index._argmax_chunks

    def spy(count, rows, centroids):
        counts.append(count)
        return real(count, rows, centroids)

    monkeypatch.setattr(mve.index, "_argmax_chunks", spy)
    return counts


@pytest.mark.parametrize(
    "num_docs, dim, num_codes, n_list, table_route",
    [
        # 11,854 embeddings: chunks of 8,192 and 3,662 rows, both over the floor
        (1100, 16, 900, 24, True),
        # 8,412 embeddings: the final chunk's product, 220 x 24, is under the floor
        (790, 16, 900, 24, False),
        # the table's product, 300 x 24, is under the floor
        (1100, 16, 300, 24, False),
        # a table of two chunks, the second's product 808 x 2 under the floor
        (1800, 3, 9000, 2, False),
        # a table of two chunks, 8,192 and 3,808 rows, and 25,347 embeddings
        # whose final chunk holds 771 rows, all over the floor
        (2400, 17, 12000, 24, True),
        # 300 centroids: list ids past 8 bits
        (900, 8, 600, 300, True),
        # codes 0 ... n-1: the embeddings are the table
        (900, 64, None, 244, False),
    ],
)
def test_build_ivf_equals_the_per_embedding_assignment(
    num_docs, dim, num_codes, n_list, table_route, monkeypatch
):
    if num_codes is None:
        store = random_store(num_docs, dim, seed=n_list)
    else:
        store = coded_store(num_docs, dim, num_codes, seed=num_docs + dim)
    centroids = random_centroids(n_list, dim, seed=dim)
    counts = spy_assignment_rows(monkeypatch)
    index = build_ivf(store, centroids)
    assert counts == [len(store.table) if table_route else store.num_embeddings]
    want = reference_build_ivf_lists(store, centroids)
    assert [ids.tolist() for ids in index.lists] == [ids.tolist() for ids in want]


def chunk_products(matrix, centroids):
    """``matrix @ centroids.T`` taken as build_ivf takes it, chunk by chunk."""
    chunk = mve.index._ASSIGN_CHUNK
    return np.concatenate(
        [matrix[start : start + chunk] @ centroids.T for start in range(0, len(matrix), chunk)]
    )


def test_blas_premise_of_the_table_assignment():
    # build_ivf multiplies each table row once and gives every embedding its
    # code's centroid, and train_centroids multiplies a sample's distinct
    # rows only, because a row's entries in a product over the floor have
    # the same bits in any other product over it that holds the row; a BLAS
    # that breaks this would otherwise show up as a pinned list or index
    # mismatch far from its cause
    floor = mve.index._STABLE_PRODUCT_FLOOR
    chunk = mve.index._ASSIGN_CHUNK
    rng = np.random.default_rng(79)
    for dim in (3, 16, 17, 64, 128, 768):
        for n_list in (2, 16, 24, 244):
            centroids = rng.standard_normal((n_list, dim)).astype(np.float32)
            height = -(-floor // n_list)  # the fewest rows of a product over the floor
            # a table just over the floor, the desk table's 1,751 rows, and
            # (at narrow dims, to stay small in memory) one of two chunks
            sizes = [height, height + 13, 1751] + ([chunk + height + 5] if dim <= 64 else [])
            # one chunk of embeddings, and at narrow dims a full chunk and a
            # final one just over the floor
            totals = [chunk + height, chunk + height + 7] if dim <= 64 else [height + 1, height + 7]
            for table_rows in sizes:
                if table_rows * n_list < floor:
                    continue
                table = rng.standard_normal((table_rows, dim)).astype(np.float32)
                by_row = chunk_products(table, centroids)
                for total in totals:
                    codes = rng.integers(0, table_rows, size=total)
                    codes[1::2] = np.arange(total // 2) % table_rows  # rows at odd offsets
                    embeddings = table[codes]
                    whole = embeddings @ centroids.T
                    for products in (chunk_products(embeddings, centroids), whole):
                        assert np.array_equal(
                            products.view(np.uint32), by_row[codes].view(np.uint32)
                        ), (
                            "BLAS premise of the table assignment broken: a row's product "
                            f"differs in another matrix (dim {dim}, {n_list} centroids, "
                            f"table of {table_rows}, {total} rows)"
                        )


def spy_calls(monkeypatch, name, calls):
    """Record each call of ``mve.index.<name>`` in ``calls`` as its name."""
    real = getattr(mve.index, name)

    def spy(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(mve.index, name, spy)


def test_a_coded_load_checks_its_codes_once_before_the_lists(tmp_path, monkeypatch):
    store = coded_store(40, 8, 25, seed=3)
    index = build_ivf(store, random_centroids(3, 8, seed=4))
    path, codes_path = tmp_path / "index.mvix", tmp_path / "codes.bin"
    save_index(index, path)
    save_codes(store, codes_path)
    calls = []
    spy_calls(monkeypatch, "_check_codes", calls)
    spy_calls(monkeypatch, "_read_lists", calls)
    loaded = load_index(path, codes_path)
    assert calls == ["_check_codes", "_read_lists"]
    assert loaded.store.codes.tolist() == store.codes.tolist()
    assert loaded.store.codes.dtype == np.intp and not loaded.store.codes.flags.writeable
    assert_indexes_identical(index, loaded)
    # without the codes file the store's constructor checks codes 0 ... n-1
    calls.clear()
    load_index(path)
    assert calls == ["_read_lists", "_check_codes"]


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
        store=EmbeddingStore(store.rows(slice(0, 5)), codes, store.doc_offsets[:, 1], store.doc_ids),
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


def test_store_rejects_codes_whose_embeddings_differ_in_any_bit(tmp_path):
    # the coded load compares every embedding with its code's row bit for
    # bit: a 0.0 coordinate whose sign flips is -0.0, equal in value only
    _, table = coded_vectors([0, 1, 2])
    table[1, 2] = 0.0
    store = EmbeddingStore(table, [0, 1, 2, 1, 0, 1], [2, 3, 1], ["a", "b", "c"])
    index = build_ivf(store, train_centroids(store, 1.0, 2, 2, seed=0))
    path, codes_path = tmp_path / "index.mvix", tmp_path / "codes.bin"
    save_index(index, path)
    save_codes(store, codes_path)
    data = path.read_bytes()
    assert load_index(path, codes_path).store.table.tobytes() == table.tobytes()
    # the sign bit of embedding 3's 0.0 coordinate, and the last mantissa
    # bit of embedding 4's first coordinate
    for embedding, byte, bit, code in ((3, 2 * 4 + 3, 0x80, 1), (4, 0, 1, 0)):
        record = struct.pack("<Q", embedding) + store.rows([embedding]).tobytes()
        at = data.find(record) + 8
        assert at > 8 and data.find(record, at) == -1
        damaged = bytearray(data)
        damaged[at + byte] ^= bit
        path.write_bytes(bytes(damaged))
        with pytest.raises(
            CorruptIndexError, match=f"differs from another embedding of its code {code}"
        ):
            load_index(path, codes_path)
        # without the codes file the damaged embedding loads as it is
        flipped = load_index(path).store.rows([embedding])
        assert flipped.tobytes() != table[code].tobytes()
        assert np.array_equal(flipped[0], table[code]) == (code == 1)


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


def test_load_rejects_a_header_of_no_embeddings(tmp_path):
    # no document start lies past the 0 embeddings declared, and 0 codes
    # have no largest to size the table by
    path, codes_path = tmp_path / "index.mvix", tmp_path / "codes.bin"
    save_index(build_sample_index(), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 24, 0)
    path.write_bytes(bytes(data))
    codes_path.write_bytes(mve.index.CODES_MAGIC + struct.pack("<IQ", 1, 0))
    for paths in ((path,), (path, codes_path)):
        with pytest.raises(CorruptIndexError, match="header declares an empty index"):
            load_index(*paths)


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

    # the writer refuses NaN, so it goes into the file's last value
    bad.write_bytes(path.read_bytes()[:-4] + struct.pack("<f", np.nan))
    with pytest.raises(InvalidInputError, match="finite"):
        read_embeddings_dump(bad)


def dump_declaring(dim: int, name_len: int, count: int) -> bytes:
    """A one-doc dump whose header declares ``dim``, whose doc declares a
    name of ``name_len`` bytes and ``count`` embeddings, and which holds
    the name ``a`` and one embedding of dim 4."""
    return (
        mve.index.DUMP_MAGIC
        + struct.pack("<IIQ", 1, dim, 1)
        + struct.pack("<I", name_len)
        + b"a"
        + struct.pack("<I", count)
        + np.ones(4, dtype="<f4").tobytes()
    )


DAMAGED_DUMPS = {
    # bytes a read of the declared size would take: 2**66 (OverflowError),
    # 4 GiB and 1 TiB (MemoryError under a few GB of address space)
    "dim and count 2**32 - 1": (dump_declaring(2**32 - 1, 1, 2**32 - 1), "doc 'a' embeddings"),
    "name length 2**32 - 1": (dump_declaring(4, 2**32 - 1, 1), "doc 0 name"),
    "count 2**32 - 1 at dim 64": (dump_declaring(64, 1, 2**32 - 1), "doc 'a' embeddings"),
}


@pytest.mark.parametrize("damaged", DAMAGED_DUMPS)
def test_dump_sizes_are_checked_against_the_file_before_reading(tmp_path, damaged):
    path = tmp_path / "embeddings.mved"
    data, section = DAMAGED_DUMPS[damaged]
    path.write_bytes(data)
    with pytest.raises(InvalidInputError, match=f"^truncated embeddings dump: {section}$"):
        read_embeddings_dump(path)
    path.write_bytes(dump_declaring(4, 1, 1))
    assert read_embeddings_dump(path)[0][0] == "a"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_dump_reads_from_a_pipe(tmp_path):
    path = tmp_path / "embeddings.mved"
    docs = [("a", np.ones((2, 4), dtype=np.float32)), ("b", np.zeros((1, 4), dtype=np.float32))]
    write_embeddings_dump(docs, path)
    read, write = os.pipe()
    try:
        os.write(write, path.read_bytes())  # 100 bytes fit in the pipe's buffer
        os.close(write)
        loaded = read_embeddings_dump(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert [(d, m.tobytes()) for d, m in loaded] == [(d, m.tobytes()) for d, m in docs]


@pytest.mark.parametrize(
    "docs, message",
    [
        ([("a", np.ones((1, 4))), ("b", np.ones((0, 4)))], "dump doc 'b' has no embeddings"),
        (
            [("a", np.ones((1, 4))), ("b", np.full((2, 4), np.nan))],
            "dump doc 'b': non-finite embedding values",
        ),
        ([("a", np.ones((1, 4))), ("b c", np.ones((1, 4)))], "dump doc 1: doc id 'b c' is empty"),
        ([("", np.ones((1, 4)))], "dump doc 0: doc id '' is empty"),
        ([("a", np.ones(4))], r"dump doc 'a': expected shape \(n, 4\), got \(4,\)"),
        ([("a", np.ones((1, 4))), ("b", np.ones((1, 3)))], r"expected shape \(n, 4\)"),
        ([("a", np.ones((1, 0)))], "dim 0"),
    ],
    ids=["no rows", "NaN", "whitespace", "empty id", "1-d first", "other dim", "dim 0"],
)
def test_dump_writer_refuses_what_the_reader_refuses_and_leaves_no_file(
    tmp_path, docs, message
):
    path = tmp_path / "embeddings.mved"
    with pytest.raises(InvalidInputError, match=message):
        write_embeddings_dump(docs, path)
    assert not path.exists()
