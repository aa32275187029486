import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mve.retrieval
from mve.core import (
    CLS_ID,
    CLS_SURFACE,
    MASK_ID,
    MASK_SURFACE,
    Lexicon,
    LexiconEntry,
    QueryRepresentation,
    Token,
    TokenKind,
    embed_tokens,
)
from mve.engine import EngineConfig, build_engine
from mve.errors import ConsistencyError, InvalidConfigError, InvalidInputError
from mve.evaluation import Qrels
from mve.index import EmbeddingStore, build_ivf, train_centroids
from mve.retrieval import (
    CandidateSet,
    _best_first,
    PruningConfig,
    Ranking,
    Strategy,
    ann_candidates,
    exact_score,
    order_embeddings,
    pruned_union,
    rerank,
    score_documents,
)

from conftest import candidate_set, count_ann_calls, named_store, random_store, spy_routes


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def make_query(words_with_kind, dim=8, seed=0):
    """Build a QueryRepresentation from (surface, kind, token_id) triples."""
    tokens = tuple(
        Token(token_id, surface, kind, position)
        for position, (surface, kind, token_id) in enumerate(words_with_kind)
    )
    return QueryRepresentation(tokens, embed_tokens(tokens, seed, dim))


def make_lexicon(stats, num_docs=1000):
    entries = {tid: LexiconEntry(cf=cf, df=df) for tid, (cf, df) in stats.items()}
    return Lexicon(entries=entries, num_docs=num_docs, num_tokens=sum(c for c, _ in stats.values()))


def brute_force_hits(store, phi, k_prime, restrict_ids=None):
    """Independent exhaustive scan: top-k' embedding ids by (score desc, id asc)."""
    ids = range(store.num_embeddings) if restrict_ids is None else sorted(restrict_ids)
    scores = {i: float(store.vectors[i] @ np.asarray(phi, dtype=np.float32)) for i in ids}
    ranked = sorted(scores, key=lambda i: (-scores[i], i))
    return ranked[:k_prime]


def maxsim_oracle(query_matrix, doc_matrix):
    """Materialize the full similarity matrix, take row maxima, sum."""
    total = []
    for qrow in np.asarray(query_matrix, dtype=np.float64):
        dots = [
            math.fsum(float(a) * float(b) for a, b in zip(qrow, drow))
            for drow in np.asarray(doc_matrix, dtype=np.float64)
        ]
        total.append(max(dots))
    return math.fsum(total)


# ---------------------------------------------------------------------------
# order_embeddings
# ---------------------------------------------------------------------------

ICF_QUERY = make_query(
    [
        (CLS_SURFACE, TokenKind.CLS, CLS_ID),
        ("the", TokenKind.WORDPIECE, 2),
        ("zebra", TokenKind.WORDPIECE, 3),
        (MASK_SURFACE, TokenKind.MASK, MASK_ID),
        (MASK_SURFACE, TokenKind.MASK, MASK_ID),
    ]
)
ICF_LEXICON = make_lexicon({2: (1000, 900), 3: (3, 2)})


def test_icf_orders_rare_wordpieces_first_then_cls_then_masks():
    assert order_embeddings(ICF_QUERY, ICF_LEXICON, Strategy.ICF) == [2, 1, 0, 3, 4]


def test_idf_agrees_with_icf_when_frequencies_align():
    assert order_embeddings(ICF_QUERY, ICF_LEXICON, Strategy.IDF) == [2, 1, 0, 3, 4]


def test_first_is_identity():
    assert order_embeddings(ICF_QUERY, ICF_LEXICON, Strategy.FIRST) == [0, 1, 2, 3, 4]


def test_equal_cf_ties_keep_occurrence_order():
    query = make_query(
        [
            (CLS_SURFACE, TokenKind.CLS, CLS_ID),
            ("b", TokenKind.WORDPIECE, 4),
            ("a", TokenKind.WORDPIECE, 2),
            ("c", TokenKind.WORDPIECE, 3),
        ]
    )
    lexicon = make_lexicon({2: (7, 5), 3: (7, 5), 4: (7, 5)})
    got = order_embeddings(query, lexicon, Strategy.ICF)
    # reference stable sort over wordpiece positions by cf
    wordpieces = [1, 2, 3]
    expected = sorted(wordpieces, key=lambda i: lexicon.cf(query.tokens[i].id)) + [0]
    assert got == expected == [1, 2, 3, 0]


def test_unseen_wordpieces_get_highest_priority():
    query = make_query(
        [
            (CLS_SURFACE, TokenKind.CLS, CLS_ID),
            ("common", TokenKind.WORDPIECE, 2),
            ("nonce", TokenKind.WORDPIECE, 999),
        ]
    )
    lexicon = make_lexicon({2: (50, 40)})
    assert order_embeddings(query, lexicon, Strategy.ICF) == [2, 1, 0]


@settings(max_examples=60)
@given(
    num_words=st.integers(min_value=0, max_value=12),
    num_masks=st.integers(min_value=0, max_value=6),
    cfs=st.lists(st.integers(min_value=0, max_value=50), min_size=12, max_size=12),
    strategy=st.sampled_from(list(Strategy)),
)
def test_order_embeddings_is_a_permutation(num_words, num_masks, cfs, strategy):
    spec = [(CLS_SURFACE, TokenKind.CLS, CLS_ID)]
    spec += [(f"w{i}", TokenKind.WORDPIECE, 2 + i) for i in range(num_words)]
    spec += [(MASK_SURFACE, TokenKind.MASK, MASK_ID)] * num_masks
    query = make_query(spec)
    stats = {2 + i: (cfs[i] + 1, 1) for i in range(num_words)}
    lexicon = make_lexicon(stats)
    perm = order_embeddings(query, lexicon, strategy)
    assert sorted(perm) == list(range(query.q_len))
    if strategy is Strategy.FIRST:
        assert perm == list(range(query.q_len))
    else:
        kinds = [query.tokens[i].kind for i in perm]
        boundary = num_words
        assert all(k is TokenKind.WORDPIECE for k in kinds[:boundary])
        assert kinds[boundary : boundary + 1] == [TokenKind.CLS]
        assert all(k is TokenKind.MASK for k in kinds[boundary + 1 :])
        if strategy is Strategy.ICF:
            values = [lexicon.cf(query.tokens[i].id) for i in perm[:boundary]]
            assert values == sorted(values)


# ---------------------------------------------------------------------------
# ann_candidates
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ann_index():
    store = random_store(50, 8, seed=21, min_len=2, max_len=6)  # ~200 embeddings
    centroids = train_centroids(store, 1.0, 4, 10, seed=22)
    return build_ivf(store, centroids)


def test_exhaustive_probe_equals_brute_force(ann_index):
    store = ann_index.store
    rng = np.random.default_rng(23)
    for _ in range(10):
        phi = rng.standard_normal(8).astype(np.float32)
        phi /= np.linalg.norm(phi)
        hits, docs = ann_candidates(ann_index, phi, k_prime=store.num_embeddings, n_probe=ann_index.n_list)
        assert hits.tolist() == brute_force_hits(store, phi, store.num_embeddings)
        assert docs.docs == {store.doc_ids[n] for n in set(store.doc_of[hits])}


def test_k_prime_one_returns_best_embeddings_document(ann_index):
    store = ann_index.store
    phi = store.vectors[37].copy()
    hits, docs = ann_candidates(ann_index, phi, k_prime=1, n_probe=ann_index.n_list)
    best = brute_force_hits(store, phi, 1)[0]
    assert hits.tolist() == [best]
    assert docs.docs == {store.doc_ids[store.doc_of[best]]}


def test_partial_probe_matches_restricted_oracle(ann_index):
    store = ann_index.store
    rng = np.random.default_rng(24)
    for _ in range(10):
        phi = rng.standard_normal(8).astype(np.float32)
        # replicate probe selection independently
        centroid_sims = [float(c @ phi) for c in ann_index.centroids.vectors]
        probed = sorted(range(ann_index.n_list), key=lambda c: (-centroid_sims[c], c))[:2]
        allowed = set()
        for c in probed:
            allowed.update(int(i) for i in ann_index.lists[c])
        hits, _ = ann_candidates(ann_index, phi, k_prime=25, n_probe=2)
        assert hits.tolist() == brute_force_hits(store, phi, 25, restrict_ids=allowed)


def test_hits_bounded_by_k_prime_and_docs_by_hits(ann_index):
    rng = np.random.default_rng(25)
    for k_prime in (1, 5, 40):
        phi = rng.standard_normal(8).astype(np.float32)
        hits, docs = ann_candidates(ann_index, phi, k_prime=k_prime, n_probe=2)
        assert len(hits) <= k_prime
        assert len(docs) <= len(hits)


def test_ann_validates_inputs(ann_index):
    with pytest.raises(InvalidInputError):
        ann_candidates(ann_index, np.ones(3, dtype=np.float32), 5, 1)
    with pytest.raises(InvalidConfigError):
        ann_candidates(ann_index, np.ones(8, dtype=np.float32), 5, 0)
    with pytest.raises(InvalidConfigError):
        ann_candidates(ann_index, np.ones(8, dtype=np.float32), 5, ann_index.n_list + 1)
    with pytest.raises(InvalidConfigError):
        ann_candidates(ann_index, np.ones(8, dtype=np.float32), 0, 1)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None])
def test_ann_rejects_counts_that_are_not_integers(ann_index, bad):
    phi = np.ones(8, dtype=np.float32)
    with pytest.raises(InvalidConfigError, match="k_prime must be an integer"):
        ann_candidates(ann_index, phi, bad, 1)
    with pytest.raises(InvalidConfigError, match="n_probe must be an integer"):
        ann_candidates(ann_index, phi, 5, bad)
    # numpy integers are integers
    hits, _ = ann_candidates(ann_index, phi, np.int32(5), np.uint8(1))
    assert hits.tobytes() == ann_candidates(ann_index, phi, 5, 1)[0].tobytes()


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1"])
def test_pruning_knobs_must_be_integers(tiny_engine, bad):
    for name in ("p", "k_prime", "n_probe"):
        knobs = {"strategy": "icf", "p": 1, "k_prime": 5, "n_probe": 1, name: bad}
        with pytest.raises(InvalidConfigError, match=f"{name} must be an integer"):
            PruningConfig(**knobs)
        # p = 1.5 used to fail in slicing, and p = True ran as p = 1
        with pytest.raises(InvalidConfigError, match=f"{name} must be an integer"):
            tiny_engine.search("zebras", **{name: bad})
    assert PruningConfig("icf", np.int64(2), np.int32(5), np.uint8(1)).p == 2


@pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1"])
def test_depths_and_union_widths_must_be_integers(tiny_engine, bad):
    # k = 1.5 failed in slicing, and k = True and p = True ran as 1
    with pytest.raises(InvalidConfigError, match="k must be an integer"):
        tiny_engine.search("zebras", k=bad)
    with pytest.raises(InvalidConfigError, match="ranking depth k must be an integer"):
        Ranking(entries=(("a", 1.0),), k=bad)
    store = named_store(["a", "b"])
    sets = [candidate_set(store, ["a"]), candidate_set(store, ["b"])]
    with pytest.raises(InvalidConfigError, match="p must be an integer"):
        pruned_union(sets, bad)
    assert pruned_union(sets, np.int64(2)).docs == {"a", "b"}
    assert len(Ranking(entries=(("a", 1.0),), k=np.uint8(1))) == 1
    ranking, _ = tiny_engine.search("zebras", k=np.int32(2))
    assert ranking.entries == tiny_engine.search("zebras", k=2)[0].entries


def test_ann_rejects_a_non_finite_query_vector(ann_index):
    # an all-NaN vector makes every centroid similarity NaN, and the stable
    # probe order would then fall back to list order
    for bad in (np.nan, np.inf, -np.inf):
        one_bad = np.ones(8, dtype=np.float32)
        one_bad[3] = bad
        for phi in (np.full(8, bad, dtype=np.float32), one_bad):
            with pytest.raises(InvalidInputError, match="NaN or Inf"):
                ann_candidates(ann_index, phi, 5, 2)


# ---------------------------------------------------------------------------
# pruned_union
# ---------------------------------------------------------------------------


def test_candidate_set_reads_as_doc_id_set_in_id_order():
    store = named_store(["zz", "aa", "mm"])
    candidates = candidate_set(store, ["zz", "mm", "zz", "aa"])
    assert candidates.numbers.tolist() == [1, 2, 0]  # aa, mm, zz
    assert store.doc_id_array[candidates.numbers].tolist() == ["aa", "mm", "zz"]
    assert len(candidates) == 3 and "aa" in candidates.docs and "ghost" not in candidates.docs
    assert candidates.docs == {"aa", "mm", "zz"}
    assert candidates.docs & {"aa", "xx"} == {"aa"}
    with pytest.raises(ValueError):
        candidates.numbers[0] = 2
    with pytest.raises(InvalidInputError):
        CandidateSet(store, [3])


@pytest.mark.parametrize(
    "numbers",
    [
        [0.7, 2.9],  # floats were truncated to doc numbers 0 and 2
        np.array([1.0, 2.0]),  # even whole floats
        [True, False],  # bools were read as doc numbers 1 and 0
        np.array([[0, 1], [2, 0]]),  # 2-d raised a bare numpy error
        np.int64(1),  # 0-d
        ["aa"],
        [None],  # what ``index_of`` returns for an unknown doc id
    ],
)
def test_candidate_set_rejects_numbers_that_are_not_a_1d_integer_array(numbers):
    store = named_store(["zz", "aa", "mm"])
    with pytest.raises(InvalidInputError, match="candidate doc numbers must"):
        CandidateSet(store, numbers)


def test_candidate_set_takes_any_integer_dtype_and_an_empty_input():
    store = named_store(["zz", "aa", "mm"])
    want = CandidateSet(store, np.array([2, 0, 2], dtype=np.int64)).numbers
    for dtype in (np.int8, np.int32, np.uint16, np.uint64):
        got = CandidateSet(store, np.array([2, 0, 2], dtype=dtype)).numbers
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert CandidateSet(store, [2, 0]).numbers.tolist() == want.tolist()
    for empty in ([], np.empty(0, dtype=np.int32)):
        got = CandidateSet(store, empty).numbers
        assert got.dtype == np.int64 and got.size == 0 and not got.flags.writeable


def test_pruned_union_full_depth_is_plain_union():
    store = named_store(["d", "c", "b", "a"])
    sets = [candidate_set(store, s) for s in ({"a", "b"}, {"b", "c"}, {"d"})]
    result = pruned_union(sets, 3)
    assert result.docs == {"a", "b", "c", "d"}


def test_pruned_union_rejects_bad_p():
    sets = [candidate_set(named_store(["a"]), {"a"})]
    with pytest.raises(InvalidConfigError):
        pruned_union(sets, 0)
    with pytest.raises(InvalidConfigError):
        pruned_union(sets, 2)


def test_pruned_union_rejects_sets_from_different_stores():
    ids = ["a", "b"]
    sets = [candidate_set(named_store(ids), {"a"}), candidate_set(named_store(ids), {"b"})]
    assert pruned_union(sets, 1).docs == {"a"}
    with pytest.raises(ConsistencyError):
        pruned_union(sets, 2)


def test_pruned_union_takes_a_repeated_set_once():
    store = named_store(["d", "c", "b", "a"])
    ab, bc, d = (candidate_set(store, s) for s in ({"a", "b"}, {"b", "c"}, {"d"}))
    repeated = pruned_union([ab, bc, ab, d, bc, bc], 6)
    plain = pruned_union([ab, bc, d], 3)
    assert np.array_equal(repeated.numbers, plain.numbers)
    assert repeated.docs == plain.docs == {"a", "b", "c", "d"}
    single = pruned_union([bc, bc, bc, ab], 3)
    assert single.docs == bc.docs and np.array_equal(single.numbers, bc.numbers)
    # at p = 1 the first set comes back as it is
    assert pruned_union([bc, ab], 1) is bc


def test_pruned_union_checks_the_store_of_every_repeated_set():
    ids = ["a", "b"]
    mine, other = candidate_set(named_store(ids), {"a"}), candidate_set(named_store(ids), {"a"})
    for sets in ([mine, mine, other], [mine, other, other], [mine, other, mine]):
        with pytest.raises(ConsistencyError):
            pruned_union(sets, 3)
    assert pruned_union([mine, mine, other], 2).docs == {"a"}


UNION_STORE = named_store([f"d{i}" for i in reversed(range(12))])


@settings(max_examples=60)
@given(
    sets=st.lists(
        st.sets(st.sampled_from([f"d{i}" for i in range(12)]), max_size=6),
        min_size=1,
        max_size=8,
    )
)
def test_pruned_union_matches_reduce_oracle_and_is_monotone(sets):
    candidate_sets = [candidate_set(UNION_STORE, s) for s in sets]
    previous = frozenset()
    for p in range(1, len(sets) + 1):
        got = pruned_union(candidate_sets, p)
        oracle = functools.reduce(lambda acc, s: acc | frozenset(s), sets[:p], frozenset())
        assert frozenset(got.docs) == oracle
        assert previous <= frozenset(got.docs)
        previous = frozenset(got.docs)


# ---------------------------------------------------------------------------
# exact_score
# ---------------------------------------------------------------------------


def query_from_rows(rows):
    """QueryRepresentation with explicit embedding rows (CLS + wordpieces)."""
    tokens = [Token(CLS_ID, CLS_SURFACE, TokenKind.CLS, 0)]
    tokens += [Token(2 + i, f"w{i}", TokenKind.WORDPIECE, 1 + i) for i in range(len(rows) - 1)]
    return QueryRepresentation(tuple(tokens), np.asarray(rows, dtype=np.float32))


def test_exact_score_single_embedding():
    query = query_from_rows([[1.0, 0.0]])
    assert exact_score(query, np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(1.0)


def test_exact_score_two_matching_embeddings():
    query = query_from_rows([[1.0, 0.0], [0.0, 1.0]])
    doc = np.array([[0.0, 1.0], [1.0, 0.0], [0.70710678, 0.70710678]])
    assert exact_score(query, doc) == pytest.approx(2.0)


def test_exact_score_matches_dense_matrix_oracle():
    rng = np.random.default_rng(26)
    query = query_from_rows(rng.standard_normal((4, 8)))
    doc = rng.standard_normal((6, 8)).astype(np.float32)
    expected = maxsim_oracle(query.embeddings, doc)
    got = exact_score(query, doc)
    assert got == pytest.approx(expected, rel=1e-6)


def test_exact_score_never_decreases_when_doc_grows():
    rng = np.random.default_rng(27)
    query = query_from_rows(rng.standard_normal((5, 8)))
    doc = rng.standard_normal((3, 8)).astype(np.float32)
    base = exact_score(query, doc)
    for _ in range(10):
        doc = np.concatenate([doc, rng.standard_normal((1, 8)).astype(np.float32)])
        grown = exact_score(query, doc)
        assert grown >= base - 1e-12
        base = grown


def test_exact_score_is_invariant_under_doc_permutation():
    rng = np.random.default_rng(28)
    query = query_from_rows(rng.standard_normal((4, 8)))
    doc = rng.standard_normal((7, 8)).astype(np.float32)
    reference = exact_score(query, doc)
    for _ in range(5):
        shuffled = doc[rng.permutation(7)]
        assert exact_score(query, shuffled) == reference


def test_exact_score_validates_inputs():
    query = query_from_rows([[1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        exact_score(query, np.empty((0, 2)))
    with pytest.raises(InvalidInputError):
        exact_score(query, np.ones((2, 3)))


def test_score_documents_agrees_with_exact_score():
    store = random_store(20, 8, seed=29, min_len=1, max_len=5)
    rng = np.random.default_rng(30)
    query = query_from_rows(rng.standard_normal((6, 8)))
    numbers = np.arange(store.num_docs)
    batched = score_documents(query, store, numbers)
    for n in numbers:
        single = exact_score(query, store.doc_vectors(int(n)))
        # float32 similarity kernels may differ by a few ulps between the
        # batched and single-document paths
        assert batched[n] == pytest.approx(single, rel=1e-6)


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------


def test_rerank_single_candidate():
    store = random_store(5, 8, seed=31)
    rng = np.random.default_rng(32)
    query = query_from_rows(rng.standard_normal((3, 8)))
    ranking = rerank(candidate_set(store, ["d0002"]), query, store, k=10)
    assert len(ranking) == 1
    assert ranking.entries[0][0] == "d0002"
    assert ranking.entries[0][1] == pytest.approx(exact_score(query, store.doc_vectors(2)))


def test_rerank_breaks_ties_by_ascending_doc_id():
    # two documents with identical embeddings score identically
    from mve.index import EmbeddingStore

    rng = np.random.default_rng(33)
    row = rng.standard_normal((1, 8)).astype(np.float32)
    vectors = np.concatenate([row, row, rng.standard_normal((1, 8)).astype(np.float32) * 0.01])
    offsets = np.array([[0, 1], [1, 1], [2, 1]])
    store = EmbeddingStore(vectors, offsets, ("zz", "aa", "mm"))
    query = query_from_rows(row)
    ranking = rerank(candidate_set(store, ("zz", "aa", "mm")), query, store, k=3)
    assert ranking.doc_ids()[:2] == ["aa", "zz"]  # equal scores, id order


def test_rerank_matches_oracle_ordering_of_fifty_candidates():
    store = random_store(50, 8, seed=34, min_len=1, max_len=4)
    rng = np.random.default_rng(35)
    query = query_from_rows(rng.standard_normal((4, 8)))
    candidates = candidate_set(store, store.doc_ids)
    ranking = rerank(candidates, query, store, k=50)

    oracle_scores = {
        doc_id: maxsim_oracle(query.embeddings, store.doc_vectors(i))
        for i, doc_id in enumerate(store.doc_ids)
    }
    oracle_order = sorted(store.doc_ids, key=lambda d: (-oracle_scores[d], d))
    assert ranking.doc_ids() == oracle_order
    for doc_id, score in ranking.entries:
        assert score == pytest.approx(oracle_scores[doc_id], rel=1e-6)


def test_rerank_truncates_to_k_and_validates():
    store = random_store(10, 8, seed=36)
    rng = np.random.default_rng(37)
    query = query_from_rows(rng.standard_normal((3, 8)))
    candidates = candidate_set(store, store.doc_ids)
    assert len(rerank(candidates, query, store, k=4)) == 4
    # a candidate set over another store cannot be reranked against this one
    ghost = candidate_set(named_store(["ghost"], dim=8), ["ghost"])
    with pytest.raises(ConsistencyError):
        rerank(ghost, query, store, k=4)


# Scores that order in unusual ways: signed zeros, infinities, subnormals,
# the float64 extremes and NaN.
EDGE_SCORES = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, math.nan)


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.one_of(st.sampled_from(EDGE_SCORES), st.floats()), min_size=1, max_size=12),
    size=st.integers(0, 3000),
    distinct=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_first_is_the_stable_descending_argsort(pool, size, distinct, seed):
    """Drawn from a small pool, most scores tie with many others."""
    rng = np.random.default_rng(seed)
    scores = np.array(pool, dtype=np.float64)[rng.integers(0, len(pool), size=size)]
    if distinct:  # half the scores moved off the pool, so they rarely tie
        moved = rng.random(size) < 0.5
        scores[moved] += rng.standard_normal(int(moved.sum()))
    assert np.array_equal(_best_first(scores), np.argsort(-scores, kind="stable"))


def test_ranking_type_enforces_order():
    Ranking(entries=(("a", 2.0), ("b", 1.0)), k=5)
    Ranking(entries=(("a", 1.0), ("b", 1.0)), k=5)
    with pytest.raises(InvalidInputError):
        Ranking(entries=(("b", 1.0), ("a", 1.0)), k=5)  # tie out of id order
    with pytest.raises(InvalidInputError):
        Ranking(entries=(("a", 1.0), ("b", 2.0)), k=5)  # ascending scores
    with pytest.raises(InvalidInputError):
        Ranking(entries=(("a", 1.0), ("a", 0.5)), k=5)  # duplicate doc
    with pytest.raises(InvalidInputError):
        Ranking(entries=(("a", 1.0), ("b", 0.5)), k=1)  # deeper than k


def reference_ranking_check(pairs, k):
    """The entry-by-entry check ``Ranking`` ran before it held columns."""
    if k < 1:
        raise InvalidConfigError(f"ranking depth must be >= 1, got {k}")
    if len(pairs) > k:
        raise InvalidInputError("ranking holds more entries than its depth")
    seen = set()
    previous = None
    for doc_id, score in pairs:
        if doc_id in seen:
            raise InvalidInputError(f"duplicate doc id {doc_id!r} in ranking")
        seen.add(doc_id)
        key = (-score, doc_id)
        if previous is not None and key < previous:
            raise InvalidInputError("ranking violates the (score desc, doc id asc) order")
        previous = key


def check_outcome(check, pairs, k):
    try:
        check(pairs, k)
    except (InvalidConfigError, InvalidInputError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300)
@given(
    pairs=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.sampled_from([2.0, 1.0, 0.0, -0.0, -1.0, math.nan]),
        ),
        max_size=6,
    ),
    in_order=st.booleans(),
    extra_depth=st.integers(min_value=-2, max_value=2),
)
def test_column_check_accepts_and_rejects_what_the_pair_loop_does(pairs, in_order, extra_depth):
    if in_order:  # mostly valid rankings; repeated ids and NaN still make some invalid
        pairs = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
    pairs = tuple(pairs)
    k = len(pairs) + extra_depth
    expected = check_outcome(reference_ranking_check, pairs, k)
    assert check_outcome(lambda p, depth: Ranking(entries=p, k=depth), pairs, k) == expected
    if expected is None:
        ranking = Ranking(entries=pairs, k=k)
        assert ranking.entries.scores.dtype == np.float64
        assert ranking.doc_ids() == [doc_id for doc_id, _ in pairs]
        if not any(math.isnan(score) for _, score in pairs):
            assert ranking.entries == pairs and pairs == ranking.entries
            assert hash(ranking.entries) == hash(pairs)
            assert dataclasses.replace(ranking) == ranking


def test_ranking_entries_read_as_a_tuple_of_pairs():
    pairs = (("b", 3.0), ("a", 1.0), ("c", 1.0))
    ranking = Ranking(entries=pairs, k=5)
    entries = ranking.entries
    assert len(entries) == 3 and list(entries) == list(pairs)
    assert entries[0] == ("b", 3.0) and entries[-1] == ("c", 1.0)
    assert entries[1:] == pairs[1:] and entries[:0] == ()
    assert entries != pairs[:2] and entries != list(pairs)
    assert ranking != Ranking(entries=pairs[:2], k=5)
    with pytest.raises(ValueError):
        entries.scores[0] = 0.0  # the score column is read-only
    with pytest.raises(InvalidInputError):
        Ranking(entries=(("a", "1.0"),), k=5)


def test_ranking_from_search_keeps_no_store_alive(small_planted, small_planted_engine):
    engine = build_engine(small_planted.corpus, small_planted_engine.config)
    _, text = small_planted.queries[0]
    ranking, candidates = engine.search(text, strategy=Strategy.ICF, p=2)
    expected = tuple(ranking.entries)
    store = weakref.ref(engine.index.store)
    del engine, candidates
    gc.collect()
    assert store() is None
    assert ranking.entries == expected


# ---------------------------------------------------------------------------
# search end to end
# ---------------------------------------------------------------------------


def test_search_single_doc_corpus_finds_it():
    config = EngineConfig(dim=8, q_len=4, k=5, k_prime=10, n_list=1, n_probe=1,
                          sample_fraction=1.0, iterations=3, seed=1)
    engine = build_engine([("only", "lonely document text")], config)
    ranking, candidates = engine.search("document", strategy=Strategy.FIRST, p=1)
    assert candidates.docs == {"only"}
    assert ranking.doc_ids() == ["only"]


def test_build_engine_rejects_doc_ids_a_run_file_cannot_carry():
    config = EngineConfig(dim=4, q_len=4, k=5, k_prime=10, n_list=1, n_probe=1,
                          sample_fraction=1.0, iterations=3, seed=1)
    rng = np.random.default_rng(5)
    for bad in ("d 1", "", "d\t1", " d1"):
        corpus = [("d0", "alpha beta"), (bad, "gamma delta")]
        with pytest.raises(InvalidInputError, match="empty or contains whitespace"):
            build_engine(corpus, config)
        dump = [(doc_id, rng.standard_normal((2, 4)).astype(np.float32)) for doc_id, _ in corpus]
        with pytest.raises(InvalidInputError, match="empty or contains whitespace"):
            build_engine(corpus, config, dump_docs=dump)
        good_corpus = [("d0", "alpha beta"), ("d1", "gamma delta")]
        with pytest.raises(InvalidInputError, match="empty or contains whitespace"):
            build_engine(good_corpus, config, dump_docs=[dump[0], (bad, dump[1][1])])


def test_search_full_p_is_strategy_independent(small_planted_engine, small_planted):
    engine = small_planted_engine
    q_len = engine.config.q_len
    for qid, text in small_planted.queries[:3]:
        _, first = engine.search(text, strategy=Strategy.FIRST, p=q_len)
        _, icf = engine.search(text, strategy=Strategy.ICF, p=q_len)
        _, idf = engine.search(text, strategy=Strategy.IDF, p=q_len)
        assert first.docs == icf.docs == idf.docs


def test_search_candidates_grow_monotonically_in_p(small_planted_engine, small_planted):
    engine = small_planted_engine
    text = small_planted.queries[0][1]
    previous = set()
    for p in range(1, engine.config.q_len + 1):
        _, candidates = engine.search(text, strategy=Strategy.ICF, p=p)
        assert previous <= candidates.docs
        previous = candidates.docs


def test_search_icf_p1_retrieves_planted_docs(small_planted_engine, small_planted, small_planted_qrels):
    engine = small_planted_engine
    for qid, text in small_planted.queries:
        _, candidates = engine.search(text, strategy=Strategy.ICF, p=1, n_probe=engine.index.n_list)
        planted = small_planted_qrels.relevant(qid)
        assert planted <= candidates.docs


def test_search_first_p1_equals_cls_only_oracle(small_planted_engine, small_planted):
    engine = small_planted_engine
    store = engine.index.store
    text = small_planted.queries[1][1]
    query = engine.encoder.encode(text)
    _, candidates = engine.search(text, strategy=Strategy.FIRST, p=1, n_probe=engine.index.n_list)
    # exhaustive nearest-neighbour oracle over the CLS embedding
    hits = brute_force_hits(store, query.embeddings[0], engine.config.k_prime)
    oracle_docs = {store.doc_ids[int(store.doc_of[i])] for i in hits}
    assert candidates.docs == oracle_docs


def test_search_same_candidates_give_identical_ranking_for_any_p():
    # k_prime covers the whole store, so every p yields the same candidates
    corpus = [(f"d{i}", f"alpha beta gamma delta w{i}") for i in range(6)]
    config = EngineConfig(dim=8, q_len=6, k=10, k_prime=1000, n_list=1, n_probe=1,
                          sample_fraction=1.0, iterations=3, seed=2)
    engine = build_engine(corpus, config)
    rankings = []
    candidate_sets = []
    for p in (1, 3, 6):
        ranking, candidates = engine.search("alpha beta", strategy=Strategy.FIRST, p=p)
        rankings.append(ranking)
        candidate_sets.append(candidates.docs)
    assert candidate_sets[0] == candidate_sets[1] == candidate_sets[2]
    assert rankings[0].entries == rankings[1].entries == rankings[2].entries


def test_search_rejects_p_above_q_len(tiny_engine):
    with pytest.raises(InvalidConfigError):
        tiny_engine.search("zebras", p=tiny_engine.config.q_len + 1)


def test_per_embedding_doc_sets_bounded_by_k_prime(small_planted_engine, small_planted):
    engine = small_planted_engine
    k_prime = 7
    query = engine.encoder.encode(small_planted.queries[2][1])
    for position in range(query.q_len):
        _, docs = ann_candidates(engine.index, query.embeddings[position], k_prime, 2)
        assert len(docs) <= k_prime


# ---------------------------------------------------------------------------
# once per distinct query vector
# ---------------------------------------------------------------------------


def all_rows_scores(query, store, doc_numbers):
    """MaxSim with one similarity row per query position: no deduplication."""
    blocks = [store.doc_vectors(int(n)) for n in doc_numbers]
    tokens = np.concatenate(blocks)
    starts = np.concatenate([[0], np.cumsum([len(b) for b in blocks])[:-1]])
    sims = query.embeddings @ tokens.T
    return np.cumsum(np.maximum.reduceat(sims, starts, axis=1).astype(np.float64), axis=0)[-1]


def per_position_search(engine, text, strategy, p):
    """Search with one ANN call per processed position and all-rows scores."""
    query = engine.encoder.encode(text)
    config = engine.pruning(strategy=strategy, p=p)
    ordering = order_embeddings(query, engine.lexicon, config.strategy)
    sets = [
        ann_candidates(engine.index, query.embeddings[position], config.k_prime, config.n_probe)[1]
        for position in ordering[:p]
    ]
    candidates = pruned_union(sets, p)
    return candidates, all_rows_scores(query, engine.index.store, candidates.numbers)


def test_distinct_rows_maps_every_position_to_its_first_equal_row():
    query = make_query(
        [
            (CLS_SURFACE, TokenKind.CLS, CLS_ID),
            ("to", TokenKind.WORDPIECE, 2),
            ("be", TokenKind.WORDPIECE, 3),
            ("to", TokenKind.WORDPIECE, 2),
            (MASK_SURFACE, TokenKind.MASK, MASK_ID),
            (MASK_SURFACE, TokenKind.MASK, MASK_ID),
        ]
    )
    firsts, slots = query.distinct_rows
    assert firsts.tolist() == [0, 1, 2, 4]
    assert slots.tolist() == [0, 1, 2, 1, 3, 3]
    assert np.array_equal(query.embeddings[firsts][slots], query.embeddings)
    # rows count as equal by value, not by token id
    assert query_from_rows([[1.0, 0.0], [1.0, 0.0]]).distinct_rows[0].tolist() == [0]


def test_search_once_per_distinct_vector_keeps_every_bit(padded_planted_engine, small_planted):
    engine = padded_planted_engine
    store = engine.index.store
    q_len = engine.config.q_len
    for _, text in small_planted.queries:
        query = engine.encoder.encode(text)
        assert len(query.distinct_rows[0]) == 9  # CLS, 7 words, MASK
        for strategy in Strategy:
            for p in (1, 9, 10, q_len):
                ranking, candidates = engine.search(text, strategy=strategy, p=p)
                expected, scores = per_position_search(engine, text, strategy, p)
                assert np.array_equal(candidates.numbers, expected.numbers)
                assert np.array_equal(score_documents(query, store, candidates.numbers), scores)
                order = np.argsort(-scores, kind="stable")[: engine.config.k]
                assert ranking.entries == tuple(
                    (store.doc_ids[n], s)
                    for n, s in zip(expected.numbers[order].tolist(), scores[order].tolist())
                )
        # A single document's few tokens make a product small enough that
        # BLAS may use another kernel for 9 rows than for 32, so single
        # documents are held to float32 tolerance rather than to the bit.
        for n in range(0, store.num_docs, 40):
            single = exact_score(query, store.doc_vectors(n))
            assert single == pytest.approx(all_rows_scores(query, store, [n])[0], rel=1e-6)


def test_search_calls_ann_once_per_distinct_vector(padded_planted_engine, small_planted, monkeypatch):
    engine = padded_planted_engine
    calls = count_ann_calls(monkeypatch)
    text = small_planted.queries[0][1]
    query = engine.encoder.encode(text)
    engine.search(text, strategy=Strategy.ICF, p=engine.config.q_len)
    assert len(calls) == len(set(calls)) == len(query.distinct_rows[0])

    ordering = order_embeddings(query, engine.lexicon, Strategy.ICF)
    mask = next(i for i, token in enumerate(query.tokens) if token.kind is TokenKind.MASK)
    first_mask = ordering.index(mask) + 1
    calls.clear()
    _, at_first_mask = engine.search(text, strategy=Strategy.ICF, p=first_mask)
    reached_first = len(calls)
    calls.clear()
    _, at_second_mask = engine.search(text, strategy=Strategy.ICF, p=first_mask + 1)
    assert len(calls) == reached_first
    assert np.array_equal(at_second_mask.numbers, at_first_mask.numbers)
    assert at_second_mask.docs == at_first_mask.docs


def row_major_scores(query, store, doc_numbers):
    """MaxSim over the distinct rows, row-major: one similarity row per
    distinct query vector, maxima expanded to every position and summed in
    query order by ``cumsum``."""
    blocks = [store.doc_vectors(int(n)) for n in doc_numbers]
    tokens = np.concatenate(blocks)
    starts = np.concatenate([[0], np.cumsum([len(b) for b in blocks])[:-1]])
    firsts, slots = query.distinct_rows
    sims = query.embeddings[firsts] @ tokens.T
    maxima = np.maximum.reduceat(sims, starts, axis=1).astype(np.float64)
    return np.cumsum(maxima[slots], axis=0)[-1]


@pytest.mark.parametrize("engine_name", ["small_planted_engine", "padded_planted_engine"])
def test_token_major_maxsim_keeps_the_row_major_bits(engine_name, small_planted, request):
    engine = request.getfixturevalue(engine_name)
    store = engine.index.store
    for _, text in small_planted.queries:
        query = engine.encoder.encode(text)
        for strategy in Strategy:
            for p in (1, engine.config.q_len):
                _, candidates = engine.search(text, strategy=strategy, p=p)
                expected = row_major_scores(query, store, candidates.numbers)
                assert np.array_equal(score_documents(query, store, candidates.numbers), expected)
                singles = [exact_score(query, store.doc_vectors(n)) for n in candidates.numbers]
                reference = [row_major_scores(query, store, [n])[0] for n in candidates.numbers]
                assert np.array_equal(singles, reference)


def test_maxsim_adds_one_position_at_a_time_in_query_order():
    # maxima of 1 and 2**-54: a float64 sum rounds after every addition, so
    # the order of the additions shows in the last bits
    tiny = 2.0**-54
    big_first = query_from_rows([[1.0, 0.0]] + [[0.0, 1.0]] * 15)
    big_last = query_from_rows([[0.0, 1.0]] * 15 + [[1.0, 0.0]])
    doc = np.array([[1.0, 0.0], [0.0, tiny]], dtype=np.float32)
    store = EmbeddingStore.from_blocks([("a", doc), ("b", doc[::-1].copy())])
    for query, expected in ((big_first, 1.0), (big_last, 1.0 + 2.0**-50)):
        assert exact_score(query, doc) == expected
        assert score_documents(query, store, np.array([0, 1])).tolist() == [expected, expected]
        assert row_major_scores(query, store, [0, 1]).tolist() == [expected, expected]


# ---------------------------------------------------------------------------
# MaxSim routes: the store's whole table in place, or a gathered copy
# ---------------------------------------------------------------------------


def gathered_scores(query, store, doc_numbers):
    """MaxSim over a gathered copy of the documents' rows: the route that
    ``score_documents`` takes for sparse candidate sets."""
    blocks = [store.doc_vectors(int(n)) for n in doc_numbers]
    starts = np.concatenate([[0], np.cumsum([len(b) for b in blocks])[:-1]])
    firsts, slots = query.distinct_rows
    sims = np.concatenate(blocks) @ query.embeddings[firsts].T
    maxima = np.maximum.reduceat(sims, starts, axis=0).astype(np.float64)
    total = maxima[:, slots[0]].copy()
    for slot in slots[1:].tolist():
        total += maxima[:, slot]
    return total


def own_table(store):
    """The same rows and documents, each embedding its own row of the table."""
    return EmbeddingStore(store.vectors, store.doc_offsets, store.doc_ids)


def coded_store(num_docs, dim, num_codes, seed, max_len=20):
    """A store of ``num_docs`` documents whose rows repeat ``num_codes``
    random distinct rows, and its codes."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=num_docs)
    table = rng.standard_normal((num_codes, dim)).astype(np.float32)
    codes = rng.permutation(np.resize(np.arange(num_codes), int(lengths.sum())))
    names = [f"d{i:04d}" for i in range(num_docs)]
    return EmbeddingStore.from_lengths(table[codes], lengths, names, codes)


PLANTED_FIXTURE_OF = {
    "small_planted_engine": "small_planted",
    "padded_planted_engine": "small_planted",
    "wide_planted_engine": "wide_planted",
}


@pytest.mark.parametrize("engine_name", list(PLANTED_FIXTURE_OF))
def test_maxsim_routes_agree_on_planted_engines(engine_name, request, monkeypatch):
    engine = request.getfixturevalue(engine_name)
    fixture = request.getfixturevalue(PLANTED_FIXTURE_OF[engine_name])
    store = engine.index.store
    assert len(store.table) < store.num_embeddings
    plain = dataclasses.replace(
        engine, index=dataclasses.replace(engine.index, store=own_table(store))
    )
    routes = spy_routes(monkeypatch, of=store)
    plain_routes = spy_routes(monkeypatch, of=plain.index.store)
    for _, text in fixture.queries:
        query = engine.encoder.encode(text)
        # every document, then each candidate set once: a p that adds no
        # document repeats the last check
        scored = []
        for strategy in Strategy:
            for p in range(1, engine.config.q_len + 1):
                ranking, candidates = engine.search(text, strategy=strategy, p=p)
                plain_ranking, plain_candidates = plain.search(text, strategy=strategy, p=p)
                assert ranking.entries == plain_ranking.entries
                assert np.array_equal(candidates.numbers, plain_candidates.numbers)
                if not any(np.array_equal(candidates.numbers, done) for done in scored):
                    scored.append(candidates.numbers)
        for numbers in [np.arange(store.num_docs), *scored]:
            expected = gathered_scores(query, store, numbers).tobytes()
            assert score_documents(query, store, numbers).tobytes() == expected
            assert score_documents(query, plain.index.store, numbers).tobytes() == expected
    # only the wide engine's table of repeated rows is large enough for the
    # floor; a table of every embedding is on each engine
    wide = engine_name == "wide_planted_engine"
    assert set(routes) == ({"table"} if wide else {"gather"})
    assert set(plain_routes) == {"table", "gather"}
    routes.clear()
    qrels = Qrels(fixture.judgments)
    csv = engine.sweep(fixture.queries, qrels).to_csv()
    assert ("table" in routes) == wide
    assert csv == plain.sweep(fixture.queries, qrels).to_csv()


@pytest.mark.parametrize("engine_name", list(PLANTED_FIXTURE_OF))
def test_search_and_sweep_on_a_coded_engine_never_read_store_vectors(
    engine_name, request, monkeypatch
):
    # a coded store's ``vectors`` gathers every embedding on each read
    engine = request.getfixturevalue(engine_name)
    fixture = request.getfixturevalue(PLANTED_FIXTURE_OF[engine_name])
    reads = []
    real = EmbeddingStore.vectors

    def counted(store):
        reads.append(store)
        return real.fget(store)

    monkeypatch.setattr(EmbeddingStore, "vectors", property(counted))
    routes = spy_routes(monkeypatch)
    for _, text in fixture.queries:
        for strategy in Strategy:
            for p in (1, 2, engine.config.q_len):
                engine.search(text, strategy=strategy, p=p)
    engine.sweep(fixture.queries, Qrels(fixture.judgments), p_values=(1, 3))
    wide = engine_name == "wide_planted_engine"
    assert set(routes) == ({"table"} if wide else {"gather"})
    assert reads == []
    store = engine.index.store
    assert store.vectors.shape == (store.num_embeddings, store.dim) and reads == [store]


def takes_table(table_rows, candidate_rows, distinct):
    """Whether ``score_documents`` should multiply the whole table."""
    floor = mve.retrieval._IN_PLACE_MIN_PRODUCT
    return (
        distinct >= 2
        and candidate_rows * distinct >= floor
        and table_rows * distinct >= floor
        and candidate_rows >= mve.retrieval._TABLE_MIN_SHARE * table_rows
    )


@pytest.mark.parametrize("dim", [3, 16, 17, 64])
def test_maxsim_routes_agree_on_random_stores(dim, monkeypatch):
    # each embedding its own row of the table, so the table is the store
    store = random_store(900, dim, seed=dim, min_len=1, max_len=20)
    offsets = store.doc_offsets
    rng = np.random.default_rng(100 + dim)
    routes = spy_routes(monkeypatch)
    for distinct in (2, 3, 9, 17, 32):
        rows = rng.standard_normal((distinct, dim))
        # every distinct row once, then repeats up to 32 positions
        query = query_from_rows(np.concatenate([rows, rows[rng.integers(0, distinct, 32 - distinct)]]))
        assert len(query.distinct_rows[0]) == distinct
        for share in (0.3, 0.55, 0.65, 0.9, 1.0):
            for first, last in ((0, 899), (0, 650), (250, 899), (120, 780)):
                inner = np.arange(first + 1, last)
                kept = inner[rng.random(inner.size) < share]
                numbers = rng.permutation(np.concatenate([[first, last], kept]))
                before = len(routes)
                scores = score_documents(query, store, numbers)
                assert scores.tobytes() == gathered_scores(query, store, numbers).tobytes()
                candidate_rows = int(offsets[numbers, 1].sum())
                table = takes_table(store.num_embeddings, candidate_rows, distinct)
                assert routes[before:] == ["table" if table else "gather"]
    assert set(routes) == {"table", "gather"}


@pytest.mark.parametrize("dim", [3, 17, 64])
def test_maxsim_table_route_agrees_on_random_coded_stores(dim, monkeypatch):
    rng = np.random.default_rng(300 + dim)
    routes = spy_routes(monkeypatch)
    for num_codes in (300, 1200):
        store = coded_store(900, dim, num_codes, seed=num_codes + dim)
        assert store.table.shape == (num_codes, dim)
        assert store.vectors.tobytes() == store.table[store.codes].tobytes()
        plain = own_table(store)
        for distinct in (2, 3, 9, 17, 32):
            rows = rng.standard_normal((distinct, dim))
            query = query_from_rows(
                np.concatenate([rows, rows[rng.integers(0, distinct, 32 - distinct)]])
            )
            for share in (0.02, 0.1, 0.3, 0.7, 1.0):
                kept = np.flatnonzero(rng.random(900) < share)
                numbers = rng.permutation(np.concatenate([[0, 899], kept]))
                before = len(routes)
                scores = score_documents(query, store, numbers)
                assert scores.tobytes() == score_documents(query, plain, numbers).tobytes()
                assert scores.tobytes() == gathered_scores(query, store, numbers).tobytes()
                candidate_rows = int(store.doc_offsets[numbers, 1].sum())
                table = takes_table(num_codes, candidate_rows, distinct)
                assert routes[before] == ("table" if table else "gather")
    assert set(routes) == {"table", "gather"}


def test_maxsim_table_route_needs_two_rows_a_large_product_and_a_saving(monkeypatch):
    floor = mve.retrieval._IN_PLACE_MIN_PRODUCT
    share = mve.retrieval._TABLE_MIN_SHARE
    store = coded_store(2000, 16, 1200, seed=8)
    rng = np.random.default_rng(9)
    routes = spy_routes(monkeypatch)
    everything = np.arange(store.num_docs)
    assert store.num_embeddings * 2 >= floor and 1200 * 7 >= floor > 1200 * 6
    # one distinct row: gemv, whatever the sizes
    one = query_from_rows(np.repeat(rng.standard_normal((1, 16)), 5, axis=0))
    score_documents(one, store, everything)
    # 6 distinct rows: the table's product (1,200 x 6) is under the floor
    six = query_from_rows(rng.standard_normal((6, 16)))
    score_documents(six, store, everything)
    # 16 distinct rows: the table's product is above the floor, but the
    # candidates hold too few rows for the floor, or too small a share of
    # the table's rows for the whole table to cost less than their own
    sixteen = query_from_rows(rng.standard_normal((16, 16)))
    ends = np.cumsum(store.doc_offsets[:, 1])
    under_share = int(np.searchsorted(ends, share * 1200))  # docs before the share
    assert ends[under_share - 1] * 16 >= floor
    score_documents(sixteen, store, np.arange(3))
    score_documents(sixteen, store, np.arange(under_share))
    assert routes == ["gather"] * 4
    score_documents(sixteen, store, np.arange(under_share + 1))
    score_documents(sixteen, store, everything)
    assert routes[4:] == ["table"] * 2


def test_table_maxima_keep_the_bits_of_reduceat():
    # few values, so most maxima are ties, -0.0 against 0.0 among them
    rng = np.random.default_rng(12)
    values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0], dtype=np.float32)
    table = rng.choice(values, size=(40, 5))
    lengths = rng.integers(1, 9, size=60)
    starts = np.cumsum(lengths) - lengths
    codes = rng.integers(0, 40, size=int(lengths.sum()))
    picks = rng.integers(0, 60, size=80)  # repeats, in no order
    sims = np.concatenate([table[codes[starts[i] : starts[i] + lengths[i]]] for i in picks])
    expected = np.maximum.reduceat(sims, np.cumsum(lengths[picks]) - lengths[picks], axis=0)
    zeros = expected[expected == 0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    got = mve.retrieval._table_maxima(table, codes, starts[picks], lengths[picks])
    assert got.tobytes() == expected.tobytes()


def test_maxsim_in_place_route_keeps_repeats_and_order():
    store = random_store(700, 16, seed=5, min_len=8, max_len=16)
    rng = np.random.default_rng(6)
    query = query_from_rows(rng.standard_normal((12, 16)))
    numbers = np.concatenate([np.arange(700), [699, 0, 350, 350]])[::-1]
    assert np.array_equal(
        score_documents(query, store, numbers), gathered_scores(query, store, numbers)
    )
    # the table route too, on a store whose rows repeat 300 distinct ones
    coded = coded_store(700, 16, 300, seed=7, max_len=16)
    assert np.array_equal(
        score_documents(query, coded, numbers), gathered_scores(query, coded, numbers)
    )


def test_blas_premise_of_the_in_place_route():
    # score_documents multiplies the store's whole table in place, and
    # scores a candidate's rows from that product, only because each entry
    # of a gemm above the floor has the same bits at any row offset, in a
    # product of any height and whichever matrix holds the row; a BLAS that
    # breaks this would otherwise show up as a pinned-output mismatch far
    # from its cause
    rng = np.random.default_rng(77)
    # wide dims get a shorter matrix, so the test stays small in memory
    for dim in (3, 16, 17, 64, 128, 768):
        total_rows = 30000 if dim <= 64 else 6000
        matrix = rng.standard_normal((total_rows, dim)).astype(np.float32)
        for distinct in (2, 9, 32):
            rows = rng.standard_normal((distinct, dim)).astype(np.float32)
            height = -(-mve.retrieval._IN_PLACE_MIN_PRODUCT // distinct)
            if total_rows == 30000:
                whole = matrix @ rows.T
                for offset in (1, 3, 17, 1001, 30000 - height - 7):
                    for extra in (0, 5, 2 * height):
                        part = slice(offset, min(offset + height + extra, 30000))
                        assert np.array_equal(matrix[part] @ rows.T, whole[part]), (
                            "BLAS premise of the in-place MaxSim route broken: a slice's "
                            f"product differs from the product's slice (dim {dim}, "
                            f"{distinct} rows, rows {part.start}:{part.stop})"
                        )
            # a table whose rows repeat: the rows of a table just above the
            # floor, and of the desk store's 1,751, repeated at odd offsets of a larger
            # matrix just above the floor and of every row of the matrix
            for table_rows in (height, height + 13, 1751):
                table = matrix[:table_rows]
                products = table @ rows.T
                for total in (max(height, table_rows + 1) + 1, total_rows):
                    codes = rng.integers(0, table_rows, size=total)
                    codes[1::2] = np.arange(total // 2) % table_rows
                    assert np.array_equal(table[codes] @ rows.T, products[codes]), (
                        "BLAS premise of the table MaxSim route broken: a row's "
                        f"product differs in another matrix (dim {dim}, {distinct} "
                        f"rows, table of {table_rows}, {total} rows)"
                    )


@pytest.mark.parametrize("bad", [[-1], [3], [0, 7], [1.7], [1.0], [True], [[0, 1]]])
def test_score_documents_rejects_bad_doc_numbers(bad):
    store = random_store(3, 8, seed=3)
    query = query_from_rows(np.random.default_rng(4).standard_normal((3, 8)))
    with pytest.raises(InvalidInputError, match="doc number"):
        score_documents(query, store, np.array(bad))
    assert score_documents(query, store, np.array([], dtype=np.int64)).shape == (0,)


def test_score_documents_and_rerank_reject_a_query_of_another_dimension():
    store = random_store(3, 3, seed=3)
    query = query_from_rows(np.random.default_rng(4).standard_normal((3, 4)))
    for numbers in ([0, 2], []):
        with pytest.raises(InvalidInputError, match="dimension mismatch: query 4, store 3"):
            score_documents(query, store, np.array(numbers, dtype=np.int64))
    with pytest.raises(InvalidInputError, match="dimension mismatch: query 4, store 3"):
        rerank(CandidateSet(store, np.array([0, 2])), query, store, k=2)


def test_maxsim_on_a_contextual_store_keeps_the_gathered_bits(
    contextual_planted_engine, small_planted, monkeypatch
):
    # every stored vector differs from every other, so the table is the
    # store and dense sets multiply all of it in place
    engine = contextual_planted_engine
    store = engine.index.store
    assert len(np.unique(store.table, axis=0)) == len(store.table) == store.num_embeddings
    rng = np.random.default_rng(21)
    routes = spy_routes(monkeypatch)
    for _, text in small_planted.queries:
        query = engine.encoder.encode(text)
        _, first = engine.search(text, p=1)
        _, union = engine.search(text, p=engine.config.q_len)
        for numbers in (
            np.arange(store.num_docs),  # dense
            np.flatnonzero(rng.random(store.num_docs) < 0.8),
            first.numbers,  # sparse
            union.numbers,
            rng.permutation(store.num_docs)[:40],
        ):
            expected = gathered_scores(query, store, numbers)
            assert score_documents(query, store, numbers).tobytes() == expected.tobytes()
    assert set(routes) == {"table", "gather"}
