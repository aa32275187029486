"""Bit-identity guards for the bulk build stages.

``tokenize``, ``embed_corpus``, ``train_centroids``, the corpus tokenizer
and the lexicon counter were rewritten to work over whole strings, tables
and arrays instead of one character, token, centroid or document at a time.
The ``reference_*`` functions below are verbatim copies of the per-item
versions they replaced; the rewritten stages must return exactly what these
return, bit for bit, and raise what these raise.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mve.index
from mve.core import (
    FIRST_WORDPIECE_ID,
    OOV_ID_BASE,
    DocumentEntry,
    Lexicon,
    LexiconEntry,
    Token,
    TokenKind,
    Vocabulary,
    count_lexicon,
    embed_corpus,
    embed_tokens,
    tokenize,
    tokenize_flat,
)
from mve.engine import Engine, EngineConfig, build_engine
from mve.errors import InvalidConfigError, InvalidInputError
from mve.index import (
    Centroids,
    EmbeddingStore,
    _kmeans_pp_init,
    _normalize_rows,
    build_ivf,
    default_n_list,
    train_centroids,
)

from conftest import coded_store, random_store

_SEED_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Reference copies of the per-item stages
# ---------------------------------------------------------------------------


def reference_tokenize(text: str) -> list[str]:
    words = []
    for chunk in text.lower().split():
        word = "".join(c for c in chunk if not unicodedata.category(c).startswith("P"))
        if word:
            words.append(word)
    return words


def reference_embed_corpus(pairs, seed, dim):
    ids: dict[str, int] = {}
    entries: list[DocumentEntry] = []
    for doc_id, text in pairs:
        words = reference_tokenize(text)
        if not words:
            raise InvalidInputError(f"document {doc_id!r} has no tokens")
        token_ids = tuple(ids.setdefault(w, FIRST_WORDPIECE_ID + len(ids)) for w in words)
        tokens = [
            Token(tid, w, TokenKind.WORDPIECE, pos)
            for pos, (tid, w) in enumerate(zip(token_ids, words))
        ]
        entries.append(DocumentEntry(doc_id, embed_tokens(tokens, seed, dim), token_ids))
    return entries, Vocabulary(ids)


def reference_tokenize_corpus(pairs):
    ids: dict[str, int] = {}
    id_lists: list[tuple[str, tuple[int, ...]]] = []
    for doc_id, text in pairs:
        words = tokenize(text)
        if not words:
            raise InvalidInputError(f"document {doc_id!r} has no tokens")
        id_lists.append(
            (doc_id, tuple(ids.setdefault(w, FIRST_WORDPIECE_ID + len(ids)) for w in words))
        )
    return id_lists, Vocabulary(ids)


def reference_build_lexicon_from_ids(docs):
    if not docs:
        raise InvalidInputError("cannot build a lexicon from an empty corpus")
    cf: dict[int, int] = {}
    df: dict[int, int] = {}
    num_tokens = 0
    for doc_id, token_ids in docs:
        num_tokens += len(token_ids)
        for token_id in token_ids:
            if token_id < FIRST_WORDPIECE_ID:
                raise InvalidInputError(
                    f"document {doc_id!r} contains reserved token id {token_id}"
                )
            cf[token_id] = cf.get(token_id, 0) + 1
        for token_id in set(token_ids):
            df[token_id] = df.get(token_id, 0) + 1
    entries = {tid: LexiconEntry(cf=cf[tid], df=df[tid]) for tid in cf}
    return Lexicon(entries=entries, num_docs=len(docs), num_tokens=num_tokens)


def reference_kmeans_pp_init(sample, n_list, rng):
    n = sample.shape[0]
    chosen = [int(rng.integers(n))]
    best_sim = sample @ sample[chosen[0]]
    while len(chosen) < n_list:
        weights = np.maximum(2.0 - 2.0 * best_sim.astype(np.float64), 0.0)
        weights[chosen] = 0.0
        total = weights.sum()
        if total <= 0.0:
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


def reference_train_centroids(store, sample_fraction, n_list, iterations, seed):
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

    centroids = reference_kmeans_pp_init(sample, n_list, rng)
    history: list[float] = []
    for _ in range(iterations):
        sims = sample @ centroids.T
        assign = np.argmax(sims, axis=1)  # first maximum = lowest centroid index
        assigned_sim = sims[np.arange(sample_size), assign].astype(np.float64)
        history.append(float(assigned_sim.mean()))

        sums = np.zeros((n_list, sample.shape[1]), dtype=np.float64)
        np.add.at(sums, assign, sample.astype(np.float64))
        counts = np.bincount(assign, minlength=n_list)
        for c in np.flatnonzero(counts > 0):
            mean = sums[c] / counts[c]
            norm = np.linalg.norm(mean)
            if norm > 0.0:  # zero-norm mean keeps the previous centroid
                centroids[c] = (mean / norm).astype(np.float32)

        stealable = assigned_sim.copy()
        for c in np.flatnonzero(counts == 0):
            victim = int(np.argmin(stealable))
            centroids[c] = sample[victim]
            stealable[victim] = np.inf
    return Centroids(vectors=centroids, objective_history=tuple(history))


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u200a\u2028\u2029\u202f\u205f\u3000"
PUNCTUATION = ".,;:!?'\"()[]{}-_/\\@#%&*«»¡¿—–…、。・՝！"
SPECIAL_PIECES = [
    *WHITESPACE,
    *PUNCTUATION,
    "İ",  # lowercases to i and a combining dot above
    "ß",
    "ẞ",  # lowercases to ß
    "ǅ",  # titlecase digraph
    "Σ",  # its lowercase depends on the next letter
    "\u0301",  # combining acute
    "\u0307",  # combining dot above
    "...", "--", "«»", "!?", "'…'",  # chunks of punctuation only
    "Don't", "U.S.A.", "café", "ÉCOLE",
]


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(st.characters(), st.sampled_from(SPECIAL_PIECES)), max_size=40
    ).map("".join)
)
def test_tokenize_equals_the_per_character_reference(text):
    assert tokenize(text) == reference_tokenize(text)


def test_no_code_point_is_both_whitespace_and_punctuation():
    # Deleting punctuation before the whitespace split is exact because of
    # these two facts; the scan covers every code point.
    for code_point in range(sys.maxunicode + 1):
        char = chr(code_point)
        lowered = char.lower()
        if char.isspace():
            assert not unicodedata.category(char).startswith("P"), hex(code_point)
            assert lowered.isspace(), hex(code_point)
        else:
            assert lowered.split() == [lowered], hex(code_point)


# ---------------------------------------------------------------------------
# embed_corpus
# ---------------------------------------------------------------------------


def assert_same_embedding(pairs, seed, dim):
    got_entries, got_vocab = embed_corpus(pairs, seed, dim)
    want_entries, want_vocab = reference_embed_corpus(pairs, seed, dim)
    assert list(got_vocab.surfaces()) == list(want_vocab.surfaces())
    assert len(got_entries) == len(want_entries)
    for got, want in zip(got_entries, want_entries):
        assert got.doc_id == want.doc_id
        assert got.token_ids == want.token_ids
        assert got.embeddings.dtype == want.embeddings.dtype == np.float32
        assert got.embeddings.shape == want.embeddings.shape
        assert got.embeddings.tobytes() == want.embeddings.tobytes()


def test_embed_corpus_equals_the_per_token_reference_on_the_planted_fixture(small_planted):
    assert_same_embedding(small_planted.corpus, seed=11, dim=32)


def test_embed_corpus_equals_the_per_token_reference_with_unicode_punctuation():
    pairs = [
        ("d1", "«Bonjour», dit-il… ÉCOLE — école!"),
        ("d2", "Straße\u3000STRASSE ẞ İstanbul ǅungla"),
        ("d3", "... don't\x1cstop\x85now ¿qué? 、。 cafe\u0301"),
        ("d4", "ΣΟΦΙΑ σοφια, bonjour dit il"),
    ]
    for seed, dim in ((0, 4), (7, 17), (2**40 + 3, 64)):
        assert_same_embedding(pairs, seed, dim)


def test_embed_corpus_raises_what_the_reference_raises():
    for pairs in ([("d1", "fine"), ("d2", "!!! ...")], [("d1", "\u3000…")]):
        with pytest.raises(InvalidInputError) as got:
            embed_corpus(pairs, seed=1, dim=4)
        with pytest.raises(InvalidInputError) as want:
            reference_embed_corpus(pairs, seed=1, dim=4)
        assert str(got.value) == str(want.value)
    assert embed_corpus([], seed=1, dim=4)[0] == []


# ---------------------------------------------------------------------------
# tokenize_flat and count_lexicon
# ---------------------------------------------------------------------------

UNICODE_CORPUS = [
    ("d1", "«Bonjour», dit-il… ÉCOLE — école!"),
    ("d2", "Straße\u3000STRASSE ẞ İstanbul ǅungla"),
    ("d3", "... don't\x1cstop\x85now ¿qué? 、。 cafe\u0301"),
    ("d4", "ΣΟΦΙΑ σοφια, bonjour dit il"),
]


def outcome(call):
    """``("ok", result)`` or ``("raised", exception type, message)``."""
    try:
        return ("ok", call())
    except InvalidInputError as exc:
        return ("raised", type(exc), str(exc))


def split_flat(token_ids, lengths):
    assert token_ids.dtype == lengths.dtype == np.int64
    assert int(lengths.sum()) == token_ids.size
    return [tuple(ids.tolist()) for ids in np.split(token_ids, np.cumsum(lengths)[:-1])]


def assert_same_lexicon(got, want):
    assert list(got.entries.items()) == list(want.entries.items())
    assert all(type(t) is int for t in got.entries)
    assert all(type(e.cf) is int and type(e.df) is int for e in got.entries.values())
    assert (got.num_docs, got.num_tokens) == (want.num_docs, want.num_tokens)
    assert type(got.num_tokens) is int


def assert_same_tokens_and_lexicon(pairs):
    got = outcome(lambda: tokenize_flat(pairs))
    want = outcome(lambda: reference_tokenize_corpus(pairs))
    if want[0] == "raised":
        assert got == want
        return
    token_ids, lengths, vocab = got[1]
    id_lists, want_vocab = want[1]
    surfaces = list(vocab.surfaces())
    assert surfaces == list(want_vocab.surfaces())
    assert [vocab.id_of(w) for w in surfaces] == [want_vocab.id_of(w) for w in surfaces]
    if not pairs:
        assert token_ids.size == lengths.size == 0
    else:
        assert split_flat(token_ids, lengths) == [ids for _, ids in id_lists]
    doc_ids = [doc_id for doc_id, _ in pairs]
    got_lexicon = outcome(lambda: count_lexicon(token_ids, lengths, doc_ids))
    want_lexicon = outcome(lambda: reference_build_lexicon_from_ids(id_lists))
    if want_lexicon[0] == "raised":
        assert got_lexicon == want_lexicon
    else:
        assert_same_lexicon(got_lexicon[1], want_lexicon[1])


def test_flat_build_equals_the_per_document_reference_on_the_planted_fixture(small_planted):
    assert_same_tokens_and_lexicon(small_planted.corpus)


def test_flat_build_equals_the_per_document_reference_with_unicode_punctuation():
    assert_same_tokens_and_lexicon(UNICODE_CORPUS)


def test_flat_build_raises_what_the_reference_raises():
    for pairs in (
        [],
        [("d1", "fine"), ("d2", "!!! ..."), ("d3", "\u3000…")],
        [("d1", "\u3000…")],
    ):
        assert_same_tokens_and_lexicon(pairs)
    assert outcome(lambda: tokenize_flat([("d1", "ok"), ("d2", "?")])) == (
        "raised", InvalidInputError, "document 'd2' has no tokens"
    )
    for corpus in ([], [("d1", "ok"), ("d2", "?")]):
        assert outcome(lambda: build_engine(corpus, EngineConfig())) == outcome(
            lambda: reference_build(corpus, EngineConfig())
        )


WORDS = ["a", "B", "ab", "Ab!", "«ab»", "ß", "SS", "...", "—", "σ", "Σ", "x.y", "z"]


@settings(max_examples=200)
@given(st.lists(st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join), max_size=12))
def test_flat_build_equals_the_per_document_reference_on_generated_corpora(texts):
    assert_same_tokens_and_lexicon([(f"d{i}", text) for i, text in enumerate(texts)])


SPARSE_IDS = [0, 1, 2, 3, 4, 9, OOV_ID_BASE + 7, 2**62, 2**63 - 1]


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from(SPARSE_IDS), min_size=1, max_size=8), max_size=10))
def test_count_lexicon_equals_the_reference_on_generated_ids(id_lists):
    # reserved ids 0 and 1 raise for the first document that holds one;
    # sparse ids up to the int64 limit are counted like dense ones
    docs = [(f"d{i}", tuple(ids)) for i, ids in enumerate(id_lists)]
    token_ids = np.array([t for ids in id_lists for t in ids], dtype=np.int64)
    lengths = np.array([len(ids) for ids in id_lists], dtype=np.int64)
    got = outcome(lambda: count_lexicon(token_ids, lengths, [d for d, _ in docs]))
    want = outcome(lambda: reference_build_lexicon_from_ids(docs))
    if want[0] == "raised":
        assert got == want
    else:
        assert_same_lexicon(got[1], want[1])


def assert_same_engine(got, want):
    assert got.config == want.config
    assert list(got.vocab.surfaces()) == list(want.vocab.surfaces())
    assert_same_lexicon(got.lexicon, want.lexicon)
    a, b = got.index.store, want.index.store
    assert a.doc_ids == b.doc_ids
    assert a.doc_offsets.tobytes() == b.doc_offsets.tobytes()
    assert a.vectors.tobytes() == b.vectors.tobytes()
    assert got.index.centroids.vectors.tobytes() == want.index.centroids.vectors.tobytes()
    assert [x.tobytes() for x in got.index.lists] == [x.tobytes() for x in want.index.lists]


def reference_build(corpus, config, dump_docs=None):
    """The per-document ``build_engine``: the store from per-document blocks
    and the lexicon from per-document id lists."""
    id_lists, vocab = reference_tokenize_corpus(corpus)
    lexicon = reference_build_lexicon_from_ids(id_lists)
    if dump_docs is None:
        entries, _ = reference_embed_corpus(corpus, config.seed, config.dim)
        dump_docs = [(doc.doc_id, doc.embeddings) for doc in entries]
    store = EmbeddingStore.from_blocks(dump_docs)
    config = dataclasses.replace(config, dim=store.dim)
    if config.n_list is None:
        sample_size = min(
            store.num_embeddings, math.ceil(config.sample_fraction * store.num_embeddings)
        )
        config = dataclasses.replace(
            config, n_list=min(default_n_list(store.num_embeddings), sample_size)
        )
    centroids = train_centroids(
        store, config.sample_fraction, config.n_list, config.iterations, config.seed
    )
    return Engine(config, vocab, lexicon, build_ivf(store, centroids))


@pytest.mark.parametrize("with_dump", [False, True])
def test_build_engine_equals_the_per_document_reference(small_planted, with_dump):
    corpus = small_planted.corpus
    config = EngineConfig(dim=16, q_len=small_planted.q_len, n_list=None, seed=5)
    dump_docs = None
    if with_dump:
        rng = np.random.default_rng(8)
        dump_docs = [
            (doc_id, rng.standard_normal((1 + i % 4, 24)).astype(np.float32))
            for i, (doc_id, _) in enumerate(corpus)
        ]
    assert_same_engine(
        build_engine(corpus, config, dump_docs), reference_build(corpus, config, dump_docs)
    )


# ---------------------------------------------------------------------------
# train_centroids
# ---------------------------------------------------------------------------


def assert_same_centroids(store, sample_fraction, n_list, iterations, seed):
    got = train_centroids(store, sample_fraction, n_list, iterations, seed)
    want = reference_train_centroids(store, sample_fraction, n_list, iterations, seed)
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert got.objective_history == want.objective_history


@pytest.mark.parametrize(
    "num_docs, dim, sample_fraction, n_list, seed",
    [
        (40, 3, 1.0, 4, 0),
        (200, 8, 0.5, 16, 1),
        (300, 17, 0.7, 9, 2),
        (400, 32, 1.0, 20, 3),
        (500, 64, 0.3, 24, 4),
        (600, 64, 1.0, 60, 5),
        (150, 128, 1.0, 12, 6),
    ],
)
def test_train_centroids_equals_the_per_centroid_reference(num_docs, dim, sample_fraction, n_list, seed):
    store = random_store(num_docs, dim, seed=seed + 100)
    assert_same_centroids(store, sample_fraction, n_list, 12, seed)


def test_train_centroids_equals_the_reference_on_the_planted_engine(small_planted_engine):
    store = small_planted_engine.index.store
    for seed in (11, 12, 13):
        assert_same_centroids(store, 0.5, 16, 15, seed)


@pytest.mark.parametrize(
    "num_docs, dim, num_codes, sample_fraction, n_list, seed",
    [
        (600, 16, 600, 0.5, 16, 1),  # 600 distinct rows x 16 centroids: over the floor
        (600, 16, 600, 0.5, 8, 2),  # 600 x 8: under the floor, the whole sample's block
        (900, 3, 300, 1.0, 30, 3),
        (700, 64, 1751, 0.4, 40, 4),
        (300, 17, 50, 1.0, 12, 5),  # 50 x 12: under the floor
        (1500, 8, 9000, 1.0, 1, 6),  # one centroid runs gemv: the whole sample's block
    ],
)
def test_train_centroids_equals_the_reference_on_stores_whose_rows_repeat(
    num_docs, dim, num_codes, sample_fraction, n_list, seed
):
    store = coded_store(num_docs, dim, num_codes, seed=seed + 200)
    total = store.num_embeddings
    rng = np.random.default_rng(seed & _SEED_MASK)
    picked = rng.choice(total, size=min(total, math.ceil(sample_fraction * total)), replace=False)
    distinct = len(np.unique(store.codes[picked]))
    assert distinct < len(picked)  # rows repeat within the sample
    over = distinct * n_list >= mve.index._STABLE_PRODUCT_FLOOR
    assert over == (seed in (1, 3, 4, 6))
    assert_same_centroids(store, sample_fraction, n_list, 12, seed)


@pytest.mark.parametrize(
    "n, dim, n_list, seed", [(50, 3, 8, 0), (400, 16, 40, 1), (3000, 64, 244, 2)]
)
def test_kmeans_pp_init_equals_the_reference(n, dim, n_list, seed):
    rng = np.random.default_rng(seed)
    sample = _normalize_rows(rng.standard_normal((n, dim)).astype(np.float32))
    got = _kmeans_pp_init(sample, n_list, np.random.default_rng(seed + 10))
    want = reference_kmeans_pp_init(sample, n_list, np.random.default_rng(seed + 10))
    assert got.tobytes() == want.tobytes()
    # five copies of two points: once both are chosen every weight is 0, and
    # the rest are the lowest indexes not yet chosen
    twice = np.repeat(sample[:2], 5, axis=0)
    for seed in range(6):
        got = _kmeans_pp_init(twice, 6, np.random.default_rng(seed))
        want = reference_kmeans_pp_init(twice, 6, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()


def single_vector_store(rows):
    vectors = np.asarray(rows, dtype=np.float32)
    n = len(vectors)
    return EmbeddingStore(vectors, np.arange(n), [1] * n, [f"d{i}" for i in range(n)])


def test_train_centroids_equals_the_reference_when_a_cluster_empties():
    # 10 copies of one point and 2 of another leave a third cluster empty, so
    # the update re-seeds it with the least similar sample point
    store = single_vector_store([[1, 0, 0, 0]] * 10 + [[0, 1, 0, 0]] * 2)
    for seed in range(4):
        assert_same_centroids(store, 1.0, 3, 4, seed)


def test_train_centroids_equals_the_reference_on_a_zero_norm_mean():
    # one cluster over a point and its opposite has the mean 0: the centroid
    # keeps its previous value
    store = single_vector_store([[0.6, 0.8, 0.0], [-0.6, -0.8, 0.0]])
    got = train_centroids(store, 1.0, 1, 3, seed=0)
    assert got.vectors.tolist() in (store.vectors[:1].tolist(), store.vectors[1:].tolist())
    assert_same_centroids(store, 1.0, 1, 3, 0)
    store = single_vector_store([[1, 0], [-1, 0], [0, 1], [0, 1]])
    for seed in range(4):
        assert_same_centroids(store, 1.0, 2, 5, seed)


def test_train_centroids_equals_the_reference_where_the_norm_decides_a_tie():
    # Two unit vectors, the second the first with coordinates 0 and 5
    # swapped and 1 to 3 negated, so that one cluster's mean has the float32
    # midpoint 0.33912791... at coordinates 0 and 5 and a squared norm within
    # an ulp of 1/4. The float32 rounding of those coordinates then depends
    # on the last bit of the float64 norm: a norm summed in another order
    # (np.linalg.norm(means, axis=1) is pairwise) rounds them the other way.
    first = np.array(
        [0.33912793, 0.8660254, 0.0001640803, 5.8643632e-08,
         3.4838384e-05, 0.3391279, 0.1413666, 1.2220384e-08],
        dtype=np.float32,
    )
    second = first * np.array([1, -1, -1, -1, 1, 1, 1, 1], dtype=np.float32)
    second[[0, 5]] = second[[5, 0]]
    store = single_vector_store([first, second])
    assert (_normalize_rows(store.vectors) == store.vectors).all()
    for iterations in (1, 3):
        assert_same_centroids(store, 1.0, 1, iterations, 0)


def computed_rounds(monkeypatch, store, sample_fraction, n_list, iterations, seed):
    """``train_centroids`` with the cluster sizes of each round it computes,
    taken from its one ``np.bincount`` without weights per round."""
    sizes = []
    real = np.bincount

    def counted(x, weights=None, minlength=0):
        result = real(x, weights=weights, minlength=minlength)
        if weights is None:
            sizes.append(result)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(np, "bincount", counted)
        centroids = train_centroids(store, sample_fraction, n_list, iterations, seed)
    return centroids, sizes


def assert_stops_at_the_first_fixed_point(monkeypatch, store, sample_fraction, n_list, seed):
    """Training for many rounds computes ``r`` rounds, fewer than asked:
    round ``r`` returned its input, so ``r - 1`` reference rounds give the
    final centroids and ``r - 2`` do not."""
    iterations = 40
    got, sizes = computed_rounds(monkeypatch, store, sample_fraction, n_list, iterations, seed)
    rounds = len(sizes)
    assert 2 <= rounds < iterations
    final = reference_train_centroids(store, sample_fraction, n_list, iterations, seed)
    assert got.vectors.tobytes() == final.vectors.tobytes()
    assert got.objective_history == final.objective_history
    last_moved = reference_train_centroids(store, sample_fraction, n_list, rounds - 1, seed)
    assert last_moved.vectors.tobytes() == final.vectors.tobytes()
    if rounds > 2:
        before = reference_train_centroids(store, sample_fraction, n_list, rounds - 2, seed)
        assert before.vectors.tobytes() != final.vectors.tobytes()
    return sizes


def test_train_centroids_stops_at_its_fixed_point_on_the_planted_store(
    small_planted_engine, monkeypatch
):
    store = small_planted_engine.index.store
    for iterations in (1, 3, 4, 5, 40):
        assert_same_centroids(store, 0.5, 16, iterations, 11)
    assert_stops_at_the_first_fixed_point(monkeypatch, store, 0.5, 16, 11)


def test_train_centroids_stops_at_its_fixed_point_after_a_cluster_empties(monkeypatch):
    # Unit vectors at these angles (degrees), seeded at -2.2, -1 and 3.2:
    # the first round keeps {-1, 1} together, but the means it moves the
    # outer centroids to (-1.87 and 1.78) take -1 and 1 away in the second
    # round, whose empty cluster is re-seeded before training settles
    angles = np.radians([-2.2, -1.7, -1.7, -1.0, 1.0, 1.2, 1.3, 1.4, 3.2])
    store = single_vector_store(np.stack([np.cos(angles), np.sin(angles)], axis=1))
    for iterations in (1, 2, 3, 4, 5, 40):
        assert_same_centroids(store, 1.0, 3, iterations, 56)
    sizes = assert_stops_at_the_first_fixed_point(monkeypatch, store, 1.0, 3, 56)
    assert (sizes[0] > 0).all() and (sizes[1] == 0).any()


def test_train_centroids_compares_the_centroids_after_the_re_seed():
    # four lists over three distinct points: the update leaves every centroid
    # as it was, and only the re-seed of the empty list (a copy of (1, 0))
    # moves a centroid, to the first sample point
    store = single_vector_store([[0, 1], [1, 0], [0, -1], [1, 0]])
    for seed in range(4):
        for iterations in (1, 2, 3, 5):
            assert_same_centroids(store, 1.0, 4, iterations, seed)
