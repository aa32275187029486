import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mve.core import (
    CLS_ID,
    FIRST_WORDPIECE_ID,
    MASK_ID,
    OOV_ID_BASE,
    DocumentEntry,
    LexiconEntry,
    QueryEncoder,
    QueryRepresentation,
    Token,
    TokenKind,
    Vocabulary,
    build_lexicon,
    embed_corpus,
    embed_tokens,
    load_lexicon,
    oov_id,
    save_lexicon,
    token_vector,
    tokenize,
    tokenize_and_augment,
)
from mve.errors import InvalidConfigError, InvalidInputError


# ---------------------------------------------------------------------------
# Tokenization and augmentation
# ---------------------------------------------------------------------------


def kinds(tokens):
    return [t.kind for t in tokens]


def surfaces(tokens):
    return [t.surface for t in tokens]


def test_augment_pads_with_masks():
    tokens = tokenize_and_augment("why do zebras have stripes", 8, Vocabulary())
    assert surfaces(tokens) == ["[CLS]", "why", "do", "zebras", "have", "stripes", "[MASK]", "[MASK]"]
    assert kinds(tokens) == [TokenKind.CLS] + [TokenKind.WORDPIECE] * 5 + [TokenKind.MASK] * 2
    assert [t.position for t in tokens] == list(range(8))


def test_augment_exact_fit_needs_no_padding():
    tokens = tokenize_and_augment("a", 2, Vocabulary())
    assert surfaces(tokens) == ["[CLS]", "a"]


def test_augment_truncates_long_queries():
    words = [f"term{i:02d}" for i in range(40)]
    text = " ".join(words)
    # independent count: the first q_len - 1 = 31 words survive, zero masks
    expected = ["[CLS]"] + text.split()[:31]
    tokens = tokenize_and_augment(text, 32, Vocabulary())
    assert surfaces(tokens) == expected
    assert all(k is not TokenKind.MASK for k in kinds(tokens))


def test_augment_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        tokenize_and_augment("   ", 8, Vocabulary())
    with pytest.raises(InvalidConfigError):
        tokenize_and_augment("fine", 1, Vocabulary())


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("Hello, World!") == ["hello", "world"]
    assert tokenize("don't stop") == ["dont", "stop"]
    assert tokenize("... ---") == []
    assert tokenize("a b\tc") == ["a", "b", "c"]  # any unicode whitespace splits


@settings(max_examples=100)
@given(
    text=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=60
    ).filter(lambda s: s.strip()),
    q_len=st.integers(min_value=2, max_value=40),
)
def test_augmented_query_shape_properties(text, q_len):
    tokens = tokenize_and_augment(text, q_len, Vocabulary())
    assert len(tokens) == q_len
    ks = kinds(tokens)
    assert ks[0] is TokenKind.CLS and ks.count(TokenKind.CLS) == 1
    # masks form a contiguous suffix
    tail = ks[len(ks) - ks[::-1].count(TokenKind.MASK):]
    assert all(k is TokenKind.MASK for k in tail)
    assert TokenKind.MASK not in ks[: len(ks) - len(tail)]


# ---------------------------------------------------------------------------
# Deterministic embedder
# ---------------------------------------------------------------------------


def test_embedder_is_bitwise_deterministic():
    vocab = Vocabulary(["zebra"])
    tokens = tokenize_and_augment("zebra zebra", 4, Vocabulary(["zebra"]))
    first = embed_tokens(tokens, seed=42, dim=16)
    second = embed_tokens(tokens, seed=42, dim=16)
    assert first.tobytes() == second.tobytes()
    # same token id -> same vector, independently of position
    assert first[1].tobytes() == first[2].tobytes()
    assert vocab.id_of("zebra") == tokens[1].id


def test_embedder_output_is_unit_norm():
    for token_id in [CLS_ID, MASK_ID, 2, 3, 977, oov_id("unseen")]:
        vector = token_vector(token_id, seed=3, dim=16)
        assert vector.dtype == np.float32
        assert abs(float(np.linalg.norm(vector.astype(np.float64))) - 1.0) < 1e-6


def test_embedder_distinct_tokens_are_not_aligned():
    vocab = Vocabulary(["zebra", "stripes"])
    a = token_vector(vocab.id_of("zebra"), seed=42, dim=16)
    b = token_vector(vocab.id_of("stripes"), seed=42, dim=16)
    # brute-force dot product oracle
    cosine = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    assert abs(cosine) < 0.9


def test_embedder_seed_and_dim_validation():
    with pytest.raises(InvalidConfigError):
        token_vector(5, seed=1, dim=0)
    assert token_vector(5, seed=1, dim=8).shape == (8,)
    assert not np.array_equal(token_vector(5, seed=1, dim=8), token_vector(5, seed=2, dim=8))


def test_oov_ids_are_stable_and_disjoint():
    assert oov_id("nonce") == oov_id("nonce")
    assert oov_id("nonce") >= OOV_ID_BASE
    vocab = Vocabulary(["known"])
    assert vocab.id_of("known") == FIRST_WORDPIECE_ID
    assert vocab.id_of("nonce") == oov_id("nonce")


# ---------------------------------------------------------------------------
# Lexicon
# ---------------------------------------------------------------------------


def doc_from_words(doc_id, words, surface_ids, seed=5, dim=8):
    """A document of ``words``; ``surface_ids`` maps each surface to its id
    and gives a new surface the next free id."""
    ids = tuple(
        surface_ids.setdefault(w, FIRST_WORDPIECE_ID + len(surface_ids)) for w in words
    )
    tokens = [Token(t, w, TokenKind.WORDPIECE, i) for i, (t, w) in enumerate(zip(ids, words))]
    return DocumentEntry(doc_id, embed_tokens(tokens, seed, dim), ids)


def test_build_lexicon_hand_counts():
    ids = {}
    corpus = [doc_from_words("d1", ["a", "b"], ids), doc_from_words("d2", ["a"], ids)]
    vocab = Vocabulary(ids)
    lexicon = build_lexicon(corpus)
    a, b = vocab.id_of("a"), vocab.id_of("b")
    assert (lexicon.cf(a), lexicon.df(a)) == (2, 2)
    assert (lexicon.cf(b), lexicon.df(b)) == (1, 1)
    assert lexicon.num_docs == 2 and lexicon.num_tokens == 3


def test_build_lexicon_single_doc_repeats():
    ids = {}
    lexicon = build_lexicon([doc_from_words("d1", ["x", "x", "x"], ids)])
    x = Vocabulary(ids).id_of("x")
    assert (lexicon.cf(x), lexicon.df(x)) == (3, 1)


def test_build_lexicon_matches_independent_counter():
    rng = np.random.default_rng(123)
    ids = {}
    words = [f"w{i}" for i in range(40)]
    raw_docs = [
        [words[int(j)] for j in rng.integers(0, 40, size=int(rng.integers(1, 12)))]
        for _ in range(100)
    ]
    corpus = [doc_from_words(f"d{i}", ws, ids) for i, ws in enumerate(raw_docs)]
    vocab = Vocabulary(ids)
    lexicon = build_lexicon(corpus)

    # second, independent counting pass over the raw token stream
    cf_oracle = Counter(w for ws in raw_docs for w in ws)
    df_oracle = Counter(w for ws in raw_docs for w in set(ws))
    for word, count in cf_oracle.items():
        assert lexicon.cf(vocab.id_of(word)) == count
        assert lexicon.df(vocab.id_of(word)) == df_oracle[word]
    assert lexicon.num_tokens == sum(len(ws) for ws in raw_docs)
    assert lexicon.num_docs == 100
    # invariants
    assert sum(e.cf for e in lexicon.entries.values()) == lexicon.num_tokens
    for entry in lexicon.entries.values():
        assert 1 <= entry.df <= min(entry.cf, lexicon.num_docs)


def test_build_lexicon_rejects_empty_and_reserved():
    with pytest.raises(InvalidInputError):
        build_lexicon([])
    bad = DocumentEntry("d1", np.ones((1, 4), dtype=np.float32), (CLS_ID,))
    with pytest.raises(InvalidInputError):
        build_lexicon([bad])


def test_build_lexicon_counts_sparse_ids_exactly():
    # a counter that sized an array by the largest id would ask for 2**62
    # slots here and fail at once, before touching any memory
    dim = 4
    docs = [
        DocumentEntry("d1", np.ones((3, dim), dtype=np.float32), (2**62, 5, 2**62)),
        DocumentEntry("d2", np.ones((2, dim), dtype=np.float32), (OOV_ID_BASE + 7, 2**62)),
        DocumentEntry("d3", np.ones((1, dim), dtype=np.float32), (OOV_ID_BASE + 7,)),
    ]
    lexicon = build_lexicon(docs)
    assert list(lexicon.entries.items()) == [
        (2**62, LexiconEntry(cf=3, df=2)),
        (5, LexiconEntry(cf=1, df=1)),
        (OOV_ID_BASE + 7, LexiconEntry(cf=2, df=2)),
    ]
    assert (lexicon.num_docs, lexicon.num_tokens) == (3, 6)


def test_lexicon_unseen_tokens_count_zero():
    lexicon = build_lexicon([doc_from_words("d1", ["a"], {})])
    assert lexicon.cf(oov_id("missing")) == 0
    assert lexicon.df(oov_id("missing")) == 0
    assert lexicon.idf(oov_id("missing")) == pytest.approx(math.log(2.0 / 1.0))


def test_lexicon_tsv_round_trip(tmp_path):
    pairs = [("d1", "apple banana apple"), ("d2", "banana cherry"), ("d3", "apple")]
    entries, vocab = embed_corpus(pairs, seed=1, dim=8)
    lexicon = build_lexicon(entries)
    path = tmp_path / "lexicon.tsv"
    save_lexicon(lexicon, vocab, path)
    loaded, loaded_vocab = load_lexicon(path, num_docs=lexicon.num_docs)
    assert loaded == lexicon
    assert list(loaded_vocab.surfaces()) == list(vocab.surfaces())
    assert loaded_vocab.id_of("cherry") == vocab.id_of("cherry")


def test_load_lexicon_rejects_bad_rows(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("apple\t3\n", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        load_lexicon(path, num_docs=2)
    path.write_text("apple\t1\t2\n", encoding="utf-8")  # df > cf
    with pytest.raises(InvalidInputError):
        load_lexicon(path, num_docs=2)


# ---------------------------------------------------------------------------
# Query encoder and domain type validation
# ---------------------------------------------------------------------------


def test_query_encoder_builds_consistent_representation():
    pairs = [("d1", "alpha beta gamma")]
    entries, vocab = embed_corpus(pairs, seed=9, dim=8)
    encoder = QueryEncoder(vocab=vocab, dim=8, q_len=6, seed=9)
    query = encoder.encode("beta delta")
    assert query.q_len == 6 and query.dim == 8
    assert query.tokens[1].id == vocab.id_of("beta")
    # query embedding of a corpus word equals the document-side embedding
    assert query.embeddings[1].tobytes() == entries[0].embeddings[1].tobytes()


def test_query_representation_validation():
    good = tokenize_and_augment("one two", 4, Vocabulary())
    embeddings = embed_tokens(good, seed=0, dim=4)
    QueryRepresentation(good, embeddings)
    shuffled = (good[1], good[0]) + good[2:]
    with pytest.raises(InvalidInputError):
        QueryRepresentation(shuffled, embeddings)
    with pytest.raises(InvalidInputError):
        QueryRepresentation(good, embeddings[:3])
    bad = embeddings.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        QueryRepresentation(good, bad)


def test_document_entry_validation():
    with pytest.raises(InvalidInputError):
        DocumentEntry("d", np.empty((0, 4), dtype=np.float32), ())
    with pytest.raises(InvalidInputError):
        DocumentEntry("d", np.ones((2, 4), dtype=np.float32), (2,))


def test_embed_corpus_rejects_empty_documents():
    with pytest.raises(InvalidInputError):
        embed_corpus([("d1", "...")], seed=1, dim=4)
