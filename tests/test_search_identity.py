"""Identity guards for the partial orders and the single check of ``search``.

``search`` picks each probe's lists by sorting only the centroid scores at
or above the ``n_probe``-th (``_best_first_head``), keeps each probe's k'
hits as partitioned keys it never sorts, checks the probe arguments once per
query, drops repeated doc numbers by marking them in an array over the
store, and orders only the candidates that can reach its top k. The ``reference_*`` functions below are the full-sort path these
replaced: a stable argsort of every centroid score, hits sorted as
``ann_candidates`` returns them, a sort-based dedup, float64 sums over
strided columns (``gathered_scores``), and ``_best_first`` over every
candidate. Every ranking,
candidate set, hit set and error must be the reference's.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mve.retrieval
from mve.errors import InvalidConfigError, InvalidInputError
from mve.index import build_ivf, train_centroids
from mve.retrieval import (
    CandidateSet,
    PruningConfig,
    Strategy,
    _best_first,
    _best_first_head,
    _key_ids,
    _probe,
    order_embeddings,
    search,
)

from conftest import count_ann_calls
from test_probe_identity import (
    reference_ann_candidates,
    reference_candidate_numbers,
    store_with_duplicates,
)
from test_retrieval import gathered_scores

# ---------------------------------------------------------------------------
# The reference search
# ---------------------------------------------------------------------------


def reference_search(engine, text, strategy, p):
    """``(entries, candidate numbers, hits)`` of one search by the full
    sorts: each distinct vector among the first ``p`` positions probed once,
    its hits sorted, and every candidate ordered."""
    config = engine.pruning(strategy=strategy, p=p)
    index, store = engine.index, engine.index.store
    query = engine.encoder.encode(text)
    ordering = order_embeddings(query, engine.lexicon, config.strategy)
    slots = query.distinct_rows[1].tolist()
    first_position: dict[int, int] = {}
    for position in ordering[: config.p]:
        first_position.setdefault(slots[position], position)
    hits = [
        reference_ann_candidates(index, query.embeddings[position], config.k_prime, config.n_probe)[0]
        for position in first_position.values()
    ]
    numbers = reference_candidate_numbers(store, store.doc_of[np.concatenate(hits)])
    scores = gathered_scores(query, store, numbers)
    order = _best_first(scores)[: engine.config.k]
    entries = tuple(
        (store.doc_ids[n], s) for n, s in zip(numbers[order].tolist(), scores[order].tolist())
    )
    return entries, numbers, hits


def spy_probe_keys(monkeypatch):
    """Record the keys every ``_probe`` call returns."""
    returned = []
    real = mve.retrieval._probe

    def spied(index, phi, k_prime, n_probe):
        keys = real(index, phi, k_prime, n_probe)
        returned.append(keys.copy())
        return keys

    monkeypatch.setattr(mve.retrieval, "_probe", spied)
    return returned


@pytest.mark.parametrize(
    "engine_name",
    [
        "contextual_planted_engine",
        "small_planted_engine",
        "padded_planted_engine",
        "wide_planted_engine",
    ],
)
def test_search_equals_the_reference_search(engine_name, request, monkeypatch):
    engine = request.getfixturevalue(engine_name)
    fixture = request.getfixturevalue(
        "wide_planted" if engine_name == "wide_planted_engine" else "small_planted"
    )
    store = engine.index.store
    if engine_name == "contextual_planted_engine":
        # identity codes: the table is every embedding, no two alike
        assert np.array_equal(store.codes, np.arange(store.num_embeddings))
        assert len(np.unique(store.table, axis=0)) == store.num_embeddings
    probes = spy_probe_keys(monkeypatch)
    q_len = engine.config.q_len
    for _, text in fixture.queries:
        for strategy, p in ((Strategy.ICF, 1), (Strategy.ICF, q_len), (Strategy.FIRST, 3)):
            probes.clear()
            ranking, candidates = engine.search(text, strategy=strategy, p=p)
            entries, numbers, hits = reference_search(engine, text, strategy, p)
            assert ranking.entries == entries
            assert candidates.numbers.tobytes() == numbers.tobytes()
            # each probe keeps the reference's hits, in an order of its own
            assert len(probes) == len(hits)
            for keys, want in zip(probes, hits):
                assert keys.dtype == np.uint64
                assert np.sort(_key_ids(keys)).tolist() == np.sort(want).tolist()
                assert _key_ids(np.sort(keys)).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Each partial order against its full sort
# ---------------------------------------------------------------------------

EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324, 3.4e38, -3.4e38)


@st.composite
def tied_scores(draw, dtype):
    """Scores drawn from a small pool, so ties straddle every cut, with
    every edge value (±0.0, ±inf, NaN) in reach."""
    pool = draw(
        st.lists(
            st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=32)), min_size=1, max_size=8
        )
    )
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=300))
    scores = np.array([pool[i] for i in picks], dtype=dtype)
    n = draw(st.integers(1, len(scores) + 3))  # n >= len(scores) orders every score
    return scores, n


@settings(max_examples=600, deadline=None)
@given(tied_scores(np.float32))
def test_probe_list_choice_equals_the_stable_argsort(inputs):
    sims, n_probe = inputs
    want = np.argsort(-sims, kind="stable")[:n_probe]
    got = _best_first_head(sims, n_probe)
    assert got.tolist() == want.tolist()


@settings(max_examples=600, deadline=None)
@given(tied_scores(np.float64))
def test_rerank_order_equals_the_full_best_first(inputs):
    scores, k = inputs
    want = _best_first(scores)[:k]
    assert _best_first_head(scores, k).tolist() == want.tolist()


def test_partial_orders_fall_back_when_the_cut_is_nan():
    scores = np.array([1.0, math.nan, -0.0, math.nan, 0.0, math.nan])
    # the 4th best is NaN, so no cut bounds the scores ahead of it
    for n in range(1, 8):
        want = np.argsort(-scores, kind="stable")[:n]
        assert _best_first_head(scores, n).tolist() == want.tolist()
        assert _best_first_head(scores.astype(np.float32), n).tolist() == want.tolist()
    assert _best_first_head(scores, 4).tolist() == [0, 2, 4, 1]


@pytest.fixture(scope="module")
def tied_index():
    """An index over a store whose 600 rows repeat 40 vectors of dim 17,
    so probe scores tie across lists and across the k' cut."""
    store = store_with_duplicates(17, seed=40, coded=True)
    return build_ivf(store, train_centroids(store, 1.0, 8, 10, seed=41))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-30, 1e18, 1e37, 3e38]),
    copy_row=st.booleans(),
    k_prime=st.integers(1, 620),
    n_probe=st.integers(1, 8),
)
def test_probe_hits_equal_the_reference_as_a_set(tied_index, seed, scale, copy_row, k_prime, n_probe):
    """A large ``scale`` overflows the dot products to ±inf and NaN, both
    in the centroid scores and in the scanned rows' scores."""
    store = tied_index.store
    rng = np.random.default_rng(seed)
    base = store.vectors[rng.integers(store.num_embeddings)] if copy_row else rng.standard_normal(17)
    phi = np.clip(np.asarray(base, dtype=np.float64) * scale, -3e38, 3e38).astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        want, _ = reference_ann_candidates(tied_index, phi, k_prime, n_probe)
        keys = _probe(tied_index, phi, k_prime, n_probe)
    assert sorted(_key_ids(keys).tolist()) == sorted(want.tolist())
    assert _key_ids(np.sort(keys)).tobytes() == want.tobytes()


def test_probe_hits_equal_the_reference_when_scores_overflow(tied_index):
    # unit centroids overflow to ±inf only, which ties them at the list cut;
    # the stored rows are longer, so their scores reach NaN as well
    store = tied_index.store
    rng = np.random.default_rng(42)
    seen_inf_centroid = seen_nan_hits = False
    for _ in range(40):
        phi = np.clip(rng.standard_normal(17) * 3e38, -3e38, 3e38).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"):
            seen_inf_centroid |= bool(np.isinf(tied_index.centroids.vectors @ phi).any())
            seen_nan_hits |= bool(np.isnan(store.vectors @ phi).any())
            for n_probe in range(1, tied_index.n_list + 1):
                for k_prime in (1, 50, 599, 601):
                    want, _ = reference_ann_candidates(tied_index, phi, k_prime, n_probe)
                    keys = _probe(tied_index, phi, k_prime, n_probe)
                    assert sorted(_key_ids(keys).tolist()) == sorted(want.tolist())
    assert seen_inf_centroid and seen_nan_hits


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 99), max_size=300))
def test_marked_dedup_equals_the_sort_dedup(numbers):
    """From no numbers to three per document of a 100-document store."""
    store = store_with_duplicates(3, seed=8)
    numbers = np.array(numbers, dtype=np.int64)
    want = reference_candidate_numbers(store, numbers)
    got = CandidateSet(store, numbers).numbers
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert not got.flags.writeable


# ---------------------------------------------------------------------------
# One check per query
# ---------------------------------------------------------------------------


def test_search_checks_once_and_keeps_every_error(padded_planted_engine, small_planted, monkeypatch):
    engine = padded_planted_engine
    index = engine.index
    text = small_planted.queries[0][1]
    calls = count_ann_calls(monkeypatch)

    wider = dataclasses.replace(engine.encoder, dim=engine.encoder.dim + 1)
    message = f"query embedding has shape ({index.dim + 1},), expected ({index.dim},)"
    for p in (1, engine.config.q_len):
        config = engine.pruning(strategy=Strategy.ICF, p=p)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            search(text, index, engine.lexicon, wider, config, engine.config.k)

    too_wide = PruningConfig(Strategy.ICF, engine.config.q_len, 50, index.n_list + 1)
    message = f"n_probe must be between 1 and n_list={index.n_list}, got {index.n_list + 1}"
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
        search(text, index, engine.lexicon, engine.encoder, too_wide, engine.config.k)
    assert calls == []  # every check runs before the first probe

    # ann_candidates keeps its own checks
    phi = engine.encoder.encode(text).embeddings[0]
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
        mve.retrieval.ann_candidates(index, phi, 50, index.n_list + 1)
    with pytest.raises(InvalidInputError, match=r"^query embedding has shape \(3,\)"):
        mve.retrieval.ann_candidates(index, phi[:3], 50, 1)
    calls.clear()

    query = engine.encoder.encode(text)
    engine.search(text, strategy=Strategy.ICF, p=engine.config.q_len)
    assert len(calls) == len(set(calls)) == len(query.distinct_rows[0])
