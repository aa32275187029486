import dataclasses

import numpy as np
import pytest

from mve.engine import EngineConfig, build_engine
from mve.evaluation import Qrels

from synthdata import contextual_dump, planted_fixture


TINY_CORPUS = [
    ("d1", "the quick brown fox jumps"),
    ("d2", "zebras have black and white stripes"),
    ("d3", "the sun rises in the east"),
]


@pytest.fixture(scope="session")
def tiny_engine():
    config = EngineConfig(
        dim=16, q_len=8, k=10, k_prime=100, n_list=2, n_probe=2,
        sample_fraction=1.0, iterations=10, seed=7,
    )
    return build_engine(TINY_CORPUS, config)


@pytest.fixture(scope="session")
def small_planted():
    """Planted-relevance corpus small enough for unit tests."""
    return planted_fixture(
        num_docs=400,
        num_queries=8,
        doc_len=10,
        vocab_size=300,
        common_band=(15, 80),
        seed=99,
    )


@pytest.fixture(scope="session")
def small_planted_engine(small_planted):
    config = EngineConfig(
        dim=32,
        q_len=small_planted.q_len,
        k=100,
        k_prime=50,
        n_list=16,
        n_probe=4,
        sample_fraction=0.5,
        iterations=15,
        seed=11,
    )
    return build_engine(small_planted.corpus, config)


@pytest.fixture(scope="session")
def contextual_planted_engine(small_planted, small_planted_engine, tmp_path_factory):
    """The small planted engine's corpus and config, its embeddings from a
    contextual dump (``synthdata.contextual_dump``): every stored vector
    differs from every other, so the store's table is its embeddings."""
    config = small_planted_engine.config
    path = tmp_path_factory.mktemp("contextual") / "docs.mved"
    docs = contextual_dump(small_planted.corpus, config.dim, config.seed, path)
    return build_engine(small_planted.corpus, config, dump_docs=docs)


@pytest.fixture(scope="session")
def padded_planted_engine(small_planted_engine):
    """The small planted engine encoding queries at q_len 32, so each planted
    query (CLS and 7 words) carries 24 identical MASK positions."""
    config = dataclasses.replace(small_planted_engine.config, q_len=32)
    return dataclasses.replace(small_planted_engine, config=config)


@pytest.fixture(scope="session")
def wide_planted():
    """A planted corpus whose 1,382 distinct embeddings make a table large
    enough for MaxSim's table route at 9 distinct query rows."""
    return planted_fixture(
        num_docs=2000,
        num_queries=8,
        doc_len=10,
        vocab_size=1500,
        common_band=(15, 80),
        seed=99,
    )


@pytest.fixture(scope="session")
def wide_planted_engine(wide_planted):
    config = EngineConfig(
        dim=32,
        q_len=wide_planted.q_len,
        k=100,
        k_prime=200,
        n_list=24,
        n_probe=4,
        sample_fraction=0.5,
        iterations=15,
        seed=11,
    )
    return build_engine(wide_planted.corpus, config)


@pytest.fixture(scope="session")
def small_planted_qrels(small_planted):
    return Qrels(small_planted.judgments)


def random_store(num_docs: int, dim: int, seed: int, min_len: int = 1, max_len: int = 6):
    """A store of unit-norm random embeddings with varied document lengths."""
    from mve.index import EmbeddingStore

    rng = np.random.default_rng(seed)
    lengths = rng.integers(min_len, max_len + 1, size=num_docs)
    vectors = rng.standard_normal((int(lengths.sum()), dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    blocks = np.split(vectors.astype(np.float32), np.cumsum(lengths)[:-1])
    return EmbeddingStore.from_blocks([(f"d{i:04d}", block) for i, block in enumerate(blocks)])


def coded_store(num_docs: int, dim: int, num_codes: int, seed: int, max_len: int = 20):
    """A store of ``num_docs`` documents whose rows repeat ``num_codes``
    random distinct rows, each used at least once."""
    from mve.index import EmbeddingStore

    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=num_docs)
    table = rng.standard_normal((num_codes, dim)).astype(np.float32)
    codes = rng.permutation(np.resize(np.arange(num_codes), int(lengths.sum())))
    names = [f"d{i:04d}" for i in range(num_docs)]
    return EmbeddingStore(table, codes, lengths, names)


def named_store(doc_ids, dim: int = 4, seed: int = 0):
    """A store holding one random embedding for each of ``doc_ids``, in order."""
    from mve.index import EmbeddingStore

    rng = np.random.default_rng(seed)
    return EmbeddingStore.from_blocks(
        [(doc_id, rng.standard_normal((1, dim)).astype(np.float32)) for doc_id in doc_ids]
    )


def candidate_set(store, doc_ids):
    """The candidate set of ``doc_ids`` over ``store``."""
    from mve.retrieval import CandidateSet

    return CandidateSet(store, [store.index_of(doc_id) for doc_id in doc_ids])


def count_ann_calls(monkeypatch):
    """Record the bytes of every query vector sent to ANN.

    Every probe, whether from ``search`` or through ``ann_candidates``,
    runs ``mve.retrieval._probe``, so that is the name wrapped.
    """
    import mve.retrieval

    calls = []
    real = mve.retrieval._probe

    def counted(index, phi, k_prime, n_probe):
        calls.append(np.asarray(phi).tobytes())
        return real(index, phi, k_prime, n_probe)

    monkeypatch.setattr(mve.retrieval, "_probe", counted)
    return calls


def spy_routes(monkeypatch, of=None):
    """Record the route of each MaxSim pass, "table" or "gather"; only the
    passes over store ``of`` if given."""
    import mve.retrieval

    routes = []
    real = mve.retrieval._maxsim_route

    def spied(store, *args):
        route = real(store, *args)
        if of is None or store is of:
            routes.append(route)
        return route

    monkeypatch.setattr(mve.retrieval, "_maxsim_route", spied)
    return routes


def build_sample_index(seed=16, num_docs=9):
    """A small trained index over a random store, for persistence tests."""
    from mve.index import build_ivf, train_centroids

    store = random_store(num_docs, 8, seed=seed)
    centroids = train_centroids(store, 1.0, 3, 5, seed=seed + 1)
    return build_ivf(store, centroids)
