"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime where the criterion budgets one.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import math
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

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
)
from mve.engine import EngineConfig, build_engine
from mve.errors import CorruptIndexError
from mve.evaluation import (
    Qrels,
    average_precision,
    load_qrels,
    ndcg_at,
    paired_t_test_bonferroni,
    read_run,
    rr_at,
)
from mve.index import build_ivf, load_index, save_index, train_centroids
from mve.retrieval import (
    Ranking,
    Strategy,
    ann_candidates,
    exact_score,
    order_embeddings,
    pruned_union,
)

from conftest import random_store
from synthdata import planted_fixture, write_corpus, write_qrels, write_queries

DATA = Path(__file__).parent / "data"


def report(number: int, label: str, elapsed: float | None = None) -> None:
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {number} ({label}): PASS{suffix}")


def make_query_rows(rows: np.ndarray) -> QueryRepresentation:
    tokens = [Token(CLS_ID, CLS_SURFACE, TokenKind.CLS, 0)]
    tokens += [Token(2 + i, f"w{i}", TokenKind.WORDPIECE, 1 + i) for i in range(len(rows) - 1)]
    return QueryRepresentation(tuple(tokens), np.asarray(rows, dtype=np.float32))


def test_criterion_1_maxsim_matches_dense_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        q_rows = int(rng.integers(1, 33))
        d_rows = int(rng.integers(1, 65))
        query = make_query_rows(rng.standard_normal((q_rows, dim)).astype(np.float32))
        doc = rng.standard_normal((d_rows, dim)).astype(np.float32)

        got = exact_score(query, doc)
        # dense-matrix oracle: full similarity matrix in float64, row maxima, sum
        doc64 = doc.astype(np.float64)
        maxima = [float(np.max(doc64 @ row.astype(np.float64))) for row in query.embeddings]
        expected = math.fsum(maxima)
        assert abs(got - expected) <= 1e-5 * max(1.0, abs(expected))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, "MaxSim oracle equivalence", elapsed)


def test_criterion_2_ann_exactness_limit():
    started = time.perf_counter()
    store = random_store(2500, 16, seed=1002, min_len=4, max_len=4)  # 10,000 embeddings
    assert store.num_embeddings == 10_000
    centroids = train_centroids(store, 0.1, n_list=32, iterations=5, seed=1003)
    index = build_ivf(store, centroids)
    k_prime = 100
    rng = np.random.default_rng(1004)
    for _ in range(100):
        phi = rng.standard_normal(16).astype(np.float32)
        phi /= np.linalg.norm(phi)
        hits, docs = ann_candidates(index, phi, k_prime=k_prime, n_probe=index.n_list)
        scores = store.vectors @ phi
        oracle = sorted(range(store.num_embeddings), key=lambda i: (-scores[i], i))[:k_prime]
        assert hits.tolist() == oracle
        assert docs.docs == {store.doc_ids[int(store.doc_of[i])] for i in oracle}
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, "ANN exactness limit", elapsed)


def test_criterion_3_union_consistency(small_planted_engine, small_planted):
    engine = small_planted_engine
    q_len = engine.config.q_len
    vocab_words = sorted({w for _, text in small_planted.corpus for w in text.split()})
    rng = np.random.default_rng(1005)
    for _ in range(200):
        words = [vocab_words[int(i)] for i in rng.integers(0, len(vocab_words), size=6)]
        query = engine.encoder.encode(" ".join(words))
        doc_sets = [
            ann_candidates(engine.index, query.embeddings[pos], engine.config.k_prime, 4)[1]
            for pos in range(q_len)
        ]
        for strategy in (Strategy.FIRST, Strategy.ICF):
            ordering = order_embeddings(query, engine.lexicon, strategy)
            ordered_sets = [doc_sets[pos] for pos in ordering]
            unpruned = functools.reduce(
                lambda acc, s: acc | frozenset(s.docs), ordered_sets, frozenset()
            )
            previous: frozenset[str] = frozenset()
            for p in range(1, q_len + 1):
                docs = frozenset(pruned_union(ordered_sets, p).docs)
                assert previous <= docs
                previous = docs
            assert previous == unpruned
    report(3, "pruned union recovers the unpruned union, monotonically")


def test_criterion_4_ordering_rules():
    rng = np.random.default_rng(1006)
    for _ in range(500):
        num_words = int(rng.integers(0, 10))
        num_masks = int(rng.integers(0, 6))
        spec = [(CLS_SURFACE, TokenKind.CLS, CLS_ID)]
        spec += [(f"w{i}", TokenKind.WORDPIECE, 2 + i) for i in range(num_words)]
        spec += [(MASK_SURFACE, TokenKind.MASK, MASK_ID)] * num_masks
        tokens = tuple(
            Token(tid, surface, kind, pos) for pos, (surface, kind, tid) in enumerate(spec)
        )
        query = QueryRepresentation(
            tokens, np.ones((len(tokens), 4), dtype=np.float32)
        )
        cfs = {2 + i: int(rng.integers(0, 6)) for i in range(num_words)}
        lexicon = Lexicon(
            entries={tid: LexiconEntry(cf=cf, df=max(1, cf // 2)) for tid, cf in cfs.items() if cf},
            num_docs=50,
            num_tokens=max(1, sum(cfs.values())),
        )
        assert order_embeddings(query, lexicon, Strategy.FIRST) == list(range(query.q_len))
        perm = order_embeddings(query, lexicon, Strategy.ICF)
        assert sorted(perm) == list(range(query.q_len))
        kinds = [query.tokens[i].kind for i in perm]
        assert kinds[:num_words] == [TokenKind.WORDPIECE] * num_words
        assert kinds[num_words : num_words + 1] == [TokenKind.CLS]
        assert kinds[num_words + 1 :] == [TokenKind.MASK] * num_masks
        keys = [lexicon.cf(query.tokens[i].id) for i in perm[:num_words]]
        assert keys == sorted(keys)
        # stable ties: occurrence order within equal cf
        for value in set(keys):
            positions = [perm[i] for i in range(num_words) if keys[i] == value]
            assert positions == sorted(positions)
    report(4, "ordering rules")


@pytest.fixture(scope="module")
def desk_scale():
    fixture = planted_fixture()
    config = EngineConfig(
        dim=64,
        q_len=fixture.q_len,
        k=1000,
        k_prime=1000,
        n_list=None,
        n_probe=10,
        sample_fraction=0.05,
        iterations=20,
        seed=2024,
    )
    started = time.perf_counter()
    engine = build_engine(fixture.corpus, config)
    return fixture, engine, started


def test_criterion_5_desk_scale_replication(desk_scale):
    fixture, engine, started = desk_scale
    q_len = engine.config.q_len
    qrels = Qrels(fixture.judgments)
    table = engine.sweep(
        fixture.queries,
        qrels,
        strategies=[Strategy.FIRST, Strategy.ICF],
        p_values=[1, 2, 3, 4, q_len],
        threads=4,
    )
    elapsed = time.perf_counter() - started
    baseline = table.row(Strategy.FIRST, q_len)
    assert table.row(Strategy.ICF, q_len).mrr10 == baseline.mrr10
    assert baseline.mrr10 > 0.5, "baseline must rank planted docs highly"

    satisfied = None
    for p in (1, 2, 3, 4):
        icf = table.row(Strategy.ICF, p)
        first = table.row(Strategy.FIRST, p)
        if (
            icf.mrr10 >= 0.95 * baseline.mrr10
            and first.mrr10 < icf.mrr10
            and icf.mean_docs <= 0.5 * baseline.mean_docs
        ):
            satisfied = (p, icf, first)
            break
    assert satisfied is not None, "no p <= 4 shows the pruning advantage"
    p, icf, first = satisfied
    assert elapsed < 120.0
    report(
        5,
        f"desk-scale replication at p={p}: icf mrr {icf.mrr10:.3f} vs first {first.mrr10:.3f}, "
        f"docs {icf.mean_docs:.0f} vs baseline {baseline.mean_docs:.0f}",
        elapsed,
    )


def test_criterion_6_metric_correctness():
    qrels = Qrels({"q": {"a": 3, "b": 0, "c": 1}})
    ranking = Ranking(entries=(("a", 3.0), ("b", 2.0), ("c", 1.0)), k=10)
    assert ndcg_at(ranking, qrels, "q") == pytest.approx(0.9639, abs=1e-4)
    two_rel = Qrels({"q": {"a": 1, "b": 1}})
    assert average_precision(
        Ranking(entries=(("x", 2.0), ("a", 1.0)), k=10), two_rel, "q"
    ) == pytest.approx(0.25, abs=1e-12)
    assert rr_at(
        Ranking(entries=(("x", 4.0), ("y", 3.0), ("z", 2.0), ("a", 1.0)), k=10), two_rel, "q"
    ) == pytest.approx(0.25, abs=1e-12)

    golden = json.loads((DATA / "golden_metrics.json").read_text())
    rankings = read_run(DATA / "golden_run.txt")
    golden_qrels = load_qrels(DATA / "golden_qrels.txt")
    for qid in golden_qrels.query_ids():
        ranking = rankings[qid]
        assert ndcg_at(ranking, golden_qrels, qid) == pytest.approx(
            golden["per_query"][qid]["ndcg10"], abs=1e-4
        )
        assert average_precision(ranking, golden_qrels, qid) == pytest.approx(
            golden["per_query"][qid]["map"], abs=1e-4
        )
        assert rr_at(ranking, golden_qrels, qid) == pytest.approx(
            golden["per_query"][qid]["mrr10"], abs=1e-4
        )
    report(6, "metric correctness vs hand fixtures and frozen golden file")


def test_criterion_7_significance_machinery():
    a = [0.52 + 0.015 * i + 0.11 * math.sin(3 * i) for i in range(30)]
    b = [0.47 + 0.013 * i + 0.09 * math.sin(3 * i + 1) for i in range(30)]
    # frozen closed-form values for these samples (t from the textbook
    # formula, p from the regularized incomplete beta, 40-digit arithmetic)
    expected_t = 5.326418781963504
    expected_p = 1.024026002310181e-05
    result = paired_t_test_bonferroni(a, b, num_comparisons=1)
    assert abs(result.t - expected_t) < 1e-6
    assert abs(result.p_value - expected_p) < 1e-6
    assert abs(result.p_value - expected_p) <= 1e-6 * expected_p  # tight relative check
    for num in (1, 2, 64, 4882, 4883, 10**9):
        scaled = paired_t_test_bonferroni(a, b, num_comparisons=num)
        assert scaled.significant == (result.p_value < 0.05 / num)
    # 0.05 / p flips between 4882 and 4883, so both sides of the threshold ran
    assert paired_t_test_bonferroni(a, b, num_comparisons=4882).significant
    assert not paired_t_test_bonferroni(a, b, num_comparisons=4883).significant
    report(7, "significance machinery")


def test_criterion_8_persistence(tmp_path):
    store = random_store(40, 8, seed=1008, min_len=1, max_len=5)
    index = build_ivf(store, train_centroids(store, 1.0, 6, 8, seed=1009))
    path = tmp_path / "index.mvix"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.store.vectors.tobytes() == store.vectors.tobytes()
    assert loaded.store.doc_offsets.tobytes() == store.doc_offsets.tobytes()
    assert loaded.store.doc_ids == store.doc_ids
    assert loaded.centroids.vectors.tobytes() == index.centroids.vectors.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(loaded.lists, index.lists))

    pristine = path.read_bytes()
    corrupted = tmp_path / "corrupt.mvix"
    # bad magic
    corrupted.write_bytes(b"JUNK" + pristine[4:])
    with pytest.raises(CorruptIndexError):
        load_index(corrupted)
    # truncated header and truncated body
    for cut in (10, len(pristine) - 7):
        corrupted.write_bytes(pristine[:cut])
        with pytest.raises(CorruptIndexError):
            load_index(corrupted)
    # header declares more embeddings than the file holds
    patched = bytearray(pristine)
    declared = struct.unpack_from("<Q", patched, 24)[0]
    struct.pack_into("<Q", patched, 24, declared + 3)
    corrupted.write_bytes(bytes(patched))
    with pytest.raises(CorruptIndexError):
        load_index(corrupted)
    report(8, "persistence round-trip and corruption handling")


def test_criterion_9_sweep_determinism(tmp_path):
    fixture = planted_fixture(
        num_docs=300, num_queries=8, doc_len=10, vocab_size=250, common_band=(15, 80),
        seed=1010,
    )
    corpus_path = tmp_path / "corpus.tsv"
    queries_path = tmp_path / "queries.tsv"
    qrels_path = tmp_path / "qrels.txt"
    write_corpus(fixture.corpus, corpus_path)
    write_queries(fixture.queries, queries_path)
    write_qrels(fixture.judgments, qrels_path)
    out = tmp_path / "engine"

    def mve(*args: str) -> None:
        completed = subprocess.run(
            [sys.executable, "-m", "mve", *args], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr

    mve(
        "index", "--corpus", str(corpus_path), "--out", str(out),
        "--dim", "32", "--q-len", str(fixture.q_len), "--k", "100",
        "--k-prime", "50", "--n-list", "12", "--n-probe", "4",
        "--sample-fraction", "0.5", "--iterations", "10", "--seed", "3",
    )
    outputs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        csv_path = tmp_path / f"sweep_{name}.csv"
        mve(
            "sweep", "--index", str(out), "--queries", str(queries_path),
            "--qrels", str(qrels_path), "--out", str(csv_path),
            "--p-values", f"1-3,{fixture.q_len}", "--threads", str(threads),
        )
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    report(9, "sweep CSV byte-identical across runs and thread counts")
