"""Synthetic corpora for the test suite.

``planted_fixture`` builds a corpus with Zipf-distributed filler vocabulary
where each query shares a handful of query-specific rare tokens with its
relevant documents and opens with mid-frequency common words. Occurrence
order therefore spends its first-stage budget on the common words, while a
frequency-aware ordering reaches the rare tokens (and with them the planted
documents) immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PlantedFixture:
    corpus: list[tuple[str, str]]
    queries: list[tuple[str, str]]
    judgments: dict[str, dict[str, int]]
    q_len: int  # fits CLS + all query words + a few masks


def planted_fixture(
    num_docs: int = 5000,
    num_queries: int = 64,
    doc_len: int = 12,
    vocab_size: int = 1500,
    num_common: int = 3,
    num_rare: int = 4,
    relevant_per_query: int = 3,
    zipf_exponent: float = 1.07,
    common_band: tuple[int, int] = (40, 200),
    seed: int = 20240817,
) -> PlantedFixture:
    if num_docs <= num_queries * relevant_per_query:
        raise ValueError("corpus too small for the requested planted documents")
    rng = np.random.default_rng(seed)
    words = [f"w{i:04d}" for i in range(vocab_size)]
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    weights = ranks**-zipf_exponent
    weights /= weights.sum()

    def draw_filler(count: int, exclude: frozenset[str] = frozenset()) -> list[str]:
        out: list[str] = []
        while len(out) < count:
            for idx in rng.choice(vocab_size, size=count - len(out), p=weights):
                word = words[int(idx)]
                if word not in exclude:
                    out.append(word)
        return out

    band_lo, band_hi = common_band
    queries: list[tuple[str, str]] = []
    planted_docs: list[tuple[str, list[str]]] = []  # (query id, tokens)
    for qi in range(num_queries):
        qid = f"q{qi:03d}"
        commons = [words[int(i)] for i in rng.choice(range(band_lo, band_hi), num_common, replace=False)]
        rares = [f"r{qi:03d}x{j}" for j in range(num_rare)]
        queries.append((qid, " ".join(commons + rares)))
        for _ in range(relevant_per_query):
            # Relevant docs carry every rare token but none of the query's
            # common words, so occurrence order cannot reach them early.
            filler = draw_filler(doc_len - num_rare, exclude=frozenset(commons))
            tokens = list(rng.permutation(rares + filler))
            planted_docs.append((qid, tokens))

    num_filler_docs = num_docs - len(planted_docs)
    docs: list[tuple[str | None, list[str]]] = [(qid, toks) for qid, toks in planted_docs]
    docs.extend((None, draw_filler(doc_len)) for _ in range(num_filler_docs))
    order = rng.permutation(len(docs))

    corpus: list[tuple[str, str]] = []
    judgments: dict[str, dict[str, int]] = {qid: {} for qid, _ in queries}
    for position, doc_index in enumerate(order):
        qid, tokens = docs[int(doc_index)]
        doc_id = f"d{position:05d}"
        corpus.append((doc_id, " ".join(tokens)))
        if qid is not None:
            judgments[qid][doc_id] = 1
    q_len = 1 + num_common + num_rare + 4
    return PlantedFixture(corpus=corpus, queries=queries, judgments=judgments, q_len=q_len)


def contextual_dump(
    corpus: list[tuple[str, str]], dim: int, seed: int, path: Path, noise_seed: int = 20241019
) -> list[tuple[str, np.ndarray]]:
    """Document embeddings of ``corpus`` as a contextual encoder gives them,
    so that no two stored vectors are equal.

    Each token occurrence takes its row of the built-in token table (the
    one an engine of ``seed`` and ``dim`` builds, so its queries still
    match), plus Gaussian noise of standard deviation 0.35/sqrt(dim) drawn
    for that occurrence from ``noise_seed``; each row is then renormalised.
    The embeddings are written to ``path`` as an ``MVED`` dump and returned
    as read back from it, ready for ``build_engine(..., dump_docs=...)``.
    """
    from mve.core import FIRST_WORDPIECE_ID, token_table, tokenize_flat
    from mve.index import read_embeddings_dump, write_embeddings_dump

    token_ids, lengths, vocab = tokenize_flat(corpus)
    rows = token_table(len(vocab), seed, dim)[token_ids - FIRST_WORDPIECE_ID].astype(np.float64)
    rng = np.random.default_rng(noise_seed)
    rows += rng.standard_normal(rows.shape) * (0.35 / math.sqrt(dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    blocks = np.split(rows.astype(np.float32), np.cumsum(lengths)[:-1])
    write_embeddings_dump([(doc_id, block) for (doc_id, _), block in zip(corpus, blocks)], path)
    return read_embeddings_dump(path)


def write_corpus(corpus: list[tuple[str, str]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc_id, text in corpus:
            handle.write(f"{doc_id}\t{text}\n")


def write_queries(queries: list[tuple[str, str]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for qid, text in queries:
            handle.write(f"{qid}\t{text}\n")


def write_qrels(judgments: dict[str, dict[str, int]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for qid in sorted(judgments):
            for doc_id, grade in sorted(judgments[qid].items()):
                handle.write(f"{qid} 0 {doc_id} {grade}\n")
