"""Byte-identity pin for ``mve index``, ``mve search`` and ``mve sweep`` on the
small planted fixture.

``data/planted_search.txt``, ``data/planted_padded_search.txt``,
``data/planted_sweep.csv`` and ``data/planted_engine.sha256`` (sha256 of each
file of the indexed engine directory) were written once by an earlier version
of the engine. They are a regression pin, not an oracle:
refactors of the retrieval pipeline must reproduce them byte for byte, and
they are never regenerated to make a difference go away.
"""

import hashlib
from pathlib import Path

import pytest

from mve import cli

from synthdata import write_corpus, write_qrels, write_queries

DATA = Path(__file__).parent / "data"

SEARCH_CELLS = (("icf", "1"), ("icf", "q_len"), ("first", "1"))
# the engine default q_len: each planted query (CLS and 7 words) carries 24
# identical MASK positions, so MaxSim and the union see repeated vectors
PADDED_Q_LEN = 32
PADDED_SEARCH_CELLS = (("icf", "1"), ("icf", "q_len"))


def build_planted_engine_dir(fixture, tmp_path: Path, q_len: int | None = None) -> Path:
    """Index the fixture through the CLI with the ``small_planted_engine`` config,
    at ``q_len`` if given."""
    corpus_path = tmp_path / "corpus.tsv"
    write_corpus(fixture.corpus, corpus_path)
    out = tmp_path / "engine"
    q_len = fixture.q_len if q_len is None else q_len
    assert cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(out),
         "--dim", "32", "--q-len", str(q_len), "--k", "100",
         "--k-prime", "50", "--n-list", "16", "--n-probe", "4",
         "--sample-fraction", "0.5", "--iterations", "15", "--seed", "11"]
    ) == 0
    return out


def planted_search_output(
    fixture, engine_dir: Path, capsys, cells=SEARCH_CELLS, q_len: int | None = None
) -> str:
    """``mve search`` stdout for every query at each of ``cells``, where p
    "q_len" means the engine's ``q_len`` (the fixture's unless given)."""
    q_len = fixture.q_len if q_len is None else q_len
    chunks = []
    for strategy, p in cells:
        p = str(q_len) if p == "q_len" else p
        for qid, text in fixture.queries:
            capsys.readouterr()
            assert cli.run(
                ["search", "--index", str(engine_dir), "--query", text, "--qid", qid,
                 "--strategy", strategy, "--p", p, "--tag", f"{strategy}-p{p}"]
            ) == 0
            chunks.append(capsys.readouterr().out)
    return "".join(chunks)


def planted_sweep_csv(fixture, engine_dir: Path, tmp_path: Path) -> str:
    """``mve sweep --strategies first,icf,idf --p-values 1-<q_len>`` CSV text."""
    queries_path = tmp_path / "queries.tsv"
    qrels_path = tmp_path / "qrels.txt"
    write_queries(fixture.queries, queries_path)
    write_qrels(fixture.judgments, qrels_path)
    csv_path = tmp_path / "sweep.csv"
    assert cli.run(
        ["sweep", "--index", str(engine_dir), "--queries", str(queries_path),
         "--qrels", str(qrels_path), "--out", str(csv_path),
         "--strategies", "first,icf,idf", "--p-values", f"1-{fixture.q_len}"]
    ) == 0
    return csv_path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def planted_engine_dir(small_planted, tmp_path_factory):
    return build_planted_engine_dir(small_planted, tmp_path_factory.mktemp("pin"))


@pytest.fixture(scope="module")
def padded_engine_dir(small_planted, tmp_path_factory):
    return build_planted_engine_dir(small_planted, tmp_path_factory.mktemp("pin"), PADDED_Q_LEN)


def test_search_output_matches_pinned_bytes(small_planted, planted_engine_dir, capsys):
    expected = (DATA / "planted_search.txt").read_bytes()
    got = planted_search_output(small_planted, planted_engine_dir, capsys).encode("utf-8")
    assert got == expected


def test_sweep_csv_matches_pinned_bytes(small_planted, planted_engine_dir, tmp_path):
    expected = (DATA / "planted_sweep.csv").read_bytes()
    got = planted_sweep_csv(small_planted, planted_engine_dir, tmp_path).encode("utf-8")
    assert got == expected


def test_padded_search_output_matches_pinned_bytes(small_planted, padded_engine_dir, capsys):
    expected = (DATA / "planted_padded_search.txt").read_bytes()
    got = planted_search_output(
        small_planted, padded_engine_dir, capsys, PADDED_SEARCH_CELLS, PADDED_Q_LEN
    ).encode("utf-8")
    assert got == expected


def test_engine_directory_matches_pinned_hashes(planted_engine_dir):
    expected = (DATA / "planted_engine.sha256").read_text(encoding="utf-8")
    got = "".join(
        f"{hashlib.sha256((planted_engine_dir / name).read_bytes()).hexdigest()}  {name}\n"
        for name in ("index.mvix", "lexicon.tsv", "config.json")
    )
    assert got == expected
