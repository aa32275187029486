import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mve.index
from mve import cli
from mve.core import read_corpus
from mve.engine import EngineConfig, build_engine, load_engine
from mve.evaluation import load_qrels, load_queries
from mve.errors import CorruptIndexError
from mve.index import load_index, write_embeddings_dump
from mve.retrieval import Strategy

from synthdata import write_corpus, write_qrels, write_queries

DATA = Path(__file__).parent / "data"

CORPUS = [
    ("d1", "the quick brown fox jumps"),
    ("d2", "zebras have black and white stripes"),
    ("d3", "the sun rises in the east"),
]


def write_tiny_corpus(path: Path) -> Path:
    corpus_path = path / "corpus.tsv"
    write_corpus(CORPUS, corpus_path)
    return corpus_path


def build_tiny_engine_dir(tmp_path: Path, *extra: str) -> Path:
    corpus_path = write_tiny_corpus(tmp_path)
    out = tmp_path / "engine"
    code = cli.run(
        [
            "index", "--corpus", str(corpus_path), "--out", str(out),
            "--dim", "16", "--q-len", "8", "--n-list", "2",
            "--sample-fraction", "1.0", "--seed", "7",
            *extra,
        ]
    )
    assert code == 0
    return out


def test_index_then_search_ranks_matching_doc_first(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    code = cli.run(
        ["search", "--index", str(out), "--query", "zebras stripes", "--n-probe", "2"]
    )
    captured = capsys.readouterr()
    assert code == 0
    first_line = captured.out.splitlines()[0].split()
    assert first_line[0] == "q1" and first_line[1] == "Q0"
    assert first_line[2] == "d2" and first_line[3] == "1"
    assert "candidates:" in captured.err


def test_search_rejects_p_zero(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    code = cli.run(["search", "--index", str(out), "--query", "zebra", "--p", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "p must be >= 1" in captured.err


def test_search_defaults_equal_spelled_out_defaults(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    config = json.loads((out / "config.json").read_text())
    assert cli.run(["search", "--index", str(out), "--query", "the sun"]) == 0
    implicit = capsys.readouterr().out
    assert (
        cli.run(
            [
                "search", "--index", str(out), "--query", "the sun",
                "--strategy", config["strategy"], "--p", str(config["q_len"]),
                "--k", str(config["k"]), "--k-prime", str(config["k_prime"]),
                "--n-probe", str(config["n_probe"]),
            ]
        )
        == 0
    )
    explicit = capsys.readouterr().out
    assert implicit == explicit


def test_unknown_command_and_flag_exit_one(capsys):
    assert cli.run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()
    assert cli.run(["eval", "--run", "x", "--qrels", "y", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_corpus_file_exits_one(tmp_path, capsys):
    code = cli.run(["index", "--corpus", str(tmp_path / "nope.tsv"), "--out", str(tmp_path / "e")])
    assert code == 1


def test_search_against_non_engine_directory_exits_one(tmp_path, capsys):
    code = cli.run(["search", "--index", str(tmp_path), "--query", "zebra"])
    captured = capsys.readouterr()
    assert code == 1
    assert "engine directory" in captured.err


def test_bad_strategy_and_p_values_exit_one(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"strategy": "bogus"}))
    corpus_path = tmp_path / "corpus.tsv"
    assert cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "e2"),
         "--config", str(config_path)]
    ) == 1
    assert "strategy" in capsys.readouterr().err
    assert cli.run(
        ["sweep", "--index", str(out), "--queries", "q", "--qrels", "r",
         "--out", "o", "--strategies", "nope"]
    ) == 1
    assert cli.run(
        ["sweep", "--index", str(out), "--queries", "q", "--qrels", "r",
         "--out", "o", "--p-values", "abc"]
    ) == 1
    capsys.readouterr()


def test_config_file_that_is_not_an_object_or_ill_typed_exits_one(tmp_path, capsys):
    corpus_path = write_tiny_corpus(tmp_path)
    config_path = tmp_path / "config.json"
    for content, named in (([1, 2], "JSON object"), ({"dim": "abc"}, "dim")):
        config_path.write_text(json.dumps(content))
        code = cli.run(
            ["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "engine"),
             "--config", str(config_path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and named in err


def test_sweep_rejects_alpha_outside_unit_interval(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    queries_path = tmp_path / "queries.tsv"
    qrels_path = tmp_path / "qrels.txt"
    write_queries([("q1", "zebra stripes"), ("q2", "quick fox")], queries_path)
    write_qrels({"q1": {"d2": 1}, "q2": {"d1": 1}}, qrels_path)
    sweep_args = ["sweep", "--index", str(out), "--queries", str(queries_path),
                  "--qrels", str(qrels_path), "--out", str(tmp_path / "sweep.csv")]
    for alpha in ("-1", "0", "2", "nan"):
        assert cli.run([*sweep_args, f"--alpha={alpha}"]) == 1
        assert "alpha" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()
    assert cli.run([*sweep_args, "--alpha=0.5"]) == 0


def test_sweep_of_one_query_exits_one_before_writing(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    queries_path = tmp_path / "queries.tsv"
    qrels_path = tmp_path / "qrels.txt"
    write_queries([("q1", "zebra stripes")], queries_path)
    write_qrels({"q1": {"d2": 1}}, qrels_path)
    code = cli.run(["sweep", "--index", str(out), "--queries", str(queries_path),
                    "--qrels", str(qrels_path), "--out", str(tmp_path / "sweep.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1] == "error: sweep needs at least two queries, got 1"
    assert not (tmp_path / "sweep.csv").exists()


def test_corrupt_index_exits_two(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    index_path = out / "index.mvix"
    data = bytearray(index_path.read_bytes())
    data[:4] = b"JUNK"
    index_path.write_bytes(bytes(data))
    code = cli.run(["search", "--index", str(out), "--query", "zebra"])
    captured = capsys.readouterr()
    assert code == 2
    assert "magic" in captured.err


@pytest.mark.parametrize("offset", [12, 16, 24])  # n_list (u32), num_docs, num_embeddings
def test_header_count_with_a_flipped_high_bit_exits_two(tmp_path, capsys, offset):
    # the damaged count is checked against the file's size before anything
    # is allocated, instead of failing as a MemoryError traceback
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    index_path = out / "index.mvix"
    data = bytearray(index_path.read_bytes())
    data[offset + 3] ^= 0x40  # bit 30 of the little-endian field
    index_path.write_bytes(bytes(data))
    with pytest.raises(CorruptIndexError, match="declares"):
        load_index(index_path)
    code = cli.run(["search", "--index", str(out), "--query", "zebra"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1
    assert "declares" in captured.err


# the first document table entry starts after the magic, the 28-byte header
# and the u32 length of its name "d00000"
FIRST_NAME_AT = 4 + 28 + 4


@pytest.mark.parametrize(
    "offset, mask, named",
    [
        (FIRST_NAME_AT + 1, 0x10, "'d 0000' at entry 0 is empty or contains whitespace"),
        (FIRST_NAME_AT + 6 + 7, 0x80, "document table: entry 0"),  # bit 63 of its start
    ],
)
def test_damaged_document_table_exits_two(tmp_path, capsys, offset, mask, named):
    # a doc id with whitespace would print a run line that read_run rejects,
    # and a start of 2**63 or more overflowed int64 with a traceback
    corpus_path = tmp_path / "corpus.tsv"
    write_corpus([(f"d{i:05d}", text) for i, (_, text) in enumerate(CORPUS)], corpus_path)
    out = tmp_path / "engine"
    assert cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(out), "--dim", "16",
         "--q-len", "8", "--n-list", "2", "--sample-fraction", "1.0", "--seed", "7"]
    ) == 0
    capsys.readouterr()
    index_path = out / "index.mvix"
    data = bytearray(index_path.read_bytes())
    data[offset] ^= mask
    index_path.write_bytes(bytes(data))
    with pytest.raises(CorruptIndexError, match=named):
        load_index(index_path)
    code = cli.run(["search", "--index", str(out), "--query", "zebra"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and named in captured.err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    corpus_path = write_tiny_corpus(tmp_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dim": 12, "q_len": 6, "seed": 5, "n_list": 2,
                                       "sample_fraction": 1.0}))
    out = tmp_path / "engine"
    code = cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(out),
         "--config", str(config_path), "--dim", "8"]
    )
    assert code == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["dim"] == 8  # flag beats config file
    assert stored["q_len"] == 6  # config file beats default
    assert stored["seed"] == 5


def test_env_seed_overrides_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    out = build_tiny_engine_dir(tmp_path, "--seed", "9")
    stored = json.loads((out / "config.json").read_text())
    assert stored["seed"] == 123


def test_index_reports_the_kmeans_objective_and_list_balance(tmp_path, capsys, small_planted):
    corpus_path = tmp_path / "corpus.tsv"
    write_corpus(small_planted.corpus, corpus_path)
    out = tmp_path / "engine"
    assert cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(out), "--dim", "32",
         "--n-list", "16", "--sample-fraction", "0.5", "--iterations", "15", "--seed", "11"]
    ) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = [line for line in captured.err.splitlines() if line.startswith("k-means")]
    objective, balance = line[len("k-means objective "):].split("; list sizes max ")
    largest, mean = balance.split(", mean ")

    config = EngineConfig.from_mapping(json.loads((out / "config.json").read_text()))
    index = build_engine(read_corpus(corpus_path), config).index
    assert float(objective) == index.centroids.objective_history[-1]
    sizes = [len(ids) for ids in index.lists]
    assert int(largest) == max(sizes) > sum(sizes) / len(sizes)
    assert mean == f"{sum(sizes) / len(sizes):.1f}"
    assert [ids.tolist() for ids in load_engine(out).index.lists] == [
        ids.tolist() for ids in index.lists
    ]


def test_engine_directory_round_trip(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    engine = load_engine(out)
    assert engine.index.store.doc_ids == ("d1", "d2", "d3")
    assert engine.config.n_list == 2
    # config round-trips through the config file unchanged
    assert engine.config.to_json() == (out / "config.json").read_text(encoding="utf-8")
    ranking, candidates = engine.search("zebras stripes", n_probe=2)
    assert ranking.doc_ids()[0] == "d2"


def test_index_from_embeddings_dump_matches_builtin_embedder(tmp_path, capsys):
    corpus_path = write_tiny_corpus(tmp_path)
    built = tmp_path / "builtin"
    assert cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(built),
         "--dim", "16", "--q-len", "8", "--n-list", "2",
         "--sample-fraction", "1.0", "--seed", "7"]
    ) == 0
    engine = load_engine(built)

    # dump the exact embeddings the builtin embedder produced, re-ingest them
    store = engine.index.store
    dump_path = tmp_path / "docs.mved"
    write_embeddings_dump(
        [(doc_id, store.doc_vectors(i).copy()) for i, doc_id in enumerate(store.doc_ids)],
        dump_path,
    )
    ingested = tmp_path / "ingested"
    assert cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(ingested),
         "--embeddings-dump", str(dump_path),
         "--dim", "16", "--q-len", "8", "--n-list", "2",
         "--sample-fraction", "1.0", "--seed", "7"]
    ) == 0
    assert (built / "index.mvix").read_bytes() == (ingested / "index.mvix").read_bytes()
    assert (built / "lexicon.tsv").read_text() == (ingested / "lexicon.tsv").read_text()
    capsys.readouterr()

    assert cli.run(["search", "--index", str(built), "--query", "zebras stripes"]) == 0
    from_builtin = capsys.readouterr().out
    assert cli.run(["search", "--index", str(ingested), "--query", "zebras stripes"]) == 0
    from_dump = capsys.readouterr().out
    assert from_builtin == from_dump


def test_dump_doc_mismatch_is_rejected(tmp_path, capsys):
    corpus_path = write_tiny_corpus(tmp_path)
    dump_path = tmp_path / "docs.mved"
    rng = np.random.default_rng(1)
    write_embeddings_dump([("other", rng.standard_normal((2, 4)).astype(np.float32))], dump_path)
    code = cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "e"),
         "--embeddings-dump", str(dump_path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "doc ids" in captured.err


@pytest.mark.parametrize(
    "name_len, count, dim, section",
    [(2, 2**32 - 1, 2**32 - 1, "doc 'd1' embeddings"), (2**32 - 1, 1, 4, "doc 0 name"),
     (2, 2**32 - 1, 64, "doc 'd1' embeddings")],
    ids=["dim and count 2**32 - 1", "name length 2**32 - 1", "count 2**32 - 1 at dim 64"],
)
def test_index_from_a_dump_declaring_more_than_it_holds_exits_one(
    tmp_path, capsys, name_len, count, dim, section
):
    corpus_path = write_tiny_corpus(tmp_path)
    dump_path = tmp_path / "docs.mved"
    dump_path.write_bytes(
        mve.index.DUMP_MAGIC + struct.pack("<IIQ", 1, dim, 3) + struct.pack("<I", name_len)
        + b"d1" + struct.pack("<I", count) + bytes(16)
    )
    code = cli.run(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "e"),
                    "--embeddings-dump", str(dump_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: truncated embeddings dump: {section}\n"
    assert not (tmp_path / "e").exists()


def test_sweep_cli_matches_library(tmp_path, capsys, small_planted, small_planted_qrels):
    corpus_path = tmp_path / "corpus.tsv"
    queries_path = tmp_path / "queries.tsv"
    qrels_path = tmp_path / "qrels.txt"
    write_corpus(small_planted.corpus, corpus_path)
    write_queries(small_planted.queries, queries_path)
    write_qrels(small_planted.judgments, qrels_path)
    out = tmp_path / "engine"
    assert cli.run(
        ["index", "--corpus", str(corpus_path), "--out", str(out),
         "--dim", "32", "--q-len", str(small_planted.q_len), "--k", "100",
         "--k-prime", "50", "--n-list", "16", "--n-probe", "4",
         "--sample-fraction", "0.5", "--iterations", "15", "--seed", "11"]
    ) == 0
    csv_path = tmp_path / "sweep.csv"
    assert cli.run(
        ["sweep", "--index", str(out), "--queries", str(queries_path),
         "--qrels", str(qrels_path), "--out", str(csv_path),
         "--strategies", "first,icf", "--p-values", f"1-2,{small_planted.q_len}"]
    ) == 0

    engine = load_engine(out)
    table = engine.sweep(
        load_queries(queries_path), load_qrels(qrels_path),
        strategies=[Strategy.FIRST, Strategy.ICF],
        p_values=[1, 2, small_planted.q_len],
    )
    assert csv_path.read_text(encoding="utf-8") == table.to_csv()


def test_eval_command_reports_golden_means(capsys):
    code = cli.run(["eval", "--run", str(DATA / "golden_run.txt"),
                    "--qrels", str(DATA / "golden_qrels.txt")])
    captured = capsys.readouterr()
    assert code == 0
    golden = json.loads((DATA / "golden_metrics.json").read_text())
    lines = dict(line.split() for line in captured.out.splitlines())
    assert lines["num_queries"] == "4"
    for name in ("ndcg10", "map", "mrr10"):
        assert float(lines[name]) == pytest.approx(golden["means"][name], abs=1e-4)


def test_eval_command_is_deterministic(capsys):
    args = ["eval", "--run", str(DATA / "golden_run.txt"),
            "--qrels", str(DATA / "golden_qrels.txt")]
    assert cli.run(args) == 0
    first = capsys.readouterr().out
    assert cli.run(args) == 0
    second = capsys.readouterr().out
    assert cli.run(args + ["--threads", "8"]) == 0
    threaded = capsys.readouterr().out
    assert first == second == threaded


def test_read_corpus_validates(tmp_path):
    from mve.errors import InvalidInputError

    path = tmp_path / "corpus.tsv"
    path.write_text("d1\talpha\nd1\tbeta\n")
    with pytest.raises(InvalidInputError):
        read_corpus(path)


_IMPORT_GUARD = """
import json, sys
import mve, mve.cli
for argv in json.loads(sys.argv[1]):
    if mve.cli.run(argv) != 0:
        sys.exit(f"mve {argv[0]} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_index_search_and_eval_never_import_scipy(tmp_path):
    corpus_path = write_tiny_corpus(tmp_path)
    out = tmp_path / "engine"
    commands = [
        ["index", "--corpus", str(corpus_path), "--out", str(out),
         "--dim", "16", "--q-len", "8", "--n-list", "2", "--sample-fraction", "1.0"],
        ["search", "--index", str(out), "--query", "zebras stripes"],
        ["eval", "--run", str(DATA / "golden_run.txt"), "--qrels", str(DATA / "golden_qrels.txt")],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def assert_one_line_error(code: int, captured, named: Path, exit_code: int = 1) -> None:
    assert code == exit_code
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and str(named) in lines[0], captured.err


def test_index_rejects_non_utf8_corpus_and_config(tmp_path, capsys):
    corpus_path = write_tiny_corpus(tmp_path)
    bad_corpus = tmp_path / "latin1.tsv"
    bad_corpus.write_bytes("d1\tcafé au lait\n".encode("latin-1"))
    code = cli.run(["index", "--corpus", str(bad_corpus), "--out", str(tmp_path / "e")])
    assert_one_line_error(code, capsys.readouterr(), bad_corpus)
    bad_config = tmp_path / "config.json"
    bad_config.write_bytes(b'{"dim": 8, "note": "\xff"}')
    code = cli.run(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "e"),
                    "--config", str(bad_config)])
    assert_one_line_error(code, capsys.readouterr(), bad_config)
    assert not (tmp_path / "e").exists()


def test_search_rejects_non_utf8_engine_files(tmp_path, capsys):
    # damage inside an engine directory exits 2, whichever file holds it
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    for name in ("config.json", "lexicon.tsv"):
        damaged = tmp_path / f"damaged-{name}"
        shutil.copytree(out, damaged)
        with open(damaged / name, "ab") as handle:
            handle.write(b"\xff\xfe\n")
        code = cli.run(["search", "--index", str(damaged), "--query", "zebras"])
        assert_one_line_error(code, capsys.readouterr(), damaged / name, exit_code=2)


def test_search_rejects_a_malformed_lexicon_row_with_exit_two(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    lexicon = out / "lexicon.tsv"
    lines = lexicon.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace("\t", " ", 1)
    lexicon.write_text("".join(lines), encoding="utf-8")
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, lexicon, exit_code=2)
    assert f"{lexicon}:2: expected token<TAB>cf<TAB>df" in captured.err
    with pytest.raises(CorruptIndexError, match="expected token<TAB>cf<TAB>df"):
        load_engine(out)


def test_search_rejects_a_truncated_config_with_exit_two(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    config = out / "config.json"
    text = config.read_bytes()
    config.write_bytes(text[: len(text) // 2])
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, config, exit_code=2)
    assert "unreadable config" in captured.err
    with pytest.raises(CorruptIndexError, match="unreadable config"):
        load_engine(out)


def test_search_in_a_directory_without_config_exits_one(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    (out / "config.json").unlink()
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, out)
    assert "not an engine directory" in captured.err


@pytest.mark.parametrize("name", ["lexicon.tsv", "index.mvix"])
def test_search_in_a_directory_missing_a_member_file_exits_two(tmp_path, capsys, name):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    (out / name).unlink()
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, out / name, exit_code=2)
    assert "missing engine file" in captured.err
    with pytest.raises(CorruptIndexError, match="missing engine file"):
        load_engine(out)


@pytest.mark.parametrize("name", ["index.mvix", "codes.bin", "lexicon.tsv", "config.json"])
def test_search_with_a_directory_in_place_of_an_engine_file_exits_two(tmp_path, capsys, name):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    (out / name).unlink()
    (out / name).mkdir()
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, out / name, exit_code=2)
    assert "unreadable engine file" in captured.err
    with pytest.raises(CorruptIndexError, match=f"{name}: unreadable engine file"):
        load_engine(out)


# codes.bin: magic, u32 version, u64 count, then one u32 code per embedding.
# In the tiny corpus "the" is embeddings 0, 11 and 15 (code 0) and "quick"
# embedding 1 (code 1), the only one of its code.
CODES_AT = 16


def flip_code_bit(data):
    data[CODES_AT + 4 * 11] ^= 1  # embedding 11: "the" (0) becomes "quick" (1)


def swap_two_codes(data):
    first, second = CODES_AT, CODES_AT + 4  # embeddings 0 and 1
    data[first : first + 4], data[second : second + 4] = (
        data[second : second + 4], data[first : first + 4]
    )


def change_count(data):
    data[8] += 1


def set_code_of_quick(code):
    def damage(data):
        data[CODES_AT + 4 : CODES_AT + 8] = struct.pack("<I", code)

    return damage


@pytest.mark.parametrize(
    "damage, named",
    [
        (flip_code_bit, "differs from another embedding of its code"),
        (lambda data: data.__delitem__(slice(-1, None)), "bytes, but 17 codes take"),
        (lambda data: data.append(0), "bytes, but 17 codes take"),
        (change_count, "holds codes for 18 embeddings, the index 17"),
        (swap_two_codes, "differs from another embedding of its code"),
        (lambda data: data.__delitem__(slice(10, None)), "truncated header"),
        (lambda data: data.__setitem__(0, ord("X")), "bad magic"),
        (set_code_of_quick(17), "lie in [0, 17), the number of embeddings"),
        (set_code_of_quick(0), "store code 1 has no embedding"),
    ],
    ids=["flipped bit", "truncated", "trailing byte", "wrong count", "swapped codes",
         "cut header", "bad magic", "code out of range", "unused code"],
)
def test_damaged_codes_file_exits_two(tmp_path, capsys, damage, named):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    codes_path = out / "codes.bin"
    data = bytearray(codes_path.read_bytes())
    assert len(data) == CODES_AT + 4 * 17
    damage(data)
    codes_path.write_bytes(bytes(data))
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, codes_path, exit_code=2)
    assert named in captured.err


def test_a_flipped_bit_in_a_vector_whose_code_is_shared_exits_two(tmp_path, capsys):
    # without codes.bin the same damage loads silently: a row whose code no
    # other embedding shares is not covered yet
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    store = load_engine(out).index.store
    assert store.codes[[0, 11, 15]].tolist() == [0, 0, 0]
    index_path = out / "index.mvix"
    data = bytearray(index_path.read_bytes())
    record = struct.pack("<Q", 11) + store.vectors[11].tobytes()
    at = data.find(record) + 8
    assert at > 8 and data.find(record, at) == -1
    data[at] ^= 1  # the last mantissa bit of embedding 11's first coordinate
    index_path.write_bytes(bytes(data))
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, out / "codes.bin", exit_code=2)
    assert "embedding 11 differs from another embedding of its code 0" in captured.err
    (out / "codes.bin").unlink()
    assert load_engine(out).index.store.vectors[11].tobytes() != store.vectors[11].tobytes()


def read_index_lists(data: bytes):
    """Split an index file into the bytes before its inverted lists and each
    list's records, as [embedding id, vector bytes] pairs."""
    _, dim, n_list, num_docs, _ = struct.unpack_from("<IIIQQ", data, 4)
    at = 4 + 28
    for _ in range(num_docs):
        (name_len,) = struct.unpack_from("<I", data, at)
        at += 4 + name_len + 12
    head, at, record = data[: at + n_list * dim * 4], at + n_list * dim * 4, 8 + dim * 4
    lists = []
    for _ in range(n_list):
        (count,) = struct.unpack_from("<Q", data, at)
        starts = range(at + 8, at + 8 + count * record, record)
        lists.append(
            [[struct.unpack_from("<Q", data, s)[0], bytearray(data[s + 8 : s + record])]
             for s in starts]
        )
        at += 8 + count * record
    assert at == len(data)
    return head, lists


def write_index_lists(path: Path, head: bytes, lists) -> None:
    path.write_bytes(head + b"".join(
        struct.pack("<Q", len(records))
        + b"".join(struct.pack("<Q", i) + bytes(vector) for i, vector in records)
        for records in lists
    ))


def assert_search_names_differing_embedding(out: Path, capsys, embedding: int) -> None:
    named = f"embedding {embedding} differs from another embedding of its code 0"
    with pytest.raises(CorruptIndexError, match=named):
        load_engine(out)
    code = cli.run(["search", "--index", str(out), "--query", "zebras"])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, out / "codes.bin", exit_code=2)
    assert named in captured.err


# The load takes the first embedding of a code it reads as the code's row and
# checks every other one against it: embedding 0 is the first of code 0.
@pytest.mark.parametrize("flipped, named", [(0, 11), (15, 15)], ids=["first row", "later row"])
def test_a_flipped_bit_in_any_row_of_a_shared_code_exits_two(tmp_path, capsys, flipped, named):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    head, lists = read_index_lists((out / "index.mvix").read_bytes())
    (records,) = [dict(records) for records in lists if 0 in dict(records)]
    assert {0, 11, 15} <= set(records)  # equal vectors share a list
    records[flipped][-1] ^= 0x80  # the sign of the last coordinate
    write_index_lists(out / "index.mvix", head, lists)
    assert_search_names_differing_embedding(out, capsys, named)


@pytest.mark.parametrize("batch", [1, 2, 12, 14, 17])
@pytest.mark.parametrize("flipped, named", [(0, 11), (15, 15)], ids=["first row", "later row"])
def test_the_row_named_does_not_depend_on_where_a_batch_ends(
    tmp_path, capsys, monkeypatch, batch, flipped, named
):
    monkeypatch.setattr(mve.index, "_LOAD_CHECK_BATCH", batch)
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    head, lists = read_index_lists((out / "index.mvix").read_bytes())
    # embeddings 0, 11 and 15 of code 0 are rows 7, 13 and 15 of the 17 read:
    # a batch of 12 rows ends after 0, one of 14 after 11, one of 17 after all
    read = [i for records in lists for i, _ in records]
    assert [read.index(i) for i in (0, 11, 15)] == [7, 13, 15]
    (records,) = [dict(records) for records in lists if 0 in dict(records)]
    records[flipped][-1] ^= 0x80
    write_index_lists(out / "index.mvix", head, lists)
    assert_search_names_differing_embedding(out, capsys, named)


@pytest.mark.parametrize("flip", [False, True], ids=["same bits", "flipped bit"])
@pytest.mark.parametrize("one_list_at_a_time", [False, True])
def test_a_code_split_across_lists_is_checked_across_them(
    tmp_path, capsys, monkeypatch, flip, one_list_at_a_time
):
    # the load checks the lists in batches of rows, which can also end
    # between the lists that hold one code
    if one_list_at_a_time:
        monkeypatch.setattr(mve.index, "_LOAD_CHECK_BATCH", 1)
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    want = load_engine(out).index.store.vectors
    head, lists = read_index_lists((out / "index.mvix").read_bytes())
    (holder,) = [c for c, records in enumerate(lists) if 0 in dict(records)]
    other = 1 - holder
    # embedding 15 of code 0 moves to the other list, in id order
    moved = next(record for record in lists[holder] if record[0] == 15)
    lists[holder].remove(moved)
    lists[other] = sorted(lists[other] + [moved])
    if flip:
        moved[1][0] ^= 1
    write_index_lists(out / "index.mvix", head, lists)
    if not flip:
        index = load_engine(out).index
        assert 15 in index.lists[other].tolist()
        assert index.store.vectors.tobytes() == want.tobytes()
        return
    # the code's row comes from whichever list is read first
    assert_search_names_differing_embedding(out, capsys, 15 if other > holder else 0)


def test_a_directory_without_codes_searches_to_the_same_bytes(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    outputs = []
    for _ in range(2):
        assert cli.run(["search", "--index", str(out), "--query", "zebras stripes"]) == 0
        outputs.append(capsys.readouterr().out)
        (out / "codes.bin").unlink(missing_ok=True)
    assert outputs[0] == outputs[1] != ""
    store = load_engine(out).index.store
    assert store.codes.tolist() == list(range(store.num_embeddings))


def test_saving_an_engine_without_codes_deletes_an_older_codes_file(tmp_path, capsys):
    # an older engine's codes beside a dump-built index would not load
    out = build_tiny_engine_dir(tmp_path)
    assert (out / "codes.bin").exists()
    store = load_engine(out).index.store
    dump_path = tmp_path / "docs.mved"
    rng = np.random.default_rng(3)
    write_embeddings_dump(
        [(doc_id, rng.standard_normal((2, 16)).astype(np.float32)) for doc_id in store.doc_ids],
        dump_path,
    )
    assert cli.run(
        ["index", "--corpus", str(tmp_path / "corpus.tsv"), "--out", str(out),
         "--embeddings-dump", str(dump_path), "--n-list", "2", "--sample-fraction", "1.0"]
    ) == 0
    assert not (out / "codes.bin").exists()
    capsys.readouterr()
    assert cli.run(["search", "--index", str(out), "--query", "zebras"]) == 0
    assert load_engine(out).index.store.num_embeddings == 6


def test_sweep_rejects_non_utf8_queries_and_qrels(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    queries_path = tmp_path / "queries.tsv"
    qrels_path = tmp_path / "qrels.txt"
    write_queries([("q1", "zebra stripes"), ("q2", "quick fox")], queries_path)
    write_qrels({"q1": {"d2": 1}, "q2": {"d1": 1}}, qrels_path)
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"q1\tzebra \xc3\x28\n")
    for queries, qrels in ((bad, qrels_path), (queries_path, bad)):
        code = cli.run(["sweep", "--index", str(out), "--queries", str(queries),
                        "--qrels", str(qrels), "--out", str(tmp_path / "sweep.csv")])
        assert_one_line_error(code, capsys.readouterr(), bad)
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_names_the_line_and_id_of_a_blank_query(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    queries_path = tmp_path / "queries.tsv"
    queries_path.write_text("q1\tzebra stripes\nq2\t   \n", encoding="utf-8")
    qrels_path = tmp_path / "qrels.txt"
    write_qrels({"q1": {"d2": 1}, "q2": {"d1": 1}}, qrels_path)
    capsys.readouterr()
    code = cli.run(["sweep", "--index", str(out), "--queries", str(queries_path),
                    "--qrels", str(qrels_path), "--out", str(tmp_path / "sweep.csv")])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, queries_path)
    assert f"{queries_path}:2:" in captured.err and "'q2'" in captured.err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_checks_p_ranges_against_q_len_before_expanding_them(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)  # q_len 8
    queries_path = tmp_path / "queries.tsv"
    write_queries([("q1", "zebra stripes"), ("q2", "quick fox")], queries_path)
    qrels_path = tmp_path / "qrels.txt"
    write_qrels({"q1": {"d2": 1}, "q2": {"d1": 1}}, qrels_path)
    capsys.readouterr()
    # the first range has more values than any host's memory could hold
    for spec, named in (("1-1000000000000000000", "1-1000000000000000000"),
                        ("2,0-3", "0-3"), ("1-2,9", "9")):
        code = cli.run(["sweep", "--index", str(out), "--queries", str(queries_path),
                        "--qrels", str(qrels_path), "--out", str(tmp_path / "sweep.csv"),
                        "--p-values", spec])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "q_len=8" in lines[0], captured.err
        assert lines[0].endswith(f"got {named}")
    assert not (tmp_path / "sweep.csv").exists()


def test_eval_rejects_non_utf8_run_and_qrels(tmp_path, capsys):
    run_path, qrels_path = DATA / "golden_run.txt", DATA / "golden_qrels.txt"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(run_path.read_bytes() + b"q9 Q0 d\xe9 1 0.5 t\n")
    for run, qrels in ((bad, qrels_path), (run_path, bad)):
        code = cli.run(["eval", "--run", str(run), "--qrels", str(qrels)])
        assert_one_line_error(code, capsys.readouterr(), bad)


def test_eval_and_sweep_reject_a_qrels_pair_judged_twice(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    queries_path = tmp_path / "queries.tsv"
    write_queries([("q1", "zebra stripes"), ("q2", "quick fox")], queries_path)
    qrels_path = tmp_path / "qrels.txt"
    qrels_path.write_text("q1 0 d2 1\nq2 0 d1 1\nq1 0 d2 0\n", encoding="utf-8")
    capsys.readouterr()
    code = cli.run(["eval", "--run", str(DATA / "golden_run.txt"), "--qrels", str(qrels_path)])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, qrels_path)
    assert f"{qrels_path}:3:" in captured.err
    code = cli.run(["sweep", "--index", str(out), "--queries", str(queries_path),
                    "--qrels", str(qrels_path), "--out", str(tmp_path / "sweep.csv")])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, qrels_path)
    assert f"{qrels_path}:3:" in captured.err
    assert not (tmp_path / "sweep.csv").exists()


def test_eval_rejects_a_nan_score(tmp_path, capsys):
    run_path = tmp_path / "run.txt"
    run_path.write_text("q Q0 a 1 nan t\nq Q0 b 2 1.0 t\n", encoding="utf-8")
    qrels_path = tmp_path / "qrels.txt"
    write_qrels({"q": {"a": 1}}, qrels_path)
    capsys.readouterr()
    code = cli.run(["eval", "--run", str(run_path), "--qrels", str(qrels_path)])
    captured = capsys.readouterr()
    assert_one_line_error(code, captured, run_path)
    assert f"{run_path}:1:" in captured.err


def test_search_run_file_reads_back_in_eval(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    assert cli.run(["search", "--index", str(out), "--query", "zebras stripes",
                    "--qid", "q-7", "--tag", "run/a", "--k", "2"]) == 0
    run_path = tmp_path / "run.txt"
    run_path.write_text(capsys.readouterr().out, encoding="utf-8")
    qrels_path = tmp_path / "qrels.txt"
    write_qrels({"q-7": {"d2": 1}}, qrels_path)
    assert cli.run(["eval", "--run", str(run_path), "--qrels", str(qrels_path)]) == 0
    assert capsys.readouterr().out == (
        "num_queries 1\nndcg10 1.000000\nmap 1.000000\nmrr10 1.000000\n"
    )


def test_ids_that_a_run_file_cannot_carry_are_rejected(tmp_path, capsys):
    out = build_tiny_engine_dir(tmp_path)
    capsys.readouterr()
    for flag, value in (("--qid", "a b"), ("--tag", "a b"), ("--qid", ""), ("--tag", "x\ty")):
        code = cli.run(["search", "--index", str(out), "--query", "zebras", flag, value])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert flag in captured.err and "whitespace" in captured.err

    corpus_path = tmp_path / "spaced.tsv"
    write_corpus([("d1", "alpha beta"), ("d 2", "gamma delta")], corpus_path)
    code = cli.run(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "e")])
    assert code == 1 and "'d 2'" in capsys.readouterr().err
    write_corpus([("d1", "alpha beta"), ("d2", "gamma delta")], corpus_path)
    dump_path = tmp_path / "docs.mved"
    rng = np.random.default_rng(3)
    write_embeddings_dump(
        [(doc_id, rng.standard_normal((2, 4)).astype(np.float32)) for doc_id in ("d1", "d2_")],
        dump_path,
    )
    # the writer refuses the id, so it goes into the file by hand
    dump_path.write_bytes(dump_path.read_bytes().replace(b"d2_", b"d2 "))
    code = cli.run(["index", "--corpus", str(corpus_path), "--out", str(tmp_path / "e"),
                    "--embeddings-dump", str(dump_path)])
    assert code == 1 and "'d2 '" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()

    queries_path = tmp_path / "queries.tsv"
    qrels_path = tmp_path / "qrels.txt"
    write_qrels({"q1": {"d2": 1}}, qrels_path)
    for qid in ("q 1", ""):
        write_queries([(qid, "zebra stripes")], queries_path)
        code = cli.run(["sweep", "--index", str(out), "--queries", str(queries_path),
                        "--qrels", str(qrels_path), "--out", str(tmp_path / "sweep.csv")])
        assert code == 1 and f"query id {qid!r}" in capsys.readouterr().err
