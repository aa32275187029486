"""Command line interface: ``index``, ``search``, ``sweep``, and ``eval``.

Exit codes: 0 on success, 1 on invalid input or configuration, 2 on a
corrupt index. The effective configuration is echoed to stderr so any run
can be reproduced from its log.
"""

import os

# Pin BLAS pools before numpy loads so CLI output is byte-stable regardless
# of --threads; our own thread pool parallelizes across queries instead.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from .core import is_single_field, read_corpus
from .engine import EngineConfig, build_engine, load_engine, save_engine
from .errors import CorruptIndexError, EngineError, UsageError
from .evaluation import (
    average_precision,
    format_run_lines,
    load_qrels,
    load_queries,
    ndcg_at,
    read_run,
    rr_at,
)
from .index import read_embeddings_dump
from .retrieval import Ranking, Strategy

SEED_ENV_VAR = "MVE_SEED"
_NO_EFFECT = "accepted but has no effect; only sweep uses threads"

class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through our exit-code contract."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}".rstrip())


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, help="embedding dimension")
    parser.add_argument("--q-len", dest="q_len", type=int, help="augmented query length")
    parser.add_argument("--k", type=int, help="final ranking depth")
    parser.add_argument("--k-prime", dest="k_prime", type=int, help="per-embedding ANN cutoff")
    parser.add_argument("--n-list", dest="n_list", type=int, help="number of IVF partitions")
    parser.add_argument("--n-probe", dest="n_probe", type=int, help="partitions probed per embedding")
    parser.add_argument(
        "--sample-fraction", dest="sample_fraction", type=float,
        help="fraction of embeddings sampled for centroid training",
    )
    parser.add_argument("--iterations", type=int, help="k-means iterations")
    parser.add_argument("--seed", type=int, help=f"RNG seed (env {SEED_ENV_VAR} overrides)")
    parser.add_argument("--strategy", choices=[s.value for s in Strategy],
                        help="query-embedding ordering")
    parser.add_argument("--p", type=int, help="query embeddings processed in the first stage")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mve",
        description="Multi-vector dense retrieval: build an index, search it, "
        "sweep pruning levels, and score run files.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    index = sub.add_parser("index", help="build an engine directory from a corpus")
    index.add_argument("--corpus", required=True, help="doc_id<TAB>text corpus file")
    index.add_argument("--out", required=True, help="output engine directory")
    index.add_argument("--embeddings-dump", dest="embeddings_dump",
                       help="ingest document embeddings from an external dump")
    index.add_argument("--config", help="JSON config file (flags override it)")
    _add_config_flags(index)
    index.add_argument("--threads", type=int, default=1, help=_NO_EFFECT)

    search = sub.add_parser("search", help="rank documents for one query")
    search.add_argument("--index", required=True, help="engine directory")
    search.add_argument("--query", required=True)
    search.add_argument("--qid", default="q1", help="query id used in the run output")
    search.add_argument("--tag", default="mve", help="run tag")
    search.add_argument("--strategy", choices=[s.value for s in Strategy])
    search.add_argument("--p", type=int)
    search.add_argument("--k", type=int)
    search.add_argument("--k-prime", dest="k_prime", type=int)
    search.add_argument("--n-probe", dest="n_probe", type=int)
    search.add_argument("--threads", type=int, default=1, help=_NO_EFFECT)

    sweep = sub.add_parser("sweep", help="evaluate strategies across pruning levels")
    sweep.add_argument("--index", required=True, help="engine directory")
    sweep.add_argument("--queries", required=True, help="qid<TAB>text file")
    sweep.add_argument("--qrels", required=True, help="TREC qrels file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--strategies", default="first,icf",
                       help="comma-separated orderings (default: first,icf)")
    sweep.add_argument("--p-values", dest="p_values",
                       help="values of p, e.g. '1-8' or '1,2,4,32' (default: 1-q_len)")
    sweep.add_argument("--alpha", type=float, default=0.05)
    sweep.add_argument("--threads", type=int, default=1, help="worker threads across queries")

    evaluate = sub.add_parser("eval", help="score a TREC run file against qrels")
    evaluate.add_argument("--run", required=True)
    evaluate.add_argument("--qrels", required=True)
    evaluate.add_argument("--threads", type=int, default=1, help=_NO_EFFECT)
    return parser


def _parse_ranges(spec: str) -> list[tuple[int, int]]:
    """``'1-8,32'`` as ``[(1, 8), (32, 32)]``; nothing is expanded yet."""
    ranges: list[tuple[int, int]] = []
    try:
        for piece in spec.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "-" in piece[1:]:
                low_text, high_text = piece.split("-", 1)
                low, high = int(low_text), int(high_text)
                if high < low:
                    raise UsageError(f"empty range {piece!r}")
            else:
                low = high = int(piece)
            ranges.append((low, high))
    except ValueError as exc:
        raise UsageError(f"cannot parse {spec!r} as integers or ranges") from exc
    if not ranges:
        raise UsageError(f"no values in {spec!r}")
    return ranges


def _expand_p_values(ranges: list[tuple[int, int]], q_len: int) -> list[int]:
    """Every p the ranges name, once each is known to lie in ``[1, q_len]``,
    so that no range is expanded past the engine's query length."""
    for low, high in ranges:
        if low < 1 or high > q_len:
            span = str(low) if low == high else f"{low}-{high}"
            raise UsageError(f"--p-values must lie in [1, q_len={q_len}], got {span}")
    return [p for low, high in ranges for p in range(low, high + 1)]


def _echo(message: str) -> None:
    print(message, file=sys.stderr)


def _resolve_build_config(args: argparse.Namespace) -> EngineConfig:
    """Defaults, then config file, then flags; MVE_SEED trumps all for the seed."""
    values = dataclasses.asdict(EngineConfig())
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"--config {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError(f"--config {args.config}: expected a JSON object")
        values.update(file_values)
    for field in dataclasses.fields(EngineConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    return EngineConfig.from_mapping(values)


def _echo_config(config: EngineConfig) -> None:
    _echo("config: " + json.dumps(dataclasses.asdict(config), sort_keys=True))


def _cmd_index(args: argparse.Namespace) -> int:
    config = _resolve_build_config(args)
    corpus = read_corpus(args.corpus)
    dump_docs = read_embeddings_dump(args.embeddings_dump) if args.embeddings_dump else None
    engine = build_engine(corpus, config, dump_docs)
    save_engine(engine, args.out)
    _echo_config(engine.config)
    store = engine.index.store
    _echo(
        f"indexed {store.num_docs} docs, {store.num_embeddings} embeddings, "
        f"n_list={engine.index.n_list} -> {args.out}"
    )
    sizes = [len(ids) for ids in engine.index.lists]
    _echo(
        f"k-means objective {engine.index.centroids.objective_history[-1]!r}; "
        f"list sizes max {max(sizes)}, mean {sum(sizes) / len(sizes):.1f}"
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    for flag, value in (("--qid", args.qid), ("--tag", args.tag)):
        if not is_single_field(value):
            raise UsageError(f"{flag} must be non-empty and free of whitespace, got {value!r}")
    engine = load_engine(args.index)
    pruning = engine.pruning(
        strategy=args.strategy, p=args.p, k_prime=args.k_prime, n_probe=args.n_probe
    )
    k = args.k if args.k is not None else engine.config.k
    _echo_config(engine.config)
    _echo(
        "search: "
        + json.dumps(
            {
                "strategy": pruning.strategy.value,
                "p": pruning.p,
                "k": k,
                "k_prime": pruning.k_prime,
                "n_probe": pruning.n_probe,
            },
            sort_keys=True,
        )
    )
    ranking, candidates = engine.search(
        args.query,
        strategy=pruning.strategy,
        p=pruning.p,
        k=k,
        k_prime=pruning.k_prime,
        n_probe=pruning.n_probe,
    )
    sys.stdout.write(format_run_lines(args.qid, ranking, args.tag))
    _echo(f"candidates: {len(candidates)}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        strategies = [Strategy(s.strip()) for s in args.strategies.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(
            f"--strategies must name {[s.value for s in Strategy]}, got {args.strategies!r}"
        ) from exc
    ranges = _parse_ranges(args.p_values) if args.p_values else None
    engine = load_engine(args.index)
    q_len = engine.config.q_len
    p_values = _expand_p_values(ranges or [(1, q_len)], q_len)
    queries = load_queries(args.queries)
    qrels = load_qrels(args.qrels)
    _echo_config(engine.config)
    table = engine.sweep(
        queries, qrels, strategies, p_values, alpha=args.alpha, threads=args.threads
    )
    table.write_csv(args.out)
    _echo(f"sweep: {len(table.rows)} rows -> {args.out}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    rankings = read_run(args.run)
    qrels = load_qrels(args.qrels)
    query_ids = qrels.query_ids()
    empty = Ranking(entries=(), k=1)
    totals = {"ndcg10": 0.0, "map": 0.0, "mrr10": 0.0}
    for qid in query_ids:
        ranking = rankings.get(qid, empty)
        totals["ndcg10"] += ndcg_at(ranking, qrels, qid)
        totals["map"] += average_precision(ranking, qrels, qid)
        totals["mrr10"] += rr_at(ranking, qrels, qid)
    count = len(query_ids)
    sys.stdout.write(f"num_queries {count}\n")
    for name in ("ndcg10", "map", "mrr10"):
        mean = totals[name] / count if count else 0.0
        sys.stdout.write(f"{name} {mean:.6f}\n")
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "search": _cmd_search,
    "sweep": _cmd_sweep,
    "eval": _cmd_eval,
}


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except CorruptIndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run(sys.argv[1:]))
