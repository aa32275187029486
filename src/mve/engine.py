"""Engine assembly: configuration, corpus-to-index building, and the on-disk
engine directory (config.json + lexicon.tsv + index.mvix, and codes.bin for
a store whose embeddings repeat rows of its table, such as one built from
the built-in token table)."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import (
    FIRST_WORDPIECE_ID,
    Lexicon,
    QueryEncoder,
    Vocabulary,
    count_lexicon,
    is_single_field,
    load_lexicon,
    save_lexicon,
    token_table,
    tokenize_flat,
)
from .errors import CorruptIndexError, EngineError, InvalidConfigError, InvalidInputError
from .evaluation import Qrels, SweepTable, sweep
from .index import (
    EmbeddingStore,
    IvfIndex,
    build_ivf,
    default_n_list,
    load_index,
    save_codes,
    save_index,
    train_centroids,
)
from .retrieval import CandidateSet, PruningConfig, Ranking, Strategy, search

CONFIG_FILE = "config.json"
LEXICON_FILE = "lexicon.tsv"
INDEX_FILE = "index.mvix"
CODES_FILE = "codes.bin"


@dataclass(frozen=True)
class EngineConfig:
    """Every engine knob in one place.

    ``n_list=None`` resolves at build time to floor(sqrt(total embeddings)),
    capped by the training sample size; ``p=None`` resolves to ``q_len``
    (no pruning). The config round-trips through ``config.json`` unchanged.
    """

    dim: int = 16
    q_len: int = 32
    k: int = 1000
    k_prime: int = 1000
    n_list: int | None = None
    n_probe: int = 10
    sample_fraction: float = 0.05
    iterations: int = 20
    seed: int = 42
    strategy: str = Strategy.ICF.value
    p: int | None = None

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "strategy" or (value is None and field.default is None):
                continue
            wanted = numbers.Real if field.name == "sample_fraction" else numbers.Integral
            if isinstance(value, bool) or not isinstance(value, wanted):
                kind = "a number" if wanted is numbers.Real else "an integer"
                raise InvalidConfigError(f"{field.name} must be {kind}, got {value!r}")
        try:
            object.__setattr__(self, "strategy", Strategy(self.strategy).value)
        except ValueError as exc:
            raise InvalidConfigError(
                f"strategy must be one of {[s.value for s in Strategy]}, got {self.strategy!r}"
            ) from exc
        if self.dim < 1:
            raise InvalidConfigError(f"dim must be >= 1, got {self.dim}")
        if self.q_len < 2:
            raise InvalidConfigError(f"q_len must be >= 2, got {self.q_len}")
        for name in ("k", "k_prime", "n_probe", "iterations"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_list is not None and self.n_list < 1:
            raise InvalidConfigError(f"n_list must be >= 1, got {self.n_list}")
        if not (0.0 < self.sample_fraction <= 1.0):
            raise InvalidConfigError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.p is not None and not (1 <= self.p <= self.q_len):
            raise InvalidConfigError(f"p must be in [1, q_len={self.q_len}], got {self.p}")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_mapping(cls, mapping: dict) -> "EngineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**mapping)


@dataclass(frozen=True)
class Engine:
    """A built engine: immutable after construction, safe to share."""

    config: EngineConfig
    vocab: Vocabulary
    lexicon: Lexicon
    index: IvfIndex

    @property
    def encoder(self) -> QueryEncoder:
        return QueryEncoder(
            vocab=self.vocab,
            dim=self.config.dim,
            q_len=self.config.q_len,
            seed=self.config.seed,
        )

    def pruning(
        self,
        strategy: Strategy | str | None = None,
        p: int | None = None,
        k_prime: int | None = None,
        n_probe: int | None = None,
    ) -> PruningConfig:
        """Resolve a pruning config against this engine's defaults.

        ``n_probe`` is capped at ``n_list`` so the default probe width works
        on indexes with few partitions.
        """
        resolved_probe = n_probe if n_probe is not None else self.config.n_probe
        # anything but a number is left for PruningConfig to reject
        if isinstance(resolved_probe, numbers.Real) and resolved_probe >= 1:
            resolved_probe = min(resolved_probe, self.index.n_list)
        return PruningConfig(
            strategy=Strategy(strategy) if strategy is not None else Strategy(self.config.strategy),
            p=p if p is not None else (self.config.p or self.config.q_len),
            k_prime=k_prime if k_prime is not None else self.config.k_prime,
            n_probe=resolved_probe,
        )

    def search(
        self,
        query_text: str,
        *,
        strategy: Strategy | str | None = None,
        p: int | None = None,
        k: int | None = None,
        k_prime: int | None = None,
        n_probe: int | None = None,
    ) -> tuple[Ranking, CandidateSet]:
        config = self.pruning(strategy=strategy, p=p, k_prime=k_prime, n_probe=n_probe)
        return search(
            query_text, self.index, self.lexicon, self.encoder, config,
            k if k is not None else self.config.k,
        )

    def sweep(
        self,
        queries: Sequence[tuple[str, str]],
        qrels: Qrels,
        strategies: Sequence[Strategy | str] = (Strategy.FIRST, Strategy.ICF),
        p_values: Sequence[int] | None = None,
        *,
        alpha: float = 0.05,
        threads: int = 1,
    ) -> SweepTable:
        if p_values is None:
            p_values = range(1, self.config.q_len + 1)
        return sweep(
            queries,
            qrels,
            self.index,
            self.lexicon,
            self.encoder,
            strategies,
            p_values,
            k=self.config.k,
            k_prime=self.config.k_prime,
            n_probe=min(self.config.n_probe, self.index.n_list),
            alpha=alpha,
            threads=threads,
        )


def _check_doc_ids(pairs: Sequence[tuple[str, object]]) -> None:
    for doc_id, _ in pairs:
        if not is_single_field(doc_id):
            raise InvalidInputError(f"doc id {doc_id!r} is empty or contains whitespace")


def build_engine(
    corpus: Sequence[tuple[str, str]],
    config: EngineConfig,
    dump_docs: Sequence[tuple[str, np.ndarray]] | None = None,
) -> Engine:
    """Build lexicon, store, centroids, and inverted file from a raw corpus.

    With ``dump_docs`` the document embeddings come from an external dump
    (its dimension overrides ``config.dim``; the dump must cover exactly the
    corpus doc ids) while collection statistics still come from the corpus
    text. Without it, documents are embedded by the built-in token embedder.
    Doc ids must be non-empty and free of whitespace, so that a run file can
    carry them.

    The corpus is tokenized into one flat token-id array; the lexicon is
    counted from it, and the built-in store is the token table with each
    embedding's row number in it as its code
    (:meth:`~mve.index.EmbeddingStore.from_table`): no per-document arrays
    and no array of every embedding's vector are built.
    """
    _check_doc_ids(corpus)
    doc_ids = [doc_id for doc_id, _ in corpus]
    token_ids, lengths, vocab = tokenize_flat(corpus)
    lexicon = count_lexicon(token_ids, lengths, doc_ids)
    if dump_docs is None:
        codes = token_ids - FIRST_WORDPIECE_ID
        table = token_table(len(vocab), config.seed, config.dim)
        store = EmbeddingStore.from_table(table, codes, lengths, doc_ids)
    else:
        _check_doc_ids(dump_docs)
        store = EmbeddingStore.from_blocks(dump_docs)
        if set(store.doc_ids) != set(doc_ids):
            raise InvalidInputError("embeddings dump does not cover exactly the corpus doc ids")
        config = dataclasses.replace(config, dim=store.dim)

    if config.n_list is None:
        sample_size = min(
            store.num_embeddings, math.ceil(config.sample_fraction * store.num_embeddings)
        )
        n_list = min(default_n_list(store.num_embeddings), sample_size)
    else:
        n_list = config.n_list
    config = dataclasses.replace(config, n_list=n_list)
    centroids = train_centroids(
        store, config.sample_fraction, n_list, config.iterations, config.seed
    )
    index = build_ivf(store, centroids)
    return Engine(config=config, vocab=vocab, lexicon=lexicon, index=index)


def save_engine(engine: Engine, directory: str | Path) -> None:
    """Write an engine directory; ``codes.bin`` unless the store's codes
    are ``0 ... n-1``, as they are for a store whose embeddings are its
    table, which then loads to the same store without the file.

    An older ``codes.bin`` is deleted first, so a directory never pairs this
    engine's index with another engine's codes, even if the save stops
    part way.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / CODES_FILE).unlink(missing_ok=True)
    (directory / CONFIG_FILE).write_text(engine.config.to_json(), encoding="utf-8")
    save_lexicon(engine.lexicon, engine.vocab, directory / LEXICON_FILE)
    save_index(engine.index, directory / INDEX_FILE)
    codes = engine.index.store.codes
    if not np.array_equal(codes, np.arange(len(codes))):
        save_codes(engine.index.store, directory / CODES_FILE)


@contextmanager
def _engine_file(path: Path) -> Iterator[None]:
    """Report an ``OSError`` from reading engine file ``path`` as damage to
    the file: a directory in its place, or a file that cannot be read."""
    try:
        yield
    except OSError as exc:
        named = path if exc.filename is None else exc.filename
        raise CorruptIndexError(
            f"{named}: unreadable engine file: {exc.strerror or exc}"
        ) from exc


def load_engine(directory: str | Path) -> Engine:
    """Load an engine directory, cross-checking config against the index.

    A directory without ``config.json`` is not an engine directory
    (:class:`InvalidInputError`). A missing ``lexicon.tsv`` or
    ``index.mvix``, a file of the directory that cannot be read (an
    ``OSError``, as when a directory stands in its place), or content of any
    of its files that does not read back, raises :class:`CorruptIndexError`
    naming the file.

    ``codes.bin`` is read when it exists; a directory without it loads a
    store whose table is its embeddings, with codes ``0 ... n-1``. The
    codes are always checked against the stored embeddings (see
    :func:`mve.index.load_index`): MaxSim scores from the rows the codes
    name, so codes that a torn write, a save that stopped between files or
    a mix of two saves' files left out of step with ``index.mvix`` must
    fail the load, not score from the wrong rows.
    """
    directory = Path(directory)
    config_path = directory / CONFIG_FILE
    if not config_path.exists():
        raise InvalidInputError(f"{directory} is not an engine directory (missing {CONFIG_FILE})")
    with _engine_file(config_path):
        try:
            config = EngineConfig.from_mapping(json.loads(config_path.read_text(encoding="utf-8")))
        except (ValueError, TypeError, InvalidConfigError) as exc:  # ValueError: decode, JSON
            raise CorruptIndexError(f"{config_path}: unreadable config: {exc}") from exc
    for name in (INDEX_FILE, LEXICON_FILE):
        if not (directory / name).exists():
            raise CorruptIndexError(f"{directory / name}: missing engine file")
    codes_path = directory / CODES_FILE
    with _engine_file(directory / INDEX_FILE):  # or codes.bin, which the error then names
        index = load_index(directory / INDEX_FILE, codes_path if codes_path.exists() else None)
    if config.dim != index.dim:
        raise CorruptIndexError(
            f"config dim {config.dim} disagrees with index dim {index.dim}"
        )
    if config.n_list is not None and config.n_list != index.n_list:
        raise CorruptIndexError(
            f"config n_list {config.n_list} disagrees with index n_list {index.n_list}"
        )
    with _engine_file(directory / LEXICON_FILE):
        try:
            lexicon, vocab = load_lexicon(directory / LEXICON_FILE, num_docs=index.store.num_docs)
        except EngineError as exc:
            raise CorruptIndexError(str(exc)) from exc
    return Engine(config=config, vocab=vocab, lexicon=lexicon, index=index)
