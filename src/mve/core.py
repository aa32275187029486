"""Domain types, tokenization, the deterministic token embedder, and
collection statistics.

Queries and documents are token sequences; every token id is mapped to one
unit-length float32 vector by a seeded generator, so the query and document
sides share the same embedding function and equal tokens always compare at
similarity 1.0. Collection statistics (per-token collection frequency and
document frequency) drive the embedding-ordering strategies in
:mod:`mve.retrieval`.

A corpus is built flat: :func:`tokenize_flat` turns it into one int64 array
of token ids in corpus order plus per-document lengths,
:func:`count_lexicon` counts that array, and :func:`token_table` gives the
rows the array indexes. :func:`embed_corpus` and :func:`build_lexicon` are
per-document views over the same three functions.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import hashlib
import itertools
import math
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

CLS_ID = 0
MASK_ID = 1
FIRST_WORDPIECE_ID = 2
# Query tokens absent from the corpus vocabulary resolve to hash-derived ids
# in a range disjoint from any assigned id, so distinct unseen surfaces still
# embed to distinct vectors.
OOV_ID_BASE = 1 << 32

CLS_SURFACE = "[CLS]"
MASK_SURFACE = "[MASK]"

_SEED_MASK = (1 << 64) - 1


class TokenKind(enum.Enum):
    WORDPIECE = "wordpiece"
    CLS = "cls"
    MASK = "mask"


@dataclass(frozen=True)
class Token:
    """One token occurrence: vocabulary id, surface form, kind, and its
    0-based position within the sequence it belongs to."""

    id: int
    surface: str
    kind: TokenKind
    position: int


class _PunctuationTable(dict):
    """``str.translate`` table deleting Unicode ``P*`` characters.

    Filled lazily, one entry per distinct code point seen, so importing the
    module costs nothing.
    """

    def __missing__(self, code_point: int) -> int | None:
        keep = not unicodedata.category(chr(code_point)).startswith("P")
        value = self[code_point] = code_point if keep else None
        return value


_PUNCTUATION = _PunctuationTable()


def tokenize(text: str) -> list[str]:
    """Lowercase, delete Unicode punctuation (category ``P*``), and split on
    whitespace as ``str.split`` does.

    Chunks that consist only of punctuation disappear entirely. Deleting
    before splitting gives the same words as splitting first, because no
    code point is both whitespace and punctuation.
    """
    return text.lower().translate(_PUNCTUATION).split()


def oov_id(surface: str) -> int:
    """Deterministic id for a surface never seen in the corpus vocabulary."""
    digest = hashlib.blake2b(surface.encode("utf-8"), digest_size=8).digest()
    return OOV_ID_BASE + (int.from_bytes(digest, "little") >> 33)


class Vocabulary:
    """Stable surface-to-id assignment shared by documents and queries.

    Ids 0 and 1 are reserved for the CLS and MASK specials; wordpiece ids
    start at 2 in first-occurrence order, so the row order of an exported
    lexicon file reproduces the assignment exactly.
    """

    def __init__(self, surfaces: Iterable[str] = ()) -> None:
        self._surfaces: list[str] = list(dict.fromkeys(surfaces))
        self._ids: dict[str, int] = dict(
            zip(self._surfaces, itertools.count(FIRST_WORDPIECE_ID))
        )

    def __len__(self) -> int:
        return len(self._surfaces)

    def id_of(self, surface: str) -> int:
        """Resolve a surface to its id; unseen surfaces get a stable OOV id."""
        token_id = self._ids.get(surface)
        return oov_id(surface) if token_id is None else token_id

    def surfaces(self) -> Iterator[str]:
        """Surfaces in id order (id = 2 + row number)."""
        return iter(self._surfaces)


def tokenize_and_augment(query_text: str, q_len: int, vocab: Vocabulary) -> tuple[Token, ...]:
    """Tokenize a query and pad it to a fixed length.

    The result is ``[CLS]`` followed by the query wordpieces and then MASK
    padding up to exactly ``q_len`` tokens. Queries longer than ``q_len - 1``
    wordpieces are truncated and receive no padding.

    Args:
        query_text: Raw query string; must be non-empty after trimming.
        q_len: Fixed augmented length, at least 2.
        vocab: Corpus vocabulary used to resolve token ids.

    Raises:
        InvalidConfigError: If ``q_len < 2``.
        InvalidInputError: If the query is empty.
    """
    if q_len < 2:
        raise InvalidConfigError(f"q_len must be >= 2, got {q_len}")
    if not query_text.strip():
        raise InvalidInputError("query text is empty")
    words = tokenize(query_text)[: q_len - 1]
    tokens = [Token(CLS_ID, CLS_SURFACE, TokenKind.CLS, 0)]
    for word in words:
        tokens.append(Token(vocab.id_of(word), word, TokenKind.WORDPIECE, len(tokens)))
    while len(tokens) < q_len:
        tokens.append(Token(MASK_ID, MASK_SURFACE, TokenKind.MASK, len(tokens)))
    return tuple(tokens)


@functools.lru_cache(maxsize=1 << 16)
def _cached_vector(seed: int, token_id: int, dim: int) -> np.ndarray:
    sequence = np.random.SeedSequence([seed & _SEED_MASK, token_id])
    vector = np.random.default_rng(sequence).standard_normal(dim)
    norm = np.linalg.norm(vector)
    if norm == 0.0:  # unreachable for Gaussian draws, guards dim misuse
        raise InvalidConfigError("degenerate zero-norm embedding")
    unit = (vector / norm).astype(np.float32)
    unit.setflags(write=False)
    return unit


def token_vector(token_id: int, seed: int, dim: int) -> np.ndarray:
    """Unit-length float32 vector for one token id; pure in (seed, id, dim)."""
    if dim <= 0:
        raise InvalidConfigError(f"embedding dim must be positive, got {dim}")
    return _cached_vector(seed, token_id, dim)


def embed_tokens(tokens: Sequence[Token], seed: int, dim: int) -> np.ndarray:
    """Embed a token sequence row by row; shape ``(len(tokens), dim)``."""
    out = np.empty((len(tokens), dim), dtype=np.float32)
    for i, token in enumerate(tokens):
        out[i] = token_vector(token.id, seed, dim)
    return out


def _require_matrix(embeddings: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(embeddings)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidInputError(f"{what}: expected a non-empty 2-d embedding array")
    if arr.dtype != np.float32:
        arr = arr.astype(np.float32)
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{what}: embeddings contain NaN or Inf")
    return arr


@dataclass(frozen=True)
class QueryRepresentation:
    """Fixed-length augmented query: parallel tokens and embeddings."""

    tokens: tuple[Token, ...]
    embeddings: np.ndarray  # (q_len, dim) float32

    def __post_init__(self) -> None:
        arr = _require_matrix(self.embeddings, "query")
        object.__setattr__(self, "embeddings", arr)
        if len(self.tokens) != arr.shape[0]:
            raise InvalidInputError("query tokens and embeddings differ in length")
        kinds = [t.kind for t in self.tokens]
        if kinds[0] is not TokenKind.CLS or kinds.count(TokenKind.CLS) != 1:
            raise InvalidInputError("query must start with exactly one CLS token")
        first_mask = kinds.index(TokenKind.MASK) if TokenKind.MASK in kinds else len(kinds)
        if any(k is TokenKind.MASK for k in kinds[:first_mask]) or any(
            k is not TokenKind.MASK for k in kinds[first_mask:]
        ):
            raise InvalidInputError("MASK tokens must form a contiguous suffix")

    @property
    def q_len(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    @functools.cached_property
    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(firsts, slots)``: the first position of each distinct embedding
        row, in position order, and for every position the index of its row
        in ``firsts``.

        Rows are compared by their bytes, so two positions share a slot only
        when every computation on them gives the same bits. MASK padding and
        repeated words collapse into one slot each.
        """
        slot_of: dict[bytes, int] = {}
        firsts: list[int] = []
        slots: list[int] = []
        for position, row in enumerate(self.embeddings):
            key = row.tobytes()
            if key not in slot_of:
                slot_of[key] = len(firsts)
                firsts.append(position)
            slots.append(slot_of[key])
        out = np.array(firsts, dtype=np.intp), np.array(slots, dtype=np.intp)
        for array in out:
            array.flags.writeable = False
        return out


@dataclass(frozen=True)
class DocumentEntry:
    """One document: id, per-token embeddings, and the parallel token ids."""

    doc_id: str
    embeddings: np.ndarray  # (num_tokens, dim) float32
    token_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = _require_matrix(self.embeddings, f"document {self.doc_id!r}")
        object.__setattr__(self, "embeddings", arr)
        object.__setattr__(self, "token_ids", tuple(int(t) for t in self.token_ids))
        if len(self.token_ids) != arr.shape[0]:
            raise InvalidInputError(
                f"document {self.doc_id!r}: token ids and embeddings differ in length"
            )


@dataclass(frozen=True)
class QueryEncoder:
    """Query-side encoder: tokenize, augment, embed. Mirrors the document side."""

    vocab: Vocabulary
    dim: int
    q_len: int
    seed: int

    def encode(self, query_text: str) -> QueryRepresentation:
        tokens = tokenize_and_augment(query_text, self.q_len, self.vocab)
        return QueryRepresentation(tokens, embed_tokens(tokens, self.seed, self.dim))


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    cf: int  # total occurrences across the collection
    df: int  # number of documents containing the token


@dataclass(frozen=True)
class Lexicon:
    """Per-token collection statistics over a fixed corpus.

    Tokens without an entry (special tokens, unseen query tokens) count as
    cf = 0 and df = 0.
    """

    entries: dict[int, LexiconEntry]
    num_docs: int
    num_tokens: int

    def cf(self, token_id: int) -> int:
        entry = self.entries.get(token_id)
        return 0 if entry is None else entry.cf

    def df(self, token_id: int) -> int:
        entry = self.entries.get(token_id)
        return 0 if entry is None else entry.df

    def idf(self, token_id: int) -> float:
        """Smoothed inverse document frequency: log((N + 1) / (df + 1))."""
        return math.log((self.num_docs + 1) / (self.df(token_id) + 1))


def count_lexicon(
    token_ids: np.ndarray, lengths: np.ndarray, doc_ids: Sequence[str]
) -> Lexicon:
    """Count collection and document frequencies over a flat corpus.

    ``token_ids`` holds every document's token ids in corpus order and
    ``lengths[i]`` is the token count of document ``doc_ids[i]``. One stable
    sort groups the array by token with each group's positions ascending, so
    a group's first element is the token's first occurrence and a new
    ``(token, document)`` pair starts wherever the token or the document
    changes. Ids are never used as array indices, so sparse ids (such as
    OOV ids) cost no more than dense ones. Entries are in first-occurrence
    order.

    Raises:
        InvalidInputError: On an empty corpus, or naming the first document
            that carries a reserved special-token id, and that id.
    """
    if not doc_ids:
        raise InvalidInputError("cannot build a lexicon from an empty corpus")
    reserved = np.flatnonzero(token_ids < FIRST_WORDPIECE_ID)
    if reserved.size:
        at = int(reserved[0])
        doc = int(np.searchsorted(np.cumsum(lengths), at, side="right"))
        raise InvalidInputError(
            f"document {doc_ids[doc]!r} contains reserved token id {int(token_ids[at])}"
        )
    order = np.argsort(token_ids, kind="stable")
    tokens = token_ids[order]
    docs = np.repeat(np.arange(len(lengths)), lengths)[order]
    new_token = np.diff(tokens, prepend=-1) != 0
    new_pair = new_token | (np.diff(docs, prepend=-1) != 0)
    starts = np.flatnonzero(new_token)
    cf = np.diff(starts, append=tokens.size)
    df = np.add.reduceat(new_pair, starts, dtype=np.int64)
    by_first = np.argsort(order[starts])
    entries = {
        token_id: LexiconEntry(cf=c, df=d)
        for token_id, c, d in zip(
            tokens[starts][by_first].tolist(), cf[by_first].tolist(), df[by_first].tolist()
        )
    }
    return Lexicon(entries=entries, num_docs=len(doc_ids), num_tokens=tokens.size)


def build_lexicon(corpus: Sequence[DocumentEntry]) -> Lexicon:
    """Count collection and document frequencies over a corpus.

    Raises:
        InvalidInputError: On an empty corpus, or if a document carries a
            reserved special-token id (specials never occur in documents).
    """
    lengths = np.fromiter((len(doc.token_ids) for doc in corpus), dtype=np.int64)
    token_ids = np.fromiter(
        itertools.chain.from_iterable(doc.token_ids for doc in corpus),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    return count_lexicon(token_ids, lengths, [doc.doc_id for doc in corpus])


@contextlib.contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading.

    Bytes that do not decode as UTF-8 raise :class:`InvalidInputError`
    naming the file, not a ``UnicodeDecodeError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def is_single_field(value: str) -> bool:
    """True if ``value`` is non-empty and free of whitespace, so that it
    reads back as one field of a whitespace-separated run or qrels line."""
    return value.split() == [value]


def read_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Read a corpus file: one ``doc_id<TAB>text`` line per document, UTF-8.

    Doc ids must be non-empty and free of whitespace.
    """
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise InvalidInputError(f"{path}:{lineno}: expected doc_id<TAB>text")
            doc_id, text = line.split("\t", 1)
            if not is_single_field(doc_id):
                raise InvalidInputError(
                    f"{path}:{lineno}: doc id {doc_id!r} is empty or contains whitespace"
                )
            if doc_id in seen:
                raise InvalidInputError(f"{path}:{lineno}: duplicate doc id {doc_id!r}")
            seen.add(doc_id)
            pairs.append((doc_id, text))
    if not pairs:
        raise InvalidInputError(f"{path}: corpus is empty")
    return pairs


def tokenize_flat(
    pairs: Sequence[tuple[str, str]],
) -> tuple[np.ndarray, np.ndarray, Vocabulary]:
    """Tokenize raw documents into one flat array of token ids.

    Returns ``(token_ids, lengths, vocab)``: the int64 token ids of every
    document in corpus order, each document's token count (int64), and the
    vocabulary, whose ids are assigned in first-occurrence order over the
    whole corpus.

    Raises:
        InvalidInputError: Naming the first document that has no tokens.
    """
    words = [tokenize(text) for _, text in pairs]
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        raise InvalidInputError(f"document {pairs[int(empty[0])][0]!r} has no tokens")
    chained = itertools.chain.from_iterable
    vocab = Vocabulary(chained(words))
    token_ids = np.fromiter(
        map(vocab._ids.__getitem__, chained(words)), dtype=np.int64, count=int(lengths.sum())
    )
    return token_ids, lengths, vocab


def token_table(vocab_size: int, seed: int, dim: int) -> np.ndarray:
    """The float32 vectors of every vocabulary id; row ``r`` embeds id
    ``FIRST_WORDPIECE_ID + r``, so ``table[token_ids - FIRST_WORDPIECE_ID]``
    embeds a token-id array."""
    return np.array(
        [token_vector(FIRST_WORDPIECE_ID + row, seed, dim) for row in range(vocab_size)],
        dtype=np.float32,
    )


def embed_corpus(
    pairs: Sequence[tuple[str, str]], seed: int, dim: int
) -> tuple[list[DocumentEntry], Vocabulary]:
    """Tokenize and embed raw documents, assigning vocabulary ids as they appear.

    The per-document view of :func:`tokenize_flat` and :func:`token_table`:
    each entry holds its document's slice of the embedded flat array.
    """
    token_ids, lengths, vocab = tokenize_flat(pairs)
    vectors = token_table(len(vocab), seed, dim)[token_ids - FIRST_WORDPIECE_ID]
    bounds = np.cumsum(lengths)[:-1]
    entries = [
        DocumentEntry(doc_id, block, tuple(ids.tolist()))
        for (doc_id, _), block, ids in zip(
            pairs, np.split(vectors, bounds), np.split(token_ids, bounds)
        )
    ]
    return entries, vocab


def save_lexicon(lexicon: Lexicon, vocab: Vocabulary, path: str | Path) -> None:
    """Write ``token<TAB>cf<TAB>df`` rows in id order.

    Row order is significant: reloading assigns ids 2, 3, ... in file order,
    which reproduces the original vocabulary assignment.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for row, surface in enumerate(vocab.surfaces()):
            entry = lexicon.entries.get(FIRST_WORDPIECE_ID + row)
            if entry is None:
                raise InvalidInputError(f"vocabulary surface {surface!r} has no lexicon entry")
            handle.write(f"{surface}\t{entry.cf}\t{entry.df}\n")


def load_lexicon(path: str | Path, num_docs: int) -> tuple[Lexicon, Vocabulary]:
    """Read a lexicon file written by :func:`save_lexicon`.

    ``num_docs`` is not stored in the file and must be supplied (the index
    header carries it); ``num_tokens`` is recovered as the sum of cf values.
    The file is read in one call. Each row must hold three fields and
    integer counts with ``1 <= df <= min(cf, num_docs)``, checked row by row;
    the vocabulary is then built from all surfaces at once, and a token that
    repeats is reported at its first repeat. Errors name ``file:line``.
    """
    with open_text(path) as handle:
        lines = handle.read().split("\n")
    rows = [line.split("\t") for line in lines if line]

    def fail(row: int, problem: str) -> InvalidInputError:
        lineno = [n for n, line in enumerate(lines, start=1) if line][row]
        return InvalidInputError(f"{path}:{lineno}: {problem}")

    cf: list[int] = []
    df: list[int] = []
    for row, parts in enumerate(rows):
        if len(parts) != 3:
            raise fail(row, "expected token<TAB>cf<TAB>df")
        try:
            row_cf, row_df = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise fail(row, "non-integer count") from exc
        if not (1 <= row_df <= min(row_cf, num_docs)):
            raise fail(row, "counts violate 1 <= df <= min(cf, num_docs)")
        cf.append(row_cf)
        df.append(row_df)
    surfaces = [parts[0] for parts in rows]
    vocab = Vocabulary(surfaces)
    if len(vocab) != len(surfaces):
        seen: set[str] = set()
        for row, surface in enumerate(surfaces):
            if surface in seen:
                raise fail(row, f"duplicate token {surface!r}")
            seen.add(surface)
    entries = dict(zip(itertools.count(FIRST_WORDPIECE_ID), map(LexiconEntry, cf, df)))
    return Lexicon(entries=entries, num_docs=num_docs, num_tokens=sum(cf)), vocab
