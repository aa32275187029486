"""Identity guards for the bulk engine loaders.

``load_index`` reads the document table in one call and parses it in bulk,
and ``load_lexicon`` parses ``lexicon.tsv`` from one read. The
``reference_*`` functions below are verbatim copies of the per-entry and
per-line loaders they replaced. On every valid file both must return the
same content; on a damaged one both must raise ``CorruptIndexError``, except
where the bulk loader fixes a defect of the reference:

- a document ``start`` of 2**63 or more, on which the reference raises
  ``OverflowError``;
- a doc id that is empty or contains whitespace, which the reference
  accepts although no run file can carry it;
- an inverted-list id of 2**63 or more, which the reference wraps negative
  and reports only as inconsistent content, or as an ``IndexError``.

With ``codes.bin`` the reference is ``reference_load_index`` followed by
``EmbeddingStore(vectors, offsets, doc_ids, codes)``, which compares every
embedding with the other embeddings of its code.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mve.core import (
    FIRST_WORDPIECE_ID,
    Lexicon,
    LexiconEntry,
    Vocabulary,
    is_single_field,
    load_lexicon,
    open_text,
)
import mve.index
from mve.engine import (
    CODES_FILE,
    INDEX_FILE,
    LEXICON_FILE,
    EngineConfig,
    build_engine,
    save_engine,
)
from mve.errors import CorruptIndexError, InvalidInputError
from mve.index import (
    _DOC_TAIL,
    _HEADER,
    _U32,
    _U64,
    FORMAT_VERSION,
    INDEX_MAGIC,
    Centroids,
    EmbeddingStore,
    IvfIndex,
    _entry_dtype,
    build_ivf,
    load_index,
    save_codes,
    save_index,
    train_centroids,
)

from conftest import build_sample_index

# ---------------------------------------------------------------------------
# Reference copies of the per-entry loaders
# ---------------------------------------------------------------------------


def _read_exact(handle: BinaryIO, count: int, section: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise CorruptIndexError(f"truncated index file: {section}")
    return data


def reference_load_index(path: str | Path) -> IvfIndex:
    """Read an index file, validating every section before constructing.

    The sizes the header fixes (at least 16 bytes per document, the centroid
    block and a count per list, and one record per embedding) are checked
    against the file's size before anything is allocated, so a damaged
    count fails as corruption instead of as a huge allocation.

    Raises:
        CorruptIndexError: On a bad magic, unsupported version, truncation,
            or internally inconsistent content. Nothing partial is returned.
    """
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != INDEX_MAGIC:
            raise CorruptIndexError(f"bad magic {magic!r}, expected {INDEX_MAGIC!r}")
        version, dim, n_list, num_docs, num_embeddings = _HEADER.unpack(
            _read_exact(handle, _HEADER.size, "header")
        )
        if version != FORMAT_VERSION:
            raise CorruptIndexError(f"unsupported version {version}")
        if dim == 0 or n_list == 0 or num_docs == 0:
            raise CorruptIndexError("header declares an empty index")
        file_size = os.fstat(handle.fileno()).st_size
        least = (
            len(INDEX_MAGIC)
            + _HEADER.size
            + num_docs * (_U32.size + _DOC_TAIL.size)
            + n_list * (dim * 4 + _U64.size)
            + num_embeddings * (_U64.size + dim * 4)
        )
        if least > file_size:
            raise CorruptIndexError(
                f"header declares {num_docs} documents, {n_list} lists and "
                f"{num_embeddings} embeddings of dim {dim}, which need at least "
                f"{least} bytes, but the file has {file_size}"
            )

        doc_ids: list[str] = []
        offsets = np.empty((num_docs, 2), dtype=np.int64)
        for i in range(num_docs):
            (name_len,) = _U32.unpack(_read_exact(handle, 4, "document table"))
            raw = _read_exact(handle, name_len, "document table")
            try:
                doc_ids.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise CorruptIndexError(f"document table: undecodable name at entry {i}") from exc
            start, length = _DOC_TAIL.unpack(_read_exact(handle, _DOC_TAIL.size, "document table"))
            offsets[i] = (start, length)

        centroid_bytes = _read_exact(handle, n_list * dim * 4, "centroid block")
        centroid_vectors = np.frombuffer(centroid_bytes, dtype="<f4").reshape(n_list, dim).copy()

        entry_dtype = _entry_dtype(dim)
        vectors = np.empty((num_embeddings, dim), dtype=np.float32)
        lists: list[np.ndarray] = []
        seen = 0
        for c in range(n_list):
            (count,) = _U64.unpack(_read_exact(handle, 8, f"inverted list {c}"))
            seen += count
            if seen > num_embeddings:
                raise CorruptIndexError(
                    f"inverted list {c}: lists hold more embeddings than the header declares"
                )
            block = np.frombuffer(
                _read_exact(handle, count * entry_dtype.itemsize, f"inverted list {c}"),
                dtype=entry_dtype,
            )
            ids = block["id"].astype(np.int64)
            if count and (ids >= num_embeddings).any():
                raise CorruptIndexError(f"inverted list {c}: embedding id out of range")
            vectors[ids] = block["vec"]
            lists.append(ids)
        if seen != num_embeddings:
            raise CorruptIndexError(
                f"header declares {num_embeddings} embeddings but lists hold {seen}"
            )
        if handle.read(1):
            raise CorruptIndexError("trailing data after the final inverted list")

    try:
        store = EmbeddingStore(vectors=vectors, doc_offsets=offsets, doc_ids=tuple(doc_ids))
        return IvfIndex(store=store, centroids=Centroids(centroid_vectors), lists=tuple(lists))
    except InvalidInputError as exc:
        raise CorruptIndexError(f"inconsistent index content: {exc}") from exc


def reference_load_lexicon(path: str | Path, num_docs: int) -> tuple[Lexicon, Vocabulary]:
    """Read a lexicon file written by :func:`save_lexicon`.

    ``num_docs`` is not stored in the file and must be supplied (the index
    header carries it); ``num_tokens`` is recovered as the sum of cf values.
    """
    ids: dict[str, int] = {}
    entries: dict[int, LexiconEntry] = {}
    num_tokens = 0
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InvalidInputError(f"{path}:{lineno}: expected token<TAB>cf<TAB>df")
            surface, cf_text, df_text = parts
            try:
                cf, df = int(cf_text), int(df_text)
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: non-integer count") from exc
            if not (1 <= df <= min(cf, num_docs)):
                raise InvalidInputError(
                    f"{path}:{lineno}: counts violate 1 <= df <= min(cf, num_docs)"
                )
            token_id = ids.setdefault(surface, FIRST_WORDPIECE_ID + len(ids))
            if token_id in entries:
                raise InvalidInputError(f"{path}:{lineno}: duplicate token {surface!r}")
            entries[token_id] = LexiconEntry(cf=cf, df=df)
            num_tokens += cf
    return Lexicon(entries=entries, num_docs=num_docs, num_tokens=num_tokens), Vocabulary(ids)


# ---------------------------------------------------------------------------
# Valid engines
# ---------------------------------------------------------------------------


def assert_same_index(got, want):
    assert got.store.doc_ids == want.store.doc_ids
    assert got.store.doc_offsets.tobytes() == want.store.doc_offsets.tobytes()
    assert got.store.vectors.tobytes() == want.store.vectors.tobytes()
    assert got.centroids.vectors.tobytes() == want.centroids.vectors.tobytes()
    assert [ids.tobytes() for ids in got.lists] == [ids.tobytes() for ids in want.lists]


def assert_same_lexicon(got, want):
    (lexicon, vocab), (reference, reference_vocab) = got, want
    assert list(lexicon.entries.items()) == list(reference.entries.items())
    assert (lexicon.num_docs, lexicon.num_tokens) == (reference.num_docs, reference.num_tokens)
    assert list(vocab.surfaces()) == list(reference_vocab.surfaces())


def test_loaders_equal_the_references_on_the_planted_engine(small_planted_engine, tmp_path):
    save_engine(small_planted_engine, tmp_path)
    got = load_index(tmp_path / INDEX_FILE)
    assert_same_index(got, reference_load_index(tmp_path / INDEX_FILE))
    assert_same_index(got, small_planted_engine.index)
    num_docs = got.store.num_docs
    assert_same_lexicon(
        load_lexicon(tmp_path / LEXICON_FILE, num_docs),
        reference_load_lexicon(tmp_path / LEXICON_FILE, num_docs),
    )


def largest_list_middle(index: IvfIndex) -> int:
    """A row count at which a batch of the list section ends inside its
    largest list."""
    sizes = [len(ids) for ids in index.lists]
    largest = int(np.argmax(sizes))
    assert sizes[largest] >= 2
    return sum(sizes[:largest]) + sizes[largest] // 2


@pytest.mark.parametrize("batch", ["1", "inside the largest list", "beyond the store"])
def test_batch_size_does_not_change_a_load(small_planted_engine, tmp_path, monkeypatch, batch):
    save_engine(small_planted_engine, tmp_path)
    built = small_planted_engine.index
    rows = {
        "1": 1,
        "inside the largest list": largest_list_middle(built),
        "beyond the store": built.store.num_embeddings + 1,
    }[batch]
    monkeypatch.setattr(mve.index, "_LOAD_CHECK_BATCH", rows)
    coded = load_index(tmp_path / INDEX_FILE, tmp_path / CODES_FILE)
    plain = load_index(tmp_path / INDEX_FILE)
    for got in (coded, plain):
        assert_same_index(got, built)
    assert coded.store.codes.tobytes() == built.store.codes.tobytes()
    assert coded.store.table.tobytes() == built.store.table.tobytes()
    assert [r.tobytes() for r in coded.list_rows] == [r.tobytes() for r in built.list_rows]


def test_load_index_equals_the_reference_on_the_sample_index(tmp_path):
    path = tmp_path / INDEX_FILE
    save_index(build_sample_index(), path)
    assert_same_index(load_index(path), reference_load_index(path))


# ---------------------------------------------------------------------------
# Damaged index files
# ---------------------------------------------------------------------------


def outcome(load, *paths):
    """The loaded index, or the CorruptIndexError, OverflowError or
    IndexError raised."""
    try:
        return load(*paths)
    except (CorruptIndexError, OverflowError, IndexError) as exc:
        return exc


def reference_load_coded(path: Path, codes_path: Path) -> IvfIndex:
    """``reference_load_index`` with the codes of an undamaged ``codes.bin``
    checked by the store's constructor, against every embedding."""
    want = reference_load_index(path)
    codes = np.frombuffer(codes_path.read_bytes(), dtype="<u4", offset=16)
    try:
        store = EmbeddingStore(
            want.store.vectors, want.store.doc_offsets, want.store.doc_ids, codes
        )
    except InvalidInputError as exc:
        raise CorruptIndexError(f"inconsistent index content: {exc}") from exc
    return IvfIndex(store=store, centroids=want.centroids, lists=want.lists)


def assert_same_outcome(path, codes_path=None):
    if codes_path is None:
        got, want = outcome(load_index, path), outcome(reference_load_index, path)
    else:
        got = outcome(load_index, path, codes_path)
        want = outcome(reference_load_coded, path, codes_path)
    event(f"reference: {type(want).__name__}")
    if isinstance(want, OverflowError):
        # a start field of 2**63 or more
        assert isinstance(got, CorruptIndexError) and "document table" in str(got)
    elif isinstance(want, (IndexError, CorruptIndexError)):
        # IndexError: an inverted-list id of 2**63 or more, which the
        # reference wraps negative
        assert isinstance(got, CorruptIndexError)
    elif isinstance(want, IvfIndex) and not all(map(is_single_field, want.store.doc_ids)):
        assert isinstance(got, CorruptIndexError)
        assert "empty or contains whitespace" in str(got)
    else:
        assert_same_index(got, want)
        if codes_path is not None:
            assert got.store.codes.tobytes() == want.store.codes.tobytes()
            assert got.store.table.tobytes() == want.store.table.tobytes()


def index_named(names):
    """A small index over documents ``names`` of two embeddings each."""
    rng = np.random.default_rng(len(names))
    vectors = rng.standard_normal((2 * len(names), 3)).astype(np.float32)
    store = EmbeddingStore.from_lengths(vectors, [2] * len(names), names)
    return build_ivf(store, train_centroids(store, 1.0, 2, 2, seed=0))


NAMES = st.lists(
    st.one_of(
        st.sampled_from(["d00000", "d00001", "é", "文書", "¡x", "ß", "dĀ", "x¡"]),
        st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=5),
    ).filter(is_single_field),
    min_size=1,
    max_size=5,
    unique=True,
)


def damage(path: Path, index: IvfIndex, data) -> None:
    """Flip one bit of the header, the document table or the inverted lists
    of the index file ``path`` holds, cut the file anywhere or inside its
    lists, or append bytes to it."""
    raw = bytearray(path.read_bytes())
    table_at = len(INDEX_MAGIC) + _HEADER.size
    table_end = table_at + sum(
        _U32.size + len(name.encode("utf-8")) + _DOC_TAIL.size for name in index.store.doc_ids
    )
    lists_at = table_end + index.n_list * index.dim * 4
    sections = {
        "header": (0, table_at), "table": (table_at, table_end), "list": (lists_at, len(raw))
    }
    kind = data.draw(
        st.sampled_from(["list flip", "list cut", "table flip", "header flip", "cut", "append"])
    )
    if kind.endswith("flip"):
        first, end = sections[kind.split()[0]]
        raw[data.draw(st.integers(first, end - 1))] ^= 1 << data.draw(st.integers(0, 7))
    elif kind.endswith("cut"):
        del raw[data.draw(st.integers(lists_at if kind == "list cut" else 0, len(raw) - 1)) :]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=40))
    event(kind)
    path.write_bytes(bytes(raw))


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(names=NAMES, data=st.data())
def test_damaged_index_fails_or_loads_as_the_reference_does(tmp_path, names, data):
    path = tmp_path / INDEX_FILE
    index = index_named(names)
    save_index(index, path)
    damage(path, index, data)
    assert_same_outcome(path)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    names=NAMES,
    texts=st.lists(
        st.lists(st.sampled_from("abcd"), min_size=2, max_size=5), min_size=5, max_size=5
    ),
    dim=st.sampled_from([3, 4]),
    batch=st.sampled_from([1, 2, 3, 4096]),
    data=st.data(),
)
def test_damaged_coded_index_fails_or_loads_as_the_reference_does(
    tmp_path, monkeypatch, names, texts, dim, batch, data
):
    # a coded engine over four words, so most embeddings share their code
    # with another and a flipped vector bit in one of them fails the load
    monkeypatch.setattr(mve.index, "_LOAD_CHECK_BATCH", batch)
    corpus = [(name, " ".join(words)) for name, words in zip(names, texts)]
    config = EngineConfig(dim=dim, q_len=4, n_list=2, sample_fraction=1.0, iterations=2)
    engine = build_engine(corpus, config)
    save_engine(engine, tmp_path)
    codes = engine.index.store.codes
    # where every token occurs once the codes are 0 ... n-1 and the engine
    # directory holds no codes file; such codes are then loaded from one
    # written beside the index
    identity = np.array_equal(codes, np.arange(len(codes)))
    event(f"identity codes: {identity}")
    assert (tmp_path / CODES_FILE).exists() != identity
    if identity:
        save_codes(engine.index.store, tmp_path / CODES_FILE)
    damage(tmp_path / INDEX_FILE, engine.index, data)
    assert_same_outcome(tmp_path / INDEX_FILE, tmp_path / CODES_FILE)


def test_a_start_of_2_63_or_more_is_corruption_of_the_document_table(tmp_path):
    path = tmp_path / INDEX_FILE
    save_index(index_named(["d00000", "d00001"]), path)
    raw = bytearray(path.read_bytes())
    start_at = len(INDEX_MAGIC) + _HEADER.size + _U32.size + len("d00000")
    raw[start_at + 7] ^= 0x80  # bit 63 of entry 0's start
    path.write_bytes(bytes(raw))
    with pytest.raises(OverflowError):
        reference_load_index(path)
    with pytest.raises(CorruptIndexError, match="document table: entry 0"):
        load_index(path)


def test_a_doc_id_with_whitespace_is_corruption_of_the_document_table(tmp_path):
    path = tmp_path / INDEX_FILE
    save_index(index_named(["d00000", "d00001"]), path)
    raw = bytearray(path.read_bytes())
    name_at = len(INDEX_MAGIC) + _HEADER.size + _U32.size
    raw[name_at + 1] ^= 0x10  # "d00000" -> "d 0000"
    path.write_bytes(bytes(raw))
    assert reference_load_index(path).store.doc_ids[0] == "d 0000"
    with pytest.raises(CorruptIndexError, match="'d 0000' at entry 0 is empty or contains white"):
        load_index(path)


@pytest.mark.parametrize(
    "bad_id, reference_error",
    [(2**63, IndexError), (2**64 - 1, CorruptIndexError)],  # -2**63 and -1 as int64
)
def test_an_inverted_list_id_of_2_63_or_more_is_out_of_range(tmp_path, bad_id, reference_error):
    index = index_named(["d00000", "d00001"])
    path = tmp_path / INDEX_FILE
    save_index(index, path)
    raw = bytearray(path.read_bytes())
    first_list = len(raw) - sum(
        _U64.size + len(ids) * _entry_dtype(index.dim).itemsize for ids in index.lists
    )
    struct.pack_into("<Q", raw, first_list + _U64.size, bad_id)  # list 0's first id
    path.write_bytes(bytes(raw))
    with pytest.raises(reference_error) as want:
        reference_load_index(path)
    assert "inverted list 0" not in str(want.value)
    with pytest.raises(CorruptIndexError, match="inverted list 0: embedding id out of range"):
        load_index(path)


# ---------------------------------------------------------------------------
# Lexicon files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "a\t1\n",
        "\n\na\t1\t1\nb\t1\n",
        "a\t1\t1\nb\tx\t1\n",
        "a\t1\t2\n",
        "a\t9\t3\n",  # df above num_docs
        "a\t3\t1\nb\t1\t1\na\t2\t1\n",
        "a\t1\t1\r\nb\t2\t9\r\n",
        "a\t1\t1\rb\t1\n",
    ],
)
def test_load_lexicon_raises_what_the_reference_raises(tmp_path, text):
    path = tmp_path / LEXICON_FILE
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(InvalidInputError) as want:
        reference_load_lexicon(path, num_docs=2)
    with pytest.raises(InvalidInputError) as got:
        load_lexicon(path, num_docs=2)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}:")


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.text(st.sampled_from("ab\t\t\t12 -\n\n\ré"), max_size=40))
def test_load_lexicon_fails_or_loads_as_the_reference_does(tmp_path, text):
    path = tmp_path / LEXICON_FILE
    path.write_bytes(text.encode("utf-8"))
    try:
        want = reference_load_lexicon(path, num_docs=3)
    except InvalidInputError:
        with pytest.raises(InvalidInputError, match=f"^{path}:[0-9]+: "):
            load_lexicon(path, num_docs=3)
    else:
        assert_same_lexicon(load_lexicon(path, num_docs=3), want)
