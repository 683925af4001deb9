"""Corpus ingestion and sharding.

Input convention: UTF-8 plain text, one sentence per line, blank line between
documents. A path may be a single file, a directory (every regular file
inside), or a glob pattern (see `is_pattern`); multiple files are read in
lexicographic order. `read_documents` reads a file a line at a time and
yields each document as it ends; `load_corpus` holds them all.
"""

from __future__ import annotations

import enum
import glob as _glob
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import CorpusError

T = TypeVar("T")


class Origin(enum.Enum):
    SMALL = "small"
    LARGE = "large"

    @classmethod
    def parse(cls, value: "str | Origin") -> "Origin":
        if isinstance(value, Origin):
            return value
        try:
            return cls[value.strip().upper()]
        except KeyError:
            raise CorpusError(f"unknown origin {value!r}; expected 'small' or 'large'") from None


def text_byte_size(sentences: list[str]) -> int:
    """UTF-8 byte length of the sentences, one trailing newline each."""
    return sum(len(s.encode("utf-8")) + 1 for s in sentences)


@dataclass
class Document:
    doc_id: str
    origin: Origin
    sentences: list[str]
    byte_size: int = field(init=False)

    def __post_init__(self):
        if not self.sentences or any(not s.strip() for s in self.sentences):
            raise CorpusError(f"document {self.doc_id}: sentences must be non-empty")
        self.byte_size = text_byte_size(self.sentences)


@dataclass
class Corpus:
    label: str
    origin: Origin
    documents: list[Document]

    @property
    def total_bytes(self) -> int:
        return sum(d.byte_size for d in self.documents)

    def __len__(self) -> int:
        return len(self.documents)


@dataclass
class Shard:
    shard_id: int
    origin: Origin
    documents: list[Document]
    target_bytes: int

    @property
    def byte_size(self) -> int:
        return sum(d.byte_size for d in self.documents)


def is_pattern(path: Path) -> bool:
    """Whether a corpus path is a glob pattern: a path that exists is that
    file or directory, and any other path holding "*", "?" or "[" is a
    pattern."""
    return not path.exists() and any(ch in str(path) for ch in "*?[")


def _input_files(path: Path) -> list[Path]:
    if is_pattern(path):
        files = sorted(Path(p) for p in _glob.glob(str(path)) if Path(p).is_file())
        if not files:
            raise CorpusError(f"no input files match pattern {path}")
        return files
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise CorpusError(f"no input files in directory {path}")
        return files
    return [path]


def text_lines(text: str) -> list[str]:
    r"""Lines of text split at "\n", "\r\n" and "\r" only, as text-mode reading
    splits a file. `str.splitlines` would also split at \x0b, \x0c,
    \x1c-\x1e, \x85, U+2028 and U+2029, which a sentence may hold: `bpt
    tokenize` reads such a line as one sentence."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _file_documents(path: Path) -> Iterator[list[str]]:
    """The sentences of each document of one file, read a line at a time."""
    pending: list[str] = []
    with open(path, encoding="utf-8", newline=None) as lines:  # lines end as `text_lines` ends them
        try:
            for line in lines:
                line = line.strip()
                if line:
                    pending.append(line)
                elif pending:
                    yield pending
                    pending = []
        except UnicodeDecodeError:
            raise CorpusError(f"{path}: invalid UTF-8 at byte offset {_invalid_utf8_offset(path)}") from None
    if pending:  # document boundaries do not span files
        yield pending


def _invalid_utf8_offset(path: Path) -> int:
    """Where the first byte that is not UTF-8 is in the file."""
    offset = 0
    with open(path, "rb") as f:
        for raw in f:  # ends at b"\n", which no multi-byte character holds
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return offset + exc.start
            offset += len(raw)
    return offset


def read_documents(path: "str | Path", label: str, origin: "str | Origin") -> Iterator[Document]:
    r"""Parse sentence-per-line text into Documents, yielding each as soon as
    it ends, so only the current document is held.

    Lines end at "\n", "\r\n" or "\r" (see `text_lines`). Whitespace-only
    lines separate documents; consecutive separators collapse. doc_id is
    "<label>#<ordinal>" with ordinals counted across all input files. An
    input that holds no document raises CorpusError once it is read.
    """
    origin = Origin.parse(origin)
    path = Path(path)
    count = 0
    try:
        for f in _input_files(path):
            for sentences in _file_documents(f):
                yield Document(f"{label}#{count}", origin, sentences)
                count += 1
    except OSError as exc:
        raise CorpusError(f"cannot read corpus at {path}: {exc}") from exc
    if not count:
        raise CorpusError(f"empty corpus: {path}")


def load_corpus(path: "str | Path", label: str, origin: "str | Origin") -> Corpus:
    """Every document of `read_documents` in one Corpus."""
    origin = Origin.parse(origin)
    return Corpus(label=label, origin=origin, documents=list(read_documents(path, label, origin)))


def pack_shards(items: Iterable[T], size: Callable[[T], int], each_file_size: int) -> Iterator[Iterator[T]]:
    """Greedy in-order packing of whole items into shards, where `size(item)`
    is an item's byte size: each shard's items, lazily, as `itertools.groupby`
    gives them, so taking the next shard ends the one before.

    Items accumulate into the current shard until its byte size reaches
    each_file_size, then a new shard starts; only the last shard may be
    smaller than the target. Items are never split.
    """
    if each_file_size <= 0:
        raise CorpusError(f"each_file_size must be positive, got {each_file_size}")
    filled, shard = 0, 0

    def shard_of(item: T) -> int:
        nonlocal filled, shard
        current = shard
        filled += size(item)
        if filled >= each_file_size:
            filled, shard = 0, shard + 1
        return current

    return (shard_items for _, shard_items in groupby(items, shard_of))


def split_corpus(corpus: Corpus, each_file_size: int) -> list[Shard]:
    """The corpus's documents packed into shards by `pack_shards`."""
    shards = [Shard(k, corpus.origin, list(docs), each_file_size)
              for k, docs in enumerate(pack_shards(corpus.documents, attrgetter("byte_size"), each_file_size))]
    if not shards:
        raise CorpusError(f"cannot split empty corpus {corpus.label!r}")
    return shards


def write_document_text(documents: list[Document]) -> str:
    """Render documents back to the input text convention."""
    blocks = ["\n".join(d.sentences) for d in documents]
    return "\n\n".join(blocks) + "\n"
