"""Corpus ingestion and sharding.

Input convention: UTF-8 plain text, one sentence per line, blank line between
documents. A path may be a single file, a directory (every regular file
inside), or a glob pattern; multiple files are read in lexicographic order.
"""

from __future__ import annotations

import enum
import glob as _glob
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusError


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


def _input_files(path: Path) -> list[Path]:
    pattern = str(path)
    if any(ch in pattern for ch in "*?["):
        files = sorted(Path(p) for p in _glob.glob(pattern) if Path(p).is_file())
        if not files:
            raise CorpusError(f"no input files match pattern {pattern}")
        return files
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        if not files:
            raise CorpusError(f"no input files in directory {path}")
        return files
    return [path]


def _decode(raw: bytes, path: Path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: invalid UTF-8 at byte offset {exc.start}") from exc


def text_lines(text: str) -> list[str]:
    r"""Lines of text split at "\n", "\r\n" and "\r" only, as text-mode reading
    splits a file. `str.splitlines` would also split at \x0b, \x0c,
    \x1c-\x1e, \x85, U+2028 and U+2029, which a sentence may hold: `bpt
    tokenize` reads such a line as one sentence."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def load_corpus(path: "str | Path", label: str, origin: "str | Origin") -> Corpus:
    r"""Parse sentence-per-line text into a Corpus.

    Lines end at "\n", "\r\n" or "\r" (see `text_lines`). Whitespace-only
    lines separate documents; consecutive separators collapse.
    doc_id is "<label>#<ordinal>" with ordinals counted across all input files.
    """
    origin = Origin.parse(origin)
    path = Path(path)
    documents: list[Document] = []
    pending: list[str] = []

    def flush():
        if pending:
            documents.append(Document(f"{label}#{len(documents)}", origin, list(pending)))
            pending.clear()

    try:
        for f in _input_files(path):  # one file's bytes in memory at a time
            for line in text_lines(_decode(f.read_bytes(), f)):
                line = line.strip()
                if line:
                    pending.append(line)
                else:
                    flush()
            flush()  # document boundaries do not span files
    except OSError as exc:
        raise CorpusError(f"cannot read corpus at {path}: {exc}") from exc
    if not documents:
        raise CorpusError(f"empty corpus: {path}")
    return Corpus(label=label, origin=origin, documents=documents)


def split_corpus(corpus: Corpus, each_file_size: int) -> list[Shard]:
    """Greedy in-order packing of whole documents into shards.

    Documents accumulate into the current shard until its byte size reaches
    each_file_size, then a new shard starts; only the last shard may be
    smaller than the target. Documents are never split.
    """
    if each_file_size <= 0:
        raise CorpusError(f"each_file_size must be positive, got {each_file_size}")
    if not corpus.documents:
        raise CorpusError(f"cannot split empty corpus {corpus.label!r}")
    shards: list[Shard] = []
    current: list[Document] = []
    current_bytes = 0
    for doc in corpus.documents:
        current.append(doc)
        current_bytes += doc.byte_size
        if current_bytes >= each_file_size:
            shards.append(Shard(len(shards), corpus.origin, current, each_file_size))
            current = []
            current_bytes = 0
    if current:
        shards.append(Shard(len(shards), corpus.origin, current, each_file_size))
    return shards


def write_document_text(documents: list[Document]) -> str:
    """Render documents back to the input text convention."""
    blocks = ["\n".join(d.sentences) for d in documents]
    return "\n\n".join(blocks) + "\n"
