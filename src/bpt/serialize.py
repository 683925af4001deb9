"""Bit-exact binary persistence of instance streams.

File layout (little-endian):

    header: magic "BPTI" (4s), version (u16), max_seq_length (u16),
            vocab_hash (8 bytes: first 8 of sha256 over the vocabulary file
            bytes), instance_count (u64)
    per instance: n_tokens (u16); n_tokens x token id (u32);
            n_tokens x segment id (u8); n_masked (u16);
            n_masked x (position u16, label id u32); is_next (u8);
            origin_small_tokens (u32); origin_large_tokens (u32)

The JSON manifest sidecar ("<path>.manifest.json") carries the effective
config, master seed, per-file instance counts and sha256 checksums, and
generation statistics. Files written from identical inputs and seeds are
byte-identical; nothing time- or host-dependent is stored.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    ChecksumMismatchError,
    SerializeError,
    TruncatedFileError,
    VocabHashMismatchError,
)
from .instances import InstanceConfig, PretrainInstance, structural_errors
from .vocab import Vocabulary

MAGIC = b"BPTI"
VERSION = 1
_HEADER = struct.Struct("<4sHH8sQ")
_MASKED_DTYPE = np.dtype([("pos", "<u2"), ("label", "<u4")])
_TAIL = struct.Struct("<BII")


def vocab_hash(vocab: Vocabulary) -> bytes:
    return hashlib.sha256(vocab.file_bytes()).digest()[:8]


def sha256_file(path: "str | Path") -> str:
    """Hex sha256 of a file, read in chunks so memory stays flat."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class InstanceFileHeader:
    magic: bytes
    version: int
    max_seq_length: int
    vocab_hash: bytes
    instance_count: int


@dataclass
class Manifest:
    files: list  # [{"name", "instances", "sha256"}]
    max_seq_length: int
    vocab_hash: str
    instance_count: int
    master_seed: "int | None" = None
    config: "dict | None" = None
    statistics: "dict | None" = None
    format: str = "binary"
    version: int = VERSION

    def to_dict(self) -> dict:
        return {
            "format": self.format,
            "version": self.version,
            "max_seq_length": self.max_seq_length,
            "vocab_hash": self.vocab_hash,
            "instance_count": self.instance_count,
            "master_seed": self.master_seed,
            "files": self.files,
            "config": self.config,
            "statistics": self.statistics,
        }

    def write(self, path: "str | Path") -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: "str | Path") -> "Manifest":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            files=data.get("files", []),
            max_seq_length=data.get("max_seq_length", 0),
            vocab_hash=data.get("vocab_hash", ""),
            instance_count=data.get("instance_count", 0),
            master_seed=data.get("master_seed"),
            config=data.get("config"),
            statistics=data.get("statistics"),
            format=data.get("format", "binary"),
            version=data.get("version", VERSION),
        )


def manifest_path(path: "str | Path") -> Path:
    return Path(str(path) + ".manifest.json")


def _record_bytes(inst: PretrainInstance) -> bytes:
    n = len(inst.token_ids)
    m = len(inst.masked_positions)
    parts = [
        struct.pack("<H", n),
        np.ascontiguousarray(inst.token_ids, "<u4").tobytes(),
        np.ascontiguousarray(inst.segment_ids, "<u1").tobytes(),
        struct.pack("<H", m),
    ]
    if m:
        arr = np.empty(m, _MASKED_DTYPE)
        arr["pos"] = inst.masked_positions
        arr["label"] = inst.masked_labels
        parts.append(arr.tobytes())
    parts.append(
        _TAIL.pack(1 if inst.is_next else 0, inst.origin_small_tokens, inst.origin_large_tokens)
    )
    return b"".join(parts)


class _FileWriter:
    def __init__(self, path: Path, max_seq_length: int, vhash: bytes):
        self.path = path
        self.count = 0
        self.body_bytes = 0
        self._f = open(path, "wb")
        self._f.write(_HEADER.pack(MAGIC, VERSION, max_seq_length, vhash, 0))

    def add(self, record: bytes) -> None:
        self._f.write(record)
        self.body_bytes += len(record)
        self.count += 1

    def close(self) -> dict:
        self._f.seek(16)  # instance_count is the final u64 of the header
        self._f.write(struct.pack("<Q", self.count))
        self._f.close()
        return {"name": self.path.name, "instances": self.count, "sha256": sha256_file(self.path)}


def write_instances(
    stream: Iterable[PretrainInstance],
    path: "str | Path",
    vocab: Vocabulary,
    config: InstanceConfig,
    statistics=None,
    max_file_bytes: "int | None" = None,
    run_config: "dict | None" = None,
) -> Manifest:
    """Write the stream, patch the header count, and emit the manifest sidecar.

    `statistics` may be a dict or a zero-argument callable; a callable is
    evaluated after the stream is exhausted, so generation reports that fill
    in lazily can be passed as `lambda: report.to_dict()`. `run_config`
    overrides the config echo in the manifest (the CLI passes its full
    effective configuration there).

    With max_file_bytes set, output rotates to numbered files
    ("<path>.00000", "<path>.00001", ...) once a file's body exceeds the
    limit; otherwise everything goes to exactly `path`.
    """
    path = Path(path)
    vhash = vocab_hash(vocab)
    rotating = max_file_bytes is not None
    files: list[dict] = []

    def new_writer() -> _FileWriter:
        target = Path(f"{path}.{len(files):05d}") if rotating else path
        return _FileWriter(target, config.max_seq_length, vhash)

    writer = new_writer()
    total = 0
    try:
        for index, inst in enumerate(stream):
            errs = structural_errors(inst, vocab, config.max_seq_length)
            if errs:
                raise SerializeError(f"instance {index} violates invariants: {errs[0]}")
            writer.add(_record_bytes(inst))
            total += 1
            if rotating and writer.body_bytes >= max_file_bytes:
                files.append(writer.close())
                writer = new_writer()
    except Exception:
        writer._f.close()
        raise
    files.append(writer.close())

    stats = statistics() if callable(statistics) else statistics
    manifest = Manifest(
        files=files,
        max_seq_length=config.max_seq_length,
        vocab_hash=vhash.hex(),
        instance_count=total,
        master_seed=config.master_seed,
        config=run_config if run_config is not None else config.to_dict(),
        statistics=stats,
    )
    manifest.write(manifest_path(path))
    return manifest


def read_header(path: "str | Path") -> InstanceFileHeader:
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise TruncatedFileError(f"{path}: file shorter than header")
    magic, version, max_seq_length, vhash, count = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise BadVersionError(f"{path}: unsupported version {version}, expected {VERSION}")
    return InstanceFileHeader(magic, version, max_seq_length, vhash, count)


def _find_checksum(path: Path) -> "str | None":
    """Expected sha256 for `path` from its own or its rotation base's manifest."""
    candidates = [manifest_path(path)]
    if path.suffix and path.suffix[1:].isdigit():
        candidates.append(manifest_path(path.with_suffix("")))
    for mp in candidates:
        if mp.is_file():
            manifest = Manifest.load(mp)
            for entry in manifest.files:
                if entry.get("name") == path.name:
                    return entry.get("sha256")
    return None


def read_instances(
    path: "str | Path",
    expected_vocab: "Vocabulary | None" = None,
    verify_checksum: bool = True,
) -> Iterator[PretrainInstance]:
    """Yield instances in stored order after validating header and checksum.

    Checksum verification uses the manifest sidecar when present; a missing
    sidecar skips the check. doc id metadata is not stored and comes back
    empty.
    """
    path = Path(path)
    header = read_header(path)  # validates magic/version before the full read
    if expected_vocab is not None and header.vocab_hash != vocab_hash(expected_vocab):
        raise VocabHashMismatchError(f"{path}: vocabulary hash mismatch")
    data = path.read_bytes()
    if verify_checksum:
        expected = _find_checksum(path)
        if expected is not None:
            actual = hashlib.sha256(data).hexdigest()
            if actual != expected:
                raise ChecksumMismatchError(f"{path}: checksum verification failed")

    def generate() -> Iterator[PretrainInstance]:
        pos = _HEADER.size
        end = len(data)

        def take(nbytes: int) -> memoryview:
            nonlocal pos
            if pos + nbytes > end:
                raise TruncatedFileError(f"{path}: unexpected end of records")
            view = memoryview(data)[pos : pos + nbytes]
            pos += nbytes
            return view

        for _ in range(header.instance_count):
            (n,) = struct.unpack("<H", take(2))
            token_ids = np.frombuffer(take(4 * n), "<u4").astype(np.int32)
            segment_ids = np.frombuffer(take(n), "<u1").astype(np.int8)
            (m,) = struct.unpack("<H", take(2))
            masked = np.frombuffer(take(6 * m), _MASKED_DTYPE)
            is_next, small, large = _TAIL.unpack(take(_TAIL.size))
            yield PretrainInstance(
                token_ids=token_ids,
                segment_ids=segment_ids,
                masked_positions=masked["pos"].astype(np.int64),
                masked_labels=masked["label"].astype(np.int32),
                is_next=bool(is_next),
                origin_small_tokens=small,
                origin_large_tokens=large,
            )
        if pos != end:
            raise SerializeError(f"{path}: {end - pos} trailing bytes after records")

    return generate()


def write_instances_jsonl(
    stream: Iterable[PretrainInstance],
    path: "str | Path",
    vocab: Vocabulary,
) -> int:
    """Human-readable debug format: one JSON object per instance with token
    strings instead of ids. Returns the instance count."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for inst in stream:
            obj = {
                "tokens": [vocab.tokens[i] for i in inst.token_ids],
                "segment_ids": [int(s) for s in inst.segment_ids],
                "masked_positions": [int(p) for p in inst.masked_positions],
                "masked_labels": [vocab.tokens[i] for i in inst.masked_labels],
                "is_next": bool(inst.is_next),
                "origin_small_tokens": int(inst.origin_small_tokens),
                "origin_large_tokens": int(inst.origin_large_tokens),
                "doc_id_a": inst.doc_id_a,
                "doc_id_b": inst.doc_id_b,
            }
            f.write(json.dumps(obj, ensure_ascii=False) + "\n")
            count += 1
    return count
