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
generation statistics. `write_instances` writes the same sidecar for binary
and JSONL output: its `format` names which one, and a JSONL sidecar's
`vocab_hash` is empty. Files written from identical inputs and seeds are
byte-identical; nothing time- or host-dependent is stored. Output rotated with
max_file_bytes is the set of files "<path>.00000", "<path>.00001", ... that
the one sidecar "<path>.manifest.json" lists; `open_instance_set` resolves a
path to such a set and `read_instances` streams it. `write_instances` gives
its files their names only once the whole output is written, so a failed
write leaves none of them behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    ChecksumMismatchError,
    InstanceFileError,
    SerializeError,
    TruncatedFileError,
    VocabHashMismatchError,
)
from .instances import PretrainInstance, batch_rows, structural_errors
from .settings import InstanceConfig
from .staging import PART_NUMBER, remove_unlisted, staged_files
from .vocab import Vocabulary

MAGIC = b"BPTI"
VERSION = 1
_HEADER = struct.Struct("<4sHH8sQ")
_COUNT = struct.Struct("<H")
_MASKED_DTYPE = np.dtype([("pos", "<u2"), ("label", "<u4")])
_TAIL = struct.Struct("<BII")


def vocab_hash(vocab: Vocabulary) -> bytes:
    return hashlib.sha256(vocab.file_bytes()).digest()[:8]


def sha256_file(path: "str | Path") -> str:
    """Hex sha256 of a file, read in chunks so memory stays flat."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 18):
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
    files: list = field(default_factory=list)  # [{"name", "instances", "sha256"}]
    max_seq_length: int = 0
    vocab_hash: str = ""
    instance_count: int = 0
    master_seed: "int | None" = None
    config: "dict | None" = None
    statistics: "dict | None" = None
    format: str = "binary"
    version: int = VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: "str | Path") -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: "str | Path") -> "Manifest":
        """Parse a sidecar; one of another shape raises InstanceFileError."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InstanceFileError(f"{path}: manifest is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InstanceFileError(f"{path}: manifest must hold a JSON object")
        files = data.get("files")
        if not (isinstance(files, list) and files and all(_is_entry(e) for e in files)):
            raise InstanceFileError(f"{path}: manifest 'files' must list objects, each with a file name, "
                                    "an instance count and a sha256")
        for key in ("config", "statistics"):
            if not isinstance(data.get(key), (dict, type(None))):
                raise InstanceFileError(f"{path}: manifest '{key}' must be an object or null")
        return cls(**{f.name: data[f.name] for f in fields(cls) if f.name in data})


def _is_entry(entry) -> bool:
    """A manifest file entry whose name stays in the manifest's directory,
    with the part's instance count and hex sha256, which every read checks."""
    if not isinstance(entry, dict):
        return False
    name, count, digest = entry.get("name"), entry.get("instances"), entry.get("sha256")
    return (isinstance(name, str) and name not in ("", ".", "..") and not {"/", "\\"} & set(name)
            and type(count) is int and count >= 0
            and isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest) is not None)


_SIDECAR_SUFFIX = ".manifest.json"


def manifest_path(path: "str | Path") -> Path:
    return Path(str(path) + _SIDECAR_SUFFIX)


def encode_record(inst: PretrainInstance) -> bytes:
    """One record in the file layout: 13 + 5n + 6m bytes for n tokens and m
    masked positions."""
    masked = np.empty(len(inst.masked_positions), _MASKED_DTYPE)
    masked["pos"] = inst.masked_positions
    masked["label"] = inst.masked_labels
    return b"".join((
        _COUNT.pack(len(inst.token_ids)),
        inst.token_ids.astype("<u4").tobytes(),
        inst.segment_ids.astype("<u1").tobytes(),
        _COUNT.pack(len(masked)),
        masked.tobytes(),
        _TAIL.pack(1 if inst.is_next else 0, inst.origin_small_tokens, inst.origin_large_tokens),
    ))


def checked_batches(stream: Iterable[PretrainInstance], vocab: Vocabulary,
                    max_seq_length: int) -> Iterator[list]:
    """The stream as lists of `batch_rows(max_seq_length)` records, each
    checked by one `structural_errors` call before it is yielded: a bad
    record raises SerializeError naming its stream index."""
    records = iter(stream)
    rows = batch_rows(max_seq_length)
    total = 0
    while batch := list(islice(records, rows)):
        for index, errs in enumerate(structural_errors(batch, vocab, max_seq_length), total):
            if errs:
                raise SerializeError(f"instance {index} violates invariants: {errs[0]}")
        total += len(batch)
        yield batch
        del batch


class _FileWriter:
    """One binary part, written to `temporary` and listed under `path`'s name."""

    def __init__(self, path: Path, temporary: Path, max_seq_length: int, vhash: bytes):
        self.path = path
        self.count = 0
        self.body_bytes = 0
        self._f = open(temporary, "wb")
        self._f.write(_HEADER.pack(MAGIC, VERSION, max_seq_length, vhash, 0))

    def add(self, record: bytes) -> None:
        self._f.write(record)
        self.body_bytes += len(record)
        self.count += 1

    def close(self) -> dict:
        self._f.seek(16)  # instance_count is the final u64 of the header
        self._f.write(struct.pack("<Q", self.count))
        self._f.close()
        return {"name": self.path.name, "instances": self.count, "sha256": sha256_file(self._f.name)}


def write_instances(
    stream: Iterable[PretrainInstance],
    path: "str | Path",
    vocab: Vocabulary,
    config: InstanceConfig,
    statistics=None,
    max_file_bytes: "int | None" = None,
    run_config: "dict | None" = None,
    format: str = "binary",
) -> Manifest:
    """Write the stream as `format` ("binary", or "jsonl" as by
    `write_instances_jsonl`) and emit the manifest sidecar. Both formats get
    the same sidecar: its `format` names which one, and a JSONL sidecar's
    `vocab_hash` is empty.

    `statistics` may be a dict or a zero-argument callable; a callable is
    evaluated after the stream is exhausted, so generation reports that fill
    in lazily can be passed as `lambda: report.to_dict()`. `run_config`
    overrides the config echo in the manifest (the CLI passes its full
    effective configuration there).

    The stream is taken and checked a batch at a time (see
    `checked_batches`); the records of a checked batch are then encoded
    (`encode_record`) and written one at a time.

    With max_file_bytes set, output rotates to numbered files
    ("<path>.00000", "<path>.00001", ...): a record that arrives when the
    current file's body has reached the limit starts the next file, so a
    file is empty only when the stream is. Otherwise everything goes to
    exactly `path`. JSONL output is never rotated: max_file_bytes with
    format "jsonl" raises SerializeError before anything is written.

    Each file is written under a temporary name (".<name>.tmp") in the
    output directory and renamed only once the stream is exhausted: the
    parts in order, then the sidecar. On any error the temporaries are
    removed, so a failed write leaves nothing that looks whole, and an
    earlier output at `path` stays as it was. Once the set is in place, each
    regular file there whose name `instance_file_names(path)` matches and
    that the manifest does not list, an earlier output's, is removed.
    """
    path = Path(path)
    if format == "jsonl" and max_file_bytes is not None:
        raise SerializeError("max_file_bytes rotates binary output only; it cannot be used with jsonl")
    if format not in ("binary", "jsonl"):
        raise SerializeError(f"unknown format {format!r}; expected 'binary' or 'jsonl'")
    with staged_files() as stage:  # the sidecar is staged, and so renamed, last
        if format == "jsonl":
            temporary = stage(path)
            count = write_instances_jsonl(stream, temporary, vocab, config)
            files = [{"name": path.name, "instances": count, "sha256": sha256_file(temporary)}]
            vhash = ""
        else:
            vhash = vocab_hash(vocab)
            files = _write_binary(stream, path, vocab, config, vhash, max_file_bytes, stage)
            vhash = vhash.hex()
        manifest = _write_manifest(stage(manifest_path(path)), files, vhash, config, statistics, run_config, format)
    # an earlier output at `path`, rotated or not, that this set does not list is not part of it
    remove_unlisted(path.parent, instance_file_names(path), {entry["name"] for entry in files})
    return manifest


def instance_file_names(path: "str | Path") -> str:
    """The regular expression for the names of the instance files that
    `write_instances(..., path)` may write: `path`'s own name, and its name
    with a part number, as rotated output's "<path>.00000" has."""
    return re.escape(Path(path).name) + rf"(?:\.{PART_NUMBER})?"


def _write_binary(stream: Iterable[PretrainInstance], path: Path, vocab: Vocabulary, config: InstanceConfig,
                  vhash: bytes, max_file_bytes: "int | None", stage) -> list[dict]:
    """Write the binary parts, each under the temporary name `stage(name)`
    gives it as it is begun; returns their manifest entries."""
    rotating = max_file_bytes is not None
    files: list[dict] = []

    def new_writer() -> _FileWriter:
        part = Path(f"{path}.{len(files):05d}") if rotating else path
        return _FileWriter(part, stage(part), config.max_seq_length, vhash)

    writer = new_writer()
    try:
        for batch in checked_batches(stream, vocab, config.max_seq_length):
            for inst in batch:
                if rotating and writer.count and writer.body_bytes >= max_file_bytes:
                    files.append(writer.close())
                    writer = new_writer()
                writer.add(encode_record(inst))
            del batch, inst  # free this batch, and the arrays its records view, before the next is made
    except BaseException:
        writer._f.close()
        raise
    files.append(writer.close())
    return files


def _write_manifest(target: Path, files: list, vhash: str, config: InstanceConfig, statistics,
                    run_config: "dict | None", format: str) -> Manifest:
    """Write the sidecar of written `files` to `target`; the one place that
    lays a manifest out."""
    manifest = Manifest(
        files=files,
        max_seq_length=config.max_seq_length,
        vocab_hash=vhash,
        instance_count=sum(entry["instances"] for entry in files),
        master_seed=config.master_seed,
        config=run_config if run_config is not None else config.to_dict(),
        statistics=statistics() if callable(statistics) else statistics,
        format=format,
    )
    manifest.write(target)
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


@dataclass
class InstanceSet:
    """The instance files a path names and the manifest that lists them."""

    path: Path
    parts: list  # [(file path, InstanceFileHeader, manifest entry)]
    manifest: "Manifest | None" = None

    @property
    def whole(self) -> bool:
        """Whether the manifest's total count and statistics describe the set."""
        return self.manifest is not None and len(self.parts) == len(self.manifest.files)

    @property
    def mode(self) -> "str | None":
        if self.manifest is None:
            return None
        return (self.manifest.config or {}).get("mode") or (self.manifest.statistics or {}).get("mode")

    @property
    def max_seq_length(self) -> int:
        return self.parts[0][1].max_seq_length


def open_instance_set(path: "str | Path") -> InstanceSet:
    """Resolve a path to its instance set and read every file's header.

    A sidecar path stands for its base path. With its own sidecar, a path is
    the file the manifest lists under its name or else, as for rotated
    output, every file the manifest lists. A numbered part is its entry in
    the base's manifest; any other file stands alone. A missing file raises
    FileNotFoundError naming it.
    """
    path = Path(path)
    base_name = path.name.removesuffix(_SIDECAR_SUFFIX)
    if base_name not in ("", path.name) and path.is_file():
        path = path.with_name(base_name)
    entries = []
    if manifest_path(path).is_file():
        manifest = Manifest.load(manifest_path(path))
        entries = [e for e in manifest.files if e["name"] == path.name] or manifest.files
    elif re.fullmatch(PART_NUMBER, path.suffix[1:]) and manifest_path(path.with_suffix("")).is_file():
        manifest = Manifest.load(manifest_path(path.with_suffix("")))
        entries = [e for e in manifest.files if e["name"] == path.name]
    if not entries:
        manifest, entries = None, [{"name": path.name}]
    parts = [(path.parent / e["name"], read_header(path.parent / e["name"]), e) for e in entries]
    return InstanceSet(path, parts, manifest)


def read_instances(
    source: "str | Path | InstanceSet",
    expected_vocab: "Vocabulary | None" = None,
) -> Iterator[PretrainInstance]:
    """Yield the instances of a path's set (see `open_instance_set`) in order.

    Every file's vocabulary hash, sha256 and count are checked against its
    manifest entry, and a whole set's total count, before the first instance
    is yielded; records then stream through a buffered file. doc id metadata
    is not stored and comes back empty.
    """
    instance_set = source if isinstance(source, InstanceSet) else open_instance_set(source)
    expected_hash = vocab_hash(expected_vocab) if expected_vocab is not None else None
    for path, header, entry in instance_set.parts:
        if expected_hash is not None and header.vocab_hash != expected_hash:
            raise VocabHashMismatchError(f"{path}: vocabulary hash mismatch")
        if "sha256" in entry and sha256_file(path) != entry["sha256"]:
            raise ChecksumMismatchError(f"{path}: checksum verification failed")
        if "instances" in entry and header.instance_count != entry["instances"]:
            raise InstanceFileError(f"{path}: header holds {header.instance_count} instances, "
                                    f"manifest lists {entry['instances']}")
    total = sum(header.instance_count for _, header, _ in instance_set.parts)
    if instance_set.whole and total != instance_set.manifest.instance_count:
        raise InstanceFileError(f"{instance_set.path}: files hold {total} instances, "
                                f"manifest lists {instance_set.manifest.instance_count}")
    return _stream(instance_set.parts)


def _stream(parts: list) -> Iterator[PretrainInstance]:
    for path, header, _ in parts:
        with open(path, "rb") as f:
            f.seek(_HEADER.size)

            def take(nbytes: int) -> bytes:
                data = f.read(nbytes)
                if len(data) < nbytes:
                    raise TruncatedFileError(f"{path}: unexpected end of records")
                return data

            for _ in range(header.instance_count):
                (n,) = _COUNT.unpack(take(2))
                tokens = take(5 * n + 2)  # token ids, segment ids, n_masked
                (m,) = _COUNT.unpack_from(tokens, 5 * n)
                rest = take(6 * m + _TAIL.size)
                masked = np.frombuffer(rest, _MASKED_DTYPE, m)
                is_next, small, large = _TAIL.unpack_from(rest, 6 * m)
                yield PretrainInstance(
                    token_ids=np.frombuffer(tokens, "<u4", n).astype(np.int32),
                    segment_ids=np.frombuffer(tokens, "<u1", n, 4 * n).astype(np.int8),
                    masked_positions=masked["pos"].astype(np.int64),
                    masked_labels=masked["label"].astype(np.int32),
                    is_next=bool(is_next),
                    origin_small_tokens=small,
                    origin_large_tokens=large,
                )
            records_end = f.tell()
            trailing = f.seek(0, os.SEEK_END) - records_end
            if trailing:
                raise InstanceFileError(f"{path}: {trailing} trailing bytes after records")


def write_instances_jsonl(
    stream: Iterable[PretrainInstance],
    path: "str | Path",
    vocab: Vocabulary,
    config: InstanceConfig,
) -> int:
    """Human-readable debug format: one JSON object per instance with token
    strings instead of ids. Records are checked a batch at a time, as by
    `write_instances`. Returns the instance count."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for batch in checked_batches(stream, vocab, config.max_seq_length):
            for inst in batch:
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
            count += len(batch)
            del batch, inst  # free this batch before the next is made
    return count
