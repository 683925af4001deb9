import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpt.corpus import Document, Origin
from bpt.errors import (
    BadMagicError,
    BadVersionError,
    ChecksumMismatchError,
    SerializeError,
    TruncatedFileError,
    VocabHashMismatchError,
)
from bpt.instances import InstanceConfig, PretrainInstance, create_instances_from_documents
from bpt.rng import SplitRng
from bpt.serialize import (
    Manifest,
    encode_records,
    manifest_path,
    read_header,
    read_instances,
    vocab_hash,
    write_instances,
    write_instances_jsonl,
)
from bpt.tokenizer import WordPieceTokenizer
from bpt.vocab import SPECIAL_TOKENS, Vocabulary

from .oracles import record_bytes_oracle

WORDS = [f"w{i}" for i in range(80)]
VOCAB = Vocabulary(SPECIAL_TOKENS + WORDS)
TOKENIZER = WordPieceTokenizer(VOCAB)
CONFIG = InstanceConfig(max_seq_length=32, master_seed=13)


def sample_instances(n_docs=5, seed=0):
    docs = [
        Document(f"d#{i}", Origin.SMALL if i % 2 else Origin.LARGE,
                 [" ".join(WORDS[(i * 7 + j) % 80] for j in range(4 + k % 3)) for k in range(6)])
        for i in range(n_docs)
    ]
    return create_instances_from_documents(docs, TOKENIZER, CONFIG, SplitRng(seed))


def test_round_trip_identity(tmp_path):
    insts = sample_instances()
    path = tmp_path / "inst.bin"
    manifest = write_instances(insts, path, VOCAB, CONFIG)
    assert manifest.instance_count == len(insts)
    back = list(read_instances(path, expected_vocab=VOCAB))
    assert len(back) == len(insts)
    for a, b in zip(insts, back):
        assert a.payload() == b.payload()


def test_empty_stream_is_valid(tmp_path):
    path = tmp_path / "empty.bin"
    manifest = write_instances([], path, VOCAB, CONFIG)
    assert manifest.instance_count == 0
    header = read_header(path)
    assert header.instance_count == 0
    assert list(read_instances(path, expected_vocab=VOCAB)) == []


def test_header_fields(tmp_path):
    path = tmp_path / "inst.bin"
    write_instances(sample_instances(), path, VOCAB, CONFIG)
    header = read_header(path)
    assert header.magic == b"BPTI"
    assert header.version == 1
    assert header.max_seq_length == 32
    assert header.vocab_hash == vocab_hash(VOCAB)


def test_byte_identity_across_runs(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_instances(sample_instances(seed=3), p1, VOCAB, CONFIG)
    write_instances(sample_instances(seed=3), p2, VOCAB, CONFIG)
    assert p1.read_bytes() == p2.read_bytes()
    m1 = json.loads(manifest_path(p1).read_text())
    m2 = json.loads(manifest_path(p2).read_text())
    m1["files"][0].pop("name"), m2["files"][0].pop("name")
    assert m1 == m2


def test_flipped_body_byte_fails_checksum(tmp_path):
    path = tmp_path / "inst.bin"
    write_instances(sample_instances(), path, VOCAB, CONFIG)
    raw = bytearray(path.read_bytes())
    raw[40] ^= 0xFF  # inside the first record
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatchError):
        list(read_instances(path, expected_vocab=VOCAB))


def test_bad_magic(tmp_path):
    path = tmp_path / "inst.bin"
    write_instances(sample_instances(), path, VOCAB, CONFIG)
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        read_header(path)


def test_bad_version(tmp_path):
    path = tmp_path / "inst.bin"
    write_instances(sample_instances(), path, VOCAB, CONFIG)
    raw = bytearray(path.read_bytes())
    raw[4:6] = (999).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(BadVersionError):
        read_header(path)


def test_vocab_hash_mismatch(tmp_path):
    path = tmp_path / "inst.bin"
    write_instances(sample_instances(), path, VOCAB, CONFIG)
    other = Vocabulary(SPECIAL_TOKENS + ["different"])
    with pytest.raises(VocabHashMismatchError, match="vocabulary hash mismatch"):
        list(read_instances(path, expected_vocab=other))


def test_truncated_file(tmp_path):
    path = tmp_path / "inst.bin"
    write_instances(sample_instances(), path, VOCAB, CONFIG)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    manifest_path(path).unlink()  # remove sidecar so truncation is hit, not checksum
    with pytest.raises(TruncatedFileError, match="unexpected end of records"):
        list(read_instances(path))


def test_invalid_instance_rejected_on_write(tmp_path):
    bad = PretrainInstance(
        token_ids=np.array([9, 9, 9], np.int32),  # no [CLS]/[SEP] structure
        segment_ids=np.array([0, 0, 1], np.int8),
        masked_positions=np.array([1], np.int64),
        masked_labels=np.array([9], np.int32),
        is_next=True,
        origin_small_tokens=0,
        origin_large_tokens=0,
    )
    with pytest.raises(SerializeError, match="instance 0"):
        write_instances([bad], tmp_path / "bad.bin", VOCAB, CONFIG)


def test_bad_record_is_named_by_its_stream_index(tmp_path):
    config = InstanceConfig(max_seq_length=128, master_seed=13)  # batches of 128 records
    good = sample_instances()[0]
    bad = sample_instances()[0]
    bad.origin_small_tokens += 1
    with pytest.raises(SerializeError, match="instance 130 violates invariants: origin token counts"):
        write_instances([good] * 130 + [bad, good], tmp_path / "bad.bin", VOCAB, config)


U32 = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32 - 4, 2**32 - 1))


def record(ids, segs, positions, labels, is_next, small, large):
    return PretrainInstance(np.array(ids, np.int64), np.array(segs, np.int8), np.array(positions, np.int64),
                            np.array(labels, np.int64), is_next, small, large)


@st.composite
def records(draw):
    n = draw(st.integers(3, CONFIG.max_seq_length))
    m = draw(st.integers(0, CONFIG.max_predictions_per_seq))
    return record(draw(st.lists(U32, min_size=n, max_size=n)),
                  draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                  draw(st.lists(st.integers(0, 2**16 - 1), min_size=m, max_size=m)),
                  draw(st.lists(U32, min_size=m, max_size=m)), draw(st.booleans()), draw(U32), draw(U32))


@settings(max_examples=200, deadline=None)
@given(st.lists(records(), min_size=1, max_size=5))
@example([record([2, 5, 3], [0, 0, 1], [], [], False, 0, 0)])
@example([record([2**32 - 1] * 32, [0] * 16 + [1] * 16, range(20), [2**32 - 1] * 20, True, 2**32 - 1, 2**32 - 1),
          record([0] * 5, [0] * 5, [], [], True, 1, 2)])
def test_batch_encoding_equals_per_record_oracle(batch):
    buffer, offsets = encode_records(batch)
    expected = [record_bytes_oracle(r) for r in batch]
    assert buffer.tobytes() == b"".join(expected)
    assert offsets.tolist() == list(itertools.accumulate(map(len, expected), initial=0))


def test_rotation_by_size(tmp_path):
    insts = sample_instances(n_docs=8)
    path = tmp_path / "rot.bin"
    manifest = write_instances(insts, path, VOCAB, CONFIG, max_file_bytes=400)
    assert len(manifest.files) > 1
    assert manifest.instance_count == len(insts)
    back = []
    for entry in manifest.files:
        back.extend(read_instances(tmp_path / entry["name"]))
    assert len(back) == len(insts)
    for a, b in zip(insts, back):
        assert a.payload() == b.payload()
    # the base path names the whole set
    assert [i.payload() for i in read_instances(path, expected_vocab=VOCAB)] == [
        i.payload() for i in insts
    ]


@pytest.mark.parametrize("limit, parts", [("exact", [5]), (0, [1, 1, 1, 1, 1])])
def test_rotation_opens_a_part_only_for_a_record(tmp_path, limit, parts):
    insts = sample_instances()[:5]
    if limit == "exact":  # the last record brings the only part to the limit
        limit = sum(len(record_bytes_oracle(inst)) for inst in insts)
    manifest = write_instances(insts, tmp_path / "rot.bin", VOCAB, CONFIG, max_file_bytes=limit)
    assert [entry["instances"] for entry in manifest.files] == parts
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [entry["name"] for entry in manifest.files] + ["rot.bin.manifest.json"])


def test_rotation_of_an_empty_stream_is_one_empty_part(tmp_path):
    manifest = write_instances([], tmp_path / "rot.bin", VOCAB, CONFIG, max_file_bytes=0)
    assert manifest.files[0]["name"] == "rot.bin.00000"
    assert [entry["instances"] for entry in manifest.files] == [0]
    assert list(read_instances(tmp_path / "rot.bin", expected_vocab=VOCAB)) == []


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "inst.bin"
    written = write_instances(
        sample_instances(), path, VOCAB, CONFIG, statistics={"instances": 1},
        run_config={"mode": "conventional"},
    )
    loaded = Manifest.load(manifest_path(path))
    assert loaded.to_dict() == written.to_dict()
    assert loaded.config == {"mode": "conventional"}


def test_jsonl_debug_format(tmp_path):
    insts = sample_instances()
    path = tmp_path / "inst.jsonl"
    count = write_instances_jsonl(insts, path, VOCAB, CONFIG)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert count == len(insts) == len(lines)
    first = json.loads(lines[0])
    assert first["tokens"][0] == "[CLS]"
    assert first["tokens"].count("[SEP]") >= 2
    assert isinstance(first["is_next"], bool)
    assert first["doc_id_a"].startswith("d#")


@pytest.mark.parametrize("format, max_file_bytes, message", [
    ("jsonl", 1, "rotates binary output only"),
    ("xml", None, "unknown format 'xml'"),
])
def test_write_instances_refuses_before_writing(tmp_path, format, max_file_bytes, message):
    with pytest.raises(SerializeError, match=message):
        write_instances(sample_instances(), tmp_path / "inst.out", VOCAB, CONFIG,
                        max_file_bytes=max_file_bytes, format=format)
    assert list(tmp_path.iterdir()) == []


def test_jsonl_writer_checks_each_batch_before_writing_it(tmp_path):
    bad = PretrainInstance(np.array([9, 9, 9], np.int32), np.array([0, 0, 1], np.int8),
                           np.array([1], np.int64), np.array([9], np.int32), True, 0, 0)
    with pytest.raises(SerializeError, match="instance 0 violates invariants: first token is not"):
        write_instances_jsonl([bad], tmp_path / "bad.jsonl", VOCAB, CONFIG)
    config = InstanceConfig(max_seq_length=128, master_seed=13)  # batches of 128 records
    good = sample_instances()[0]
    path = tmp_path / "late.jsonl"
    with pytest.raises(SerializeError, match="instance 130 violates invariants"):
        write_instances_jsonl([good] * 130 + [bad, good], path, VOCAB, config)
    assert len(path.read_text(encoding="utf-8").splitlines()) == 128


def test_read_memory_does_not_grow_with_file_size(tmp_path):
    config = InstanceConfig(max_seq_length=512, master_seed=1)
    docs = [Document(f"d#{i}", Origin.SMALL, [" ".join(WORDS)] * 12) for i in range(2)]
    inst = max(create_instances_from_documents(docs, TOKENIZER, config, SplitRng(1)),
               key=lambda i: len(i.token_ids))
    path = tmp_path / "big.bin"
    repeats = (4 << 20) // (5 * len(inst.token_ids)) + 1
    write_instances(itertools.repeat(inst, repeats), path, VOCAB, config)
    size = path.stat().st_size
    assert size >= 4 << 20
    tracemalloc.start()
    try:
        count = sum(1 for _ in read_instances(path, expected_vocab=VOCAB))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == repeats
    assert peak < size / 4
