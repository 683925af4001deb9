import struct

import numpy as np
import pytest

from bpt.corpus import Document, Origin, load_corpus, split_corpus
from bpt.instances import (
    GenerationReport,
    InstanceConfig,
    PretrainInstance,
    create_instances_from_documents,
    generate_conventional,
    generate_simpt,
)
from bpt.rng import SplitRng
from bpt.serialize import Manifest, manifest_path, write_instances
from bpt.tokenizer import WordPieceTokenizer
from bpt.verify import FAIL, INSUFFICIENT, PASS, SKIPPED, Tolerances, VerificationReport, verify_file
from bpt.vocab import SPECIAL_TOKENS, Vocabulary

from .conftest import make_corpus_text, write_corpus_file

WORDS = [f"w{i}" for i in range(300)]
VOCAB = Vocabulary(SPECIAL_TOKENS + WORDS)
TOKENIZER = WordPieceTokenizer(VOCAB)
CONFIG = InstanceConfig(max_seq_length=64, master_seed=21)


def lenient() -> Tolerances:
    # thresholds for unit-scale files; the acceptance suite exercises the defaults
    return Tolerances(min_instances=10, min_masked=50, min_candidates=200,
                      mask_selection_tol=0.05, mask_split_tol=0.1, nsp_tol=0.3, origin_tol=0.5)


def make_file(tmp_path, n_docs=16, seed=0, name="inst.bin"):
    rng = SplitRng(seed)
    docs = []
    for i in range(n_docs):
        sentences = [
            " ".join(WORDS[rng.randrange(300)] for _ in range(rng.randint(4, 9)))
            for _ in range(rng.randint(4, 12))
        ]
        docs.append(Document(f"d#{i}", Origin.SMALL if i % 2 else Origin.LARGE, sentences))
    insts = create_instances_from_documents(docs, TOKENIZER, CONFIG, SplitRng(seed + 1))
    path = tmp_path / name
    write_instances(insts, path, VOCAB, CONFIG)
    return path, insts


def check_by_name(report):
    return {c.name: c for c in report.checks}


def test_verify_conforming_file_passes(tmp_path):
    path, insts = make_file(tmp_path)
    report = verify_file(path, VOCAB, lenient())
    assert report.instances == len(insts)
    assert report.structural_violations == 0
    assert report.passed
    checks = check_by_name(report)
    assert checks["structural"].status == PASS
    assert abs(sum(report.mask_split) - 1.0) < 1e-9


def test_verify_is_idempotent_and_read_only(tmp_path):
    path, _ = make_file(tmp_path)
    before = path.read_bytes()
    r1 = verify_file(path, VOCAB, lenient())
    r2 = verify_file(path, VOCAB, lenient())
    assert path.read_bytes() == before
    assert r1.to_dict() == r2.to_dict()


def test_verify_empty_file_insufficient_data(tmp_path):
    path = tmp_path / "empty.bin"
    write_instances([], path, VOCAB, CONFIG)
    report = verify_file(path, VOCAB)
    assert report.instances == 0
    assert report.structural_violations == 0
    statuses = {c.name: c.status for c in report.checks}
    assert statuses.pop("structural") == PASS
    assert set(statuses.values()) == {INSUFFICIENT}
    assert report.passed  # insufficient data is not a failure


def test_verify_hardcoded_is_next_fails_nsp(tmp_path):
    path, insts = make_file(tmp_path)
    forced = [
        PretrainInstance(
            token_ids=i.token_ids,
            segment_ids=i.segment_ids,
            masked_positions=i.masked_positions,
            masked_labels=i.masked_labels,
            is_next=True,
            origin_small_tokens=i.origin_small_tokens,
            origin_large_tokens=i.origin_large_tokens,
        )
        for i in insts
    ]
    bad = tmp_path / "forced.bin"
    write_instances(forced, bad, VOCAB, CONFIG)
    report = verify_file(bad, VOCAB, lenient())
    checks = check_by_name(report)
    assert checks["nsp_positive_rate"].status == FAIL
    assert not report.passed


def test_verify_counts_structural_violations(tmp_path):
    path, insts = make_file(tmp_path)
    # corrupt one record's origin counts directly in the file body, then
    # refresh the manifest checksum so only the structural check trips
    raw = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<H", raw, 24)
    tail_at = 24 + 2 + 4 * n + n + 2
    (m,) = struct.unpack_from("<H", raw, 24 + 2 + 4 * n + n)
    tail_at += 6 * m
    struct.pack_into("<BII", raw, tail_at, 1, 9999, 9999)
    path.write_bytes(bytes(raw))
    from bpt.serialize import manifest_path

    manifest_path(path).unlink()
    report = verify_file(path, VOCAB, lenient())
    assert report.structural_violations == 1
    assert check_by_name(report)["structural"].status == FAIL
    assert not report.passed


def test_verify_out_of_range_masked_position_is_a_violation(tmp_path):
    path, _ = make_file(tmp_path)
    raw = bytearray(path.read_bytes())
    (n,) = struct.unpack_from("<H", raw, 24)
    struct.pack_into("<H", raw, 24 + 2 + 5 * n + 2, 60000)  # first masked position
    path.write_bytes(bytes(raw))
    from bpt.serialize import manifest_path

    manifest_path(path).unlink()
    report = verify_file(path, VOCAB, lenient())
    assert report.structural_violations == 1
    assert not report.passed


def test_verify_origin_check_skippable(tmp_path):
    path, _ = make_file(tmp_path)
    tol = lenient()
    tol.origin_target = None
    report = verify_file(path, VOCAB, tol)
    assert check_by_name(report)["small_origin_fraction"].status == SKIPPED


def test_verify_origin_against_expected(tmp_path):
    path, insts = make_file(tmp_path)
    small = sum(i.origin_small_tokens for i in insts)
    total = sum(i.origin_small_tokens + i.origin_large_tokens for i in insts)
    tol = lenient()
    tol.origin_target = small / total
    tol.origin_tol = 1e-9
    report = verify_file(path, VOCAB, tol)
    assert check_by_name(report)["small_origin_fraction"].status == PASS


def test_verify_reads_distinct_pairs_from_manifest(tmp_path):
    rng = SplitRng(9)
    docs = [
        Document(f"d#{i}", Origin.SMALL, [" ".join(WORDS[rng.randrange(300)] for _ in range(6))])
        for i in range(6)
    ]
    insts = create_instances_from_documents(docs, TOKENIZER, CONFIG, SplitRng(10))
    from bpt.instances import pair_diversity

    path = tmp_path / "neg.bin"
    write_instances(insts, path, VOCAB, CONFIG, statistics={"distinct_negative_pairs": pair_diversity(insts)})
    report = verify_file(path, VOCAB, lenient())
    assert report.distinct_negative_pairs == pair_diversity(insts)


def test_render_table_mentions_overall(tmp_path):
    path, _ = make_file(tmp_path)
    report = verify_file(path, VOCAB, lenient())
    table = report.render_table()
    assert "overall:" in table
    assert "mask_selection_rate" in table


@pytest.mark.parametrize("mode", ["simpt", "conventional"])
def test_verify_agrees_with_generation_statistics(tmp_path, lexicon, small_tokenizer, mode):
    small = load_corpus(write_corpus_file(tmp_path / "small.txt", make_corpus_text(SplitRng(11), lexicon, 6)),
                        "small", Origin.SMALL)
    large = load_corpus(write_corpus_file(tmp_path / "large.txt", make_corpus_text(SplitRng(12), lexicon, 18)),
                        "large", Origin.LARGE)
    config = InstanceConfig(max_seq_length=64, n_rounds=4, shards_per_corpus=2, dupe_factor=2,
                            n_splits=3, master_seed=5)
    if mode == "simpt":
        stream, gen = generate_simpt(split_corpus(small, 2000), split_corpus(large, 2000),
                                     small_tokenizer, config)
    else:
        stream, gen = generate_conventional(small.documents + large.documents, small_tokenizer, config)
    path = tmp_path / "out.bin"
    write_instances(stream, path, small_tokenizer.vocab, config, statistics=lambda: gen.to_dict())
    stats = Manifest.load(manifest_path(path)).statistics
    assert stats["instances"] > 0 and stats["distinct_negative_pairs"] > 0

    report = verify_file(path, small_tokenizer.vocab)
    assert report.instances == stats["instances"]
    assert report.nsp_positive_rate == stats["is_next_fraction"]
    assert report.mask_selection_rate == stats["mask_selection_rate"]
    assert report.small_origin_fraction == stats["small_origin_fraction"]
    assert report.distinct_negative_pairs == stats["distinct_negative_pairs"]


def test_report_key_sets_are_pinned():
    assert set(GenerationReport().to_dict()) == {
        "mode", "instances", "positives", "negatives", "is_next_fraction", "skipped_negatives",
        "empty_documents", "degenerate_no_mask", "masked_positions_total", "candidate_positions_total",
        "mask_selection_rate", "origin_small_tokens", "origin_large_tokens", "small_origin_fraction",
        "distinct_negative_pairs", "rounds", "groups", "shard_combo_collisions",
    }
    assert set(VerificationReport(path="x").to_dict()) == {
        "path", "instances", "mask_selection_rate", "mask_split", "nsp_positive_rate",
        "small_origin_fraction", "structural_violations", "distinct_negative_pairs", "checks", "passed",
    }
