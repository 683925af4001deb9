"""Traced in-process pass over the pipeline for the per-layer metrics.

The pass calls each ``bpt`` module's public functions from here, in one
thread, on the files the untraced stage processes already produced. Spans
are recorded only at boundaries this file owns: around the calls it makes, in
a timing ``WordPieceTokenizer`` subclass passed as the tokenizer argument,
and in wrappers swapped in for the module attributes ``kernels.count_pairs``,
``kernels.apply_merge``, ``kernels.mask_sequence``,
``serialize.structural_errors`` and ``verify.read_instances``. The originals
are restored before the pass returns; nothing inside ``bpt`` changes.

A span is (name, start, end, parent index). Spans stay in memory and are
written to ``.bench_build/trace-<workload>-<seed>.json`` at the end. A span's
self time is its duration minus the durations of its direct children.

The pass also checks that it reproduces the stage processes' outputs: the
vocabulary file bytes and the instance file bytes must be equal.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

from bpt import kernels, serialize, verify
from bpt.corpus import Origin, load_corpus, split_corpus
from bpt.instances import InstanceConfig, generate_conventional, generate_simpt
from bpt.mesh_filter import load_ruleset, parse_records_jsonl, select_articles
from bpt.tokenizer import WordPieceTokenizer
from bpt.verify import Tolerances, verify_file
from bpt.vocab import (
    Vocabulary,
    combined_word_counts,
    corpus_word_counts,
    plan_amplification,
    train_bpe,
)

PER_LAYER_UNITS = {
    "mesh_filter.select_s": "s",
    "mesh_filter.records": "count",
    "mesh_filter.included_ratio": "ratio",
    "corpus.load_s": "s",
    "corpus.load_MBps": "MB/s",
    "corpus.split_s": "s",
    "corpus.shards": "count",
    "vocab.word_counts_s": "s",
    "vocab.word_counts_MBps": "MB/s",
    "vocab.distinct_words": "count",
    "vocab.plan_amplification_s": "s",
    "vocab.train_bpe_s": "s",
    "vocab.merges": "count",
    "vocab.merges_per_s": "1/s",
    "kernels.count_pairs_s": "s",
    "kernels.count_pairs_calls": "count",
    "kernels.apply_merge_s": "s",
    "kernels.mask_sequence_s": "s",
    "kernels.mask_sequence_calls": "count",
    "tokenizer.tokenize_s": "s",
    "tokenizer.tokenize_calls": "count",
    "tokenizer.MBps": "MB/s",
    "tokenizer.unk_rate": "ratio",
    "tokenizer.distinct_sentence_ratio": "ratio",
    "instances.self_s": "s",
    "instances.instances": "count",
    "instances.distinct_negative_pairs": "count",
    "instances.skipped_negatives": "count",
    "instances.shard_combo_collisions": "count",
    "serialize.write_s": "s",
    "serialize.write_MBps": "MB/s",
    "serialize.structural_check_s": "s",
    "serialize.bytes_written": "count",
    "serialize.read_s": "s",
    "serialize.read_MBps": "MB/s",
    "verify.self_s": "s",
    "verify.instances_per_s": "1/s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Nested spans of one thread, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def wrap_reader(self, name: str, fn):
        """Wrap a function returning an iterator: the call and every next()."""

        def traced(*args, **kwargs):
            items = self.call(name, fn, *args, **kwargs)

            def stream():
                while True:
                    index = self.begin(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self.end(index)
                    yield item

            return stream()

        return traced

    def totals(self) -> defaultdict:
        """name -> [total seconds, self seconds, span count]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
        return out


class TimedTokenizer(WordPieceTokenizer):
    """WordPiece tokenizer that records a span and counts per call."""

    def __init__(self, vocab: Vocabulary, tracer: Tracer):
        super().__init__(vocab)
        self.tracer = tracer
        self.calls = 0
        self.bytes = 0
        self.tokens = 0
        self.unknown = 0
        self.sentences: set = set()

    def tokenize(self, text: str):
        index = self.tracer.begin("tokenizer.tokenize")
        try:
            seq = super().tokenize(text)
        finally:
            self.tracer.end(index)
        self.calls += 1
        self.bytes += len(text.encode("utf-8"))
        self.tokens += len(seq.ids)
        self.unknown += seq.ids.count(self.vocab.unk_id)
        self.sentences.add(text)
        return seq


_PATCHED = (
    (kernels, "count_pairs", "kernels.count_pairs"),
    (kernels, "apply_merge", "kernels.apply_merge"),
    (kernels, "mask_sequence", "kernels.mask_sequence"),
    (serialize, "structural_errors", "serialize.structural_check"),
)


def _install(tracer: Tracer) -> list:
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in _PATCHED]
    saved.append((verify, "read_instances", verify.read_instances))
    for module, attr, name in _PATCHED:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    verify.read_instances = tracer.wrap_reader("serialize.read", verify.read_instances)
    return saved


def _create(work: Path, workload, seed: int, tracer: Tracer, tokenizer_cls, out: Path):
    """What ``bpt create-instances`` does for the workload, in this process.
    The instance stream is materialized before writing so that generation
    and serialization time separate."""
    vocab = Vocabulary.load(work / "vocab.txt")
    tokenizer = tokenizer_cls(vocab)
    small = tracer.call("corpus.load", load_corpus, work / "small.txt", "small", Origin.SMALL)
    large = tracer.call("corpus.load", load_corpus, work / "large.txt", "large", Origin.LARGE)
    config = InstanceConfig(dupe_factor=workload.dupe_factor, n_rounds=workload.rounds,
                            n_splits=workload.n_splits,
                            shards_per_corpus=workload.shards_per_corpus, master_seed=seed)
    shards = 0
    if workload.mode == "simpt":
        each = workload.shape.shard_bytes
        small_shards = tracer.call("corpus.split", split_corpus, small, each)
        large_shards = tracer.call("corpus.split", split_corpus, large, each)
        shards = len(small_shards) + len(large_shards)
        index = tracer.begin("instances.generate")
        stream, report = generate_simpt(small_shards, large_shards, tokenizer, config, threads=1)
    else:
        index = tracer.begin("instances.generate")
        docs = small.documents + large.documents
        stream, report = generate_conventional(docs, tokenizer, config, threads=1)
    instances = list(stream)
    tracer.end(index)
    tracer.call("serialize.write", serialize.write_instances, instances, out, vocab, config,
                statistics=report.to_dict())
    return vocab, tokenizer, report, shards


def run(session, raw: dict) -> tuple[dict, dict]:
    """Traced pass for one workload; returns (metric -> value, metric -> unit)."""
    work, workload, seed = session.work, session.workload, session.seed
    plain = Tracer()
    start = time.perf_counter()
    _create(work, workload, seed, plain, WordPieceTokenizer, work / "plain.bin")
    untraced_create_s = time.perf_counter() - start

    tracer = Tracer()
    saved = _install(tracer)
    try:
        index = tracer.begin("mesh_filter.select")
        with open(work / "articles.jsonl", encoding="utf-8") as f:
            included, filter_report = select_articles(parse_records_jsonl(f), load_ruleset("sP"))
            n_included = sum(1 for _ in included)
        tracer.end(index)

        small = tracer.call("corpus.load", load_corpus, work / "small.txt", "small", Origin.SMALL)
        large = tracer.call("corpus.load", load_corpus, work / "large.txt", "large", Origin.LARGE)
        index = tracer.begin("vocab.word_counts")
        small_counts, large_counts = corpus_word_counts(small), corpus_word_counts(large)
        tracer.end(index)
        plan = tracer.call("vocab.plan_amplification", plan_amplification, small, large)
        counts = combined_word_counts(small_counts, large_counts, plan.repeat_factor)
        vocabulary, train_report = tracer.call("vocab.train_bpe", train_bpe, counts, workload.vocab_size)

        start = time.perf_counter()
        vocab, tokenizer, report, shards = _create(work, workload, seed, tracer,
                                           lambda v: TimedTokenizer(v, tracer), work / "traced.bin")
        traced_create_s = time.perf_counter() - start

        tolerances = Tolerances()
        if workload.mode == "conventional":
            tolerances.origin_target = None  # as bpt verify does for conventional files
        verification = tracer.call("verify.verify_file", verify_file, work / "traced.bin", vocab, tolerances)
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)

    traced_bytes = (work / "traced.bin").read_bytes()
    out_bytes = (work / "out.bin").read_bytes()
    session.check(vocabulary.file_bytes() == (work / "vocab.txt").read_bytes(),
                  "traced train_bpe vocabulary differs from the build-vocab output")
    session.check(traced_bytes == out_bytes, "traced instance file differs from the untraced out.bin")
    session.check((work / "plain.bin").read_bytes() == out_bytes,
                  "in-process instance file differs from the untraced out.bin")
    session.check(n_included == filter_report.included == raw["facts"]["filter_expected"]["included"],
                  "traced filter kept a different number of records")
    session.check(verification.structural_violations == 0,
                  f"traced verify found {verification.structural_violations} structural violations")

    trace_path = work.parent / f"trace-{session.name}-{seed}.json"
    trace_path.write_text(json.dumps({"spans": tracer.spans}), encoding="utf-8")

    t = tracer.totals()  # a missing span name reads as zeros

    def total(name):
        return t[name][0]

    def per_s(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    corpus_bytes = small.total_bytes + large.total_bytes
    load_bytes = 2 * corpus_bytes  # each corpus is loaded for the vocabulary and again for create
    bytes_written = len(traced_bytes)
    values = {
        "mesh_filter.select_s": total("mesh_filter.select"),
        "mesh_filter.records": filter_report.total,
        "mesh_filter.included_ratio": per_s(filter_report.included, filter_report.total),
        "corpus.load_s": total("corpus.load"),
        "corpus.load_MBps": per_s(load_bytes / 1e6, total("corpus.load")),
        "corpus.split_s": total("corpus.split"),
        "corpus.shards": shards,
        "vocab.word_counts_s": total("vocab.word_counts"),
        "vocab.word_counts_MBps": per_s(corpus_bytes / 1e6, total("vocab.word_counts")),
        "vocab.distinct_words": len(counts),
        "vocab.plan_amplification_s": total("vocab.plan_amplification"),
        "vocab.train_bpe_s": total("vocab.train_bpe"),
        "vocab.merges": train_report.merges_performed,
        "vocab.merges_per_s": per_s(train_report.merges_performed, total("vocab.train_bpe")),
        "kernels.count_pairs_s": total("kernels.count_pairs"),
        "kernels.count_pairs_calls": t["kernels.count_pairs"][2],
        "kernels.apply_merge_s": total("kernels.apply_merge"),
        "kernels.mask_sequence_s": total("kernels.mask_sequence"),
        "kernels.mask_sequence_calls": t["kernels.mask_sequence"][2],
        "tokenizer.tokenize_s": total("tokenizer.tokenize"),
        "tokenizer.tokenize_calls": tokenizer.calls,
        "tokenizer.MBps": per_s(tokenizer.bytes / 1e6, total("tokenizer.tokenize")),
        "tokenizer.unk_rate": per_s(tokenizer.unknown, tokenizer.tokens),
        "tokenizer.distinct_sentence_ratio": per_s(len(tokenizer.sentences), tokenizer.calls),
        "instances.self_s": t["instances.generate"][1],
        "instances.instances": report.instances,
        "instances.distinct_negative_pairs": report.distinct_negative_pairs,
        "instances.skipped_negatives": report.skipped_negatives,
        "instances.shard_combo_collisions": report.shard_combo_collisions,
        "serialize.write_s": total("serialize.write"),
        "serialize.write_MBps": per_s(bytes_written / 1e6, total("serialize.write")),
        "serialize.structural_check_s": total("serialize.structural_check"),
        "serialize.bytes_written": bytes_written,
        "serialize.read_s": total("serialize.read"),
        "serialize.read_MBps": per_s(bytes_written / 1e6, total("serialize.read")),
        "verify.self_s": t["verify.verify_file"][1],
        "verify.instances_per_s": per_s(verification.instances, total("verify.verify_file")),
        "trace.overhead_s": traced_create_s - untraced_create_s,
    }
    return values, dict(PER_LAYER_UNITS)
