"""MLM+NSP pre-training instance generation.

Every entry point is one loop over a unit plan. A unit is a list of document
indices with its own rng and number of dupe passes, and each mode only says
which documents form its units:

- balanced ("simpt"): every round samples an equal number of shards from the
  small and the large corpus and pools their documents into one unit, so
  small-origin text contributes about half of each round's bytes regardless
  of raw corpus sizes, and negative pairs may cross corpora. The shards are
  the caller's (`generate_simpt`) or split from the documents' byte sizes
  as `split_corpus` splits a corpus (`generate_simpt_from_documents`).
- conventional: the combined document list is split into contiguous groups,
  one unit each, processed dupe_factor times; the segment pairs are
  identical across passes and only the mask positions/replacements differ.
  Negative partners stay within the group.
- `create_instances_from_documents`: one unit of all the given documents.

The loop (`_generate`) tokenizes every sentence once into one flat id array
(`tokenize_documents`), and a segment is one span of that array. Of each
document the loop keeps only its id, origin and byte size, so documents read
from a file one at a time are never all held; the plan is made from the
tokenized block. Units run serially in plan order. Within one, the segment
pairs are built once, then masked a batch at a time (one
`kernels.mask_sequence` call per batch and dupe pass); each instance is
yielded in order as soon as its batch is masked.

All randomness is counter-keyed by (master_seed, stream, unit, document), so
any round or group can be regenerated in isolation.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .errors import InstanceError
from .rng import SplitRng, fold
from .settings import InstanceConfig
from .vocab import Vocabulary

if TYPE_CHECKING:  # `bpt verify` imports this module and reads no corpus and tokenizes nothing
    from .corpus import Document, Origin, Shard
    from .tokenizer import WordPieceTokenizer

# rng stream tags: shard sampling and document pairing must not share draws
_STREAM_SHARDS = 1
_STREAM_DOCS = 2

# Pairs are masked a batch at a time, padded to one width: a batch holds at
# most this many cells of rows x max_seq_length, so its arrays stay under
# 1 MB at any sequence length. Larger batches were no faster on 2 vCPUs.
_BATCH_CELLS = 1 << 14


@dataclass(eq=False)
class PretrainInstance:
    token_ids: np.ndarray  # int32, [CLS] a... [SEP] b... [SEP]
    segment_ids: np.ndarray  # int8, 0 for segment A (incl. CLS and first SEP), 1 for B
    masked_positions: np.ndarray  # int64, ascending
    masked_labels: np.ndarray  # int32, original ids at masked_positions
    is_next: bool
    origin_small_tokens: int
    origin_large_tokens: int
    # generation metadata; not part of the binary record layout
    doc_id_a: str = ""
    doc_id_b: str = ""

    def payload(self) -> tuple:
        """Serialized fields only, for equality checks across write/read."""
        return (
            tuple(int(x) for x in self.token_ids),
            tuple(int(x) for x in self.segment_ids),
            tuple(int(x) for x in self.masked_positions),
            tuple(int(x) for x in self.masked_labels),
            bool(self.is_next),
            int(self.origin_small_tokens),
            int(self.origin_large_tokens),
        )


def structural_errors(records, vocab: Vocabulary, max_seq_length: int) -> list:
    """Violations of the instance invariants, in rule order and, for masked
    positions, in position order; an empty list means well-formed.

    `records` is one `PretrainInstance`, which gives its list of messages, or
    a batch of them, which gives one list per record. The batch is checked
    as columns: each field is concatenated once and every rule is an array
    mask. Token ids, segment ids and masked positions each map back to their
    record on their own, because a malformed record's lengths may disagree.
    """
    one = isinstance(records, PretrainInstance)
    batch = [records] if one else list(records)
    if not batch:
        return []
    sizes = np.array([(len(r.token_ids), len(r.segment_ids), len(r.masked_positions), len(r.masked_labels),
                       r.origin_small_tokens + r.origin_large_tokens) for r in batch], np.int64)
    n, n_segs, n_pos, n_labels, origin_sum = sizes.T
    tok, seg, msk = run_offsets(n), run_offsets(n_segs), run_offsets(n_pos)
    pos_owner = np.repeat(np.arange(len(batch)), n_pos)
    ids = np.concatenate([r.token_ids for r in batch])
    segs = np.concatenate([r.segment_ids for r in batch])
    positions = np.concatenate([r.masked_positions for r in batch])

    def per_record(at, offsets):
        """How many of the indices `at` fall in each record's run."""
        return np.bincount(np.searchsorted(offsets, at, "right") - 1, minlength=len(batch))

    is_sep = ids == vocab.sep_id
    seps = per_record(np.flatnonzero(is_sep), tok)
    not_cls = n == 0
    not_cls[n > 0] = ids[tok[:-1][n > 0]] != vocab.cls_id
    filled = n_segs > 0
    drops = np.flatnonzero(segs[1:] < segs[:-1]) + 1  # a segment id below the one before it,
    drops = drops[seg[np.searchsorted(seg, drops, "right") - 1] != drops]  # unless it starts a record
    bad_segs = per_record(drops, seg) > 0
    bad_segs[filled] |= (segs[seg[:-1][filled]] != 0) | (segs[seg[1:][filled] - 1] > 1)
    outside = (positions < 0) | (positions >= n[pos_owner])
    bad_positions = outside.copy()
    bad_positions[~outside] = (positions[~outside] == 0) | is_sep[tok[pos_owner[~outside]] + positions[~outside]]
    rules = (  # message None: one message per bad masked position
        (n > max_seq_length, "length {n} exceeds max_seq_length {limit}"),
        (n_segs != n, "segment_ids length differs from token_ids"),
        (not_cls, "first token is not [CLS]"),
        (seps != 2, "expected exactly 2 [SEP], found {seps}"),
        (bad_segs, "segment_ids are not a non-decreasing 0/1 sequence"),
        (n_pos != n_labels, "masked_positions and masked_labels differ in length"),
        (per_record(np.flatnonzero(bad_positions), msk) > 0, None),
        ((n_pos == 0) & (n > 3), "no masked positions despite available candidates"),
        (origin_sum != n - 3, "origin token counts do not sum to non-special token count"),
        (per_record(np.flatnonzero((ids < 0) | (ids >= vocab.size)), tok) > 0, "token id out of vocabulary range"),
    )
    out = [[] for _ in batch]
    for i in np.flatnonzero(np.logical_or.reduce([hit for hit, _ in rules])).tolist():
        for hit, message in rules:
            if hit[i] and message:
                out[i].append(message.format(n=n[i], seps=seps[i], limit=max_seq_length))
            elif hit[i]:
                at = pos_owner == i
                out[i] += [f"masked position {p} " + ("out of range" if far else "points at [CLS]/[SEP]")
                           for p, far, bad in zip(positions[at].tolist(), outside[at].tolist(),
                                                  bad_positions[at].tolist()) if bad]
    return out[0] if one else out


def run_offsets(lengths: np.ndarray) -> np.ndarray:
    """Start of each run of `lengths` in their concatenation, then the total."""
    out = np.zeros(len(lengths) + 1, np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def batch_rows(max_seq_length: int) -> int:
    """Pairs masked, or records checked or verified, per batch."""
    return max(1, _BATCH_CELLS // max_seq_length)


@dataclass
class InstanceTally:
    """Running counts of a stream of instances and the balance rates derived
    from them; the manifest statistics, `verify` and `compare` all count
    through this."""

    instances: int = 0
    positives: int = 0
    masked_positions_total: int = 0
    candidate_positions_total: int = 0
    origin_small_tokens: int = 0
    origin_large_tokens: int = 0

    def record(self, inst: PretrainInstance) -> None:
        self.instances += 1
        if inst.is_next:
            self.positives += 1
        self.masked_positions_total += len(inst.masked_positions)
        self.candidate_positions_total += len(inst.token_ids) - 3
        self.origin_small_tokens += inst.origin_small_tokens
        self.origin_large_tokens += inst.origin_large_tokens

    @property
    def is_next_fraction(self) -> "float | None":
        return self.positives / self.instances if self.instances else None

    @property
    def mask_selection_rate(self) -> "float | None":
        if not self.candidate_positions_total:
            return None
        return self.masked_positions_total / self.candidate_positions_total

    @property
    def small_origin_fraction(self) -> "float | None":
        total = self.origin_small_tokens + self.origin_large_tokens
        return self.origin_small_tokens / total if total else None


@dataclass
class GenerationReport(InstanceTally):
    mode: str = ""
    skipped_negatives: int = 0
    empty_documents: int = 0
    degenerate_no_mask: int = 0
    rounds: int = 0
    groups: int = 0
    shard_combo_collisions: int = 0
    negative_pair_ids: set = field(default_factory=set, repr=False)

    # properties written next to the fields by to_dict
    _DERIVED = ("negatives", "is_next_fraction", "mask_selection_rate", "small_origin_fraction",
                "distinct_negative_pairs")

    def record(self, inst: PretrainInstance) -> None:
        super().record(inst)
        if not inst.is_next:
            a, b = inst.doc_id_a, inst.doc_id_b
            self.negative_pair_ids.add((a, b) if a <= b else (b, a))
        if len(inst.masked_positions) == 0:
            self.degenerate_no_mask += 1

    @property
    def negatives(self) -> int:
        return self.instances - self.positives

    @property
    def distinct_negative_pairs(self) -> int:
        return len(self.negative_pair_ids)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "negative_pair_ids"}
        return {**out, **{name: getattr(self, name) for name in self._DERIVED}}


def mask_tokens(
    token_ids: Iterable[int],
    special_positions: Iterable[int],
    vocab: Vocabulary,
    config: InstanceConfig,
    rng: SplitRng,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select and replace MLM positions.

    Number masked = min(cap, max(1, round-half-up(prob * candidates))); chosen
    uniformly without replacement, then replaced with [MASK] (80%), a uniform
    non-special vocabulary id (10%, original id not excluded), or left
    unchanged (10%). Returns (masked_ids, positions, original label ids).
    """
    ids = np.ascontiguousarray(token_ids, np.int32)[None]
    special = np.zeros(ids.shape, np.uint8)
    special[0, np.fromiter(special_positions, np.int64)] = 1
    masked, positions, labels = kernels.mask_sequence(
        ids,
        special,
        np.array([rng.next_u64()], np.uint64),
        config.masked_lm_prob,
        config.max_predictions_per_seq,
        vocab.mask_id,
        vocab.n_special,
        vocab.size,
    )
    m = int(np.count_nonzero(positions[0] >= 0))
    return masked[0], positions[0, :m], labels[0, :m]


class TokenizedDocuments(NamedTuple):
    """Documents tokenized once into one flat id array: sentence k is
    `ids[sentences[k]:sentences[k + 1]]`, and document d holds sentences
    `doc_sentences[d]` to `doc_sentences[d + 1]` (exclusive)."""

    doc_ids: list[str]
    origins: list[Origin]
    byte_sizes: np.ndarray  # int64, each document's `byte_size`
    ids: np.ndarray  # int32, the ids of every non-empty sentence in order
    sentences: np.ndarray  # int64 run offsets of the sentences into ids, then len(ids)
    doc_sentences: np.ndarray  # int64 run offsets of the documents into sentences, then their count

    def sentence_offsets(self, d: int) -> list[int]:
        """Where each of document d's sentences starts in `ids`, then where its last ends."""
        return self.sentences[self.doc_sentences[d] : self.doc_sentences[d + 1] + 1].tolist()


def tokenize_documents(docs: Iterable[Document], tokenizer: WordPieceTokenizer) -> TokenizedDocuments:
    """One pass over `docs`, one `tokenize` call per sentence; of each
    document only its id, origin and byte size are kept. Sentences that
    tokenize to nothing are left out, so a document of only such sentences
    has none."""
    ids = array("i")  # grows without one Python int per token
    sentences, doc_sentences = array("q", [0]), array("q", [0])
    doc_ids, origins, byte_sizes = [], [], array("q")
    for doc in docs:
        for sentence in doc.sentences:
            ids.extend(tokenizer.tokenize(sentence).ids)
            if len(ids) > sentences[-1]:
                sentences.append(len(ids))
        doc_sentences.append(len(sentences) - 1)
        doc_ids.append(doc.doc_id)
        origins.append(doc.origin)
        byte_sizes.append(doc.byte_size)
    return TokenizedDocuments(doc_ids, origins, np.frombuffer(byte_sizes, np.int64), np.frombuffer(ids, np.int32),
                              np.frombuffer(sentences, np.int64), np.frombuffer(doc_sentences, np.int64))


def truncated_lengths(len_a: int, len_b: int, max_num: int) -> tuple[int, int]:
    """Segment lengths once the pair fits in max_num tokens, in closed form:
    the longer segment (B on a tie) is trimmed at its end to
    max(shorter, max_num - shorter), and if the pair still does not fit,
    A keeps max_num - max_num // 2 and B keeps max_num // 2. Dropping one
    end token at a time from the longer segment gives the same lengths."""
    if len_a + len_b <= max_num:
        return len_a, len_b
    shorter = min(len_a, len_b)
    if 2 * shorter > max_num:
        return max_num - max_num // 2, max_num // 2
    return (max_num - shorter, len_b) if len_a > len_b else (len_a, max_num - shorter)


def _build_pairs_for_document(
    di: int,
    usable: list[int],
    block: TokenizedDocuments,
    config: InstanceConfig,
    rng: SplitRng,
    report: GenerationReport,
) -> list[tuple]:
    """Segment pairs of document `usable[di]`, each (A start, A length,
    B start, B length, is_next, A document, B document, mask seed base):
    a segment is one run of `block.ids`, and truncation only trims its end."""
    doc = usable[di]
    at = block.sentence_offsets(doc)  # sentence k is ids[at[k]:at[k + 1]]
    n = len(at) - 1
    max_num = config.max_seq_length - 3
    target = max_num
    if rng.random() < config.short_seq_prob:
        target = rng.randint(2, max_num)

    pairs: list[tuple] = []
    first = 0  # the current chunk is sentences first..i
    i = 0
    while i < n:
        if i == n - 1 or at[i + 1] - at[first] >= target:
            a_end = first + 1  # segment A is sentences first..a_end - 1
            if i > first:
                a_end = first + rng.randint(1, i - first)
            len_a = at[a_end] - at[first]
            # a positive pair needs following text: either the rest of the
            # chunk, or (for a single-segment chunk) later document sentences
            rest_exists = a_end <= i
            can_positive = rest_exists or i + 1 < n
            make_negative = (not can_positive) or rng.random() < 0.5
            if make_negative and len(usable) <= 1:
                report.skipped_negatives += 1
            else:
                doc_b = doc
                if make_negative:
                    partner = rng.randrange(len(usable) - 1)
                    if partner >= di:
                        partner += 1
                    doc_b = usable[partner]
                    b_at = block.sentence_offsets(doc_b)
                    start = rng.randrange(len(b_at) - 1)
                    # whole sentences from `start` until B reaches its target
                    b_end = bisect_left(b_at, b_at[start] + target - len_a, start + 1, len(b_at) - 1)
                    b_start, len_b = b_at[start], b_at[b_end] - b_at[start]
                    # unused chunk sentences go back for the next chunk
                    i = a_end - 1
                else:
                    if not rest_exists:
                        # single-segment chunk: segment B continues the document
                        i = bisect_left(at, at[a_end] + max(1, target - len_a), a_end + 1, n) - 1
                    b_start, len_b = at[a_end], at[i + 1] - at[a_end]
                len_a, len_b = truncated_lengths(len_a, len_b, max_num)
                pairs.append((at[first], len_a, b_start, len_b, not make_negative, doc, doc_b, rng.next_u64()))
            first = i + 1
        i += 1
    return pairs


def _assemble(
    block: TokenizedDocuments,
    pairs: list[tuple],
    vocab: Vocabulary,
    config: InstanceConfig,
    dupe_index: int,
    report: GenerationReport,
) -> Iterator[PretrainInstance]:
    """Mask a batch of pairs in one kernel call, then record and yield its
    instances in order."""
    from .corpus import Origin

    a_start, len_a, b_start, len_b = np.array([pair[:4] for pair in pairs]).T[:, :, None]
    lengths = len_a + len_b + 3
    cols = np.arange(lengths.max())
    in_a = (cols >= 1) & (cols <= len_a)
    in_b = (cols >= len_a + 2) & (cols < lengths - 1)
    ids = np.zeros(in_a.shape, np.int32)  # [CLS] a... [SEP] b... [SEP], then padding
    ids[in_a] = block.ids[(a_start - 1 + cols)[in_a]]
    ids[in_b] = block.ids[(b_start - len_a - 2 + cols)[in_b]]
    ids[:, 0] = vocab.cls_id
    ids[(cols == len_a + 1) | (cols == lengths - 1)] = vocab.sep_id
    seeds = np.array([fold(pair[7], dupe_index) for pair in pairs], np.uint64)
    masked, positions, labels = kernels.mask_sequence(
        ids,
        ~(in_a | in_b),  # [CLS], [SEP] and the padding of shorter rows
        seeds,
        config.masked_lm_prob,
        config.max_predictions_per_seq,
        vocab.mask_id,
        vocab.n_special,
        vocab.size,
    )
    segment_ids = (cols >= len_a + 2).astype(np.int8)
    n_masked = np.count_nonzero(positions >= 0, axis=1).tolist()
    origins = block.origins
    for i, ((_, a, _, b, is_next, a_index, b_index, _), m) in enumerate(zip(pairs, n_masked)):
        small = (a if origins[a_index] is Origin.SMALL else 0) + (b if origins[b_index] is Origin.SMALL else 0)
        n = a + b + 3
        inst = PretrainInstance(
            token_ids=masked[i, :n],
            segment_ids=segment_ids[i, :n],
            masked_positions=positions[i, :m],
            masked_labels=labels[i, :m],
            is_next=is_next,
            origin_small_tokens=small,
            origin_large_tokens=a + b - small,
            doc_id_a=block.doc_ids[a_index],
            doc_id_b=block.doc_ids[b_index],
        )
        report.record(inst)
        yield inst


# A unit: indices into the block's documents, the unit's rng and its dupe passes.
Unit = tuple[Sequence[int], SplitRng, int]


def create_instances_from_documents(
    docs: list[Document],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    rng: SplitRng,
    *,
    report: "GenerationReport | None" = None,
) -> list[PretrainInstance]:
    """Pair consecutive-or-foreign segments per document and apply masking,
    once; segment pairs and masks depend only on (rng, docs)."""
    report = GenerationReport() if report is None else report
    return list(_generate(docs, lambda block: [(range(len(block.doc_ids)), rng, 1)], tokenizer, config, report))


def _generate(
    docs: Iterable[Document],
    plan: Callable[[TokenizedDocuments], Iterable[Unit]],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    report: GenerationReport,
) -> Iterator[PretrainInstance]:
    """Check the config and `docs` now (an empty list; an iterator of no
    documents fails when the stream starts), and return the lazy stream of a
    unit plan's instances. The stream tokenizes `docs` in one pass, then
    takes each unit of `plan(block)` in turn: it counts and leaves out the
    unit's empty documents, builds its segment pairs once, and masks that
    list a batch at a time on every dupe pass, recording and yielding each
    instance as soon as its batch is masked."""
    config.validate()
    if not docs:
        raise InstanceError("documents must be non-empty")
    return _stream(docs, plan, tokenizer, config, report)


def _stream(
    docs: Iterable[Document],
    plan: Callable[[TokenizedDocuments], Iterable[Unit]],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    report: GenerationReport,
) -> Iterator[PretrainInstance]:
    block = tokenize_documents(docs, tokenizer)
    del docs  # from here on the stream pins no document
    if not block.doc_ids:
        raise InstanceError("documents must be non-empty")
    vocab, per_batch = tokenizer.vocab, batch_rows(config.max_seq_length)
    for doc_indices, rng, n_dupes in plan(block):
        doc_indices = np.asarray(doc_indices, np.int64)
        empty = block.doc_sentences[doc_indices + 1] == block.doc_sentences[doc_indices]
        report.empty_documents += int(np.count_nonzero(empty))
        usable = doc_indices[~empty].tolist()
        pairs = [pair for di in range(len(usable))
                 for pair in _build_pairs_for_document(di, usable, block, config, rng.child(di), report)]
        for dupe in range(n_dupes):
            for start in range(0, len(pairs), per_batch):
                yield from _assemble(block, pairs[start : start + per_batch], vocab, config, dupe, report)


def _sample_shards(units: Sequence, k: int, rng: SplitRng) -> list:
    if len(units) >= k:
        return rng.sample(units, k)
    # fall back to with-replacement to preserve the byte balance
    return rng.choices(units, k)


def _simpt_rounds(small: Sequence[Sequence[int]], large: Sequence[Sequence[int]], config: InstanceConfig,
                  report: GenerationReport) -> Iterator[Unit]:
    """simpt's unit plan over the shards of each corpus, each a sequence of
    document indices: round r draws shards_per_corpus of each, by position,
    and pools their documents into one unit."""
    seen: set = set()
    for r in range(config.n_rounds):
        rng_shards = SplitRng(config.master_seed, _STREAM_SHARDS, r)
        small_sel = _sample_shards(range(len(small)), config.shards_per_corpus, rng_shards)
        large_sel = _sample_shards(range(len(large)), config.shards_per_corpus, rng_shards)
        combo = (tuple(sorted(small_sel)), tuple(sorted(large_sel)))
        report.rounds += 1
        if combo in seen:
            report.shard_combo_collisions += 1
        seen.add(combo)
        rng_docs = SplitRng(config.master_seed, _STREAM_DOCS, r)
        yield [d for k in small_sel for d in small[k]] + [d for k in large_sel for d in large[k]], rng_docs, 1


def generate_simpt(
    small_shards: list[Shard],
    large_shards: list[Shard],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    threads: int = 1,
) -> tuple[Iterator[PretrainInstance], GenerationReport]:
    """Balanced generation: per round, equal shard counts from each corpus.

    Returns a lazy instance stream and a report that is complete once the
    stream is exhausted. The stream tokenizes every shard once; round r then
    draws its shards and pools their documents into one unit. Rounds run in
    index order. `threads` is accepted for compatibility and has no effect.
    """
    if not small_shards or not large_shards:
        raise InstanceError("simpt requires non-empty shard lists for both corpora")
    report = GenerationReport(mode="simpt")
    shards = small_shards + large_shards
    ends = accumulate((len(s.documents) for s in shards), initial=0)
    blocks = [range(start, end) for start, end in pairwise(ends)]  # each shard's block indices
    small, large = blocks[: len(small_shards)], blocks[len(small_shards) :]
    docs = [d for s in shards for d in s.documents]
    return _generate(docs, lambda block: _simpt_rounds(small, large, config, report), tokenizer, config,
                     report), report


def generate_simpt_from_documents(
    documents: Iterable[Document],
    each_file_size: int,
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
) -> tuple[Iterator[PretrainInstance], GenerationReport]:
    """`generate_simpt` on the shards that `split_corpus` would make of the
    small-origin and of the large-origin `documents`, each in their order.

    The documents are read once, as the stream starts, and the shards are
    packed from the byte sizes in the tokenized block, so no document is held
    after it is tokenized. Either origin having no document fails then.
    """
    from .corpus import Origin, pack_shards

    if each_file_size <= 0:
        raise InstanceError(f"each_file_size must be positive, got {each_file_size}")
    report = GenerationReport(mode="simpt")

    def plan(block: TokenizedDocuments) -> Iterator[Unit]:
        sizes, shards = block.byte_sizes.tolist(), []
        for origin in (Origin.SMALL, Origin.LARGE):
            docs = (d for d, o in enumerate(block.origins) if o is origin)
            shards.append([list(shard) for shard in pack_shards(docs, sizes.__getitem__, each_file_size)])
        if not shards[0] or not shards[1]:
            raise InstanceError("simpt requires documents of both origins")
        return _simpt_rounds(*shards, config, report)

    return _generate(documents, plan, tokenizer, config, report), report


def generate_conventional(
    all_documents: Iterable[Document],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    threads: int = 1,
) -> tuple[Iterator[PretrainInstance], GenerationReport]:
    """Duplicate-factor generation over contiguous document groups.

    The stream first tokenizes every document once. Negative partners are
    confined to each group; dupe_factor re-masks the group's one list of
    segment pairs with fresh mask randomness. Groups run one after another;
    `threads` is accepted for compatibility and has no effect.
    """
    report = GenerationReport(mode="conventional")

    def groups(block: TokenizedDocuments) -> Iterator[Unit]:
        for g, group in enumerate(split_documents(range(len(block.doc_ids)), config.n_splits)):
            report.groups += 1
            yield group, SplitRng(config.master_seed, _STREAM_DOCS, g), config.dupe_factor

    return _generate(all_documents, groups, tokenizer, config, report), report


def split_documents(docs: Sequence, n_splits: int) -> list[Sequence]:
    """Contiguous slices of near-equal document counts (first slices one larger)."""
    n = min(n_splits, len(docs))
    base, extra = divmod(len(docs), n)
    groups = []
    idx = 0
    for g in range(n):
        size = base + (1 if g < extra else 0)
        groups.append(docs[idx : idx + size])
        idx += size
    return groups


def pair_diversity(instances: Iterable[PretrainInstance]) -> int:
    """Distinct unordered (doc_id_a, doc_id_b) pairs among negative instances."""
    report = GenerationReport()
    for inst in instances:
        report.record(inst)
    return report.distinct_negative_pairs
