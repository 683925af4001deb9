"""MLM+NSP pre-training instance generation.

Two modes share one per-document pairing routine:

- balanced ("simpt"): every round samples an equal number of shards from the
  small and the large corpus and pools their documents, so small-origin text
  contributes about half of each round's bytes regardless of raw corpus sizes,
  and negative pairs may cross corpora.
- conventional: the combined document list is split into contiguous groups,
  each processed dupe_factor times; the segment pairs are identical across
  passes and only the mask positions/replacements differ. Negative partners
  stay within the group.

All randomness is counter-keyed by (master_seed, stream, unit, document), so
any round or group can be regenerated in isolation. Rounds and groups run
serially in index order. Within one, segment pairs are masked a batch at a
time (one `kernels.mask_sequence` call per batch and dupe pass), and each
instance is yielded in order as soon as its batch is masked.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from . import kernels
from .corpus import Document, Origin, Shard
from .errors import InstanceError
from .rng import SplitRng, fold
from .tokenizer import WordPieceTokenizer
from .vocab import Vocabulary

# rng stream tags: shard sampling and document pairing must not share draws
_STREAM_SHARDS = 1
_STREAM_DOCS = 2

# Pairs are masked a batch at a time, padded to one width: a batch holds at
# most this many cells of rows x max_seq_length, so its arrays stay under
# 1 MB at any sequence length. Larger batches were no faster on 2 vCPUs.
_BATCH_CELLS = 1 << 14


@dataclass
class InstanceConfig:
    max_seq_length: int = 128
    masked_lm_prob: float = 0.15
    max_predictions_per_seq: int = 20
    short_seq_prob: float = 0.10
    dupe_factor: int = 1
    n_rounds: int = 0
    n_splits: int = 1
    shards_per_corpus: int = 10
    master_seed: int = 0

    def validate(self) -> None:
        if not 0.0 < self.masked_lm_prob < 1.0:
            raise InstanceError(f"masked_lm_prob must be in (0, 1), got {self.masked_lm_prob}")
        if self.max_predictions_per_seq < 1:
            raise InstanceError("max_predictions_per_seq must be >= 1")
        if not 8 <= self.max_seq_length <= 0xFFFF:
            # the instance file stores lengths and positions as u16
            raise InstanceError(f"max_seq_length must be in [8, 65535], got {self.max_seq_length}")
        if not 0.0 <= self.short_seq_prob <= 1.0:
            raise InstanceError("short_seq_prob must be in [0, 1]")
        if self.dupe_factor < 1:
            raise InstanceError("dupe_factor must be >= 1")
        if self.n_rounds < 0:
            raise InstanceError("n_rounds must be >= 0")
        if self.n_splits < 1:
            raise InstanceError("n_splits must be >= 1")
        if self.shards_per_corpus < 1:
            raise InstanceError("shards_per_corpus must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


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
    """Pairs masked, or records checked, encoded or verified, per batch."""
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
    rng: "SplitRng | int",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Select and replace MLM positions.

    Number masked = min(cap, max(1, round-half-up(prob * candidates))); chosen
    uniformly without replacement, then replaced with [MASK] (80%), a uniform
    non-special vocabulary id (10%, original id not excluded), or left
    unchanged (10%). Returns (masked_ids, positions, original label ids).
    """
    ids = np.ascontiguousarray(token_ids, np.int32)
    special = np.zeros(len(ids), np.uint8)
    special[np.fromiter(special_positions, np.int64)] = 1
    seed = rng.next_u64() if isinstance(rng, SplitRng) else int(rng)
    return kernels.mask_sequence(
        ids,
        special,
        seed,
        config.masked_lm_prob,
        config.max_predictions_per_seq,
        vocab.mask_id,
        vocab.n_special,
        vocab.size,
    )


@dataclass
class _SegmentPair:
    tokens_a: list[int]
    tokens_b: list[int]
    is_next: bool
    origin_a: Origin
    origin_b: Origin
    doc_id_a: str
    doc_id_b: str
    mask_seed_base: int


def _truncate_pair(tokens_a: list[int], tokens_b: list[int], max_num: int) -> None:
    """Drop tokens from the end of the longer segment until the pair fits;
    each segment keeps at least one token."""
    while len(tokens_a) + len(tokens_b) > max_num:
        longer, other = (tokens_a, tokens_b) if len(tokens_a) > len(tokens_b) else (tokens_b, tokens_a)
        if len(longer) <= 1:
            longer = other
        longer.pop()


def _build_pairs_for_document(
    doc_index: int,
    docs: list[Document],
    tokenized: list[list[list[int]]],
    config: InstanceConfig,
    rng: SplitRng,
    report: GenerationReport,
) -> list[_SegmentPair]:
    sentences = tokenized[doc_index]
    doc = docs[doc_index]
    max_num = config.max_seq_length - 3
    target = max_num
    if rng.random() < config.short_seq_prob:
        target = rng.randint(2, max_num)

    pairs: list[_SegmentPair] = []
    chunk: list[list[int]] = []
    chunk_len = 0
    i = 0
    while i < len(sentences):
        chunk.append(sentences[i])
        chunk_len += len(sentences[i])
        if i == len(sentences) - 1 or chunk_len >= target:
            a_end = 1
            if len(chunk) >= 2:
                a_end = rng.randint(1, len(chunk) - 1)
            tokens_a = [t for seg in chunk[:a_end] for t in seg]
            # a positive pair needs following text: either the rest of the
            # chunk, or (for a single-segment chunk) later document sentences
            rest_exists = a_end < len(chunk)
            can_positive = rest_exists or i + 1 < len(sentences)
            make_negative = (not can_positive) or rng.random() < 0.5
            if make_negative and len(docs) <= 1:
                report.skipped_negatives += 1
            else:
                doc_b = doc
                if make_negative:
                    target_b = target - len(tokens_a)
                    partner = rng.randrange(len(docs) - 1)
                    if partner >= doc_index:
                        partner += 1
                    doc_b = docs[partner]
                    partner_sents = tokenized[partner]
                    start = rng.randrange(len(partner_sents))
                    tokens_b: list[int] = []
                    for k in range(start, len(partner_sents)):
                        tokens_b.extend(partner_sents[k])
                        if len(tokens_b) >= target_b:
                            break
                    # unused chunk segments go back for the next chunk
                    i -= len(chunk) - a_end
                elif rest_exists:
                    tokens_b = [t for seg in chunk[a_end:] for t in seg]
                else:
                    # single-segment chunk: segment B continues the document
                    target_b = max(1, target - len(tokens_a))
                    tokens_b = []
                    while i + 1 < len(sentences):
                        i += 1
                        tokens_b.extend(sentences[i])
                        if len(tokens_b) >= target_b:
                            break
                _truncate_pair(tokens_a, tokens_b, max_num)
                pairs.append(_SegmentPair(tokens_a, tokens_b, not make_negative, doc.origin, doc_b.origin,
                                          doc.doc_id, doc_b.doc_id, rng.next_u64()))
            chunk = []
            chunk_len = 0
        i += 1
    return pairs


def _assemble(
    pairs: list[_SegmentPair],
    vocab: Vocabulary,
    config: InstanceConfig,
    dupe_index: int,
    report: GenerationReport,
) -> Iterator[PretrainInstance]:
    """Mask a batch of pairs in one kernel call, then record and yield its
    instances in order."""
    len_a = np.array([len(pair.tokens_a) for pair in pairs])
    len_b = np.array([len(pair.tokens_b) for pair in pairs])
    lengths = len_a + len_b + 3
    cls, sep = (vocab.cls_id,), (vocab.sep_id,)
    pieces = chain.from_iterable((cls, pair.tokens_a, sep, pair.tokens_b, sep) for pair in pairs)
    cols = np.arange(lengths.max())
    special = cols >= lengths[:, None]  # the padding of shorter rows
    ids = np.zeros(special.shape, np.int32)
    ids[~special] = np.fromiter(chain.from_iterable(pieces), np.int32, int(lengths.sum()))
    rows = np.arange(len(pairs))
    special[:, 0] = True
    special[rows, len_a + 1] = True
    special[rows, lengths - 1] = True
    segment_ids = (cols >= len_a[:, None] + 2).astype(np.int8)
    seeds = np.array([fold(pair.mask_seed_base, dupe_index) for pair in pairs], np.uint64)
    masked, positions, labels = kernels.mask_sequence(
        ids,
        special,
        seeds,
        config.masked_lm_prob,
        config.max_predictions_per_seq,
        vocab.mask_id,
        vocab.n_special,
        vocab.size,
    )
    n_masked = np.count_nonzero(positions >= 0, axis=1).tolist()
    for i, (pair, a, b, m) in enumerate(zip(pairs, len_a.tolist(), len_b.tolist(), n_masked)):
        small = (a if pair.origin_a is Origin.SMALL else 0) + (b if pair.origin_b is Origin.SMALL else 0)
        n = a + b + 3
        inst = PretrainInstance(
            token_ids=masked[i, :n],
            segment_ids=segment_ids[i, :n],
            masked_positions=positions[i, :m],
            masked_labels=labels[i, :m],
            is_next=pair.is_next,
            origin_small_tokens=small,
            origin_large_tokens=a + b - small,
            doc_id_a=pair.doc_id_a,
            doc_id_b=pair.doc_id_b,
        )
        report.record(inst)
        yield inst


def create_instances_from_documents(
    docs: list[Document],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    rng: SplitRng,
    *,
    n_dupes: int = 1,
    report: "GenerationReport | None" = None,
) -> list[PretrainInstance]:
    """Pair consecutive-or-foreign segments per document and apply masking.

    Segment pairs depend only on (rng, docs); with n_dupes > 1 the same pairs
    are re-masked with per-dupe derived seeds, so pass k of n is identical to
    pass k of any larger run with the same inputs.
    """
    config.validate()
    if not docs:
        raise InstanceError("docs must be non-empty")
    if report is None:
        report = GenerationReport()
    return list(_instances(docs, tokenizer, config, rng, n_dupes, report))


def _instances(
    docs: list[Document],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    rng: SplitRng,
    n_dupes: int,
    report: GenerationReport,
) -> Iterator[PretrainInstance]:
    """Yield each instance, recorded, as soon as its batch is masked."""
    usable_docs: list[Document] = []
    tokenized: list[list[list[int]]] = []
    for doc in docs:
        sents = [tokenizer.tokenize(s).ids for s in doc.sentences]
        sents = [s for s in sents if s]
        if sents:
            usable_docs.append(doc)
            tokenized.append(sents)
        else:
            report.empty_documents += 1
    vocab = tokenizer.vocab
    per_batch = batch_rows(config.max_seq_length)
    pairs = (
        pair
        for di in range(len(usable_docs))
        for pair in _build_pairs_for_document(di, usable_docs, tokenized, config, rng.child(di), report)
    )
    # later passes re-mask the first pass's pairs, so keep them only if needed
    kept: list[_SegmentPair] = []
    while batch := list(islice(pairs, per_batch)):
        if n_dupes > 1:
            kept += batch
        yield from _assemble(batch, vocab, config, 0, report)
    for dupe in range(1, n_dupes):
        for start in range(0, len(kept), per_batch):
            yield from _assemble(kept[start : start + per_batch], vocab, config, dupe, report)


def _sample_shards(shards: list[Shard], k: int, rng: SplitRng) -> list[Shard]:
    if len(shards) >= k:
        return rng.sample(shards, k)
    # fall back to with-replacement to preserve the byte balance
    return rng.choices(shards, k)


def generate_simpt(
    small_shards: list[Shard],
    large_shards: list[Shard],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    threads: int = 1,
) -> tuple[Iterator[PretrainInstance], GenerationReport]:
    """Balanced generation: per round, equal shard counts from each corpus.

    Returns a lazy instance stream and a report that is complete once the
    stream is exhausted. Rounds run one after another; the stream order is
    ascending (round, within-round index). `threads` is accepted for
    compatibility and has no effect.
    """
    config.validate()
    if not small_shards or not large_shards:
        raise InstanceError("simpt requires non-empty shard lists for both corpora")
    report = GenerationReport(mode="simpt")

    def stream():
        seen: set = set()
        for r in range(config.n_rounds):
            rng_shards = SplitRng(config.master_seed, _STREAM_SHARDS, r)
            small_sel = _sample_shards(small_shards, config.shards_per_corpus, rng_shards)
            large_sel = _sample_shards(large_shards, config.shards_per_corpus, rng_shards)
            combo = (
                tuple(sorted(s.shard_id for s in small_sel)),
                tuple(sorted(s.shard_id for s in large_sel)),
            )
            docs = [d for s in small_sel for d in s.documents]
            docs += [d for s in large_sel for d in s.documents]
            report.rounds += 1
            if combo in seen:
                report.shard_combo_collisions += 1
            seen.add(combo)
            rng_docs = SplitRng(config.master_seed, _STREAM_DOCS, r)
            yield from _instances(docs, tokenizer, config, rng_docs, 1, report)

    return stream(), report


def generate_conventional(
    all_documents: list[Document],
    tokenizer: WordPieceTokenizer,
    config: InstanceConfig,
    threads: int = 1,
) -> tuple[Iterator[PretrainInstance], GenerationReport]:
    """Duplicate-factor generation over contiguous document groups.

    Negative partners are confined to each group; dupe_factor re-masks the
    same segment pairs with fresh mask randomness. Groups run one after
    another; `threads` is accepted for compatibility and has no effect.
    """
    config.validate()
    if not all_documents:
        raise InstanceError("documents must be non-empty")
    groups = split_documents(all_documents, config.n_splits)
    report = GenerationReport(mode="conventional")

    def stream():
        for g, group in enumerate(groups):
            report.groups += 1
            rng_docs = SplitRng(config.master_seed, _STREAM_DOCS, g)
            yield from _instances(group, tokenizer, config, rng_docs, config.dupe_factor, report)

    return stream(), report


def split_documents(docs: list[Document], n_splits: int) -> list[list[Document]]:
    """Contiguous groups of near-equal document counts (first groups one larger)."""
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
