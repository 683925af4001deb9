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
serially in index order, and each instance is yielded as soon as it is
assembled.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
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


def structural_errors(inst: PretrainInstance, vocab: Vocabulary, max_seq_length: int) -> list[str]:
    """Violations of the instance invariants; empty list means well-formed."""
    errs = []
    ids = inst.token_ids
    n = len(ids)
    if n > max_seq_length:
        errs.append(f"length {n} exceeds max_seq_length {max_seq_length}")
    if len(inst.segment_ids) != n:
        errs.append("segment_ids length differs from token_ids")
    if n == 0 or ids[0] != vocab.cls_id:
        errs.append("first token is not [CLS]")
    sep_positions = np.flatnonzero(ids == vocab.sep_id).tolist()
    if len(sep_positions) != 2:
        errs.append(f"expected exactly 2 [SEP], found {len(sep_positions)}")
    segs = np.asarray(inst.segment_ids)
    if segs.size and (np.any(np.diff(segs) < 0) or segs[0] != 0 or segs.max() > 1):
        errs.append("segment_ids are not a non-decreasing 0/1 sequence")
    if len(inst.masked_positions) != len(inst.masked_labels):
        errs.append("masked_positions and masked_labels differ in length")
    special = {0} | set(sep_positions)
    for p in inst.masked_positions:
        if not 0 <= p < n:
            errs.append(f"masked position {p} out of range")
        elif int(p) in special:
            errs.append(f"masked position {p} points at [CLS]/[SEP]")
    n_candidates = n - 3
    if len(inst.masked_positions) == 0 and n_candidates > 0:
        errs.append("no masked positions despite available candidates")
    if inst.origin_small_tokens + inst.origin_large_tokens != n_candidates:
        errs.append("origin token counts do not sum to non-special token count")
    if np.any(ids < 0) or np.any(ids >= vocab.size):
        errs.append("token id out of vocabulary range")
    return errs


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
    for p in special_positions:
        special[p] = 1
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
    pair: _SegmentPair,
    vocab: Vocabulary,
    config: InstanceConfig,
    dupe_index: int,
) -> PretrainInstance:
    len_a, len_b = len(pair.tokens_a), len(pair.tokens_b)
    ids = np.empty(len_a + len_b + 3, np.int32)
    ids[0] = vocab.cls_id
    ids[1 : 1 + len_a] = pair.tokens_a
    ids[1 + len_a] = vocab.sep_id
    ids[2 + len_a : 2 + len_a + len_b] = pair.tokens_b
    ids[-1] = vocab.sep_id
    segment_ids = np.zeros(ids.size, np.int8)
    segment_ids[2 + len_a :] = 1
    masked, positions, labels = mask_tokens(
        ids, (0, 1 + len_a, ids.size - 1), vocab, config, fold(pair.mask_seed_base, dupe_index)
    )
    small = (len_a if pair.origin_a is Origin.SMALL else 0) + (
        len_b if pair.origin_b is Origin.SMALL else 0
    )
    return PretrainInstance(
        token_ids=masked,
        segment_ids=segment_ids,
        masked_positions=positions,
        masked_labels=labels,
        is_next=pair.is_next,
        origin_small_tokens=small,
        origin_large_tokens=len_a + len_b - small,
        doc_id_a=pair.doc_id_a,
        doc_id_b=pair.doc_id_b,
    )


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
    """Yield each instance as soon as it is assembled and recorded."""
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
    # later passes re-mask the first pass's pairs, so keep them only if needed
    kept: list[_SegmentPair] = []
    for di in range(len(usable_docs)):
        for pair in _build_pairs_for_document(di, usable_docs, tokenized, config, rng.child(di), report):
            if n_dupes > 1:
                kept.append(pair)
            inst = _assemble(pair, vocab, config, 0)
            report.record(inst)
            yield inst
    for dupe in range(1, n_dupes):
        for pair in kept:
            inst = _assemble(pair, vocab, config, dupe)
            report.record(inst)
            yield inst


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
