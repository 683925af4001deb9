"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the package's kernels and array encodings: the BPE
oracle works on string symbol lists with dict counting, the word-count oracle
normalizes whole sentences, the masking oracle runs one sequence's draws one
at a time, the structural oracle checks one instance with plain numpy
reductions, the record oracle packs one instance field by field with
`struct`, the tree-number oracle compares dot-separated components
directly, the normalize and pretokenize oracles apply the per-character
rules in a loop rather than through translate tables, the truncation
oracle pops one token at a time rather than computing the lengths, the
merge oracle rewrites one word's symbol list at a time, and the packing
oracle fills one shard list at a time in a plain loop.
"""

from __future__ import annotations

import struct
import unicodedata
from collections import Counter

import numpy as np


def _merged(left: str, right: str) -> str:
    return left + (right[2:] if right.startswith("##") else right)


def bpe_oracle(
    word_counts: dict[str, int],
    target_size: int,
    special_tokens: list[str],
    min_frequency: int = 2,
    stop: "dict | None" = None,
) -> tuple[list[str], list[tuple[str, str]]]:
    """Reference BPE: returns (tokens, merges) under the same contract as the
    trainer: most frequent pair first, ties by smallest (merged, left, right),
    stop at target_size or when the best pair count drops below min_frequency.
    A `stop` dict, when given, receives why training ended early: "no pairs",
    or "min_frequency" with the best pair count as "best_count"."""
    seqs = []
    alphabet = set()
    for word, count in word_counts.items():
        if not word or count <= 0:
            continue
        symbols = [word[0]] + ["##" + ch for ch in word[1:]]
        alphabet.update(symbols)
        seqs.append((symbols, count))
    tokens = list(special_tokens) + sorted(alphabet)
    known = set(tokens)
    merges: list[tuple[str, str]] = []

    while len(tokens) < target_size:
        pair_counts: dict[tuple[str, str], int] = {}
        for symbols, count in seqs:
            for left, right in zip(symbols, symbols[1:]):
                pair_counts[(left, right)] = pair_counts.get((left, right), 0) + count
        if not pair_counts:
            if stop is not None:
                stop["reason"] = "no pairs"
            break
        best_count = max(pair_counts.values())
        if best_count < min_frequency:
            if stop is not None:
                stop.update(reason="min_frequency", best_count=best_count)
            break
        candidates = [p for p, c in pair_counts.items() if c == best_count]
        left, right = min(candidates, key=lambda p: (_merged(p[0], p[1]), p[0], p[1]))
        new_token = _merged(left, right)
        merges.append((left, right))
        if new_token not in known:
            known.add(new_token)
            tokens.append(new_token)
        for symbols, _ in seqs:
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == left and symbols[i + 1] == right:
                    symbols[i : i + 2] = [new_token]
                else:
                    i += 1
    return tokens, merges


def normalize_oracle(text: str) -> str:
    """Reference for `normalize`: the per-character rule as a loop."""
    out = []
    for ch in unicodedata.normalize("NFKD", text):
        cat = unicodedata.category(ch)
        if cat == "Mn":
            continue
        if ch in "\t\n\r" or cat == "Zs":
            out.append(" ")
        elif cat in ("Cc", "Cf"):
            continue
        else:
            out.append(ch)
    return " ".join("".join(out).lower().split())


def pretokenize_oracle(text: str) -> list[str]:
    """Reference for `pretokenize`: each whitespace-split chunk scanned
    character by character."""
    from bpt.vocab import _is_cjk, _is_punctuation

    words = []
    for chunk in text.split():
        buf = []
        for ch in chunk:
            if _is_punctuation(ch) or _is_cjk(ch):
                if buf:
                    words.append("".join(buf))
                    buf = []
                words.append(ch)
            else:
                buf.append(ch)
        if buf:
            words.append("".join(buf))
    return words


def word_counts_and_bytes_oracle(sentences) -> tuple[Counter, int]:
    """Per-sentence reference for corpus_word_counts_and_bytes: normalize each
    whole sentence, count its words, and add its UTF-8 size plus a newline."""
    from bpt.vocab import normalize, pretokenize

    counts: Counter = Counter()
    size = 0
    for sentence in sentences:
        text = normalize(sentence)
        size += len(text.encode("utf-8")) + 1
        counts.update(pretokenize(text))
    return counts, size


def tree_matches_oracle(tree_number: str, prefix: str) -> bool:
    """Component-wise ancestor check with the bare-letter category rule."""
    if len(prefix) == 1:
        return tree_number[:1] == prefix
    tree_parts = tree_number.split(".")
    prefix_parts = prefix.split(".")
    if len(prefix_parts) > len(tree_parts):
        return False
    return all(a == b for a, b in zip(prefix_parts, tree_parts))


def greedy_longest_prefix_oracle(word: str, vocab_tokens: set[str], initial: bool) -> "str | None":
    """Longest vocabulary prefix of `word` by brute force over all prefixes."""
    best = None
    for end in range(1, len(word) + 1):
        piece = word[:end] if initial else "##" + word[:end]
        if piece in vocab_tokens:
            best = piece
    return best


def truncate_pair_oracle(tokens_a: list[int], tokens_b: list[int], max_num: int) -> None:
    """Drop tokens from the end of the longer segment until the pair fits;
    each segment keeps at least one token."""
    while len(tokens_a) + len(tokens_b) > max_num:
        longer, other = (tokens_a, tokens_b) if len(tokens_a) > len(tokens_b) else (tokens_b, tokens_a)
        if len(longer) <= 1:
            longer = other
        longer.pop()


def apply_merge_oracle(words: list[list[int]], left: int, right: int, new_id: int) -> tuple[list[int], list[int]]:
    """Each word with its (left, right) pairs replaced by new_id, scanning
    left to right; returns the merged words as flat symbols and offsets."""
    flat: list[int] = []
    offsets = [0]
    for word in words:
        i = 0
        while i < len(word):
            if i + 1 < len(word) and word[i] == left and word[i + 1] == right:
                flat.append(new_id)
                i += 2
            else:
                flat.append(word[i])
                i += 1
        offsets.append(len(flat))
    return flat, offsets


def mask_sequence_oracle(ids, special, seed, prob, cap, mask_id, n_special, vocab_size):
    """One sequence masked draw by draw: a partial Fisher-Yates over the
    non-special positions, then the 80/10/10 replacement in ascending
    position order, each draw mix64(seed + i*GAMMA) of the row's stream."""
    from bpt.rng import _GAMMA, _MASK64, mix64

    out = ids.copy()
    cand = [i for i in range(len(ids)) if not special[i]]
    n = len(cand)
    if n == 0:
        return out, np.empty(0, np.int64), np.empty(0, np.int32)
    num = min(cap, max(1, int(prob * n + 0.5)))
    state = int(seed) & _MASK64  # plain int: numpy scalars overflow in mix64
    ctr = 0
    for i in range(num):
        ctr += 1
        r = mix64((state + ctr * _GAMMA) & _MASK64)
        j = i + r % (n - i)
        cand[i], cand[j] = cand[j], cand[i]
    sel = sorted(cand[:num])
    positions = np.asarray(sel, np.int64)
    labels = out[positions].copy()
    n_random = vocab_size - n_special
    for p in sel:
        ctr += 1
        u = (mix64((state + ctr * _GAMMA) & _MASK64) >> 11) * 2.0**-53
        if u < 0.8:
            out[p] = mask_id
        elif u < 0.9 and n_random > 0:
            ctr += 1
            r2 = mix64((state + ctr * _GAMMA) & _MASK64)
            out[p] = n_special + r2 % n_random
    return out, positions, labels


def structural_errors_oracle(inst, vocab, max_seq_length: int) -> list[str]:
    """Instance invariants checked one rule at a time with numpy reductions."""
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


def record_bytes_oracle(inst) -> bytes:
    """One instance in the instance-file record layout, packed field by field."""
    n = len(inst.token_ids)
    m = len(inst.masked_positions)
    parts = [struct.pack("<H", n)]
    parts += [struct.pack("<I", int(t)) for t in inst.token_ids]
    parts += [struct.pack("<B", int(s)) for s in inst.segment_ids]
    parts.append(struct.pack("<H", m))
    parts += [struct.pack("<HI", int(p), int(label)) for p, label in zip(inst.masked_positions, inst.masked_labels)]
    parts.append(struct.pack("<BII", 1 if inst.is_next else 0, int(inst.origin_small_tokens),
                             int(inst.origin_large_tokens)))
    return b"".join(parts)


def pack_shards_oracle(sizes: list[int], each_file_size: int) -> list[list[int]]:
    """The item indices of each shard when items of byte `sizes` are packed
    in order: a shard takes items until its bytes reach each_file_size."""
    shards: list[list[int]] = []
    current: list[int] = []
    filled = 0
    for index, size in enumerate(sizes):
        current.append(index)
        filled += size
        if filled >= each_file_size:
            shards.append(current)
            current, filled = [], 0
    if current:
        shards.append(current)
    return shards
