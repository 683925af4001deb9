"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the package's kernels and array encodings: the BPE
oracle works on string symbol lists with dict counting, the word-count oracle
normalizes whole sentences, and the tree-number oracle compares dot-separated
components directly.
"""

from __future__ import annotations

from collections import Counter


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
