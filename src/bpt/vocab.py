"""Uncased text normalization, BPE vocabulary training, and amplification.

Training stream convention: words are whitespace-split from normalized text,
with punctuation and CJK characters isolated as single-character words. Word
order never influences training; only (word, count) multiplicity does, so an
amplified stream is realized by multiplying the small corpus's word counts.
"""

from __future__ import annotations

import functools
import re
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import kernels
from .corpus import Corpus
from .errors import VocabError

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = [PAD, UNK, CLS, SEP, MASK]
CONTINUATION_PREFIX = "##"
DEFAULT_TARGET_SIZE = 32_000
DEFAULT_MIN_FREQUENCY = 2


def normalize(text: str) -> str:
    """Uncased normalization: NFKD, strip combining marks and control
    characters, lowercase, collapse whitespace runs to single spaces."""
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


def _is_punctuation(ch: str) -> bool:
    cp = ord(ch)
    if 33 <= cp <= 47 or 58 <= cp <= 64 or 91 <= cp <= 96 or 123 <= cp <= 126:
        return True
    return unicodedata.category(ch).startswith("P")


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return (
        0x4E00 <= cp <= 0x9FFF
        or 0x3400 <= cp <= 0x4DBF
        or 0x20000 <= cp <= 0x2A6DF
        or 0x2A700 <= cp <= 0x2B73F
        or 0x2B740 <= cp <= 0x2B81F
        or 0x2B820 <= cp <= 0x2CEAF
        or 0xF900 <= cp <= 0xFAFF
        or 0x2F800 <= cp <= 0x2FA1F
    )


def pretokenize(text: str) -> list[str]:
    """Split normalized text into words; punctuation and CJK characters
    become single-character words."""
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


def chunk_words(chunk: str) -> tuple[list[str], int]:
    """Words of one chunk of raw text between U+0020 spaces, and the UTF-8
    byte size of the normalized chunk.

    Counting and tokenizing both split raw text on U+0020 and normalize each
    distinct chunk once. The split is exact: a sentence's normalized words
    are its chunks' words in order, and its normalized text is its non-empty
    normalized chunks joined by one space. U+0020 becomes a word separator
    under `normalize`, and neither NFKD reordering nor final-sigma
    lowercasing looks across it. `str.split()` would not be exact: it also
    splits on control characters (such as U+001C) that `normalize` deletes,
    joining their neighbours into one word.

    An ASCII chunk takes a shorter path with the same result: NFKD changes
    no ASCII character, none is a combining mark or format character, the
    only ASCII space separator is U+0020, and `_is_punctuation`'s four
    ranges hold every ASCII punctuation character.
    """
    if chunk.isascii():
        controls, words = _ascii_rules()
        text = " ".join(chunk.translate(controls).lower().split())
        return words.findall(text), len(text)
    text = normalize(chunk)
    return pretokenize(text), len(text.encode("utf-8"))


@functools.cache
def _ascii_rules() -> tuple[dict, "re.Pattern"]:
    """`normalize`'s rule for ASCII control characters (tab, newline and
    carriage return become spaces, the others are deleted) as a translate
    table, and `pretokenize`'s rule for ASCII text as one regex: a
    punctuation character, or a run of other characters that are not
    spaces. Built on first use, not at import."""
    controls = {cp: None for cp in (*range(32), 127)}
    controls.update({ord(ch): " " for ch in "\t\n\r"})
    punctuation = r"!-/:-@\[-`{-~"
    return controls, re.compile(f"[{punctuation}]|[^{punctuation} ]+")


class Vocabulary:
    """Ordered subword inventory: special tokens, then alphabet, then merges."""

    def __init__(
        self,
        tokens: Iterable[str],
        merges: "list[tuple[str, str]] | None" = None,
        special_tokens: "list[str] | None" = None,
    ):
        self.tokens = list(tokens)
        self.special_tokens = list(special_tokens) if special_tokens is not None else list(SPECIAL_TOKENS)
        self.merges = list(merges) if merges is not None else []
        if self.tokens[: len(self.special_tokens)] != self.special_tokens:
            raise VocabError("special tokens must occupy the first vocabulary positions in order")
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise VocabError("duplicate token strings in vocabulary")

    @property
    def size(self) -> int:
        return len(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id_of(self, token: str) -> int:
        return self._index[token]

    @property
    def n_special(self) -> int:
        return len(self.special_tokens)

    @property
    def pad_id(self) -> int:
        return self._index[PAD]

    @property
    def unk_id(self) -> int:
        return self._index[UNK]

    @property
    def cls_id(self) -> int:
        return self._index[CLS]

    @property
    def sep_id(self) -> int:
        return self._index[SEP]

    @property
    def mask_id(self) -> int:
        return self._index[MASK]

    def file_bytes(self) -> bytes:
        """Canonical vocab file content: one token per line, line number = id."""
        return ("\n".join(self.tokens) + "\n").encode("utf-8")

    def save(self, path: "str | Path", merges_path: "str | Path | None" = None) -> None:
        Path(path).write_bytes(self.file_bytes())
        if merges_path is not None:
            lines = [f"{left} {right}" for left, right in self.merges]
            Path(merges_path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    @classmethod
    def load(cls, path: "str | Path", merges_path: "str | Path | None" = None) -> "Vocabulary":
        try:
            tokens = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise VocabError(f"{path}: not UTF-8 text (byte offset {exc.start})") from exc
        if tokens and tokens[-1] == "":
            tokens.pop()
        if len(tokens) < len(SPECIAL_TOKENS) or tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise VocabError(f"{path}: vocabulary file must start with {SPECIAL_TOKENS}")
        merges: list[tuple[str, str]] = []
        if merges_path is not None:
            for line in Path(merges_path).read_text(encoding="utf-8").splitlines():
                if not line.strip():
                    continue
                parts = line.split(" ")
                if len(parts) != 2:
                    raise VocabError(f"{merges_path}: malformed merge line {line!r}")
                merges.append((parts[0], parts[1]))
        return cls(tokens, merges=merges)


@dataclass(frozen=True)
class AmplificationPlan:
    """Up-sampling factor that equalizes small and large corpus byte sizes."""

    small_bytes: int
    large_bytes: int
    repeat_factor: int

    @classmethod
    def from_sizes(cls, small_bytes: int, large_bytes: int) -> "AmplificationPlan":
        if small_bytes <= 0 or large_bytes <= 0:
            raise VocabError("corpus byte sizes must be positive")
        return cls(small_bytes, large_bytes, max(1, large_bytes // small_bytes))


def plan_amplification(small: Corpus, large: Corpus) -> AmplificationPlan:
    if not small.documents or not large.documents:
        raise VocabError("amplification requires two non-empty corpora")
    return AmplificationPlan.from_sizes(
        corpus_word_counts_and_bytes(small)[1], corpus_word_counts_and_bytes(large)[1]
    )


def corpus_word_counts_and_bytes(corpus: Corpus) -> tuple[Counter, int]:
    """Word counts and normalized UTF-8 byte size of the corpus, one newline
    per sentence, from one `chunk_words` call per distinct U+0020 chunk.

    A non-empty normalized chunk adds its bytes plus a separator or the
    newline; a sentence whose chunks all normalize to nothing adds only its
    newline. Whether a chunk does depends on each of its characters alone, so
    such a sentence holds only U+0020 and characters of such chunks.
    """
    chunks = Counter(chain.from_iterable(s.split(" ") for doc in corpus.documents for s in doc.sentences))
    counts: Counter = Counter()
    size = 0
    vanishing = {" "}
    while chunks:  # popping lets each chunk string go once used, which lowers the peak
        chunk, n = chunks.popitem()
        words, nbytes = chunk_words(chunk)
        if nbytes:
            size += n * (nbytes + 1)
        else:
            vanishing.update(chunk)
        for word in words:
            counts[word] += n
    blank = "".join(vanishing)
    size += sum(1 for doc in corpus.documents for s in doc.sentences if not s.strip(blank))
    return counts, size


def corpus_word_counts(corpus: Corpus) -> Counter:
    return corpus_word_counts_and_bytes(corpus)[0]


def combined_word_counts(
    small_counts: Mapping[str, int], large_counts: Mapping[str, int], repeat_factor: int = 1
) -> Counter:
    """Training stream of (small repeated repeat_factor times, then large) as counts."""
    combined: Counter = Counter()
    for word, c in small_counts.items():
        combined[word] += c * repeat_factor
    for word, c in large_counts.items():
        combined[word] += c
    return combined


@dataclass
class TrainReport:
    requested_size: int
    alphabet_size: int = 0
    merges_performed: int = 0
    final_size: int = 0
    min_frequency: int = DEFAULT_MIN_FREQUENCY
    truncated: bool = False
    warnings: list = field(default_factory=list)
    repeat_factor: "int | None" = None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.repeat_factor is None:
            del out["repeat_factor"]
        return out


def word_symbols(word: str) -> list[str]:
    """Initial symbol sequence of a word: first char bare, the rest ##-prefixed."""
    return [word[0]] + [CONTINUATION_PREFIX + ch for ch in word[1:]]


def merged_token(left: str, right: str) -> str:
    """Surface string of merging two adjacent symbols; keeps the left prefix status."""
    if right.startswith(CONTINUATION_PREFIX):
        return left + right[len(CONTINUATION_PREFIX):]
    return left + right


def _words_with_pair(flat, offsets, left_id: int, right_id: int):
    """Sorted indices of the words that hold left_id directly followed by right_id."""
    starts = np.flatnonzero(flat[:-1] == left_id)
    starts = starts[flat[starts + 1] == right_id]
    word_of = np.searchsorted(offsets, starts, side="right") - 1
    # drop matches whose right symbol starts the next word
    return np.unique(word_of[starts + 1 < offsets[word_of + 1]])


def _gather(flat, offsets, words):
    """The symbols of the given words as their own (flat, offsets) pair."""
    starts = offsets[words]
    lengths = offsets[words + 1] - starts
    sub_offsets = np.zeros(words.size + 1, np.int64)
    np.cumsum(lengths, out=sub_offsets[1:])
    return flat[np.repeat(starts - sub_offsets[:-1], lengths) + np.arange(sub_offsets[-1])], sub_offsets


def _splice(flat, offsets, words, after, after_offsets):
    """Put the merged words back: a merge only shortens a word, so each one is
    written at the start of its old range and the rest of that range deleted."""
    starts = offsets[words]
    new_lengths = np.diff(after_offsets)
    flat[np.repeat(starts - after_offsets[:-1], new_lengths) + np.arange(after.size)] = after
    removed = offsets[words + 1] - starts - new_lengths
    removed_before = np.zeros(words.size + 1, np.int64)
    np.cumsum(removed, out=removed_before[1:])
    tail = np.repeat(starts + new_lengths - removed_before[:-1], removed) + np.arange(removed_before[-1])
    shift = np.zeros(offsets.size, np.int64)
    shift[words + 1] = removed
    return np.delete(flat, tail), offsets - np.cumsum(shift)


def _add_pair_counts(keys, totals, delta_keys, delta_totals):
    """Add sorted pair-count deltas into sorted (keys, totals): new keys are
    inserted in order and keys whose total reaches 0 are dropped."""
    pos = np.searchsorted(keys, delta_keys)
    found = pos < keys.size
    found[found] = keys[pos[found]] == delta_keys[found]
    totals[pos[found]] += delta_totals[found]
    fresh = ~found
    keys = np.insert(keys, pos[fresh], delta_keys[fresh])
    totals = np.insert(totals, pos[fresh], delta_totals[fresh])
    kept = totals != 0
    return keys[kept], totals[kept]


def train_bpe(
    word_counts: "Mapping[str, int] | Iterable[tuple[str, int]]",
    target_size: int = DEFAULT_TARGET_SIZE,
    special_tokens: "list[str] | None" = None,
    min_frequency: int = DEFAULT_MIN_FREQUENCY,
) -> tuple[Vocabulary, TrainReport]:
    """Frequency-greedy BPE over a (word -> count) stream.

    Each step merges the adjacent symbol pair with the highest total count;
    ties prefer the lexicographically smallest (merged string, left, right).
    Stops at target_size, or earlier when no pair reaches min_frequency, in
    which case the report is marked truncated.

    All pairs are counted once. After that a merge costs work in proportion
    to the words it touches, plus one vectorized pass over the symbol array
    that finds them and splices them back: their pairs are counted again
    with weight -count before the merge and +count after it, and the
    difference is added to the sorted pair counts.
    """
    specials = list(special_tokens) if special_tokens is not None else list(SPECIAL_TOKENS)
    if isinstance(word_counts, Mapping):
        items = [(w, int(c)) for w, c in word_counts.items() if w and c > 0]
    else:
        items = [(w, int(c)) for w, c in word_counts if w and c > 0]
    if not items:
        raise VocabError("empty training stream")

    alphabet: set[str] = set()
    for word, _ in items:
        alphabet.update(word_symbols(word))
    alphabet_sorted = sorted(alphabet)
    floor_size = len(specials) + len(alphabet_sorted)
    if target_size <= floor_size:
        raise VocabError(
            f"target_size {target_size} must exceed special tokens + alphabet = {floor_size}"
        )

    tokens = specials + alphabet_sorted
    index = {t: i for i, t in enumerate(tokens)}
    report = TrainReport(
        requested_size=target_size, alphabet_size=len(alphabet_sorted), min_frequency=min_frequency
    )

    lengths = [len(w) for w, _ in items]
    offsets = np.zeros(len(items) + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = np.fromiter(
        (index[s] for w, _ in items for s in word_symbols(w)), np.int32, count=int(offsets[-1])
    )
    counts = np.asarray([c for _, c in items], np.int64)

    keys, totals = kernels.count_pairs(flat, offsets, counts)
    merges: list[tuple[str, str]] = []
    while len(tokens) < target_size:
        if keys.size == 0:
            report.warnings.append("stopped early: no adjacent pairs remain")
            break
        best_total = int(totals.max())
        if best_total < min_frequency:
            report.warnings.append(
                f"stopped early: best pair count {best_total} is below min_frequency {min_frequency}"
            )
            break
        best_key = None
        chosen = None
        for key in keys[totals == best_total]:
            left_id = int(key) >> 32
            right_id = int(key) & 0xFFFFFFFF
            left_tok, right_tok = tokens[left_id], tokens[right_id]
            merged = merged_token(left_tok, right_tok)
            order_key = (merged, left_tok, right_tok)
            if best_key is None or order_key < best_key:
                best_key = order_key
                chosen = (left_id, right_id, merged, left_tok, right_tok)
        left_id, right_id, merged, left_tok, right_tok = chosen
        new_id = index.get(merged)
        if new_id is None:
            new_id = len(tokens)
            tokens.append(merged)
            index[merged] = new_id
        merges.append((left_tok, right_tok))

        words = _words_with_pair(flat, offsets, left_id, right_id)
        before, before_offsets = _gather(flat, offsets, words)
        after, after_offsets = kernels.apply_merge(
            before, before_offsets, np.int32(left_id), np.int32(right_id), np.int32(new_id)
        )
        delta_keys, delta_totals = kernels.count_pairs(
            np.concatenate([before, after]),
            np.concatenate([before_offsets, after_offsets[1:] + before.size]),
            np.concatenate([-counts[words], counts[words]]),
        )
        keys, totals = _add_pair_counts(keys, totals, delta_keys, delta_totals)
        flat, offsets = _splice(flat, offsets, words, after, after_offsets)

    report.merges_performed = len(merges)
    report.final_size = len(tokens)
    if report.final_size < target_size:
        report.truncated = True
    return Vocabulary(tokens, merges=merges, special_tokens=specials), report


def coverage_report(vocab: Vocabulary, terms: list[str]) -> list[dict]:
    """Per-term vocabulary coverage: whole-token membership and the WordPiece
    decomposition otherwise."""
    from .tokenizer import WordPieceTokenizer

    tok = WordPieceTokenizer(vocab)
    rows = []
    for term in terms:
        norm = normalize(term)
        pieces = tok.tokenize(term).tokens
        rows.append(
            {
                "term": term,
                "in_vocab": norm in vocab,
                "pieces": pieces,
            }
        )
    return rows
