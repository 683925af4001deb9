"""Uncased text normalization, BPE vocabulary training, and amplification.

Training stream convention: words are whitespace-split from normalized text,
with punctuation and CJK characters isolated as single-character words. Word
order never influences training; only (word, count) multiplicity does, so an
amplified stream is realized by multiplying the small corpus's word counts.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import VocabError
from .settings import DEFAULT_MIN_FREQUENCY, DEFAULT_TARGET_SIZE
from .staging import staged_files

if TYPE_CHECKING:  # `bpt tokenize` imports this module and reads no corpus
    from .corpus import Corpus, Document

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = [PAD, UNK, CLS, SEP, MASK]
CONTINUATION_PREFIX = "##"
TRANSLATE_TABLE_ENTRIES = 1 << 16


class _CharTable(dict):
    """A `str.translate` table that maps a code point by `rule` when first
    looked up and stores the result. It is emptied whenever it holds
    TRANSLATE_TABLE_ENTRIES code points, at most about 10 MB."""

    def __init__(self, rule):
        self._rule = rule

    def __missing__(self, cp: int) -> "str | None":
        if len(self) >= TRANSLATE_TABLE_ENTRIES:
            self.clear()
        value = self[cp] = self._rule(chr(cp))
        return value


def _strip_rule(ch: str) -> "str | None":
    """Tab, newline, carriage return and space separators become a space;
    nonspacing marks and other control and format characters are deleted."""
    cat = unicodedata.category(ch)
    if ch in "\t\n\r" or cat == "Zs":
        return " "
    return None if cat in ("Mn", "Cc", "Cf") else ch


def normalize(text: str) -> str:
    """Uncased normalization: NFKD, strip combining marks and control
    characters, lowercase, collapse whitespace runs to single spaces."""
    return " ".join(normalize_split(text))


def normalize_split(text: str) -> list[str]:
    """`normalize(text).split()`, without joining the parts first.

    NFKD and _STRIP leave printable ASCII as it is, so it is only
    lowercased. Other text is normalized a U+0020 chunk at a time, which is
    exact (see `chunk_words`), so that only its non-ASCII chunks take the
    slow path.
    """
    if text.isascii() and text.isprintable():
        return text.lower().split()
    parts: list[str] = []
    for chunk in text.split(" "):
        if not chunk.isascii() or not chunk.isprintable():
            parts += unicodedata.normalize("NFKD", chunk).translate(_STRIP).lower().split()
        elif chunk:
            parts.append(chunk.lower())
    return parts


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


_STRIP = _CharTable(_strip_rule)
# Whether a character normalizes to nothing. A text does exactly when each of
# its characters does: NFKD decomposes and `_STRIP` maps a character at a
# time, canonical reordering only moves combining marks, and no character
# lowercases to whitespace.
_NORMALIZES_TO_NOTHING = _CharTable(lambda ch: not normalize_split(ch))
# Punctuation and CJK characters get a space on each side. None of them is
# whitespace, so splitting afterwards makes each a word of its own.
_ISOLATE = _CharTable(lambda ch: f" {ch} " if _is_punctuation(ch) or _is_cjk(ch) else ch)


def pretokenize(text: str) -> list[str]:
    """Split normalized text into words; punctuation and CJK characters
    become single-character words."""
    return text.translate(_ISOLATE).split()


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
    """
    text = normalize(chunk)
    return pretokenize(text), len(text.encode("utf-8"))


class Vocabulary:
    """Ordered subword inventory: special tokens, then alphabet, then merges."""

    def __init__(self, tokens: Iterable[str], merges: "list[tuple[str, str]] | None" = None):
        self.tokens = list(tokens)
        self.merges = list(merges) if merges is not None else []
        if self.tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
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
        return len(SPECIAL_TOKENS)

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
        """Write the vocabulary file and, when `merges_path` is given, the
        merges beside it, as one staged group: a failure writing either
        leaves neither, and earlier files at both paths as they were."""
        with staged_files() as stage:
            stage(path).write_bytes(self.file_bytes())
            if merges_path is not None:
                lines = [f"{left} {right}" for left, right in self.merges]
                stage(merges_path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

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
        corpus_word_counts_and_bytes(small.documents)[1], corpus_word_counts_and_bytes(large.documents)[1]
    )


def corpus_word_counts_and_bytes(documents: Iterable[Document]) -> tuple[Counter, int]:
    """Word counts and normalized UTF-8 byte size of a corpus's documents,
    one newline per sentence, from one `chunk_words` call per distinct
    U+0020 chunk.

    `documents` may be any iterable, which is read once: only the distinct
    chunks and their counts are held, so a stream such as
    `corpus.read_documents` is counted without holding its text.

    A non-empty normalized chunk adds its bytes plus a separator or the
    newline; a sentence whose chunks all normalize to nothing adds only its
    newline. Whether a chunk does depends on each of its characters alone
    (see `_NORMALIZES_TO_NOTHING`), so each sentence is tested as it is read.
    """
    chunks: Counter = Counter()
    size = 0
    vanishes = _NORMALIZES_TO_NOTHING
    for doc in documents:
        # the first character decides for nearly every sentence, without a generator
        size += sum(1 for s in doc.sentences if vanishes[ord(s[0])] and all(vanishes[ord(ch)] for ch in s))
        chunks.update(" ".join(doc.sentences).split(" "))  # each sentence's chunks, in one list
    counts: Counter = Counter()
    while chunks:  # popping lets each chunk string go once used, which lowers the peak
        chunk, n = chunks.popitem()
        words, nbytes = chunk_words(chunk)
        if nbytes:
            size += n * (nbytes + 1)
        for word in words:
            counts[word] += n
    return counts, size


def corpus_word_counts(corpus: Corpus) -> Counter:
    return corpus_word_counts_and_bytes(corpus.documents)[0]


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


def train_bpe(
    word_counts: Mapping[str, int],
    target_size: int = DEFAULT_TARGET_SIZE,
    min_frequency: int = DEFAULT_MIN_FREQUENCY,
) -> tuple[Vocabulary, TrainReport]:
    """Frequency-greedy BPE over a (word -> count) stream.

    Each step merges the adjacent symbol pair with the highest total count;
    ties prefer the lexicographically smallest (merged string, left, right).
    Stops at target_size, or earlier when no pair reaches min_frequency, in
    which case the report is marked truncated.

    The symbols stay in one array of fixed length, with each slot's word
    count and links to its neighbours in its word. `kernels.count_pairs`
    counts every pair of adjacent slots once, and each merge is one
    `kernels.apply_merge` call, which rewrites the pair's own occurrences
    and moves the totals of the pairs around them. The best pair comes from
    a heap of (-total, merged, left, right, key), whose order is the tie
    rule. An entry is checked against the totals when it reaches the top,
    and pushed again with its total if that fell; a merge pushes the pairs
    it made, each holding the new token.

    `kernels`, `array` and `heapq` are imported when training runs, so that
    importing this module (as `bpt tokenize` does) loads none of them.
    """
    from array import array
    from heapq import heapify, heappop, heappush, heapreplace

    from . import kernels

    items = [(w, int(c)) for w, c in word_counts.items() if w and c > 0]
    if not items:
        raise VocabError("empty training stream")

    later = set(chain.from_iterable(w[1:] for w, _ in items))
    alphabet = {w[0] for w, _ in items} | {CONTINUATION_PREFIX + ch for ch in later}
    alphabet_sorted = sorted(alphabet)
    floor_size = len(SPECIAL_TOKENS) + len(alphabet_sorted)
    if target_size <= floor_size:
        raise VocabError(
            f"target_size {target_size} must exceed special tokens + alphabet = {floor_size}"
        )

    tokens = SPECIAL_TOKENS + alphabet_sorted
    index = {t: i for i, t in enumerate(tokens)}
    report = TrainReport(
        requested_size=target_size, alphabet_size=len(alphabet_sorted), min_frequency=min_frequency
    )

    words = [w for w, _ in items]
    lengths = list(map(len, words))
    later_id = {ch: index[CONTINUATION_PREFIX + ch] for ch in later}
    flat = array("i", map(later_id.get, "".join(words), repeat(-1)))  # each word's first slot is set below
    weight = array("q", chain.from_iterable(map(repeat, (c for _, c in items), lengths)))
    nxt = array("i", range(1, len(flat) + 1))
    prv = array("i", range(-1, len(flat) - 1))
    start = 0
    for word, length in zip(words, lengths):
        flat[start] = index[word[0]]
        prv[start] = -1
        start += length
        nxt[start - 1] = -1
    del items, words, lengths  # so that training, whose peak comes late, does not hold them

    width = target_size  # above every token id
    totals, where = kernels.count_pairs(flat, nxt, weight, width)

    def entry(key):
        left_tok, right_tok = tokens[key // width], tokens[key % width]
        return -totals[key], merged_token(left_tok, right_tok), left_tok, right_tok, key

    heap = [entry(key) for key in totals]
    heapify(heap)
    merges: list[tuple[str, str]] = []
    while len(tokens) < target_size:
        while heap:  # until the top entry holds its pair's total
            top = heap[0]
            total = totals.get(top[4], 0)
            if total == -top[0]:
                break
            if total:
                heapreplace(heap, entry(top[4]))
            else:
                heappop(heap)
        if not heap:
            report.warnings.append("stopped early: no adjacent pairs remain")
            break
        if total < min_frequency:
            report.warnings.append(
                f"stopped early: best pair count {total} is below min_frequency {min_frequency}"
            )
            break
        _, merged, left_tok, right_tok, key = heappop(heap)
        new_id = index.get(merged)
        if new_id is None:
            new_id = len(tokens)
            tokens.append(merged)
            index[merged] = new_id
        merges.append((left_tok, right_tok))

        made = kernels.apply_merge(flat, nxt, prv, weight, totals, where, width, key // width, key % width, new_id)
        if len(made) == 0 and totals.get(key) == total:  # every merge makes a pair or lowers its own total
            raise RuntimeError(f"merging ({left_tok!r}, {right_tok!r}) with total {total} merged no occurrence")
        for pair in made:
            heappush(heap, entry(pair))

    report.merges_performed = len(merges)
    report.final_size = len(tokens)
    if report.final_size < target_size:
        report.truncated = True
    return Vocabulary(tokens, merges=merges), report

