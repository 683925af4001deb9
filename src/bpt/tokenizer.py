"""Greedy longest-match-first WordPiece tokenization against a fixed vocabulary."""

from __future__ import annotations

from dataclasses import dataclass

from .vocab import CONTINUATION_PREFIX, UNK, Vocabulary, chunk_words

DEFAULT_MAX_CHARS_PER_WORD = 100
# The chunk cache holds at most this many chunks, each of at most this many
# characters: about 15 MB full on word-like chunks, about 90 MB at worst.
CHUNK_CACHE_ENTRIES = 1 << 16
CHUNK_CACHE_MAX_CHARS = 100


@dataclass
class TokenSequence:
    ids: list[int]
    vocab: Vocabulary

    @property
    def tokens(self) -> list[str]:
        return [self.vocab.tokens[i] for i in self.ids]

    def __len__(self) -> int:
        return len(self.ids)


class WordPieceTokenizer:
    """Tokenizes normalized text; words with any unmatched position become [UNK].

    `tokenize` splits raw text on U+0020 and caches the ids of each distinct
    chunk, so a repeated chunk is normalized (by `chunk_words`, which says
    why the split is exact) and matched once. Chunks longer than
    CHUNK_CACHE_MAX_CHARS are not cached and the cache is emptied whenever
    it is full, which bounds its memory on inputs of any size.
    """

    def __init__(self, vocab: Vocabulary, max_chars_per_word: int = DEFAULT_MAX_CHARS_PER_WORD):
        if UNK not in vocab:
            raise ValueError("vocabulary must contain [UNK]")
        self.vocab = vocab
        self.max_chars_per_word = max_chars_per_word
        self._unk = UNK
        self._chunk_ids: dict[str, tuple[int, ...]] = {}

    def tokenize_word(self, word: str) -> list[str]:
        """Greedy longest-match pieces of one already-normalized word."""
        if len(word) > self.max_chars_per_word:
            return [self._unk]
        pieces = []
        start = 0
        n = len(word)
        while start < n:
            end = n
            match = None
            while start < end:
                piece = word[start:end]
                if start > 0:
                    piece = CONTINUATION_PREFIX + piece
                if piece in self.vocab:
                    match = piece
                    break
                end -= 1
            if match is None:
                return [self._unk]
            pieces.append(match)
            start = end
        return pieces

    def tokenize_words(self, words: list[str]) -> list[str]:
        out = []
        for word in words:
            out.extend(self.tokenize_word(word))
        return out

    def tokenize(self, text: str) -> TokenSequence:
        ids: list[int] = []
        for chunk in text.split(" "):
            chunk_ids = self._chunk_ids.get(chunk)
            if chunk_ids is None:
                pieces = self.tokenize_words(chunk_words(chunk)[0])
                chunk_ids = tuple(self.vocab.id_of(t) for t in pieces)
                if len(chunk) <= CHUNK_CACHE_MAX_CHARS:
                    if len(self._chunk_ids) >= CHUNK_CACHE_ENTRIES:
                        self._chunk_ids.clear()
                    self._chunk_ids[chunk] = chunk_ids
            ids.extend(chunk_ids)
        return TokenSequence(ids, self.vocab)


def wordpiece_tokenize(
    text: str, vocab: Vocabulary, max_chars_per_word: int = DEFAULT_MAX_CHARS_PER_WORD
) -> TokenSequence:
    return WordPieceTokenizer(vocab, max_chars_per_word).tokenize(text)
