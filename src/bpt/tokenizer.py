"""Greedy longest-match-first WordPiece tokenization against a fixed vocabulary."""

from __future__ import annotations

from dataclasses import dataclass

from .vocab import CONTINUATION_PREFIX, UNK, Vocabulary, normalize_split, pretokenize

MAX_CHARS_PER_WORD = 100
# The word cache holds at most this many words, each of at most
# MAX_CHARS_PER_WORD characters: about 10 MB full on word-like text, about
# 70 MB at worst.
WORD_CACHE_ENTRIES = 1 << 16


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

    `tokenize` normalizes the text (`normalize_split`), pretokenizes it and
    caches the ids of each distinct word, so WordPiece matches a repeated
    word once. A part of the normalized text that is a cached word is not
    pretokenized, since a word pretokenizes to itself. A word longer than
    MAX_CHARS_PER_WORD is [UNK] without matching and is not cached, and the
    cache is emptied whenever it holds WORD_CACHE_ENTRIES words, which
    bounds its memory on inputs of any size.
    """

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self._word_ids: dict[str, tuple[int, ...]] = {}

    def tokenize_word(self, word: str) -> list[str]:
        """Greedy longest-match pieces of one already-normalized word."""
        if len(word) > MAX_CHARS_PER_WORD:
            return [UNK]
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
                return [UNK]
            pieces.append(match)
            start = end
        return pieces

    def tokenize(self, text: str) -> TokenSequence:
        ids: list[int] = []
        cache = self._word_ids
        for part in normalize_split(text):
            part_ids = cache.get(part)  # a cached word pretokenizes to itself
            if part_ids is not None:
                ids.extend(part_ids)
                continue
            for word in pretokenize(part):
                word_ids = cache.get(word)
                if word_ids is None:
                    word_ids = tuple(self.vocab.id_of(t) for t in self.tokenize_word(word))
                    if len(word) <= MAX_CHARS_PER_WORD:
                        if len(cache) >= WORD_CACHE_ENTRIES:
                            cache.clear()
                        cache[word] = word_ids
                ids.extend(word_ids)
        return TokenSequence(ids, self.vocab)


def wordpiece_tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    return WordPieceTokenizer(vocab).tokenize(text)
