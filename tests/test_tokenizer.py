import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpt import tokenizer
from bpt.errors import VocabError
from bpt.tokenizer import WordPieceTokenizer, wordpiece_tokenize
from bpt.vocab import SPECIAL_TOKENS, Vocabulary, normalize, pretokenize

from .oracles import greedy_longest_prefix_oracle


def make_vocab(extra):
    return Vocabulary(SPECIAL_TOKENS + extra)


def test_appendicitis_golden_pieces():
    vocab = make_vocab(["app", "##end", "##ici", "##tis"])
    assert "appendicitis" not in vocab
    seq = wordpiece_tokenize("appendicitis", vocab)
    assert seq.tokens == ["app", "##end", "##ici", "##tis"]
    assert seq.ids == [vocab.id_of(t) for t in seq.tokens]


def test_whole_word_wins():
    vocab = make_vocab(["stroke", "st", "##roke"])
    assert wordpiece_tokenize("stroke", vocab).tokens == ["stroke"]


def test_uncoverable_character_is_unk():
    vocab = make_vocab(["a"])
    assert wordpiece_tokenize("☃", vocab).tokens == ["[UNK]"]


def test_unmatched_mid_word_is_unk_for_whole_word():
    vocab = make_vocab(["ab"])  # no continuation piece for the rest
    assert wordpiece_tokenize("abq", vocab).tokens == ["[UNK]"]


def test_word_longer_than_limit_is_unk():
    vocab = make_vocab(["a", "##a"])
    tok = WordPieceTokenizer(vocab)
    assert tok.tokenize("a" * 101).tokens == ["[UNK]"]
    assert tok.tokenize("a" * 100).tokens == ["a"] + ["##a"] * 99


def test_tokenize_normalizes_first():
    vocab = make_vocab(["deja", "vu"])
    assert wordpiece_tokenize("Déjà  Vu", vocab).tokens == ["deja", "vu"]


def test_requires_unk_token():
    # every vocabulary starts with the special tokens, [UNK] among them
    with pytest.raises(VocabError):
        Vocabulary(SPECIAL_TOKENS[:1] + ["x"])


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdef", min_size=1, max_size=10), st.integers(0, 10**6))
def test_greedy_first_piece_is_longest_prefix(word, seed):
    import random

    r = random.Random(seed)
    pieces = {word[:e] for e in range(1, len(word) + 1) if r.random() < 0.4}
    cont = {"##" + word[s:e] for s in range(1, len(word)) for e in range(s + 1, len(word) + 1) if r.random() < 0.4}
    extra = sorted(pieces | cont | set("abcdef") | {"##" + c for c in "abcdef"})
    vocab = make_vocab(extra)
    tokens = WordPieceTokenizer(vocab).tokenize_word(word)
    vocab_set = set(vocab.tokens)
    assert tokens[0] == greedy_longest_prefix_oracle(word, vocab_set, initial=True)
    # reconstruction property: pieces concatenate back to the word
    assert "".join(t.removeprefix("##") for t in tokens) == word


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_reconstruction_or_unk(seed):
    import random

    r = random.Random(seed)
    words = ["".join(r.choice("abcdef") for _ in range(r.randint(1, 8))) for _ in range(30)]
    alphabet = sorted({c for w in words for c in w})
    vocab = make_vocab(alphabet + ["##" + c for c in alphabet])
    tok = WordPieceTokenizer(vocab)
    text = " ".join(words)
    for word in pretokenize(normalize(text)):
        got = tok.tokenize_word(word)
        assert "".join(t.removeprefix("##") for t in got) == word


def test_vocabulary_member_tokenizes_to_itself(small_vocab):
    tok = WordPieceTokenizer(small_vocab)
    # membership-idempotence holds for word-initial tokens that survive normalization
    members = [t for t in small_vocab.tokens[small_vocab.n_special :] if not t.startswith("##")]
    for token in members[:200]:
        if normalize(token) == token:
            assert tok.tokenize(token).tokens == [token]


# Characters where caching could split text into other words than normalize
# and pretokenize do: U+0020 runs, whitespace that str.split() sees but
# normalize drops (Cc) or maps to a separator, Cf characters, NFKD expansions
# (U+00A8 becomes a space and a combining mark) and a capital sigma whose
# lowercase depends on whether it ends a word.
CHUNK_PIECES = [
    " ", "  ", "\t", "\n", "\r", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
    "\u2028", "\u3000", "\u200b", "\xad", "\xa8", "\xbd", "\ufb01", "\u03a3", "A\u03a3",
    "a", "b", "ab", "fi", "e\u0301", ".", "\u4e2d",
]
CHUNK_VOCAB = make_vocab([
    "a", "b", "e", "f", "i", "1", ".", "\u4e2d", "\u03c3", "\u03c2", "ab", "fi",
    "##a", "##b", "##e", "##i", "##2", "##\u2044", "##\u03c3", "##\u03c2", "##ab",
])
WARM = WordPieceTokenizer(CHUNK_VOCAB)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CHUNK_PIECES), max_size=24).map("".join))
@example("a\x1cb")
@example(" A\u03a3 a\u03a3b \xa8\u03a3 ")
def test_word_cache_changes_no_ids(text):
    words = pretokenize(normalize(text))
    uncached = [t for word in words for t in WordPieceTokenizer(CHUNK_VOCAB).tokenize_word(word)]
    expected = [CHUNK_VOCAB.id_of(t) for t in uncached]
    cold = WordPieceTokenizer(CHUNK_VOCAB)
    for tok in (cold, cold, WARM):
        seq = tok.tokenize(text)
        assert seq.ids == expected
        assert seq.tokens == uncached


def test_control_character_does_not_split_a_word():
    tokens = WordPieceTokenizer(CHUNK_VOCAB).tokenize("a\x1cb a\x85b")
    assert tokens.tokens == ["ab", "ab"]


def test_word_cache_memory_stays_bounded_on_distinct_words(monkeypatch):
    # a smaller cache keeps the run short; the bound scales with the constant
    monkeypatch.setattr(tokenizer, "WORD_CACHE_ENTRIES", 256)
    tok = WordPieceTokenizer(CHUNK_VOCAB)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        for start in range(0, 16 * 256, 32):
            # 32 distinct short words and one distinct word too long to cache
            words = [f"a{i}" for i in range(start, start + 32)]
            too_long = f"{start:0{tokenizer.MAX_CHARS_PER_WORD + 1}d}"
            tok.tokenize(" ".join(words + [too_long]))
            assert len(tok._word_ids) <= 256 and too_long not in tok._word_ids
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000
