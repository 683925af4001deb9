import random
import tracemalloc
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpt import kernels
from bpt import vocab as vocab_module
from bpt.corpus import Corpus, Document, Origin, load_corpus
from bpt.errors import VocabError
from bpt.rng import SplitRng
from bpt.vocab import (
    SPECIAL_TOKENS,
    AmplificationPlan,
    Vocabulary,
    combined_word_counts,
    corpus_word_counts,
    corpus_word_counts_and_bytes,
    normalize,
    plan_amplification,
    pretokenize,
    train_bpe,
    word_symbols,
)

from .conftest import make_lexicon
from .oracles import bpe_oracle, normalize_oracle, pretokenize_oracle, word_counts_and_bytes_oracle


# --- normalize -------------------------------------------------------------


def test_normalize_accent_stripping():
    assert normalize("Déjà Vu") == "deja vu"


def test_normalize_lowercase():
    assert normalize("ABC") == "abc"


def test_normalize_whitespace_collapse():
    assert normalize("a\t b") == "a b"
    assert normalize("  a \n b  ") == "a b"


def test_normalize_control_characters_removed():
    assert normalize("a\x00b\x07c") == "abc"


def test_normalize_compatibility_forms():
    assert normalize("ﬁle") == "file"  # U+FB01 ligature


def test_pretokenize_isolates_punctuation_and_cjk():
    assert pretokenize("can't stop") == ["can", "'", "t", "stop"]
    assert pretokenize("a,b") == ["a", ",", "b"]
    assert pretokenize("細胞x") == ["細", "胞", "x"]


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty translate tables for one test, so that none depends on which
    code points earlier tests looked up."""
    for name in ("_STRIP", "_ISOLATE"):
        monkeypatch.setattr(vocab_module, name, vocab_module._CharTable(getattr(vocab_module, name)._rule))


def test_tables_equal_per_character_loops_on_every_assigned_code_point(fresh_tables):
    text = "".join(c for c in map(chr, range(0x110000)) if unicodedata.category(c) != "Cn")
    assert normalize(text) == normalize_oracle(text)
    assert pretokenize(text) == pretokenize_oracle(text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(exclude_categories=())))
@example("\u0391\u03a3'\u0391")
@example("\u0391\u03a3.")
@example("\u00a8\u03a3")
@example("\u0301a")
@example("a\u2028b")
@example("a\u200bb")
@example("a\u00adb")
@example("\ufb01")
@example("\u00bd")
@example("".join(map(chr, range(128))))
@example("\tA-b\x1c.C\x7f(d)\r")
@example("Ab \u0391\u03a3 x\u03a3  e\u0301 A\u03a3b\xa0c\x1cd \u00a8\u03a3 Z.")  # printable ASCII and other chunks
def test_tables_equal_per_character_loops(text):
    assert normalize(text) == normalize_oracle(text)
    assert pretokenize(text) == pretokenize_oracle(text)


def test_translate_tables_stay_bounded_on_distinct_code_points(monkeypatch, fresh_tables):
    # a smaller bound keeps the run short; memory scales with the constant
    monkeypatch.setattr(vocab_module, "TRANSLATE_TABLE_ENTRIES", 256)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        for start in range(0x4E00, 0x4E00 + 4096, 64):  # CJK: each table stores a new string per code point
            text = "".join(map(chr, range(start, start + 64)))
            assert pretokenize(normalize(text)) == list(text)
            assert len(vocab_module._STRIP) <= 256 and len(vocab_module._ISOLATE) <= 256
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150_000, peak


# --- Vocabulary ------------------------------------------------------------


def make_vocab(extra):
    return Vocabulary(SPECIAL_TOKENS + extra)


def test_vocabulary_requires_specials_first():
    with pytest.raises(VocabError):
        Vocabulary(["a"] + SPECIAL_TOKENS)


def test_vocabulary_rejects_duplicates():
    with pytest.raises(VocabError):
        make_vocab(["a", "a"])


def test_vocabulary_round_trip(tmp_path):
    vocab, _ = train_bpe({"hug": 3, "pug": 1, "bug": 1}, target_size=12, min_frequency=1)
    vpath, mpath = tmp_path / "vocab.txt", tmp_path / "merges.txt"
    vocab.save(vpath, mpath)
    loaded = Vocabulary.load(vpath, mpath)
    assert loaded.tokens == vocab.tokens
    assert loaded.merges == vocab.merges
    assert loaded.file_bytes() == vocab.file_bytes()


def test_vocabulary_save_to_one_path_twice_fails_and_keeps_the_earlier_file(tmp_path):
    vocab, _ = train_bpe({"hug": 3, "pug": 1, "bug": 1}, target_size=12, min_frequency=1)
    path = tmp_path / "vocab.txt"
    path.write_text("earlier\n", encoding="utf-8")
    with pytest.raises(ValueError, match="staged twice"):
        vocab.save(path, path)
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.txt"]  # and no temporary file
    assert path.read_text(encoding="utf-8") == "earlier\n"


def test_vocabulary_load_rejects_missing_specials(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a\nb\nc\n", encoding="utf-8")
    with pytest.raises(VocabError):
        Vocabulary.load(p)


# --- amplification ---------------------------------------------------------


def test_plan_table_sizes():
    plan = AmplificationPlan.from_sizes(100_000_000, 3_000_000_000)
    assert plan.repeat_factor == 30


def test_plan_equal_sizes():
    assert AmplificationPlan.from_sizes(5000, 5000).repeat_factor == 1


def test_plan_clamps_to_one():
    plan = AmplificationPlan.from_sizes(10_000_000, 4_000_000)
    assert plan.repeat_factor == 1


def test_plan_from_corpora(tmp_path):
    small_path = tmp_path / "small.txt"
    large_path = tmp_path / "large.txt"
    small_path.write_text("aa bb\n", encoding="utf-8")
    large_path.write_text(("aa bb\n" * 12).strip() + "\n", encoding="utf-8")
    small = load_corpus(small_path, "s", Origin.SMALL)
    large = load_corpus(large_path, "l", Origin.LARGE)
    plan = plan_amplification(small, large)
    assert plan.repeat_factor == plan.large_bytes // plan.small_bytes == 12


ODD_TEXT = (
    "Caf\u00e9 na\u0131ve \u00bd \ufb01le \u2460 \uff21\uff22\n"
    "bell\x07ring zero\u200bwidth soft\u00adhyphen \u2066isolate\u2069\n"
    "\n"
    "no\u00a0break ideo\u3000space en\u2002space \t tab \u2028line\n"
    "\u4e2d\u6587, \u00c5ngstr\u00f6m; \u03a3\u039f\u03a6\u0399\u0391 \u2126\n"
)


def test_one_pass_matches_word_counts_and_byte_size(tmp_path):
    p = tmp_path / "odd.txt"
    p.write_text(ODD_TEXT * 3, encoding="utf-8")
    corpus = load_corpus(p, "odd", Origin.SMALL)
    counts, size = corpus_word_counts_and_bytes(corpus.documents)
    assert (counts, size) == word_counts_and_bytes_oracle(s for d in corpus.documents for s in d.sentences)
    assert counts == corpus_word_counts(corpus)
    assert "fi" in "".join(counts) and "\u200b" not in "".join(counts)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="aZ\u00e9\u00bd\ufb01\u0301 \t\x07\u200b\u00ad\u00a0\u3000\u4e2d.",
                        min_size=1), min_size=1, max_size=6))
def test_one_pass_byte_size_equals_normalized_byte_size(sentences):
    sentences = [s for s in sentences if s.strip()]
    if not sentences:
        return
    corpus = Corpus("c", Origin.SMALL, [Document("c#0", Origin.SMALL, sentences)])
    counts, size = corpus_word_counts_and_bytes(corpus.documents)
    assert (counts, size) == word_counts_and_bytes_oracle(sentences)
    assert counts == corpus_word_counts(corpus)


# U+0020 runs, control and format characters, Unicode spaces, NFKD expansions,
# a combining accent, both sigmas, CJK and punctuation
CHUNK_ALPHABET = "aZ   \t\x07\x1c\u200b\u00ad\u00a0\u3000\u00e9\u00bd\ufb01\u0301\u03a3\u03c3\u4e2d."
# characters that normalize to nothing, for sentences that normalize to nothing
VANISHING = " \x07\u200b\u00ad\u0301"
SENTENCES = st.one_of(
    st.text(alphabet=CHUNK_ALPHABET, min_size=1, max_size=24),
    st.text(alphabet=VANISHING, min_size=1, max_size=6),
).filter(str.strip)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(SENTENCES, min_size=1, max_size=4), min_size=1, max_size=5))
@example([["\u03a3\u03a3 \u03c3\u03a3.  \u03a3", "\u200b \x07"], ["\u00ad"]])
@example([["a\x1cb  \u00bd\u0301 \ufb01\u3000\u4e2d"], ["\u0301\u200b", "a \u200b"]])
@example([["".join(map(chr, range(128)))]])
@example([["\tA-b\x1c.C\x7f(d)\r"]])
def test_chunked_counts_match_per_sentence_oracle(documents):
    corpus = Corpus("c", Origin.SMALL, [Document(f"c#{i}", Origin.SMALL, d) for i, d in enumerate(documents)])
    sentences = [s for d in documents for s in d]
    expected = word_counts_and_bytes_oracle(sentences)
    assert corpus_word_counts_and_bytes(corpus.documents) == expected
    assert corpus_word_counts_and_bytes(iter(corpus.documents)) == expected  # a one-shot stream


def test_counting_normalizes_each_distinct_chunk_at_most_once(monkeypatch):
    sentences = ["the cat  sat", "The cat", "\u03a3\u200b the", "\u200b", "the cat  sat"]
    corpus = Corpus("c", Origin.SMALL, [Document("c#0", Origin.SMALL, sentences)])
    expected = word_counts_and_bytes_oracle(sentences)
    calls = []
    original = vocab_module.normalize
    monkeypatch.setattr(vocab_module, "normalize", lambda text: calls.append(text) or original(text))
    assert corpus_word_counts_and_bytes(corpus.documents) == expected
    assert len(calls) == len(set(calls))
    assert set(calls) <= {chunk for s in sentences for chunk in s.split(" ")}


def test_combined_counts_keep_small_in_stream():
    combined = combined_word_counts({"m": 4}, {"w": 2}, repeat_factor=3)
    assert combined == Counter({"m": 12, "w": 2})


# --- train_bpe -------------------------------------------------------------


def test_train_bpe_hug_example():
    vocab, report = train_bpe({"hug": 3, "pug": 1, "bug": 1}, target_size=12, min_frequency=1)
    # alphabet: ##g ##u b h p (5) + specials (5); two merges reach 12
    assert vocab.merges[:2] == [("##u", "##g"), ("h", "##ug")]
    assert "##ug" in vocab and "hug" in vocab
    assert report.merges_performed == 2
    assert vocab.size == 12
    assert not report.truncated


def test_train_bpe_single_word():
    vocab, _ = train_bpe({"aa": 1}, target_size=8, min_frequency=1)
    assert vocab.tokens == SPECIAL_TOKENS + ["##a", "a", "aa"]
    assert vocab.merges == [("a", "##a")]


def test_train_bpe_min_frequency_blocks_merges():
    # no adjacent pair repeats: each word distinct, count 1
    vocab, report = train_bpe({"ab": 1, "cd": 1}, target_size=50, min_frequency=2)
    assert vocab.merges == []
    assert report.truncated
    assert any("min_frequency" in w for w in report.warnings)
    assert vocab.tokens == SPECIAL_TOKENS + sorted(["a", "##b", "c", "##d"])


def test_train_bpe_empty_stream_fatal():
    with pytest.raises(VocabError, match="empty"):
        train_bpe({}, target_size=100)


def test_train_bpe_target_must_exceed_alphabet():
    with pytest.raises(VocabError, match="target_size"):
        train_bpe({"abc": 5}, target_size=8)  # 5 specials + 3 alphabet = 8


def test_train_bpe_determinism():
    counts = {"hug": 3, "pug": 1, "bug": 1, "mug": 2, "hugs": 2}
    v1, _ = train_bpe(counts, target_size=20, min_frequency=1)
    v2, _ = train_bpe(counts, target_size=20, min_frequency=1)
    assert v1.tokens == v2.tokens
    assert v1.merges == v2.merges


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_train_bpe_matches_oracle_on_random_tiny_corpora(seed):
    import random

    r = random.Random(seed)
    n_words = r.randint(1, 20)
    words = {}
    for _ in range(n_words):
        word = "".join(r.choice("abcdef") for _ in range(r.randint(1, 6)))
        words[word] = r.randint(1, 9)
    floor = len(SPECIAL_TOKENS) + len({s for w in words for s in ([w[0]] + ["##" + c for c in w[1:]])})
    target = floor + r.randint(1, 15)
    min_freq = r.choice([1, 2])
    vocab, _ = train_bpe(words, target_size=target, min_frequency=min_freq)
    oracle_tokens, oracle_merges = bpe_oracle(words, target, SPECIAL_TOKENS, min_freq)
    assert vocab.merges == oracle_merges
    assert vocab.tokens == oracle_tokens


def test_amplified_marker_word_survives_whole():
    # marker appears only in the small corpus; amplification lifts its pair
    # counts above the large corpus's words
    small = {"zyxw": 40}
    large = {"abcd": 1000, "efgh": 1000}
    floor = 5 + len({s for w in {**small, **large} for s in ([w[0]] + ["##" + c for c in w[1:]])})
    target = floor + 3  # merge budget for exactly one whole 4-char word
    plain, _ = train_bpe(combined_word_counts(small, large, 1), target, min_frequency=1)
    amplified, _ = train_bpe(combined_word_counts(small, large, 60), target, min_frequency=1)
    assert "zyxw" not in plain
    assert "zyxw" in amplified


def floor_size(words) -> int:
    return len(SPECIAL_TOKENS) + len({s for w in words for s in word_symbols(w)})


def oracle_result(words, target, min_frequency):
    """The oracle's tokens and merges, and the TrainReport dict they imply."""
    stop: dict = {}
    tokens, merges = bpe_oracle(words, target, SPECIAL_TOKENS, min_frequency, stop)
    warnings = []
    if stop.get("reason") == "no pairs":
        warnings.append("stopped early: no adjacent pairs remain")
    elif stop.get("reason") == "min_frequency":
        warnings.append(
            f"stopped early: best pair count {stop['best_count']} is below min_frequency {min_frequency}"
        )
    report = {
        "requested_size": target,
        "alphabet_size": floor_size(words) - len(SPECIAL_TOKENS),
        "merges_performed": len(merges),
        "final_size": len(tokens),
        "min_frequency": min_frequency,
        "truncated": len(tokens) < target,
        "warnings": warnings,
    }
    return tokens, merges, report


def assert_matches_oracle(words, target, min_frequency):
    vocab, report = train_bpe(words, target, min_frequency=min_frequency)
    tokens, merges, expected = oracle_result(words, target, min_frequency)
    assert vocab.merges == merges
    assert vocab.tokens == tokens
    assert report.to_dict() == expected
    return vocab, report


@pytest.mark.parametrize(
    "words, extra, min_frequency, merges, warning",
    [
        # left == right: a run of five symbols merges left to right, and the
        # (a, ##a) count falls to 0 after the first merge
        ({"aaaaa": 3}, 10, 1, [("##a", "##a"), ("##aa", "##aa"), ("a", "##aaaa")], "no adjacent pairs"),
        # (##b, ##c) falls to 0 once (a, ##b) takes its left symbol
        ({"abc": 5, "ab": 1}, 10, 1, [("a", "##b"), ("ab", "##c")], "no adjacent pairs"),
        ({"ab": 2, "c": 1}, 20, 1, [("a", "##b")], "no adjacent pairs"),
        # stops partway: only (x, ##y) with count 1 is left
        ({"abcd": 3, "ab": 2, "xy": 1}, 20, 3, [("a", "##b"), ("##c", "##d"), ("ab", "##cd")],
         "best pair count 1 is below min_frequency 3"),
        # tie at count 2: "abc" < "bd" although the new token "ab" has the larger id
        ({"abc": 2, "ab": 1, "bd": 2}, 3, 1, [("a", "##b"), ("ab", "##c"), ("b", "##d")], None),
    ],
    ids=["overlapping-run", "count-falls-to-zero", "no-pairs-left", "min-frequency-stop", "tie-order"],
)
def test_train_bpe_edge_cases_match_oracle(words, extra, min_frequency, merges, warning):
    vocab, report = assert_matches_oracle(words, floor_size(words) + extra, min_frequency)
    assert vocab.merges == merges
    if warning is None:
        assert report.warnings == [] and not report.truncated
    else:
        assert len(report.warnings) == 1 and warning in report.warnings[0] and report.truncated


def test_train_bpe_matches_oracle_on_seeded_stress_corpora():
    r = random.Random(20161)
    for case in range(400):
        alphabet = ("ab", "aab", "abcd", "a\u00e9\u4e2d")[case % 4]
        words = {
            "".join(r.choice(alphabet) for _ in range(r.randint(1, 7))): r.randint(1, 9)
            for _ in range(r.randint(1, 25))
        }
        assert_matches_oracle(words, floor_size(words) + r.randint(1, 40), r.randint(1, 3))


@pytest.mark.parametrize("words", [{"#####": 2}, {"#####": 7, "aabba": 5}])
def test_train_bpe_merge_that_makes_an_existing_token_matches_oracle(words):
    # "#" + "####" is "###", already the alphabet symbol of a non-initial "#":
    # the pairs such a merge creates are new, yet sort among the existing ones
    vocab, report = assert_matches_oracle(words, floor_size(words) + 10, 1)
    assert report.merges_performed > len(vocab.tokens) - floor_size(words)


def test_train_bpe_merge_that_merges_nothing_raises(monkeypatch):
    # a pair total that disagrees with the symbols picks a pair that merges
    # nothing; from its second pick on the vocabulary no longer grows
    monkeypatch.setattr(kernels, "apply_merge", lambda *args: np.empty(0, np.int64))
    with pytest.raises(RuntimeError, match=r"merging \('##u', '##g'\) with total 4 merged no occurrence"):
        train_bpe({"hug": 3, "pug": 1}, target_size=12, min_frequency=1)


def test_train_bpe_memory_stays_at_flat_array_scale():
    """The trainer keeps symbols, links and word counts in flat arrays, and
    per live pair a total, an array of its slots and heap entries. It peaks
    at about 3.9 MB on this stream; the numpy trainer before it, at 3.5 MB.
    A per-pair index of Python objects (pair -> set of words) alone peaks at
    about 8.8 MB."""
    rng = SplitRng(404)
    words = {w: 1 + rng.randrange(50) for w in make_lexicon(rng, 10_000)}
    tracemalloc.start()
    try:
        vocab, report = train_bpe(words, floor_size(words) + 60, min_frequency=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.merges_performed == 60
    assert peak < 7_000_000, peak


def test_corpus_word_counts_normalizes(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("Hello, WORLD\nhello world\n", encoding="utf-8")
    corpus = load_corpus(p, "c", "small")
    counts = corpus_word_counts(corpus)
    assert counts == Counter({"hello": 2, "world": 2, ",": 1})
