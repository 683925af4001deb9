"""Seeded synthetic inputs for the end-to-end benchmark.

Everything is derived from one integer seed with the standard-library
``random.Random``, so the same seed writes byte-identical files on any
machine. Nothing here imports ``bpt``: the program under test only ever sees
the files written by :func:`write_inputs`.

Text model
    A lexicon of distinct words is sampled once. The small (domain) corpus
    draws from the first ``small_slice`` share of the lexicon and the large
    (general) corpus from the last ``large_slice`` share, so the two overlap
    only in the middle band. Within each slice, word frequencies follow a
    Zipf law with exponent ``zipf_s`` over the slice order. A stated share of
    lexicon entries is non-ASCII (accented Latin, Greek, single CJK
    characters) so the Unicode branches of ``normalize`` and ``pretokenize``
    run; sentences also carry digits and punctuation.

Article stream
    The small corpus reaches ``bpt`` only through ``bpt filter``: it is the
    text of the records of a JSON-Lines article stream that the bundled sP
    ruleset includes. Each record is built to land in one known class, so the
    benchmark knows how many records the filter must keep.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

CONSONANTS = "bcdfghklmnprstvz"
VOWELS = "aeiou"
ACCENTED = {"a": "áàâä", "e": "éèêë", "i": "íï", "o": "óöô", "u": "úüù", "n": "ñ", "c": "ç"}
GREEK_CONSONANTS = "βγδζθκλμνξπρστφχψ"
GREEK_VOWELS = "αεηιουωάέίό"
CJK = "中文字医学病毒细胞蛋白基因血液心肺肝肾脑骨药物治疗研究"

# Tree numbers by the class the bundled sP ruleset puts them in. Included:
# under C, A13, A16, B01.650, B02, D26. Excluded: under G, E05, I, K, N, Z.
# Neither: prefixes no sP rule names.
TREES_INCLUDED = ["C01.150.252", "C04.557.337", "C14.280.647", "A16.254", "B01.650.940.800",
                  "B02.440.400", "D26.255.480", "C23.550.288"]
TREES_EXCLUDED = ["G02.111.570", "E05.318.760", "I01.880.735", "K01.752", "N04.452.677", "Z01.107"]
TREES_NEITHER = ["D12.776.157", "A01.456.505", "B01.050.150", "F03.625.094", "E01.370.225"]
SP_MIN_YEAR = 2011
FILTER_CLASSES = ("included", "excluded_by_rule", "excluded_by_year", "no_match")


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload; every field is a stated input fact."""

    lexicon_words: int
    small_bytes: int  # text bytes of the articles the filter must include
    large_bytes: int
    shard_bytes: int = 25_000  # --each-file-size of create-instances
    zipf_s: float = 1.0
    non_ascii_share: float = 0.06  # of lexicon entries
    small_slice: float = 0.6
    large_slice: float = 0.7
    included_share: float = 0.5  # of article records
    article_sentences: tuple = (4, 12)
    large_doc_sentences: tuple = (10, 40)
    sentence_words: tuple = (8, 24)


def _latin_word(rng: random.Random) -> str:
    return "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(rng.randint(2, 4)))


def _accented_word(rng: random.Random) -> str:
    chars = list(_latin_word(rng))
    slots = [i for i, ch in enumerate(chars) if ch in ACCENTED]
    for i in rng.sample(slots, min(len(slots), rng.randint(1, 2))):
        chars[i] = rng.choice(ACCENTED[chars[i]])
    return "".join(chars)


def _greek_word(rng: random.Random) -> str:
    n = rng.randint(2, 4)
    return "".join(rng.choice(GREEK_CONSONANTS) + rng.choice(GREEK_VOWELS) for _ in range(n))


def make_lexicon(rng: random.Random, n_words: int, non_ascii_share: float) -> list[str]:
    """Distinct words in random order; about non_ascii_share of them are
    accented Latin (50%), Greek (40%) or one CJK character (10%)."""
    words: list[str] = []
    seen: set = set()
    while len(words) < n_words:
        u = rng.random()
        if u >= non_ascii_share:
            word = _latin_word(rng)
        elif u < non_ascii_share * 0.5:
            word = _accented_word(rng)
        elif u < non_ascii_share * 0.9:
            word = _greek_word(rng)
        else:
            word = rng.choice(CJK)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws words from a slice with probability proportional to 1/rank^s."""

    def __init__(self, words: list[str], s: float):
        self.words = words
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(words))))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum, k=k)


def _number(rng: random.Random) -> str:
    form = rng.randrange(4)
    if form == 0:
        return str(rng.randint(0, 999))
    if form == 1:
        return f"{rng.randint(0, 99)}.{rng.randint(0, 99)}"
    if form == 2:
        return str(rng.randint(1950, 2023))
    return f"{rng.randint(1, 99)}%"


def make_sentence(rng: random.Random, zipf: _Zipf, shape: Shape, used: set) -> str:
    words = zipf.draw(rng, rng.randint(*shape.sentence_words))
    used.update(words)
    out = []
    for i, word in enumerate(words):
        u = rng.random()
        if u < 0.04:
            word = f"{word} ({_number(rng)})"
        elif u < 0.08:
            word = f"{word} {_number(rng)}"
        elif u < 0.14:
            word += ","
        elif u < 0.17 and i + 1 < len(words):
            word = f"{word}-{words[i + 1]}"
        out.append(word)
    out[0] = out[0][:1].upper() + out[0][1:]
    return " ".join(out) + rng.choice(".....?;:!")


def _document(rng: random.Random, zipf: _Zipf, shape: Shape, n_range: tuple, used: set) -> list[str]:
    return [make_sentence(rng, zipf, shape, used) for _ in range(rng.randint(*n_range))]


def text_bytes(sentences: list[str]) -> int:
    """Bytes of sentence-per-line text, one newline per sentence."""
    return sum(len(s.encode("utf-8")) + 1 for s in sentences)


def _tree_numbers(rng: random.Random, cls: str) -> tuple[list[str], int]:
    """(tree numbers, year) of a record that the sP ruleset puts in class cls."""
    year_new = rng.randint(SP_MIN_YEAR, 2023)
    if cls == "included":
        trees = rng.sample(TREES_INCLUDED, rng.randint(1, 3)) + rng.sample(TREES_NEITHER, rng.randint(0, 1))
        return trees, year_new
    if cls == "excluded_by_rule":
        return [rng.choice(TREES_INCLUDED), rng.choice(TREES_EXCLUDED)], rng.randint(1995, 2023)
    if cls == "excluded_by_year":
        return [rng.choice(TREES_INCLUDED)], rng.randint(1990, SP_MIN_YEAR - 1)
    return rng.sample(TREES_NEITHER + TREES_EXCLUDED, rng.randint(1, 2)), year_new


def write_inputs(out_dir: Path, seed: int, shape: Shape) -> dict:
    """Write ``articles.jsonl`` and ``large.txt`` under out_dir; return the
    input facts, including how many records the sP filter must include."""
    rng = random.Random(seed)
    lexicon = make_lexicon(rng, shape.lexicon_words, shape.non_ascii_share)
    n = len(lexicon)
    small_zipf = _Zipf(lexicon[: int(n * shape.small_slice)], shape.zipf_s)
    large_zipf = _Zipf(lexicon[n - int(n * shape.large_slice):], shape.zipf_s)

    counts = dict.fromkeys(FILTER_CLASSES, 0)
    small_docs = small_bytes = 0
    used_words: set = set()
    with open(out_dir / "articles.jsonl", "w", encoding="utf-8") as f:
        while small_bytes < shape.small_bytes:
            if rng.random() < shape.included_share:
                cls = "included"
            else:
                cls = rng.choice(FILTER_CLASSES[1:])
            sentences = _document(rng, small_zipf, shape, shape.article_sentences,
                                  used_words if cls == "included" else set())
            trees, year = _tree_numbers(rng, cls)
            record = {"article_id": f"PMID{seed % 10**6:06d}{sum(counts.values()):06d}",
                      "tree_numbers": trees, "year": year, "text": "\n".join(sentences)}
            f.write(json.dumps(record, ensure_ascii=False) + "\n")
            counts[cls] += 1
            if cls == "included":
                small_docs += 1
                small_bytes += text_bytes(sentences)

    large_docs = large_bytes = 0
    with open(out_dir / "large.txt", "w", encoding="utf-8") as f:
        while large_bytes < shape.large_bytes:
            sentences = _document(rng, large_zipf, shape, shape.large_doc_sentences, used_words)
            f.write(("\n" if large_docs else "") + "\n".join(sentences) + "\n")
            large_docs += 1
            large_bytes += text_bytes(sentences)

    return {
        "seed": seed,
        "lexicon_words": n,
        "non_ascii_lexicon_share": sum(not w.isascii() for w in lexicon) / n,
        "zipf_s": shape.zipf_s,
        "articles": sum(counts.values()),
        "articles_bytes": (out_dir / "articles.jsonl").stat().st_size,
        "filter_expected": counts,
        "small_documents": small_docs,
        "small_bytes": small_bytes,
        "large_documents": large_docs,
        "large_bytes": large_bytes,
        "distinct_lexicon_words_used": len(used_words),
        "nominal_repeat_factor": large_bytes // small_bytes,
    }


def shard_pool(path: Path, shard_bytes: int) -> int:
    """Shards of shard_bytes that greedy whole-document packing makes of a
    sentence-per-line file with blank lines between documents."""
    shards = 0
    current = 0
    for block in path.read_text(encoding="utf-8").split("\n\n"):
        sentences = [line.strip() for line in block.splitlines() if line.strip()]
        if not sentences:
            continue
        current += text_bytes(sentences)
        if current >= shard_bytes:
            shards += 1
            current = 0
    return shards + (current > 0)
