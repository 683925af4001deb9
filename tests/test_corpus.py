import pytest

from bpt.corpus import Origin, load_corpus, split_corpus, text_byte_size, write_document_text
from bpt.errors import CorpusError


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_two_documents(tmp_path):
    corpus = load_corpus(write(tmp_path, "c.txt", "a b\nc d\n\ne f\n"), "c", "small")
    assert [d.sentences for d in corpus.documents] == [["a b", "c d"], ["e f"]]
    assert [d.doc_id for d in corpus.documents] == ["c#0", "c#1"]
    assert all(d.origin is Origin.SMALL for d in corpus.documents)


def test_blank_only_file_is_empty_corpus(tmp_path):
    with pytest.raises(CorpusError, match="empty corpus"):
        load_corpus(write(tmp_path, "c.txt", "\n\n\n"), "c", "small")


def test_total_bytes_is_additive(tmp_path):
    # documents of 40, 40, and 20 bytes (sentence bytes + newline each)
    doc40 = "\n".join(["x" * 19, "y" * 19])  # (19+1)*2 = 40
    doc20 = "z" * 19
    corpus = load_corpus(write(tmp_path, "c.txt", f"{doc40}\n\n{doc40}\n\n{doc20}\n"), "c", "large")
    assert [d.byte_size for d in corpus.documents] == [40, 40, 20]
    assert corpus.total_bytes == 100


def test_whitespace_only_lines_separate_and_collapse(tmp_path):
    corpus = load_corpus(write(tmp_path, "c.txt", "a\n  \n\t\n\nb\nc\n"), "c", "small")
    assert [d.sentences for d in corpus.documents] == [["a"], ["b", "c"]]


def test_lines_end_only_at_line_breaks(tmp_path):
    # str.splitlines would also break at \x1c, so this would load as three documents
    text = "alpha beta\x1cgamma delta\nsecond line\n\nnext doc\x1c\x1cstill next doc\n"
    corpus = load_corpus(write(tmp_path, "c.txt", text), "c", "small")
    assert [d.sentences for d in corpus.documents] == [
        ["alpha beta\x1cgamma delta", "second line"], ["next doc\x1c\x1cstill next doc"]]
    # "\r\n" and "\r" end lines as in text-mode reading; the others do not
    p = tmp_path / "breaks.txt"
    p.write_bytes("a\x0bb\r\nc\x85d\re\u2028f\x1dg\r\n\r\nh\u2029i\x0cj\x1ek\n".encode("utf-8"))
    assert [d.sentences for d in load_corpus(p, "c", "small").documents] == [
        ["a\x0bb", "c\x85d", "e\u2028f\x1dg"], ["h\u2029i\x0cj\x1ek"]]


def test_missing_trailing_newline_ok(tmp_path):
    corpus = load_corpus(write(tmp_path, "c.txt", "a\n\nb"), "c", "small")
    assert len(corpus.documents) == 2


def test_invalid_utf8_reports_offset(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"ok\n\xff\xfe\n")
    with pytest.raises(CorpusError, match="byte offset 3"):
        load_corpus(p, "bad", "small")


def test_missing_path_is_fatal(tmp_path):
    with pytest.raises(CorpusError, match="missing.txt"):
        load_corpus(tmp_path / "missing.txt", "x", "small")


def test_directory_input_lexicographic_order(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "b.txt").write_text("second\n", encoding="utf-8")
    (d / "a.txt").write_text("first\n", encoding="utf-8")
    corpus = load_corpus(d, "dir", "large")
    assert [doc.sentences[0] for doc in corpus.documents] == ["first", "second"]


def test_glob_input(tmp_path):
    (tmp_path / "c1.txt").write_text("one\n", encoding="utf-8")
    (tmp_path / "c2.txt").write_text("two\n", encoding="utf-8")
    (tmp_path / "other.dat").write_text("ignored\n", encoding="utf-8")
    corpus = load_corpus(tmp_path / "c*.txt", "g", "small")
    assert [doc.sentences[0] for doc in corpus.documents] == ["one", "two"]
    with pytest.raises(CorpusError, match="match pattern"):
        load_corpus(tmp_path / "z*.txt", "g", "small")


def test_load_is_pure_function_of_bytes(tmp_path):
    text = "a b\nc\n\nd e\n"
    c1 = load_corpus(write(tmp_path, "one.txt", text), "l", "small")
    c2 = load_corpus(write(tmp_path, "two.txt", text), "l", "small")
    assert [d.sentences for d in c1.documents] == [d.sentences for d in c2.documents]
    assert [d.doc_id for d in c1.documents] == [d.doc_id for d in c2.documents]
    assert c1.total_bytes == c2.total_bytes


def make_corpus_with_sizes(tmp_path, sizes_bytes):
    # each document is one sentence of (size-1) chars + newline
    blocks = ["x" * (s - 1) for s in sizes_bytes]
    path = write(tmp_path, "sized.txt", "\n\n".join(blocks) + "\n")
    corpus = load_corpus(path, "sz", "small")
    assert [d.byte_size for d in corpus.documents] == list(sizes_bytes)
    return corpus


def test_split_greedy_hand_simulated(tmp_path):
    mb = 1_000_000
    corpus = make_corpus_with_sizes(tmp_path, [6 * mb, 6 * mb, 6 * mb, 6 * mb, 1 * mb])
    shards = split_corpus(corpus, 10 * mb)
    assert [s.byte_size for s in shards] == [12 * mb, 12 * mb, 1 * mb]
    assert [len(s.documents) for s in shards] == [2, 2, 1]
    assert [s.shard_id for s in shards] == [0, 1, 2]


def test_split_single_small_document(tmp_path):
    corpus = make_corpus_with_sizes(tmp_path, [1024])
    shards = split_corpus(corpus, 10_000_000)
    assert len(shards) == 1
    assert shards[0].documents == corpus.documents


def test_split_closes_at_exact_threshold(tmp_path):
    mb = 1_000_000
    corpus = make_corpus_with_sizes(tmp_path, [10 * mb, 10 * mb, 10 * mb])
    shards = split_corpus(corpus, 10 * mb)
    assert len(shards) == 3
    assert all(len(s.documents) == 1 for s in shards)


def test_split_round_trip_and_byte_conservation(tmp_path, tiny_corpus):
    for target in (200, 1000, 5000, 10**9):
        shards = split_corpus(tiny_corpus, target)
        rejoined = [d for s in shards for d in s.documents]
        assert rejoined == tiny_corpus.documents
        assert sum(s.byte_size for s in shards) == tiny_corpus.total_bytes
        small = [s for s in shards if s.byte_size < target]
        assert len(small) <= 1
        if small:
            assert small[0] is shards[-1]


def test_split_rejects_bad_inputs(tmp_path):
    corpus = make_corpus_with_sizes(tmp_path, [100])
    with pytest.raises(CorpusError):
        split_corpus(corpus, 0)


def test_document_text_round_trip(tmp_path, tiny_corpus):
    text = write_document_text(tiny_corpus.documents)
    reloaded = load_corpus(write(tmp_path, "rt.txt", text), "tiny", "small")
    assert [d.sentences for d in reloaded.documents] == [
        d.sentences for d in tiny_corpus.documents
    ]
    assert reloaded.total_bytes == tiny_corpus.total_bytes


def test_byte_size_definition():
    assert text_byte_size(["ab", "c"]) == 3 + 2  # utf-8 bytes plus one newline per sentence
    assert text_byte_size(["é"]) == 3
