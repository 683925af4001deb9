import hashlib
import json
from pathlib import Path

import pytest

from bpt.cli import main, parse_size
from bpt.errors import UsageError
from bpt.rng import SplitRng
from bpt.serialize import manifest_path

from .conftest import make_corpus_text, write_corpus_file


@pytest.fixture()
def vocab_file(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    small_vocab.save(path)
    return path


@pytest.fixture()
def corpora(tmp_path, lexicon):
    small = write_corpus_file(
        tmp_path / "small.txt", make_corpus_text(SplitRng(11), lexicon, n_docs=6)
    )
    large = write_corpus_file(
        tmp_path / "large.txt", make_corpus_text(SplitRng(12), lexicon, n_docs=18)
    )
    return small, large


def run(capsys, *argv) -> tuple[int, str]:
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def test_parse_size():
    assert parse_size("10MB") == 10_000_000
    assert parse_size("4KiB") == 4096
    assert parse_size("123") == 123
    assert parse_size(7) == 7
    with pytest.raises(UsageError):
        parse_size("ten bytes")


def test_no_command_prints_help(capsys):
    assert main([]) == 2


# --- filter ------------------------------------------------------------------


def write_records(path: Path):
    records = [
        {"article_id": "a1", "tree_numbers": ["C04.557"], "year": 2015, "text": "alpha one\nalpha two"},
        {"article_id": "a2", "tree_numbers": ["C04", "N06.850"], "year": 2015, "text": "beta"},
        {"article_id": "a3", "tree_numbers": ["Q99"], "year": 2015, "text": "gamma"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def test_filter_end_to_end(tmp_path, capsys):
    records = write_records(tmp_path / "recs.jsonl")
    out = tmp_path / "filtered.txt"
    code, stdout = run(capsys, "filter", "--ruleset", "fP", "--in", records, "--out", out)
    assert code == 0
    assert out.read_text() == "alpha one\nalpha two\n"
    report = json.loads(stdout)
    assert report["included"] == 1
    assert report["excluded_by_rule"] == 1
    assert report["no_match"] == 1


def test_filter_splits_record_text_only_at_line_breaks(tmp_path, capsys):
    text = "alpha beta\x1cgamma delta\nsecond line\n\nnext doc\x1c\x1cstill next doc"
    records = tmp_path / "recs.jsonl"
    records.write_text(json.dumps({"article_id": "a1", "tree_numbers": ["C04.557"], "year": 2015,
                                   "text": text}) + "\n", encoding="utf-8")
    out = tmp_path / "filtered.txt"
    code, _ = run(capsys, "filter", "--ruleset", "fP", "--in", records, "--out", out)
    assert code == 0
    assert out.read_text(encoding="utf-8") == "alpha beta\x1cgamma delta\nsecond line\nnext doc\x1c\x1cstill next doc\n"


@pytest.mark.parametrize("command", ["filter", "dump-ruleset"])
def test_missing_ruleset_exits_2(tmp_path, capsys, caplog, command):
    missing = tmp_path / "nope.json"
    argv = {"filter": ["filter", "--ruleset", missing, "--in", write_records(tmp_path / "recs.jsonl"),
                       "--out", tmp_path / "o.txt"],
            "dump-ruleset": ["dump-ruleset", missing]}[command]
    code, stdout = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert f"ruleset not found: {missing}" in caplog.text


def test_filter_overlapping_ruleset_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "included_prefixes": ["C"], "excluded_prefixes": ["C"], "min_year": None,
    }))
    records = write_records(tmp_path / "recs.jsonl")
    code, _ = run(capsys, "filter", "--ruleset", bad, "--in", records, "--out", tmp_path / "o.txt")
    assert code == 2


RULESET = {"name": "bad", "included_prefixes": ["C"], "excluded_prefixes": ["N06"], "min_year": None}


@pytest.mark.parametrize("content, message", [
    ('{"name": "caf\xe9"}'.encode("latin-1"), "ruleset {path}: invalid UTF-8"),
    (json.dumps([RULESET]).encode(), "ruleset {path}: must be a JSON object, got list"),
    (json.dumps({**RULESET, "included_prefixes": [1]}).encode(),
     "ruleset 'bad': included_prefixes must be a list of strings, got [1]"),
    (json.dumps({**RULESET, "included_prefixes": "C01"}).encode(),
     "ruleset 'bad': included_prefixes must be a list of strings, got 'C01'"),
    (json.dumps({**RULESET, "min_year": "2000"}).encode(),
     "ruleset 'bad': min_year must be an integer or null, got '2000'"),
], ids=["non-utf8", "json-list", "int-prefix", "string-prefixes", "string-min-year"])
def test_filter_malformed_ruleset_exits_2_naming_it(tmp_path, capsys, caplog, content, message):
    ruleset = tmp_path / "rules.json"
    ruleset.write_bytes(content)
    records = write_records(tmp_path / "recs.jsonl")
    code, _ = run(capsys, "filter", "--ruleset", ruleset, "--in", records, "--out", tmp_path / "o.txt")
    assert code == 2
    assert message.format(path=ruleset) in caplog.text


GOOD_RECORD = {"article_id": "a1", "tree_numbers": ["C04.557"], "year": 2015, "text": "alpha"}


@pytest.mark.parametrize("bad_line, message", [
    ("42", "a record must be a JSON object"),
    ('["C04"]', "a record must be a JSON object"),
    ('{"tree_numbers": ["C04"], "year": "x", "text": "t"}', "year must be an integer or null"),
    ('{"tree_numbers": ["C04"], "year": true, "text": "t"}', "year must be an integer or null"),
    ('{"tree_numbers": "C01", "year": 2015, "text": "t"}', "tree_numbers must be a list of strings"),
    ('{"tree_numbers": ["C04", 5], "year": 2015, "text": "t"}', "tree_numbers must be a list of strings"),
    ('{"tree_numbers": ["C04"], "year": 2015, "text": ["t"]}', "text must be a string"),
], ids=["int", "array", "year_string", "year_bool", "trees_string", "trees_number", "text_array"])
def test_filter_bad_record_exits_2_naming_line(tmp_path, capsys, caplog, bad_line, message):
    records = tmp_path / "recs.jsonl"
    records.write_text(json.dumps(GOOD_RECORD) + "\n" + bad_line + "\n", encoding="utf-8")
    code, _ = run(capsys, "filter", "--ruleset", "sP", "--in", records, "--out", tmp_path / "o.txt")
    assert code == 2
    assert f"line 2: {message}" in caplog.text


def test_filter_non_utf8_input_exits_3_naming_file(tmp_path, capsys, caplog):
    records = tmp_path / "latin1.jsonl"
    records.write_bytes(json.dumps(GOOD_RECORD).encode() + b"\n" + '{"text": "caf\xe9"}\n'.encode("latin-1"))
    code, _ = run(capsys, "filter", "--ruleset", "sP", "--in", records, "--out", tmp_path / "o.txt")
    assert code == 3
    assert f"{records}: invalid UTF-8" in caplog.text


def test_filter_failed_run_keeps_earlier_out(tmp_path, capsys):
    records, out = tmp_path / "recs.jsonl", tmp_path / "o.txt"
    good = [{**GOOD_RECORD, "text": f"alpha {i}\nbeta {i}"} for i in range(200)]
    records.write_text("".join(json.dumps(r) + "\n" for r in good), encoding="utf-8")
    code, _ = run(capsys, "filter", "--ruleset", "sP", "--in", records, "--out", out)
    assert code == 0
    earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    lines = records.read_text(encoding="utf-8").splitlines()
    records.write_text("\n".join(lines[:183] + ["42"] + lines[183:]) + "\n", encoding="utf-8")
    earlier[records.name] = records.read_bytes()
    code, _ = run(capsys, "filter", "--ruleset", "sP", "--in", records, "--out", out)
    assert code == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier  # and no temporary file


def test_failed_report_write_keeps_earlier_report(tmp_path, capsys, caplog, monkeypatch):
    records = write_records(tmp_path / "recs.jsonl")
    argv = ["filter", "--ruleset", "fP", "--in", records, "--out", tmp_path / "o.txt",
            "--report", tmp_path / "report.json"]
    code, _ = run(capsys, *argv)
    assert code == 0
    earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_text = Path.write_text

    def disk_full_in_report(self, text, *args, **kwargs):
        if "report" not in self.name:
            return write_text(self, text, *args, **kwargs)
        write_text(self, text[:10], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full_in_report)
    code, stdout = run(capsys, *argv)
    assert code == 3 and stdout == ""
    assert "No space left on device" in caplog.text
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier  # and no temporary file


def test_report_to_a_fifo_is_written_in_place(tmp_path, capsys):
    import os
    import stat

    records, fifo = write_records(tmp_path / "recs.jsonl"), tmp_path / "report.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        code, _ = run(capsys, "filter", "--ruleset", "fP", "--in", records, "--out", tmp_path / "o.txt",
                      "--report", fifo)
        received = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert code == 0
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert json.loads(received)["included"] == 1


def test_report_to_a_symlink_is_written_through_the_link(tmp_path, capsys):
    records, report, link = write_records(tmp_path / "recs.jsonl"), tmp_path / "report.json", tmp_path / "link.json"
    report.write_text("earlier\n", encoding="utf-8")
    link.symlink_to(report)
    code, _ = run(capsys, "filter", "--ruleset", "fP", "--in", records, "--out", tmp_path / "o.txt",
                  "--report", link)
    assert code == 0
    assert link.is_symlink() and link.resolve() == report.resolve()
    assert json.loads(report.read_text(encoding="utf-8"))["included"] == 1


def test_dump_ruleset(capsys):
    code, stdout = run(capsys, "dump-ruleset", "sP")
    assert code == 0
    data = json.loads(stdout)
    assert data["name"] == "sP"
    assert "C" in data["included_prefixes"]


# --- shard -------------------------------------------------------------------


def test_shard_writes_files_and_report(tmp_path, capsys, corpora):
    small, _ = corpora
    out_dir = tmp_path / "shards"
    code, stdout = run(capsys, "shard", "--in", small, "--label", "s", "--origin", "small",
                       "--each-file-size", "2KB", "--out-dir", out_dir)
    assert code == 0
    report = json.loads(stdout)
    files = sorted(out_dir.glob("shard-*.txt"))
    assert len(files) == report["shards"] >= 2
    assert sum(report["shard_bytes"]) == report["total_bytes"]


def test_shard_reads_a_glob_pattern(tmp_path, capsys):
    (tmp_path / "d").mkdir()
    for name, text in (("a1.txt", "one\n"), ("a2.txt", "two\n"), ("b.txt", "other\n")):
        (tmp_path / "d" / name).write_text(text, encoding="utf-8")
    code, stdout = run(capsys, "shard", "--in", tmp_path / "d" / "a*.txt", "--out-dir", tmp_path / "shards")
    assert code == 0 and json.loads(stdout)["documents"] == 2
    assert (tmp_path / "shards" / "shard-00000.txt").read_text() == "one\n\ntwo\n"


def test_shard_reads_an_existing_file_whose_name_holds_glob_characters(tmp_path, capsys):
    (tmp_path / "data[1].txt").write_text("literal\n", encoding="utf-8")
    (tmp_path / "data1.txt").write_text("matched by the pattern\n", encoding="utf-8")
    code, stdout = run(capsys, "shard", "--in", tmp_path / "data[1].txt", "--out-dir", tmp_path / "shards")
    assert code == 0 and json.loads(stdout)["documents"] == 1
    assert (tmp_path / "shards" / "shard-00000.txt").read_text() == "literal\n"


def test_unreadable_shard_input_exits_3_and_keeps_earlier_shards(tmp_path, capsys, caplog, lexicon, corpora):
    small, _ = corpora
    argv = ("shard", "--in", small, "--each-file-size", "2KB", "--out-dir", tmp_path / "shards",
            "--report", tmp_path / "shard.json")
    code, _ = run(capsys, *argv)
    assert code == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    # other documents, so every shard would change, then a last one that is not UTF-8
    text = make_corpus_text(SplitRng(13), lexicon, n_docs=6).encode()
    small.write_bytes(text + b"\nlast \xff document\n")
    code, stdout = run(capsys, *argv)
    assert code == 3 and stdout == ""
    assert f"{small}: invalid UTF-8 at byte offset {len(text) + 6}" in caplog.text
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    del before[small], after[small]
    assert after == before  # the shards and their report as they were, and no temporary file


def test_shard_removes_an_earlier_runs_higher_numbered_shards(tmp_path, capsys, corpora):
    small, _ = corpora
    out_dir = tmp_path / "shards"
    code, stdout = run(capsys, "shard", "--in", small, "--each-file-size", "2KB", "--out-dir", out_dir)
    assert code == 0 and json.loads(stdout)["shards"] > 1
    kept = ["notes.txt", "shard-7.txt", "shard-000001.txt", "shard-00001.md"]  # not names shard writes
    for name in kept:
        (out_dir / name).write_text("kept\n", encoding="utf-8")
    code, stdout = run(capsys, "shard", "--in", small, "--each-file-size", "10MB", "--out-dir", out_dir)
    report = json.loads(stdout)
    assert code == 0 and report["shards"] == 1
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(kept + ["shard-00000.txt"])
    for name in kept:
        assert (out_dir / name).read_text(encoding="utf-8") == "kept\n"
    # the set read back as a corpus holds this run's documents only
    shards = out_dir / "shard-[0-9][0-9][0-9][0-9][0-9].txt"
    code, stdout = run(capsys, "shard", "--in", shards, "--out-dir", tmp_path / "again")
    assert code == 0 and json.loads(stdout)["documents"] == report["documents"]


@pytest.mark.parametrize("command", ["build-vocab", "shard"])
def test_memory_does_not_grow_with_the_corpus(tmp_path, capsys, lexicon, command):
    """Both commands read each corpus as a stream of documents: the peak
    holds the distinct chunks and words, not the text."""
    import tracemalloc

    text = make_corpus_text(SplitRng(17), lexicon, n_docs=60)
    once = write_corpus_file(tmp_path / "once.txt", text)
    eight = write_corpus_file(tmp_path / "eight.txt", "\n".join([text] * 8))

    def peak(corpus: Path) -> int:
        if command == "shard":
            argv = ["shard", "--in", corpus, "--each-file-size", "50KB", "--out-dir", tmp_path / corpus.stem]
        else:
            argv = ["build-vocab", "--large", corpus, "--target-size", "300", "--min-frequency", "1",
                    "--out", tmp_path / f"{corpus.stem}.vocab.txt"]
        tracemalloc.reset_peak()
        code, _ = run(capsys, *argv)
        assert code == 0
        return tracemalloc.get_traced_memory()[1]

    run(capsys, "build-vocab", "--large", once, "--target-size", "300", "--min-frequency", "1",
        "--out", tmp_path / "warm-up.txt")  # loads the modules and fills the character tables
    tracemalloc.start()
    try:
        small_peak, large_peak = peak(once), peak(eight)
    finally:
        tracemalloc.stop()
    assert once.stat().st_size > 150_000
    assert large_peak - small_peak < 1_000_000, (small_peak, large_peak)


def test_shard_bad_origin_in_config_exits_2_naming_flag(tmp_path, capsys, caplog, corpora):
    small, _ = corpora
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"origin": "medium"}))
    code, stdout = run(capsys, "shard", "--config", cfg, "--in", small, "--out-dir", tmp_path / "shards")
    assert code == 2 and stdout == ""
    assert "--origin" in caplog.text and "'medium'" in caplog.text
    assert not (tmp_path / "shards").exists()


@pytest.mark.parametrize("command", ["shard", "simpt", "conventional"])
@pytest.mark.parametrize("size", ["0", "0.4"])
def test_zero_each_file_size_exits_2_naming_flag(tmp_path, capsys, caplog, vocab_file, corpora,
                                                 command, size):
    small, large = corpora
    if command == "shard":
        code, _ = run(capsys, "shard", "--in", small, "--each-file-size", size,
                      "--out-dir", tmp_path / "shards")
    else:
        code, _, _ = create(capsys, tmp_path, vocab_file, corpora, "x.bin", "--mode", command,
                            "--rounds", "2", "--each-file-size", size)
    assert code == 2
    assert "--each-file-size must be positive, got 0" in caplog.text


@pytest.mark.parametrize("mode", ["simpt", "conventional"])
@pytest.mark.parametrize("source, size", [("flag", "0"), ("flag", "0.4"), ("config", 0)])
def test_nonpositive_max_file_bytes_exits_2_naming_flag(tmp_path, capsys, caplog, vocab_file, corpora,
                                                        mode, source, size):
    if source == "flag":
        extra = ("--max-file-bytes", size)
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"max_file_bytes": size}))
        extra = ("--config", cfg)
    code, _, _ = create(capsys, tmp_path, vocab_file, corpora, "x.bin", "--mode", mode, "--rounds", "2",
                        *extra)
    assert code == 2
    assert "--max-file-bytes must be positive, got 0" in caplog.text
    assert not list(tmp_path.glob("x.bin*"))


@pytest.mark.parametrize("source", ["flag", "config"])
def test_jsonl_with_max_file_bytes_exits_2_naming_flag(tmp_path, capsys, caplog, vocab_file, corpora, source):
    if source == "flag":
        extra = ("--format", "jsonl", "--max-file-bytes", "10")
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "jsonl", "max_file_bytes": 10}))
        extra = ("--config", cfg)
    code, _, _ = create(capsys, tmp_path, vocab_file, corpora, "x.jsonl", "--mode", "conventional", *extra)
    assert code == 2
    assert "--max-file-bytes" in caplog.text and "jsonl" in caplog.text
    assert not list(tmp_path.glob("x.jsonl*"))


# --- build-vocab ---------------------------------------------------------------


def test_build_vocab_plain_and_amplified(tmp_path, capsys, corpora):
    small, large = corpora
    out_plain = tmp_path / "plain.txt"
    code, stdout = run(capsys, "build-vocab", "--small", small, "--large", large,
                       "--target-size", "600", "--min-frequency", "1", "--out", out_plain)
    assert code == 0
    plain_report = json.loads(stdout)
    assert "repeat_factor" not in plain_report
    assert len(out_plain.read_text().splitlines()) == plain_report["final_size"]

    out_amp = tmp_path / "amp.txt"
    code, stdout = run(capsys, "build-vocab", "--small", small, "--large", large, "--amplify",
                       "--target-size", "600", "--min-frequency", "1", "--out", out_amp)
    assert code == 0
    amp_report = json.loads(stdout)
    assert amp_report["repeat_factor"] >= 1


def test_build_vocab_amplify_requires_both(tmp_path, capsys, corpora):
    small, _ = corpora
    code, _ = run(capsys, "build-vocab", "--small", small, "--amplify",
                  "--target-size", "500", "--out", tmp_path / "v.txt")
    assert code == 2


def test_build_vocab_failed_write_keeps_earlier_vocabulary_and_merges(tmp_path, capsys, caplog, monkeypatch,
                                                                      corpora):
    small, large = corpora
    argv = ["build-vocab", "--small", small, "--large", large, "--min-frequency", "1",
            "--out", tmp_path / "vocab.txt", "--merges-out", tmp_path / "merges.txt"]
    code, _ = run(capsys, *argv, "--target-size", "600")
    assert code == 0
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    write_text = Path.write_text

    def disk_full_in_merges(self, text, *args, **kwargs):
        if "merges" not in self.name:
            return write_text(self, text, *args, **kwargs)
        write_text(self, text[:10], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", disk_full_in_merges)
    code, stdout = run(capsys, *argv, "--target-size", "500")
    assert code == 3 and stdout == ""
    assert "No space left on device" in caplog.text
    after = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert after == before  # vocab.txt and merges.txt as they were, and no temporary file


def test_build_vocab_exact_target_line_count(tmp_path, capsys, corpora):
    small, large = corpora
    out = tmp_path / "v.txt"
    code, stdout = run(capsys, "build-vocab", "--small", small, "--large", large,
                       "--target-size", "500", "--min-frequency", "1", "--out", out)
    assert code == 0
    report = json.loads(stdout)
    if not report["truncated"]:
        assert len(out.read_text().splitlines()) == 500


# --- tokenize ------------------------------------------------------------------


def test_tokenize_round_trip_file(tmp_path, capsys, vocab_file, lexicon):
    infile = tmp_path / "in.txt"
    word_a, word_b = lexicon[0], lexicon[1]
    infile.write_text(f"{word_a} {word_b}\n\n{word_a}\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    code, _ = run(capsys, "tokenize", "--vocab", vocab_file, "--in", infile, "--out", out)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3 and lines[1] == ""  # blank separator lines survive
    rebuilt = "".join(p.removeprefix("##") for p in lines[0].split())
    assert rebuilt == word_a + word_b


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_tokenize_non_utf8_input_exits_3_naming_it(tmp_path, vocab_file, source):
    import os
    import subprocess
    import sys

    infile = tmp_path / "latin1.txt"
    infile.write_bytes("caf\xe9 au lait\n".encode("latin-1"))
    argv = [sys.executable, "-m", "bpt.cli", "tokenize", "--vocab", str(vocab_file)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    if source == "file":
        result = subprocess.run(argv + ["--in", str(infile)], capture_output=True, env=env)
    else:
        result = subprocess.run(argv, input=infile.read_bytes(), capture_output=True, env=env)
    stderr = result.stderr.decode()
    assert result.returncode == 3, stderr
    assert f"{infile if source == 'file' else '<stdin>'}: invalid UTF-8" in stderr
    assert "Traceback" not in stderr


def test_tokenize_failed_run_keeps_earlier_out(tmp_path, capsys, vocab_file, corpora):
    small, _ = corpora
    infile, out = tmp_path / "in.txt", tmp_path / "tokens.txt"
    infile.write_bytes(small.read_bytes())
    code, _ = run(capsys, "tokenize", "--vocab", vocab_file, "--in", infile, "--out", out)
    assert code == 0 and out.stat().st_size > 0
    earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    infile.write_bytes(small.read_bytes() + "caf\xe9\n".encode("latin-1"))  # breaks on its last line
    earlier[infile.name] = infile.read_bytes()
    code, _ = run(capsys, "tokenize", "--vocab", vocab_file, "--in", infile, "--out", out)
    assert code == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier  # and no temporary file


def test_tokenize_unwritable_out_closes_input(tmp_path, vocab_file, corpora):
    import os
    import subprocess
    import sys

    small, _ = corpora
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "bpt.cli", "tokenize", "--vocab", str(vocab_file),
         "--in", str(small), "--out", str(tmp_path / "missing" / "x.txt")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 2, result.stderr
    assert "ResourceWarning" not in result.stderr


# --- create-instances / verify / compare ----------------------------------------


def create(capsys, tmp_path, vocab_file, corpora, out_name, *extra):
    small, large = corpora
    out = tmp_path / out_name
    code, stdout = run(
        capsys, "create-instances", "--small", small, "--large", large,
        "--vocab", vocab_file, "--out", out, "--max-seq-length", "64",
        "--each-file-size", "2KB", "--seed", "5", *extra,
    )
    return code, out, stdout


def test_simpt_requires_two_corpora(tmp_path, capsys, vocab_file, corpora):
    small, _ = corpora
    code, _ = run(capsys, "create-instances", "--mode", "simpt", "--small", small,
                  "--vocab", vocab_file, "--out", tmp_path / "x.bin", "--rounds", "2")
    assert code == 2


def test_simpt_requires_rounds(tmp_path, capsys, vocab_file, corpora):
    small, large = corpora
    code, _ = run(capsys, "create-instances", "--mode", "simpt", "--small", small,
                  "--large", large, "--vocab", vocab_file, "--out", tmp_path / "x.bin")
    assert code == 2


def test_create_simpt_deterministic_across_runs_and_threads(tmp_path, capsys, vocab_file, corpora):
    args = ("--mode", "simpt", "--rounds", "4", "--shards-per-corpus", "2")
    code1, out1, _ = create(capsys, tmp_path, vocab_file, corpora, "a.bin", *args, "--threads", "1")
    code2, out2, _ = create(capsys, tmp_path, vocab_file, corpora, "b.bin", *args, "--threads", "4")
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    # manifests record nothing about the worker count or the host
    m1, m2 = (json.loads((tmp_path / f"{n}.bin.manifest.json").read_text()) for n in "ab")
    for manifest in (m1, m2):
        del manifest["config"]["out"]
        for entry in manifest["files"]:
            del entry["name"]
    assert m1 == m2


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 9")
def test_manifest_is_the_same_however_inputs_are_named(tmp_path, capsys, monkeypatch, vocab_file, corpora):
    monkeypatch.chdir(tmp_path)  # where small.txt, large.txt and vocab.txt are
    outs = []
    for prefix, out_dir in (("", "one"), ("./", "two")):
        (tmp_path / out_dir).mkdir()
        code, _ = run(capsys, "create-instances", "--mode", "conventional", "--small", f"{prefix}small.txt",
                      "--large", f"{prefix}large.txt", "--vocab", f"{prefix}vocab.txt",
                      "--out", f"{out_dir}/o.bin", "--max-seq-length", "64", "--seed", "5")
        assert code == 0
        outs.append(tmp_path / out_dir / "o.bin")
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert manifest_path(outs[0]).read_bytes() == manifest_path(outs[1]).read_bytes()


def test_create_conventional_dupe_factor_doubles(tmp_path, capsys, vocab_file, corpora):
    code1, out1, stdout1 = create(capsys, tmp_path, vocab_file, corpora, "d1.bin",
                                  "--mode", "conventional", "--dupe-factor", "1")
    code2, out2, stdout2 = create(capsys, tmp_path, vocab_file, corpora, "d2.bin",
                                  "--mode", "conventional", "--dupe-factor", "2")
    assert code1 == code2 == 0
    r1, r2 = json.loads(stdout1), json.loads(stdout2)
    assert r2["instances"] == 2 * r1["instances"]


@pytest.mark.parametrize("mode", ["simpt", "conventional"])
@pytest.mark.parametrize("bad, message", [
    (b" \n\t\n\n", "empty corpus: {path}"),
    (b"first line\nsecond line\n\n" * 400 + b"last \xff line\n", "{path}: invalid UTF-8 at byte offset 9605"),
], ids=["whitespace-only", "undecodable"])
def test_unreadable_large_corpus_exits_3_and_keeps_earlier_output(tmp_path, capsys, caplog, vocab_file, corpora,
                                                                  mode, bad, message):
    small, large = corpora
    flags = ("--mode", mode, "--rounds", "2")
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "o.bin", *flags)
    assert code == 0
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    large.write_bytes(bad)
    code, _, stdout = create(capsys, tmp_path, vocab_file, corpora, "o.bin", *flags)
    assert code == 3 and stdout == ""
    assert message.format(path=large) in caplog.text
    after = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    del before[large], after[large]
    assert after == before  # o.bin and its manifest as they were, and no temporary file


def test_manifest_echoes_effective_config(tmp_path, capsys, vocab_file, corpora):
    from bpt.cli import _INSTANCE_KEYS
    from bpt.settings import InstanceConfig

    # a value other than the default for each flag that sets the InstanceConfig field of its name
    values = {"max_seq_length": 72, "masked_lm_prob": 0.2, "max_predictions_per_seq": 12, "short_seq_prob": 0.2,
              "dupe_factor": 2, "n_splits": 3, "shards_per_corpus": 2}
    assert sorted(values) == sorted(_INSTANCE_KEYS)
    assert all(value != getattr(InstanceConfig, key) for key, value in values.items())
    flags = [part for key, value in values.items() for part in ("--" + key.replace("_", "-"), value)]
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "m.bin", "--mode", "simpt", "--rounds", "2", *flags)
    assert code == 0
    manifest = json.loads((tmp_path / "m.bin.manifest.json").read_text())
    assert {key: manifest["config"][key] for key in values} == values
    assert manifest["config"]["mode"] == "simpt"
    assert manifest["config"]["n_rounds"] == 2
    assert manifest["config"]["master_seed"] == 5
    assert manifest["master_seed"] == 5


def test_config_file_with_flag_override(tmp_path, capsys, vocab_file, corpora):
    small, large = corpora
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "mode": "conventional",
        "small": str(small),
        "large": str(large),
        "vocab": str(vocab_file),
        "max_seq_length": 64,
        "dupe_factor": 1,
        "seed": 5,
        "threads": 1,
    }))
    out1 = tmp_path / "c1.bin"
    code, _ = run(capsys, "create-instances", "--config", cfg, "--out", out1)
    assert code == 0
    m1 = json.loads((tmp_path / "c1.bin.manifest.json").read_text())
    assert m1["config"]["dupe_factor"] == 1
    out2 = tmp_path / "c2.bin"
    code, _ = run(capsys, "create-instances", "--config", cfg, "--out", out2,
                  "--dupe-factor", "2")
    assert code == 0
    m2 = json.loads((tmp_path / "c2.bin.manifest.json").read_text())
    assert m2["config"]["dupe_factor"] == 2
    assert m2["statistics"]["instances"] == 2 * m1["statistics"]["instances"]


def test_jsonl_format(tmp_path, capsys, vocab_file, corpora):
    report = tmp_path / "report.json"
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "d.jsonl",
                          "--mode", "conventional", "--format", "jsonl", "--report", report)
    assert code == 0
    first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
    assert first["tokens"][0] == "[CLS]"
    # the sidecar lists the one file, as for binary output
    manifest = json.loads(manifest_path(out).read_text(encoding="utf-8"))
    lines = len(out.read_text(encoding="utf-8").splitlines())
    assert manifest["files"] == [{"name": "d.jsonl", "instances": lines,
                                  "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}]
    assert manifest["instance_count"] == lines > 0
    assert manifest["format"] == "jsonl"
    assert manifest["vocab_hash"] == ""
    assert manifest["statistics"] == json.loads(report.read_text(encoding="utf-8"))


def test_verify_pass_and_exit_codes(tmp_path, capsys, vocab_file, corpora):
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "v.bin",
                          "--mode", "simpt", "--rounds", "3", "--shards-per-corpus", "2")
    assert code == 0
    code, stdout = run(capsys, "verify", "--in", out, "--vocab", vocab_file,
                       "--min-instances", "5", "--min-masked", "20", "--min-candidates", "50",
                       "--nsp-tol", "0.4", "--mask-selection-tol", "0.05",
                       "--mask-split-tol", "0.2", "--origin-tol", "0.5")
    assert code == 0
    assert "overall: PASS" in stdout


@pytest.mark.parametrize("fraction", ["-1", "1.5", "nan"])
def test_verify_expected_origin_fraction_out_of_range_exits_2(tmp_path, capsys, vocab_file, corpora,
                                                              fraction):
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "o.bin",
                          "--mode", "simpt", "--rounds", "1", "--shards-per-corpus", "1")
    assert code == 0
    code, _ = run(capsys, "verify", "--in", out, "--vocab", vocab_file,
                  "--expected-origin-fraction", fraction)
    assert code == 2


def test_verify_nonexistent_file_exits_2(tmp_path, capsys, vocab_file):
    code, _ = run(capsys, "verify", "--in", tmp_path / "missing.bin", "--vocab", vocab_file)
    assert code == 2


def test_verify_adversarial_fixture_exits_1(tmp_path, capsys, vocab_file, corpora):
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "adv.bin",
                          "--mode", "conventional")
    assert code == 0
    # re-write the file with is_next forced true
    from bpt.instances import InstanceConfig, PretrainInstance
    from bpt.serialize import read_instances, write_instances
    from bpt.vocab import Vocabulary

    vocab = Vocabulary.load(vocab_file)
    forced = [
        PretrainInstance(i.token_ids, i.segment_ids, i.masked_positions, i.masked_labels,
                         True, i.origin_small_tokens, i.origin_large_tokens)
        for i in read_instances(out, expected_vocab=vocab)
    ]
    bad = tmp_path / "forced.bin"
    write_instances(forced, bad, vocab, InstanceConfig(max_seq_length=64, master_seed=5))
    code, stdout = run(capsys, "verify", "--in", bad, "--vocab", vocab_file,
                       "--min-instances", "5", "--min-masked", "20", "--min-candidates", "50",
                       "--no-origin-check", "--mask-selection-tol", "0.05",
                       "--mask-split-tol", "0.2")
    assert code == 1
    assert "overall: FAIL" in stdout


def test_verify_conventional_mode_skips_origin_check(tmp_path, capsys, vocab_file, corpora):
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "conv.bin",
                          "--mode", "conventional")
    assert code == 0
    code, stdout = run(capsys, "verify", "--in", out, "--vocab", vocab_file, "--json",
                       "--min-instances", "5", "--min-masked", "20", "--min-candidates", "50",
                       "--nsp-tol", "0.4", "--mask-selection-tol", "0.05", "--mask-split-tol", "0.2")
    report = json.loads(stdout)
    origin = [c for c in report["checks"] if c["name"] == "small_origin_fraction"][0]
    assert origin["status"] == "skipped"


def test_compare_identical_files_identical_rows(tmp_path, capsys, vocab_file, corpora):
    args = ("--mode", "simpt", "--rounds", "3", "--shards-per-corpus", "2")
    _, out1, _ = create(capsys, tmp_path, vocab_file, corpora, "cmp1.bin", *args)
    _, out2, _ = create(capsys, tmp_path, vocab_file, corpora, "cmp2.bin", *args)
    code, stdout = run(capsys, "compare", out1, out2)
    assert code == 0
    for line in stdout.splitlines()[2:]:
        cells = [c for c in line.split("  ") if c.strip()]
        assert cells[1].strip() == cells[2].strip()


def test_compare_empty_file_insufficient(tmp_path, capsys, vocab_file, corpora):
    from bpt.instances import InstanceConfig
    from bpt.serialize import write_instances
    from bpt.vocab import Vocabulary

    vocab = Vocabulary.load(vocab_file)
    empty = tmp_path / "empty.bin"
    write_instances([], empty, vocab, InstanceConfig(max_seq_length=64))
    _, full, _ = create(capsys, tmp_path, vocab_file, corpora, "full.bin",
                        "--mode", "conventional")
    code, stdout = run(capsys, "compare", empty, full)
    assert code == 0
    assert "insufficient data" in stdout


def test_compare_requires_two_files(tmp_path, capsys):
    code, _ = run(capsys, "compare")
    assert code == 2


def test_cli_entry_point_subprocess(tmp_path):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "bpt.cli", "dump-ruleset", "fP"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["name"] == "fP"


# --- rotated sets, malformed inputs ---------------------------------------------

LENIENT = ("--min-instances", "5", "--min-masked", "20", "--min-candidates", "50",
           "--nsp-tol", "0.4", "--mask-selection-tol", "0.05", "--mask-split-tol", "0.2",
           "--origin-tol", "0.5")
SIMPT = ("--mode", "simpt", "--rounds", "3", "--shards-per-corpus", "2")


def rotated(capsys, tmp_path, vocab_file, corpora):
    """A simpt set written in several parts; the base path itself is no file."""
    code, base, _ = create(capsys, tmp_path, vocab_file, corpora, "rot.bin", *SIMPT,
                           "--max-file-bytes", "4KB")
    assert code == 0 and not base.exists()
    parts = [tmp_path / e["name"] for e in json.loads(manifest_path(base).read_text())["files"]]
    assert len(parts) >= 3 and all(p.is_file() for p in parts)
    return base, parts


def test_rotated_set_verifies_and_compares_like_unrotated(tmp_path, capsys, vocab_file, corpora):
    base, _ = rotated(capsys, tmp_path, vocab_file, corpora)
    _, plain, _ = create(capsys, tmp_path, vocab_file, corpora, "plain.bin", *SIMPT)
    code_rot, out_rot = run(capsys, "verify", "--in", base, "--vocab", vocab_file, "--json", *LENIENT)
    code_plain, out_plain = run(capsys, "verify", "--in", plain, "--vocab", vocab_file, "--json",
                                *LENIENT)
    assert code_rot == code_plain == 0
    report_rot, report_plain = json.loads(out_rot), json.loads(out_plain)
    assert report_rot.pop("path") == str(base)
    report_plain.pop("path")
    assert report_rot == report_plain
    assert report_rot["distinct_negative_pairs"] is not None

    code, stdout = run(capsys, "compare", base, plain)
    assert code == 0
    rows = stdout.splitlines()[2:]
    assert len(rows) == 5
    for line in rows:
        cells = [c for c in line.split("  ") if c.strip()]
        assert cells[1].strip() == cells[2].strip()


def test_sidecar_path_verifies_and_compares_like_base_path(tmp_path, capsys, vocab_file, corpora):
    rot, _ = rotated(capsys, tmp_path, vocab_file, corpora)
    _, plain, _ = create(capsys, tmp_path, vocab_file, corpora, "plain.bin", *SIMPT)
    for base in (plain, rot):
        reports = []
        for path in (base, manifest_path(base)):
            code, out = run(capsys, "verify", "--in", path, "--vocab", vocab_file, "--json", *LENIENT)
            assert code == 0
            report = json.loads(out)
            report.pop("path")
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["instances"] == json.loads(manifest_path(base).read_text())["instance_count"]

    code, by_base = run(capsys, "compare", rot, plain, "--labels", "rot,plain")
    assert code == 0
    code, by_sidecar = run(capsys, "compare", manifest_path(rot), manifest_path(plain),
                           "--labels", "rot,plain")
    assert code == 0
    assert by_sidecar == by_base


def test_rotated_set_missing_part_exits_2_naming_it(tmp_path, capsys, caplog, vocab_file, corpora):
    base, parts = rotated(capsys, tmp_path, vocab_file, corpora)
    parts[1].unlink()
    code, stdout = run(capsys, "verify", "--in", base, "--vocab", vocab_file)
    assert code == 2 and stdout == ""
    assert parts[1].name in caplog.text
    code, stdout = run(capsys, "compare", base, base)
    assert code == 2 and stdout == ""


@pytest.mark.parametrize("damage", ["flip_body_byte", "edit_manifest_count"])
def test_rotated_set_damaged_part_exits_1_before_statistics(tmp_path, capsys, vocab_file, corpora,
                                                            damage):
    base, parts = rotated(capsys, tmp_path, vocab_file, corpora)
    if damage == "flip_body_byte":
        raw = bytearray(parts[-1].read_bytes())
        raw[30] ^= 0xFF
        parts[-1].write_bytes(bytes(raw))
    else:
        manifest = json.loads(manifest_path(base).read_text())
        manifest["files"][1]["instances"] += 1
        manifest_path(base).write_text(json.dumps(manifest))
    code, stdout = run(capsys, "verify", "--in", base, "--vocab", vocab_file, *LENIENT)
    assert code == 1 and stdout == ""


def test_numbered_part_is_checked_against_base_manifest(tmp_path, capsys, vocab_file, corpora):
    base, parts = rotated(capsys, tmp_path, vocab_file, corpora)
    code, stdout = run(capsys, "verify", "--in", parts[0], "--vocab", vocab_file, "--json")
    report = json.loads(stdout)
    origin = [c for c in report["checks"] if c["name"] == "small_origin_fraction"][0]
    assert report["distinct_negative_pairs"] is None  # statistics describe the whole set
    assert origin["status"] != "skipped"
    raw = bytearray(parts[0].read_bytes())
    raw[30] ^= 0xFF
    parts[0].write_bytes(bytes(raw))
    code, stdout = run(capsys, "verify", "--in", parts[0], "--vocab", vocab_file)
    assert code == 1 and stdout == ""


def test_conventional_part_skips_origin_check(tmp_path, capsys, vocab_file, corpora):
    code, base, _ = create(capsys, tmp_path, vocab_file, corpora, "conv.bin",
                           "--mode", "conventional", "--max-file-bytes", "4KB")
    assert code == 0
    code, stdout = run(capsys, "verify", "--in", f"{base}.00000", "--vocab", vocab_file, "--json")
    origin = [c for c in json.loads(stdout)["checks"] if c["name"] == "small_origin_fraction"][0]
    assert origin["status"] == "skipped"


@pytest.mark.parametrize("manifest_text", [
    "{not json",
    "[]",
    json.dumps({"files": [1, 2]}),
    json.dumps({"files": "c.bin"}),
    "part name with a separator",
    "entry without sha256",
    "entry without instances",
])
def test_malformed_manifest_is_named(tmp_path, capsys, caplog, vocab_file, corpora, manifest_text):
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "c.bin", "--mode", "conventional")
    assert code == 0
    edits = {"part name with a separator": lambda entry: entry.update(name="../c.bin"),
             "entry without sha256": lambda entry: entry.pop("sha256"),
             "entry without instances": lambda entry: entry.pop("instances")}
    if manifest_text in edits:
        manifest = json.loads(manifest_path(out).read_text())
        edits[manifest_text](manifest["files"][0])
        manifest_text = json.dumps(manifest)
    manifest_path(out).write_text(manifest_text)
    code, stdout = run(capsys, "verify", "--in", out, "--vocab", vocab_file)
    assert code == 1 and stdout == ""
    assert "manifest" in caplog.text and "Traceback" not in caplog.text
    code, stdout = run(capsys, "compare", out, out)
    assert code == 3 and stdout == ""


def test_trailing_bytes_exit_1(tmp_path, capsys, vocab_file, corpora):
    code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "t.bin", "--mode", "conventional")
    assert code == 0
    manifest_path(out).unlink()  # so the trailing bytes are hit, not the checksum
    out.write_bytes(out.read_bytes() + b"\x00\x01\x02")
    code, _ = run(capsys, "verify", "--in", out, "--vocab", vocab_file, *LENIENT)
    assert code == 1


def test_non_utf8_vocabulary_exits_2(tmp_path, capsys):
    vocab = tmp_path / "latin1.txt"
    vocab.write_bytes("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\ncaf\xe9\n".encode("latin-1"))
    code, _ = run(capsys, "tokenize", "--vocab", vocab, "--in", vocab)
    assert code == 2


def test_config_value_of_wrong_type_exits_2_naming_key(tmp_path, capsys, caplog, vocab_file,
                                                       corpora):
    small, large = corpora
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mode": "simpt", "rounds": "abc"}))
    code, _ = run(capsys, "create-instances", "--config", cfg, "--small", small, "--large", large,
                  "--vocab", vocab_file, "--out", tmp_path / "x.bin")
    assert code == 2
    assert "'rounds'" in caplog.text


@pytest.mark.parametrize("command, key", [("build-vocab", "amplify"), ("verify", "no_origin_check"),
                                          ("verify", "json")])
@pytest.mark.parametrize("value", ["no", 0, "true"])
def test_config_value_of_on_off_flag_must_be_json_bool(tmp_path, capsys, caplog, vocab_file, corpora,
                                                       command, key, value):
    small, large = corpora
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    if command == "build-vocab":
        argv = ("--small", small, "--large", large, "--target-size", "600", "--out", tmp_path / "v.txt")
    else:
        code, out, _ = create(capsys, tmp_path, vocab_file, corpora, "x.bin", "--mode", "conventional")
        assert code == 0
        argv = ("--in", out, "--vocab", vocab_file)
    code, stdout = run(capsys, command, "--config", cfg, *argv)
    assert code == 2 and stdout == ""
    assert f"'{key}'" in caplog.text


def test_config_false_for_on_off_flag_leaves_it_off(tmp_path, capsys, corpora):
    small, large = corpora
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"amplify": False}))
    code, stdout = run(capsys, "build-vocab", "--config", cfg, "--small", small, "--large", large,
                       "--target-size", "600", "--min-frequency", "1", "--out", tmp_path / "v.txt")
    assert code == 0
    assert "repeat_factor" not in json.loads(stdout)


def test_null_config_value_means_unset(tmp_path, capsys, vocab_file, corpora):
    small, large = corpora
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"mode": "conventional", "max_seq_length": None}))
    out = tmp_path / "n.bin"
    code, _ = run(capsys, "create-instances", "--config", cfg, "--small", small, "--large", large,
                  "--vocab", vocab_file, "--out", out)
    assert code == 0
    assert json.loads(manifest_path(out).read_text())["max_seq_length"] == 128


def test_verify_rotated_set_closes_every_file(tmp_path, capsys, vocab_file, corpora):
    import os
    import subprocess
    import sys

    base, _ = rotated(capsys, tmp_path, vocab_file, corpora)
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "bpt.cli", "verify", "--in", str(base),
         "--vocab", str(vocab_file), *LENIENT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr


@pytest.mark.parametrize("command, key, value, message", [
    ("build-vocab", "amplfy", True, "'amplfy'"),
    ("create-instances", "max_file_bytes", True, "'max_file_bytes'"),
    ("create-instances", "small_label", ["a"], "'small_label'"),
    ("create-instances", "small", 5, "small corpus not found: 5"),
    ("create-instances", "mode", "medium", "--mode"),
    ("build-vocab", "small_label", "a", "'small_label'"),  # build-vocab writes no document ids
])
def test_config_value_is_held_to_its_flags_rules(tmp_path, capsys, caplog, vocab_file, corpora,
                                                 command, key, value, message):
    small, large = corpora
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    argv = ["--large", large, "--out", tmp_path / "x.bin"]
    if key != "small":
        argv += ["--small", small]
    if command == "build-vocab":
        argv += ["--target-size", "600"]
    else:
        argv += ["--vocab", vocab_file] + (["--mode", "conventional"] if key != "mode" else [])
    code, stdout = run(capsys, command, "--config", cfg, *argv)
    assert code == 2 and stdout == ""
    assert message in caplog.text and "Traceback" not in caplog.text
    assert not list(tmp_path.glob("x.bin*"))


@pytest.mark.parametrize("argv", [["tokenize", "--vocab", "v.txt"], ["dump-ruleset", "sP"]],
                         ids=["tokenize", "dump-ruleset"])
def test_report_is_refused_where_no_report_is_written(tmp_path, capsys, caplog, argv):
    report = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--report", str(report)])
    assert exit_info.value.code == 2
    assert "--report" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"report": str(report)}))
    code, stdout = run(capsys, *argv, "--config", cfg)
    assert code == 2 and stdout == ""
    assert "key 'report'" in caplog.text
    assert not report.exists()


def test_build_vocab_logs_training_rate_only(tmp_path, capsys, caplog, corpora):
    small, large = corpora
    argv = ["build-vocab", "--small", small, "--large", large, "--target-size", "600", "--min-frequency", "1"]
    with caplog.at_level("INFO", logger="bpt"):
        code, stdout = run(capsys, *argv, "--out", tmp_path / "v.txt")
    assert code == 0
    report = json.loads(stdout)
    lines = [r.getMessage() for r in caplog.records if "merges/s" in r.getMessage()]
    assert len(lines) == 1 and lines[0].startswith(f"build-vocab: {report['merges_performed']} merges in ")
    assert "merges/s" not in stdout and "seconds" not in report


@pytest.mark.parametrize("command, flag", [
    ("build-vocab", "--out"), ("build-vocab", "--merges-out"), ("build-vocab", "--report"),
    ("create-instances", "--out"), ("create-instances", "--report"),
    ("filter", "--out"), ("filter", "--report"), ("shard", "--report"), ("verify", "--report"),
    ("compare", "--report"),
])
def test_missing_output_directory_exits_2_before_reading_input(tmp_path, capsys, caplog, monkeypatch,
                                                               vocab_file, corpora, command, flag):
    from bpt import cli, corpus, mesh_filter, serialize, vocab

    def must_not_run(*args, **kwargs):
        raise AssertionError("input was read or a vocabulary trained before the output paths were checked")

    monkeypatch.setattr(cli, "_load_corpora", must_not_run)
    monkeypatch.setattr(corpus, "read_documents", must_not_run)
    monkeypatch.setattr(mesh_filter, "load_ruleset", must_not_run)
    monkeypatch.setattr(serialize, "open_instance_set", must_not_run)
    monkeypatch.setattr(vocab, "train_bpe", must_not_run)
    monkeypatch.setattr(vocab.Vocabulary, "load", must_not_run)
    small, large = corpora
    outputs = {"--out": tmp_path / "out", "--report": tmp_path / "report.json"}
    if command == "build-vocab":
        outputs["--merges-out"] = tmp_path / "merges.txt"
        argv = ["build-vocab", "--small", small, "--large", large, "--target-size", "600"]
    elif command == "create-instances":
        argv = ["create-instances", "--mode", "conventional", "--small", small, "--vocab", vocab_file]
    elif command == "filter":
        argv = ["filter", "--ruleset", "sP", "--in", write_records(tmp_path / "recs.jsonl")]
    else:  # these write no --out file
        del outputs["--out"]
        argv = {"shard": ["shard", "--in", small, "--out-dir", tmp_path / "shards"],
                "verify": ["verify", "--in", tmp_path / "o.bin", "--vocab", vocab_file],
                "compare": ["compare", tmp_path / "a.bin", tmp_path / "b.bin"]}[command]
    missing = tmp_path / "no-such-dir"
    outputs[flag] = missing / outputs[flag].name
    before = sorted(tmp_path.rglob("*"))
    code, stdout = run(capsys, *argv, *(part for item in outputs.items() for part in item))
    assert code == 2 and stdout == ""
    assert f"{flag}: directory {missing} does not exist" in caplog.text
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["build-vocab", "create-instances", "filter"])
def test_two_outputs_naming_one_file_exit_2_and_keep_the_earlier_file(tmp_path, capsys, caplog, monkeypatch,
                                                                      vocab_file, corpora, command):
    from bpt import cli, corpus, mesh_filter, vocab

    def must_not_run(*args, **kwargs):
        raise AssertionError("input was read before the output paths were checked")

    monkeypatch.setattr(cli, "_load_corpora", must_not_run)
    monkeypatch.setattr(corpus, "read_documents", must_not_run)
    monkeypatch.setattr(mesh_filter, "load_ruleset", must_not_run)
    monkeypatch.setattr(vocab.Vocabulary, "load", must_not_run)
    small, _ = corpora
    records = write_records(tmp_path / "recs.jsonl")
    same, sidecar = tmp_path / "same.txt", tmp_path / "out.bin.manifest.json"
    argv, flags, same = {
        "build-vocab": (["build-vocab", "--small", small, "--out", same, "--merges-out", same],
                        "--out and --merges-out", same),
        # the manifest sidecar of --out is an output too
        "create-instances": (["create-instances", "--mode", "conventional", "--small", small,
                              "--vocab", vocab_file, "--out", tmp_path / "out.bin", "--report", sidecar],
                             "--report and the manifest of --out", sidecar),
        "filter": (["filter", "--ruleset", "sP", "--in", records, "--out", same, "--report", same],
                   "--out and --report", same),
    }[command]
    same.write_text("earlier\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    code, stdout = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert f"{flags} name the same file {same}" in caplog.text
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["create-instances", "shard"])
def test_report_naming_a_file_of_the_set_exits_2_and_keeps_it(tmp_path, capsys, caplog, monkeypatch,
                                                             vocab_file, corpora, command):
    from bpt import cli, corpus, vocab

    small, _ = corpora
    argv, part, flags = {
        "create-instances": (["create-instances", "--mode", "conventional", "--small", small, "--vocab", vocab_file,
                              "--out", tmp_path / "rot.bin", "--max-file-bytes", "100"],
                             tmp_path / "rot.bin.00000", "--out"),
        "shard": (["shard", "--in", small, "--each-file-size", "2KB", "--out-dir", tmp_path / "sh"],
                  tmp_path / "sh" / "shard-00001.txt", "--out-dir"),
    }[command]
    # a report beside the set, or on stderr, is no file of it
    for report in (tmp_path / "report.json", "/dev/stderr"):
        code, _ = run(capsys, *argv, "--report", report)
        assert code == 0
    assert part.is_file()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    def must_not_run(*args, **kwargs):
        raise AssertionError("input was read before --report was checked")

    monkeypatch.setattr(cli, "_load_corpora", must_not_run)
    monkeypatch.setattr(corpus, "read_documents", must_not_run)
    monkeypatch.setattr(vocab.Vocabulary, "load", must_not_run)
    code, stdout = run(capsys, *argv, "--report", part)
    assert code == 2 and stdout == ""
    assert f"--report {part} names a file of the set that {flags} writes" in caplog.text
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_stdout_and_stderr_are_two_outputs():
    import argparse

    from bpt.cli import _check_outputs

    _check_outputs(argparse.Namespace(out="/dev/stdout", report="/dev/stderr"), "out", "report")


def test_create_instances_removes_an_earlier_runs_parts(tmp_path, capsys, vocab_file, corpora):
    small, _ = corpora
    out = tmp_path / "out.bin"
    (tmp_path / "notes.txt").write_text("kept\n", encoding="utf-8")
    # not names of parts the writer numbers (five digits, or more without a leading zero), or not a regular file
    kept = ["out.bin.7z", "out.bin.old", "out.binary.00001", "out.bin.7", "out.bin.2024", "out.bin.99999"]
    for name in kept[:-1]:
        (tmp_path / name).write_text("kept\n", encoding="utf-8")
    (tmp_path / kept[-1]).symlink_to(tmp_path / "notes.txt")
    parts = []
    for extra in (["--max-file-bytes", "100"], ["--max-file-bytes", "1000"], []):
        code, _ = run(capsys, "create-instances", "--mode", "conventional", "--small", small, "--vocab", vocab_file,
                      "--out", out, "--max-seq-length", "64", "--dupe-factor", "2", *extra)
        assert code == 0
        listed = [entry["name"] for entry in json.loads(manifest_path(out).read_text())["files"]]
        assert sorted(p.name for p in tmp_path.glob("out.bin*")) == sorted(listed + kept + ["out.bin.manifest.json"])
        parts.append(listed)
    assert len(parts[0]) > len(parts[1]) > 1 and parts[2] == ["out.bin"]
    for name in kept:
        assert (tmp_path / name).read_text(encoding="utf-8") == "kept\n"


def test_unicode_database_version_is_logged_and_in_no_output(tmp_path, capsys, caplog, corpora):
    import unicodedata

    small, large = corpora
    vocab, merges, report = tmp_path / "v.txt", tmp_path / "m.txt", tmp_path / "r.json"
    with caplog.at_level("INFO", logger="bpt"):
        code, _ = run(capsys, "build-vocab", "--small", small, "--large", large, "--target-size", "600",
                      "--min-frequency", "1", "--out", vocab, "--merges-out", merges, "--report", report)
        assert code == 0
        code, _ = run(capsys, "create-instances", "--mode", "conventional", "--small", small, "--large", large,
                      "--vocab", vocab, "--out", tmp_path / "o.bin", "--max-seq-length", "64",
                      "--report", tmp_path / "c.json")
        assert code == 0
    version = unicodedata.unidata_version
    messages = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    for command in ("build-vocab", "create-instances"):
        assert f"{command}: Unicode database {version}" in messages
    outputs = [vocab, merges, report, tmp_path / "o.bin", manifest_path(tmp_path / "o.bin"), tmp_path / "c.json"]
    for path in outputs:
        assert version.encode() not in path.read_bytes(), path.name
