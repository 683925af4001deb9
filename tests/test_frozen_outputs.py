"""Frozen sha256 digests of instance files, manifests and vocabularies.

The instance runs below cover simpt with with-replacement shard draws and a document
that tokenizes to nothing, conventional with dupe_factor 3, a rotated binary
set and the jsonl format, at max_seq_length 64 and short_seq_prob 0.5 so that
truncation and short targets occur. The `bpt create-instances` runs read
corpus files with "\r\n" and "\r" line ends, whitespace-only separator lines
and a directory input, in both modes. The build-vocab runs cover an amplified
training stream that reaches its target and one that stops early at
--min-frequency, so that its report holds the warning. The trainer case
trains a 20,000-word stream to 3,000 tokens, past the sizes the build-vocab
runs reach. A change that alters any digest alters output bytes for fixed
seeds; such a change must be made on purpose and the digests updated with it.
"""

import hashlib
import json

import pytest

from bpt.cli import main
from bpt.corpus import Document, Origin, Shard
from bpt.instances import InstanceConfig, generate_conventional, generate_simpt
from bpt.rng import SplitRng
from bpt.serialize import write_instances, write_instances_jsonl
from bpt.vocab import train_bpe

from .conftest import make_corpus_text, make_document_sentences, make_lexicon, write_corpus_file

FROZEN = {
    "conventional.bin": "a3b57ec8c0448fbd3fbf30dbd5180ff25d0f2089d37ca9e5e17c0c5e3def6ed2",
    "conventional.bin.manifest.json": "a5b0a78c6ae6fda1731258fbc5aa6c0c09078d84354fc34b1553761d31bcb552",
    "rotated.bin.00000": "d540e7ef3f6b4bc3ca03ab19e0c62dcfa474720bb80b9f12995d785655c22260",
    "rotated.bin.00001": "91556f6a1fe62368b1d2fd6fd98f0de537537df1f3bc9f8e9eaeb4f023f7181f",
    "rotated.bin.00002": "f4a7136d2d5391acf46ef19b4aff70eb5f905f732a895a227cd829888d25bf5a",
    "rotated.bin.manifest.json": "3ecc75ba14d4d47b860c86bb29949949ae59e1134ee9eaba60ba22008790a8cd",
    "simpt.bin": "cce96d6c42ebdb5986c8bb3eadad10ef9fac51015627355c8aed424e7966db7c",
    "simpt.bin.manifest.json": "469fb9689f1b5c9b1b6600800192bf52e6ea5c2b8fdb8b1f37e9e0d844c33310",
    "simpt.jsonl": "5d97e9935e65d850d6cafaf58ace62104d44a8fe7ad82fffbdd82e936eb02fe4",
}


def shards(lexicon, label, origin, n_shards, seed):
    """`n_shards` shards of two documents, each of 1 to 12 sentences."""
    rng = SplitRng(seed)
    out = []
    for s in range(n_shards):
        docs = [Document(f"{label}#{2 * s + k}", origin, make_document_sentences(rng, lexicon, rng.randint(1, 12)))
                for k in range(2)]
        out.append(Shard(s, origin, docs, target_bytes=1))
    return out


def test_instance_files_and_manifests_are_frozen(tmp_path, lexicon, small_tokenizer):
    small = shards(lexicon, "s", Origin.SMALL, 3, seed=41)
    large = shards(lexicon, "l", Origin.LARGE, 6, seed=42)
    small[1].documents.append(Document("s#empty", Origin.SMALL, ["\u200b"]))  # tokenizes to nothing
    first = small[2].documents[0]  # gains a sentence that tokenizes to nothing after its first
    small[2].documents[0] = Document(first.doc_id, first.origin, [first.sentences[0], "\u200b", *first.sentences[1:]])
    docs = [d for shard in small + large for d in shard.documents]
    vocab = small_tokenizer.vocab

    def config(**kw):
        return InstanceConfig(max_seq_length=64, short_seq_prob=0.5, **kw)

    simpt = config(n_rounds=4, shards_per_corpus=4, master_seed=3)  # 3 small shards: drawn with replacement
    stream, report = generate_simpt(small, large, small_tokenizer, simpt)
    write_instances(stream, tmp_path / "simpt.bin", vocab, simpt, statistics=report.to_dict)
    assert report.empty_documents > 0
    stream, _ = generate_simpt(small, large, small_tokenizer, simpt)
    write_instances_jsonl(stream, tmp_path / "simpt.jsonl", vocab, simpt)

    conventional = config(dupe_factor=3, n_splits=2, master_seed=5)
    stream, report = generate_conventional(docs, small_tokenizer, conventional)
    write_instances(stream, tmp_path / "conventional.bin", vocab, conventional, statistics=report.to_dict)

    rotated = config(n_splits=3, master_seed=7)
    stream, report = generate_conventional(docs, small_tokenizer, rotated)
    write_instances(stream, tmp_path / "rotated.bin", vocab, rotated, statistics=report.to_dict,
                    max_file_bytes=8000)

    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert digests == FROZEN


CLI_FROZEN = {
    "conventional": {
        "out.bin": "0aca213d2ace5d9f40084e9690d43648df2f421177418f021fb8a7bde7dd963f",
        "out.bin.manifest.json": "61e111ed00dd12bbf8bbd9f25c32b5cd22894db88a5df45b15cea15b7b82913e",
    },
    "simpt": {
        "out.bin": "d9c8ceb3615a45ca90c93df984853edcb601909c495077482daae5a5675212b6",
        "out.bin.manifest.json": "536675f74188dbd03d804e940173008c2f9bf1c2a31e84b4a64add84554d0f35",
    },
}


@pytest.fixture()
def cli_inputs(tmp_path, monkeypatch, lexicon, small_vocab):
    """Corpus files and a vocabulary in the working directory: small.txt with
    "\r\n" line ends, and a directory large/ of one file with "\r" line ends
    and one whose documents are separated by whitespace-only lines."""
    monkeypatch.chdir(tmp_path)  # the manifest echoes input paths, so they are relative
    small_vocab.save("vocab.txt")
    (tmp_path / "large").mkdir()
    texts = [make_corpus_text(SplitRng(seed), lexicon, n_docs=n) for seed, n in ((71, 5), (72, 8), (73, 8))]
    (tmp_path / "small.txt").write_bytes(texts[0].replace("\n", "\r\n").encode("utf-8"))
    (tmp_path / "large" / "a.txt").write_bytes(texts[1].replace("\n", "\r").encode("utf-8"))
    (tmp_path / "large" / "b.txt").write_bytes(texts[2].replace("\n\n", "\n \t\n\n").encode("utf-8"))
    return tmp_path


CLI_RUNS = [
    ("simpt", ("--rounds", "4", "--shards-per-corpus", "2", "--each-file-size", "6000", "--seed", "9")),
    ("conventional", ("--dupe-factor", "2", "--n-splits", "3", "--seed", "11")),
]


def create_instances(root, mode, flags):
    """sha256 of out.bin and its manifest, written by `bpt create-instances`."""
    out = root / "out"
    out.mkdir()
    code = main(["create-instances", "--mode", mode, "--small", "small.txt", "--large", "large",
                 "--vocab", "vocab.txt", "--out", "out/out.bin", "--max-seq-length", "64",
                 "--short-seq-prob", "0.5", *flags])
    assert code == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("mode,flags", CLI_RUNS)
def test_create_instances_cli_outputs_are_frozen(cli_inputs, mode, flags):
    assert create_instances(cli_inputs, mode, flags) == CLI_FROZEN[mode]


@pytest.mark.parametrize("mode,flags", CLI_RUNS)
def test_create_instances_cli_holds_no_corpus(cli_inputs, monkeypatch, mode, flags):
    from bpt import corpus

    def must_not_run(*args, **kwargs):
        raise AssertionError("create-instances built a whole corpus or its shards")

    monkeypatch.setattr(corpus, "load_corpus", must_not_run)
    monkeypatch.setattr(corpus, "split_corpus", must_not_run)
    assert create_instances(cli_inputs, mode, flags) == CLI_FROZEN[mode]


VOCAB_FROZEN = {
    "amplified/merges.txt": "e65c6ddc0cb6b462abfb60ef3e81db0d2ec0000176cc5334f32e5d4d562abee1",
    "amplified/report.json": "dd2b184f6aea2c58f6393b21d8720b1085f7976c13e404fc6770e164d535f60c",
    "amplified/vocab.txt": "a01ad2d1893cb10fefa0340405a94e300508c5000ee956f2751c6f2b54ab246d",
    "stopped/merges.txt": "5ab08b3966d35821ba818d204a75f6ad2c461fb9ec449b3fdc5b20b78d9cd897",
    "stopped/report.json": "aace55e36977a55d2d4ffe74334c73dba60cad03cf3d814238a3be6d4f9820c8",
    "stopped/vocab.txt": "2abd9fa36ee54179d98d95b4be4c2dc0720e6461a9e36806bd93e29ea0d9c57f",
}


def build_vocab(tmp_path, name, *flags):
    """sha256 of vocab.txt, --merges-out and the --report JSON of one
    build-vocab run, keyed by run name and file name."""
    out = tmp_path / name
    out.mkdir()
    code = main(["build-vocab", *map(str, flags), "--out", str(out / "vocab.txt"),
                 "--merges-out", str(out / "merges.txt"), "--report", str(out / "report.json")])
    assert code == 0
    return {f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_build_vocab_outputs_are_frozen(tmp_path, lexicon):
    small = write_corpus_file(tmp_path / "small.txt", make_corpus_text(SplitRng(61), lexicon[:150], n_docs=4))
    large = write_corpus_file(tmp_path / "large.txt", make_corpus_text(SplitRng(62), lexicon[100:], n_docs=16))
    digests = build_vocab(tmp_path, "amplified", "--small", small, "--large", large, "--amplify",
                          "--target-size", 700)
    digests |= build_vocab(tmp_path, "stopped", "--large", large, "--target-size", 5000, "--min-frequency", 40)
    amplified = json.loads((tmp_path / "amplified" / "report.json").read_text())
    assert amplified["repeat_factor"] > 1 and not amplified["truncated"]
    stopped = json.loads((tmp_path / "stopped" / "report.json").read_text())
    assert stopped["truncated"] and "below min_frequency 40" in stopped["warnings"][0]
    assert digests == VOCAB_FROZEN


TRAINED_FROZEN = {
    "merges.txt": "8555c57bebd267d05f549bc400ffdfa72954537b24cf1c16c6ad6571ca41fdfd",
    "vocab.txt": "174bbe58afd1102c6d6b80d98f5c6e9e5a117f71935ee8d75422ae04c18ff513",
}


def test_trained_vocabulary_and_merges_are_frozen(tmp_path):
    rng = SplitRng(5)
    words = {w: 1 + rng.randrange(50) for w in make_lexicon(rng, 20_000)}
    vocab, report = train_bpe(words, target_size=3000)
    assert report.final_size == 3000 and not report.truncated
    vocab.save(tmp_path / "vocab.txt", tmp_path / "merges.txt")
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())} == TRAINED_FROZEN
