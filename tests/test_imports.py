"""Each command imports only what it runs, and `bpt` resolves its public
names on first access.

The import contract is checked in fresh interpreters: this process already
holds numpy and every bpt module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpt
from bpt.rng import SplitRng

from .conftest import make_corpus_text, write_corpus_file

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Runs `bpt.cli.main` on argv[2:] (or only `import bpt` when there is none)
# and writes the exit code and the loaded numpy and bpt modules to argv[1].
PROBE = """
import json, sys
if len(sys.argv) > 2:
    from bpt.cli import main
    try:
        code = main(sys.argv[2:])
    except SystemExit as exc:  # --help
        code = exc.code
else:
    import bpt
    code = 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "bpt"))
with open(sys.argv[1], "w") as f:
    json.dump({"code": code, "modules": loaded}, f)
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, lexicon, small_vocab):
    root = tmp_path_factory.mktemp("imports")
    records = [
        {"article_id": "a1", "tree_numbers": ["C04.557"], "year": 2015, "text": "alpha one\nalpha two"},
        {"article_id": "a2", "tree_numbers": ["Q99"], "year": 2015, "text": "gamma"},
    ]
    (root / "records.jsonl").write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    write_corpus_file(root / "corpus.txt", make_corpus_text(SplitRng(31), lexicon, n_docs=4))
    small_vocab.save(root / "vocab.txt")
    return root


def loaded_modules(root: Path, *argv: str) -> set:
    result_path = root / "probe.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(result_path), *argv], cwd=root,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


@pytest.mark.parametrize("argv", [
    (),  # a bare `import bpt`
    ("--help",),
    ("filter", "--ruleset", "sP", "--in", "records.jsonl", "--out", "small.txt", "--report", "f.json"),
    ("shard", "--in", "corpus.txt", "--out-dir", "shards", "--each-file-size", "200", "--report", "s.json"),
    ("tokenize", "--vocab", "vocab.txt", "--in", "corpus.txt", "--out", "tokens.txt"),
    ("dump-ruleset", "fP"),
    ("build-vocab", "--small", "corpus.txt", "--out", "v.txt", "--target-size", "80", "--min-frequency", "1"),
], ids=lambda argv: argv[0] if argv else "import-bpt")
def test_commands_that_need_no_numpy_never_load_it(inputs, argv):
    assert "numpy" not in loaded_modules(inputs, *argv)


def test_tokenize_loads_no_corpus_module(inputs):
    modules = loaded_modules(inputs, "tokenize", "--vocab", "vocab.txt", "--in", "corpus.txt", "--out", "tokens.txt")
    assert "bpt.tokenizer" in modules and "bpt.corpus" not in modules


def test_build_vocab_loads_no_instance_serialize_verify_or_filter_module(inputs):
    modules = loaded_modules(inputs, "build-vocab", "--small", "corpus.txt", "--out", "v.txt",
                             "--target-size", "80", "--min-frequency", "1")
    assert "bpt.kernels" in modules  # it trains
    assert not modules & {"bpt.instances", "bpt.serialize", "bpt.verify", "bpt.mesh_filter"}


def test_verify_loads_no_corpus_or_tokenizer_module(inputs):
    from bpt.cli import main

    assert main(["create-instances", "--mode", "conventional", "--small", str(inputs / "corpus.txt"),
                 "--vocab", str(inputs / "vocab.txt"), "--out", str(inputs / "verify-in.bin"),
                 "--max-seq-length", "64"]) == 0
    modules = loaded_modules(inputs, "verify", "--in", "verify-in.bin", "--vocab", "vocab.txt")
    assert "bpt.verify" in modules
    assert not modules & {"bpt.corpus", "bpt.tokenizer"}


def test_create_instances_loads_no_verify_or_filter_module(inputs):
    modules = loaded_modules(inputs, "create-instances", "--mode", "conventional", "--small", "corpus.txt",
                             "--vocab", "vocab.txt", "--out", "out.bin", "--max-seq-length", "64")
    assert "bpt.serialize" in modules
    assert not modules & {"bpt.verify", "bpt.mesh_filter"}


# --- the lazy package API ------------------------------------------------------


def test_every_public_name_is_its_defining_modules_object():
    for name in bpt.__all__:
        value = getattr(bpt, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in dir(bpt), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bpt.no_such_name  # noqa: B018
    assert not hasattr(bpt, "no_such_name")


def test_submodules_and_moved_settings_still_import():
    from bpt import kernels, serialize, verify

    assert (kernels, serialize, verify) == tuple(
        importlib.import_module(f"bpt.{name}") for name in ("kernels", "serialize", "verify")
    )
    from bpt.instances import InstanceConfig
    from bpt.settings import Tolerances as SettingsTolerances
    from bpt.verify import Tolerances

    assert InstanceConfig is bpt.InstanceConfig and Tolerances is SettingsTolerances is bpt.Tolerances
