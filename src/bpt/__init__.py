"""Balanced pre-training data toolkit.

Pipeline: filter (MeSH rules) -> shard -> build vocabulary (optionally
amplified) -> generate MLM/NSP instances (balanced or conventional) ->
verify balance and masking statistics.

The names in `__all__` are imported from their modules on first access
(PEP 562), so `import bpt` loads no module, and no numpy, until a name is
used. Submodules import as usual: ``from bpt import kernels``.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "AmplificationPlan": "vocab",
    "ArticleRecord": "mesh_filter",
    "Corpus": "corpus",
    "Document": "corpus",
    "GenerationReport": "instances",
    "InstanceConfig": "settings",
    "InstanceTally": "instances",
    "Manifest": "serialize",
    "MeshRuleset": "mesh_filter",
    "Origin": "corpus",
    "PretrainInstance": "instances",
    "Shard": "corpus",
    "TokenSequence": "tokenizer",
    "Tolerances": "settings",
    "VerificationReport": "verify",
    "Vocabulary": "vocab",
    "WordPieceTokenizer": "tokenizer",
    "coverage_report": "vocab",
    "create_instances_from_documents": "instances",
    "generate_conventional": "instances",
    "generate_simpt": "instances",
    "generate_simpt_from_documents": "instances",
    "load_corpus": "corpus",
    "mask_tokens": "instances",
    "normalize": "vocab",
    "pair_diversity": "instances",
    "plan_amplification": "vocab",
    "read_documents": "corpus",
    "read_instances": "serialize",
    "select_articles": "mesh_filter",
    "split_corpus": "corpus",
    "train_bpe": "vocab",
    "tree_matches": "mesh_filter",
    "verify_file": "verify",
    "wordpiece_tokenize": "tokenizer",
    "write_instances": "serialize",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
