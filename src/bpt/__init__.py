"""Balanced pre-training data toolkit.

Pipeline: filter (MeSH rules) -> shard -> build vocabulary (optionally
amplified) -> generate MLM/NSP instances (balanced or conventional) ->
verify balance and masking statistics.
"""

from .corpus import Corpus, Document, Origin, Shard, load_corpus, split_corpus
from .instances import (
    GenerationReport,
    InstanceConfig,
    InstanceTally,
    PretrainInstance,
    create_instances_from_documents,
    generate_conventional,
    generate_simpt,
    mask_tokens,
    pair_diversity,
)
from .mesh_filter import ArticleRecord, MeshRuleset, select_articles, tree_matches
from .serialize import Manifest, read_instances, write_instances
from .tokenizer import TokenSequence, WordPieceTokenizer, wordpiece_tokenize
from .verify import Tolerances, VerificationReport, verify_file
from .vocab import (
    AmplificationPlan,
    Vocabulary,
    coverage_report,
    normalize,
    plan_amplification,
    train_bpe,
)

__version__ = "0.1.0"

__all__ = [
    "AmplificationPlan",
    "ArticleRecord",
    "Corpus",
    "Document",
    "GenerationReport",
    "InstanceConfig",
    "InstanceTally",
    "Manifest",
    "MeshRuleset",
    "Origin",
    "PretrainInstance",
    "Shard",
    "TokenSequence",
    "Tolerances",
    "VerificationReport",
    "Vocabulary",
    "WordPieceTokenizer",
    "coverage_report",
    "create_instances_from_documents",
    "generate_conventional",
    "generate_simpt",
    "load_corpus",
    "mask_tokens",
    "normalize",
    "pair_diversity",
    "plan_amplification",
    "read_instances",
    "select_articles",
    "split_corpus",
    "train_bpe",
    "tree_matches",
    "verify_file",
    "wordpiece_tokenize",
    "write_instances",
]
