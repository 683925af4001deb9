"""Command-line pipeline: filter, shard, build-vocab, tokenize,
create-instances, verify, compare.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 I/O error. Every subcommand accepts --config FILE (JSON, flat keys named
like the long flags with dashes as underscores); explicit flags override
config-file values, which are cast like the flag of the same name; an on/off
flag's value must be JSON true, false or null. Logs go to stderr; data and
reports go to stdout or the requested output file.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from pathlib import Path

from .corpus import Origin, load_corpus, split_corpus, text_lines, write_document_text
from .errors import (
    BptError,
    CorpusError,
    InstanceError,
    InstanceFileError,
    RulesetError,
    UsageError,
    VocabError,
)
from .instances import InstanceConfig, generate_conventional, generate_simpt
from .mesh_filter import load_ruleset, parse_records_jsonl, select_articles
from .serialize import (
    Manifest,
    manifest_path,
    open_instance_set,
    sha256_file,
    write_instances,
    write_instances_jsonl,
)
from .tokenizer import WordPieceTokenizer
from .vocab import (
    DEFAULT_MIN_FREQUENCY,
    DEFAULT_TARGET_SIZE,
    AmplificationPlan,
    Vocabulary,
    combined_word_counts,
    corpus_word_counts_and_bytes,
    train_bpe,
)
from .verify import Tolerances, render_table, verify_file

log = logging.getLogger("bpt")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

# config keys with no flag to take their type from
_CONFIG_ONLY_TYPES = {"mask_selection_target": float}

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(kib|mib|gib|kb|mb|gb|b)?\s*$", re.IGNORECASE)
_SIZE_UNITS = {
    None: 1,
    "b": 1,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
    "kib": 2**10,
    "mib": 2**20,
    "gib": 2**30,
}


def parse_size(value) -> int:
    """Byte sizes like "10MB" (decimal) or "4MiB" (binary); bare ints are bytes."""
    if isinstance(value, int):
        return value
    m = _SIZE_RE.match(str(value))
    if not m:
        raise UsageError(f"cannot parse size {value!r}")
    number, unit = m.groups()
    return int(float(number) * _SIZE_UNITS[unit.lower() if unit else None])


class _Options:
    """Flag values with config-file fallback: explicit flags win."""

    def __init__(self, args: argparse.Namespace, cfg: dict):
        self.args = args
        self.cfg = cfg

    def get(self, key: str, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if self.cfg.get(key) is not None:  # a null config value is unset
            return self.cfg[key]
        return default

    def require(self, key: str, flag: str):
        value = self.get(key)
        if value is None:
            raise UsageError(f"{flag} is required (flag or config key '{key}')")
        return value


def _check_input(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    return p


def _positive_size(opts: _Options, key: str, default=None) -> "int | None":
    """The byte size under `key` (None when unset and no default); a size
    below 1 byte is a usage error naming the flag."""
    value = opts.get(key, default)
    if value is None:
        return None
    size = parse_size(value)
    if size <= 0:
        raise UsageError(f"--{key.replace('_', '-')} must be positive, got {size}")
    return size


def _not_utf8(name, exc: UnicodeDecodeError) -> CorpusError:
    """The I/O error (exit 3) for text input that is not UTF-8, as load_corpus raises."""
    return CorpusError(f"{name}: invalid UTF-8 ({exc.reason})")


def _load_corpora(opts: _Options, small_path, large_path) -> tuple:
    """The small and large corpora; None for one not given."""
    return tuple(
        load_corpus(_check_input(path, f"{name} corpus"), opts.get(f"{name}_label", name), origin)
        if path else None
        for name, path, origin in (("small", small_path, Origin.SMALL), ("large", large_path, Origin.LARGE))
    )


def _emit_report(payload: dict, report_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if report_path:
        Path(report_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_filter(args, cfg) -> int:
    opts = _Options(args, cfg)
    ruleset_arg = opts.require("ruleset", "--ruleset")
    try:
        ruleset = load_ruleset(ruleset_arg)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    in_path = _check_input(opts.require("infile", "--in"), "input file")
    out_path = Path(opts.require("out", "--out"))

    with open(in_path, encoding="utf-8") as f:
        records = parse_records_jsonl(f)
        included, report = select_articles(records, ruleset)
        with open(out_path, "w", encoding="utf-8") as out:
            first = True
            try:
                for record in included:
                    sentences = [line.strip() for line in text_lines(record.text) if line.strip()]
                    if not sentences:
                        continue
                    if not first:
                        out.write("\n")
                    out.write("\n".join(sentences) + "\n")
                    first = False
            except UnicodeDecodeError as exc:
                raise _not_utf8(in_path, exc) from exc
    payload = {"ruleset": ruleset.name, **report.to_dict()}
    _emit_report(payload, opts.get("report"))
    log.info("filter: %d/%d records included -> %s", report.included, report.total, out_path)
    return EXIT_OK


def cmd_shard(args, cfg) -> int:
    opts = _Options(args, cfg)
    in_path = _check_input(opts.require("infile", "--in"), "input corpus")
    out_dir = Path(opts.require("out_dir", "--out-dir"))
    label = opts.get("label", "corpus")
    try:
        origin = Origin.parse(opts.get("origin", "small"))
    except CorpusError as exc:  # a config value skips the flag's choices
        raise UsageError(f"--origin: {exc}") from exc
    each = _positive_size(opts, "each_file_size", "10MB")

    corpus = load_corpus(in_path, label, origin)
    shards = split_corpus(corpus, each)
    out_dir.mkdir(parents=True, exist_ok=True)
    for shard in shards:
        (out_dir / f"shard-{shard.shard_id:05d}.txt").write_text(
            write_document_text(shard.documents), encoding="utf-8"
        )
    payload = {
        "label": label,
        "documents": len(corpus.documents),
        "total_bytes": corpus.total_bytes,
        "each_file_size": each,
        "shards": len(shards),
        "shard_bytes": [s.byte_size for s in shards],
    }
    _emit_report(payload, opts.get("report"))
    return EXIT_OK


def cmd_build_vocab(args, cfg) -> int:
    opts = _Options(args, cfg)
    small_path = opts.get("small")
    large_path = opts.get("large")
    amplify = bool(opts.get("amplify", False))
    if small_path is None and large_path is None:
        raise UsageError("at least one corpus (--small/--large) is required")
    if amplify and (small_path is None or large_path is None):
        raise UsageError("--amplify requires both --small and --large corpora")
    out_path = Path(opts.require("out", "--out"))
    target_size = opts.get("target_size", DEFAULT_TARGET_SIZE)
    min_frequency = opts.get("min_frequency", DEFAULT_MIN_FREQUENCY)

    # One counting pass per corpus gives both its word counts and its byte
    # size; the corpora and their own counts are let go before training.
    small, large = _load_corpora(opts, small_path, large_path)
    small_counts, small_bytes = corpus_word_counts_and_bytes(small) if small else ({}, 0)
    large_counts, large_bytes = corpus_word_counts_and_bytes(large) if large else ({}, 0)
    del small, large
    repeat_factor = None
    if amplify:
        repeat_factor = AmplificationPlan.from_sizes(small_bytes, large_bytes).repeat_factor
    counts = combined_word_counts(small_counts, large_counts, repeat_factor or 1)
    del small_counts, large_counts

    vocabulary, train_report = train_bpe(counts, target_size, min_frequency=min_frequency)
    train_report.repeat_factor = repeat_factor
    merges_out = opts.get("merges_out")
    vocabulary.save(out_path, merges_out)
    for warning in train_report.warnings:
        log.warning("build-vocab: %s", warning)
    _emit_report(train_report.to_dict(), opts.get("report"))
    return EXIT_OK


def cmd_tokenize(args, cfg) -> int:
    opts = _Options(args, cfg)
    vocabulary = Vocabulary.load(_check_input(opts.require("vocab", "--vocab"), "vocabulary"))
    tokenizer = WordPieceTokenizer(vocabulary)
    infile = opts.get("infile")
    outfile = opts.get("out")
    fin = open(_check_input(infile, "input file"), encoding="utf-8") if infile else sys.stdin
    fout = open(outfile, "w", encoding="utf-8") if outfile else sys.stdout
    try:
        for line in fin:
            line = line.rstrip("\n")
            if not line.strip():
                fout.write("\n")
                continue
            fout.write(" ".join(tokenizer.tokenize(line).tokens) + "\n")
    except UnicodeDecodeError as exc:
        raise _not_utf8(infile or "<stdin>", exc) from exc
    finally:
        if infile:
            fin.close()
        if outfile:
            fout.close()
    return EXIT_OK


def _build_instance_config(opts: _Options, mode: str) -> InstanceConfig:
    rounds = opts.get("rounds")
    if mode == "simpt" and rounds is None:
        raise UsageError("--rounds is required in simpt mode")
    return InstanceConfig(
        max_seq_length=opts.get("max_seq_length", 128),
        masked_lm_prob=opts.get("masked_lm_prob", 0.15),
        max_predictions_per_seq=opts.get("max_predictions_per_seq", 20),
        short_seq_prob=opts.get("short_seq_prob", 0.10),
        dupe_factor=opts.get("dupe_factor", 1),
        n_rounds=rounds if rounds is not None else 0,
        n_splits=opts.get("n_splits", 1),
        shards_per_corpus=opts.get("shards_per_corpus", 10),
        master_seed=opts.get("seed", 0),
    )


def cmd_create_instances(args, cfg) -> int:
    opts = _Options(args, cfg)
    mode = str(opts.require("mode", "--mode")).lower()
    if mode not in ("simpt", "conventional"):
        raise UsageError(f"--mode must be 'simpt' or 'conventional', got {mode!r}")
    small_path = opts.get("small")
    large_path = opts.get("large")
    if mode == "simpt" and not (small_path and large_path):
        raise UsageError("simpt requires two corpora (--small and --large)")
    if not small_path and not large_path:
        raise UsageError("at least one corpus (--small/--large) is required")
    icfg = _build_instance_config(opts, mode)
    out_path = Path(opts.require("out", "--out"))
    fmt = str(opts.get("format", "binary")).lower()
    if fmt not in ("binary", "jsonl"):
        raise UsageError(f"--format must be 'binary' or 'jsonl', got {fmt!r}")
    each = _positive_size(opts, "each_file_size", "10MB")
    max_file_bytes = _positive_size(opts, "max_file_bytes")
    if fmt == "jsonl" and max_file_bytes is not None:
        raise UsageError("--max-file-bytes rotates binary output only; it cannot be used with --format jsonl")

    vocabulary = Vocabulary.load(_check_input(opts.require("vocab", "--vocab"), "vocabulary"))
    tokenizer = WordPieceTokenizer(vocabulary)
    small, large = _load_corpora(opts, small_path, large_path)

    if mode == "simpt":
        small_shards = split_corpus(small, each)
        large_shards = split_corpus(large, each)
        stream, report = generate_simpt(small_shards, large_shards, tokenizer, icfg)
    else:
        docs = (small.documents if small else []) + (large.documents if large else [])
        stream, report = generate_conventional(docs, tokenizer, icfg)

    run_config = {
        "mode": mode,
        "small_corpus": str(small_path) if small_path else None,
        "large_corpus": str(large_path) if large_path else None,
        "small_label": opts.get("small_label", "small"),
        "large_label": opts.get("large_label", "large"),
        "vocab": str(opts.get("vocab")),
        "out": str(out_path),
        "format": fmt,
        "each_file_size": each,
        **icfg.to_dict(),
    }

    if fmt == "binary":
        manifest = write_instances(
            stream,
            out_path,
            vocabulary,
            icfg,
            statistics=lambda: report.to_dict(),
            max_file_bytes=max_file_bytes,
            run_config=run_config,
        )
    else:
        count = write_instances_jsonl(stream, out_path, vocabulary, icfg)
        manifest = Manifest(
            files=[{"name": out_path.name, "instances": count, "sha256": sha256_file(out_path)}],
            max_seq_length=icfg.max_seq_length,
            instance_count=count,
            master_seed=icfg.master_seed,
            config=run_config,
            statistics=report.to_dict(),
            format="jsonl",
        )
        manifest.write(manifest_path(out_path))
    _emit_report(report.to_dict(), opts.get("report"))
    log.info("create-instances: wrote %d instances to %s", report.instances, out_path)
    return EXIT_OK


# verify flags and config keys that override the Tolerances default of the same name
_TOLERANCE_KEYS = (
    "mask_selection_target",
    "mask_selection_tol",
    "mask_split_tol",
    "nsp_tol",
    "origin_tol",
    "min_instances",
    "min_masked",
    "min_candidates",
)


def cmd_verify(args, cfg) -> int:
    opts = _Options(args, cfg)
    infile = opts.require("infile", "--in")
    vocabulary = Vocabulary.load(_check_input(opts.require("vocab", "--vocab"), "vocabulary"))

    tol = Tolerances()
    for key in _TOLERANCE_KEYS:
        value = opts.get(key)
        if value is not None:
            setattr(tol, key, value)
    origin_target = opts.get("expected_origin_fraction")
    if origin_target is not None and not 0.0 <= origin_target <= 1.0:
        raise UsageError(f"--expected-origin-fraction must be in [0, 1], got {origin_target}")

    try:
        instance_set = open_instance_set(infile)
        if bool(opts.get("no_origin_check", False)):
            tol.origin_target = None
        elif origin_target is not None:
            tol.origin_target = origin_target
        elif instance_set.mode == "conventional":
            log.info("verify: conventional-mode file; origin-balance check skipped "
                     "(pass --expected-origin-fraction to enable)")
            tol.origin_target = None
        report = verify_file(instance_set, vocabulary, tol)
    except InstanceFileError as exc:
        log.error("verify: %s", exc)
        return EXIT_VERIFY
    if bool(opts.get("json", False)):
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_table())
    if opts.get("report"):
        _emit_report(report.to_dict(), opts.get("report"))
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_compare(args, cfg) -> int:
    opts = _Options(args, cfg)
    paths = [Path(p) for p in (args.files or [])]
    if len(paths) != 2:
        raise UsageError("compare requires exactly two instance files")
    labels = opts.get("labels")
    names = labels.split(",") if labels else [p.name for p in paths]
    if len(names) != 2:
        raise UsageError("--labels must provide two comma-separated names")
    rows = []
    for path in paths:
        instance_set = open_instance_set(path)
        report = verify_file(instance_set)
        rows.append({
            "path": str(path),
            "mode": instance_set.mode,
            "instances": report.instances,
            "max_seq_length": instance_set.max_seq_length,
            "nsp_positive_rate": report.nsp_positive_rate,
            "small_origin_fraction": report.small_origin_fraction,
            "distinct_negative_pairs": report.distinct_negative_pairs,
        })

    def fmt(value):
        if value is None:
            return "insufficient data"
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    metrics = [
        "mode",
        "instances",
        "distinct_negative_pairs",
        "nsp_positive_rate",
        "small_origin_fraction",
    ]
    table = [("metric", names[0].strip(), names[1].strip())]
    for metric in metrics:
        table.append((metric, fmt(rows[0][metric]), fmt(rows[1][metric])))
    print(render_table(table))
    if opts.get("report"):
        _emit_report({"a": rows[0], "b": rows[1]}, opts.get("report"))
    return EXIT_OK


def cmd_dump_ruleset(args, cfg) -> int:
    try:
        ruleset = load_ruleset(args.name)
    except FileNotFoundError as exc:
        raise UsageError(str(exc)) from exc
    print(json.dumps(ruleset.to_dict(), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--report", help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="bpt", description="Balanced pre-training data toolkit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("filter", parents=[common], help="select articles by MeSH tree-number rules")
    p.add_argument("--ruleset", help="ruleset JSON path or bundled name (sP, fP)")
    p.add_argument("--in", dest="infile", help="JSON Lines article records")
    p.add_argument("--out", help="output corpus text file")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("shard", parents=[common], help="split a corpus into fixed-size shards")
    p.add_argument("--in", dest="infile", help="corpus text file or directory")
    p.add_argument("--label", help="corpus label for doc ids")
    p.add_argument("--origin", choices=["small", "large"], help="origin tag")
    p.add_argument("--each-file-size", dest="each_file_size", help="shard target size (e.g. 10MB)")
    p.add_argument("--out-dir", dest="out_dir", help="directory for shard files")
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser("build-vocab", parents=[common], help="train a BPE vocabulary")
    p.add_argument("--small", help="small corpus path")
    p.add_argument("--large", help="large corpus path")
    p.add_argument("--small-label", dest="small_label")
    p.add_argument("--large-label", dest="large_label")
    p.add_argument("--amplify", action="store_const", const=True, default=None,
                   help="repeat the small corpus to match the large corpus size")
    p.add_argument("--target-size", dest="target_size", type=int)
    p.add_argument("--min-frequency", dest="min_frequency", type=int)
    p.add_argument("--out", help="vocabulary file (one token per line)")
    p.add_argument("--merges-out", dest="merges_out", help="optional merges sidecar file")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("tokenize", parents=[common], help="WordPiece-tokenize sentence-per-line text")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--in", dest="infile", help="input text (default stdin)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("create-instances", parents=[common], help="generate MLM/NSP instances")
    p.add_argument("--mode", choices=["simpt", "conventional"])
    p.add_argument("--small", help="small corpus path")
    p.add_argument("--large", help="large corpus path")
    p.add_argument("--small-label", dest="small_label")
    p.add_argument("--large-label", dest="large_label")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--out", help="output instance file")
    p.add_argument("--format", choices=["binary", "jsonl"])
    p.add_argument("--rounds", type=int, help="simpt sampling rounds")
    p.add_argument("--dupe-factor", dest="dupe_factor", type=int)
    p.add_argument("--n-splits", dest="n_splits", type=int, help="conventional group count")
    p.add_argument("--shards-per-corpus", dest="shards_per_corpus", type=int)
    p.add_argument("--each-file-size", dest="each_file_size", help="shard target size (e.g. 10MB)")
    p.add_argument("--max-seq-length", dest="max_seq_length", type=int)
    p.add_argument("--masked-lm-prob", dest="masked_lm_prob", type=float)
    p.add_argument("--max-predictions-per-seq", dest="max_predictions_per_seq", type=int)
    p.add_argument("--short-seq-prob", dest="short_seq_prob", type=float)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--max-file-bytes", dest="max_file_bytes",
                   help="rotate output files above this body size")
    p.set_defaults(func=cmd_create_instances)

    p = sub.add_parser("verify", parents=[common], help="check an instance file's statistics")
    p.add_argument("--in", dest="infile", help="instance file")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--expected-origin-fraction", dest="expected_origin_fraction", type=float)
    p.add_argument("--no-origin-check", dest="no_origin_check", action="store_const", const=True,
                   default=None)
    p.add_argument("--mask-selection-tol", dest="mask_selection_tol", type=float)
    p.add_argument("--mask-split-tol", dest="mask_split_tol", type=float)
    p.add_argument("--nsp-tol", dest="nsp_tol", type=float)
    p.add_argument("--origin-tol", dest="origin_tol", type=float)
    p.add_argument("--min-instances", dest="min_instances", type=int)
    p.add_argument("--min-masked", dest="min_masked", type=int)
    p.add_argument("--min-candidates", dest="min_candidates", type=int)
    p.add_argument("--json", action="store_const", const=True, default=None,
                   help="print the JSON report instead of the table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", parents=[common],
                       help="side-by-side statistics of two instance files")
    p.add_argument("files", nargs="*", help="two instance files")
    p.add_argument("--labels", help="two comma-separated column names")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dump-ruleset", parents=[common], help="print a bundled MeSH ruleset")
    p.add_argument("name", help="sP or fP, or a path")
    p.set_defaults(func=cmd_dump_ruleset)

    for p in sub.choices.values():
        types = {action.dest: action.type for action in p._actions if action.type}
        types.update((action.dest, bool) for action in p._actions if action.const is True)
        p.set_defaults(config_types={**_CONFIG_ONLY_TYPES, **types})
    return parser


def _config_value(cast, value):
    """A config value cast as its flag's type casts the flag's text; an on/off
    flag (cast `bool`) takes only a JSON true or false."""
    if cast is not bool:
        return cast(str(value))
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    cfg: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            log.error("config file not found: %s", config_path)
            return EXIT_USAGE
        except ValueError as exc:  # not UTF-8 or not JSON
            log.error("config file %s is not valid JSON: %s", config_path, exc)
            return EXIT_USAGE
        if not isinstance(cfg, dict):
            log.error("config file %s must hold a JSON object", config_path)
            return EXIT_USAGE
    for key, value in cfg.items():
        cast = args.config_types.get(key)
        if cast is not None and value is not None:
            try:
                cfg[key] = _config_value(cast, value)
            except ValueError:
                log.error("config file %s: key '%s' must be %s, got %r",
                          config_path, key, cast.__name__, value)
                return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except (UsageError, RulesetError, VocabError, InstanceError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (BptError, OSError) as exc:  # corpus, serialize and instance file errors
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
