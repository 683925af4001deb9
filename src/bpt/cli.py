"""Command-line pipeline: filter, shard, build-vocab, tokenize,
create-instances, verify, compare.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 I/O error. Every subcommand accepts --config FILE, and every one that
writes a JSON report accepts --report FILE (tokenize and dump-ruleset write
none, so they take no --report). A config file is a JSON object whose keys
are the subcommand's flags, named like the long flags with dashes as
underscores (`--in` is `infile`). Each value is checked once, by the rules of
the flag it sets, and becomes that flag's default, so explicit flags win:
a key that names no flag exits 2; a null value means unset; an on/off flag
takes only JSON true or false; any other value is read as the flag's text
(a JSON bool, array or object exits 2) and must be in the flag's choices.
Logs go to stderr; data and reports go to stdout or the requested output file.
Each output file is written under a temporary name and renamed once whole
(`staging.staged_files`), so a failed run keeps an earlier file at its path.
Every command that writes a report checks, before it reads any input, that
the directory of each output file (--out, --merges-out, --report) exists and
that no two of its outputs (create-instances' manifest sidecar among them)
name one file, nor an output an input file or a file of a corpus directory
(nor shard's --out-dir such a directory); shard and create-instances also
check that --report names no file of the set they write.
build-vocab and create-instances log the interpreter's Unicode database
version, which normalization depends on.

Each `cmd_*` imports the modules it runs when it runs; this module itself
imports only `errors` and `settings`, where the parser's defaults live. So
filter, shard, tokenize, build-vocab and dump-ruleset never load numpy, and
a process pays start-up only for its own command.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import logging
import operator
import os
import re
import sys
import time
import unicodedata
from pathlib import Path

from .errors import (
    BptError,
    CorpusError,
    InstanceError,
    InstanceFileError,
    RulesetError,
    UsageError,
    VocabError,
)
from .settings import DEFAULT_MIN_FREQUENCY, DEFAULT_TARGET_SIZE, InstanceConfig, Tolerances

log = logging.getLogger("bpt")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

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


def _require(args: argparse.Namespace, key: str, flag: str):
    value = getattr(args, key)
    if value is None:
        raise UsageError(f"{flag} is required (flag or config key '{key}')")
    return value


def _check_input(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    return p


def _check_corpus(path, what: str) -> Path:
    """A corpus path: one that exists, or a glob pattern (see
    `corpus.is_pattern`), which fails as it is read if it matches no file."""
    from .corpus import is_pattern

    p = Path(path)
    if not p.exists() and not is_pattern(p):
        raise UsageError(f"{what} not found: {p}")
    return p


def _positive_size(args: argparse.Namespace, key: str) -> "int | None":
    """The byte size under `key` (None when unset); a size below 1 byte is a
    usage error naming the flag."""
    value = getattr(args, key)
    if value is None:
        return None
    size = parse_size(value)
    if size <= 0:
        raise UsageError(f"--{key.replace('_', '-')} must be positive, got {size}")
    return size


def _not_utf8(name, exc: UnicodeDecodeError) -> CorpusError:
    """The I/O error (exit 3) for text input that is not UTF-8, as load_corpus raises."""
    return CorpusError(f"{name}: invalid UTF-8 ({exc.reason})")


def _check_outputs(args: argparse.Namespace, *keys: str, also: tuple = (), inputs: tuple = (),
                   out_dir=None) -> None:
    """A usage error naming the flag when the directory an output file under
    `keys` would go to does not exist, or naming both when two outputs (those
    files and the (name, path) pairs `also` adds) are one file, or when an
    output is one of `inputs`, the (name, path) pairs the command reads, or a
    file directly inside one that is a directory (a corpus directory, whose
    files are read); `out_dir`, shard's directory, may not be such a
    directory either. So a run fails before it reads any input, not after its
    work is done or after an output has replaced another or an input. Paths
    are compared by `os.path.abspath`, which follows no link, so /dev/stdout
    and /dev/stderr stay two outputs."""
    outputs = {}
    for name, value in [(f"--{key.replace('_', '-')}", getattr(args, key)) for key in keys] + list(also):
        if value is None:
            continue
        if not Path(value).parent.is_dir():
            raise UsageError(f"{name}: directory {Path(value).parent} does not exist")
        same = outputs.setdefault(os.path.abspath(value), name)
        if same != name:
            raise UsageError(f"{same} and {name} name the same file {value}")
    for source, value in inputs:
        if value is None:
            continue
        path = os.path.abspath(value)
        if path in outputs:
            raise UsageError(f"{outputs[path]} and {source} name the same file {value}")
        if Path(value).is_dir():
            inside = [name for output, name in outputs.items() if os.path.dirname(output) == path]
            if out_dir is not None and os.path.abspath(out_dir) == path:
                inside.append("--out-dir")
            if inside:
                raise UsageError(f"{inside[0]} would write into the directory {value} whose files {source} reads")


def _check_report_outside(args: argparse.Namespace, directory, names: str, owner: str) -> None:
    """A usage error naming both flags when --report names a file in
    `directory` whose name matches `names`, the pattern the set that flag
    `owner` writes passes to `staging.remove_unlisted`: the report would
    replace one of the set's files, or a later run's cleanup would remove it.
    Directories are compared as `_check_outputs` compares paths."""
    report = args.report
    if (report is not None and re.fullmatch(names, Path(report).name)
            and os.path.abspath(Path(report).parent) == os.path.abspath(directory)):
        raise UsageError(f"--report {report} names a file of the set that {owner} writes")


def _load_corpora(args: argparse.Namespace, read) -> tuple:
    """`read(path, label, origin)` of the small and the large corpus; None
    for one not given. A corpus is labelled by --small-label/--large-label
    where the command has them, and else by its origin ("small", "large")."""
    from .corpus import Origin

    return tuple(
        read(_check_corpus(path, f"{origin.value} corpus"), getattr(args, f"{origin.value}_label", origin.value),
             origin) if path else None
        for path, origin in ((args.small, Origin.SMALL), (args.large, Origin.LARGE))
    )


def _emit_report(payload: dict, report_path) -> None:
    """Print the report, or write it whole to `report_path` (staged, so a
    failed write keeps an earlier report there)."""
    from .staging import staged_files

    text = json.dumps(payload, indent=2, sort_keys=True)
    if report_path:
        with staged_files() as stage:
            stage(report_path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_filter(args) -> int:
    from .corpus import text_lines
    from .mesh_filter import load_ruleset, parse_records_jsonl, select_articles
    from .staging import staged_files

    ruleset_arg = _require(args, "ruleset", "--ruleset")
    in_path = _check_input(_require(args, "infile", "--in"), "input file")
    out_path = Path(_require(args, "out", "--out"))
    _check_outputs(args, "out", "report", inputs=(("--in", in_path), ("--ruleset", ruleset_arg)))
    ruleset = load_ruleset(ruleset_arg)

    # --out is staged, so input that fails to parse leaves an earlier --out as it was
    with open(in_path, encoding="utf-8") as f, staged_files() as stage:
        records = parse_records_jsonl(f)
        included, report = select_articles(records, ruleset)
        with open(stage(out_path), "w", encoding="utf-8") as out:
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
    _emit_report(payload, args.report)
    log.info("filter: %d/%d records included -> %s", report.included, report.total, out_path)
    return EXIT_OK


def cmd_shard(args) -> int:
    from .corpus import Origin, pack_shards, read_documents, write_document_text
    from .staging import PART_NUMBER, remove_unlisted, staged_files

    in_path = _check_corpus(_require(args, "infile", "--in"), "input corpus")
    out_dir = Path(_require(args, "out_dir", "--out-dir"))
    each = _positive_size(args, "each_file_size")
    _check_outputs(args, "report", inputs=(("--in", in_path),), out_dir=out_dir)
    shard_names = rf"shard-{PART_NUMBER}\.txt"
    _check_report_outside(args, out_dir, shard_names, "--out-dir")

    # Each document goes to its shard file as it is read, so only it is held.
    # The shards are staged, so an input that fails to read leaves none, and
    # an earlier set at --out-dir stays as it was; once they are renamed into
    # place, the earlier set's higher-numbered shards go. A shard file holds
    # no origin, so the documents are read with a fixed one.
    shards = pack_shards(read_documents(in_path, args.label, Origin.SMALL), operator.attrgetter("byte_size"), each)
    shard_bytes: list[int] = []
    count = 0
    with staged_files() as stage:
        for k, shard in enumerate(shards):
            out_dir.mkdir(parents=True, exist_ok=True)
            shard_bytes.append(0)
            with open(stage(out_dir / f"shard-{k:05d}.txt"), "w", encoding="utf-8") as out:
                for n, doc in enumerate(shard):
                    out.write(("\n" if n else "") + write_document_text([doc]))  # a blank line between documents
                    shard_bytes[-1] += doc.byte_size
                    count += 1
    # An earlier run's shards numbered past this run's last one are not part of this set.
    remove_unlisted(out_dir, shard_names, {f"shard-{k:05d}.txt" for k in range(len(shard_bytes))})
    payload = {
        "label": args.label,
        "documents": count,
        "total_bytes": sum(shard_bytes),
        "each_file_size": each,
        "shards": len(shard_bytes),
        "shard_bytes": shard_bytes,
    }
    _emit_report(payload, args.report)
    return EXIT_OK


def cmd_build_vocab(args) -> int:
    from .corpus import read_documents
    from .vocab import AmplificationPlan, combined_word_counts, corpus_word_counts_and_bytes, train_bpe

    if args.small is None and args.large is None:
        raise UsageError("at least one corpus (--small/--large) is required")
    if args.amplify and (args.small is None or args.large is None):
        raise UsageError("--amplify requires both --small and --large corpora")
    out_path = Path(_require(args, "out", "--out"))
    _check_outputs(args, "out", "merges_out", "report", inputs=(("--small", args.small), ("--large", args.large)))
    # Outputs match only across interpreters with this Unicode database; the
    # version goes to the log, never into an output that must stay identical.
    log.info("build-vocab: Unicode database %s", unicodedata.unidata_version)

    # One counting pass over each corpus's stream of documents gives both its
    # word counts and its byte size; the counts are let go before training.
    small, large = _load_corpora(args, read_documents)
    small_counts, small_bytes = corpus_word_counts_and_bytes(small) if small else ({}, 0)
    large_counts, large_bytes = corpus_word_counts_and_bytes(large) if large else ({}, 0)
    repeat_factor = None
    if args.amplify:
        repeat_factor = AmplificationPlan.from_sizes(small_bytes, large_bytes).repeat_factor
    counts = combined_word_counts(small_counts, large_counts, repeat_factor or 1)
    del small_counts, large_counts

    start = time.perf_counter()
    vocabulary, train_report = train_bpe(counts, args.target_size, min_frequency=args.min_frequency)
    seconds = time.perf_counter() - start
    log.info("build-vocab: %d merges in %.2f s (%.0f merges/s)", train_report.merges_performed, seconds,
             train_report.merges_performed / seconds if seconds > 0 else 0.0)
    train_report.repeat_factor = repeat_factor
    vocabulary.save(out_path, args.merges_out)
    for warning in train_report.warnings:
        log.warning("build-vocab: %s", warning)
    _emit_report(train_report.to_dict(), args.report)
    return EXIT_OK


def cmd_tokenize(args) -> int:
    from .staging import staged_files
    from .tokenizer import WordPieceTokenizer
    from .vocab import Vocabulary

    vocabulary = Vocabulary.load(_check_input(_require(args, "vocab", "--vocab"), "vocabulary"))
    tokenizer = WordPieceTokenizer(vocabulary)
    # closes what it opened, stdin and stdout staying open; --out is staged,
    # so input that fails to read leaves an earlier --out as it was
    with staged_files() as stage, contextlib.ExitStack() as files:
        fin = (files.enter_context(open(_check_input(args.infile, "input file"), encoding="utf-8"))
               if args.infile else sys.stdin)
        fout = files.enter_context(open(stage(args.out), "w", encoding="utf-8")) if args.out else sys.stdout
        try:
            for line in fin:
                line = line.rstrip("\n")
                if not line.strip():
                    fout.write("\n")
                    continue
                fout.write(" ".join(tokenizer.tokenize(line).tokens) + "\n")
        except UnicodeDecodeError as exc:
            raise _not_utf8(args.infile or "<stdin>", exc) from exc
    return EXIT_OK


# create-instances flags that set the InstanceConfig field of the same name
_INSTANCE_KEYS = (
    "max_seq_length",
    "masked_lm_prob",
    "max_predictions_per_seq",
    "short_seq_prob",
    "dupe_factor",
    "n_splits",
    "shards_per_corpus",
)


def cmd_create_instances(args) -> int:
    from .corpus import read_documents
    from .instances import generate_conventional, generate_simpt_from_documents
    from .serialize import instance_file_names, manifest_path, write_instances
    from .tokenizer import WordPieceTokenizer
    from .vocab import Vocabulary

    mode = _require(args, "mode", "--mode")
    if mode == "simpt" and not (args.small and args.large):
        raise UsageError("simpt requires two corpora (--small and --large)")
    if not args.small and not args.large:
        raise UsageError("at least one corpus (--small/--large) is required")
    if mode == "simpt" and args.rounds is None:
        raise UsageError("--rounds is required in simpt mode")
    if mode == "simpt" and args.rounds < 1:  # zero rounds would write an empty set that verify passes
        raise UsageError(f"--rounds must be at least 1 in simpt mode, got {args.rounds}")
    if args.small and args.large and args.small_label == args.large_label:
        # the two corpora's documents would share ids, and the report would merge their negative pairs
        raise UsageError(f"--small-label and --large-label are both {args.small_label!r}; give each corpus its own")
    icfg = InstanceConfig(**{key: getattr(args, key) for key in _INSTANCE_KEYS}, n_rounds=args.rounds or 0,
                          master_seed=args.seed)
    out_path = Path(_require(args, "out", "--out"))
    each = _positive_size(args, "each_file_size")
    max_file_bytes = _positive_size(args, "max_file_bytes")
    if args.format == "jsonl" and max_file_bytes is not None:
        raise UsageError("--max-file-bytes rotates binary output only; it cannot be used with --format jsonl")
    _check_outputs(args, "out", "report", also=(("the manifest of --out", manifest_path(out_path)),),
                   inputs=(("--small", args.small), ("--large", args.large), ("--vocab", args.vocab)))
    _check_report_outside(args, out_path.parent, instance_file_names(out_path), "--out")
    log.info("create-instances: Unicode database %s", unicodedata.unidata_version)

    vocabulary = Vocabulary.load(_check_input(_require(args, "vocab", "--vocab"), "vocabulary"))
    tokenizer = WordPieceTokenizer(vocabulary)
    # The documents are read as they are tokenized, small corpus first, and
    # only their token ids are held. A corpus that cannot be read fails once
    # the writer has begun, which then leaves no output.
    docs = itertools.chain.from_iterable(d for d in _load_corpora(args, read_documents) if d)
    if mode == "simpt":
        stream, report = generate_simpt_from_documents(docs, each, tokenizer, icfg)
    else:
        stream, report = generate_conventional(docs, tokenizer, icfg)

    run_config = {
        "mode": mode,
        "small_corpus": args.small or None,
        "large_corpus": args.large or None,
        "small_label": args.small_label,
        "large_label": args.large_label,
        "vocab": args.vocab,
        "out": str(out_path),
        "format": args.format,
        "each_file_size": each,
        **icfg.to_dict(),
    }

    write_instances(stream, out_path, vocabulary, icfg, statistics=lambda: report.to_dict(),
                    max_file_bytes=max_file_bytes, run_config=run_config, format=args.format)
    _emit_report(report.to_dict(), args.report)
    log.info("create-instances: wrote %d instances to %s", report.instances, out_path)
    return EXIT_OK


# verify flags that set the Tolerances field of the same name
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


def cmd_verify(args) -> int:
    from .serialize import open_instance_set
    from .verify import verify_file
    from .vocab import Vocabulary

    infile = _require(args, "infile", "--in")
    _check_outputs(args, "report", inputs=(("--in", infile), ("--vocab", args.vocab)))
    origin_target = args.expected_origin_fraction
    if origin_target is not None and not 0.0 <= origin_target <= 1.0:
        raise UsageError(f"--expected-origin-fraction must be in [0, 1], got {origin_target}")
    if origin_target is not None and args.no_origin_check:
        raise UsageError("--expected-origin-fraction sets the target of the check that --no-origin-check skips; "
                         "give one of them")
    vocabulary = Vocabulary.load(_check_input(_require(args, "vocab", "--vocab"), "vocabulary"))
    tol = Tolerances(**{key: getattr(args, key) for key in _TOLERANCE_KEYS})

    try:
        instance_set = open_instance_set(infile)
        if args.no_origin_check:
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
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_table())
    if args.report:
        _emit_report(report.to_dict(), args.report)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_compare(args) -> int:
    from .serialize import open_instance_set
    from .verify import render_table, verify_file

    paths = [Path(p) for p in (args.files or [])]
    if len(paths) != 2:
        raise UsageError("compare requires exactly two instance files")
    names = args.labels.split(",") if args.labels else [p.name for p in paths]
    if len(names) != 2:
        raise UsageError("--labels must provide two comma-separated names")
    _check_outputs(args, "report", inputs=tuple(zip(("the first file", "the second file"), paths)))
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
    if args.report:
        _emit_report({"a": rows[0], "b": rows[1]}, args.report)
    return EXIT_OK


def cmd_dump_ruleset(args) -> int:
    from .mesh_filter import load_ruleset

    print(json.dumps(load_ruleset(args.name).to_dict(), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    reports = argparse.ArgumentParser(add_help=False, parents=[common])  # for commands that write a report
    reports.add_argument("--report", help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="bpt", description="Balanced pre-training data toolkit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("filter", parents=[reports], help="select articles by MeSH tree-number rules")
    p.add_argument("--ruleset", help="ruleset JSON path or bundled name (sP, fP)")
    p.add_argument("--in", dest="infile", help="JSON Lines article records")
    p.add_argument("--out", help="output corpus text file")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("shard", parents=[reports], help="split a corpus into fixed-size shards")
    p.add_argument("--in", dest="infile", help="corpus text file or directory")
    p.add_argument("--label", default="corpus", help="corpus label for doc ids")
    p.add_argument("--each-file-size", dest="each_file_size", default="10MB",
                   help="shard target size (e.g. 10MB)")
    p.add_argument("--out-dir", dest="out_dir", help="directory for shard files")
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser("build-vocab", parents=[reports], help="train a BPE vocabulary")
    p.add_argument("--small", help="small corpus path")
    p.add_argument("--large", help="large corpus path")
    p.add_argument("--amplify", action="store_true",
                   help="repeat the small corpus to match the large corpus size")
    p.add_argument("--target-size", dest="target_size", type=int, default=DEFAULT_TARGET_SIZE)
    p.add_argument("--min-frequency", dest="min_frequency", type=int, default=DEFAULT_MIN_FREQUENCY)
    p.add_argument("--out", help="vocabulary file (one token per line)")
    p.add_argument("--merges-out", dest="merges_out", help="optional merges sidecar file")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("tokenize", parents=[common], help="WordPiece-tokenize sentence-per-line text")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--in", dest="infile", help="input text (default stdin)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("create-instances", parents=[reports], help="generate MLM/NSP instances")
    p.add_argument("--mode", choices=["simpt", "conventional"])
    p.add_argument("--small", help="small corpus path")
    p.add_argument("--large", help="large corpus path")
    p.add_argument("--small-label", dest="small_label", default="small")
    p.add_argument("--large-label", dest="large_label", default="large")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--out", help="output instance file")
    p.add_argument("--format", choices=["binary", "jsonl"], default="binary")
    p.add_argument("--rounds", type=int, help="simpt sampling rounds")
    for key in _INSTANCE_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=getattr(InstanceConfig, key),
                       type=type(getattr(InstanceConfig, key)))
    p.add_argument("--each-file-size", dest="each_file_size", default="10MB",
                   help="shard target size (e.g. 10MB)")
    p.add_argument("--seed", type=int, default=InstanceConfig.master_seed, help="master seed")
    p.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    p.add_argument("--max-file-bytes", dest="max_file_bytes",
                   help="rotate output files above this body size")
    p.set_defaults(func=cmd_create_instances)

    p = sub.add_parser("verify", parents=[reports], help="check an instance file's statistics")
    p.add_argument("--in", dest="infile", help="instance file")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--expected-origin-fraction", dest="expected_origin_fraction", type=float)
    p.add_argument("--no-origin-check", dest="no_origin_check", action="store_true")
    for key in _TOLERANCE_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=getattr(Tolerances, key),
                       type=type(getattr(Tolerances, key)))
    p.add_argument("--json", action="store_true", help="print the JSON report instead of the table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", parents=[reports],
                       help="side-by-side statistics of two instance files")
    p.add_argument("files", nargs="*", help="two instance files")
    p.add_argument("--labels", help="two comma-separated column names")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dump-ruleset", parents=[common], help="print a bundled MeSH ruleset")
    p.add_argument("name", help="sP or fP, or a path")
    p.set_defaults(func=cmd_dump_ruleset)
    return parser


def _config_defaults(path, command: argparse.ArgumentParser) -> dict:
    """The values of config file `path`, each checked by the rules of the flag
    of `command` that it sets, keyed by the flag's dest; a value that breaks
    them is a usage error naming its key."""
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {path}") from exc
    except ValueError as exc:  # not UTF-8 or not JSON
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    flags = {a.dest: a for a in command._actions if a.option_strings and a.dest not in ("help", "config")}
    defaults = {}
    for key, value in cfg.items():
        action = flags.get(key)
        if action is None:
            raise UsageError(f"config file {path}: key '{key}' names no flag of {command.prog}")
        if value is None:  # null means unset
            continue
        if action.nargs == 0:  # an on/off flag
            if not isinstance(value, bool):
                raise UsageError(f"config file {path}: key '{key}' must be true or false, got {value!r}")
        else:
            cast = action.type or str
            try:
                if isinstance(value, (bool, list, dict)):  # never the text of a flag
                    raise ValueError(value)
                value = cast(str(value))
            except ValueError:
                raise UsageError(f"config file {path}: key '{key}' must be {cast.__name__}, "
                                 f"got {value!r}") from None
            if action.choices is not None and value not in action.choices:
                raise UsageError(f"config file {path}: key '{key}' ({action.option_strings[0]}) must be "
                                 f"one of {', '.join(action.choices)}, got {value!r}")
        defaults[key] = value
    return defaults


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        if args.config:
            subparsers = next(a for a in parser._actions if a.dest == "command")
            command = subparsers.choices[args.command]
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)  # again, so explicit flags win over the config
        return args.func(args)
    except (UsageError, RulesetError, VocabError, InstanceError, FileNotFoundError) as exc:
        log.error("%s", exc)
        return EXIT_USAGE
    except (BptError, OSError) as exc:  # corpus, serialize and instance file errors
        log.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
