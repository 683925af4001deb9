#!/usr/bin/env python3
"""End-to-end benchmark of the bpt pipeline on seeded synthetic corpora.

Usage (from the repository root):

    python3 bench_e2e/run.py --workload simpt-resample --seed 1 --seconds 20 --trace 0

Every workload is a closed loop with one client that runs the pipeline as
separate ``bpt`` processes (``python3 -m bpt.cli`` with ``src`` on the path),
each waiting for the previous one: ``filter`` -> ``build-vocab --amplify`` ->
``create-instances`` -> ``verify``. The stages that make up a workload's
timed pipeline (``pipeline_s``) repeat in a loop, each iteration followed by
a set-up probe (``bpt tokenize`` on empty input: import, load the
vocabulary, exit); the other stages run once, before the loop when they make
its inputs and after it otherwise. Iterations repeat in blocks until
``--seconds`` have passed, at least two blocks; a pipeline sample is the
mean over one block, and every figure is a wall-time median over samples
spread across the whole run. No stage uses more than two worker
threads. Inputs are generated from ``--seed`` by ``gen.py``; ``bpt`` only
ever sees the generated files.

Workloads (see ``WORKLOADS``) differ in shape and in their timed stages:

- ``vocab-longtail``: timed stages ``filter`` then ``build-vocab`` on a
  long-tail Zipf pair (20k-word lexicon, repeat factor about 11). Word
  counting, the second normalize pass of ``plan_amplification`` and the
  per-merge pair recount of ``train_bpe`` do the work; the tokenizer and
  instance code do none in the timed stages. Its ``create-instances`` (one
  conventional pass over the pair) and ``verify`` run once after the loop
  and only check that the trained vocabulary yields well-formed instances.
- ``simpt-resample``: timed stages ``create-instances --mode simpt
  --threads 1`` then ``verify``, with the vocabulary built once before the
  loop. Rounds draw the eight small shards many times, so each small
  sentence is tokenized several times. One untimed ``--threads 2`` run
  after the loop must write the same bytes. It is kept out of the timed
  pipeline because each GIL handoff between two threads waits on the host
  scheduler, which on a shared two-vCPU host adds a delay that varies from
  run to run.
- ``conventional-dupe``: the same corpus shape with ``--mode conventional
  --dupe-factor 5 --n-splits 10 --threads 1`` then ``verify``; every
  sentence is tokenized once.

``--trace 1`` runs the same loop, then ``traced.py`` repeats the pipeline in
this process, calling each module's public functions with timing wrappers,
and prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
stage processes that crashed or exited with an error code; a ``verify`` exit
1 (a statistical check out of tolerance) is a verdict, not an error, and is
reported in ``failed_stage_share`` and ``verify_failed_checks`` instead. It
never aborts the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

STAGE_TIMEOUT_S = 60
LOOP_LIMIT_S = 100  # no block starts later than this after launch: runs end within 180 s
MIN_SAMPLES = 2
STAGES = ("filter", "build-vocab", "create-instances", "verify")
# Host speed on small shared machines switches between a fast and a slow
# state (about 1.5x apart) every few seconds, and drifts by 10-25% within a
# minute. A pipeline sample therefore covers about eight seconds or more of
# timed stages (``Workload.passes`` iterations of the few-second instance
# pipelines, averaged), so that it measures the mix of states rather than one
# of them, and each figure is a median over samples spread across the run.
# An iteration holds little beyond its timed stages. The sub-second filter
# stage runs this many times an iteration and adds its median to the
# build-vocab time.
FILTER_REPEATS = 3
OUTPUTS = ("small.txt", "vocab.txt", "out.bin", "out.bin.manifest.json")

INSTANCE_SHAPE = gen.Shape(lexicon_words=8000, small_bytes=120_000, large_bytes=480_000,
                           shard_bytes=15_000)
LONGTAIL_SHAPE = gen.Shape(lexicon_words=20_000, small_bytes=60_000, large_bytes=700_000)


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    vocab_size: int
    timed: tuple  # stages whose times add up to pipeline_s
    mode: str
    threads: int
    check_threads: int = 0  # once per run, untimed: this thread count must give the same bytes
    passes: int = 1  # iterations per pipeline sample
    rounds: int = 0
    shards_per_corpus: int = 10
    dupe_factor: int = 1
    n_splits: int = 1

    def create_flags(self) -> list[str]:
        flags = ["--mode", self.mode, "--threads", str(self.threads),
                 "--each-file-size", str(self.shape.shard_bytes)]
        if self.mode == "simpt":
            flags += ["--rounds", str(self.rounds), "--shards-per-corpus", str(self.shards_per_corpus)]
        else:
            flags += ["--dupe-factor", str(self.dupe_factor), "--n-splits", str(self.n_splits)]
        return flags


WORKLOADS = {
    "vocab-longtail": Workload(
        LONGTAIL_SHAPE, 2200, ("filter", "build-vocab"), "conventional", threads=1
    ),
    "simpt-resample": Workload(
        INSTANCE_SHAPE, 1000, ("create-instances", "verify"), "simpt", threads=1,
        check_threads=2, passes=2, rounds=16, shards_per_corpus=3,
    ),
    "conventional-dupe": Workload(
        INSTANCE_SHAPE, 1000, ("create-instances", "verify"), "conventional", threads=1,
        passes=2, dupe_factor=5, n_splits=10,
    ),
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "pipeline_MBps": "MB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-stage figures of the same untraced runs. They are reported as
# per-layer metrics: on a small shared host their run-to-run spread over
# seeds (0.1-0.35 of the median for these sub-second to few-second processes)
# reaches the largest bound an end-to-end metric may have.
STAGE_UNITS = {
    "filter_s": "s",
    "build_vocab_s": "s",
    "create_instances_s": "s",
    "instances_per_s": "1/s",
    "verify_s": "s",
}

QUALITY_UNITS = {
    "failed_stage_share": "ratio",
    "verify_failed_checks": "count",
    "nsp_abs_error": "ratio",
    "small_origin_abs_error": "ratio",
}


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int

    @property
    def error(self) -> bool:
        """Crashed or exited with an error code; verify exits 1 when a
        statistical check fails, which is a verdict, not an error."""
        return self.exit_code not in ((0, 1) if self.stage == "verify" else (0,))


@dataclass
class Session:
    """Runs bpt stage processes in one work directory and keeps every result."""

    name: str
    work: Path
    seed: int
    workload: Workload
    runs: list = field(default_factory=list)
    problems: list = field(default_factory=list)  # failed correctness checks

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("BPT_THREADS", None)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def bpt(self, stage: str, *args: str) -> StageRun:
        """One stage process; wall time, CPU time and peak RSS of that child."""
        cmd = [sys.executable, "-m", "bpt.cli", stage, *args]
        with open(self.work / f"{stage}.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=log, env=self.env, cwd=self.work)
            watchdog = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(stage, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       proc.returncode)
        self.runs.append(run)
        self.check(not run.error, f"{stage} exited with {run.exit_code}")
        return run

    def path(self, name: str) -> str:
        return str(self.work / name)

    def report(self, name: str) -> dict:
        try:
            return json.loads((self.work / name).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.problems.append(f"missing or unreadable report {name}")
            return {}

    # -- stages ------------------------------------------------------------

    def filter(self, facts: dict) -> StageRun:
        run = self.bpt("filter", "--ruleset", "sP", "--in", self.path("articles.jsonl"),
                       "--out", self.path("small.txt"), "--report", self.path("filter.json"))
        got = self.report("filter.json")
        expected = facts["filter_expected"]
        self.check(all(got.get(k) == v for k, v in expected.items()) and got.get("skipped") == 0,
                   f"filter report {got} differs from the generated classes {expected}")
        return run

    def build_vocab(self) -> StageRun:
        run = self.bpt("build-vocab", "--small", self.path("small.txt"), "--large", self.path("large.txt"),
                       "--amplify", "--target-size", str(self.workload.vocab_size),
                       "--out", self.path("vocab.txt"), "--report", self.path("build_vocab.json"))
        got = self.report("build_vocab.json")
        self.check(got.get("final_size") == self.workload.vocab_size and not got.get("truncated"),
                   f"build-vocab stopped short of {self.workload.vocab_size}: {got}")
        return run

    def create(self, out: str, threads: "int | None" = None) -> StageRun:
        """``create-instances`` with the workload's flags; a ``threads``
        override marks a check run, kept out of the stage figures."""
        flags = self.workload.create_flags()
        if threads is not None:
            flags[flags.index("--threads") + 1] = str(threads)
        run = self.bpt("create-instances", "--small", self.path("small.txt"), "--large", self.path("large.txt"),
                       *flags, "--vocab", self.path("vocab.txt"),
                       "--seed", str(self.seed), "--out", self.path(out),
                       "--report", self.path("create.json"))
        manifest = self.report(out + ".manifest.json")
        files = manifest.get("files", [])
        self.check(len(files) == 1 and files[0].get("sha256") == sha256_file(self.work / out),
                   f"{out} does not match the sha256 in its manifest")
        if threads is not None:
            run.stage = f"create-instances --threads {threads}"
        return run

    def verify(self, out: str) -> StageRun:
        run = self.bpt("verify", "--in", self.path(out), "--vocab", self.path("vocab.txt"),
                       "--report", self.path("verify.json"))
        violations = self.report("verify.json").get("structural_violations")
        self.check(violations == 0, f"verify found {violations} structural violations")
        return run

    def setup_probe(self) -> StageRun:
        """A fresh bpt process that imports the package, loads the
        vocabulary and exits (tokenize on empty input)."""
        return self.bpt("tokenize", "--vocab", self.path("vocab.txt"))


def sha256_file(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


def run_workload(session: Session, seconds: float, launched: float) -> dict:
    """Set-up, timed loop and follow-up checks; returns the raw measurements.

    Stages outside the workload's timed pipeline run once: ``filter`` and
    ``build-vocab`` before the loop (they make the inputs of the instance
    workloads), ``create-instances`` and ``verify`` after it. The loop repeats
    only the timed stages and the set-up probes."""
    wl = session.workload
    facts = gen.write_inputs(session.work, session.seed, wl.shape)
    timed = set(wl.timed)
    if "filter" not in timed:
        session.filter(facts)
    if "build-vocab" not in timed:
        session.build_vocab()
    iterations: list[list[StageRun]] = []
    probes: list[float] = []
    first_outputs: "dict | None" = None
    loop_start = time.perf_counter()
    while True:
        for _ in range(wl.passes):
            iteration = []
            if "filter" in timed:
                iteration += [session.filter(facts) for _ in range(FILTER_REPEATS)]
            if "build-vocab" in timed:
                iteration.append(session.build_vocab())
            if "create-instances" in timed:
                iteration.append(session.create("out.bin"))
            if "verify" in timed:
                iteration.append(session.verify("out.bin"))
            iterations.append(iteration)
            probes.append(session.setup_probe().wall_s)
            outputs = {name: sha256_file(session.work / name) for name in OUTPUTS}
            if first_outputs is None:
                first_outputs = outputs
            session.check(outputs == first_outputs, f"outputs differ between repeated runs: {outputs}")
        now = time.perf_counter()
        if session.problems or (len(iterations) >= MIN_SAMPLES * wl.passes
                                and (now - loop_start >= seconds or now - launched >= LOOP_LIMIT_S)):
            break
    loop_s = time.perf_counter() - loop_start

    if "create-instances" not in timed:
        session.create("out.bin")
    if "verify" not in timed:
        session.verify("out.bin")
    thread_check = None
    if wl.check_threads:
        thread_check = session.create("out.threads.bin", threads=wl.check_threads)
        session.check(sha256_file(session.work / "out.threads.bin") == first_outputs["out.bin"],
                      f"--threads {wl.check_threads} output differs from --threads {wl.threads} output")

    facts["repeat_factor"] = session.report("build_vocab.json").get("repeat_factor")
    facts["small_file_bytes"] = (session.work / "small.txt").stat().st_size
    facts["small_shard_pool"] = gen.shard_pool(session.work / "small.txt", wl.shape.shard_bytes)
    facts["large_shard_pool"] = gen.shard_pool(session.work / "large.txt", wl.shape.shard_bytes)
    return {"facts": facts, "iterations": iterations, "probes": probes, "loop_s": loop_s,
            "thread_check": thread_check,
            "create": session.report("create.json"), "verify": session.report("verify.json")}


def stage_samples(session: Session, stage: str) -> list[StageRun]:
    return [r for r in session.runs if r.stage == stage]


def pipeline_samples(raw: dict, workload: Workload) -> list[float]:
    """One pipeline sample per block of ``workload.passes`` iterations. An
    iteration's time is the sum over its timed stages of each stage's median
    in that iteration; a sample is the mean of these times over the block."""
    per_pass = [sum(statistics.median(r.wall_s for r in it if r.stage == stage) for stage in workload.timed)
                for it in raw["iterations"]]
    k = workload.passes
    return [statistics.fmean(per_pass[i:i + k]) for i in range(0, len(per_pass) - k + 1, k)]


def stage_figures(raw: dict, session: Session) -> tuple[dict, dict]:
    """End-to-end and per-stage figures of the untraced runs:
    (metric -> value, metric -> sample count)."""
    workload = session.workload
    facts = raw["facts"]
    if "filter" in workload.timed:
        input_bytes = facts["articles_bytes"] + facts["large_bytes"]
    else:
        input_bytes = facts["small_file_bytes"] + facts["large_bytes"]
    pipeline = pipeline_samples(raw, workload)
    wall = {stage: [r.wall_s for r in stage_samples(session, stage)] for stage in STAGES}
    create_s = statistics.median(wall["create-instances"])
    values = {
        "pipeline_s": statistics.median(pipeline),
        "pipeline_MBps": input_bytes / 1e6 / statistics.median(pipeline),
        "setup_s": statistics.median(raw["probes"]),
        "filter_s": statistics.median(wall["filter"]),
        "build_vocab_s": statistics.median(wall["build-vocab"]),
        "create_instances_s": create_s,
        "instances_per_s": raw["create"].get("instances", 0) / create_s,
        "verify_s": statistics.median(wall["verify"]),
        "peak_rss_mb": max(r.peak_rss_mb for r in session.runs if r.stage in STAGES),
    }
    counts = {"filter_s": "filter", "build_vocab_s": "build-vocab", "create_instances_s": "create-instances",
              "instances_per_s": "create-instances", "verify_s": "verify"}
    samples = {name: len(wall[counts[name]]) if name in counts else len(pipeline) for name in values}
    samples["setup_s"] = len(raw["probes"])
    return values, samples


def quality(raw: dict, session: Session) -> dict:
    """Verdicts of the workload's last verify and the stage failure share."""
    report = raw["verify"]
    checks = report.get("checks", [])
    nsp = report.get("nsp_positive_rate")
    origin = report.get("small_origin_fraction")
    nonzero = sum(r.exit_code != 0 for r in session.runs)
    return {
        "failed_stage_share": nonzero / len(session.runs),
        "verify_failed_checks": sum(c.get("status") == "fail" for c in checks),
        "nsp_abs_error": abs(nsp - 0.5) if nsp is not None else 0.5,
        "small_origin_abs_error": abs(origin - 0.5) if origin is not None else 0.5,
    }


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numba_paths": "unmeasured: every stage runs the numpy kernel backend unless numba imports"}
    probe = ("import numpy, sys; sys.path.insert(0, sys.argv[1]); from bpt import kernels; "
             "print(numpy.__version__, kernels.BACKEND)")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC)], capture_output=True, text=True,
                         timeout=60, check=False)
    parts = out.stdout.split()
    if len(parts) == 2:
        facts["numpy"], facts["kernels.BACKEND"] = parts
    return facts


def print_table(values: dict, units: dict, samples: "dict | None" = None) -> None:
    for name, value in values.items():
        note = f"  n={samples[name]}" if samples else ""
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    launched = time.perf_counter()

    if not (SRC / "bpt" / "cli.py").is_file():
        print(f"bpt sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"e2e-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(args.workload, work, args.seed, workload)
    try:
        raw = run_workload(session, args.seconds, launched)
        print("machine " + json.dumps(machine_facts(), sort_keys=True))
        print("inputs " + json.dumps(raw["facts"], sort_keys=True))
        values, samples = stage_figures(raw, session)
        verdicts = quality(raw, session)
        print(f"workload {args.workload}: seed {args.seed}, {len(raw['iterations'])} iterations in blocks "
              f"of {workload.passes} in {raw['loop_s']:.1f} s, median over samples")
        print_table({k: values[k] for k in END_TO_END_UNITS}, END_TO_END_UNITS, samples)
        print("pipeline samples (s): " + " ".join(f"{v:.3f}" for v in pipeline_samples(raw, workload)))
        if raw["thread_check"]:
            check = raw["thread_check"]
            print(f"{check.stage}: one untimed run, {check.wall_s:.3f} s wall, "
                  f"checked for the same bytes as --threads {workload.threads}")
        print("per stage (per-layer metrics):")
        print_table({k: values[k] for k in STAGE_UNITS}, STAGE_UNITS, samples)
        verdict_line = ", ".join(f"{c['name']}={c['value']:.4g}" for c in raw["verify"].get("checks", [])
                                 if c.get("status") == "fail")
        print(f"verify: {'PASS' if not verdict_line else 'FAIL ' + verdict_line} "
              f"(recorded in the per-layer metrics, not a benchmark failure)")
        print_table(verdicts, QUALITY_UNITS)
        metrics = {k: values[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
        if args.trace:
            sys.path.insert(0, str(SRC))
            import traced

            layer_values, layer_units = traced.run(session, raw)
            for stage in STAGES:
                name = f"cli.{stage.replace('-', '_')}.cpu_s"
                layer_values[name] = statistics.median(r.cpu_s for r in stage_samples(session, stage))
                layer_units[name] = "s"
            layer_values.update({k: values[k] for k in STAGE_UNITS})
            layer_units.update(STAGE_UNITS)
            layer_values.update(verdicts)
            layer_units.update(QUALITY_UNITS)
            print("per-layer (traced in process; cli.* from the stage processes):")
            print_table(layer_values, layer_units)
            metrics, units = layer_values, layer_units
        for problem in session.problems:
            print(f"CHECK FAILED: {problem}")
        result = {
            "correct": not session.problems,
            "attempted": len(session.runs),
            "failed": sum(r.error for r in session.runs),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
