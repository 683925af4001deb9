"""Statistical and structural verification of instance files.

Turns the masking scheme's stated probabilities (15% selection; 80/10/10
mask/random/unchanged; 50/50 next-sentence balance; balanced small-corpus
fraction) into pass/fail checks with configurable tolerances. Checks with too
few observations report "insufficient data" rather than failing. `bpt compare`
runs the same scan without a vocabulary. The counts and rates come from
`InstanceTally`, the accumulator that also fills the manifest statistics.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .instances import InstanceTally, batch_rows, run_offsets, structural_errors
from .serialize import InstanceSet, open_instance_set, read_instances
from .settings import Tolerances
from .vocab import Vocabulary

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient data"
SKIPPED = "skipped"


@dataclass
class CheckResult:
    name: str
    status: str
    value: "float | int | None" = None
    expected: "float | None" = None
    tolerance: "float | None" = None

    def to_dict(self) -> dict:
        return asdict(self)


def _check(name, value, expected, tol, n_obs, min_obs) -> CheckResult:
    if n_obs < min_obs:
        return CheckResult(name, INSUFFICIENT, value, expected, tol)
    status = PASS if abs(value - expected) <= tol else FAIL
    return CheckResult(name, status, value, expected, tol)


@dataclass
class VerificationReport:
    path: str
    instances: int = 0
    mask_selection_rate: "float | None" = None
    mask_split: "tuple | None" = None  # (mask_frac, random_frac, unchanged_frac)
    nsp_positive_rate: "float | None" = None
    small_origin_fraction: "float | None" = None
    structural_violations: int = 0
    distinct_negative_pairs: "int | None" = None
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def render_table(self) -> str:
        rows = [("check", "status", "value", "expected", "tolerance")]
        for c in self.checks:
            cells = (c.value, c.expected, c.tolerance)
            rows.append((c.name, c.status, *("-" if x is None else f"{x:.6g}" for x in cells)))
        verdict = "PASS" if self.passed else "FAIL"
        overall = (f"overall: {verdict} ({self.instances} instances, "
                   f"{self.structural_violations} structural violations)")
        return render_table(rows) + "\n" + overall


def render_table(rows: list) -> str:
    """Rows of strings as left-aligned columns two spaces apart, with a rule
    of dashes under the first (header) row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def verify_file(
    path: "str | Path | InstanceSet",
    vocab: "Vocabulary | None" = None,
    tolerances: "Tolerances | None" = None,
) -> VerificationReport:
    """Read-only scan of what `read_instances` reads against the tolerances;
    without a vocabulary the structural and mask-split checks are left out."""
    tol = tolerances if tolerances is not None else Tolerances()
    instance_set = path if isinstance(path, InstanceSet) else open_instance_set(path)
    report = VerificationReport(path=str(instance_set.path))

    tally = InstanceTally()
    split = np.zeros(4, np.int64)  # [MASK], random, unchanged, all masked positions of well-formed records
    violations = 0

    max_seq_length = instance_set.max_seq_length
    per_batch = batch_rows(max_seq_length)
    records = read_instances(instance_set, expected_vocab=vocab)
    while batch := list(islice(records, per_batch)):
        for inst in batch:
            tally.record(inst)
        if vocab is None:
            continue
        # a malformed record's masked positions may point outside its sequence
        good = [inst for inst, errs in zip(batch, structural_errors(batch, vocab, max_seq_length)) if not errs]
        violations += len(batch) - len(good)
        if good:
            split += _mask_split(good, vocab.mask_id)

    masked_total = int(split[3])
    report.instances = tally.instances
    report.structural_violations = violations
    report.mask_selection_rate = tally.mask_selection_rate
    report.nsp_positive_rate = tally.is_next_fraction
    report.small_origin_fraction = tally.small_origin_fraction

    # (name, value, expected, tolerance, observations, minimum observations)
    rows = []
    if vocab is not None:
        rows.append(("structural", violations, 0, 0, 0, 0))
    rows.append(("mask_selection_rate", report.mask_selection_rate or 0.0, tol.mask_selection_target,
                 tol.mask_selection_tol, tally.candidate_positions_total, tol.min_candidates))
    if vocab is not None:
        if masked_total:
            report.mask_split = tuple(int(count) / masked_total for count in split[:3])
        names = ("mask_replaced_fraction", "mask_random_fraction", "mask_unchanged_fraction")
        for name, value, expected in zip(names, report.mask_split or (0.0, 0.0, 0.0), (0.80, 0.10, 0.10)):
            rows.append((name, value, expected, tol.mask_split_tol, masked_total, tol.min_masked))
    rows.append(("nsp_positive_rate", report.nsp_positive_rate or 0.0, 0.5, tol.nsp_tol,
                 tally.instances, tol.min_instances))
    if tol.origin_target is not None:
        rows.append(("small_origin_fraction", report.small_origin_fraction or 0.0, tol.origin_target,
                     tol.origin_tol, tally.instances, tol.min_instances))
    report.checks = [_check(*row) for row in rows]
    if tol.origin_target is None:
        report.checks.append(CheckResult("small_origin_fraction", SKIPPED, report.small_origin_fraction))

    if instance_set.whole:
        stats = instance_set.manifest.statistics or {}
        report.distinct_negative_pairs = stats.get("distinct_negative_pairs")
    return report


def _mask_split(records: list, mask_id: int) -> np.ndarray:
    """Masked positions of well-formed records replaced by [MASK], by a
    random id and left unchanged, and all of them."""
    ids = np.concatenate([r.token_ids for r in records])
    starts = run_offsets([len(r.token_ids) for r in records])[:-1]
    n_masked = [len(r.masked_positions) for r in records]
    positions = np.concatenate([r.masked_positions for r in records]) + np.repeat(starts, n_masked)
    tokens = ids[positions]
    is_mask = tokens == mask_id
    replaced = np.count_nonzero(is_mask)
    unchanged = np.count_nonzero((tokens == np.concatenate([r.masked_labels for r in records])) & ~is_mask)
    return np.array([replaced, tokens.size - replaced - unchanged, unchanged, tokens.size])
