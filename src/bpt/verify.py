"""Statistical and structural verification of instance files.

Turns the masking scheme's stated probabilities (15% selection; 80/10/10
mask/random/unchanged; 50/50 next-sentence balance; balanced small-corpus
fraction) into pass/fail checks with configurable tolerances. Checks with too
few observations report "insufficient data" rather than failing. `bpt compare`
runs the same scan without a vocabulary.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

from .instances import structural_errors
from .serialize import InstanceSet, open_instance_set, read_instances
from .vocab import Vocabulary

PASS = "pass"
FAIL = "fail"
INSUFFICIENT = "insufficient data"
SKIPPED = "skipped"


@dataclass
class Tolerances:
    mask_selection_target: float = 0.15
    mask_selection_tol: float = 0.003
    mask_split_tol: float = 0.005
    nsp_target: float = 0.5
    nsp_tol: float = 0.02
    origin_target: "float | None" = 0.5
    origin_tol: float = 0.05
    min_instances: int = 1000
    min_masked: int = 10_000
    min_candidates: int = 10_000


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
            rows.append(
                (
                    c.name,
                    c.status,
                    "-" if c.value is None else f"{c.value:.6g}",
                    "-" if c.expected is None else f"{c.expected:.6g}",
                    "-" if c.tolerance is None else f"{c.tolerance:.6g}",
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} ({self.instances} instances, "
                     f"{self.structural_violations} structural violations)")
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

    mask_id = vocab.mask_id if vocab is not None else None
    n_inst = 0
    positives = 0
    candidates_total = 0
    masked_total = 0
    n_mask = n_random = n_unchanged = 0
    small_total = 0
    origin_total = 0
    violations = 0

    for inst in read_instances(instance_set, expected_vocab=vocab):
        n_inst += 1
        if inst.is_next:
            positives += 1
        candidates_total += len(inst.token_ids) - 3
        masked_total += len(inst.masked_positions)
        small_total += inst.origin_small_tokens
        origin_total += inst.origin_small_tokens + inst.origin_large_tokens
        if vocab is None:
            continue
        if structural_errors(inst, vocab, instance_set.max_seq_length):
            violations += 1
            continue  # its masked positions may point outside the sequence
        for p, label in zip(inst.masked_positions, inst.masked_labels):
            token = int(inst.token_ids[p])
            if token == mask_id:
                n_mask += 1
            elif token == int(label):
                n_unchanged += 1
            else:
                n_random += 1

    report.instances = n_inst
    report.structural_violations = violations
    if vocab is not None:
        report.checks.append(
            CheckResult("structural", PASS if violations == 0 else FAIL, violations, 0, 0)
        )

    if candidates_total:
        report.mask_selection_rate = masked_total / candidates_total
    report.checks.append(
        _check(
            "mask_selection_rate",
            report.mask_selection_rate or 0.0,
            tol.mask_selection_target,
            tol.mask_selection_tol,
            candidates_total,
            tol.min_candidates,
        )
    )

    if vocab is not None:
        if masked_total:
            report.mask_split = (
                n_mask / masked_total,
                n_random / masked_total,
                n_unchanged / masked_total,
            )
        for name, value, expected in (
            ("mask_replaced_fraction", n_mask, 0.80),
            ("mask_random_fraction", n_random, 0.10),
            ("mask_unchanged_fraction", n_unchanged, 0.10),
        ):
            report.checks.append(
                _check(
                    name,
                    value / masked_total if masked_total else 0.0,
                    expected,
                    tol.mask_split_tol,
                    masked_total,
                    tol.min_masked,
                )
            )

    if n_inst:
        report.nsp_positive_rate = positives / n_inst
    report.checks.append(
        _check(
            "nsp_positive_rate",
            report.nsp_positive_rate or 0.0,
            tol.nsp_target,
            tol.nsp_tol,
            n_inst,
            tol.min_instances,
        )
    )

    if origin_total:
        report.small_origin_fraction = small_total / origin_total
    if tol.origin_target is None:
        report.checks.append(CheckResult("small_origin_fraction", SKIPPED, report.small_origin_fraction))
    else:
        report.checks.append(
            _check(
                "small_origin_fraction",
                report.small_origin_fraction or 0.0,
                tol.origin_target,
                tol.origin_tol,
                n_inst,
                tol.min_instances,
            )
        )

    if instance_set.whole:
        stats = instance_set.manifest.statistics or {}
        report.distinct_negative_pairs = stats.get("distinct_negative_pairs")
    return report
