"""Run settings with their defaults: instance generation, verification
tolerances and vocabulary training.

The command-line parser reads its defaults from here, so this module, like
every module it imports, must not import numpy: `bpt filter`, `shard`,
`tokenize`, `build-vocab` and `dump-ruleset` would then pay for numpy
without using it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InstanceError

DEFAULT_TARGET_SIZE = 32_000
DEFAULT_MIN_FREQUENCY = 2


@dataclass
class InstanceConfig:
    max_seq_length: int = 128
    masked_lm_prob: float = 0.15
    max_predictions_per_seq: int = 20
    short_seq_prob: float = 0.10
    dupe_factor: int = 1
    n_rounds: int = 0
    n_splits: int = 1
    shards_per_corpus: int = 10
    master_seed: int = 0

    def validate(self) -> None:
        if not 0.0 < self.masked_lm_prob < 1.0:
            raise InstanceError(f"masked_lm_prob must be in (0, 1), got {self.masked_lm_prob}")
        if self.max_predictions_per_seq < 1:
            raise InstanceError("max_predictions_per_seq must be >= 1")
        if not 8 <= self.max_seq_length <= 0xFFFF:
            # the instance file stores lengths and positions as u16
            raise InstanceError(f"max_seq_length must be in [8, 65535], got {self.max_seq_length}")
        if not 0.0 <= self.short_seq_prob <= 1.0:
            raise InstanceError("short_seq_prob must be in [0, 1]")
        if self.dupe_factor < 1:
            raise InstanceError("dupe_factor must be >= 1")
        if self.n_rounds < 0:
            raise InstanceError("n_rounds must be >= 0")
        if self.n_splits < 1:
            raise InstanceError("n_splits must be >= 1")
        if self.shards_per_corpus < 1:
            raise InstanceError("shards_per_corpus must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Tolerances:
    mask_selection_target: float = 0.15
    mask_selection_tol: float = 0.003
    mask_split_tol: float = 0.005
    nsp_tol: float = 0.02
    origin_target: "float | None" = 0.5
    origin_tol: float = 0.05
    min_instances: int = 1000
    min_masked: int = 10_000
    min_candidates: int = 10_000
