"""Checkpointed fast-forward and interval sampling.

See :mod:`repro.checkpoint.arch` for architectural checkpoints,
:mod:`repro.checkpoint.store` for train keys, encoding and the
in-process memo, and :mod:`repro.checkpoint.sampling` for the
SMARTS-style interval sampler built on top of them.
"""

from .arch import ArchCheckpoint
from .sampling import (SampledResult, SamplingError, ensure_train,
                       sample_run, select_checkpoints, simulate_interval)
from .store import CheckpointStore, train_key

__all__ = [
    "ArchCheckpoint", "CheckpointStore", "SampledResult", "SamplingError",
    "ensure_train", "sample_run", "select_checkpoints", "simulate_interval",
    "train_key",
]
