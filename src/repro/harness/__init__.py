"""Experiment harness: configuration presets and figure generators."""

from .configs import (
    FIGURE4_PARAMETERS,
    aggressive_load_replay_config,
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
    fuzz_config_matrix,
    litmus_system_config,
)

__all__ = [
    "FIGURE4_PARAMETERS",
    "aggressive_load_replay_config",
    "aggressive_lsq_config",
    "aggressive_sfc_mdt_config",
    "baseline_lsq_config",
    "baseline_sfc_mdt_config",
    "fuzz_config_matrix",
    "litmus_system_config",
]
