"""Configuration presets matching the paper's Figure 4.

Two processor classes:

* **baseline** -- 4-wide, 128-entry ROB/window/checkpoints, 1 branch per
  fetch cycle, 4 function units;
* **aggressive** -- 8-wide, 1024-entry ROB/window/checkpoints, up to 8
  branches per fetch cycle, 8 function units.

Memory-subsystem variants per Figure 4 and Figures 5/6:

* baseline LSQ: 48x32 (Figure 5's normalisation baseline);
* baseline SFC/MDT: SFC 128 sets x 2-way (256 entries), MDT 4096 sets x
  2-way (8192 entries);
* aggressive LSQs: 48x32, 120x80 (normalisation baseline), 256x256;
* aggressive SFC/MDT: SFC 512 sets x 2-way (1024 entries), MDT 8192 sets
  x 2-way (16384 entries).
"""

from __future__ import annotations

from typing import Optional

from ..core.lsq import LSQConfig
from ..core.mdt import MDTConfig
from ..core.predictors import ENF, NOT_ENF, TOTAL, LSQ_MODE, PredictorConfig
from ..core.sfc import SFCConfig
from ..pipeline.config import (
    MEMORY_SHARED,
    SUBSYSTEM_LOAD_REPLAY,
    SUBSYSTEM_LSQ,
    SUBSYSTEM_SFC_MDT,
    ProcessorConfig,
    SystemConfig,
)

#: Figure 4 rows, verbatim, for the configuration bench/report.
FIGURE4_PARAMETERS = [
    ("Pipeline Width", "4 instr/cycle", "8 instr/cycle"),
    ("Fetch Bandwidth", "Max 1 branch/cycle", "Up to 8 branches/cycle"),
    ("Branch Predictor",
     "8Kbit Gshare + 80% mispredicts turned to correct predictions "
     "by an oracle", "(same)"),
    ("Memory Dep. Predictor",
     "16K-entry PT and CT, 4K producer ids, 512-entry LFPT", "(same)"),
    ("Misprediction Penalty", "8 cycles", "(same)"),
    ("MDT", "4K sets, 2-way set assoc.", "8K sets, 2-way set assoc."),
    ("SFC", "128 sets, 2-way set assoc.", "512 sets, 2-way set assoc."),
    ("Renamer", "128 checkpoints", "1024 checkpoints"),
    ("Scheduling Window", "128 entries", "1024 entries"),
    ("L1 I-Cache", "8KB, 2-way, 128B lines, 10-cycle miss", "(same)"),
    ("L1 D-Cache", "8KB, 4-way, 64B lines, 10-cycle miss", "(same)"),
    ("L2 Cache", "512KB, 8-way, 128B lines, 100-cycle miss", "(same)"),
    ("Reorder Buffer", "128 entries", "1024 entries"),
    ("Function Units", "4 identical fully pipelined units", "8 units"),
]


def _predictor(mode: str) -> PredictorConfig:
    return PredictorConfig(pt_entries=16384, ct_entries=16384,
                           num_ids=4096, lfpt_entries=512, mode=mode)


def _baseline_kwargs() -> dict:
    return dict(width=4, fetch_branches_per_cycle=1, rob_size=128,
                sched_size=128, num_fus=4, mispredict_penalty=8)


def _aggressive_kwargs() -> dict:
    return dict(width=8, fetch_branches_per_cycle=8, rob_size=1024,
                sched_size=1024, num_fus=8, mispredict_penalty=8)


# -- baseline (4-wide, 128-entry window) ------------------------------------------


def baseline_lsq_config(lq_size: int = 48, sq_size: int = 32,
                        name: Optional[str] = None) -> ProcessorConfig:
    """The 4-wide baseline with an idealized LSQ (default 48x32)."""
    return ProcessorConfig(
        subsystem=SUBSYSTEM_LSQ,
        lsq=LSQConfig(lq_size=lq_size, sq_size=sq_size),
        predictor=_predictor(LSQ_MODE),
        name=name or f"baseline-lsq-{lq_size}x{sq_size}",
        **_baseline_kwargs())


def baseline_sfc_mdt_config(mode: str = ENF,
                            sfc_sets: int = 128, sfc_assoc: int = 2,
                            mdt_sets: int = 4096, mdt_assoc: int = 2,
                            mdt_granularity: int = 8,
                            name: Optional[str] = None) -> ProcessorConfig:
    """The 4-wide baseline with the paper's SFC/MDT (Figure 5 geometry)."""
    return ProcessorConfig(
        subsystem=SUBSYSTEM_SFC_MDT,
        sfc=SFCConfig(num_sets=sfc_sets, assoc=sfc_assoc),
        mdt=MDTConfig(num_sets=mdt_sets, assoc=mdt_assoc,
                      granularity=mdt_granularity),
        predictor=_predictor(mode),
        name=name or f"baseline-sfc-mdt-{mode.lower()}",
        **_baseline_kwargs())


# -- aggressive (8-wide, 1024-entry window) -----------------------------------------


def aggressive_lsq_config(lq_size: int = 120, sq_size: int = 80,
                          name: Optional[str] = None) -> ProcessorConfig:
    """The 8-wide aggressive core with an idealized LSQ (default 120x80)."""
    return ProcessorConfig(
        subsystem=SUBSYSTEM_LSQ,
        lsq=LSQConfig(lq_size=lq_size, sq_size=sq_size),
        predictor=_predictor(LSQ_MODE),
        store_fifo_capacity=1024,
        name=name or f"aggressive-lsq-{lq_size}x{sq_size}",
        **_aggressive_kwargs())


def aggressive_sfc_mdt_config(mode: str = TOTAL,
                              sfc_sets: int = 512, sfc_assoc: int = 2,
                              mdt_sets: int = 8192, mdt_assoc: int = 2,
                              mdt_granularity: int = 8,
                              name: Optional[str] = None) -> ProcessorConfig:
    """The 8-wide aggressive core with the paper's SFC/MDT.

    The default predictor mode is ``TOTAL``: Section 3.2 alters the ENF
    configuration on the aggressive core to enforce a *total ordering*
    on loads and stores within a producer set, which empirically
    outperforms plain producer-consumer enforcement there.  Pass
    ``mode=NOT_ENF`` for the true-dependences-only ablation.
    """
    return ProcessorConfig(
        subsystem=SUBSYSTEM_SFC_MDT,
        sfc=SFCConfig(num_sets=sfc_sets, assoc=sfc_assoc),
        mdt=MDTConfig(num_sets=mdt_sets, assoc=mdt_assoc,
                      granularity=mdt_granularity),
        predictor=_predictor(mode),
        store_fifo_capacity=1024,
        name=name or f"aggressive-sfc-mdt-{mode.lower()}",
        **_aggressive_kwargs())


def fuzz_config_matrix() -> list:
    """The differential fuzzer's default configuration matrix.

    One row per behaviour class worth cross-checking: the associative
    LSQ baseline, the enforcing and non-enforcing SFC/MDT designs, a
    degenerate 1x1 SFC/MDT (maximal replay pressure), the aggressive
    wide-window SFC/MDT, and value-based retirement replay.  Together
    the rows cover every subsystem in
    :data:`repro.core.registry.SUBSYSTEMS`
    (:class:`repro.verify.fuzzer.DifferentialFuzzer` asserts this, so a
    new subsystem must either join this matrix or be fuzzed with an
    explicit config list).
    """
    tiny = baseline_sfc_mdt_config(sfc_sets=1, mdt_sets=1,
                                   name="fuzz-tiny-sfc-mdt")
    tiny.sfc.assoc = 1
    tiny.mdt.assoc = 1
    return [
        baseline_lsq_config(),
        baseline_sfc_mdt_config(),
        baseline_sfc_mdt_config(mode=NOT_ENF,
                                name="baseline-sfc-mdt-not_enf"),
        tiny,
        aggressive_sfc_mdt_config(),
        aggressive_load_replay_config(),
    ]


# -- multicore systems -------------------------------------------------------------


def litmus_system_config(core: Optional[ProcessorConfig] = None,
                         cores: int = 2,
                         name: Optional[str] = None) -> SystemConfig:
    """A shared-memory N-core system for litmus runs (default: two of
    the 4-wide baseline SFC/MDT cores)."""
    core = core if core is not None else baseline_sfc_mdt_config()
    return SystemConfig(core=core, cores=cores,
                        memory_mode=MEMORY_SHARED,
                        name=name or f"litmus-{core.name}")


def aggressive_load_replay_config(lq_size: int = 120, sq_size: int = 80,
                                  name: Optional[str] = None
                                  ) -> ProcessorConfig:
    """The 8-wide aggressive core with value-based retirement replay
    (Cain & Lipasti) -- the Section 4 comparator that disambiguates at
    retirement instead of at completion."""
    return ProcessorConfig(
        subsystem=SUBSYSTEM_LOAD_REPLAY,
        lsq=LSQConfig(lq_size=lq_size, sq_size=sq_size),
        predictor=_predictor(LSQ_MODE),
        store_fifo_capacity=1024,
        name=name or f"aggressive-load-replay-{lq_size}x{sq_size}",
        **_aggressive_kwargs())


__all__ = [
    "FIGURE4_PARAMETERS",
    "aggressive_load_replay_config",
    "aggressive_lsq_config",
    "aggressive_sfc_mdt_config",
    "baseline_lsq_config",
    "baseline_sfc_mdt_config",
    "fuzz_config_matrix",
    "litmus_system_config",
    "ENF",
    "NOT_ENF",
    "TOTAL",
]
