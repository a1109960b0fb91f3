"""Core and system configuration.

The two presets mirror the paper's Figure 4: a 4-wide *baseline*
superscalar with a 128-entry window and an 8-wide *aggressive* superscalar
with a 1024-entry window, each combinable with either memory subsystem.
Preset constructors live in :mod:`repro.harness.configs`; this module
defines the parameter records themselves:

* :class:`CoreConfig` -- every knob of one superscalar core (the record
  formerly named ``ProcessorConfig``; that name remains as an alias and
  is what the single-core digest gate serializes);
* :class:`SystemConfig` -- the litmus machine: N homogeneous
  :class:`CoreConfig` cores over one shared memory image and one
  shared L2.
"""

from __future__ import annotations

from typing import Optional

from ..core import registry
from ..core.lsq import LSQConfig
from ..core.mdt import MDTConfig
from ..core.predictors import ENF, PredictorConfig
from ..core.sfc import SFCConfig
from ..core.subsystem import OUTPUT_RECOVERY_FLUSH

#: Names of the subsystems (conveniences; the table of record is
#: :data:`repro.core.registry.SUBSYSTEMS`).
SUBSYSTEM_LSQ = "lsq"
SUBSYSTEM_SFC_MDT = "sfc_mdt"
SUBSYSTEM_LOAD_REPLAY = "load_replay"


class CoreConfig:
    """Every knob of one simulated superscalar core."""

    def __init__(
        self,
        width: int = 4,
        fetch_branches_per_cycle: int = 1,
        rob_size: int = 128,
        sched_size: int = 128,
        num_fus: int = 4,
        mispredict_penalty: int = 8,
        subsystem: str = SUBSYSTEM_LSQ,
        lsq: Optional[LSQConfig] = None,
        sfc: Optional[SFCConfig] = None,
        mdt: Optional[MDTConfig] = None,
        predictor: Optional[PredictorConfig] = None,
        store_fifo_capacity: int = 256,
        output_recovery: str = OUTPUT_RECOVERY_FLUSH,
        oracle_fix_rate: float = 0.8,
        branch_seed: int = 0x5EED,
        max_cycles: int = 50_000_000,
        name: str = "",
    ):
        for field, value in (("width", width),
                             ("fetch_branches_per_cycle",
                              fetch_branches_per_cycle),
                             ("rob_size", rob_size),
                             ("sched_size", sched_size),
                             ("num_fus", num_fus),
                             ("store_fifo_capacity", store_fifo_capacity)):
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"{field} must be a positive integer, got {value!r}")
        self.width = width
        self.fetch_branches_per_cycle = fetch_branches_per_cycle
        self.rob_size = rob_size
        self.sched_size = sched_size
        self.num_fus = num_fus
        self.mispredict_penalty = mispredict_penalty
        self.subsystem = registry.validate(subsystem)
        self.lsq = lsq if lsq is not None else LSQConfig()
        self.sfc = sfc if sfc is not None else SFCConfig()
        self.mdt = mdt if mdt is not None else MDTConfig()
        self.predictor = predictor if predictor is not None \
            else PredictorConfig(mode=ENF)
        self.store_fifo_capacity = store_fifo_capacity
        self.output_recovery = output_recovery
        self.oracle_fix_rate = oracle_fix_rate
        self.branch_seed = branch_seed
        self.max_cycles = max_cycles
        self.name = name or subsystem

    def to_dict(self) -> dict:
        """Canonical, JSON-serializable view of every knob.

        Derived from ``vars(self)`` so a newly added field can never be
        forgotten; nested configuration records serialize through their
        own ``to_dict``.  The experiment engine hashes this dict (minus
        ``name``, which is a display label, not a simulation parameter)
        to key its persistent result cache.
        """
        out = {}
        for field in sorted(vars(self)):
            value = getattr(self, field)
            out[field] = value.to_dict() if hasattr(value, "to_dict") \
                else value
        return out

    def __repr__(self) -> str:
        sub = self.lsq if self.subsystem == SUBSYSTEM_LSQ \
            else (self.sfc, self.mdt)
        return (f"CoreConfig({self.name}: width={self.width}, "
                f"rob={self.rob_size}, {self.subsystem}={sub!r}, "
                f"pred={self.predictor.mode})")


#: Backwards-compatible alias: the single-core world (presets, the
#: experiment engine's cache keys, the ``manifest_digest`` gate) built
#: and serialized ``ProcessorConfig`` objects; the record is unchanged,
#: only the canonical name moved to :class:`CoreConfig`.
ProcessorConfig = CoreConfig


class SystemConfig:
    """An N-core system: one homogeneous core recipe plus the core
    count.

    ``cores=1`` systems are still legal (useful for differential tests
    against the plain single-core path), but the single-core pipelines
    -- presets, engine cache keys, digest gate -- keep using
    :class:`CoreConfig` directly so their serialized form is untouched.
    """

    def __init__(self, core: Optional[CoreConfig] = None, cores: int = 2,
                 name: str = ""):
        if not isinstance(cores, int) or cores < 1:
            raise ValueError(
                f"cores must be a positive integer, got {cores!r}")
        self.core = core if core is not None else CoreConfig()
        self.cores = cores
        self.name = name or f"{self.core.name}-x{cores}"

    def to_dict(self) -> dict:
        """Canonical, JSON-serializable view (same contract as
        :meth:`CoreConfig.to_dict`)."""
        return {
            "core": self.core.to_dict(),
            "cores": self.cores,
            "name": self.name,
        }

    def __repr__(self) -> str:
        return (f"SystemConfig({self.name}: {self.cores} x "
                f"{self.core.name})")
