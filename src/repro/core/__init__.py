"""The paper's contribution -- SFC, MDT, store FIFO and dependence
predictors -- and its comparators, the LSQ baseline and retirement
replay.  Each of the three memory subsystems is a ``MemorySubsystem``
subclass built as ``cls(config, memory, hierarchy, counters)`` from the
``registry.SUBSYSTEMS`` table."""

from . import registry
from .load_replay import LoadReplaySubsystem
from .lsq import LSQConfig, LSQSubsystem
from .mdt import (
    MDT_CONFLICT,
    MDT_OK,
    AccessResult,
    MDTConfig,
    MemoryDisambiguationTable,
)
from .predictors import (
    ENF,
    LSQ_MODE,
    NOT_ENF,
    TOTAL,
    DependenceTagFile,
    PredictorConfig,
    ProducerSetPredictor,
)
from .sfc import (
    CORRUPTION_ENDPOINTS,
    CORRUPTION_MASK,
    SFC_CORRUPT,
    SFC_HIT,
    SFC_MISS,
    SFC_PARTIAL,
    SFCConfig,
    StoreForwardingCache,
)
from .store_fifo import StoreFifo
from .subsystem import (
    DONE,
    OUTPUT_RECOVERY_CORRUPT,
    OUTPUT_RECOVERY_FLUSH,
    REPLAY,
    MemorySubsystem,
    MemOutcome,
    SfcMdtSubsystem,
)
from .violations import ANTI_DEP, OUTPUT_DEP, TRUE_DEP, Violation

__all__ = [
    "ANTI_DEP",
    "CORRUPTION_ENDPOINTS",
    "CORRUPTION_MASK",
    "AccessResult",
    "DONE",
    "DependenceTagFile",
    "ENF",
    "LSQConfig",
    "LSQSubsystem",
    "LoadReplaySubsystem",
    "LSQ_MODE",
    "MDTConfig",
    "MDT_CONFLICT",
    "MDT_OK",
    "MemOutcome",
    "MemoryDisambiguationTable",
    "MemorySubsystem",
    "NOT_ENF",
    "OUTPUT_DEP",
    "OUTPUT_RECOVERY_CORRUPT",
    "OUTPUT_RECOVERY_FLUSH",
    "PredictorConfig",
    "ProducerSetPredictor",
    "REPLAY",
    "registry",
    "SFCConfig",
    "SFC_CORRUPT",
    "SFC_HIT",
    "SFC_MISS",
    "SFC_PARTIAL",
    "SfcMdtSubsystem",
    "StoreFifo",
    "StoreForwardingCache",
    "TOTAL",
    "TRUE_DEP",
    "Violation",
]
