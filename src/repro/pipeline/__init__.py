"""Cycle-level out-of-order superscalar pipeline."""

from .config import (SUBSYSTEM_LOAD_REPLAY, SUBSYSTEM_LSQ,
                     SUBSYSTEM_SFC_MDT, CoreConfig, ProcessorConfig,
                     SystemConfig)
from .core import Core
from .dyninst import DynInst
from .pipetrace import InstructionTrace, PipeTracer, trace_run
from .processor import Processor, SimResult, SimulationError
from .rename import RenameError, RenameTable
from .scheduler import Scheduler
from .system import System, SystemResult

__all__ = [
    "Core",
    "CoreConfig",
    "DynInst",
    "InstructionTrace",
    "PipeTracer",
    "trace_run",
    "Processor",
    "ProcessorConfig",
    "RenameError",
    "RenameTable",
    "Scheduler",
    "SimResult",
    "SimulationError",
    "System",
    "SystemConfig",
    "SystemResult",
    "SUBSYSTEM_LOAD_REPLAY",
    "SUBSYSTEM_LSQ",
    "SUBSYSTEM_SFC_MDT",
]
