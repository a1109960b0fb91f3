"""Single-core entry point: ``Processor`` is
:class:`~repro.pipeline.core.Core`.

A ``Core`` built with its defaults -- a private
:class:`~repro.memory.main_memory.MainMemory` image, the paper's cache
hierarchy, golden-trace validation and idle-cycle skipping on -- is the
single-core simulator; ``Processor`` is the name the public API, the
experiment engine and the examples construct it by.
"""

from __future__ import annotations

from .core import Core, SimResult, SimulationError

Processor = Core

__all__ = ["Processor", "SimResult", "SimulationError"]
