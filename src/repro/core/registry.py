"""The memory subsystems a core can be built with, by name.

The paper compares a fixed set: the associative LSQ baseline, the
SFC/MDT design and value-based retirement replay (Section 4).  Each is
a :class:`~repro.core.subsystem.MemorySubsystem` subclass with a
``name`` and the constructor ``(config, memory, hierarchy, counters)``;
adding one is that class plus its entry in :data:`SUBSYSTEMS`.
"""

from __future__ import annotations

from .load_replay import LoadReplaySubsystem
from .lsq import LSQSubsystem
from .subsystem import SfcMdtSubsystem

#: subsystem name -> class; ``Core`` builds
#: ``SUBSYSTEMS[name](config, memory, hierarchy, counters)``.
SUBSYSTEMS = {cls.name: cls for cls in (LSQSubsystem, SfcMdtSubsystem,
                                        LoadReplaySubsystem)}


def validate(name: str) -> str:
    """Return ``name`` if it is in :data:`SUBSYSTEMS`, else raise a
    ``ValueError`` that names the choices."""
    if name not in SUBSYSTEMS:
        raise ValueError(
            f"unknown subsystem {name!r}; registered subsystems: "
            f"{', '.join(sorted(SUBSYSTEMS))}")
    return name
