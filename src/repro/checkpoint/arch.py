"""Architectural checkpoints.

An :class:`ArchCheckpoint` freezes the *architectural* state of a
program mid-run -- registers, PC, retired-instruction count, and the
functional-memory image expressed as a page delta against the pristine
program image -- so detailed simulation can begin there instead of at
reset.  Checkpoints are produced by the in-order interpreter acting as a
fast-forward engine (:meth:`~repro.isa.interp.Interpreter.fast_forward`)
and consumed by :class:`~repro.pipeline.core.Core` via ``start_pc`` /
``start_regs`` / ``memory``.

A checkpoint may also carry a *warm capsule*: trained branch-predictor
state and cache tag arrays accumulated during the fast-forward.  Warm
capsules reduce the warm-up window a sampled interval needs, but are
never part of architectural correctness -- restoring without one only
changes timing, never values.
"""

from __future__ import annotations

import base64
from typing import Dict, List, Optional

from ..isa import instructions as ops
from ..isa.interp import Interpreter
from ..isa.program import Program
from ..memory.main_memory import MainMemory


class ArchCheckpoint:
    """Serializable snapshot of architectural state at one retire point.

    ``pages`` maps page index -> full page bytes for every page whose
    contents differ from the pristine program image; the image itself is
    reconstructible from the :class:`~repro.isa.program.Program`, so the
    delta is all that needs to travel.  ``warm`` is the optional warm
    capsule ``{"bpred": ..., "caches": ...}`` (see
    :meth:`~repro.branch.gshare.GsharePredictor.export_state` and
    :meth:`~repro.memory.cache.CacheHierarchy.export_state`).
    """

    __slots__ = ("program_digest", "retired", "pc", "regs", "pages",
                 "warm", "halted")

    def __init__(self, program_digest: str, retired: int, pc: int,
                 regs: List[int], pages: Dict[int, bytes],
                 warm: Optional[dict] = None, halted: bool = False):
        self.program_digest = program_digest
        self.retired = retired
        self.pc = pc
        self.regs = list(regs)
        self.pages = dict(pages)
        self.warm = warm
        self.halted = halted

    # -- capture -------------------------------------------------------------

    @classmethod
    def capture(cls, interp: Interpreter, base_image: MainMemory,
                warm: Optional[dict] = None) -> "ArchCheckpoint":
        """Snapshot a (paused) interpreter's architectural state.

        ``base_image`` is the pristine program image used to compute the
        memory page delta; build it once per program and reuse it across
        captures.  The program digest is the one the interpreter's
        predecode holds, so a train hashes its program once.
        """
        return cls(program_digest=interp._predecoded().digest,
                   retired=interp.instructions_retired,
                   pc=interp.pc,
                   regs=list(interp.regs),
                   pages=interp.memory.page_delta(base_image),
                   warm=warm, halted=interp.halted)

    # -- restore -------------------------------------------------------------

    def _check_program(self, program: Program) -> None:
        if program.digest() != self.program_digest:
            raise ValueError(
                f"checkpoint was captured from program digest "
                f"{self.program_digest[:12]}..; got program "
                f"{program.name!r} with digest "
                f"{program.digest()[:12]}..")

    def restore_memory(self, program: Program) -> MainMemory:
        """Rebuild the functional-memory image at the checkpoint."""
        self._check_program(program)
        memory = MainMemory()
        memory.load_segments(program.data)
        memory.apply_page_delta(self.pages)
        return memory

    def resume_interpreter(self, program: Program) -> Interpreter:
        """An :class:`~repro.isa.interp.Interpreter` positioned exactly
        at this checkpoint, ready to ``step()``/``fast_forward()`` on."""
        self._check_program(program)
        interp = Interpreter(program, memory=self.restore_memory(program),
                             load_segments=False)
        interp.regs = list(self.regs)
        interp.pc = self.pc
        interp.instructions_retired = self.retired
        interp.halted = self.halted
        return interp

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "program_digest": self.program_digest,
            "retired": self.retired,
            "pc": self.pc,
            "regs": list(self.regs),
            "pages": {str(idx): base64.b64encode(page).decode("ascii")
                      for idx, page in sorted(self.pages.items())},
            "halted": self.halted,
        }
        if self.warm is not None:
            payload["warm"] = self.warm
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ArchCheckpoint":
        regs = [int(v) for v in payload["regs"]]
        if len(regs) != ops.NUM_REGS:
            raise ValueError(
                f"checkpoint has {len(regs)} registers; expected "
                f"{ops.NUM_REGS}")
        pages = {int(idx): base64.b64decode(blob)
                 for idx, blob in payload["pages"].items()}
        return cls(program_digest=payload["program_digest"],
                   retired=int(payload["retired"]),
                   pc=int(payload["pc"]),
                   regs=regs, pages=pages,
                   warm=payload.get("warm"),
                   halted=bool(payload.get("halted", False)))
