"""Dynamic instruction record flowing through the out-of-order pipeline.

``DynInst.__init__`` sets only the fields that some stage reads before
any stage has written them.  The others are written by the stage that
owns them, and read only after it ran:

* ``wait_count`` -- dispatch (the window insert), for every instruction;
* ``consumed_tag`` -- dispatch (``Core._dispatch_mem``), for loads and
  stores;
* ``predicted_taken`` and ``actual_taken`` -- fetch (``Core._predict``)
  and execute (``Core._execute_control``), for conditional branches;
* ``predicted_target`` and ``actual_target`` -- the same two stages, for
  every control instruction;
* ``addr`` -- execute (``Core._execute_mem``), for loads and stores, and
  ``store_data`` -- execute, for stores.

An access's size is its static instruction's ``access_size``.
"""

from __future__ import annotations

from typing import Optional

from ..isa.instructions import Instruction


class DynInst:
    """One in-flight dynamic instruction.

    ``seq`` is the global sequence number (dispatch order, never reused --
    the total order the MDT's timestamp protocol relies on).
    ``trace_index`` is the instruction's position in the golden trace, or
    -1 for wrong-path instructions.
    """

    __slots__ = (
        "seq", "pc", "inst", "trace_index",
        # rename state (old_rd_phys doubles as the RAT undo-log record:
        # squashing this instruction re-maps its rd back to old_rd_phys)
        "rd_phys", "old_rd_phys", "rs1_phys", "rs2_phys",
        # scheduler state
        "wait_count", "stalled", "in_ready", "rob_head_bypass",
        "consumed_tag", "produced_tag",
        # execution state
        "issued", "completed", "squashed", "dest_value",
        "addr", "store_data",
        # control flow
        "predicted_taken", "predicted_target", "actual_taken",
        "actual_target",
    )

    def __init__(self, seq: int, pc: int, inst: Instruction,
                 trace_index: int):
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.trace_index = trace_index
        self.rd_phys: Optional[int] = None
        self.old_rd_phys: Optional[int] = None
        self.rs1_phys = 0
        self.rs2_phys = 0
        self.stalled = False
        self.in_ready = False
        self.rob_head_bypass = False
        self.produced_tag: Optional[int] = None
        self.issued = False
        self.completed = False
        self.squashed = False
        self.dest_value: Optional[int] = None

    @property
    def on_right_path(self) -> bool:
        return self.trace_index >= 0

    def __repr__(self) -> str:
        flags = "".join(c for c, cond in (
            ("I", self.issued), ("C", self.completed),
            ("S", self.squashed), ("s", self.stalled)) if cond)
        return (f"DynInst(seq={self.seq}, pc={self.pc:#x}, {self.inst!r}, "
                f"flags={flags or '-'})")
