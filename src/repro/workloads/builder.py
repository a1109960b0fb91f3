"""Shared helpers for writing workload kernels.

Kernels are small assembly programs whose *memory behaviour* mimics the
SPEC CPU2000 benchmark they are named after (see DESIGN.md for the
substitution rationale).  The helpers here keep kernel code focused on the
access pattern: counted loops, deterministic data-segment initialisation,
and register conventions.

Register conventions used by every kernel:

* ``r1``--``r13``: data values,
* ``r14``/``r15``: scratch/address computation,
* ``r16``--``r19``: loop counters,
* ``r20``--``r27``: base pointers (set up once in the prologue),
* ``r28``--``r30``: accumulators carried across the whole run.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..isa.assembler import Assembler


class KernelBuilder:
    """An assembler plus loop/data conveniences for kernel authors."""

    def __init__(self, name: str, seed: int = 1234):
        self.name = name
        self.asm = Assembler()
        self.rng = random.Random(seed)
        self._label_counter = 0

    def fresh_label(self, prefix: str = "l") -> str:
        self._label_counter += 1
        return f"{prefix}{self._label_counter}"

    def loop(self, counter: str, iterations: int,
             body: Callable[[], None]) -> None:
        """Emit ``for (counter = iterations; counter != 0; counter--)``."""
        top = self.fresh_label("loop")
        self.asm.li(counter, iterations)
        self.asm.label(top)
        body()
        self.asm.addi(counter, counter, -1)
        self.asm.bne(counter, "r0", top)

    def indexed_loop(self, counter: str, index: str, iterations: int,
                     body: Callable[[], None]) -> None:
        """Counted loop that also maintains an ascending index register."""
        top = self.fresh_label("loop")
        self.asm.li(counter, iterations)
        self.asm.li(index, 0)
        self.asm.label(top)
        body()
        self.asm.addi(index, index, 1)
        self.asm.addi(counter, counter, -1)
        self.asm.bne(counter, "r0", top)

    # -- data segments ---------------------------------------------------------

    def random_words(self, addr: int, count: int, width: int = 8,
                     lo: int = 0, hi: Optional[int] = None) -> None:
        """Fill ``count`` integers of ``width`` bytes at ``addr``."""
        if hi is None:
            hi = (1 << (8 * width)) - 1
        self.asm.data_words(
            addr, (self.rng.randint(lo, hi) for _ in range(count)),
            width=width)

    def build(self):
        return self.asm.build(name=self.name)
