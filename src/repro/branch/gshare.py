"""Branch prediction: gshare with the paper's oracle fixup.

The paper's frontend uses an "8 Kbit Gshare + 80% mispredicts turned to
correct predictions by an oracle" (Figure 4).  We model exactly that: a
classic gshare (global history XOR PC indexing a table of 2-bit saturating
counters totalling 8 Kbit) whose mispredictions are overridden to the
correct outcome with probability 0.8 by a deterministic pseudo-random
oracle.

Branch *targets* are always known at prediction time in our model (direct
branches encode their target; ``jr`` uses a last-target cache), so the
predictor's job is direction prediction, as in the paper.
"""

from __future__ import annotations

import random
from typing import Dict


class GsharePredictor:
    """Gshare direction predictor with probabilistic oracle correction."""

    def __init__(self, table_bits: int = 12, history_bits: int = 12,
                 oracle_fix_rate: float = 0.8, seed: int = 0x5EED):
        # 2**12 two-bit counters == 8 Kbit, the paper's budget.
        self.table_bits = table_bits
        self.history_bits = history_bits
        self._mask = (1 << table_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._counters = [2] * (1 << table_bits)  # weakly taken
        self._history = 0
        self.oracle_fix_rate = oracle_fix_rate
        self._rng = random.Random(seed)
        # jr target cache: last seen target per PC
        self._indirect_targets: Dict[int, int] = {}
        self.predictions = 0
        self.mispredictions = 0
        self.oracle_fixes = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        """Predict the direction of the branch at ``pc`` (True = taken)."""
        return self._counters[self._index(pc)] >= 2

    def predict_with_oracle(self, pc: int, actual_taken: bool) -> bool:
        """Predict a direction, then let the oracle fix 80% of mistakes.

        This mirrors the paper's idealisation: the simulator knows the
        architectural outcome at fetch (from its own functional execution)
        and flips a fraction of wrong predictions to correct ones.  The
        counter table still trains on the *returned* prediction path.
        """
        self.predictions += 1
        predicted = self.predict(pc)
        if predicted != actual_taken:
            if self._rng.random() < self.oracle_fix_rate:
                self.oracle_fixes += 1
                predicted = actual_taken
        return predicted

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train the counters and global history with the actual outcome."""
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            if counter < 3:
                self._counters[index] = counter + 1
        else:
            if counter > 0:
                self._counters[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) \
            & self._history_mask
        if predicted != taken:
            self.mispredictions += 1

    # -- warm-state capsules -------------------------------------------------

    def export_state(self) -> Dict:
        """Snapshot the *trained* state (counter table, global history,
        indirect-target cache) for a checkpoint warm capsule.  The
        counters travel as one hex string, a byte per counter.

        Prediction statistics and the oracle RNG are deliberately
        excluded: a restored predictor starts counting from zero so a
        sampled interval reports only its own predictions.
        """
        return {
            "counters": bytes(self._counters).hex(),
            "history": self._history,
            "indirect": {str(pc): target for pc, target
                         in self._indirect_targets.items()},
        }

    def import_state(self, state: Dict) -> None:
        """Restore trained state from :meth:`export_state` output;
        raises ``ValueError`` for counters this predictor cannot hold
        (another count, or a value above 3)."""
        counters = bytes.fromhex(state["counters"])
        if len(counters) != len(self._counters):
            raise ValueError(
                f"warm capsule has {len(counters)} counters; this "
                f"predictor has {len(self._counters)}")
        if max(counters) > 3:
            slot = next(i for i, value in enumerate(counters) if value > 3)
            raise ValueError(
                f"warm capsule counter {slot} is {counters[slot]}; a "
                f"2-bit counter is at most 3")
        self._counters[:] = counters
        self._history = state["history"] & self._history_mask
        self._indirect_targets = {int(pc): target for pc, target
                                  in state["indirect"].items()}

    def oracle_should_fix(self) -> bool:
        """One draw of the fixup oracle (used for indirect targets)."""
        return self._rng.random() < self.oracle_fix_rate

    # -- indirect targets ----------------------------------------------------

    def predict_indirect(self, pc: int) -> int:
        """Predict the target of an indirect jump (last-target cache)."""
        return self._indirect_targets.get(pc, 0)

    def update_indirect(self, pc: int, target: int) -> None:
        self._indirect_targets[pc] = target
