#!/usr/bin/env python
"""Regenerate the RunRecord golden files pinned by tests/test_obs.py.

Two goldens: the single-core v2 record (``runrecord.golden.json``) and
the multicore v3 record (``runrecord_v3.golden.json``, a deterministic
2-core litmus run).  Run this (from the repository root) only after a
deliberate schema change, together with the matching version bump, or
after a deliberate change to a config's serialized fields, which
regenerates the goldens with no version bump:

    python scripts/regen_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro import Processor  # noqa: E402
from repro.harness import baseline_sfc_mdt_config  # noqa: E402
from repro.obs.runrecord import RunRecord  # noqa: E402
from repro.verify.litmus_oracle import run_litmus_test  # noqa: E402
from tests.conftest import assemble, counted_loop_program  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "runrecord.golden.json"
GOLDEN_V3 = ROOT / "tests" / "data" / "runrecord_v3.golden.json"


def main() -> int:
    result = Processor(assemble(counted_loop_program),
                       baseline_sfc_mdt_config()).run()
    record = RunRecord.from_sim_result(result, benchmark="counted-loop")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(record.to_json(indent=2) + "\n")
    print(f"wrote {GOLDEN}")

    litmus = run_litmus_test("mp")
    record_v3 = RunRecord.from_system_result(litmus.system_result,
                                             benchmark="litmus-mp")
    GOLDEN_V3.write_text(record_v3.to_json(indent=2) + "\n")
    print(f"wrote {GOLDEN_V3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
