#!/usr/bin/env python3
"""Regenerate ``reference.json``, the pinned results ``run.py`` checks.

    python3 benchmarks/e2e/pin.py [SECTION ...]

Sections: ``fig5-exact`` and ``fig6-exact`` (one manifest digest per
cell at scale 20 000), ``sampled-1m`` (one sampled-record digest per
benchmark) and ``full-ipc`` (full detailed IPC of every sampled
benchmark at 1M instructions, the truth sampled-1m's error and CI
coverage are measured against).  With no arguments every section is
re-pinned; named sections replace only themselves.  The full runs take
minutes; ``run.py`` never calls this script.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SECTIONS = ("fig5-exact", "fig6-exact", "sampled-1m", "full-ipc")


def pin_digests(workload) -> dict:
    state = workload.setup(0)
    digests = {}
    for cell in workload.cells(state):
        outcome = workload.check(state, cell, workload.run_op(state, cell))
        digests[cell] = outcome.digest
        print(f"  {workload.name} {cell} {outcome.digest[:16]}", flush=True)
    return {"scale": workload.scale, "digests": digests}


def pin_full_ipc() -> dict:
    from repro.core.predictors import ENF
    from repro.harness.configs import baseline_sfc_mdt_config
    from repro.harness.experiment import ExperimentRunner

    from benchmarks.e2e.workloads import SAMPLED_BENCHMARKS, SAMPLED_SCALE

    config = baseline_sfc_mdt_config(mode=ENF)
    full = {}
    for bench in SAMPLED_BENCHMARKS:
        runner = ExperimentRunner(scale=SAMPLED_SCALE, jobs=1,
                                  use_cache=False)
        full[bench] = runner.run(bench, config).ipc
        print(f"  full-ipc {bench} {full[bench]:.6f}", flush=True)
    return full


def main(argv) -> int:
    sections = argv or list(SECTIONS)
    unknown = sorted(set(sections) - set(SECTIONS))
    if unknown:
        print(f"pin.py: unknown section(s) {unknown}; choose from "
              f"{list(SECTIONS)}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e import workloads

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    if "fig5-exact" in sections:
        reference["fig5-exact"] = pin_digests(workloads.fig5_exact())
    if "fig6-exact" in sections:
        reference["fig6-exact"] = pin_digests(workloads.fig6_exact())
    sampled = reference.setdefault("sampled-1m", {})
    if "sampled-1m" in sections:
        with tempfile.TemporaryDirectory(dir=HERE) as scratch:
            sampled.update(pin_digests(workloads.SampledGrid(scratch)))
    if "full-ipc" in sections:
        sampled["full_ipc"] = pin_full_ipc()
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
