#!/usr/bin/env python
"""Bit-exactness gate: the observability layer must not perturb results.

Computes SHA-256 digests over every architected outcome (config,
cycles, IPC, all counters) of small grids, sampled answers, litmus runs
and checkpoint trains, and compares them against committed references:

* ``digest_fig56.txt``: one digest over the fig5 + fig6 grid (the four
  baseline and aggressive configurations);
* ``digest_variants.txt``: one digest per subsystem or policy outside
  those figures -- value-based retirement replay (Section 4) and the
  ablation figures' NOT-ENF predictor, counted-load recovery,
  corrupt-marking output recovery, flush-endpoint corruption tracking
  and untagged MDT;
* ``digest_sampled.txt``: one digest over sampled mode's answers for the
  20 Figure-5 benchmarks at scale 200 000 on baseline-sfc-mdt -- the
  manifest digest plus every ``sampling`` block (interval table and
  CI).  Most of these checkpoint trains grow past 128 checkpoints, so
  train thinning is covered too;
* ``digest_litmus.txt``: one digest over every litmus test on the
  shared-memory machine, on each of the five core presets the nightly
  litmus sweep runs -- the observed outcome, the system's cycles and
  every per-core and shared-L2 counter;
* ``digest_trains.txt``: one digest over every checkpoint of the
  Figure-5 benchmarks' trains at scale 200 000 and the sampled pin's
  stride, and one over the RV32 conformance programs' trains at stride
  3 -- registers, PC, memory pages and the warm state each capsule
  restores into a fresh predictor and hierarchy, so the digest does not
  depend on how capsules are encoded.  The Figure-5 kernels execute no
  JR or JALR; an RV32 program executes JALR, so the second line covers
  the indirect targets fast-forward trains.

Also proves that an attached pipetrace sampler (ring buffer + epoch
snapshots) leaves a run's cycles and counters bit-identical.

    python scripts/check_digest.py             # verify
    python scripts/check_digest.py --update    # re-pin after an
                                               # intentional arch change
"""

from __future__ import annotations

import hashlib
import json
import sys
from itertools import zip_longest
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import Processor, api  # noqa: E402
from repro.branch.gshare import GsharePredictor  # noqa: E402
from repro.checkpoint import capture_train  # noqa: E402
from repro.core import (  # noqa: E402
    CORRUPTION_ENDPOINTS,
    NOT_ENF,
    OUTPUT_RECOVERY_CORRUPT,
)
from repro.harness.configs import (  # noqa: E402
    aggressive_load_replay_config,
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.harness.experiment import ExperimentRunner  # noqa: E402
from repro.memory.cache import paper_hierarchy  # noqa: E402
from repro.perf import manifest_digest  # noqa: E402
from repro.pipeline.pipetrace import PipeTracer  # noqa: E402
from repro.verify import run_litmus_test  # noqa: E402
from repro.workloads import ALL_BENCHMARKS, LITMUS_TESTS, suites  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
REFERENCE = RESULTS / "digest_fig56.txt"
VARIANTS_REFERENCE = RESULTS / "digest_variants.txt"
SAMPLED_REFERENCE = RESULTS / "digest_sampled.txt"
LITMUS_REFERENCE = RESULTS / "digest_litmus.txt"
TRAINS_REFERENCE = RESULTS / "digest_trains.txt"
SCALE = 1_000
SAMPLED_SCALE = 200_000
#: The sampled pin's stride: one 300 + 1 000-instruction window.
SAMPLED_STRIDE = 1_300
#: The RV32 trains' stride: the conformance programs are short (and
#: their builds ignore the scale).
RV32_STRIDE = 3


def grid_digest(configs) -> str:
    runner = ExperimentRunner(scale=SCALE, jobs=1, use_cache=False)
    runner.run_suite(sorted(ALL_BENCHMARKS), configs)
    return manifest_digest(runner.manifest)


def variant_configs() -> list:
    """Retirement replay plus the ablation figures' policy variants."""
    counted = aggressive_sfc_mdt_config(name="counted")
    counted.mdt.counted_load_recovery = True
    corrupt = aggressive_sfc_mdt_config(name="corrupt")
    corrupt.output_recovery = OUTPUT_RECOVERY_CORRUPT
    endpoints = aggressive_sfc_mdt_config(name="endpoints")
    endpoints.sfc.corruption_mode = CORRUPTION_ENDPOINTS
    # The untagged-MDT sweep's smallest table aliases the most.
    untagged = baseline_sfc_mdt_config(mdt_sets=64, name="untag64")
    untagged.mdt.tagged = False
    return [aggressive_load_replay_config(),
            aggressive_sfc_mdt_config(mode=NOT_ENF, name="NOT-ENF"),
            counted, corrupt, endpoints, untagged]


def sampled_digest() -> str:
    """SHA-256 over the sampled answers of the Figure-5 benchmarks."""
    runner = ExperimentRunner(scale=SAMPLED_SCALE, jobs=1, use_cache=False)
    config = baseline_sfc_mdt_config()
    for benchmark in suites.FIGURE5_BENCHMARKS:
        runner.run_sampled(benchmark, config, intervals=3,
                           warmup_insts=300, interval_insts=1_000)
    manifest = runner.manifest
    text = json.dumps([manifest_digest(manifest),
                       [entry["sampling"] for entry in manifest]],
                      sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def train_digest(benchmarks, scale: int, stride: int) -> str:
    """SHA-256 over every checkpoint of the benchmarks' trains, in order,
    warm state read back through a fresh predictor and hierarchy."""
    digest = hashlib.sha256()
    for benchmark in benchmarks:
        train = capture_train(suites.build(benchmark, scale), stride)
        rows = []
        for ckpt in train["checkpoints"]:
            bpred = GsharePredictor()
            bpred.import_state(ckpt.warm["bpred"])
            hierarchy = paper_hierarchy()
            hierarchy.import_state(ckpt.warm["caches"])
            rows.append([ckpt.retired, ckpt.pc, ckpt.regs, ckpt.halted,
                         sorted((index, page.hex())
                                for index, page in ckpt.pages.items()),
                         bpred._counters, bpred._history,
                         sorted(bpred._indirect_targets.items()),
                         hierarchy.export_state()])
        digest.update(json.dumps(
            [benchmark, train["total_instructions"], rows]).encode())
    return digest.hexdigest()


#: The core presets of the nightly litmus sweep.
LITMUS_CORES = ("baseline-lsq", "baseline-sfc-mdt", "aggressive-lsq",
                "aggressive-sfc-mdt", "aggressive-load-replay")


def litmus_digest() -> str:
    """SHA-256 over every litmus test's outcome, cycles and counters on
    each of the sweep's cores."""
    rows = []
    for name in LITMUS_CORES:
        for test in sorted(LITMUS_TESTS):
            result = run_litmus_test(LITMUS_TESTS[test],
                                     api.resolve_config(name))
            rows.append([test, name, list(result.outcome),
                         result.system_result.cycles,
                         sorted(result.system_result.counters.items())])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def pinned_lines() -> Dict[Path, List[str]]:
    """The lines each reference file must hold, computed from this tree."""
    fig56 = [baseline_lsq_config(), baseline_sfc_mdt_config(),
             aggressive_lsq_config(), aggressive_sfc_mdt_config()]
    return {
        REFERENCE: [grid_digest(fig56)],
        VARIANTS_REFERENCE: [f"{config.name} {grid_digest([config])}"
                             for config in variant_configs()],
        SAMPLED_REFERENCE: [sampled_digest()],
        LITMUS_REFERENCE: [litmus_digest()],
        TRAINS_REFERENCE: [
            train_digest(suites.FIGURE5_BENCHMARKS, SAMPLED_SCALE,
                         SAMPLED_STRIDE),
            train_digest(suites.suite("riscv-conformance"), 0, RV32_STRIDE),
        ],
    }


def check_tracer_is_invisible() -> bool:
    """A sampled tracer must not change any architected outcome."""
    program = suites.build("gap", SCALE)
    plain = Processor(program, baseline_sfc_mdt_config()).run()
    traced_proc = Processor(program, baseline_sfc_mdt_config())
    PipeTracer(traced_proc, ring_size=64, epoch_cycles=100)
    traced = traced_proc.run()
    if plain.cycles != traced.cycles or \
            plain.counters.as_dict() != traced.counters.as_dict():
        print("FAIL: attaching a PipeTracer changed simulation results")
        return False
    print("ok: sampled pipetrace leaves cycles and counters bit-exact")
    return True


def main() -> int:
    pins = pinned_lines()
    if "--update" in sys.argv[1:]:
        for path, lines in pins.items():
            path.write_text("\n".join(lines) + "\n")
            print(f"pinned {len(lines)} digest(s) -> {path}")
        return 0
    ok = True
    for path, lines in pins.items():
        if not path.exists():
            print(f"FAIL: no reference digest at {path}; "
                  f"run with --update to pin one")
            ok = False
            continue
        expected = path.read_text().splitlines()
        if expected == lines:
            print(f"ok: {path.name}: {len(lines)} grid digest(s) "
                  f"unchanged ({lines[0].split()[-1][:16]}...)")
            continue
        print(f"FAIL: manifest digest drifted in {path.name}")
        for want, got in zip_longest(expected, lines, fillvalue="-"):
            if want != got:
                print(f"  expected {want}\n  got      {got}")
        ok = False
    if not ok:
        print("Architected outcomes changed; if intentional, re-pin "
              "with --update.")
        return 1
    if not check_tracer_is_invisible():
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
