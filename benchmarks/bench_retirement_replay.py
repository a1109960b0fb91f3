"""Experiment rel1: completion-time vs retirement-time disambiguation.

Paper Section 4: value-based retirement replay (Cain & Lipasti)
eliminates the load queue's CAM by re-executing loads at retirement, but
"the delay greatly increases the penalty for ordering violations ...  In
[checkpointed processors with large instruction windows], disambiguating
memory references at completion is preferable."

We implement the retirement-replay scheme and compare it against the
paper's SFC/MDT (completion-time disambiguation) on the aggressive core.

Shape to reproduce:

* on violation-prone workloads, retirement replay loses clearly to the
  SFC/MDT (each late detection flushes a full 1024-entry window);
* on violation-free workloads the two are comparable;
* retirement replay re-executes essentially every retired load (the
  bandwidth/energy cost Roth's store vulnerability window targets).
"""

from repro.harness.configs import (
    aggressive_load_replay_config,
    aggressive_sfc_mdt_config,
)
from repro.harness.figures import FigureResult

VIOLATION_PRONE = ("gzip", "ammp")
WELL_BEHAVED = ("swim", "art", "crafty")
BENCHMARKS = VIOLATION_PRONE + WELL_BEHAVED


def retirement_replay_comparison(runner):
    rows = []
    for name in BENCHMARKS:
        sfc = runner.run(name, aggressive_sfc_mdt_config())
        replay = runner.run(name, aggressive_load_replay_config())
        loads = replay.counters.get("retired_loads") or 1
        rows.append((name, {
            "IPC-sfc/mdt": sfc.ipc,
            "IPC-replay": replay.ipc,
            "replay/sfc": replay.ipc / sfc.ipc if sfc.ipc else 0.0,
            "reexec/load":
                replay.counters.get("lsq_retire_replays") / loads,
            "late-violations":
                replay.counters.get("retire_replay_violations"),
        }))
    return FigureResult(
        "Section 4: completion-time (SFC/MDT) vs retirement-time "
        "(value-based replay) disambiguation, aggressive core",
        ["IPC-sfc/mdt", "IPC-replay", "replay/sfc", "reexec/load",
         "late-violations"], rows,
        arithmetic=["reexec/load", "late-violations"])


def test_completion_beats_retirement_on_deep_windows(figure_bench):
    figure = figure_bench(retirement_replay_comparison,
                          "retirement_replay")

    values = dict(figure.rows)
    # Violation-prone workloads: late detection costs a full window per
    # violation, so completion-time disambiguation wins clearly.
    for name in VIOLATION_PRONE:
        assert values[name]["late-violations"] > 0, name
        assert values[name]["replay/sfc"] < 0.92, name
    # Every retired load pays the second access.
    for name in BENCHMARKS:
        assert values[name]["reexec/load"] >= 0.99, name
