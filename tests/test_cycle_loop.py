"""Contracts of the core's single cycle loop.

Every way of driving a core -- ``run()``, ``run_until()`` slices,
``step()`` one cycle at a time, or a mix -- advances the same loop, so
all of them must reach bit-identical cycles, retirements and counters;
and the pipeline tracer, fed through the loop's observer slot, must see
every dispatched instruction without changing any outcome.
"""

import gc
import weakref

import pytest

from repro import Processor
from repro.harness.configs import (
    aggressive_load_replay_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.isa.interp import run_program
from repro.pipeline.pipetrace import PipeTracer
from repro.workloads import suites
from tests.conftest import assemble, counted_loop_program

SCALE = 1_500
CONFIGS = {
    "baseline-lsq": baseline_lsq_config,
    "baseline-sfc-mdt": baseline_sfc_mdt_config,
    "aggressive-sfc-mdt": aggressive_sfc_mdt_config,
    "aggressive-load-replay": aggressive_load_replay_config,
}
BENCHMARKS = ("bzip2", "mcf", "gzip")
CHUNK = 97


def outcome(core):
    core.finalize()
    return core.cycle, core.retired, core.counters.as_dict()


@pytest.fixture(scope="module")
def golden():
    programs = {name: suites.build(name, SCALE) for name in BENCHMARKS}
    return {name: (program, run_program(program, 1_000_000))
            for name, program in programs.items()}


@pytest.mark.parametrize("bench", BENCHMARKS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_run_until_and_step_slice_run_exactly(golden, bench, config_name):
    program, trace = golden[bench]
    config = CONFIGS[config_name]()

    whole = Processor(program, config, trace=trace)
    whole.run()

    sliced = Processor(program, config, trace=trace)
    target = CHUNK
    while not sliced.done and target < len(trace):
        sliced.run_until(target)
        assert sliced.done or sliced.retired >= target
        target += CHUNK
    sliced.run()

    stepped = Processor(program, config, trace=trace)
    while not stepped.done:
        stepped.step()

    mixed = Processor(program, config, trace=trace)
    while not mixed.done:
        for _ in range(3):
            mixed.step()
        mixed.run_until(mixed.retired + CHUNK)

    expected = outcome(whole)
    assert outcome(sliced) == expected
    assert outcome(stepped) == expected
    assert outcome(mixed) == expected


def test_step_after_halt_is_a_no_op():
    core = Processor(assemble(counted_loop_program), baseline_lsq_config())
    result = core.run()
    core.step()
    assert (core.cycle, core.retired) == (result.cycles,
                                          result.instructions)


def test_core_abandoned_mid_run_is_freed_without_the_collector(golden):
    # A sampled window drops its core after run_until(); the suspended
    # loop must not keep the core (and its MDT, caches, image) alive.
    program, trace = golden["gzip"]
    core = Processor(program, baseline_sfc_mdt_config(), trace=trace)
    for _ in range(20):
        core.step()
    core.run_until(CHUNK)
    assert not core.done
    alive = weakref.ref(core)
    gc.disable()
    try:
        del core
        assert alive() is None
    finally:
        gc.enable()


def traced_run(program, config):
    core = Processor(program, config)
    tracer = PipeTracer(core, max_instructions=10 ** 9)
    return tracer, core.run()


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_tracer_sees_every_dispatched_instruction(config_name):
    program = suites.build("gzip", SCALE)
    tracer, result = traced_run(program, CONFIGS[config_name]())
    assert len(tracer.traces) == \
        result.counters.as_dict()["dispatched_instructions"]
    alu = [trace for trace in tracer.retired()
           if trace.text.startswith(("add", "xor", "slli", "li"))]
    assert alu and all(trace.issue_cycles and
                       trace.complete_cycle is not None for trace in alu)


@pytest.mark.parametrize("bench, event", [("bzip2", "replay@"),
                                          ("gzip", "replay@"),
                                          ("gzip", "squash@")])
def test_tracer_records_events_and_changes_nothing(bench, event):
    program = suites.build(bench, SCALE)
    config = baseline_sfc_mdt_config()
    plain = Processor(program, config).run()
    tracer, traced = traced_run(program, config)
    assert any(mark.startswith(event)
               for trace in tracer.traces.values() for mark in trace.events)
    assert traced.cycles == plain.cycles
    assert traced.counters.as_dict() == plain.counters.as_dict()


def test_one_observer_per_core():
    core = Processor(assemble(counted_loop_program), baseline_lsq_config())
    PipeTracer(core)
    with pytest.raises(ValueError):
        PipeTracer(core)


def test_l1i_counts_one_access_per_fetch():
    # A fetch group probes the L1I once per line and counts the later
    # fetches from that line as MRU hits: the counters must read as if
    # every fetch had probed.  Straight-line code over three lines: each
    # line's first fetch misses and is fetched again after the stall.
    def program(a):
        for index in range(80):
            a.addi(f"r{1 + index % 8}", "r0", index)
        a.halt()
    result = Processor(assemble(program), baseline_lsq_config()).run()
    stats = result.counters.as_dict()
    assert stats["l1i_misses"] == 3
    assert stats["l1i_accesses"] == \
        stats["dispatched_instructions"] + stats["l1i_misses"]
    assert stats["dispatched_instructions"] == 81
