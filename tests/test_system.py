"""Tests for the N-core System layer (pipeline/system.py).

The load-bearing equivalence facts:

* a 1-core private-memory ``System`` is *bit-identical* (cycles and
  every counter) to a bare ``Core`` run with ``idle_skip=False``;
* against ``Processor`` (which keeps the legacy idle-cycle
  fast-forward) the same run matches on cycles and on every counter
  except the idle-skip bookkeeping family -- with the skip disabled the
  core counts each stall cycle it would otherwise have jumped over.
"""

from __future__ import annotations

import pytest

from repro.pipeline import (MEMORY_PRIVATE, MEMORY_SHARED, Processor,
                            System, SystemConfig)
from repro.pipeline.core import Core
from repro.workloads import suites

from tests.conftest import assemble, counted_loop_program

# Counters whose values depend on whether guaranteed-idle cycles are
# fast-forwarded (skipped cycles accrue no per-cycle stall bookkeeping).
IDLE_SKIP_SENSITIVE = ("idle_cycles_skipped", "dispatch_stalls_rob",
                       "dispatch_stalls_sched", "dispatch_stalls_phys",
                       "dispatch_stalls_lq", "dispatch_stalls_sq")


def _scrub(counters: dict) -> dict:
    return {name: value for name, value in counters.items()
            if name not in IDLE_SKIP_SENSITIVE}


class TestSingleCoreEquivalence:
    def test_matches_core_without_idle_skip_exactly(self, any_config):
        program = suites.build("gzip", 800)
        core = Core(program, any_config, idle_skip=False).run()
        config = SystemConfig(core=any_config, cores=1,
                              memory_mode=MEMORY_PRIVATE)
        sysres = System([program], config).run()
        [core_result] = sysres.core_results
        assert core_result.cycles == core.cycles
        assert core_result.counters.as_dict() == core.counters.as_dict()
        assert sysres.cycles == core.cycles
        assert sysres.instructions == core.instructions

    def test_matches_processor_modulo_idle_bookkeeping(self):
        program = suites.build("gzip", 800)
        solo = Processor(program, _baseline()).run()
        config = SystemConfig(core=_baseline(), cores=1,
                              memory_mode=MEMORY_PRIVATE)
        sysres = System([program], config).run()
        [core_result] = sysres.core_results
        assert core_result.cycles == solo.cycles
        assert _scrub(core_result.counters.as_dict()) == \
            _scrub(solo.counters.as_dict())

    def test_single_program_replicated_across_cores(self):
        program = assemble(counted_loop_program)
        config = SystemConfig(core=_baseline(), cores=2,
                              memory_mode=MEMORY_PRIVATE)
        system = System([program], config)
        assert len(system.cores) == 2
        result = system.run()
        assert len(result.core_results) == 2
        # Both cores retire the full program; cycle counts may differ
        # (the second core hits lines the first already pulled into the
        # shared L2).
        assert result.core_results[0].instructions == \
            result.core_results[1].instructions


class TestDeterminism:
    def test_two_identical_runs_are_identical(self):
        program = assemble(counted_loop_program)
        config = SystemConfig(core=_baseline(), cores=2,
                              memory_mode=MEMORY_SHARED)
        first = System([program], config).run()
        second = System([program], config).run()
        assert first.cycles == second.cycles
        assert first.counters == second.counters


class TestValidation:
    def test_wrong_program_count_rejected(self):
        program = assemble(counted_loop_program)
        config = SystemConfig(core=_baseline(), cores=3)
        with pytest.raises(ValueError, match="2 program"):
            System([program, program], config)

    def test_wrong_trace_count_rejected(self):
        program = assemble(counted_loop_program)
        config = SystemConfig(core=_baseline(), cores=2)
        with pytest.raises(ValueError, match="1 trace"):
            System([program], config, traces=[[]])


class TestCounterNamespacing:
    def test_merged_counters_structure(self):
        program = assemble(counted_loop_program)
        config = SystemConfig(core=_baseline(), cores=2,
                              memory_mode=MEMORY_PRIVATE)
        result = System([program], config).run()
        counters = result.counters
        for core_id in (0, 1):
            assert counters[f"core{core_id}_cycles"] > 0
            assert counters[f"core{core_id}_retired_instructions"] > 0
            assert f"core{core_id}_retired_loads" in counters
        assert "l2_accesses" in counters
        assert "l2_misses" in counters
        assert "l2_miss_rate" in counters
        assert counters["cycles"] == max(counters["core0_cycles"],
                                         counters["core1_cycles"])
        assert counters["retired_instructions"] == \
            counters["core0_retired_instructions"] + \
            counters["core1_retired_instructions"]
        assert result.instructions == counters["retired_instructions"]


def _baseline():
    from repro.harness import baseline_sfc_mdt_config
    return baseline_sfc_mdt_config()
