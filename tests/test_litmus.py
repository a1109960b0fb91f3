"""Tests for the litmus workloads and the operational-model oracle.

The acceptance-critical cases: the oracle's exact allowed sets (LB
``(1, 1)`` forbidden), the end-to-end machine-vs-model check on every
shipped test, and the forbidden-outcome injection proving the oracle
*can* reject a run.
"""

from __future__ import annotations

import pytest

from repro.harness import (aggressive_sfc_mdt_config, baseline_lsq_config,
                           baseline_sfc_mdt_config)
from repro.verify import (LitmusOracle, LitmusReport, LitmusResult,
                          run_litmus_suite, run_litmus_test)
from repro.workloads import (LITMUS_TESTS, get_litmus, is_litmus,
                             litmus_benchmark_names)
from repro.workloads.litmus import (LD, LOCATIONS, ST, LitmusTest,
                                    result_address)


class TestWorkloadStructure:
    def test_shipped_suite_names(self):
        assert set(LITMUS_TESTS) == {"mp", "sb", "lb"}
        assert litmus_benchmark_names() == \
            ["litmus-lb", "litmus-mp", "litmus-sb"]

    def test_lookup_by_short_and_prefixed_name(self):
        assert get_litmus("mp") is LITMUS_TESTS["mp"]
        assert get_litmus("litmus-mp") is LITMUS_TESTS["mp"]
        assert is_litmus("sb") and is_litmus("litmus-sb")
        assert not is_litmus("gzip")
        with pytest.raises(KeyError, match="unknown litmus test"):
            get_litmus("litmus-nope")

    def test_malformed_ops_rejected(self):
        with pytest.raises(ValueError, match="malformed op"):
            LitmusTest("bad", "", threads=[[("xchg", "X", 1)]])
        with pytest.raises(ValueError, match="malformed op"):
            LitmusTest("bad", "", threads=[[(LD, "Q")]])

    def test_programs_one_per_thread_and_branch_free(self):
        for test in LITMUS_TESTS.values():
            programs = test.programs()
            assert len(programs) == test.cores
            for program in programs:
                assert not any(inst.is_branch
                               for inst in program.instructions)

    def test_locations_and_thread_result_areas_on_distinct_lines(self):
        # Shared locations and per-thread result areas must not share an
        # L2 (128B) line with each other (slots within one thread may).
        areas = sorted(LOCATIONS.values()) + \
            [result_address(t, 0) for t in range(3)]
        lines = [address // 128 for address in areas]
        assert len(set(lines)) == len(areas)

    def test_load_slots_outcome_order(self):
        assert LITMUS_TESTS["mp"].load_slots() == [(1, 0), (1, 1)]
        assert LITMUS_TESTS["sb"].load_slots() == [(0, 0), (1, 0)]


class TestOracle:
    def test_mp_allows_all_four(self):
        oracle = LitmusOracle()
        assert oracle.allowed_outcomes(LITMUS_TESTS["mp"]) == \
            frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_sb_allows_all_four(self):
        # (0, 0) is the store-buffering outcome this machine exhibits.
        oracle = LitmusOracle()
        assert oracle.allowed_outcomes(LITMUS_TESTS["sb"]) == \
            frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})

    def test_lb_forbids_causal_cycle(self):
        oracle = LitmusOracle()
        assert oracle.allowed_outcomes(LITMUS_TESTS["lb"]) == \
            frozenset({(0, 0), (0, 1), (1, 0)})
        assert not oracle.allowed(LITMUS_TESTS["lb"], (1, 1))
        assert "FORBIDDEN" in oracle.explain(LITMUS_TESTS["lb"], (1, 1))

    def test_same_thread_forwarding_respected(self):
        # A load after a same-thread store to the same location can only
        # ever observe that store's value (forwarded or from the image).
        test = LitmusTest("fwd", "", threads=[[(ST, "X", 7), (LD, "X")]])
        assert LitmusOracle().allowed_outcomes(test) == frozenset({(7,)})


class TestEndToEnd:
    def test_every_shipped_test_outcome_allowed(self):
        report = run_litmus_suite()
        assert report.ok
        assert len(report.results) == 3
        assert report.violations == []

    def test_across_core_configs(self):
        report = run_litmus_suite(
            core_configs=[baseline_sfc_mdt_config(), baseline_lsq_config(),
                          aggressive_sfc_mdt_config()])
        assert report.ok
        assert len(report.results) == 9

    def test_single_run_result_shape(self):
        result = run_litmus_test("mp")
        assert result.test_name == "mp"
        assert result.allowed
        assert result.outcome in result.allowed_outcomes
        assert result.system_result is not None
        assert result.system_result.config.cores == 2
        payload = result.to_dict()
        assert payload["test"] == "mp"
        assert payload["outcome"] == list(result.outcome)

    def test_forbidden_outcome_injection_fails_report(self):
        # Prove the oracle can fail: hand it the LB causal-cycle outcome
        # the machine must never produce.
        test = LITMUS_TESTS["lb"]
        oracle = LitmusOracle()
        injected = LitmusResult(
            test, "injected", (1, 1),
            oracle.allowed(test, (1, 1)),
            oracle.allowed_outcomes(test))
        assert not injected.allowed
        report = LitmusReport([run_litmus_test("mp"), injected])
        assert not report.ok
        assert report.violations == [injected]
        assert report.to_dict()["violations"] == 1
        assert "VIOLATION" in report.format()

    def test_report_dict_envelope(self):
        report = run_litmus_suite(tests=["mp"])
        payload = report.to_dict()
        assert payload["kind"] == "litmus"
        assert payload["ok"] is True
        assert payload["runs"] == 1
