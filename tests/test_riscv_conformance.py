"""The RV32 conformance suite: every committed real program passes the
differential fuzzer's check on every memory subsystem -- the tier-1
gate behind the RISC-V frontend.

Also covers the machinery the gate rests on: the declared suites
(``SUITES``: committed lists of known benchmarks, no cherry-picking)
and the frontend tuple whose round-robin puts every frontend into the
default fuzz campaign.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.configs import baseline_lsq_config, baseline_sfc_mdt_config
from repro.isa.interp import Interpreter
from repro.isa.program import Program
from repro.verify import (
    DifferentialFuzzer,
    FuzzMismatch,
    ReplayReport,
    run_conformance,
)
from repro.verify.fuzzer import FRONTENDS
from repro.workloads import ALL_BENCHMARKS, RISCV_BENCHMARKS, suite
from repro.workloads.riscv_randprog import riscv_fuzz_program
from repro.workloads.suites import SUITES, build

FIXTURES = Path(__file__).parent / "data" / "riscv"


class TestConformanceSuite:
    """The centerpiece: full corpus x full differential matrix."""

    def test_every_program_conforms_on_every_subsystem(self):
        report = run_conformance()
        assert isinstance(report, ReplayReport)
        assert report.ok, report.format()
        # The whole declared suite ran -- no cherry-picking.
        assert [name for name, _ in report.cases] == \
            suite("riscv-conformance")

    def test_report_serializes_and_yields_records(self):
        report = run_conformance(configs=[baseline_sfc_mdt_config()])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["source"] == "riscv-conformance"
        assert payload["ok"] is True
        # One record per program, each with its (empty) mismatch list.
        assert [case["name"] for case in payload["cases"]] == \
            suite("riscv-conformance")
        assert all(case["ok"] and case["mismatches"] == []
                   for case in payload["cases"])

    def test_mismatch_is_reported_not_swallowed(self):
        report = ReplayReport("riscv-conformance")
        report.cases.append(("rv-ok", []))
        report.cases.append(("rv-x", [FuzzMismatch(
            -1, "register-file", "cfg", "final registers differ")]))
        assert not report.ok
        assert "rv-x: MISMATCH" in report.format()
        assert "[register-file] cfg" in report.format()
        assert [case["ok"] for case in report.to_dict()["cases"]] == \
            [True, False]


class TestStlHazardFixture:
    """The committed synapse32-style store-to-load hazard program, with
    its expected final register values asserted under the oracle and
    under the default subsystems."""

    def load(self):
        program = Program.from_riscv(FIXTURES / "stl_hazard.hex")
        expected = json.loads(
            (FIXTURES / "stl_hazard_expected.json").read_text())
        return program, {int(name[1:]): value
                         for name, value in expected.items()}

    def test_oracle_reaches_expected_registers(self):
        program, expected = self.load()
        interp = Interpreter(program)
        interp.run(10_000)
        for index, value in expected.items():
            assert interp.regs[index] == value, f"x{index}"

    @pytest.mark.parametrize("config_fn", [baseline_sfc_mdt_config,
                                           baseline_lsq_config])
    def test_pipeline_reaches_expected_registers(self, config_fn):
        from repro.pipeline.processor import Processor

        program, expected = self.load()
        interp = Interpreter(program)
        trace = interp.run(10_000)
        core = Processor(program, config_fn(), trace=trace)
        core.run()
        regs = core.architectural_registers()
        for index, value in expected.items():
            assert regs[index] == value, f"x{index}"
        assert regs == interp.regs

    def test_fixture_is_in_the_declared_suite(self):
        assert "rv-stl_hazard" in suite("riscv-conformance")
        assert build("rv-stl_hazard", scale=0).name == "rv-stl_hazard"


class TestSuiteRegistry:
    def test_riscv_suite_is_the_whole_corpus(self):
        assert suite("riscv-conformance") == sorted(RISCV_BENCHMARKS)
        assert len(RISCV_BENCHMARKS) >= 6

    # SUITES is a literal table, so these two checks are where a suite
    # naming an unknown benchmark, or none at all, is refused.
    def test_unknown_member_rejected(self):
        known = set(ALL_BENCHMARKS) | set(RISCV_BENCHMARKS)
        for name, members in SUITES.items():
            assert set(members) <= known, name

    def test_empty_suite_rejected(self):
        for name, members in SUITES.items():
            assert members, name

    def test_unknown_suite_name_rejected(self):
        with pytest.raises(KeyError):
            suite("no-such-suite")

    def test_suite_returns_a_copy(self):
        members = suite("riscv-conformance")
        members.append("tampered")
        assert "tampered" not in suite("riscv-conformance")


class TestFrontendCoverage:
    """Every frontend is fuzzed by the default campaign."""

    def test_riscv_frontend_is_registered(self):
        assert [name for name, _ in FRONTENDS] == ["native", "riscv"]

    def test_default_fuzz_builder_covers_every_frontend(self):
        builder = DifferentialFuzzer().builder
        for seed in range(2 * len(FRONTENDS)):
            _, build = FRONTENDS[seed % len(FRONTENDS)]
            assert builder(seed).digest() == build(seed).digest()

    def test_interleaved_builder_visits_each_frontend(self):
        builder = DifferentialFuzzer().builder
        names = {builder(seed).name.split("-")[0]
                 for seed in range(len(FRONTENDS) * 2)}
        # Native fuzz programs are named random-..., RV32 ones rv-random-...
        assert len(names) == len(FRONTENDS)

    def test_riscv_fuzz_programs_pass_the_differential_check(self):
        fuzzer = DifferentialFuzzer()
        for seed in range(123, 131):
            program = riscv_fuzz_program(seed)
            assert fuzzer.check_program(program, seed) == []
