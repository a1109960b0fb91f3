"""Tests for the differential fuzzer, shrinker, and crash corpus.

The centerpiece is the fault-injection test: add a deliberately
broken memory subsystem (store-to-load forwards corrupt the value's low
bit), confirm the fuzzer catches it, minimizes the failing program to a
handful of lines, writes a replayable corpus case, and that the case
reproduces the failure on the broken config while passing on the real
ones.
"""

import json

import pytest

from repro.core import registry
from repro.core.subsystem import DONE, MemOutcome, SfcMdtSubsystem
from repro.harness.configs import (
    baseline_lsq_config,
    baseline_sfc_mdt_config,
    fuzz_config_matrix,
)
from repro.isa.interp import Interpreter
from repro.isa.parser import parse_asm
from repro.pipeline.core import Core
from repro.verify import (
    CASE_SCHEMA_VERSION,
    CorpusError,
    CrashCase,
    DifferentialFuzzer,
    load_corpus,
    replay_case,
    replay_corpus,
    shrink_failure,
)
from repro.workloads import fuzz_program


class _BrokenForwardSubsystem(SfcMdtSubsystem):
    """Deliberate fault: every 1-cycle (forwarded) load value has its
    low bit flipped.  Cache-latency loads are untouched, so programs
    without store-to-load forwarding pass -- the fuzzer must find a
    forwarding pattern to expose it."""

    def execute_load(self, seq, pc, addr, size, watermark,
                     at_rob_head=False):
        outcome = super().execute_load(seq, pc, addr, size, watermark,
                                       at_rob_head)
        if outcome.status == DONE and outcome.value is not None and \
                outcome.latency == 1:
            return MemOutcome(DONE, value=outcome.value ^ 1,
                              latency=outcome.latency,
                              violations=outcome.violations,
                              train_only=outcome.train_only)
        return outcome


@pytest.fixture
def broken_config(monkeypatch):
    monkeypatch.setitem(registry.SUBSYSTEMS, "broken_forward",
                        _BrokenForwardSubsystem)
    config = baseline_sfc_mdt_config(name="broken-forward")
    config.subsystem = "broken_forward"
    return config


class TestCleanCampaign:
    def test_default_matrix_covers_every_subsystem(self):
        names = {config.subsystem for config in fuzz_config_matrix()}
        assert set(registry.SUBSYSTEMS) - names == set()

    def test_small_campaign_is_clean(self):
        fuzzer = DifferentialFuzzer()
        report = fuzzer.run(iterations=15, seed=0)
        assert report.ok
        assert report.iterations == 15
        assert report.failures == []

    def test_report_dict_is_schema_versioned(self):
        report = DifferentialFuzzer(
            configs=[baseline_lsq_config()]).run(iterations=2, seed=3)
        payload = report.to_dict()
        assert payload["kind"] == "fuzz"
        assert isinstance(payload["schema_version"], int)
        assert payload["ok"] is True
        json.dumps(payload)     # JSON-serializable end to end

    def test_report_counts_oracle_retired_instructions(self):
        fuzzer = DifferentialFuzzer(configs=[baseline_lsq_config()])
        report = fuzzer.run(iterations=3, seed=0)
        assert report.instructions == sum(
            len(Interpreter(fuzzer.builder(seed)).run(
                fuzzer.max_instructions)) for seed in range(3))

    @pytest.mark.parametrize("budget", [{"iterations": 0},
                                        {"iterations": -3},
                                        {"seconds": float("nan")},
                                        {"seconds": float("inf")},
                                        {"seconds": -5.0}],
                             ids=lambda budget: str(budget))
    def test_bad_budget_rejected(self, budget):
        fuzzer = DifferentialFuzzer(configs=[baseline_lsq_config()])
        with pytest.raises(ValueError, match=next(iter(budget))):
            fuzzer.run(seed=0, **budget)

    def test_seconds_budget_stops_campaign(self):
        fuzzer = DifferentialFuzzer(configs=[baseline_lsq_config()])
        report = fuzzer.run(seconds=0.2, seed=0)
        assert report.iterations >= 1
        assert report.elapsed >= 0.2

    def test_duplicate_config_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DifferentialFuzzer(configs=[baseline_lsq_config(),
                                        baseline_lsq_config()])

    def test_unfuzzed_subsystem_fails_coverage_check(self, monkeypatch):
        class _Toy:     # never constructed; the table entry is the point
            pass

        monkeypatch.setitem(registry.SUBSYSTEMS, "toy_uncovered", _Toy)
        with pytest.raises(ValueError, match="toy_uncovered"):
            DifferentialFuzzer()


class TestFaultInjection:
    def test_fuzzer_catches_broken_forwarding(self, broken_config):
        fuzzer = DifferentialFuzzer(configs=[broken_config])
        report = fuzzer.run(iterations=25, seed=0, minimize=False)
        assert not report.ok
        assert any(f.kind == "trace-divergence" for f in report.failures)
        assert all(f.config_name == "broken-forward"
                   for f in report.failures)

    def test_shrink_produces_minimal_case(self, broken_config):
        fuzzer = DifferentialFuzzer(configs=[broken_config])
        seed = next(s for s in range(50) if fuzzer.check_seed(s))
        program = fuzz_program(seed)
        failure = fuzzer.check_program(program, seed)[0]
        minimized = shrink_failure(fuzzer, program, failure)
        # The random program is dozens of instructions; the root cause
        # is one store forwarding to one load.
        assert len(minimized.instructions) < len(program.instructions)
        assert len(minimized.instructions) <= 8
        # The minimized program still reproduces the same failure.
        assert any(m.kind == failure.kind
                   for m in fuzzer.check_program(minimized))

    def test_campaign_writes_replayable_corpus(self, broken_config,
                                               tmp_path):
        fuzzer = DifferentialFuzzer(configs=[broken_config])
        corpus = tmp_path / "corpus"
        report = fuzzer.run(iterations=5, seed=0,
                            corpus_dir=str(corpus))
        assert not report.ok
        assert report.corpus_paths
        cases = load_corpus(corpus)
        assert cases
        for case in cases:
            assert case.config_name == "broken-forward"
            mismatches = replay_case(case, fuzzer)
            assert any(m.kind == case.kind for m in mismatches)

    def test_register_file_catches_a_leaky_undo_log(self, monkeypatch):
        # Fault: squash recovery puts back the RAT entries of the
        # squashed writers after the real undo.  The wrong path writes
        # r5 and nothing reads r5 again, so every retired value is
        # right and only the final register file shows the fault.
        undo = Core._squash_after

        def leaky_squash_after(self, flush_after_seq):
            writers = [dyn for dyn in self.rob
                       if dyn.seq > flush_after_seq
                       and dyn.rd_phys is not None]
            first = undo(self, flush_after_seq)
            for dyn in writers:
                self.rename.rat[dyn.inst.rd] = dyn.rd_phys
            return first

        program = parse_asm("li r1, 1\nli r5, 7\nbeq r1, r0, 0x14\n"
                            "nop\nhalt\nli r5, 99\nhalt")
        configs = fuzz_config_matrix()
        for config in configs:
            # Keep the predicted-taken branch wrong: no oracle fixes.
            config.oracle_fix_rate = 0
        fuzzer = DifferentialFuzzer(configs=configs)
        assert fuzzer.check_program(program) == []
        monkeypatch.setattr(Core, "_squash_after", leaky_squash_after)
        mismatches = fuzzer.check_program(program)
        assert [m.kind for m in mismatches] == \
            ["register-file"] * len(configs)
        assert {m.config_name for m in mismatches} == \
            {config.name for config in configs}
        assert "r5=0x63 (oracle 0x7)" in mismatches[0].detail

    def test_corpus_case_passes_on_healthy_configs(self, broken_config,
                                                   tmp_path):
        fuzzer = DifferentialFuzzer(configs=[broken_config])
        corpus = tmp_path / "corpus"
        fuzzer.run(iterations=5, seed=0, corpus_dir=str(corpus))
        # Explicit matrix: the default-config coverage check would
        # (correctly) object that "broken_forward" is still registered.
        healthy = DifferentialFuzzer(configs=fuzz_config_matrix())
        report = replay_corpus(corpus, healthy)
        assert report.ok, report.format()


@pytest.mark.fuzz
class TestNightlyCampaign:
    """Long campaign; tier-1 skips it and CI runs it in its own step
    (``-m fuzz``)."""

    def test_five_hundred_seeds_clean(self):
        report = DifferentialFuzzer().run(iterations=500, seed=0)
        assert report.ok, report.format()


class TestCorpusFormat:
    def _case(self):
        return CrashCase(seed=7, kind="trace-divergence",
                         config_name="broken-forward", detail="demo",
                         program_asm="sh r1, 0(r0)\nlbu r2, 0(r0)\nhalt")

    def test_roundtrip(self, tmp_path):
        case = self._case()
        path = case.save(tmp_path)
        loaded = CrashCase.load(path)
        assert loaded.to_dict() == case.to_dict()
        assert loaded.program().instructions

    def test_save_never_clobbers(self, tmp_path):
        case = self._case()
        first = case.save(tmp_path)
        second = case.save(tmp_path)
        assert first != second
        assert len(load_corpus(tmp_path)) == 2

    def test_schema_version_enforced(self):
        payload = self._case().to_dict()
        payload["case_schema_version"] = CASE_SCHEMA_VERSION + 1
        with pytest.raises(CorpusError, match="case_schema_version"):
            CrashCase.from_dict(payload)

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CorpusError, match="bad.json"):
            CrashCase.load(bad)

    def test_unassemblable_program_rejected(self, tmp_path):
        payload = self._case().to_dict()
        payload["program_asm"] = "frobnicate r1, r2\nhalt"
        path = tmp_path / "bad-asm.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CorpusError,
                           match="bad-asm.json.*program_asm"):
            CrashCase.load(path)

    def test_missing_directory_is_empty_corpus(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []
