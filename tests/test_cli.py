"""Tests for the command-line interface and the text report."""

import json
from pathlib import Path

import pytest

from repro import Processor, api
from repro.api import CONFIGS, FIGURES
from repro.cli import main
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.obs.runrecord import SCHEMA_VERSION, RunRecord
from repro.stats.report import format_report
from repro.workloads import ALL_BENCHMARKS
from tests.conftest import assemble, counted_loop_program

CORPUS_CASE = (Path(__file__).parent.parent / "corpus"
               / "seed1-regression-cross-config.json")
HAZARD_HEX = Path(__file__).parent.parent / "examples" / "hazard.hex"


def record_of(build_fn, config):
    result = Processor(assemble(build_fn), config).run()
    return RunRecord.from_sim_result(result, benchmark="inline")


class TestReport:
    def test_report_has_all_sections(self):
        record = record_of(counted_loop_program, baseline_sfc_mdt_config())
        report = format_report(record)
        for section in ("performance", "front end", "memory subsystem",
                        "ordering violations", "caches"):
            assert section in report
        assert "IPC" in report
        assert "SFC forwards" in report

    def test_lsq_report_shows_cam_work(self):
        record = record_of(counted_loop_program, baseline_lsq_config())
        report = format_report(record)
        assert "CAM-searched" in report
        assert "SFC forwards" not in report


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for benchmark in ALL_BENCHMARKS:
            assert benchmark in out
        for config in CONFIGS:
            assert config in out
        for figure in FIGURES:
            assert figure in out

    def test_run(self, capsys):
        assert main(["run", "gap", "--scale", "1500"]) == 0
        out = capsys.readouterr().out
        assert "gap on" in out and "IPC" in out

    def test_run_each_config(self, capsys):
        for config in CONFIGS:
            assert main(["run", "crafty", "--scale", "1200",
                         "--config", config]) == 0

    def test_compare(self, capsys):
        assert main(["compare", "gap", "--scale", "1500",
                     "--configs", "baseline-lsq", "baseline-sfc-mdt"]) == 0
        out = capsys.readouterr().out
        assert "baseline-lsq" in out and "baseline-sfc-mdt" in out

    def test_compare_labels_rows_by_their_own_config(self, capsys,
                                                     monkeypatch):
        """A failed config's row carries its error, not a surviving
        config's numbers, and the command exits 1."""
        def failing():
            config = baseline_lsq_config()
            config.max_cycles = 10
            return config

        monkeypatch.setitem(CONFIGS, "baseline-lsq", failing)
        argv = ["compare", "gap", "--configs", "baseline-lsq",
                "baseline-sfc-mdt", "--scale", "1000", "--no-cache",
                "--jobs", "1"]
        assert main(argv) == 1
        rows = {line.split()[0]: line.split()[1:]
                for line in capsys.readouterr().out.splitlines()[2:]}
        assert rows["baseline-lsq"][0] == "FAILED:"
        sfc = api.simulate("gap", "baseline-sfc-mdt", scale=1000,
                           jobs=1, use_cache=False)
        assert rows["baseline-sfc-mdt"] == [f"{sfc.ipc:.3f}",
                                            str(sfc.cycles)]
        assert main(argv + ["--format", "json"]) == 1
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert [run["status"] for run in runs] == ["failed", "ok"]

    def test_figure(self, capsys):
        assert main(["figure", "window-scaling", "--scale", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Window scaling" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "doom"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_all_figures_registered(self):
        # Every generator in the harness is reachable from the CLI.
        assert set(FIGURES) == {
            "fig5", "fig6", "enf-ablation", "associativity", "corruption",
            "granularity", "power", "window-scaling", "recovery"}


class TestJsonFormat:
    """``--format json`` emits parseable, schema-versioned documents."""

    def test_run_json_is_a_runrecord(self, capsys):
        assert main(["run", "gap", "--scale", "1500", "--no-cache",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "run"
        assert payload["benchmark"] == "gap"
        assert payload["counters"]["retired_loads"] > 0
        # The document round-trips through the validating constructor.
        record = RunRecord.from_dict(payload)
        assert record.ipc == payload["ipc"]

    def test_compare_json_envelope(self, capsys):
        assert main(["compare", "gap", "--scale", "1500", "--no-cache",
                     "--configs", "baseline-lsq", "baseline-sfc-mdt",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "compare"
        assert payload["schema_version"] == SCHEMA_VERSION
        names = [run["config_name"] for run in payload["runs"]]
        assert names[0].startswith("baseline-lsq")
        assert names[1].startswith("baseline-sfc-mdt")
        for run in payload["runs"]:
            RunRecord.from_dict(run)

    def test_figure_json_envelope(self, capsys):
        assert main(["figure", "window-scaling", "--scale", "1500",
                     "--no-cache", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "figure"
        assert payload["name"] == "window-scaling"
        assert payload["rows"] and payload["series"]
        assert all("schema_version" in run for run in payload["runs"])

    def test_list_json_envelope(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "list"
        assert set(payload["configurations"]) == set(CONFIGS)
        assert set(payload["figures"]) == set(FIGURES)
        assert list(ALL_BENCHMARKS) == payload["benchmarks"]

    def test_out_writes_file(self, tmp_path, capsys):
        out = tmp_path / "record.json"
        assert main(["run", "gap", "--scale", "1500", "--no-cache",
                     "--format", "json", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert str(out) in stdout  # stdout notes the path, not the doc
        payload = json.loads(out.read_text())
        assert payload["kind"] == "run"

    def test_trace_out_writes_epoch_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "epochs.jsonl"
        assert main(["run", "gap", "--scale", "1500", "--no-cache",
                     "--epoch-cycles", "200",
                     "--trace-out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        snapshot = json.loads(lines[0])
        assert snapshot["cycle"] >= 200
        assert "rob_occupancy" in snapshot

    def test_trace_out_requires_epoch_cycles(self):
        assert main(["run", "gap", "--scale", "1500", "--no-cache",
                     "--trace-out", "x.jsonl"]) == 2


class TestErrorPaths:
    """Bad inputs exit with a message, never a traceback."""

    def test_unknown_config_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "gap", "--config", "no-such-preset"])

    def test_malformed_out_path_exits_cleanly(self, tmp_path, capsys):
        # The parent "directory" is a regular file, so the write must
        # fail -- with exit code 2 and a message, not an OSError dump.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        bad = blocker / "sub" / "out.json"
        assert main(["list", "--format", "json",
                     "--out", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_clean_campaign_never_touches_corpus_dir(self, tmp_path,
                                                     capsys):
        # Corpus directories are created lazily, on the first failure:
        # a clean campaign with an unusable --corpus path still passes.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["fuzz", "--iterations", "1", "--seed", "0",
                     "--corpus", str(blocker / "corpus")]) == 0
        assert not (blocker / "corpus").exists()
        capsys.readouterr()

    def test_replay_requires_corpus(self, capsys):
        assert main(["fuzz", "--replay"]) == 2
        assert "--corpus" in capsys.readouterr().err

    @staticmethod
    def replay_error(corpus, capsys) -> str:
        assert main(["fuzz", "--replay", "--corpus", str(corpus)]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "case(s)" not in captured.out
        return captured.err

    def test_replay_corpus_not_a_directory(self, tmp_path, capsys):
        # A typo, or one case file in place of its directory.
        for corpus in (tmp_path / "no-such-dir", CORPUS_CASE):
            assert "is not a directory" in self.replay_error(corpus,
                                                             capsys)

    def test_replay_malformed_case_file(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{not json")
        assert "bad.json: not valid JSON" in self.replay_error(tmp_path,
                                                              capsys)
        payload = json.loads(CORPUS_CASE.read_text())
        payload["case_schema_version"] += 1
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        assert "case_schema_version" in self.replay_error(tmp_path,
                                                          capsys)

    def test_replay_unassemblable_case(self, tmp_path, capsys):
        payload = json.loads(CORPUS_CASE.read_text())
        payload["program_asm"] = "frobnicate r1, r2\nhalt"
        (tmp_path / "case.json").write_text(json.dumps(payload))
        err = self.replay_error(tmp_path, capsys)
        assert "case.json" in err and "program_asm" in err

    def test_bad_jobs_is_a_usage_error_on_run(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "gap", "--jobs", "-1"])
        assert exit_info.value.code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-5"])
    def test_bad_scale_is_a_usage_error_on_run(self, tmp_path, capsys,
                                               scale):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "gzip", "--scale", scale,
                  "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "scale must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["run", "gzip", "--sample-intervals", "0"],
        ["run", "gzip", "--epoch-cycles", "0"],
        ["run", "gzip", "--warmup-insts", "-5"],
        ["run", "gzip", "--interval-insts", "0"],
        ["fuzz", "--seconds", "nan"],
        ["fuzz", "--seconds", "inf"],
        ["fuzz", "--seconds", "-5"],
        ["fuzz", "--iterations", "0"],
        ["fuzz", "--iterations", "-3"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_bad_numeric_flag_is_a_usage_error(self, tmp_path, capsys,
                                               argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(tmp_path / "out.json")])
        assert exit_info.value.code == 2
        assert f"argument {argv[-2]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["run", "gap", "--epoch-cycles", "100"],
        ["run", "gap", "--warmup-insts", "1000"],
        ["run", "gap", "--interval-insts", "5000"],
        # Litmus and --riscv runs build no engine: --scale and
        # --cache-dir are theirs to refuse.
        pytest.param(["run", "litmus-mp"], id="litmus-mp"),
        ["run", "--riscv", str(HAZARD_HEX)],
    ], ids=lambda argv: "+".join(a for a in argv if a.startswith("--")))
    def test_mode_flag_outside_its_mode_exits_before_simulating(
            self, tmp_path, capsys, argv):
        # Each run mode reads its own flags; any other mode flag is a
        # usage error caught before a cell simulates or is cached.
        assert main(argv + ["--scale", "1500",
                            "--cache-dir", str(tmp_path)]) == 2
        assert "error: --" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSuiteCommand:
    """``repro suite``: the fault-tolerant, resumable grid runner."""

    SUITE = ["suite", "--benchmarks", "gap", "crafty",
             "--configs", "baseline-lsq", "baseline-sfc-mdt",
             "--scale", "1200", "--jobs", "1"]

    def args(self, tmp_path, *extra):
        return self.SUITE + ["--cache-dir", str(tmp_path / "cache"),
                             "--manifest",
                             str(tmp_path / "m.json")] + list(extra)

    def test_suite_writes_valid_manifest(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out and "failed: 0" in out
        entries = json.loads((tmp_path / "m.json").read_text())
        assert len(entries) == 4
        for entry in entries:
            record = RunRecord.from_dict(entry)  # validates schema
            assert record.ok
            assert entry["engine"]["jobs"] == 1

    def test_rerun_without_resume_refused(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self.args(tmp_path)) == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_restores_from_cache(self, tmp_path, capsys):
        assert main(self.args(tmp_path)) == 0
        capsys.readouterr()
        assert main(self.args(tmp_path, "--resume")) == 0
        out = capsys.readouterr().out
        assert "4 from cache, 0 simulated" in out

    def test_resume_rejects_no_cache(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--resume", "--no-cache")) == 2
        assert "--no-cache" in capsys.readouterr().err

    def test_gc_cache_rejects_no_cache(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--gc-cache", "--no-cache")) == 2
        assert "--no-cache" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flags", [("--timeout", "-1"),
                                       ("--timeout", "0"),
                                       ("--timeout", "nan"),
                                       ("--jobs", "0"),
                                       ("--scale", "0"),
                                       ("--scale", "-5")],
                             ids=["timeout-negative", "timeout-zero",
                                  "timeout-nan", "jobs-zero",
                                  "scale-zero", "scale-negative"])
    def test_bad_engine_settings_are_usage_errors(self, tmp_path, capsys,
                                                  flags):
        with pytest.raises(SystemExit) as exit_info:
            main(self.args(tmp_path, *flags))
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_failed_cell_listed_with_its_error(self, tmp_path, capsys,
                                               monkeypatch):
        def boom(program, trace, config):
            raise RuntimeError("injected")

        monkeypatch.setattr(
            "repro.harness.experiment._simulate_cell", boom)
        assert main(self.args(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "failed: 4" in out
        assert "gap/baseline-lsq" in out
        assert ": failed: RuntimeError: injected" in out
        assert "attempt" not in out

    def test_suite_json_envelope(self, tmp_path, capsys):
        assert main(self.args(tmp_path, "--format", "json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "suite"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["cells"] == 4
        assert payload["failures"] == 0
        assert len(payload["runs"]) == 4


class TestFuzzCli:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--iterations", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "no mismatches" in out
        assert "5 programs" in out

    def test_json_envelope(self, capsys):
        assert main(["fuzz", "--iterations", "3", "--seed", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "fuzz"
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["ok"] is True
        assert payload["iterations"] == 3
        assert payload["failures"] == []
        assert len(payload["configurations"]) >= 4

    def test_explicit_config_subset(self, capsys):
        assert main(["fuzz", "--iterations", "3",
                     "--configs", "baseline-lsq", "--format",
                     "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["configurations"] == ["baseline-lsq-48x32"]

    def test_replay_empty_corpus_ok(self, tmp_path, capsys):
        empty = tmp_path / "corpus"
        empty.mkdir()
        assert main(["fuzz", "--replay", "--corpus", str(empty)]) == 0
        assert "0 case(s)" in capsys.readouterr().out


class TestMulticoreCli:
    def test_run_litmus_exits_zero_when_allowed(self, capsys):
        assert main(["run", "litmus-mp"]) == 0
        out = capsys.readouterr().out
        assert "litmus-mp" in out
        assert "outcome:" in out and "model allows:" in out

    def test_run_litmus_default_cores(self, capsys):
        # Each test runs one core per thread; no flag sets the count.
        for name in ("litmus-lb", "litmus-mp", "litmus-sb"):
            assert main(["run", name]) == 0
            out = capsys.readouterr().out
            assert f"{name} on " in out and "(2 cores, shared memory)" in out

    def test_run_litmus_trace_flags_rejected(self, capsys):
        assert main(["run", "litmus-mp", "--epoch-cycles", "100",
                     "--trace-out", "/tmp/x.jsonl"]) == 2
        assert "single-core only" in capsys.readouterr().err

    def test_run_litmus_json_envelope(self, capsys):
        assert main(["run", "litmus-mp", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "litmus-run"
        assert payload["litmus"]["test"] == "mp"
        assert payload["litmus"]["allowed"] is True
        run = payload["run"]
        assert run["schema_version"] == SCHEMA_VERSION + 1
        assert run["cores"] == 2
        assert run["scale"] == 0        # a litmus run takes no --scale
        record = RunRecord.from_dict(run)
        assert record.cores == 2

    def test_litmus_subcommand_suite(self, capsys):
        assert main(["litmus"]) == 0
        out = capsys.readouterr().out
        assert "3 run(s), 0 violation(s)" in out

    def test_litmus_subcommand_json(self, capsys):
        assert main(["litmus", "--tests", "litmus-mp", "--format",
                     "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "litmus"
        assert payload["ok"] is True
        assert payload["runs"] == 1

    def test_list_includes_litmus_tests(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["litmus_tests"] == ["litmus-lb", "litmus-mp",
                                           "litmus-sb"]
