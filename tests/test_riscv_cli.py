"""CLI and public-API coverage for the RISC-V frontend: ``run
--riscv FILE``, ``suite --suite NAME``, and the ``conformance``
subcommand."""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.workloads import RISCV_BENCHMARKS

REPO_ROOT = Path(__file__).parent.parent
HAZARD_HEX = REPO_ROOT / "examples" / "hazard.hex"
FIXTURE_HEX = REPO_ROOT / "tests" / "data" / "riscv" / "stl_hazard.hex"


class TestApi:
    def test_simulate_riscv_returns_a_record(self):
        record = api.simulate_riscv(FIXTURE_HEX)
        assert record.instructions == 17
        assert record.cycles > 0
        assert 0 < record.ipc <= 1
        json.loads(record.to_json())

    def test_simulate_riscv_resolves_config_names(self):
        record = api.simulate_riscv(FIXTURE_HEX, "baseline-lsq")
        assert "lsq" in record.config_name

    def test_run_riscv_conformance(self):
        report = api.run_riscv_conformance(configs=["baseline-sfc-mdt"])
        assert report.ok
        assert len(report.cases) == len(RISCV_BENCHMARKS)

    def test_list_suites_and_frontends(self):
        assert "riscv-conformance" in api.list_suites()
        assert api.list_frontends() == ["native", "riscv"]

    def test_rv_benchmarks_listed_separately(self):
        # The RV32 corpus must never leak into ALL_BENCHMARKS: the
        # pinned figure-grid digest is computed over ALL_BENCHMARKS.
        assert not (set(RISCV_BENCHMARKS) & set(api.list_benchmarks()))


class TestRunRiscv:
    def test_quickstart_example(self, capsys):
        # The README quickstart: repro run --riscv examples/hazard.hex
        assert main(["run", "--riscv", str(HAZARD_HEX)]) == 0
        out = capsys.readouterr().out
        assert "riscv-hazard" in out
        assert "IPC" in out

    def test_json_output(self, capsys):
        assert main(["run", "--riscv", str(FIXTURE_HEX),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "riscv-stl_hazard"
        assert payload["instructions"] == 17

    def test_missing_benchmark_and_riscv_rejected(self, capsys):
        assert main(["run"]) == 2
        assert "--riscv" in capsys.readouterr().err

    def test_benchmark_plus_riscv_rejected(self, capsys):
        assert main(["run", "gzip", "--riscv", str(HAZARD_HEX)]) == 2
        assert "one or the other" in capsys.readouterr().err

    def test_unreadable_image_exits_with_message(self, capsys):
        assert main(["run", "--riscv", "/no/such/file.hex"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_image_exits_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.hex"
        bad.write_text("zzzz\n")
        assert main(["run", "--riscv", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_image_suffix_exits_with_the_rule(self, tmp_path,
                                                      capsys):
        # Hex text under a suffix the loader has no rule for is refused,
        # not guessed at.
        image = tmp_path / "hazard.img"
        image.write_bytes(HAZARD_HEX.read_bytes())
        assert main(["run", "--riscv", str(image)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ".hex" in err and ".bin" in err

    def test_non_halting_image_exits_with_message(self, tmp_path, capsys,
                                                  monkeypatch):
        loop = tmp_path / "loop.hex"
        loop.write_text("0000006f\n")  # jal x0, 0
        monkeypatch.setattr(api, "simulate_riscv", functools.partial(
            api.simulate_riscv, max_instructions=1_000))
        assert main(["run", "--riscv", str(loop)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "did not halt within 1000" in err

    def test_riscv_excludes_multicore_and_sampling(self, capsys):
        # The multicore run is a litmus test, named like a benchmark.
        assert main(["run", "litmus-mp", "--riscv", str(HAZARD_HEX)]) == 2
        assert main(["run", "--riscv", str(HAZARD_HEX),
                     "--sample-intervals", "3"]) == 2

    def test_rv_benchmark_name_accepted(self, capsys, tmp_path):
        assert main(["run", "rv-stl_hazard", "--no-cache",
                     "--cache-dir", str(tmp_path)]) == 0
        assert "rv-stl_hazard" in capsys.readouterr().out


class TestConformanceCommand:
    def test_text_report_and_exit_code(self, capsys):
        assert main(["conformance",
                     "--configs", "baseline-sfc-mdt"]) == 0
        out = capsys.readouterr().out
        assert f"{len(RISCV_BENCHMARKS)} case(s) from riscv-conformance" \
            in out
        assert "MISMATCH" not in out

    def test_json_report_and_manifest(self, tmp_path, capsys):
        assert main(["conformance", "--configs", "baseline-sfc-mdt",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "conformance"
        assert payload["source"] == "riscv-conformance"
        assert payload["ok"] is True
        assert {case["name"] for case in payload["cases"]} == \
            set(RISCV_BENCHMARKS)
        # The manifest of the same cells comes from the engine, with
        # each cell's full config and counters.
        manifest = tmp_path / "conformance_manifest.json"
        assert main(["suite", "--suite", "riscv-conformance",
                     "--configs", "baseline-sfc-mdt",
                     "--manifest", str(manifest), "--no-cache",
                     "--jobs", "1"]) == 0
        records = json.loads(manifest.read_text())
        assert {record["benchmark"] for record in records} == \
            set(RISCV_BENCHMARKS)
        assert all(record["config"] and record["counters"]
                   for record in records)


class TestSuiteFlag:
    def test_suite_and_benchmarks_mutually_exclusive(self, capsys,
                                                     tmp_path):
        assert main(["suite", "--suite", "riscv-conformance",
                     "--benchmarks", "gzip",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_riscv_suite_through_the_engine(self, capsys, tmp_path):
        manifest = tmp_path / "suite.json"
        assert main(["suite", "--suite", "riscv-conformance",
                     "--configs", "baseline-sfc-mdt",
                     "--manifest", str(manifest), "--no-cache",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        entries = json.loads(manifest.read_text())
        assert {entry["benchmark"] for entry in entries} == \
            set(RISCV_BENCHMARKS)
        assert all(entry["status"] == "ok" for entry in entries)

    def test_list_shows_riscv_namespaces(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "riscv" in payload["frontends"]
        assert "riscv-conformance" in payload["suites"]
        assert set(payload["riscv_benchmarks"]) == set(RISCV_BENCHMARKS)
