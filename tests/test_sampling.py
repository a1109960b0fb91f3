"""Tests for interval sampling (repro.checkpoint.sampling) and its
harness/api/CLI integration.

The accuracy contract: on real kernels, the sampled IPC's reported
confidence interval covers the full-run IPC.  The bit-exactness
contract: sampled mode is pure addition -- exact-mode records, cache
keys, and the manifest digest are byte-identical with the feature in
the tree.
"""

from __future__ import annotations

import json

import pytest

from repro import api, perf
from repro.checkpoint import (ArchCheckpoint, SamplingError, capture_train,
                              sample_run, select_checkpoints)
from repro.checkpoint.sampling import simulate_interval, t95
from repro.harness.configs import (
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.harness.experiment import ExperimentRunner, cache_key
from repro.isa.interp import Interpreter
from repro.isa.program import Program
from repro.pipeline.core import Core
from repro.workloads import suites

#: Three kernels with different phase structure for the tolerance test.
TOLERANCE_KERNELS = ("gzip", "mcf", "equake")
SCALE = 30_000
#: Tolerance-test cells: each kernel on the paper's baseline, then on
#: baseline-lsq.  With warm capsules even a short warm-up suffices on
#: the cache-sensitive baseline-lsq config.
ACCURACY_CELLS = [
    *(pytest.param(kernel, baseline_sfc_mdt_config, id=kernel)
      for kernel in TOLERANCE_KERNELS),
    *(pytest.param(kernel, baseline_lsq_config, id=f"{kernel}-lsq")
      for kernel in TOLERANCE_KERNELS),
]


def _full_ipc(benchmark, config, scale=SCALE):
    program = suites.build(benchmark, scale)
    interp = Interpreter(program)
    trace = interp.run(5_000_000)
    core = Core(program, config, trace=trace)
    result = core.run()
    return result.instructions / result.cycles


class TestSampledAccuracy:
    @pytest.mark.parametrize("kernel, make_config", ACCURACY_CELLS)
    def test_sampled_ipc_within_ci_of_full(self, kernel, make_config):
        config = make_config()
        program = suites.build(kernel, SCALE)
        sampled = sample_run(program, config, intervals=8,
                             warmup_insts=500, interval_insts=2_000)
        full = _full_ipc(kernel, config)
        assert abs(sampled.ipc_mean - full) <= sampled.ipc_ci95, (
            f"{kernel}/{config.name}: sampled {sampled.ipc_mean:.4f} +/- "
            f"{sampled.ipc_ci95:.4f} does not cover full {full:.4f}")

    def test_detailed_fraction_is_small(self):
        config = baseline_sfc_mdt_config()
        program = suites.build("gzip", SCALE)
        sampled = sample_run(program, config, intervals=5,
                             warmup_insts=500, interval_insts=2_000)
        assert sampled.total_instructions > 30_000
        assert sampled.detailed_instructions < \
            sampled.total_instructions // 2

    def test_cold_short_warmup_underpredicts(self):
        """Regression oracle for the cold-start bias that warm capsules
        correct: the same windows restored without their capsules, with
        a tiny warm-up, read biased-low."""
        config = baseline_lsq_config()
        program = suites.build("gzip", SCALE)
        full = _full_ipc("gzip", config)
        warm = sample_run(program, config, intervals=8,
                          warmup_insts=500, interval_insts=2_000)
        train = capture_train(program, warm.checkpoint_every)
        cold_ipcs = []
        for ckpt in select_checkpoints(train["checkpoints"],
                                       train["total_instructions"],
                                       intervals=8, window=2_500):
            bare = ArchCheckpoint.from_dict({**ckpt.to_dict(), "warm": None})
            result = simulate_interval(program, config, bare, 500, 2_000)
            if result is not None:
                cold_ipcs.append(result["ipc"])
        cold = sum(cold_ipcs) / len(cold_ipcs)
        assert cold < full
        assert abs(warm.ipc_mean - full) < abs(cold - full)

    def test_single_interval_reports_wide_ci(self):
        config = baseline_sfc_mdt_config()
        program = suites.build("gzip", 2_000)
        sampled = sample_run(program, config, intervals=1,
                             warmup_insts=100, interval_insts=500)
        assert len(sampled.intervals) == 1
        assert sampled.ipc_ci95 == pytest.approx(0.10 * sampled.ipc_mean)

    def test_unhaltable_warmup_raises_sampling_error(self):
        config = baseline_sfc_mdt_config()
        program = suites.build("gzip", 2_000)
        with pytest.raises(SamplingError, match="warm-up"):
            sample_run(program, config, intervals=2,
                       warmup_insts=10_000_000, interval_insts=100)

    def test_t95_table(self):
        assert t95(1) == pytest.approx(12.706)
        assert t95(9) == pytest.approx(2.262)
        assert t95(17) == pytest.approx(2.131)
        # Never below the true quantile between or past the table's
        # rows, which would narrow the reported CI: a thinned train
        # gives up to 129 intervals, so df reaches 128.
        true_t95 = {16: 2.1199, 59: 2.0010, 60: 2.0003, 100: 1.9840,
                    128: 1.9787, 1000: 1.9623}
        for df, quantile in true_t95.items():
            assert t95(df) >= quantile - 1e-3, df
        assert all(t95(df + 1) <= t95(df) for df in range(1, 200))


class TestBoundaryAccounting:
    """Interval accounting at the halt: instructions past it never enter
    the IPC denominator or the sampled-span bookkeeping."""

    def test_degenerate_short_program_sampled_equals_exact(self):
        # Program shorter than one window, zero warm-up: the single
        # degenerate interval must reproduce exact-mode IPC *exactly* --
        # any post-halt remainder in the denominator would break this.
        config = baseline_sfc_mdt_config()
        program = suites.build("gzip", 300)
        sampled = sample_run(program, config, intervals=4,
                             warmup_insts=0, interval_insts=100_000)
        exact = _full_ipc("gzip", config, scale=300)
        assert sampled.ipc_mean == exact
        assert len(sampled.intervals) == 1
        assert sampled.instructions == sampled.total_instructions

    def test_halt_inside_window_excludes_post_halt_remainder(self):
        # The warm-up+measure window extends past the halt: the measured
        # span must end at the halt, not run the window length.
        config = baseline_sfc_mdt_config()
        program = suites.build("gzip", 300)
        sampled = sample_run(program, config, intervals=2,
                             warmup_insts=100, interval_insts=100_000)
        total = sampled.total_instructions
        for iv in sampled.intervals:
            assert iv["position"] + 100 + iv["retired"] <= total
            assert iv["ipc"] == iv["retired"] / iv["cycles"]


class TestWindowHashing:
    def test_window_hashes_its_program_at_most_twice(self, monkeypatch):
        # One check of the restored image against the checkpoint's
        # digest, one predecode for the suffix trace: the core runs on
        # a copy of the checked image instead of restoring its own.
        program = suites.build("gzip", 3_000)
        ckpt = capture_train(program, 1_000)["checkpoints"][1]
        digest = Program.digest
        calls = []

        def counting_digest(self):
            calls.append(self.name)
            return digest(self)

        monkeypatch.setattr(Program, "digest", counting_digest)
        result = simulate_interval(program, baseline_sfc_mdt_config(),
                                   ckpt, 300, 1_000)
        assert result is not None
        assert len(calls) <= 2


def _train_entries(cache_dir):
    """The checkpoint-train entries of a result-cache directory."""
    return sorted(path for path in cache_dir.glob("*.json")
                  if "checkpoints" in json.loads(path.read_text()))


class TestRunnerIntegration:
    def test_run_sampled_record_shape(self, tmp_path):
        runner = ExperimentRunner(scale=10_000, cache_dir=tmp_path)
        record = runner.run_sampled("gzip", baseline_sfc_mdt_config(),
                                    intervals=4, warmup_insts=300,
                                    interval_insts=1_000)
        assert record.ok and record.sampling is not None
        info = record.sampling
        assert record.ipc == pytest.approx(info["ipc_mean"])
        assert info["ipc_ci95"] > 0
        assert 1 <= len(info["intervals"]) <= 4
        assert info["warmup_insts"] == 300
        payload = record.to_dict()
        assert payload["sampling"] == info
        from repro.obs.runrecord import RunRecord
        assert RunRecord.from_dict(payload).sampling == info

    def test_sampled_cells_cache_separately_from_exact(self, tmp_path):
        runner = ExperimentRunner(scale=10_000, cache_dir=tmp_path)
        config = baseline_sfc_mdt_config()
        exact = runner.run("gzip", config)
        sampled = runner.run_sampled("gzip", config, intervals=4,
                                     warmup_insts=300,
                                     interval_insts=1_000)
        exact_entry, sampled_entry = runner.manifest[-2:]
        assert exact_entry["key"] != sampled_entry["key"]
        assert "sampling" not in exact_entry
        # Second sampled call is a cache hit with the same numbers.
        again = runner.run_sampled("gzip", config, intervals=4,
                                   warmup_insts=300,
                                   interval_insts=1_000)
        assert runner.manifest[-1]["cache_hit"] is True
        assert again.ipc == sampled.ipc
        assert again.sampling == sampled.sampling

    def test_checkpoint_train_shared_across_configs(self, tmp_path):
        """Two configs of one benchmark fast-forward once: the second
        run_sampled reuses the persisted checkpoint train."""
        runner = ExperimentRunner(scale=10_000, cache_dir=tmp_path)
        runner.run_sampled("gzip", baseline_sfc_mdt_config(),
                           intervals=3, warmup_insts=300,
                           interval_insts=1_000)
        trains = _train_entries(tmp_path)
        assert len(trains) == 1
        runner.run_sampled("gzip", baseline_lsq_config(), intervals=3,
                           warmup_insts=300, interval_insts=1_000)
        assert _train_entries(tmp_path) == trains
        # A new process (a fresh runner) restores it from the cache.
        mtime = trains[0].stat().st_mtime_ns
        ExperimentRunner(scale=10_000, cache_dir=tmp_path).run_sampled(
            "gzip", baseline_sfc_mdt_config(), intervals=2,
            warmup_insts=300, interval_insts=1_000)
        assert _train_entries(tmp_path) == trains
        assert trains[0].stat().st_mtime_ns == mtime

    def test_exact_cache_key_unchanged_by_sampling_param(self):
        config = baseline_sfc_mdt_config()
        assert cache_key("gzip", 1000, config) == \
            cache_key("gzip", 1000, config, sampling=None)
        assert cache_key("gzip", 1000, config) != \
            cache_key("gzip", 1000, config, sampling={"intervals": 4})

    def test_exact_manifest_digest_untouched_by_sampled_cells(self,
                                                              tmp_path):
        """Appending sampled cells must not perturb the digest of the
        exact cells already in a manifest slice."""
        runner = ExperimentRunner(scale=5_000, cache_dir=tmp_path)
        runner.run("gzip", baseline_sfc_mdt_config())
        exact_digest = perf.manifest_digest(runner.manifest)
        runner.run_sampled("gzip", baseline_sfc_mdt_config(),
                           intervals=3, warmup_insts=300,
                           interval_insts=1_000)
        assert perf.manifest_digest(runner.manifest[:1]) == exact_digest


class TestApiAndCli:
    def test_simulate_sampled(self, tmp_path):
        record = api.simulate_sampled("gzip", "baseline-sfc-mdt",
                                      scale=10_000, intervals=4,
                                      warmup_insts=300,
                                      interval_insts=1_000,
                                      cache_dir=tmp_path)
        assert record.sampling is not None
        assert record.ipc > 0

    def test_cli_sampled_run(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["run", "gzip", "--scale", "10000",
                     "--sample-intervals", "4", "--warmup-insts", "300",
                     "--interval-insts", "1000",
                     "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "sampled" in out and "95% CI" in out

    def test_cli_sampled_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        code = main(["run", "gzip", "--scale", "10000",
                     "--sample-intervals", "4", "--warmup-insts", "300",
                     "--interval-insts", "1000",
                     "--cache-dir", str(tmp_path), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["sampling"]["ipc_ci95"] > 0

    def test_cli_sampled_rejects_pipetrace(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["run", "gzip", "--sample-intervals", "4",
                     "--epoch-cycles", "100", "--trace-out",
                     str(tmp_path / "t.jsonl"),
                     "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "exact mode" in capsys.readouterr().err

    def test_cli_sampled_without_measurable_interval_exits_2(
            self, tmp_path, capsys):
        from repro.cli import main

        # 17 instructions against the default 1000-instruction warm-up:
        # a usage error with a message, not a traceback (exit 1 is kept
        # for mismatches).
        code = main(["run", "rv-stl_hazard", "--sample-intervals", "3",
                     "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "error: no measurable interval" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
