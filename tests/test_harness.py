"""Tests for the experiment harness (configs, runner, figure plumbing)."""

import pytest

from repro.core.predictors import ENF, LSQ_MODE, NOT_ENF, TOTAL
from repro.harness import (
    FIGURE4_PARAMETERS,
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.harness.experiment import (
    ExperimentRunner,
    geometric_mean,
    normalized_ipc,
    suite_average,
)
from repro.harness.figures import FigureResult


class TestFigure4Presets:
    """The presets must match the paper's Figure 4 parameters exactly."""

    def test_baseline_core(self):
        config = baseline_lsq_config()
        assert config.width == 4
        assert config.fetch_branches_per_cycle == 1
        assert config.rob_size == 128
        assert config.sched_size == 128
        assert config.num_fus == 4
        assert config.mispredict_penalty == 8

    def test_aggressive_core(self):
        config = aggressive_lsq_config()
        assert config.width == 8
        assert config.fetch_branches_per_cycle == 8
        assert config.rob_size == 1024
        assert config.sched_size == 1024
        assert config.num_fus == 8

    def test_baseline_lsq_sizes(self):
        config = baseline_lsq_config()
        assert (config.lsq.lq_size, config.lsq.sq_size) == (48, 32)
        assert config.predictor.mode == LSQ_MODE

    def test_aggressive_lsq_sizes(self):
        assert (aggressive_lsq_config().lsq.lq_size,
                aggressive_lsq_config().lsq.sq_size) == (120, 80)

    def test_baseline_sfc_mdt_geometry(self):
        config = baseline_sfc_mdt_config()
        assert config.sfc.num_sets == 128 and config.sfc.assoc == 2
        assert config.mdt.num_sets == 4096 and config.mdt.assoc == 2
        assert config.mdt.granularity == 8
        assert config.predictor.mode == ENF

    def test_aggressive_sfc_mdt_geometry(self):
        config = aggressive_sfc_mdt_config()
        assert config.sfc.num_sets == 512 and config.sfc.assoc == 2
        assert config.mdt.num_sets == 8192 and config.mdt.assoc == 2
        assert config.predictor.mode == TOTAL

    def test_predictor_sizes(self):
        predictor = baseline_sfc_mdt_config().predictor
        assert predictor.pt_entries == 16384
        assert predictor.ct_entries == 16384
        assert predictor.num_ids == 4096
        assert predictor.lfpt_entries == 512

    def test_figure4_table_rows(self):
        names = [row[0] for row in FIGURE4_PARAMETERS]
        for expected in ("Pipeline Width", "Branch Predictor", "MDT",
                         "SFC", "Reorder Buffer", "Scheduling Window"):
            assert expected in names

    def test_mode_override(self):
        config = baseline_sfc_mdt_config(mode=NOT_ENF)
        assert config.predictor.mode == NOT_ENF

    def test_names_are_distinct(self):
        names = {baseline_lsq_config().name,
                 baseline_sfc_mdt_config().name,
                 aggressive_lsq_config().name,
                 aggressive_sfc_mdt_config().name}
        assert len(names) == 4


class TestExperimentRunner:
    def test_trace_cached_per_benchmark(self):
        runner = ExperimentRunner(scale=1500)
        first = runner.trace("gap")
        second = runner.trace("gap")
        assert first is second

    def test_run_produces_result(self):
        runner = ExperimentRunner(scale=1500)
        result = runner.run("gap", baseline_lsq_config())
        assert result.ipc > 0
        assert result.program_name == "gap"

    def test_run_suite_grid(self):
        runner = ExperimentRunner(scale=1500)
        configs = [baseline_lsq_config(), baseline_sfc_mdt_config()]
        results = runner.run_suite(["gap", "crafty"], configs)
        assert len(results) == 4
        assert ("gap", configs[0].name) in results


class TestMath:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([1, 1, 1]) == 1.0

    def test_geometric_mean_nonpositive_is_zero(self):
        # A zero or negative sample has no geometric mean; returning
        # 0.0 (not a ValueError from a fractional power of a negative
        # product) keeps figure averages total rather than crashing.
        assert geometric_mean([2, 8, 0]) == 0.0
        assert geometric_mean([2, -1]) == 0.0
        assert geometric_mean([0.0]) == 0.0

    def test_normalized_ipc(self):
        runner = ExperimentRunner(scale=1500)
        configs = [baseline_lsq_config(), baseline_sfc_mdt_config()]
        results = runner.run_suite(["gap"], configs)
        ratio = normalized_ipc(results, "gap", configs[1].name,
                               configs[0].name)
        assert ratio == pytest.approx(
            results[("gap", configs[1].name)].ipc /
            results[("gap", configs[0].name)].ipc)

    def test_suite_average(self):
        runner = ExperimentRunner(scale=1500)
        configs = [baseline_lsq_config(), baseline_sfc_mdt_config()]
        results = runner.run_suite(["gap", "crafty"], configs)
        avg = suite_average(results, ["gap", "crafty"], configs[1].name,
                            configs[0].name)
        assert 0.5 < avg < 1.5


class TestFigureResult:
    def test_format_contains_rows_and_averages(self):
        figure = FigureResult(
            "demo", ["a", "b"],
            [("gap", {"a": 1.0, "b": 0.5}),
             ("swim", {"a": 0.9, "b": 1.1})])
        text = figure.format()
        assert "gap" in text and "swim" in text
        assert "int avg" in text and "fp avg" in text

    def test_value_and_average_accessors(self):
        figure = FigureResult(
            "demo", ["a"],
            [("gap", {"a": 2.0}), ("crafty", {"a": 8.0})])
        assert figure.value("gap", "a") == 2.0
        assert figure.average("int avg", "a") == pytest.approx(4.0)

    def test_rate_columns_average_arithmetically(self):
        """A rate that is 0 on one benchmark averages to its arithmetic
        mean; an IPC column keeps the geometric mean."""
        figure = FigureResult(
            "demo", ["IPC", "viol%"],
            [("gap", {"IPC": 2.0, "viol%": 0.0}),
             ("crafty", {"IPC": 8.0, "viol%": 0.3})],
            arithmetic=["viol%"])
        assert figure.average("int avg", "viol%") == pytest.approx(0.15)
        assert figure.average("int avg", "IPC") == pytest.approx(4.0)
