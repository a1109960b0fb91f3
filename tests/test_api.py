"""Tests for the stable public API facade."""

import warnings

import pytest

from repro import Processor, api
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.obs.runrecord import RunRecord
from repro.stats.report import format_report
from repro.workloads import ALL_BENCHMARKS
from tests.conftest import assemble, counted_loop_program


def quiet_runner_kwargs():
    return dict(jobs=1, use_cache=False)


class TestSimulate:
    def test_returns_runrecord(self):
        record = api.simulate("gap", "baseline-sfc-mdt", scale=1200,
                              **quiet_runner_kwargs())
        assert isinstance(record, RunRecord)
        assert record.benchmark == "gap"
        # Preset names carry a parameter suffix (e.g. "-enf").
        assert record.config_name.startswith("baseline-sfc-mdt")
        assert record.scale == 1200
        assert record.cycles > 0 and record.counters

    def test_accepts_config_object(self):
        config = baseline_sfc_mdt_config()
        record = api.simulate("gap", config, scale=1200,
                              **quiet_runner_kwargs())
        assert record.config_name == config.name

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            api.simulate("gap", "no-such-preset", scale=1200,
                         **quiet_runner_kwargs())

    def test_unknown_config_message_lists_presets(self):
        with pytest.raises(KeyError, match="baseline-sfc-mdt"):
            api.resolve_config("no-such-preset")

    def test_unknown_workload_rejected_with_message(self):
        with pytest.raises(KeyError, match="doom"):
            api.simulate("doom", scale=1200, **quiet_runner_kwargs())


class TestCompare:
    def test_records_in_request_order(self):
        records = api.compare(
            "gap", ["baseline-sfc-mdt", "baseline-lsq"], scale=1200,
            **quiet_runner_kwargs())
        names = [r.config_name for r in records]
        assert names[0].startswith("baseline-sfc-mdt")
        assert names[1].startswith("baseline-lsq")
        assert all(r.benchmark == "gap" for r in records)

    def test_failed_cell_keeps_its_place(self):
        """A failed config gets its own failure record; the surviving
        cell is not shifted under its name."""
        failing = baseline_lsq_config(name="too-few-cycles")
        failing.max_cycles = 10
        records = api.compare("gap", [failing, "baseline-sfc-mdt"],
                              scale=1000, **quiet_runner_kwargs())
        assert [r.config_name for r in records] == \
            ["too-few-cycles", baseline_sfc_mdt_config().name]
        assert records[0].status == "failed"
        assert "10 cycles" in records[0].error
        assert records[1].ok and records[1].cycles > 0


class TestRunnerArgument:
    """A supplied runner brings its own scale and engine settings."""

    @staticmethod
    def _runner():
        from repro.harness.experiment import ExperimentRunner

        return ExperimentRunner(scale=1200, **quiet_runner_kwargs())

    def test_mismatched_scale_raises(self):
        runner = self._runner()
        calls = [lambda **kw: api.simulate("gap", "baseline-lsq", **kw),
                 lambda **kw: api.simulate_sampled("gap", **kw),
                 lambda **kw: api.compare("gap", **kw),
                 lambda **kw: api.run_suite(["gap"], **kw),
                 lambda **kw: api.run_figure("fig5", **kw)]
        for call in calls:
            with pytest.raises(ValueError, match="scale=1000"):
                call(scale=1000, runner=runner)
            with pytest.raises(ValueError, match="use_cache"):
                call(runner=runner, use_cache=False)
        # run_suite's jobs and cell timeout are the runner's too.
        for setting, value in (("jobs", 2), ("cell_timeout", 5.0)):
            with pytest.raises(ValueError, match=setting):
                api.run_suite(["gap"], runner=runner, **{setting: value})
        assert runner.manifest == []

    def test_runner_alone_sets_the_scale(self):
        record = api.simulate("gap", "baseline-lsq", runner=self._runner())
        assert record.scale == 1200

    def test_matching_scale_runs(self):
        record = api.simulate("gap", "baseline-lsq", scale=1200,
                              runner=self._runner())
        assert record.scale == 1200


class TestRunFigure:
    def test_figure_smoke(self):
        figure = api.run_figure("window-scaling", scale=1200,
                                **quiet_runner_kwargs())
        assert figure.rows and figure.series_names

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            api.run_figure("fig99", scale=1200, **quiet_runner_kwargs())


class TestTrace:
    def test_trace_returns_epochs(self):
        tracer = api.trace("gap", scale=1200, ring_size=64,
                           epoch_cycles=200)
        assert tracer.epochs
        assert len(tracer.traces) <= 64

    def test_trace_uses_the_engines_instruction_budget(self, monkeypatch):
        """api.trace accepts and rejects the same programs as the
        engine's golden trace, whose budget is TRACE_LIMIT."""
        from repro.harness import experiment
        from repro.isa.interp import ExecutionLimitExceeded

        def engine_trace():
            return experiment.ExperimentRunner(
                scale=1200, use_cache=False).trace("gap")

        length = len(engine_trace())
        monkeypatch.setattr(experiment, "TRACE_LIMIT", length)
        assert api.trace("gap", scale=1200, epoch_cycles=200).epochs
        monkeypatch.setattr(experiment, "TRACE_LIMIT", length - 1)
        with pytest.raises(ExecutionLimitExceeded):
            engine_trace()
        with pytest.raises(ExecutionLimitExceeded):
            api.trace("gap", scale=1200, epoch_cycles=200)


class TestListings:
    def test_list_benchmarks(self):
        assert api.list_benchmarks() == sorted(ALL_BENCHMARKS)

    def test_list_configs(self):
        assert "baseline-sfc-mdt" in api.list_configs()
        assert api.list_configs() == sorted(api.CONFIGS)

    def test_list_figures(self):
        assert api.list_figures() == sorted(api.FIGURES)


class TestDeprecationShims:
    """The pre-API shims are gone: old entry points fail loudly, and
    RunRecords render without warnings."""

    def test_cli_unknown_attribute_still_raises(self):
        from repro import cli
        for name in ("CONFIGS", "FIGURES", "NO_SUCH_NAME"):
            with pytest.raises(AttributeError):
                getattr(cli, name)

    def test_format_report_rejects_simresult(self):
        result = Processor(assemble(counted_loop_program),
                           baseline_sfc_mdt_config()).run()
        with pytest.raises(TypeError, match="RunRecord"):
            format_report(result)

    def test_format_report_runrecord_does_not_warn(self):
        record = api.simulate("gap", scale=1200, **quiet_runner_kwargs())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = format_report(record)
        assert "gap on baseline-sfc-mdt" in report


class TestRunLitmusApi:
    def test_list_litmus_tests(self):
        assert api.list_litmus_tests() == ["litmus-lb", "litmus-mp",
                                           "litmus-sb"]

    def test_default_suite_ok(self):
        report = api.run_litmus()
        assert report.ok and len(report.results) == 3

    def test_named_config_resolved(self):
        report = api.run_litmus(tests=["mp"], configs=["baseline-lsq"])
        assert report.ok
        assert report.results[0].config_name.startswith("baseline-lsq")
