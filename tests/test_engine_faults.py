"""Failure-injection tests for the experiment engine's per-cell failure
records.

Each test swaps the engine's per-cell worker function (``_cell_fn``)
for a double that crashes, hangs, or raises on marked configurations,
then checks what the engine promises: the bad cell becomes one
structured manifest entry and is never retried, every other cell still
completes and is cached, and a resumed run simulates only the missing
cells.  The in-process path (``jobs=1``) and the pool path (``jobs=2``)
share each check that applies to both; a crash only applies to the
pool, since it would take the test process down.

The doubles live at module level so the process pool can pickle them;
they dispatch on ``config.name`` prefixes and log every call (config
name and pid) to the file named by ``REPRO_TEST_CALL_LOG``, which forked
workers inherit.  The marked configs carry distinct parameter payloads
(``rob_size``) so in-batch cache-key dedup does not merge a faulty cell
with a healthy one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import List, Tuple

import pytest

from repro.harness import baseline_lsq_config
from repro.harness.experiment import ExperimentRunner, _simulate_cell

SCALE = 800
BENCH = "gap"

# The doubles are pickled by reference into forked workers; under a
# spawn start method the child would have to re-import this test module,
# which is not on its path.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker doubles require the fork start method")


def cfg(name: str, rob: int):
    """A config whose payload (not just name) is unique in the grid."""
    config = baseline_lsq_config(name=name)
    config.rob_size = rob
    return config


def _log_call(config) -> None:
    with open(os.environ["REPRO_TEST_CALL_LOG"], "a") as log:
        log.write(f"{config.name} {os.getpid()}\n")


def _crash_on_marked(program, trace, config):
    _log_call(config)
    if config.name.startswith("crash"):
        os._exit(23)
    return _simulate_cell(program, trace, config)


def _hang_on_marked(program, trace, config):
    _log_call(config)
    if config.name.startswith("hang"):
        time.sleep(60)
    return _simulate_cell(program, trace, config)


def _raise_on_marked(program, trace, config):
    _log_call(config)
    if config.name.startswith("boom"):
        raise RuntimeError("injected cell failure")
    return _simulate_cell(program, trace, config)


@pytest.fixture(autouse=True)
def call_log(tmp_path, monkeypatch):
    path = tmp_path / "calls.log"
    monkeypatch.setenv("REPRO_TEST_CALL_LOG", str(path))
    return path


def calls(call_log) -> List[Tuple[str, int]]:
    """Every double call so far, as (config name, pid)."""
    if not call_log.exists():
        return []
    return [(name, int(pid)) for name, pid in
            (line.split() for line in call_log.read_text().splitlines())]


def runner(tmp_path, **kwargs):
    return ExperimentRunner(scale=SCALE, cache_dir=tmp_path / "cache",
                            **kwargs)


def failure_entries(engine):
    return [e for e in engine.manifest if e["status"] != "ok"]


def check_raising_cell(tmp_path, call_log, jobs):
    engine = runner(tmp_path)
    engine._cell_fn = _raise_on_marked
    results = engine.run_suite(
        [BENCH], [cfg("boom", 64), cfg("ok1", 128)], jobs=jobs)
    assert set(results) == {(BENCH, "ok1")}
    (entry,) = failure_entries(engine)
    assert entry["config_name"] == "boom"
    assert entry["status"] == "failed"
    assert entry["attempts"] == 1
    assert entry["error"] == "RuntimeError: injected cell failure"
    names = [name for name, _ in calls(call_log)]
    assert names.count("boom") == 1, "a raising cell is never retried"


def check_hung_cell(tmp_path, call_log, jobs):
    engine = runner(tmp_path, cell_timeout=0.5)
    engine._cell_fn = _hang_on_marked
    configs = [cfg("ok1", 128), cfg("hang-me", 64), cfg("ok2", 96)]
    started = time.monotonic()
    results = engine.run_suite([BENCH], configs, jobs=jobs)
    elapsed = time.monotonic() - started

    assert set(results) == {(BENCH, "ok1"), (BENCH, "ok2")}
    (entry,) = failure_entries(engine)
    assert entry["config_name"] == "hang-me"
    assert entry["status"] == "timeout"
    assert entry["attempts"] == 1
    assert "0.5s timeout" in entry["error"]
    # The 60 s sleeper was interrupted, not waited out...
    assert elapsed < 30
    # ...inside its own process, which then ran on: no worker was
    # killed and replaced.
    assert len({pid for _, pid in calls(call_log)}) <= jobs


@fork_only
class TestCrashRecovery:
    GRID = (("ok1", 128), ("crash-me", 64), ("ok2", 96), ("ok3", 160))

    def grid(self):
        return [cfg(name, rob) for name, rob in self.GRID]

    def test_crash_fails_every_unfinished_cell(self, tmp_path, call_log):
        engine = runner(tmp_path)
        engine._cell_fn = _crash_on_marked
        results = engine.run_suite([BENCH], self.grid(), jobs=2)

        failures = failure_entries(engine)
        assert "crash-me" in {e["config_name"] for e in failures}
        for entry in failures:
            assert entry["status"] == "failed"
            assert entry["attempts"] == 1
            assert "BrokenProcessPool" in entry["error"]
        ok = [e for e in engine.manifest if e["status"] == "ok"]
        assert len(ok) + len(failures) == len(self.GRID)
        assert set(results) == {(BENCH, e["config_name"]) for e in ok}
        # Cells that finished before the crash were cached as they
        # finished; nothing else was.
        cached = {path.stem for path in (tmp_path / "cache").glob("*.json")}
        assert cached == {e["key"] for e in ok}
        names = [name for name, _ in calls(call_log)]
        assert names.count("crash-me") == 1

    def test_resume_simulates_exactly_the_failed_cells(self, tmp_path):
        crashed = runner(tmp_path)
        crashed._cell_fn = _crash_on_marked
        crashed.run_suite([BENCH], self.grid(), jobs=2)
        failed = {e["config_name"] for e in failure_entries(crashed)}

        resumed = runner(tmp_path)  # healthy worker this time
        results = resumed.run_suite([BENCH], self.grid(), jobs=2)
        assert len(results) == len(self.GRID)
        assert not failure_entries(resumed)
        simulated = {e["config_name"] for e in resumed.manifest
                     if not e["cache_hit"]}
        assert simulated == failed
        assert resumed.cache_hits == len(self.GRID) - len(failed)


@fork_only
class TestHangRecovery:
    def test_hung_worker_times_out_and_grid_survives(self, tmp_path,
                                                     call_log):
        check_hung_cell(tmp_path, call_log, jobs=2)

    def test_timeout_resume_completes_only_the_hung_cell(self, tmp_path):
        configs = [cfg("ok1", 128), cfg("hang-me", 64), cfg("ok2", 96)]
        hung = runner(tmp_path, cell_timeout=0.5)
        hung._cell_fn = _hang_on_marked
        hung.run_suite([BENCH], configs, jobs=2)

        resumed = runner(tmp_path)
        results = resumed.run_suite([BENCH], configs, jobs=2)
        assert len(results) == 3
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 1


@fork_only
class TestExceptionRetry:
    """A raising cell is recorded once; exceptions are never retried,
    because a deterministic cell that raised would raise again."""

    def test_persistent_exception_becomes_failure_entry(self, tmp_path,
                                                        call_log):
        check_raising_cell(tmp_path, call_log, jobs=2)


class TestSerialPaths:
    """The in-process path (``jobs=1``) records the same entries."""

    def test_serial_exception_is_recorded_not_raised(self, tmp_path,
                                                     call_log):
        check_raising_cell(tmp_path, call_log, jobs=1)

    def test_serial_hang_times_out(self, tmp_path, call_log):
        check_hung_cell(tmp_path, call_log, jobs=1)
