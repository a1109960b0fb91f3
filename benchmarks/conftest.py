"""Shared infrastructure for the reproduction benches.

Each bench regenerates one table/figure of the paper (see DESIGN.md's
experiment index) through the :func:`figure_bench` fixture, which prints
it, saves it under ``benchmarks/results/``, and returns it for shape
assertions.  All benches share one cached :class:`ExperimentRunner`, so
identical grid cells are simulated once per cache lifetime no matter how
many benches (or re-runs) need them, and the engine's per-run manifest is
archived next to the figures at session end.

Environment knobs:

* ``REPRO_BENCH_SCALE`` -- dynamic instruction budget per benchmark run
  (default 8000 -- small enough for a pure-Python cycle-level simulator,
  large enough for stable shapes; EXPERIMENTS.md's numbers use 20000).
* ``REPRO_BENCH_JOBS`` -- worker processes for uncached grid cells
  (default: all cores; 1 = serial).
* ``REPRO_CACHE_DIR`` -- persistent result-cache directory (default
  ``.repro_cache/`` at the repository root); delete it to force cold
  re-simulation.
* ``REPRO_BENCH_TIMEOUT`` -- per-cell wall-clock timeout in seconds
  (default 0 = disabled).

Because completed cells checkpoint to the cache as they finish, an
interrupted bench session resumes where it left off on the next run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import manifest_table

RESULTS_DIR = Path(__file__).parent / "results"

DEFAULT_SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "8000"))

DEFAULT_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None

CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR", str(Path(__file__).parent.parent / ".repro_cache"))

CELL_TIMEOUT = float(os.environ.get("REPRO_BENCH_TIMEOUT", "0")) or None


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """One shared engine per session: golden traces are built once and
    completed cells persist in the on-disk result cache."""
    engine = ExperimentRunner(scale=DEFAULT_SCALE, jobs=DEFAULT_JOBS,
                              cache_dir=CACHE_DIR,
                              cell_timeout=CELL_TIMEOUT)
    yield engine
    if engine.manifest:
        RESULTS_DIR.mkdir(exist_ok=True)
        engine.write_manifest(RESULTS_DIR / "engine_manifest.json")
        (RESULTS_DIR / "engine_manifest.txt").write_text(
            manifest_table(engine) + "\n")


@pytest.fixture
def figure_bench(benchmark, runner):
    """Run one figure generator through pytest-benchmark and archive it.

    ``figure_bench(func, name, **kwargs)`` calls ``func(runner,
    **kwargs)`` exactly once on the session's runner (and so at its
    scale), publishes ``func``'s formatted table as
    ``results/<name>.txt``, and returns the figure for shape assertions
    -- the boilerplate every bench used to repeat.
    """
    def _run(func, name, **kwargs):
        figure = benchmark.pedantic(
            func, args=(runner,), kwargs=kwargs, rounds=1, iterations=1)
        publish(name, figure.format())
        return figure
    return _run


def publish(name: str, text: str) -> None:
    """Print a figure/table and archive it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
