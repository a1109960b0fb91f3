"""Experiment engine: (benchmark x configuration) grids, in parallel,
with golden-trace reuse, a persistent on-disk result cache, and
per-cell failure records.

One :class:`ExperimentRunner` owns three layers of reuse:

* **golden traces** -- each workload's architectural execution happens
  once per (benchmark, scale) per grid no matter how many processor
  configurations are measured against it, and the trace (a
  :class:`~repro.isa.interp.GoldenTrace`, whose columns pickle as a few
  buffers) is shipped to worker processes so they never re-interpret
  the program.  A grid builds a benchmark's trace when it submits that
  benchmark's first cell and lets it go after its last; :meth:`trace`
  and :meth:`run` keep the traces they build for the runner's life;
* **process-pool scheduling** -- ``run_suite`` submits uncached grid
  cells to a ``ProcessPoolExecutor`` (``jobs`` workers, default
  ``os.cpu_count()``); ``jobs=1``, or a single uncached cell, runs
  in-process, for determinism tests and debugging.  ``jobs``, like
  ``scale``, the cache and ``cell_timeout``, is set once, by the
  constructor;
* **persistent result cache** -- completed cells are stored as JSON
  under ``.repro_cache/`` (override with ``cache_dir`` or the
  ``REPRO_CACHE_DIR`` environment variable), keyed by a content hash of
  the benchmark name, the scale, and the full canonical
  ``ProcessorConfig.to_dict()``, so identical cells are never
  re-simulated across runs, benches, or processes.  Sampled mode's
  checkpoint trains are entries of the same cache.

The simulator is fully deterministic, so all three paths (serial,
parallel, cached) produce identical :class:`SimResult` grids.

Failures and resume (``run_suite``)
-----------------------------------

A deterministic cell can only finish, raise, or run too long, and a
cell that raised once raises again, so nothing is retried:

* each cell is written to the persistent cache **as it finishes**, so
  an interrupted sweep resumes from the cache (``repro suite
  --resume``) instead of re-simulating everything;
* ``cell_timeout`` is enforced inside the process that runs the cell
  (a ``SIGALRM`` timer; POSIX only), so a hung cell raises
  :class:`CellTimeout` like any other exception and no pool is ever
  killed;
* a cell that raises or times out lands in the manifest as a structured
  failure entry (``status`` failed/timeout, ``error``) instead of
  raising away the rest of the grid;
* a worker crash (``BrokenProcessPool``) marks every unfinished cell
  failed, and a resumed sweep re-runs exactly those.

Every cell additionally appends one versioned
:class:`~repro.obs.runrecord.RunRecord` dict to :attr:`ExperimentRunner.
manifest` -- schema version, config dict, cycles, IPC, metric snapshot,
wall-time, engine/cache provenance, and the cell's status -- which the
figure layer, the benches, ``repro.api``, and the CLI's ``--format
json`` all consume instead of ad-hoc prints (see
:func:`repro.harness.figures.manifest_table` and
:meth:`ExperimentRunner.last_record`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import signal
import threading
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..checkpoint.sampling import sample_run
from ..checkpoint.store import CheckpointStore
from ..isa.interp import GoldenTrace, run_program
from ..isa.program import Program
from ..obs.runrecord import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    RunRecord,
    validate_record,
)
from ..pipeline.config import ProcessorConfig
from ..pipeline.processor import Processor, SimResult
from ..stats.counters import Counters
from ..workloads import suites

#: Default dynamic instruction budget per benchmark run.  Small enough for
#: a pure-Python cycle-level simulator, large enough for the rates the
#: paper reports to stabilise.
DEFAULT_SCALE = 20_000

#: Upper bound on architectural execution (guards against kernel bugs).
TRACE_LIMIT = 5_000_000

#: Bump whenever the simulator's observable behaviour or the layout of
#: a cached payload -- a cell result or a checkpoint train -- changes;
#: every existing cache entry, of either kind, is invalidated.
CACHE_FORMAT = 3

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Age (seconds) past which an orphaned ``*.tmp.*`` cache file from a
#: crashed writer is swept on cache open.  Younger temps may belong to a
#: concurrent writer and are left alone.
STALE_TEMP_SECONDS = 3600.0

#: Conservative floor on the effective age for *timed* temp sweeps.  A
#: caller asking for a shorter horizon still only sweeps temps at least
#: this old: cross-host caches see each other's clocks, and mtimes can
#: jump under clock adjustment, so a "fresh" temp another writer is
#: mid-way through must never be swept by an age heuristic.  Explicit
#: remove-everything sweeps (``max_age <= 0``, e.g. :meth:`ResultCache.
#: gc`) bypass the floor.
MIN_STALE_TEMP_SECONDS = 300.0


def cache_key(benchmark: str, scale: int, config,
              sampling: Optional[dict] = None) -> str:
    """Content hash identifying one grid cell.

    The hash covers the benchmark name, the scale, the cache format
    version, and the full canonical config dict *except* ``name``:
    the name is a display label, so two differently named but otherwise
    identical configurations share one cache entry.

    ``sampling`` (the sampled-mode parameter dict) is folded in only
    when present, so every pre-existing exact-mode key is byte-stable
    and sampled cells can never collide with exact cells.
    """
    payload = config.to_dict()
    payload.pop("name", None)
    body = {"format": CACHE_FORMAT, "benchmark": benchmark,
            "scale": scale, "config": payload}
    if sampling is not None:
        body["sampling"] = sampling
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """One-JSON-file-per-entry cache under a directory: cell results and
    sampled mode's checkpoint trains (see :mod:`repro.checkpoint.store`),
    each stamped with ``CACHE_FORMAT``.

    Files are written atomically (collision-proof temp file + rename) so
    concurrent runners sharing a cache directory -- even across hosts --
    can only ever observe complete entries; unreadable or corrupt
    entries read as misses.  Opening the cache sweeps temp files
    orphaned by crashed writers; :meth:`gc` additionally drops entries
    this build can never read (foreign ``CACHE_FORMAT`` or corrupt
    JSON).
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.sweep_stale_temps()

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        try:
            payload = json.loads(self.path(key).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or \
                payload.get("format") != CACHE_FORMAT:
            return None
        return payload

    def store(self, key: str, payload: dict) -> None:
        """Write ``payload``, stamped with ``CACHE_FORMAT``, under
        ``key``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self.path(key)
        # pid alone collides across hosts sharing REPRO_CACHE_DIR; add
        # random bytes so two writers can never race on one temp name.
        tmp = final.with_name(
            f"{final.name}.tmp.{os.getpid()}.{os.urandom(6).hex()}")
        try:
            tmp.write_text(json.dumps({**payload, "format": CACHE_FORMAT},
                                      sort_keys=True))
            tmp.replace(final)
        except BaseException:
            # Whatever raised -- an OSError, a TypeError from a value
            # JSON cannot encode, an interrupt -- leaves no temp file.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def sweep_stale_temps(self,
                          max_age: float = STALE_TEMP_SECONDS) -> int:
        """Delete ``*.tmp.*`` files older than ``max_age`` seconds
        (orphans of crashed writers); returns the number removed.

        Timed sweeps (``max_age > 0``) are defensive about clocks: a
        temp whose mtime lies in the *future* (clock adjustment, or a
        cross-host cache whose writer's clock runs ahead) gets a clamped
        age of zero -- it reads as brand new, never as ancient -- and
        the effective horizon is floored at ``MIN_STALE_TEMP_SECONDS``
        so a concurrent writer's seconds-old temp cannot be swept
        mid-write by an aggressive caller.  ``max_age <= 0`` is the
        explicit remove-everything form (used by :meth:`gc`) and skips
        both protections.
        """
        removed = 0
        now = time.time()
        effective = max(max_age, MIN_STALE_TEMP_SECONDS) \
            if max_age > 0 else 0.0
        try:
            candidates = list(self.directory.glob("*.tmp.*"))
        except OSError:
            return 0
        for tmp in candidates:
            try:
                age = max(0.0, now - tmp.stat().st_mtime)
                if age >= effective:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def gc(self) -> int:
        """Drop every entry this build cannot read -- corrupt JSON or a
        foreign ``CACHE_FORMAT`` -- plus all temp files; returns the
        number of files removed."""
        removed = self.sweep_stale_temps(max_age=0.0)
        try:
            entries = list(self.directory.glob("*.json"))
        except OSError:
            return removed
        for entry in entries:
            if self.load(entry.stem) is None:
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed


def _payload(result, counters: dict, started: float, **extra) -> dict:
    """The cacheable payload of one simulated cell: ``result``'s totals,
    its ``counters`` and the wall time since ``started``, plus the
    ``sampling`` field a sampled record carries."""
    return {"program_name": result.program_name, "cycles": result.cycles,
            "instructions": result.instructions, "counters": counters,
            "wall_time": time.perf_counter() - started, **extra}


def _simulate_cell(program: Program, trace: GoldenTrace,
                   config: ProcessorConfig) -> dict:
    """Simulate one grid cell; returns the cacheable payload dict.

    Module-level so ``ProcessPoolExecutor`` can pickle it; the golden
    trace arrives prebuilt from the parent process.
    """
    started = time.perf_counter()
    result = Processor(program, config, trace=trace).run()
    return _payload(result, result.counters.as_dict(), started)


class CellTimeout(Exception):
    """A grid cell ran past its ``cell_timeout``."""


def _run_cell(cell_fn: Callable[..., dict], program: Program,
              trace: GoldenTrace, config: ProcessorConfig,
              timeout: Optional[float]) -> dict:
    """``cell_fn(program, trace, config)``, raising :class:`CellTimeout`
    once ``timeout`` seconds have passed.

    Module-level so ``ProcessPoolExecutor`` can pickle it.  The timer is
    armed in the process that simulates, so a hung cell ends as an
    ordinary per-cell exception and its worker stays usable.
    ``SIGALRM`` is POSIX-only and only the main thread can handle it.
    """
    if timeout is None:
        return cell_fn(program, trace, config)

    def expire(signum, frame):
        raise CellTimeout(f"cell exceeded the {timeout:g}s timeout")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return cell_fn(program, trace, config)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _outcome(run: Callable[[], dict]) -> Union[dict, Exception]:
    """``run()``'s payload, or the exception it raised (one bad cell never
    discards the rest of the grid)."""
    try:
        return run()
    except Exception as exc:  # noqa: BLE001 -- isolate cells
        return exc


def check_scale(scale: int) -> int:
    """``scale`` if it is a usable instruction budget, else ``ValueError``
    (the kernels would silently clamp a budget below 1)."""
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale!r}")
    return scale


def check_jobs(jobs: int) -> int:
    """``jobs`` if it is a usable worker count, else ``ValueError``."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    return jobs


def check_timeout(timeout: Optional[float]) -> Optional[float]:
    """``timeout`` if it is None (no timeout) or a finite number of
    seconds > 0, else ``ValueError``."""
    if timeout is not None and not (math.isfinite(timeout)
                                    and timeout > 0):
        raise ValueError(f"timeout must be a finite number of seconds "
                         f"> 0, got {timeout!r}")
    return timeout


class _Cell:
    """One uncached grid cell: a unique cache key plus every
    (benchmark, config) alias that hashes to it."""

    __slots__ = ("benchmark", "configs", "key")

    def __init__(self, benchmark: str, config: ProcessorConfig, key: str):
        self.benchmark = benchmark
        self.configs = [config]  # aliases sharing one cache entry
        self.key = key

    @property
    def primary(self) -> ProcessorConfig:
        return self.configs[0]


class ExperimentRunner:
    """Runs (benchmark x configuration) grids with golden-trace reuse,
    process-pool parallelism, and persistent result caching."""

    def __init__(self, scale: int = DEFAULT_SCALE,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 use_cache: bool = True,
                 cell_timeout: Optional[float] = None):
        self.scale = check_scale(scale)
        self.jobs = check_jobs(jobs if jobs is not None
                                else (os.cpu_count() or 1))
        #: Per-cell wall-clock timeout in seconds (None disables).
        self.cell_timeout = check_timeout(cell_timeout)
        if use_cache:
            self.cache: Optional[ResultCache] = ResultCache(
                cache_dir or os.environ.get("REPRO_CACHE_DIR",
                                            DEFAULT_CACHE_DIR))
        else:
            self.cache = None
        #: One dict per completed cell: a grid's cells in grid order.
        self.manifest: List[dict] = []
        self._programs: Dict[str, Program] = {}
        self._traces: Dict[str, GoldenTrace] = {}
        #: Injection point for failure testing: the per-cell worker
        #: function (must stay picklable for ``jobs > 1``).
        self._cell_fn = _simulate_cell

    @functools.cached_property
    def _trains(self) -> CheckpointStore:
        """Sampled mode's checkpoint trains, memoized in-process and kept
        in the result cache when it is enabled; built on the first
        sampled cell."""
        return CheckpointStore(self.cache)

    # ------------------------------------------------------------ workloads

    def program(self, benchmark: str) -> Program:
        if benchmark not in self._programs:
            self._programs[benchmark] = suites.build(benchmark, self.scale)
        return self._programs[benchmark]

    def trace(self, benchmark: str) -> GoldenTrace:
        """The benchmark's golden trace, built once and kept."""
        if benchmark not in self._traces:
            self._traces[benchmark] = run_program(self.program(benchmark),
                                                  TRACE_LIMIT)
        return self._traces[benchmark]

    # ------------------------------------------------------------ single cell

    def run(self, benchmark: str, config: ProcessorConfig) -> SimResult:
        """Simulate one benchmark under one configuration (serial,
        in-process), consulting and filling the result cache."""
        payload = self._cached(benchmark, config, lambda: _simulate_cell(
            self.program(benchmark), self.trace(benchmark), config))
        return self._rehydrate(config, payload)

    def run_sampled(self, benchmark: str, config: ProcessorConfig, *,
                    intervals: int = 10, warmup_insts: int = 1_000,
                    interval_insts: int = 5_000) -> RunRecord:
        """Sampled simulation of one cell: checkpointed fast-forward
        with ``intervals`` detailed windows (see
        :func:`repro.checkpoint.sampling.sample_run`).

        The record's ``ipc`` is the per-interval mean; its ``sampling``
        block carries the confidence interval and the interval table.
        Sampled cells get their own cache keys (the sampling parameters
        are folded into the key), so they can never shadow or be
        shadowed by exact-mode entries.  The checkpoint train is a
        content-addressed entry of the same cache, shared by every
        config of a benchmark at this scale.  Each scale builds a
        different program, so trains are not shared across scales.
        """
        params = {"intervals": intervals, "warmup_insts": warmup_insts,
                  "interval_insts": interval_insts}

        def simulate() -> dict:
            program = self.program(benchmark)
            started = time.perf_counter()
            sampled = sample_run(
                program, config, intervals=intervals,
                warmup_insts=warmup_insts, interval_insts=interval_insts,
                store=self._trains, limit=TRACE_LIMIT)
            return _payload(sampled, dict(sampled.counters), started,
                            sampling=sampled.sampling_dict())

        self._cached(benchmark, config, simulate, sampling=params)
        return self.last_record()

    # ------------------------------------------------------------ grids

    def run_suite(self, benchmarks: Iterable[str],
                  configs: Iterable[ProcessorConfig]
                  ) -> Dict[Tuple[str, str], SimResult]:
        """Run the full grid; keys are ``(benchmark, config.name)``.

        Cached cells are resolved up front; the remainder is simulated
        in-process (``jobs=1``) or on a pool of :attr:`jobs` processes,
        each cell under :attr:`cell_timeout` -- both set once, by the
        constructor.  The returned grid is identical in all modes.
        Cells that raise, time out, or die with their worker are
        *omitted* from the returned grid and appear in :attr:`manifest`
        as structured failure entries (``status`` failed/timeout,
        ``error``) -- one bad cell never discards every other cell.

        Duplicate configurations are deduplicated by cache key within
        the batch (each unique cell simulates once); reusing a
        ``config.name`` for a *different* parameterisation raises
        ``ValueError``, since grid keys would silently collide.
        """
        benchmarks = list(benchmarks)
        configs = self._dedup_configs(configs)
        results: Dict[Tuple[str, str], SimResult] = {}
        cells: Dict[str, _Cell] = {}
        for benchmark in benchmarks:
            for config in configs:
                key = cache_key(benchmark, self.scale, config)
                payload = self._lookup(benchmark, config, key)
                if payload is not None:
                    results[(benchmark, config.name)] = \
                        self._rehydrate(config, payload)
                elif key in cells:
                    # identical payload under another display name:
                    # simulate once, record per alias
                    cells[key].configs.append(config)
                else:
                    cells[key] = _Cell(benchmark, config, key)
        if cells:
            self._run_cells(list(cells.values()), results)
        return results

    @staticmethod
    def _dedup_configs(configs: Iterable[ProcessorConfig]
                       ) -> List[ProcessorConfig]:
        out: List[ProcessorConfig] = []
        seen: Dict[str, dict] = {}
        for config in configs:
            payload = config.to_dict()
            prior = seen.get(config.name)
            if prior is None:
                seen[config.name] = payload
                out.append(config)
            elif prior != payload:
                raise ValueError(
                    f"duplicate config name {config.name!r} with "
                    f"differing parameters; grid cells are keyed by "
                    f"(benchmark, config.name) and would silently "
                    f"overwrite each other")
            # else: exact duplicate occurrence -- run once, not twice
        return out

    # ------------------------------------------------------------ execution

    def _run_cells(self, cells: List[_Cell],
                   results: Dict[Tuple[str, str], SimResult]) -> None:
        """Simulate every uncached cell -- in-process when ``jobs <= 1``
        or there is only one cell, otherwise on a process pool -- caching
        each one as it finishes and recording the cells in grid order.

        A benchmark's golden trace is taken from :meth:`trace`'s memo or
        built when its first cell is submitted, and a trace built here
        is let go once the benchmark's last cell has settled.  The pool
        is handed at most two cells per worker at a time, so only their
        traces are alive at once."""
        in_process = self.jobs <= 1 or len(cells) == 1
        if in_process and self.cell_timeout is not None and \
                threading.current_thread() is not threading.main_thread():
            raise ValueError(
                "cell_timeout uses SIGALRM, which only the main thread "
                "can handle; run in-process cells from the main thread "
                "or drop the timeout")
        left = Counter(cell.benchmark for cell in cells)
        built: Dict[str, GoldenTrace] = {}
        settled: Dict[int, Union[dict, Exception]] = {}
        unrecorded = deque(range(len(cells)))

        def work(index: int) -> Callable[[], dict]:
            cell = cells[index]
            trace = self._traces.get(cell.benchmark)
            if trace is None:
                trace = built.get(cell.benchmark)
            if trace is None:
                trace = built[cell.benchmark] = run_program(
                    self.program(cell.benchmark), TRACE_LIMIT)
            return functools.partial(
                _run_cell, self._cell_fn, self.program(cell.benchmark),
                trace, cell.primary, self.cell_timeout)

        def settle(index: int, outcome: Union[dict, Exception]) -> None:
            cell = cells[index]
            if self.cache and not isinstance(outcome, Exception):
                self.cache.store(cell.key, outcome)
            settled[index] = outcome
            left[cell.benchmark] -= 1
            if not left[cell.benchmark]:
                built.pop(cell.benchmark, None)
            while unrecorded and unrecorded[0] in settled:
                index = unrecorded.popleft()
                self._record_cell(cells[index], settled.pop(index), results)

        if in_process:
            for index in range(len(cells)):
                settle(index, _outcome(work(index)))
            return
        workers = min(self.jobs, len(cells))
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            queued = deque(range(len(cells)))
            pending = {}
            while queued or pending:
                while queued and len(pending) < 2 * workers:
                    index = queued.popleft()
                    try:
                        pending[pool.submit(work(index))] = index
                    except BrokenProcessPool as exc:
                        # A worker died while cells were still being
                        # queued.
                        settle(index, exc)
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    settle(pending.pop(future), _outcome(future.result))
        finally:
            pool.shutdown(cancel_futures=True)

    def _record_cell(self, cell: _Cell, outcome: Union[dict, Exception],
                     results: Dict[Tuple[str, str], SimResult]) -> None:
        """Record every (benchmark, config) alias of a settled cell: its
        payload rehydrated, or what it raised as a failure entry."""
        if isinstance(outcome, Exception):
            self._fail_cell(cell, outcome)
            return
        for config in cell.configs:
            self.manifest.append(self._record(
                cell.benchmark, config, outcome, cell.key, False))
            results[(cell.benchmark, config.name)] = \
                self._rehydrate(config, outcome)

    # ------------------------------------------------------------ manifest

    def write_manifest(self, path: Union[str, Path]) -> Path:
        """Archive the run manifest (a list of versioned
        :class:`~repro.obs.runrecord.RunRecord` dicts) as JSON; returns
        the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.manifest, indent=2,
                                   sort_keys=True) + "\n")
        return path

    def last_record(self) -> RunRecord:
        """The most recently completed cell as a :class:`RunRecord`."""
        if not self.manifest:
            raise IndexError("no cells have completed yet")
        return RunRecord.from_dict(self.manifest[-1])

    @property
    def cache_hits(self) -> int:
        return sum(1 for entry in self.manifest if entry["cache_hit"])

    @property
    def cache_misses(self) -> int:
        """Cells that simulated successfully (no cache entry)."""
        return sum(1 for entry in self.manifest
                   if not entry["cache_hit"]
                   and entry["status"] == STATUS_OK)

    @property
    def failures(self) -> int:
        """Cells recorded as failed/timed-out (no result produced)."""
        return sum(1 for entry in self.manifest
                   if entry["status"] != STATUS_OK)

    # ------------------------------------------------------------ internals

    def _cached(self, benchmark: str, config,
                simulate: Callable[[], dict],
                sampling: Optional[dict] = None) -> dict:
        """One in-process cell through the result cache: the cached
        payload, else ``simulate()``'s (which is then cached); recorded
        in the manifest either way."""
        key = cache_key(benchmark, self.scale, config, sampling=sampling)
        payload = self._lookup(benchmark, config, key)
        if payload is None:
            payload = simulate()
            if self.cache:
                self.cache.store(key, payload)
            self.manifest.append(
                self._record(benchmark, config, payload, key, False))
        return payload

    def _lookup(self, benchmark: str, config,
                key: str) -> Optional[dict]:
        """The cached payload of a cell, recorded as a cache hit; None on
        a miss.  An entry that does not decode into a valid record -- a
        field missing or of the wrong type -- is a miss too, so the cell
        re-simulates and overwrites it."""
        payload = self.cache.load(key) if self.cache else None
        if payload is None or \
                not isinstance(payload.get("program_name"), str):
            return None
        try:
            entry = self._record(benchmark, config, payload, key, True)
            validate_record(entry)
        except (KeyError, TypeError, ValueError):
            return None
        self.manifest.append(entry)
        return payload

    def _fail_cell(self, cell: _Cell, exc: Exception) -> None:
        """Record a structured failure entry for every alias of a cell
        that raised, timed out, or lost its worker."""
        status = STATUS_TIMEOUT if isinstance(exc, CellTimeout) \
            else STATUS_FAILED
        error = f"{type(exc).__name__}: {exc}"
        for config in cell.configs:
            record = RunRecord.failure(
                benchmark=cell.benchmark, config_name=config.name,
                config=config.to_dict(), scale=self.scale, key=cell.key,
                status=status, attempts=1, error=error,
                engine=self._engine_provenance())
            self.manifest.append(record.to_dict())

    def _rehydrate(self, config: ProcessorConfig,
                   payload: dict) -> SimResult:
        return SimResult(payload["program_name"], config,
                         payload["cycles"], payload["instructions"],
                         Counters.from_dict(payload["counters"]))

    def _engine_provenance(self) -> dict:
        return {"jobs": self.jobs,
                "cache_enabled": self.cache is not None}

    def _record(self, benchmark: str, config, payload: dict, key: str,
                hit: bool) -> dict:
        """The manifest entry (a RunRecord dict) of one completed cell;
        its ``sampling`` field comes from the payload."""
        sampling = payload.get("sampling")
        cycles = payload["cycles"]
        instructions = payload["instructions"]
        if sampling is not None:
            # Sampled cell: the headline IPC is the per-interval mean
            # (the estimator the confidence interval is stated for),
            # not the ratio of summed measured spans.
            ipc = sampling["ipc_mean"]
        else:
            ipc = instructions / cycles if cycles else 0.0
        return RunRecord(
            benchmark=benchmark,
            config_name=config.name,
            config=config.to_dict(),
            scale=self.scale,
            key=key,
            cycles=cycles,
            instructions=instructions,
            ipc=ipc,
            counters=dict(payload["counters"]),
            wall_time=payload["wall_time"],
            cache_hit=hit,
            engine=self._engine_provenance(),
            status=STATUS_OK,
            sampling=sampling).to_dict()


def normalized_ipc(results: Dict[Tuple[str, str], SimResult],
                   benchmark: str, config_name: str,
                   baseline_name: str) -> float:
    """IPC of one run normalized to the baseline configuration's run."""
    baseline = results[(benchmark, baseline_name)].ipc
    if not baseline:
        return 0.0
    return results[(benchmark, config_name)].ipc / baseline


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; 0.0 for an empty sequence *or* any non-positive
    value.  Silently dropping non-positive values would let a failed or
    zero-IPC cell *inflate* a suite average, so a poisoned input
    poisons the mean instead."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        return 0.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def suite_average(results: Dict[Tuple[str, str], SimResult],
                  benchmarks: Iterable[str], config_name: str,
                  baseline_name: str) -> float:
    """Geometric mean of normalized IPCs over a benchmark list (0.0 if
    any cell is missing-equivalent, i.e. normalizes non-positive)."""
    return geometric_mean(
        normalized_ipc(results, benchmark, config_name, baseline_name)
        for benchmark in benchmarks)
