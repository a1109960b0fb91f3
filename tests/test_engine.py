"""Tests for the parallel experiment engine and its persistent cache."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.checkpoint import capture_train, train_key
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import (
    CACHE_FORMAT,
    ExperimentRunner,
    ResultCache,
    cache_key,
)
from repro.harness.figures import manifest_table

BENCHMARKS = ["gap", "crafty"]
SCALE = 1200


def configs():
    return [baseline_lsq_config(), baseline_sfc_mdt_config()]


def write_foreign(cache, key, payload):
    """Write an entry as another build would have: the cache stamps its
    own ``CACHE_FORMAT`` on everything it stores itself."""
    cache.directory.mkdir(parents=True, exist_ok=True)
    cache.path(key).write_text(json.dumps(payload))


def age(path, seconds):
    past = time.time() - seconds
    os.utime(path, (past, past))


def grid_snapshot(results):
    """Comparable view of a result grid: every architected number."""
    return {
        f"{benchmark}/{name}": (result.cycles, result.instructions,
                                sorted(result.counters.as_dict().items()))
        for (benchmark, name), result in results.items()
    }


class TestCacheKey:
    def test_key_is_deterministic(self):
        assert cache_key("gap", SCALE, baseline_lsq_config()) == \
            cache_key("gap", SCALE, baseline_lsq_config())

    def test_key_ignores_display_name(self):
        named = baseline_lsq_config(name="a-pretty-label")
        assert cache_key("gap", SCALE, named) == \
            cache_key("gap", SCALE, baseline_lsq_config())

    def test_key_covers_benchmark_and_scale(self):
        config = baseline_lsq_config()
        base = cache_key("gap", SCALE, config)
        assert cache_key("crafty", SCALE, config) != base
        assert cache_key("gap", SCALE + 1, config) != base

    def test_key_stable_across_processes(self):
        """The content hash must not depend on interpreter state (dict
        order, hash randomization, object ids)."""
        config = baseline_sfc_mdt_config()
        here = cache_key("gap", SCALE, config)
        script = (
            "from repro.harness import baseline_sfc_mdt_config\n"
            "from repro.harness.experiment import cache_key\n"
            f"print(cache_key('gap', {SCALE}, baseline_sfc_mdt_config()))\n")
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        there = subprocess.run(
            [sys.executable, "-c", script], env=env, text=True,
            capture_output=True, check=True).stdout.strip()
        assert there == here

    def test_key_changes_when_any_config_field_changes(self):
        """Every simulation parameter participates in the cache key."""
        def perturbed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value * 2 + 2  # preserves power-of-two-ness
            if isinstance(value, float):
                return value / 2 + 0.01
            if isinstance(value, str):
                perturbations = {"lsq": "sfc_mdt", "flush": "corrupt",
                                 "LSQ": "ENF", "mask": "endpoints"}
                return perturbations[value]
            raise AssertionError(f"unhandled field type: {value!r}")

        base = cache_key("gap", SCALE, baseline_lsq_config())
        reference = baseline_lsq_config().to_dict()
        seen = set()
        for field, value in reference.items():
            if field == "name":
                continue
            config = baseline_lsq_config()
            if isinstance(value, dict):  # nested config record
                nested = getattr(config, field)
                for sub_field in value:
                    setattr(nested, sub_field,
                            perturbed(value[sub_field]))
                    key = cache_key("gap", SCALE, config)
                    assert key != base, f"{field}.{sub_field}"
                    assert key not in seen, f"{field}.{sub_field}"
                    seen.add(key)
                    setattr(nested, sub_field, value[sub_field])
            else:
                setattr(config, field, perturbed(value))
                key = cache_key("gap", SCALE, config)
                assert key != base, field
                assert key not in seen, field
                seen.add(key)


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"format": CACHE_FORMAT, "cycles": 7}
        cache.store("k" * 64, payload)
        assert cache.load("k" * 64) == payload

    def test_temp_names_are_collision_proof(self, tmp_path, monkeypatch):
        """Two stores of one key from one pid must never share a temp
        name (pid-only suffixes collide across hosts sharing a cache
        directory over NFS)."""
        cache = ResultCache(tmp_path)
        seen = []
        original = Path.replace

        def spy(self, target):
            seen.append(self.name)
            return original(self, target)

        monkeypatch.setattr(Path, "replace", spy)
        cache.store("k" * 64, {"format": 1})
        cache.store("k" * 64, {"format": 1})
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(f".tmp.{os.getpid()}." in name for name in seen)

    def test_stale_temps_swept_on_open(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        stale = tmp_path / ("a" * 64 + ".json.tmp.999.deadbeef")
        stale.write_text("{")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = tmp_path / ("b" * 64 + ".json.tmp.999.cafef00d")
        fresh.write_text("{")
        ResultCache(tmp_path)
        assert not stale.exists(), "hour-old orphan temp must be swept"
        assert fresh.exists(), "a concurrent writer's temp must survive"

    def test_future_mtime_temp_survives_timed_sweep(self, tmp_path):
        """Regression: a temp whose mtime lies in the future (clock
        skew across hosts sharing a cache dir) used to compute a huge
        *negative* age that compared as stale under unsigned handling
        variants -- it must read as brand new instead."""
        cache = ResultCache(tmp_path)
        skewed = tmp_path / ("c" * 64 + ".json.tmp.999.0ddba11")
        skewed.write_text("{")
        ahead = time.time() + 86_400
        os.utime(skewed, (ahead, ahead))
        removed = cache.sweep_stale_temps()
        assert removed == 0
        assert skewed.exists(), \
            "future-dated temp must be treated as age zero, not stale"

    def test_timed_sweep_floors_aggressive_max_age(self, tmp_path):
        """Regression: callers passing a tiny max_age could sweep a
        concurrent writer's seconds-old temp mid-write.  Timed sweeps
        floor the horizon at MIN_STALE_TEMP_SECONDS."""
        from repro.harness.experiment import MIN_STALE_TEMP_SECONDS

        cache = ResultCache(tmp_path)
        young = tmp_path / ("d" * 64 + ".json.tmp.999.aa")
        young.write_text("{")
        recent = time.time() - 10
        os.utime(young, (recent, recent))
        old = tmp_path / ("e" * 64 + ".json.tmp.999.bb")
        old.write_text("{")
        past = time.time() - (MIN_STALE_TEMP_SECONDS + 300)
        os.utime(old, (past, past))
        removed = cache.sweep_stale_temps(max_age=1.0)
        assert removed == 1
        assert young.exists(), \
            "sub-floor max_age must not sweep a seconds-old temp"
        assert not old.exists()

    def test_gc_removes_fresh_and_future_temps(self, tmp_path):
        """gc() is the explicit remove-everything form: the clamp and
        floor protections must not apply to it."""
        cache = ResultCache(tmp_path)
        fresh = tmp_path / ("f" * 64 + ".json.tmp.999.cc")
        fresh.write_text("")
        skewed = tmp_path / ("a" * 63 + "b.json.tmp.999.dd")
        skewed.write_text("")
        ahead = time.time() + 86_400
        os.utime(skewed, (ahead, ahead))
        assert cache.gc() == 2
        assert not fresh.exists() and not skewed.exists()

    def test_gc_drops_unreadable_and_foreign_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("good", {"format": CACHE_FORMAT, "cycles": 7})
        write_foreign(cache, "old", {"format": -1})
        cache.path("corrupt").write_text("{not json")
        (tmp_path / "x.json.tmp.1.ff").write_text("")
        removed = cache.gc()
        assert removed == 3
        assert cache.load("good") == {"format": CACHE_FORMAT, "cycles": 7}
        assert not cache.path("old").exists()
        assert not cache.path("corrupt").exists()

    def test_missing_entry_is_none(self, tmp_path):
        assert ResultCache(tmp_path).load("nope") is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path("bad").parent.mkdir(parents=True, exist_ok=True)
        cache.path("bad").write_text("{not json")
        assert cache.load("bad") is None

    def test_foreign_format_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        write_foreign(cache, "old", {"format": -1, "cycles": 7})
        assert cache.load("old") is None

    def test_store_stamps_cache_format(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("k", {"cycles": 7, "format": -1})
        assert json.loads(cache.path("k").read_text()) == \
            {"cycles": 7, "format": CACHE_FORMAT}

    def test_failed_rename_leaves_no_temp(self, tmp_path, monkeypatch):
        """Whatever a write raises -- not only OSError -- its temp file
        goes."""
        cache = ResultCache(tmp_path)

        def broken_replace(self, target):
            raise RuntimeError("injected rename failure")

        monkeypatch.setattr(Path, "replace", broken_replace)
        with pytest.raises(RuntimeError):
            cache.store("k", {"cycles": 7})
        assert list(tmp_path.iterdir()) == []


class TestTrainEntries:
    """Sampled mode's checkpoint trains are ordinary entries of the
    result cache, so its format check, temp sweep and gc cover them."""

    @staticmethod
    def sampled_train(tmp_path):
        """Run one small sampled cell; returns the runner and the path
        of the train entry it stored."""
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        record = runner.run_sampled("gzip", baseline_sfc_mdt_config(),
                                    intervals=2, warmup_insts=100,
                                    interval_insts=200)
        key = train_key(runner.program("gzip").digest(),
                        record.sampling["checkpoint_every"], True)
        return runner, runner.cache.path(key)

    def test_train_is_a_stamped_entry_next_to_the_cell(self, tmp_path):
        runner, train = self.sampled_train(tmp_path)
        assert json.loads(train.read_text())["format"] == CACHE_FORMAT
        cell = runner.cache.path(runner.manifest[-1]["key"])
        assert sorted(tmp_path.iterdir()) == sorted([cell, train])

    def test_older_format_train_is_recaptured(self, tmp_path):
        """A train an older build stopped at a horizon -- its position-0
        checkpoint only -- is never served as a whole-program train."""
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        program = runner.program("gzip")
        every = 500  # one 300-instruction window, floored at 500
        key = train_key(program.digest(), every, True)
        start = capture_train(program, every)["checkpoints"][0]
        write_foreign(runner.cache, key, {
            "format": 1, "complete": False, "stride": every,
            "total_instructions": 0, "checkpoints": [start.to_dict()]})
        record = runner.run_sampled("gzip", baseline_sfc_mdt_config(),
                                    intervals=2, warmup_insts=100,
                                    interval_insts=200)
        assert record.sampling["checkpoint_every"] == every
        assert record.sampling["total_instructions"] == \
            len(runner.trace("gzip"))
        stored = json.loads(runner.cache.path(key).read_text())
        assert stored["format"] == CACHE_FORMAT

    def test_reopen_sweeps_hour_old_train_temp(self, tmp_path):
        _, train = self.sampled_train(tmp_path)
        orphan = train.with_name(train.name + ".tmp.999.ab")
        orphan.write_text("{")
        age(orphan, 7200)
        ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        assert not orphan.exists()
        assert train.exists()

    def test_gc_removes_foreign_train_and_orphan_temp(self, tmp_path):
        runner, train = self.sampled_train(tmp_path)
        foreign = json.loads(train.read_text())
        foreign["format"] = -1
        train.write_text(json.dumps(foreign))
        orphan = train.with_name(train.name + ".tmp.999.ab")
        orphan.write_text("{")
        age(orphan, 3600)
        assert runner.cache.gc() == 2
        assert not train.exists() and not orphan.exists()
        assert len(list(tmp_path.iterdir())) == 1  # the cell survives


class TestEngineGrids:
    def test_serial_and_parallel_grids_identical(self, tmp_path):
        serial = ExperimentRunner(scale=SCALE, use_cache=False)
        parallel = ExperimentRunner(scale=SCALE, use_cache=False)
        a = serial.run_suite(BENCHMARKS, configs(), jobs=1)
        b = parallel.run_suite(BENCHMARKS, configs(), jobs=4)
        assert grid_snapshot(a) == grid_snapshot(b)
        assert serial.cache_misses == parallel.cache_misses == 4

    def test_warm_cache_grid_identical_and_simulation_free(self, tmp_path):
        cold = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        a = cold.run_suite(BENCHMARKS, configs(), jobs=2)
        assert cold.cache_hits == 0 and cold.cache_misses == 4

        warm = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        b = warm.run_suite(BENCHMARKS, configs(), jobs=2)
        assert warm.cache_hits == 4 and warm.cache_misses == 0
        assert grid_snapshot(a) == grid_snapshot(b)
        # No program/trace was ever built on the warm path.
        assert not warm._programs and not warm._traces

    def test_single_run_fills_and_hits_cache(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        first = runner.run("gap", baseline_lsq_config())
        second = runner.run("gap", baseline_lsq_config())
        assert second.cycles == first.cycles
        assert [e["cache_hit"] for e in runner.manifest] == [False, True]

    def test_cache_shared_between_run_and_run_suite(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        runner.run_suite(["gap"], configs())
        hits = [e["cache_hit"] for e in runner.manifest]
        assert hits == [False, True, False]

    def test_malformed_entry_is_resimulated(self, tmp_path):
        """An entry with the current format but a missing or mistyped
        field is a miss: the cell re-simulates and overwrites it,
        through run() and through run_suite()."""
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        config = baseline_lsq_config()
        for benchmark in BENCHMARKS:
            runner.cache.store(cache_key(benchmark, SCALE, config),
                               {"format": CACHE_FORMAT, "cycles": "many"})
        result = runner.run("gap", config)
        assert result.cycles > 0
        results = runner.run_suite(BENCHMARKS, [config], jobs=1)
        assert set(results) == {(b, config.name) for b in BENCHMARKS}
        assert [(e["benchmark"], e["cache_hit"], e["status"])
                for e in runner.manifest] == [
            ("gap", False, "ok"), ("gap", True, "ok"),
            ("crafty", False, "ok")]
        assert runner.cache.load(cache_key("crafty", SCALE, config))[
            "cycles"] == results[("crafty", config.name)].cycles

    def test_config_field_change_invalidates_cache(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        changed = baseline_lsq_config()
        changed.rob_size = 64
        runner.run("gap", changed)
        assert [e["cache_hit"] for e in runner.manifest] == [False, False]

    def test_jobs_default_comes_from_cpu_count(self):
        assert ExperimentRunner(scale=SCALE).jobs == (os.cpu_count() or 1)
        assert ExperimentRunner(scale=SCALE, jobs=3).jobs == 3

    def test_parallel_serial_cached_manifests_equivalent(self, tmp_path):
        """jobs=1, jobs=N, and a warm-cache rerun must agree on every
        architected field of every manifest entry (wall_time and
        cache-provenance fields excepted)."""
        def normalized(runner):
            entries = []
            for entry in sorted(runner.manifest,
                                key=lambda e: (e["benchmark"],
                                               e["config_name"])):
                entry = dict(entry)
                for volatile in ("wall_time", "engine", "cache_hit"):
                    entry.pop(volatile)
                entries.append(entry)
            return entries

        serial = ExperimentRunner(scale=SCALE, use_cache=False)
        parallel = ExperimentRunner(scale=SCALE, use_cache=False)
        cold = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        a = serial.run_suite(BENCHMARKS, configs(), jobs=1)
        b = parallel.run_suite(BENCHMARKS, configs(), jobs=4)
        cold.run_suite(BENCHMARKS, configs(), jobs=2)
        warm = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        c = warm.run_suite(BENCHMARKS, configs(), jobs=2)
        assert grid_snapshot(a) == grid_snapshot(b) == grid_snapshot(c)
        assert normalized(serial) == normalized(parallel) == \
            normalized(warm)
        assert all(e["status"] == "ok" for e in serial.manifest)


class TestEngineSettings:
    """Nonsensical engine settings fail loudly instead of being
    silently ignored or misreported as per-cell timeouts."""

    @pytest.mark.parametrize("timeout",
                             [0, -1, float("nan"), float("inf")])
    def test_bad_cell_timeout_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            ExperimentRunner(scale=SCALE, use_cache=False,
                             cell_timeout=timeout)
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        with pytest.raises(ValueError, match="timeout"):
            runner.run_suite(["gap"], configs(), cell_timeout=timeout)
        assert not runner.manifest

    @pytest.mark.parametrize("scale", [0, -5])
    def test_bad_scale_rejected(self, scale):
        """The kernels clamp their loop counts to >= 1, so a budget
        below 1 would silently simulate a degenerate program."""
        with pytest.raises(ValueError, match="scale"):
            ExperimentRunner(scale=scale, use_cache=False)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentRunner(scale=SCALE, use_cache=False, jobs=jobs)
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        with pytest.raises(ValueError, match="jobs"):
            runner.run_suite(["gap"], configs(), jobs=jobs)
        assert not runner.manifest

    def test_timed_in_process_run_needs_main_thread(self):
        """SIGALRM reaches only the main thread, so a timed in-process
        run elsewhere is refused before any cell simulates."""
        runner = ExperimentRunner(scale=SCALE, use_cache=False,
                                  cell_timeout=5)
        calls = []
        runner._cell_fn = lambda *args: calls.append(args)
        errors = []

        def body():
            try:
                runner.run_suite(["gap"], configs(), jobs=1)
            except ValueError as exc:
                errors.append(exc)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(errors) == 1 and "main thread" in str(errors[0])
        assert not calls and not runner.manifest


class TestBatchDedup:
    def test_identical_duplicate_configs_simulate_once(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        calls = []
        original = runner._cell_fn

        def counting(program, trace, config):
            calls.append(config.name)
            return original(program, trace, config)

        runner._cell_fn = counting
        results = runner.run_suite(
            ["gap"], [baseline_lsq_config(), baseline_lsq_config()],
            jobs=1)
        assert len(results) == 1
        assert len(calls) == 1
        assert len(runner.manifest) == 1

    def test_same_payload_different_names_share_one_simulation(self):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        calls = []
        original = runner._cell_fn

        def counting(program, trace, config):
            calls.append(config.name)
            return original(program, trace, config)

        runner._cell_fn = counting
        results = runner.run_suite(
            ["gap"], [baseline_lsq_config(name="alpha"),
                      baseline_lsq_config(name="beta")], jobs=1)
        assert len(calls) == 1, "one cache key must simulate once"
        assert set(results) == {("gap", "alpha"), ("gap", "beta")}
        assert results[("gap", "alpha")].cycles == \
            results[("gap", "beta")].cycles
        names = [e["config_name"] for e in runner.manifest]
        assert sorted(names) == ["alpha", "beta"]

    def test_duplicate_name_with_different_payload_raises(self):
        runner = ExperimentRunner(scale=SCALE, use_cache=False)
        changed = baseline_lsq_config()
        changed.rob_size = 64
        with pytest.raises(ValueError, match="duplicate config name"):
            runner.run_suite(["gap"], [baseline_lsq_config(), changed])


class TestEngineProvenance:
    def test_run_suite_records_effective_jobs(self, tmp_path):
        """run_suite(jobs=...) must be what the manifest reports, not
        the constructor default."""
        runner = ExperimentRunner(scale=SCALE, jobs=8, use_cache=False)
        runner.run_suite(["gap"], [baseline_lsq_config()], jobs=1)
        assert runner.manifest[-1]["engine"]["jobs"] == 1
        runner.run_suite(["crafty"], [baseline_lsq_config()], jobs=2)
        assert runner.manifest[-1]["engine"]["jobs"] == 2

    def test_cache_hit_records_effective_jobs(self, tmp_path):
        cold = ExperimentRunner(scale=SCALE, jobs=8, cache_dir=tmp_path)
        cold.run_suite(["gap"], [baseline_lsq_config()], jobs=1)
        warm = ExperimentRunner(scale=SCALE, jobs=8, cache_dir=tmp_path)
        warm.run_suite(["gap"], [baseline_lsq_config()], jobs=3)
        assert warm.manifest[-1]["cache_hit"] is True
        assert warm.manifest[-1]["engine"]["jobs"] == 3


class TestManifest:
    def test_manifest_entry_schema(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        result = runner.run("gap", baseline_lsq_config())
        (entry,) = runner.manifest
        assert entry["benchmark"] == "gap"
        assert entry["config_name"] == baseline_lsq_config().name
        assert entry["config"] == baseline_lsq_config().to_dict()
        assert entry["cycles"] == result.cycles
        assert entry["ipc"] == pytest.approx(result.ipc)
        assert entry["counters"] == result.counters.as_dict()
        assert entry["wall_time"] > 0
        assert entry["cache_hit"] is False
        assert entry["key"] == cache_key("gap", SCALE,
                                         baseline_lsq_config())

    def test_write_manifest_json(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        path = runner.write_manifest(tmp_path / "out" / "manifest.json")
        loaded = json.loads(path.read_text())
        assert len(loaded) == 1 and loaded[0]["benchmark"] == "gap"

    def test_manifest_table_renders(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        runner.run("gap", baseline_lsq_config())
        runner.run("gap", baseline_lsq_config())
        text = manifest_table(runner)
        assert "gap" in text
        assert "hit" in text and "miss" in text
        assert "1 cache hits, 1 simulated" in text


class TestRunSystem:
    def make_config(self, cores=2, memory_mode="private"):
        from repro.pipeline import SystemConfig
        return SystemConfig(core=baseline_sfc_mdt_config(), cores=cores,
                            memory_mode=memory_mode)

    def test_multicore_cell_cached(self, tmp_path):
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        cold = runner.run_system("gap", baseline_sfc_mdt_config(), 2)
        warm = runner.run_system("gap", baseline_sfc_mdt_config(), 2)
        assert [e["cache_hit"] for e in runner.manifest] == [False, True]
        assert cold.cycles == warm.cycles
        assert cold.counters == warm.counters
        assert warm.cores == 2

    def test_key_is_the_private_system_config_key(self, tmp_path):
        # An N-up cell is cached under its private-memory SystemConfig.
        runner = ExperimentRunner(scale=SCALE, cache_dir=tmp_path)
        record = runner.run_system("gap", baseline_sfc_mdt_config(), 2)
        assert record.key == cache_key("gap", SCALE, self.make_config())

    def test_system_key_distinct_from_core_key(self):
        core = baseline_sfc_mdt_config()
        assert cache_key("gap", SCALE, core) != \
            cache_key("gap", SCALE, self.make_config(cores=1))

    def test_key_varies_with_cores_and_mode(self):
        keys = {cache_key("gap", SCALE, self.make_config(cores=n,
                                                         memory_mode=m))
                for n in (1, 2) for m in ("shared", "private")}
        assert len(keys) == 4
