"""Tests for the checkpoint subsystem (repro.checkpoint).

The headline properties, checked with hypothesis over random programs:

* ``fast_forward`` is architecturally identical to stepping -- same
  registers, PC, retire count, and memory digest at any cut point k;
* checkpoint-at-k + resume reproduces the full run exactly -- the
  resumed retire trace equals the full trace's suffix and the final
  memory digest matches, for k at block boundaries and mid-loop;
* the detailed pipeline restored from a checkpoint retires exactly the
  golden suffix and converges to the same final memory image.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.branch.gshare import GsharePredictor
from repro.checkpoint import (
    ArchCheckpoint,
    CheckpointStore,
    capture_train,
    sample_run,
    select_checkpoints,
    train_key,
)
from repro.checkpoint import sampling
from repro.harness.configs import (
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.harness.experiment import ResultCache
from repro.isa.interp import Interpreter
from repro.memory.cache import paper_hierarchy
from repro.memory.main_memory import MainMemory
from repro.pipeline.core import Core
from repro.workloads import random_program
from repro.workloads import suites

_SLOW = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

_RECORD_FIELDS = ("pc", "op", "dest_value", "store_addr", "store_data",
                  "next_pc", "taken")


def _record_tuple(record):
    return tuple(getattr(record, field) for field in _RECORD_FIELDS)


def _full_run(program):
    interp = Interpreter(program)
    trace = interp.run(500_000)
    return trace, interp


def _base_image(program):
    memory = MainMemory()
    memory.load_segments(program.data)
    return memory


def _fast_forward(interp, count):
    """Fast-forward ``interp`` by ``count`` instructions, training a
    fresh predictor and hierarchy; returns both."""
    bpred, hierarchy = GsharePredictor(), paper_hierarchy()
    interp.fast_forward(count, bpred, hierarchy)
    return bpred, hierarchy


def _checkpoint_at(program, count):
    """A checkpoint of ``program`` after ``count`` instructions."""
    interp = Interpreter(program)
    bpred, hierarchy = _fast_forward(interp, count)
    return ArchCheckpoint.capture(interp, _base_image(program), bpred,
                                  hierarchy)


def _capture(program, every):
    """A fresh train's checkpoints and instruction total."""
    train = capture_train(program, every)
    return train["checkpoints"], train["total_instructions"]


def _disk_store(directory):
    """A train store over a result cache in ``directory``, with an empty
    memo: every load decodes what the cache holds."""
    return CheckpointStore(ResultCache(directory))


class TestFastForward:
    """fast_forward == step, architecturally, at every cut point."""

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000),
           frac=st.floats(min_value=0.0, max_value=1.0))
    def test_matches_stepping(self, seed, frac):
        program = random_program(seed)
        trace, golden = _full_run(program)
        k = int(frac * len(trace))
        ff = Interpreter(program)
        executed = ff.fast_forward(k, GsharePredictor(), paper_hierarchy())
        assert executed == k
        assert ff.instructions_retired == k
        stepped = Interpreter(program)
        for _ in range(k):
            stepped.step()
        assert ff.pc == stepped.pc
        assert ff.regs == stepped.regs
        assert ff.halted == stepped.halted
        assert ff.memory.digest() == stepped.memory.digest()

    def test_runs_to_halt_and_stops(self):
        program = random_program(3)
        trace, golden = _full_run(program)
        interp = Interpreter(program)
        bpred, hierarchy = GsharePredictor(), paper_hierarchy()
        executed = interp.fast_forward(10 ** 9, bpred, hierarchy)
        assert executed == len(trace)
        assert interp.halted
        assert interp.memory.digest() == golden.memory.digest()
        assert interp.fast_forward(10, bpred, hierarchy) == 0

    def test_warm_training_does_not_change_architecture(self):
        program = random_program(11)
        _, stepped = _full_run(program)
        warm = Interpreter(program)
        _, hierarchy = _fast_forward(warm, 10 ** 9)
        assert warm.pc == stepped.pc
        assert warm.regs == stepped.regs
        assert warm.memory.digest() == stepped.memory.digest()
        assert hierarchy.l1i.accesses > 0


class TestInterpreterRoundTrip:
    """Full run == fast-forward-to-k + checkpoint + resume, exactly."""

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000),
           frac=st.floats(min_value=0.0, max_value=1.0))
    def test_mid_run_checkpoint_resume(self, seed, frac):
        program = random_program(seed)
        trace, golden = _full_run(program)
        # Arbitrary k lands mid-loop as often as on block boundaries;
        # both matter (mid-loop state has live loop-carried registers).
        k = int(frac * len(trace))
        ckpt = _checkpoint_at(program, k)
        resumed = ckpt.resume_interpreter(program)
        assert resumed.instructions_retired == k
        suffix = resumed.run(500_000)
        assert [_record_tuple(r) for r in suffix] == \
            [_record_tuple(r) for r in trace[k:]]
        assert resumed.memory.digest() == golden.memory.digest()

    @_SLOW
    @given(seed=st.integers(min_value=0, max_value=10_000),
           frac=st.floats(min_value=0.0, max_value=1.0))
    def test_serialized_checkpoint_resumes_identically(self, seed, frac):
        program = random_program(seed)
        trace, golden = _full_run(program)
        k = int(frac * len(trace))
        ckpt = _checkpoint_at(program, k)
        clone = ArchCheckpoint.from_dict(ckpt.to_dict())
        assert clone.regs == ckpt.regs
        assert clone.pages == ckpt.pages
        assert clone.pc == ckpt.pc and clone.retired == ckpt.retired
        resumed = clone.resume_interpreter(program)
        resumed.run(500_000)
        assert resumed.memory.digest() == golden.memory.digest()

    def test_block_boundary_checkpoints(self):
        """k at every captured block boundary of a real kernel."""
        program = suites.build("gzip", 2_000)
        trace, golden = _full_run(program)
        checkpoints, total = _capture(program, 500)
        assert total == len(trace)
        assert [c.retired for c in checkpoints] == \
            list(range(0, ((total - 1) // 500) * 500 + 1, 500))
        for ckpt in checkpoints[::2]:
            resumed = ckpt.resume_interpreter(program)
            suffix = resumed.run(500_000)
            assert len(suffix) == total - ckpt.retired
            assert resumed.memory.digest() == golden.memory.digest()

    def test_checkpoint_rejects_wrong_program(self):
        program = random_program(5)
        other = random_program(6)
        ckpt = _checkpoint_at(program, 10)
        with pytest.raises(ValueError, match="digest"):
            ckpt.restore_memory(other)
        with pytest.raises(ValueError, match="digest"):
            ckpt.resume_interpreter(other)


class TestCoreRestore:
    """The detailed pipeline picks up from a checkpoint exactly."""

    @pytest.mark.parametrize("config_fn", [baseline_lsq_config,
                                           baseline_sfc_mdt_config])
    def test_resumed_core_retires_suffix(self, config_fn):
        program = suites.build("gzip", 3_000)
        trace, golden = _full_run(program)
        checkpoints, total = _capture(program, 1_000)
        ckpt = checkpoints[2]
        suffix = ckpt.resume_interpreter(program).run(500_000)
        memory = ckpt.restore_memory(program)
        core = Core(program, config_fn(), trace=suffix, memory=memory,
                    start_pc=ckpt.pc, start_regs=ckpt.regs,
                    warm_state=ckpt.warm)
        core.run()
        assert core.retired == total - ckpt.retired
        assert memory.digest() == golden.memory.digest()

    def test_from_reset_defaults_unchanged(self):
        """start_pc=0/start_regs=None is bit-identical to the old
        constructor: same cycles, same counters."""
        program = suites.build("gzip", 1_500)
        trace, _ = _full_run(program)
        plain = Core(program, baseline_sfc_mdt_config(), trace=trace)
        plain_result = plain.run()
        restored = Core(program, baseline_sfc_mdt_config(), trace=trace,
                        start_pc=0, start_regs=None, warm_state=None)
        restored_result = restored.run()
        assert restored_result.cycles == plain_result.cycles
        assert restored_result.counters.as_dict() == \
            plain_result.counters.as_dict()


class TestTrainAndStore:
    def test_thinning_caps_train_length(self, monkeypatch):
        monkeypatch.setattr(sampling, "MAX_TRAIN_CHECKPOINTS", 16)
        program = suites.build("gzip", 3_000)
        checkpoints, total = _capture(program, 10)
        assert len(checkpoints) <= 16
        positions = [c.retired for c in checkpoints]
        stride = positions[1] - positions[0]
        assert stride > 10  # thinned at least once
        # From 0, one stride apart, and the last within one stride of
        # the halt: thinning never drops the last checkpoint.
        assert positions == list(range(0, positions[-1] + 1, stride))
        assert 0 < total - positions[-1] <= stride

    def test_capture_hashes_the_program_once(self, monkeypatch):
        from repro.isa.program import Program

        calls = []
        digest = Program.digest

        def counting(program):
            calls.append(program.name)
            return digest(program)

        monkeypatch.setattr(Program, "digest", counting)
        checkpoints, _ = _capture(suites.build("gzip", 2_000), 100)
        assert len(checkpoints) >= 10
        assert len(calls) <= 2

    def test_select_checkpoints_spacing(self):
        program = suites.build("gzip", 2_000)
        checkpoints, total = _capture(program, 200)
        picked = select_checkpoints(checkpoints, total, intervals=4,
                                    window=300)
        assert 1 <= len(picked) <= 4
        positions = [c.retired for c in picked]
        assert positions == sorted(set(positions))
        assert all(p + 300 <= total for p in positions)

    def test_select_degenerates_to_start_when_program_short(self):
        program = suites.build("gzip", 2_000)
        checkpoints, total = _capture(program, 500)
        picked = select_checkpoints(checkpoints, total, intervals=3,
                                    window=total + 1)
        assert [c.retired for c in picked] == [0]

    def test_store_round_trip(self, tmp_path):
        program = suites.build("gzip", 2_000)
        captured = capture_train(program, 700)
        checkpoints = captured["checkpoints"]
        store = _disk_store(tmp_path)
        key = train_key(program.digest(), 700)
        assert store.load(key) is None
        store.store(key, captured)
        assert store.load(key) is captured  # memoized
        train = _disk_store(tmp_path).load(key)
        assert _train_fingerprint(train) == _train_fingerprint(captured)
        reloaded = train["checkpoints"][1]
        assert reloaded.retired == checkpoints[1].retired
        assert reloaded.regs == checkpoints[1].regs
        assert reloaded.pages == checkpoints[1].pages
        assert reloaded.warm == checkpoints[1].warm

    def test_store_corrupt_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("bad", {"format": 1})
        cache.path("bad").write_text("{not json")
        cache.store("partial", {"total_instructions": 5})
        cache.store("empty", {"total_instructions": 0, "checkpoints": []})
        # Well-formed but for one warm capsule, whose gshare counters
        # are hex of the wrong length: it would fail every window.
        train = capture_train(suites.build("gzip", 2_000), 700)
        entries = [checkpoint.to_dict() for checkpoint in train["checkpoints"]]
        entries[-1]["warm"]["bpred"]["counters"] = "02" * 10
        cache.store("bad-capsule", {
            "total_instructions": train["total_instructions"],
            "checkpoints": entries})
        # The right length, but 255-valued counters: they would predict.
        entries[-1]["warm"]["bpred"]["counters"] = "ff" * 4096
        cache.store("bad-counter", {
            "total_instructions": train["total_instructions"],
            "checkpoints": entries})
        # A checkpoint without a capsule: every window would start cold.
        del entries[-1]["warm"]
        cache.store("no-capsule", {
            "total_instructions": train["total_instructions"],
            "checkpoints": entries})
        store = CheckpointStore(cache)
        for key in ("bad", "partial", "empty", "bad-capsule", "bad-counter",
                    "no-capsule", "missing"):
            assert store.load(key) is None


class TestStoreFaultInjection:
    """A failed write never leaks a ``*.tmp.*`` file, whatever raised,
    and keeps nothing in the memo."""

    @staticmethod
    def _train(program):
        checkpoint = _checkpoint_at(program, 0)
        return {"checkpoints": [checkpoint], "total_instructions": 100}

    def test_unserializable_capsule_cleans_temp(self, tmp_path):
        # Non-OSError mid-write: json.dumps raises TypeError on the
        # capsule.
        train = self._train(suites.build("gzip", 2_000))
        train["checkpoints"][0].warm = {"bpred": object()}
        store = _disk_store(tmp_path)
        with pytest.raises(TypeError):
            store.store("key", train)
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert store.load("key") is None

    def test_rename_failure_cleans_temp(self, tmp_path, monkeypatch):
        import pathlib

        train = self._train(suites.build("gzip", 2_000))
        store = _disk_store(tmp_path)

        def broken_replace(self, target):
            raise RuntimeError("injected rename failure")

        monkeypatch.setattr(pathlib.Path, "replace", broken_replace)
        with pytest.raises(RuntimeError):
            store.store("key", train)
        assert list(tmp_path.glob("*.tmp.*")) == []
        assert store.load("key") is None


def _train_fingerprint(train):
    import json

    return (train["total_instructions"],
            [(c.retired, c.pc, tuple(c.regs), sorted(c.pages.items()),
              json.dumps(c.warm, sort_keys=True))
             for c in train["checkpoints"]])


class TestEnsureTrain:
    """A train is one capture from reset to the halt; a stored one is
    served as it is."""

    def test_memo_alone_serves_one_process(self, monkeypatch):
        program = suites.build("gzip", 2_000)
        store = CheckpointStore()
        config = baseline_sfc_mdt_config()
        first = sample_run(program, config, intervals=2, warmup_insts=100,
                           interval_insts=200, store=store)

        def recapture(*args, **kwargs):
            raise AssertionError("the stored train was captured again")

        monkeypatch.setattr(sampling, "capture_train", recapture)
        again = sample_run(program, config, intervals=2, warmup_insts=100,
                           interval_insts=200, store=store)
        assert again.sampling_dict() == first.sampling_dict()

    def test_without_store_captures_fresh(self):
        program = suites.build("gzip", 2_000)
        trace, _ = _full_run(program)
        train = capture_train(program, 300)
        assert train["total_instructions"] == len(trace)
        assert train["checkpoints"][0].retired == 0


class TestWarmCapsules:
    def test_gshare_export_import_round_trip(self):
        from repro.branch.gshare import GsharePredictor

        trained = GsharePredictor()
        for pc in range(0, 400, 4):
            taken = (pc // 4) % 3 == 0
            trained.update(pc, taken, trained.predict(pc))
        trained.update_indirect(64, 1024)
        fresh = GsharePredictor()
        fresh.import_state(trained.export_state())
        assert fresh._counters == trained._counters
        assert fresh._history == trained._history
        assert fresh.predict_indirect(64) == 1024
        assert fresh.predictions == 0  # stats start from zero

    def test_gshare_import_rejects_non_hex_counters(self):
        from repro.branch.gshare import GsharePredictor

        state = GsharePredictor().export_state()
        state["counters"] = "zz" * (len(state["counters"]) // 2)
        with pytest.raises(ValueError):
            GsharePredictor().import_state(state)

    def test_gshare_import_rejects_counter_above_3(self):
        from repro.branch.gshare import GsharePredictor

        state = GsharePredictor().export_state()
        state["counters"] = "02" * 7 + "ff" + "02" * 4088
        fresh = GsharePredictor()
        with pytest.raises(ValueError, match="counter 7 is 255"):
            fresh.import_state(state)
        assert fresh._counters == [2] * 4096

    def test_gshare_import_rejects_geometry_mismatch(self):
        from repro.branch.gshare import GsharePredictor

        small = GsharePredictor(table_bits=4)
        big = GsharePredictor()
        with pytest.raises(ValueError, match="counters"):
            big.import_state(small.export_state())

    def test_hierarchy_export_import_round_trip(self):
        from repro.memory.cache import paper_hierarchy

        warm = paper_hierarchy()
        for addr in range(0, 1 << 14, 64):
            warm.data_latency(addr)
            warm.inst_latency(addr)
        cold = paper_hierarchy()
        cold.import_state(warm.export_state())
        assert cold.l1d.export_lines() == warm.l1d.export_lines()
        assert cold.l2.export_lines() == warm.l2.export_lines()
        assert cold.l1d.accesses == 0  # stats start from zero

    def test_cache_import_rejects_set_mismatch(self):
        from repro.memory.cache import Cache, CacheConfig

        a = Cache(CacheConfig("a", 1024, 2, 64, 1, 10))
        b = Cache(CacheConfig("b", 2048, 2, 64, 1, 10))
        with pytest.raises(ValueError, match="sets"):
            b.import_lines(a.export_lines())


class TestMemoryPageDelta:
    def test_delta_and_apply_round_trip(self):
        base = MainMemory()
        base.write_bytes(0x1000, b"hello")
        modified = base.copy()
        modified.write_bytes(0x1002, b"XY")
        modified.write_bytes(0x40_0000, b"far away")
        delta = modified.page_delta(base)
        assert set(delta) == {0x1, 0x400}
        restored = base.copy()
        restored.apply_page_delta(delta)
        assert restored.digest() == modified.digest()

    def test_untouched_and_zero_pages_not_in_delta(self):
        base = MainMemory()
        base.write_bytes(0x1000, b"data")
        same = base.copy()
        same.read_bytes(0x9000, 8)  # reads allocate nothing
        same.write_bytes(0x5000, b"\x00\x00")  # zero write == absent
        assert same.page_delta(base) == {}

    def test_apply_rejects_partial_page(self):
        with pytest.raises(ValueError, match="bytes"):
            MainMemory().apply_page_delta({0: b"short"})


class TestInterpreterLoadSegments:
    """Regression: handing the Interpreter an existing memory must not
    re-stamp the program image over caller-owned state."""

    def test_load_segments_false_preserves_caller_memory(self):
        program = suites.build("gzip", 1_000)
        data_addr = min(program.data)
        memory = MainMemory()
        memory.load_segments(program.data)
        memory.write_bytes(data_addr, b"\xde\xad\xbe\xef")
        Interpreter(program, memory=memory, load_segments=False)
        assert memory.read_bytes(data_addr, 4) == b"\xde\xad\xbe\xef"

    def test_default_still_stamps_image(self):
        program = suites.build("gzip", 1_000)
        data_addr = min(program.data)
        expected = bytes(program.data[data_addr][:4])
        memory = MainMemory()
        memory.write_bytes(data_addr, b"\xde\xad\xbe\xef")
        Interpreter(program, memory=memory)
        assert memory.read_bytes(data_addr, 4) == expected
