"""Self-tests of the end-to-end benchmark (kept out of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs here at a tiny size passed as an argument; the
benchmark's own sizes and pinned digests are exercised by ``run.py``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, run, trace, workloads, yardstick

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "fig5-exact": lambda tmp: workloads.fig5_exact(
        scale=1_000, benchmarks=["gzip", "mcf"]),
    "fig6-exact": lambda tmp: workloads.fig6_exact(
        scale=1_000, benchmarks=["bzip2"]),
    "sampled-1m": lambda tmp: workloads.SampledGrid(
        tmp, scale=30_000, benchmarks=["gzip", "mcf"]),
    "fuzz-diff": lambda tmp: workloads.FuzzDiff(programs=4),
}


def _digests(workload, seed):
    state = workload.setup(seed)
    result = run.measure(workload, state, random.Random(seed), 0.0,
                         single_pass=True)
    assert not result.errors
    return {cell: o.digest for cell, o in result.outcomes.items()}


def test_benchmark_json_declares_the_emitted_metrics():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.NAMES)


@pytest.mark.parametrize("trace_on", [False, True])
def test_emitted_names_and_units_match_benchmark_json(tmp_path, trace_on):
    outcome = run.run_workload(TINY["fig5-exact"](tmp_path), seed=1,
                               seconds=0.0, trace=trace_on)
    result = outcome["result"]
    declared = SPEC["per_layer"] if trace_on else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("samples,expected", [
    (10, 50), (49, 50), (50, 80), (76, 80), (100, 90), (199, 90),
    (200, 95), (999, 95), (1000, 99), (5000, 99)])
def test_tail_percentile_rule(samples, expected):
    assert run.tail_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 80) == 80
    assert run.percentile(values, 99) == 99
    assert run.percentile([5.0], 99) == 5.0


@pytest.mark.parametrize("name", ["fig5-exact", "fig6-exact",
                                  "sampled-1m"])
def test_seed_permutations_give_identical_digests(tmp_path, name):
    """Op order must not leak state from one cell into the next."""
    workload = TINY[name](tmp_path)
    first = _digests(workload, seed=1)
    second = _digests(workload, seed=2)
    assert first == second
    assert len(first) == len(workload.cells(None))


def test_op_times_are_taken_against_the_yardstick(tmp_path, monkeypatch):
    """A host running at half speed doubles the kernel's time and the
    op's alike; the op's reference time is its wall time halved."""
    paces = iter([1.0, 3.0] * 100)   # kernel means of 2 s around each op
    monkeypatch.setattr(yardstick, "REFERENCE_S", 1.0)
    monkeypatch.setattr(yardstick, "measure", lambda: next(paces))
    workload = TINY["fig5-exact"](tmp_path)
    result = run.measure(workload, workload.setup(1), random.Random(1),
                         0.0, single_pass=True)
    assert not result.errors
    reference = sum(t for times in result.times.values() for t in times)
    assert reference == pytest.approx(result.wall / 2)


def test_fuzz_seed_chooses_disjoint_programs():
    workload = workloads.FuzzDiff(programs=3)
    assert workload.cells(workload.setup(1)) == ["3", "4", "5"]
    assert workload.cells(workload.setup(2)) == ["6", "7", "8"]


@pytest.mark.parametrize("name", list(TINY))
def test_every_workload_runs_correctly_at_tiny_size(tmp_path, name):
    outcome = run.run_workload(TINY[name](tmp_path), seed=3, seconds=0.0,
                               trace=False)
    result = outcome["result"]
    assert result["correct"], outcome["meta"]["errors"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_pinned_digest_mismatch_fails_the_op(tmp_path):
    reference = {"digests": {"gzip/ENF": "0" * 64}}
    workload = workloads.fig5_exact(scale=1_000, benchmarks=["gzip"],
                                    reference=reference)
    outcome = run.run_workload(workload, seed=1, seconds=0.0, trace=False)
    assert not outcome["result"]["correct"]
    assert outcome["result"]["failed"] == 3  # one wrong pin, two missing


@pytest.mark.parametrize("reference", [
    {}, {"fig5-exact": {"scale": 20_000}},
    {"fig5-exact": {"digests": {}}}])
def test_a_pinned_workload_without_its_pins_is_refused(tmp_path, reference):
    with pytest.raises(workloads.PinError):
        workloads.build("fig5-exact", tmp_path, reference)


def test_the_command_refuses_to_run_without_pins(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    for pins in (None, "{}"):
        reference = tmp_path / "reference.json"
        if pins is not None:
            reference.write_text(pins)
        monkeypatch.setattr(run, "REFERENCE", reference)
        assert run.main(["--workload", "sampled-1m", "--seed", "1",
                         "--seconds", "1"]) == 2
        assert capsys.readouterr().out == ""


def test_committed_pins_cover_every_pinned_cell(tmp_path):
    reference = json.loads(run.REFERENCE.read_text())
    for name in ("fig5-exact", "fig6-exact", "sampled-1m"):
        workload = workloads.build(name, tmp_path, reference)
        cells = workload.cells(None)
        assert sorted(cells) == sorted(reference[name]["digests"])
        assert reference[name]["scale"] == workload.scale
    assert sorted(reference["sampled-1m"]["full_ipc"]) == \
        sorted(workloads.SAMPLED_BENCHMARKS)


# -- per-layer attribution -------------------------------------------------------


def test_a_missing_layer_module_fails_loudly():
    trace.check_layers()
    with pytest.raises(trace.TracerError) as err:
        trace.check_layers(trace.LAYERS + ("core.no_such_module",))
    assert "core.no_such_module" in str(err.value)


def _func(module, name):
    return (sys.modules[module].__file__, 1, name)


def test_attribution_charges_helpers_to_their_callers():
    """Self time of a function outside every layer goes to its callers'
    layers, split by the time each spent in it; the pipeline's calls of
    execute_op form the execute layer, the interpreter's stay its own."""
    core = _func("repro.pipeline.core", "step")
    mdt = _func("repro.core.mdt", "access_load")
    step = _func("repro.isa.interp", "step")
    execute = _func("repro.isa.interp", "execute_op")
    incr = _func("repro.stats.counters", "incr")
    sign = _func("repro.isa.instructions", "sign_extend")
    block = ("<predecode:gzip:4>", 1, "_blk")
    stats = {
        # func: (primitive calls, calls, self s, inclusive s, callers)
        core: (1, 1, 4.0, 10.0, {}),
        mdt: (5, 5, 1.0, 2.0, {core: (5, 5, 1.0, 2.0)}),
        step: (2, 2, 1.0, 2.0, {}),
        execute: (4, 4, 2.0, 3.0, {core: (3, 3, 1.5, 2.25),
                                    step: (1, 1, 0.5, 0.75)}),
        incr: (10, 10, 3.0, 3.0, {core: (5, 5, 1.0, 1.0),
                                  mdt: (5, 5, 2.0, 2.0)}),
        sign: (4, 4, 1.0, 1.0, {execute: (4, 4, 1.0, 1.0)}),
        block: (7, 7, 0.5, 0.5, {}),
        ("~", 0, "<benchmark loop>"): (1, 1, 0.25, 15.0, {}),
    }
    layers = trace.Attribution(stats)
    self_s = {k: v for k, v in layers.self_s.items() if v}
    assert self_s == pytest.approx({
        "pipeline.core": 4.0 + 1.0,
        "core.mdt": 1.0 + 2.0,
        "isa.interp": 1.0 + 0.5 + 0.25 * 1.0,
        "isa.interp.execute": 1.5 + 0.75 * 1.0,
        "isa.interp.fast_forward": 0.5})
    assert layers.calls["isa.interp.execute"] == pytest.approx(3 + 3)
    assert layers.total_s == pytest.approx(12.75)
    assert sum(layers.self_s.values()) == pytest.approx(12.5)


def test_init_s_keeps_constructor_time_in_its_own_module():
    init = _func("repro.core.mdt", "__init__")
    listcomp = _func("repro.core.mdt", "<listcomp>")
    counters = _func("repro.stats.counters", "__init__")
    stats = {
        init: (1, 1, 0.5, 3.0, {}),
        listcomp: (1, 1, 2.0, 2.0, {init: (1, 1, 2.0, 2.0)}),
        counters: (1, 1, 0.5, 0.5, {init: (1, 1, 0.5, 0.5)}),
    }
    assert trace.Attribution(stats).init_s("core.mdt") == pytest.approx(2.5)


@pytest.mark.parametrize("name", list(TINY))
def test_tracing_keeps_digests_and_scopes_layers(tmp_path, name):
    outcome = run.run_workload(TINY[name](tmp_path), seed=1, seconds=0.0,
                               trace=True)
    assert outcome["result"]["correct"], outcome["meta"]["errors"]
    metrics = {k: v["value"] for k, v in
               outcome["result"]["metrics"].items()}
    sampled_layers = ("isa.interp.fast_forward", "checkpoint.sampling",
                      "checkpoint.arch", "checkpoint.store")
    for layer in sampled_layers:
        assert (metrics[f"{layer}.calls"] > 0) == (name == "sampled-1m")
        assert (metrics[f"{layer}.share"] > 0) == (name == "sampled-1m")
    assert metrics["pipeline.core.calls"] > 0
    assert metrics["isa.interp.execute.calls"] > 0
    assert (metrics["verify.fuzzer.calls"] > 0) == (name == "fuzz-diff")
    assert 0.8 <= metrics["trace.attributed_ratio"] <= 1.0


# -- the command ----------------------------------------------------------------


def test_exits_nonzero_without_simulator_sources(tmp_path):
    """A directory holding only the benchmark cannot produce a result."""
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "fuzz-diff", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# -- comparison -----------------------------------------------------------------


def _runs(values, workload="fig5-exact"):
    return [{"meta": {"workload": workload, "seed": seed, "trace": 0},
             "result": {"correct": True, "metrics": {
                 m["name"]: {"value": value, "unit": m["unit"]}
                 for m in SPEC["end_to_end"]}}}
            for seed, value in enumerate(values)]


def test_compare_same_code_is_ok_and_slowdown_regresses():
    base = _runs([1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.0])
    same = compare.compare(base, _runs([1.0, 0.99, 1.01] * 3 + [1.0]), SPEC)
    assert {row["status"] for row in
            same["workloads"]["fig5-exact"].values()} == {"ok"}
    slower = compare.compare(base, _runs([1.3] * 10), SPEC)
    rows = slower["workloads"]["fig5-exact"]
    assert rows["op_p50_s"]["status"] == "regressed"     # lower is better
    assert rows["sim_insts_per_s"]["status"] == "gain"   # higher is better
    noisy = compare.compare(_runs([0.5, 1.5] * 5), base, SPEC)
    assert noisy["workloads"]["fig5-exact"]["op_p50_s"]["status"] == \
        "unresolved"
