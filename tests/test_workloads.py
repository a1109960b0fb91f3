"""Tests for the synthetic SPEC-styled workloads."""

import pytest

from repro.isa import instructions as ops
from repro.isa import run_program
from repro.workloads import (
    ALL_BENCHMARKS,
    FIGURE5_BENCHMARKS,
    FIGURE6_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    build,
    fuzz_program,
    is_fp,
    random_program,
)


class TestSuiteRegistry:
    def test_paper_benchmark_lists(self):
        # 12 specint workloads (vpr counted twice: place + route) and 8
        # specfp workloads, as in the paper's Figure 5.
        assert len(INT_BENCHMARKS) == 12
        assert len(FP_BENCHMARKS) == 8
        assert len(FIGURE5_BENCHMARKS) == 20

    def test_figure6_drops_mesa(self):
        assert "mesa" not in FIGURE6_BENCHMARKS
        assert len(FIGURE6_BENCHMARKS) == 19

    def test_is_fp(self):
        assert is_fp("swim") and is_fp("ammp")
        assert not is_fp("gcc")

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            build("doom")

    def test_expected_names_present(self):
        for name in ("bzip2", "crafty", "gap", "gcc", "gzip", "mcf",
                     "parser", "perlbmk", "twolf", "vortex", "vpr_place",
                     "vpr_route", "ammp", "applu", "apsi", "art",
                     "equake", "mesa", "mgrid", "swim"):
            assert name in ALL_BENCHMARKS


@pytest.mark.parametrize("name", sorted(ALL_BENCHMARKS))
class TestEveryKernel:
    def test_builds_and_halts(self, name):
        prog = build(name, scale=2000)
        trace = run_program(prog, 1_000_000)
        assert trace[-1].op == 47 or prog.fetch(trace[-1].pc).op  # halted
        assert len(trace) > 500

    def test_scale_controls_length(self, name):
        short = len(run_program(build(name, scale=1500), 1_000_000))
        long = len(run_program(build(name, scale=4500), 1_000_000))
        assert long > short * 1.5

    def test_deterministic(self, name):
        first = run_program(build(name, scale=1500), 1_000_000)
        second = run_program(build(name, scale=1500), 1_000_000)
        assert len(first) == len(second)
        assert all(a.pc == b.pc and a.dest_value == b.dest_value
                   for a, b in zip(first, second))

    def test_contains_memory_traffic(self, name):
        trace = run_program(build(name, scale=2000), 1_000_000)
        loads = sum(1 for r in trace if r.op in range(26, 33))
        stores = sum(1 for r in trace if r.store_addr is not None)
        assert loads > 0
        if name != "mcf":          # mcf's price updates are rare
            assert stores > 0


class TestKernelSignatures:
    """Each pathology kernel exhibits its designed address behaviour."""

    def test_bzip2_store_stride_hits_one_sfc_set(self):
        trace = run_program(build("bzip2", scale=3000), 1_000_000)
        sets = {(r.store_addr >> 3) & 511 for r in trace
                if r.store_addr is not None}
        # The column stores cover at most a few of the 512 sets.
        assert len(sets) <= 4

    def test_mcf_node_records_at_64k_strides(self):
        prog = build("mcf", scale=2000)
        node_bases = sorted(addr for addr in prog.data
                            if 0x40_0000 <= addr < 0x60_0000)
        assert len(node_bases) == 8
        deltas = {b - a for a, b in zip(node_bases, node_bases[1:])}
        assert deltas == {65536}

    def test_mesa_has_silent_stores(self):
        trace = run_program(build("mesa", scale=4000), 1_000_000)
        last_value = {}
        silent = 0
        total = 0
        for record in trace:
            if record.store_addr is None:
                continue
            total += 1
            key = (record.store_addr, ops.ACCESS_SIZE[record.op])
            if last_value.get(key) == record.store_data:
                silent += 1
            last_value[key] = record.store_data
        assert total > 0
        assert silent > 0        # depth rewrites of equal z values

    def test_gzip_rewrites_hash_heads(self):
        trace = run_program(build("gzip", scale=4000), 1_000_000)
        counts = {}
        for record in trace:
            if record.store_addr is not None:
                counts[record.store_addr] = \
                    counts.get(record.store_addr, 0) + 1
        assert max(counts.values()) >= 4     # recurring head buckets


class TestRandomPrograms:
    def test_always_halts(self):
        for seed in range(30):
            run_program(random_program(seed), 500_000)

    def test_deterministic_per_seed(self):
        first = run_program(random_program(7), 500_000)
        second = run_program(random_program(7), 500_000)
        assert len(first) == len(second)

    def test_different_seeds_differ(self):
        a = run_program(random_program(1), 500_000)
        b = run_program(random_program(2), 500_000)
        assert len(a) != len(b) or \
            any(x.pc != y.pc for x, y in zip(a, b))

    def test_max_blocks_scales_size(self):
        small = len(random_program(3, max_blocks=4).instructions)
        large = len(random_program(3, max_blocks=40).instructions)
        assert large > small


class TestGeneratorDeterminism:
    """The generators must be byte-identical for a fixed seed -- the
    fuzzer's seeds, its corpus, and the cached experiment results all
    assume so."""

    #: Golden digests pin the generators across processes and Python
    #: builds; a hash-order or RNG-usage leak changes these first.
    GOLDEN = {
        ("fuzz", 0):
            "f3431c3630d8111291d92a0bcbca9bdf"
            "00109ea1e838685abb2e4a2e26af091a",
        ("fuzz", 7):
            "53d033ee1189e9438cc1f05ae5ace182"
            "5f2dbe64eab4d595ba0d2559618935d9",
        ("fuzz", 1234):
            "6bc2737ed6d19759bd785d9e8cc59d8a"
            "435204cd7c9e9c94c28fbbc2f34ea79d",
        ("rand", 0):
            "d199555b5aa81dd2271c87c918616a69"
            "6fb4c31881e3a93a691ec3a1cbc613d9",
        ("rand", 42):
            "393167d10b6428ba991818b15c0c3e51"
            "4bb067e473b39cae627aff7e25e6c12e",
    }

    def test_two_builds_identical(self):
        for seed in (0, 3, 99, 4096):
            assert random_program(seed).digest() == \
                random_program(seed).digest()
            assert fuzz_program(seed).digest() == \
                fuzz_program(seed).digest()

    def test_golden_digests(self):
        for (kind, seed), expected in self.GOLDEN.items():
            builder = fuzz_program if kind == "fuzz" else random_program
            assert builder(seed).digest() == expected, \
                f"{kind} generator changed for seed {seed}"

    def test_fuzz_generator_emits_unaligned_accesses(self):
        unaligned = 0
        for seed in range(20):
            for record in run_program(fuzz_program(seed), 500_000):
                if record.store_addr is not None and \
                        record.store_addr % ops.ACCESS_SIZE[record.op]:
                    unaligned += 1
        assert unaligned > 0

    def test_fuzz_asm_roundtrip(self):
        from repro.isa import parse_asm
        prog = fuzz_program(11)
        rebuilt = parse_asm(prog.to_asm(), name="rt")
        first = run_program(prog, 500_000)
        second = run_program(rebuilt, 500_000)
        assert len(first) == len(second)
        assert all(a.pc == b.pc and a.dest_value == b.dest_value
                   for a, b in zip(first, second))
