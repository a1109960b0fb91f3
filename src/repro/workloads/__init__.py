"""Synthetic SPEC-2000-styled workloads, litmus tests, and a random
program generator."""

from .builder import KernelBuilder
from .litmus import (
    LITMUS_TESTS,
    LitmusTest,
    get_litmus,
    is_litmus,
    litmus_benchmark_names,
)
from .randprog import (
    FuzzProgramBuilder,
    RandomProgramBuilder,
    fuzz_program,
    random_program,
)
from .suites import (
    ALL_BENCHMARKS,
    FIGURE5_BENCHMARKS,
    FIGURE6_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    RISCV_BENCHMARKS,
    build,
    is_fp,
    suite,
    suite_names,
)

__all__ = [
    "ALL_BENCHMARKS",
    "FIGURE5_BENCHMARKS",
    "FIGURE6_BENCHMARKS",
    "FP_BENCHMARKS",
    "FuzzProgramBuilder",
    "INT_BENCHMARKS",
    "KernelBuilder",
    "LITMUS_TESTS",
    "LitmusTest",
    "RISCV_BENCHMARKS",
    "RandomProgramBuilder",
    "build",
    "fuzz_program",
    "get_litmus",
    "is_fp",
    "is_litmus",
    "litmus_benchmark_names",
    "random_program",
    "suite",
    "suite_names",
]
