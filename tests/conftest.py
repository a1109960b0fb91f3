"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc

import pytest

from repro.harness.configs import (
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
    baseline_lsq_config,
    baseline_sfc_mdt_config,
)
from repro.isa import Assembler


@pytest.fixture
def asm():
    return Assembler()


def assemble(build_fn, name="test"):
    """Build a program from a function that populates an Assembler."""
    a = Assembler()
    build_fn(a)
    return a.build(name=name)


def tracked_objects_added(build) -> int:
    """How many objects the cycle collector tracks after ``build()``
    that it did not before (the result is kept alive while counting)."""
    gc.collect()
    before = len(gc.get_objects())
    built = build()
    added = len(gc.get_objects()) - before
    del built
    return added


def store_load_program(a: Assembler) -> None:
    """Store then load the same address; result in r3."""
    a.li("r1", 0x1000)
    a.li("r2", 42)
    a.sd("r2", "r1")
    a.ld("r3", "r1")
    a.halt()


def counted_loop_program(a: Assembler, n: int = 50) -> None:
    """Sum 0..n-1 into r6 through memory."""
    a.li("r1", 0x2000)
    a.li("r2", 0)
    a.li("r3", n)
    a.li("r6", 0)
    a.label("loop")
    a.slli("r4", "r2", 3)
    a.add("r4", "r4", "r1")
    a.sd("r2", "r4")
    a.ld("r5", "r4")
    a.add("r6", "r6", "r5")
    a.addi("r2", "r2", 1)
    a.bne("r2", "r3", "loop")
    a.halt()


ALL_CONFIG_BUILDERS = [
    baseline_lsq_config,
    baseline_sfc_mdt_config,
    aggressive_lsq_config,
    aggressive_sfc_mdt_config,
]


@pytest.fixture(params=["baseline_lsq", "baseline_sfc_mdt",
                        "aggressive_lsq", "aggressive_sfc_mdt"])
def any_config(request):
    """One of the four core processor configurations."""
    index = ["baseline_lsq", "baseline_sfc_mdt", "aggressive_lsq",
             "aggressive_sfc_mdt"].index(request.param)
    return ALL_CONFIG_BUILDERS[index]()
