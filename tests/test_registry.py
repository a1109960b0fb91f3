"""Tests for the table of memory subsystems, ``registry.SUBSYSTEMS``."""

import pytest

from repro import Processor
from repro.core import registry
from repro.core.load_replay import LoadReplaySubsystem
from repro.core.lsq import LSQSubsystem
from repro.core.subsystem import SfcMdtSubsystem
from repro.pipeline.config import (
    SUBSYSTEM_LOAD_REPLAY,
    SUBSYSTEM_LSQ,
    SUBSYSTEM_SFC_MDT,
    ProcessorConfig,
)
from tests.conftest import assemble, counted_loop_program


class TestBuiltinRegistrations:
    def test_available_lists_builtins(self):
        assert sorted(registry.SUBSYSTEMS) == ["load_replay", "lsq",
                                               "sfc_mdt"]

    def test_builtin_names_match_constants(self):
        for name in (SUBSYSTEM_LSQ, SUBSYSTEM_SFC_MDT,
                     SUBSYSTEM_LOAD_REPLAY):
            assert name in registry.SUBSYSTEMS

    def test_processor_builds_each_builtin(self):
        program = assemble(counted_loop_program)
        expected = {"lsq": LSQSubsystem, "sfc_mdt": SfcMdtSubsystem,
                    "load_replay": LoadReplaySubsystem}
        for name, cls in expected.items():
            processor = Processor(program, ProcessorConfig(subsystem=name))
            assert type(processor.subsystem) is cls

    def test_subsystem_name_attribute_matches_registration(self):
        program = assemble(counted_loop_program)
        for name in registry.SUBSYSTEMS:
            processor = Processor(program, ProcessorConfig(subsystem=name))
            assert processor.subsystem.name == name


class TestValidation:
    def test_unknown_subsystem_raises_with_choices(self):
        with pytest.raises(ValueError) as err:
            ProcessorConfig(subsystem="warp_drive")
        message = str(err.value)
        assert "warp_drive" in message
        # The error enumerates the choices, and stays in sync with the
        # table rather than a hard-coded tuple.
        for name in registry.SUBSYSTEMS:
            assert name in message

    def test_validate_returns_known_name(self):
        assert registry.validate("lsq") == "lsq"


class TestToySubsystem:
    """A subsystem added to the table runs end-to-end through Processor."""

    def test_toy_subsystem_runs_end_to_end(self, monkeypatch):
        class ToySubsystem(LSQSubsystem):
            """An LSQ wearing a trench coat, to prove the seam works."""
            name = "toy_magic"

        monkeypatch.setitem(registry.SUBSYSTEMS, ToySubsystem.name,
                            ToySubsystem)
        config = ProcessorConfig(subsystem=ToySubsystem.name)
        assert config.name == ToySubsystem.name  # name follows subsystem
        result = Processor(assemble(counted_loop_program), config).run()
        assert type(Processor(assemble(counted_loop_program),
                              config).subsystem) is ToySubsystem
        assert result.instructions > 0
        assert result.ipc > 0
        # Retirement validation against the golden trace ran, so the toy
        # machine is architecturally exact.
        assert result.counters.get("retired_instructions") == \
            result.instructions
