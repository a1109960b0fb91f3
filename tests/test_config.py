"""Validation tests for the configuration records: CoreConfig /
SystemConfig (pipeline), SFCConfig / MDTConfig / LSQConfig (memory
subsystems) and CacheConfig (memory)."""

from __future__ import annotations

import pytest

from repro.core import LSQConfig, MDTConfig, SFCConfig
from repro.memory.cache import (CacheConfig, paper_l1d_config,
                                paper_l1i_config, paper_l2_config)
from repro.pipeline import CoreConfig, ProcessorConfig, SystemConfig


class TestCoreConfig:
    @pytest.mark.parametrize("field", ["width", "fetch_branches_per_cycle",
                                       "rob_size", "sched_size", "num_fus",
                                       "store_fifo_capacity"])
    @pytest.mark.parametrize("bad", [0, -1, 2.5, "4", None])
    def test_positive_int_fields_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be a positive"):
            CoreConfig(**{field: bad})

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(Exception, match="nonesuch"):
            CoreConfig(subsystem="nonesuch")

    def test_defaults_are_legal_and_named(self):
        config = CoreConfig()
        assert config.width == 4
        assert config.name == config.subsystem

    def test_processor_config_is_alias(self):
        assert ProcessorConfig is CoreConfig

    def test_to_dict_covers_every_field(self):
        config = CoreConfig(name="probe")
        payload = config.to_dict()
        assert set(payload) == set(vars(config))
        assert payload["name"] == "probe"


class TestSubsystemConfigs:
    @pytest.mark.parametrize("record, field", [
        (SFCConfig, "num_sets"), (SFCConfig, "assoc"),
        (MDTConfig, "num_sets"), (MDTConfig, "assoc"),
        (MDTConfig, "granularity"),
        (LSQConfig, "lq_size"), (LSQConfig, "sq_size")],
        ids=lambda value: getattr(value, "__name__", value))
    def test_empty_table_rejected(self, record, field):
        # A zero-sized table either crashes mid-run or never makes
        # progress; it is refused at construction.
        with pytest.raises(ValueError, match=f"{field} must be a positive"):
            record(**{field: 0})


class TestSystemConfig:
    @pytest.mark.parametrize("bad", [0, -2, 1.5, "2", True])
    def test_bad_core_count_rejected(self, bad):
        if bad is True:
            # bools are ints; a 1-core system from True would be legal
            # but surprising, so just document the current behavior.
            SystemConfig(cores=bad)
            return
        with pytest.raises(ValueError, match="cores must be a positive"):
            SystemConfig(cores=bad)

    def test_default_name_encodes_shape(self):
        config = SystemConfig(core=CoreConfig(name="b"), cores=3)
        assert config.name == "b-x3"
        assert SystemConfig(name="custom").name == "custom"

    def test_to_dict_nests_core(self):
        config = SystemConfig(cores=2)
        payload = config.to_dict()
        assert payload["cores"] == 2
        assert isinstance(payload["core"], dict)
        assert payload["core"]["width"] == config.core.width


class TestCacheConfig:
    def test_bad_assoc_rejected(self):
        with pytest.raises(ValueError, match="assoc must be a positive"):
            CacheConfig("l1", 1024, 0, 64, 1, 10)

    @pytest.mark.parametrize("bad_line", [0, 3, 48, -64])
    def test_non_power_of_two_line_rejected(self, bad_line):
        with pytest.raises(ValueError, match="line_bytes must be a power"):
            CacheConfig("l1", 1024, 2, bad_line, 1, 10)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheConfig("l1", 1000, 2, 64, 1, 10)

    def test_non_power_of_two_set_count_rejected(self):
        # 3 sets: 768 / (4 * 64)
        with pytest.raises(ValueError,
                           match="sets must be a positive power"):
            CacheConfig("l1", 768, 4, 64, 1, 10)

    def test_paper_configs_valid(self):
        for config in (paper_l1i_config(), paper_l1d_config(),
                       paper_l2_config()):
            assert config.num_sets >= 1
