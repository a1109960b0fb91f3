"""Unit tests for the flush-endpoint corruption scheme (Section 3.2).

The alternative to blanket corruption masks: the SFC records the
sequence-number window of each partial flush plus each byte's writer
number, and a load replays only when a byte it needs was actually written
by a canceled store.
"""

import pytest

from repro.core import (
    CORRUPTION_ENDPOINTS,
    SFC_CORRUPT,
    SFC_HIT,
    SFC_MISS,
    SFCConfig,
    StoreForwardingCache,
)


def make_sfc(slots=4):
    return StoreForwardingCache(
        SFCConfig(num_sets=8, assoc=2,
                  corruption_mode=CORRUPTION_ENDPOINTS,
                  flush_endpoint_slots=slots))


class TestEndpointDetection:
    def test_clean_store_still_forwards_after_flush(self):
        """The headline improvement over the mask scheme: a flush that
        canceled *other* instructions leaves this word forwardable."""
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 7, seq=10)
        sfc.on_partial_flush(20, 30)      # canceled window: [20, 30]
        assert sfc.load_read(0x1000, 8, watermark=0)[0] == SFC_HIT

    def test_canceled_writer_detected(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 7, seq=25)
        sfc.on_partial_flush(20, 30)      # seq 25 was canceled
        assert sfc.load_read(0x1000, 8, watermark=0)[0] == SFC_CORRUPT

    def test_per_byte_discrimination(self):
        """Only the bytes written by the canceled store are poisoned."""
        sfc = make_sfc()
        sfc.store_write(0x1000, 4, 0x11223344, seq=10)   # survives
        sfc.store_write(0x1004, 4, 0x55667788, seq=25)   # canceled
        sfc.on_partial_flush(20, 30)
        assert sfc.load_read(0x1000, 4, watermark=0)[0] == SFC_HIT
        assert sfc.load_read(0x1004, 4, watermark=0)[0] == SFC_CORRUPT

    def test_rewrite_clears_cancellation(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 7, seq=25)
        sfc.on_partial_flush(20, 30)
        sfc.store_write(0x1000, 8, 9, seq=40)    # refetched store
        status, value = sfc.load_read(0x1000, 8, watermark=0)
        assert status == SFC_HIT and value == 9

    def test_window_boundaries_inclusive(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 4, 1, seq=20)
        sfc.store_write(0x2000, 4, 2, seq=30)
        sfc.store_write(0x3000, 4, 3, seq=19)
        sfc.store_write(0x4000, 4, 4, seq=31)
        sfc.on_partial_flush(20, 30)
        assert sfc.load_read(0x1000, 4, watermark=0)[0] == SFC_CORRUPT
        assert sfc.load_read(0x2000, 4, watermark=0)[0] == SFC_CORRUPT
        assert sfc.load_read(0x3000, 4, watermark=0)[0] == SFC_HIT
        assert sfc.load_read(0x4000, 4, watermark=0)[0] == SFC_HIT


class TestWindowLifecycle:
    def test_windows_prune_at_watermark(self):
        """Once the watermark passes a window, its bytes read as absent
        (memory holds the correct value) rather than corrupt."""
        sfc = make_sfc()
        sfc.store_write(0x1000, 8, 7, seq=25)
        sfc.store_write(0x1000, 8, 9, seq=45)    # live writer, same word
        sfc.on_partial_flush(20, 30)
        # Watermark 40 > window hi: the window drops, and byte writers
        # below the watermark are treated as absent -- here seq 45 wrote
        # everything, so the load still hits.
        status, value = sfc.load_read(0x1000, 8, watermark=40)
        assert status == SFC_HIT and value == 9

    def test_aged_canceled_bytes_read_as_absent(self):
        sfc = make_sfc()
        sfc.store_write(0x1000, 4, 7, seq=25)    # canceled writer
        sfc.store_write(0x1004, 4, 8, seq=45)    # keeps the entry alive
        sfc.on_partial_flush(20, 30)
        # After the window ages out, the canceled bytes are absent: the
        # load of them misses to memory (which never saw seq 25).
        assert sfc.load_read(0x1000, 4, watermark=40)[0] == SFC_MISS

    def test_overflow_falls_back_to_blanket_marking(self):
        sfc = make_sfc(slots=1)
        sfc.store_write(0x1000, 8, 7, seq=5)
        sfc.on_partial_flush(100, 110)           # takes the only slot
        sfc.on_partial_flush(200, 210)           # overflow: blanket mark
        assert sfc.counters.get("sfc_endpoint_overflows") == 1
        assert sfc.load_read(0x1000, 8, watermark=0)[0] == SFC_CORRUPT


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SFCConfig(corruption_mode="bogus")

    def test_mask_mode_ignores_window_arguments(self):
        sfc = StoreForwardingCache(SFCConfig(num_sets=8, assoc=2))
        sfc.store_write(0x1000, 8, 7, seq=5)
        sfc.on_partial_flush(100, 110)
        # Mask mode: everything valid is corrupt regardless of window.
        assert sfc.load_read(0x1000, 8, watermark=0)[0] == SFC_CORRUPT


class TestEndToEnd:
    def test_pipeline_runs_exactly_with_endpoints(self):
        from repro import Processor, run_program
        from repro.harness.configs import baseline_sfc_mdt_config
        from repro.workloads import random_program

        config = baseline_sfc_mdt_config(name="endpoints")
        config.sfc.corruption_mode = CORRUPTION_ENDPOINTS
        for seed in (3, 14, 159):
            prog = random_program(seed, max_blocks=15)
            trace = run_program(prog, 500_000)
            Processor(prog, config, trace=trace).run()

    def test_endpoints_reduce_corruption_replays(self):
        from repro import Processor, run_program
        from repro.harness.configs import aggressive_sfc_mdt_config
        from repro.workloads import build

        prog = build("ammp", scale=6000)
        trace = run_program(prog, 2_000_000)
        mask = Processor(prog, aggressive_sfc_mdt_config(),
                         trace=trace).run()
        config = aggressive_sfc_mdt_config(name="endpoints")
        config.sfc.corruption_mode = CORRUPTION_ENDPOINTS
        endpoints = Processor(prog, config, trace=trace).run()
        assert endpoints.counters.get("load_replays_sfc_corrupt") <= \
            mask.counters.get("load_replays_sfc_corrupt")
