"""Tests for the bit-exactness gate, ``repro.perf.manifest_digest``."""

from repro import perf
from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import ExperimentRunner


def _fake_manifest(counter=7.0, extra=None):
    entry = {
        "benchmark": "gzip",
        "config_name": "baseline",
        "config": {"rob_size": 48},
        "scale": 1000,
        "cycles": 2500,
        "instructions": 1000,
        "ipc": 0.4,
        "counters": {"retired_loads": counter},
    }
    if extra:
        entry.update(extra)
    return [entry]


class TestManifestDigest:
    def test_stable_for_identical_manifests(self):
        assert perf.manifest_digest(_fake_manifest()) == \
            perf.manifest_digest(_fake_manifest())

    def test_counter_change_changes_digest(self):
        assert perf.manifest_digest(_fake_manifest(counter=7.0)) != \
            perf.manifest_digest(_fake_manifest(counter=8.0))

    def test_ignores_non_architected_fields(self):
        """Wall-clock style bookkeeping must not perturb the digest."""
        noisy = _fake_manifest(extra={"wall_seconds": 1.23,
                                      "cache_hit": True})
        assert perf.manifest_digest(noisy) == \
            perf.manifest_digest(_fake_manifest())

    def test_is_sha256_hex(self):
        digest = perf.manifest_digest(_fake_manifest())
        assert len(digest) == 64
        int(digest, 16)


class TestBitExactness:
    def test_repeated_runs_are_bit_identical(self):
        """The regression gate itself: the simulator is deterministic,
        so back-to-back uncached runs must hash identically."""
        digests = set()
        for _ in range(2):
            runner = ExperimentRunner(scale=800, jobs=1, use_cache=False)
            runner.run("mcf", baseline_sfc_mdt_config())
            runner.run("mcf", baseline_lsq_config())
            digests.add(perf.manifest_digest(runner.manifest))
        assert len(digests) == 1
