"""Versioned, structured run records -- the stable results schema.

A :class:`RunRecord` is the machine-readable outcome of one simulated
(benchmark, configuration) cell: schema version, full canonical config,
workload identity (benchmark + scale), every metric value, wall-time,
and engine/cache provenance.  The experiment engine emits one per cell
into its manifest, ``repro.api`` returns them, and the CLI's
``--format json`` prints them -- all the same document.

Versioning policy
-----------------

``SCHEMA_VERSION`` is bumped whenever a required field is added,
removed, renamed, or changes type.  :meth:`RunRecord.from_dict` refuses
payloads from any other version, so tooling fails loudly instead of
misreading old dumps; the golden-file test in ``tests/test_obs.py``
pins the current shape and forces the bump to be deliberate.

The metric values are serialized under the key ``"counters"`` -- the
name the result cache and the ``manifest_digest`` bit-exactness gate
have always hashed -- so introducing the schema changed no digests.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

#: Bump on any incompatible change to the record shape (see module doc).
#: v2 added the fields ``status``/``attempts``/``error`` so the
#: experiment engine can record failed and timed-out grid cells
#: structurally instead of raising away the whole sweep (``attempts``
#: is always 1: cells are not retried).
SCHEMA_VERSION = 2

#: Multicore records (``cores > 1``) serialize under this version: they
#: add the required ``cores`` field and namespace per-core metric values
#: as ``core<N>_<name>`` in ``counters``.  Single-core records keep
#: emitting v2 byte-for-byte, so existing dumps, goldens, and the
#: manifest digest are untouched.
SCHEMA_VERSION_MULTICORE = 3

#: ``kind`` discriminator for a single-cell record.  Multi-run CLI
#: envelopes (compare/figure/bench/list) carry their own kinds but share
#: the ``schema_version`` field.
KIND_RUN = "run"

#: ``kind`` discriminator for a differential-fuzz campaign summary
#: (:meth:`repro.verify.fuzzer.FuzzReport.to_dict`); same
#: ``schema_version`` field as every other envelope.
KIND_FUZZ = "fuzz"

#: ``kind`` discriminator for a litmus campaign summary
#: (:meth:`repro.verify.litmus_oracle.LitmusReport.to_dict`).
KIND_LITMUS = "litmus"

#: ``status`` values: a cell that simulated successfully, one that
#: raised or lost its worker process, and one that exceeded the
#: per-cell wall-clock timeout.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
VALID_STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT)


class SchemaError(ValueError):
    """A payload does not conform to the RunRecord schema."""


#: Required fields and their accepted types (the schema, in code).
_FIELDS = {
    "schema_version": int,
    "kind": str,
    "benchmark": str,
    "config_name": str,
    "config": dict,
    "scale": int,
    "key": str,
    "cycles": int,
    "instructions": int,
    "ipc": (int, float),
    "counters": dict,
    "wall_time": (int, float),
    "cache_hit": bool,
    "engine": dict,
    "status": str,
    "attempts": int,
    "error": str,
}


def validate_record(payload: dict) -> None:
    """Raise :class:`SchemaError` unless ``payload`` is a valid record."""
    if not isinstance(payload, dict):
        raise SchemaError(f"record payload must be a dict, "
                          f"got {type(payload).__name__}")
    version = payload.get("schema_version")
    if version not in (SCHEMA_VERSION, SCHEMA_VERSION_MULTICORE):
        raise SchemaError(
            f"unsupported schema_version {version!r} "
            f"(this build reads versions {SCHEMA_VERSION} and "
            f"{SCHEMA_VERSION_MULTICORE})")
    if version == SCHEMA_VERSION_MULTICORE:
        cores = payload.get("cores")
        if not isinstance(cores, int) or isinstance(cores, bool) \
                or cores < 1:
            raise SchemaError(
                f"v{SCHEMA_VERSION_MULTICORE} record field 'cores' must "
                f"be a positive int, got {cores!r}")
    elif "cores" in payload:
        raise SchemaError(
            f"v{SCHEMA_VERSION} records must not carry a 'cores' field "
            f"(multicore records are v{SCHEMA_VERSION_MULTICORE})")
    for field, types in _FIELDS.items():
        if field not in payload:
            raise SchemaError(f"record is missing required field "
                              f"{field!r}")
        if not isinstance(payload[field], types):
            raise SchemaError(
                f"record field {field!r} has type "
                f"{type(payload[field]).__name__}, expected "
                f"{types if isinstance(types, type) else types[0].__name__}")
    if payload["status"] not in VALID_STATUSES:
        raise SchemaError(f"record status {payload['status']!r} must be "
                          f"one of {VALID_STATUSES}")
    for name, value in payload["counters"].items():
        if not isinstance(name, str) or \
                not isinstance(value, (int, float)):
            raise SchemaError(f"counter {name!r} must map a string to "
                              f"a number")
    if "sampling" in payload and \
            not isinstance(payload["sampling"], dict):
        raise SchemaError(
            f"record field 'sampling' must be a dict when present, got "
            f"{type(payload['sampling']).__name__}")


class RunRecord:
    """One simulated cell's structured, versioned outcome."""

    __slots__ = ("benchmark", "config_name", "config", "scale", "key",
                 "cycles", "instructions", "ipc", "counters", "wall_time",
                 "cache_hit", "engine", "status", "attempts", "error",
                 "cores", "sampling")

    def __init__(self, benchmark: str, config_name: str, config: dict,
                 scale: int, key: str, cycles: int, instructions: int,
                 ipc: float, counters: Dict[str, float],
                 wall_time: float = 0.0, cache_hit: bool = False,
                 engine: Optional[dict] = None, status: str = STATUS_OK,
                 attempts: int = 1, error: str = "", cores: int = 1,
                 sampling: Optional[dict] = None):
        self.benchmark = benchmark
        self.config_name = config_name
        self.config = config
        self.scale = scale
        self.key = key
        self.cycles = cycles
        self.instructions = instructions
        self.ipc = ipc
        self.counters = counters
        self.wall_time = wall_time
        self.cache_hit = cache_hit
        self.engine = engine if engine is not None else {}
        self.status = status
        self.attempts = attempts
        self.error = error
        self.cores = cores
        # Sampled-mode metadata (IPC mean/CI, interval table); None for
        # exact-mode records, and serialized only when present so exact
        # records -- and the manifest digest over them -- stay
        # byte-identical.
        self.sampling = sampling

    # -- alternate constructors ------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Rebuild (and validate) a record from its serialized form."""
        validate_record(payload)
        return cls(benchmark=payload["benchmark"],
                   config_name=payload["config_name"],
                   config=payload["config"], scale=payload["scale"],
                   key=payload["key"], cycles=payload["cycles"],
                   instructions=payload["instructions"],
                   ipc=payload["ipc"],
                   counters=dict(payload["counters"]),
                   wall_time=payload["wall_time"],
                   cache_hit=payload["cache_hit"],
                   engine=dict(payload["engine"]),
                   status=payload["status"],
                   attempts=payload["attempts"],
                   error=payload["error"],
                   cores=payload.get("cores", 1),
                   sampling=payload.get("sampling"))

    @classmethod
    def from_sim_result(cls, result, benchmark: Optional[str] = None,
                        scale: int = 0, wall_time: float = 0.0
                        ) -> "RunRecord":
        """Wrap a bare :class:`~repro.pipeline.processor.SimResult`
        (direct ``Processor`` use, outside the experiment engine)."""
        return cls(benchmark=benchmark or result.program_name,
                   config_name=result.config.name,
                   config=result.config.to_dict(), scale=scale, key="",
                   cycles=result.cycles, instructions=result.instructions,
                   ipc=result.ipc, counters=result.counters.as_dict(),
                   wall_time=wall_time, cache_hit=False, engine={})

    @classmethod
    def from_system_result(cls, result, benchmark: Optional[str] = None,
                           scale: int = 0, wall_time: float = 0.0,
                           key: str = "") -> "RunRecord":
        """Wrap an N-core :class:`~repro.pipeline.system.SystemResult`
        (serializes as schema v3 when ``cores > 1``)."""
        return cls(benchmark=benchmark or result.program_name,
                   config_name=result.config.name,
                   config=result.config.to_dict(), scale=scale, key=key,
                   cycles=result.cycles, instructions=result.instructions,
                   ipc=result.ipc, counters=dict(result.counters),
                   wall_time=wall_time, cache_hit=False, engine={},
                   cores=result.config.cores)

    @classmethod
    def failure(cls, benchmark: str, config_name: str, config: dict,
                scale: int, key: str, status: str, attempts: int,
                error: str, wall_time: float = 0.0,
                engine: Optional[dict] = None) -> "RunRecord":
        """A structured failure entry for a cell that never produced a
        result (worker crash, persistent exception, or timeout)."""
        return cls(benchmark=benchmark, config_name=config_name,
                   config=config, scale=scale, key=key, cycles=0,
                   instructions=0, ipc=0.0, counters={},
                   wall_time=wall_time, cache_hit=False, engine=engine,
                   status=status, attempts=attempts, error=error)

    # -- views -----------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True iff the cell simulated successfully."""
        return self.status == STATUS_OK

    @property
    def metrics(self) -> Dict[str, float]:
        """The metric values (alias of :attr:`counters`; the serialized
        key stays ``"counters"`` for digest stability)."""
        return self.counters

    def metric(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def rate(self, numerator: str, denominator: str) -> float:
        denom = self.counters.get(denominator, 0.0)
        if not denom:
            return 0.0
        return self.counters.get(numerator, 0.0) / denom

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": KIND_RUN,
            "benchmark": self.benchmark,
            "config_name": self.config_name,
            "config": self.config,
            "scale": self.scale,
            "key": self.key,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "counters": self.counters,
            "wall_time": self.wall_time,
            "cache_hit": self.cache_hit,
            "engine": self.engine,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }
        if self.cores > 1:
            # Multicore is the only v3 shape; single-core records keep
            # serializing as v2 byte-for-byte (digest/golden stability).
            payload["schema_version"] = SCHEMA_VERSION_MULTICORE
            payload["cores"] = self.cores
        if self.sampling is not None:
            # Optional block, same pattern as ``cores``: exact-mode
            # records never emit the key, so their bytes (and the
            # manifest digest) are unchanged by the sampling feature.
            payload["sampling"] = self.sampling
        return payload

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys; compact unless ``indent``)."""
        if indent is None:
            return json.dumps(self.to_dict(), sort_keys=True,
                              separators=(",", ":"))
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def __repr__(self) -> str:
        if self.status != STATUS_OK:
            return (f"RunRecord({self.benchmark} on {self.config_name}: "
                    f"{self.status})")
        version = SCHEMA_VERSION_MULTICORE if self.cores > 1 \
            else SCHEMA_VERSION
        return (f"RunRecord({self.benchmark} on {self.config_name}: "
                f"IPC={self.ipc:.3f}, schema v{version})")


def records_from_manifest(manifest: List[dict]) -> List["RunRecord"]:
    """Validate and wrap every entry of an engine manifest."""
    return [RunRecord.from_dict(entry) for entry in manifest]
