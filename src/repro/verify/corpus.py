"""Replayable crash-case corpus, and the RV32 conformance suite.

Every failure the fuzzer minimizes is persisted as one JSON document --
the program *text* (assembly, human-readable in review diffs), the
configuration name it failed on, the mismatch kind, and provenance
(generator seed, free-form notes).  A case is therefore self-contained:
replaying it needs no generator, no seed reproduction, just
``parse_asm`` and the named configuration.

Committed cases under ``corpus/`` double as regression tests:
``tests/test_corpus.py`` replays each one through the differential
check and asserts it now passes, and ``repro fuzz --replay`` does the
same from the command line (CI runs it in the tier-1 lane).

:func:`run_conformance` replays the committed RV32 programs of the
``riscv-conformance`` suite the same way.  Both return a
:class:`ReplayReport`, and both judge each program only through
:meth:`~repro.verify.fuzzer.DifferentialFuzzer.check_program`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..isa.assembler import AssemblyError
from ..isa.parser import parse_asm
from ..isa.program import Program
from ..pipeline.config import ProcessorConfig
from ..workloads import suites
from .fuzzer import DifferentialFuzzer

#: The declared suite of committed RV32 programs.
CONFORMANCE_SUITE = "riscv-conformance"

#: Bump on any incompatible change to the case document shape.
CASE_SCHEMA_VERSION = 1


class CorpusError(ValueError):
    """A corpus document is malformed or from an unsupported schema."""


class CrashCase:
    """One minimized, replayable fuzzer failure."""

    def __init__(self, seed: int, kind: str, config_name: str,
                 detail: str, program_asm: str, note: str = ""):
        self.seed = seed
        self.kind = kind
        self.config_name = config_name
        self.detail = detail
        self.program_asm = program_asm
        self.note = note

    # -- identity --------------------------------------------------------------

    @property
    def name(self) -> str:
        """Stable filename stem: seed + kind + config."""
        kind = self.kind.replace(":", "-")
        config = self.config_name or "cross-config"
        return f"seed{self.seed}-{kind}-{config}"

    def program(self) -> Program:
        """Assemble the stored program text."""
        return parse_asm(self.program_asm, name=self.name)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "case_schema_version": CASE_SCHEMA_VERSION,
            "seed": self.seed,
            "kind": self.kind,
            "config_name": self.config_name,
            "detail": self.detail,
            "program_asm": self.program_asm,
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashCase":
        if not isinstance(payload, dict):
            raise CorpusError(f"corpus case must be a dict, "
                              f"got {type(payload).__name__}")
        version = payload.get("case_schema_version")
        if version != CASE_SCHEMA_VERSION:
            raise CorpusError(
                f"unsupported case_schema_version {version!r} "
                f"(this build reads version {CASE_SCHEMA_VERSION})")
        for field, kind in (("seed", int), ("kind", str),
                            ("config_name", str), ("detail", str),
                            ("program_asm", str)):
            if not isinstance(payload.get(field), kind):
                raise CorpusError(f"corpus case field {field!r} must be "
                                  f"a {kind.__name__}")
        case = cls(seed=payload["seed"], kind=payload["kind"],
                   config_name=payload["config_name"],
                   detail=payload["detail"],
                   program_asm=payload["program_asm"],
                   note=payload.get("note", ""))
        try:
            case.program()
        except (AssemblyError, ValueError) as exc:
            raise CorpusError(f"corpus case field 'program_asm' does not "
                              f"assemble: {exc}") from exc
        return case

    def save(self, corpus_dir: Union[str, Path]) -> Path:
        """Write the case into ``corpus_dir`` (created if missing).

        An existing file with the same name is suffixed ``-2``, ``-3``,
        ... rather than overwritten, so repeated campaigns never clobber
        earlier evidence."""
        directory = Path(corpus_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        suffix = 1
        while path.exists():
            suffix += 1
            path = directory / f"{self.name}-{suffix}.json"
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CrashCase":
        raw = Path(path).read_text()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: not valid JSON: {exc}") from exc
        try:
            return cls.from_dict(payload)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from exc

    def __repr__(self) -> str:
        return (f"CrashCase({self.name}: {self.detail!r})")


def load_corpus(corpus_dir: Union[str, Path]) -> List[CrashCase]:
    """Load every ``*.json`` case under ``corpus_dir``, sorted by name.

    A missing directory is an empty corpus, not an error (fresh clones
    have no local crash directory)."""
    directory = Path(corpus_dir)
    if not directory.is_dir():
        return []
    return [CrashCase.load(path)
            for path in sorted(directory.glob("*.json"))]


def replay_case(case: CrashCase, fuzzer=None) -> List:
    """Differentially re-check one corpus case; returns the (hopefully
    empty) mismatch list.  Builds a default fuzzer when none is given."""
    if fuzzer is None:
        fuzzer = DifferentialFuzzer()
    return fuzzer.check_program(case.program(), seed=case.seed)


def replay_corpus(corpus_dir: Union[str, Path],
                  fuzzer=None) -> "ReplayReport":
    """Replay every case in ``corpus_dir``; aggregate the outcomes."""
    if fuzzer is None:
        fuzzer = DifferentialFuzzer()
    report = ReplayReport(str(corpus_dir))
    for case in load_corpus(corpus_dir):
        report.cases.append((case.name, replay_case(case, fuzzer)))
    return report


def run_conformance(configs: Optional[Sequence[ProcessorConfig]] = None
                    ) -> "ReplayReport":
    """Differentially check every program of the ``riscv-conformance``
    suite over ``configs`` (default: the subsystem-covering fuzz
    matrix)."""
    fuzzer = DifferentialFuzzer(configs=configs)
    report = ReplayReport(CONFORMANCE_SUITE)
    for name in suites.suite(CONFORMANCE_SUITE):
        program = suites.build(name, scale=0)
        report.cases.append((name, fuzzer.check_program(program)))
    return report


class ReplayReport:
    """Outcome of checking named programs from one ``source`` (a corpus
    directory or a declared suite): ``(name, mismatches)`` pairs."""

    def __init__(self, source: str):
        self.source = source
        self.cases: List[Tuple[str, List]] = []

    @property
    def ok(self) -> bool:
        return all(not mismatches for _, mismatches in self.cases)

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "ok": self.ok,
            "cases": [{
                "name": name,
                "ok": not mismatches,
                "mismatches": [m.to_dict() for m in mismatches],
            } for name, mismatches in self.cases],
        }

    def format(self) -> str:
        lines = [f"replay: {len(self.cases)} case(s) from {self.source}"]
        for name, mismatches in self.cases:
            status = "ok" if not mismatches else "MISMATCH"
            lines.append(f"  {name}: {status}")
            for mismatch in mismatches:
                lines.append(f"    [{mismatch.kind}] "
                             f"{mismatch.config_name}: {mismatch.detail}")
        if not self.cases:
            lines.append("  (no cases)")
        return "\n".join(lines)
