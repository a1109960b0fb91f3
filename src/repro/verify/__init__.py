"""Differential verification: fuzzer, failure minimizer, crash corpus.

The oracle hierarchy (see DESIGN.md):

1. the in-order interpreter (:mod:`repro.isa.interp`) defines
   architectural truth -- the retirement trace, final memory image and
   final register file;
2. the associative-LSQ baseline pipeline must match it exactly;
3. every SFC/MDT and load-replay configuration must match both.

:meth:`DifferentialFuzzer.check_program` is the one check of a program
against that hierarchy.  :class:`DifferentialFuzzer` runs it on random
adversarial programs from every frontend (native and RV32);
:func:`shrink_failure` delta-debugs any failure to a minimal instruction
sequence; :mod:`~repro.verify.corpus` persists minimized failures as
replayable JSON regression cases, and :func:`replay_corpus` and
:func:`run_conformance` (the committed RV32 programs) replay programs
through the same check into one :class:`ReplayReport`.

Multicore shared-memory runs fall outside the interpreter oracle
(cross-core stores legitimately change load values), so a second
backend covers them: :class:`LitmusOracle`, an operational memory model
that enumerates the allowed outcomes of each litmus test
(:mod:`repro.workloads.litmus`); :func:`run_litmus_suite` drives the
simulated machine through the tests and judges every observed outcome.
"""

from .corpus import (
    CASE_SCHEMA_VERSION,
    CorpusError,
    CrashCase,
    ReplayReport,
    load_corpus,
    replay_case,
    replay_corpus,
    run_conformance,
)
from .fuzzer import DifferentialFuzzer, FuzzMismatch, FuzzReport
from .litmus_oracle import (
    LitmusOracle,
    LitmusReport,
    LitmusResult,
    run_litmus_suite,
    run_litmus_test,
)
from .shrink import shrink_failure

__all__ = [
    "CASE_SCHEMA_VERSION",
    "CorpusError",
    "CrashCase",
    "DifferentialFuzzer",
    "FuzzMismatch",
    "FuzzReport",
    "LitmusOracle",
    "LitmusReport",
    "LitmusResult",
    "ReplayReport",
    "load_corpus",
    "replay_case",
    "replay_corpus",
    "run_conformance",
    "run_litmus_suite",
    "run_litmus_test",
    "shrink_failure",
]
