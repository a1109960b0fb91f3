#!/usr/bin/env python3
"""Multicore litmus tests: probe the machine's memory model and check
every observed outcome against the operational-model oracle.

Runs the classic trio (message passing, store buffering, load
buffering) on a 2-core shared-memory system, prints what the machine
actually produced next to what the model allows, then demonstrates the
oracle catching a forbidden outcome (LB's causal cycle).

Run:  python examples/multicore_litmus.py
"""

from repro.verify import LitmusOracle, run_litmus_suite
from repro.workloads import LITMUS_TESTS


def litmus_campaign():
    print("=== litmus campaign (2 cores, shared memory) ===\n")
    report = run_litmus_suite()
    print(report.format())
    print()


def forbidden_outcome_demo():
    print("=== the oracle can say no ===\n")
    lb = LITMUS_TESTS["lb"]
    oracle = LitmusOracle()
    # (1, 1) would mean each thread's load observed a store that is
    # program-order *after* the other thread's load -- a causal cycle.
    print(oracle.explain(lb, (1, 1)))
    print(oracle.explain(lb, (0, 1)))
    print()


def main():
    litmus_campaign()
    forbidden_outcome_demo()


if __name__ == "__main__":
    main()
