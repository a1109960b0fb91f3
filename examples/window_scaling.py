#!/usr/bin/env python3
"""Scalability demo: SFC/MDT vs LSQ as the instruction window grows.

The paper's motivating claim is that the LSQ's associative search logic
does not scale with window size, while the address-indexed SFC and MDT
do.  Here we sweep the window (ROB + scheduler) from 32 to 1024 entries
on a memory-parallel workload and print the IPC of a size-matched LSQ
next to the (fixed-size) SFC/MDT.

Run:  python examples/window_scaling.py
"""

from repro.harness.experiment import ExperimentRunner
from repro.harness.figures import window_scaling


def main():
    print("Sweeping the instruction window on 'swim' "
          "(streaming FP stencil)...\n")
    figure = window_scaling(ExperimentRunner(scale=8000), benchmark="swim")
    print(figure.format())
    print()
    print("The size-matched LSQ needs its queues (and their CAM search")
    print("width) to grow with the window; the SFC/MDT geometry stays")
    print("fixed and keeps pace -- the paper's scalability argument.")


if __name__ == "__main__":
    main()
