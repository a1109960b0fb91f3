"""Experiment abl2: corruption masks vs flush-endpoint tracking.

Section 3.2 proposes, as an alternative to the corruption bits, that the
SFC "record the sequence numbers of the earliest and latest instructions
flushed (the flush endpoints)" and replay a load only when it would
forward from a store whose number falls inside a window -- predicting
that this would rescue the corruption-bound benchmarks (vpr_route, ammp,
equake).  We implement both schemes and measure the trade.

Shape to reproduce: the endpoint scheme eliminates most corruption
replays on the corruption-prone benchmarks and never loses IPC
meaningfully.
"""

from repro.core import CORRUPTION_ENDPOINTS
from repro.harness.configs import aggressive_sfc_mdt_config
from repro.harness.figures import FigureResult

BENCHMARKS = ("vpr_route", "ammp", "equake", "gzip", "twolf")


def corruption_mechanisms(runner):
    rows = []
    for name in BENCHMARKS:
        mask_config = aggressive_sfc_mdt_config(name="mask")
        endpoint_config = aggressive_sfc_mdt_config(name="endpoints")
        endpoint_config.sfc.corruption_mode = CORRUPTION_ENDPOINTS
        mask = runner.run(name, mask_config)
        endpoints = runner.run(name, endpoint_config)
        loads = mask.counters.get("retired_loads") or 1
        rows.append((name, {
            "IPC-mask": mask.ipc,
            "IPC-endpoints": endpoints.ipc,
            "corrupt/ld-mask":
                mask.counters.get("load_replays_sfc_corrupt") / loads,
            "corrupt/ld-endp":
                endpoints.counters.get("load_replays_sfc_corrupt") / loads,
            "overflows":
                endpoints.counters.get("sfc_endpoint_overflows"),
        }))
    return FigureResult(
        "Section 3.2 alternative: corruption masks vs flush endpoints "
        "(aggressive core)",
        ["IPC-mask", "IPC-endpoints", "corrupt/ld-mask",
         "corrupt/ld-endp", "overflows"], rows,
        arithmetic=["corrupt/ld-mask", "corrupt/ld-endp", "overflows"])


def test_flush_endpoints_vs_corruption_masks(figure_bench):
    figure = figure_bench(corruption_mechanisms,
                          "corruption_mechanisms")

    for name, values in figure.rows:
        # Endpoint tracking never replays more loads than blanket masks.
        assert values["corrupt/ld-endp"] <= \
            values["corrupt/ld-mask"] + 0.01, name
        # And never costs meaningful IPC.
        assert values["IPC-endpoints"] > values["IPC-mask"] * 0.97, name
