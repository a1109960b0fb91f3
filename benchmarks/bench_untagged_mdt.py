"""Experiment abl3: tagged vs untagged MDT entries (Section 2.2).

The paper: "Entries in the MDT may be tagged or untagged.  In an untagged
MDT, all in-flight loads and stores whose addresses map to the same MDT
entry simply share that entry.  Thus, aliasing ... causes the MDT to
detect spurious memory ordering violations.  Tagged entries prevent
aliasing and enable construction of a set-associative MDT."

This bench sweeps the MDT size for both variants.  The untagged MDT
never suffers structural-conflict replays (any access can always use its
set's shared entry), but pays spurious violations once distinct
in-flight addresses start aliasing; tags buy exactness at the price of
conflicts when the table is small.

Shape to reproduce: at generous sizes the variants converge; shrinking
the table hurts the untagged variant through spurious violation flushes
and the tagged variant through replays.
"""

from repro.harness.configs import baseline_sfc_mdt_config
from repro.harness.figures import FigureResult

BENCHMARKS = ("parser", "equake")
MDT_SIZES = (4096, 256, 64)


def untagged_sweep(runner):
    rows = []
    for name in BENCHMARKS:
        values = {}
        for sets in MDT_SIZES:
            for tagged in (True, False):
                label = "tag" if tagged else "untag"
                config = baseline_sfc_mdt_config(
                    mdt_sets=sets, name=f"{label}{sets}")
                config.mdt.tagged = tagged
                result = runner.run(name, config)
                retired = result.counters.get("retired_instructions") or 1
                violations = (
                    result.counters.get("violation_flushes_true") +
                    result.counters.get("violation_flushes_anti") +
                    result.counters.get("violation_flushes_output"))
                values[f"IPC-{label}@{sets}"] = result.ipc
                values[f"viol%-{label}@{sets}"] = \
                    100.0 * violations / retired
        rows.append((name, values))
    series = list(rows[0][1])
    return FigureResult(
        "Section 2.2: tagged vs untagged MDT across table sizes "
        "(baseline core)", series, rows,
        arithmetic=[key for key in series if key.startswith("viol%")])


def test_untagged_mdt_tradeoff(figure_bench):
    figure = figure_bench(untagged_sweep, "untagged_mdt")

    for name, values in figure.rows:
        # At the paper's 4K-set size the variants are equivalent.
        assert abs(values["IPC-tag@4096"] - values["IPC-untag@4096"]) \
            < 0.15 * values["IPC-tag@4096"], name
        # Shrinking the untagged MDT never helps: aliasing produces
        # spurious violations, which in turn train the dependence
        # predictor into over-serialising unrelated accesses.
        assert values["IPC-untag@64"] <= \
            values["IPC-untag@4096"] * 1.02, name
    # At least one aliasing-prone benchmark pays heavily for losing tags.
    assert any(values["IPC-untag@64"] < 0.9 * values["IPC-tag@64"]
               for _, values in figure.rows)
