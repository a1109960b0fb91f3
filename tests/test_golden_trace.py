"""The golden trace as columns (:class:`repro.isa.interp.GoldenTrace`).

Rows read back from the columns equal the records :meth:`Interpreter.step`
returns, a trace survives a pickle round trip, and every check the core
makes against the trace fires on a trace with one corrupted field.
"""

import gc
import pickle

import pytest

from repro.harness import baseline_lsq_config, baseline_sfc_mdt_config
from repro.harness.experiment import ExperimentRunner
from repro.isa import instructions as ops
from repro.isa.interp import GoldenTrace, Interpreter, run_program
from repro.pipeline import Processor, SimulationError
from repro.workloads import suites

SCALE = 2_000
COLUMNS = ("pc", "op", "taken", "dest", "store_rows", "store_addr",
           "store_data")


def fields(record):
    return (record.pc, record.op, record.dest_value, record.store_addr,
            record.store_data, record.next_pc, record.taken)


def stepped(program):
    """The reference: one record per instruction, from step()."""
    interp = Interpreter(program)
    records = []
    while not interp.halted:
        records.append(interp.step())
    return records


@pytest.mark.parametrize("name", sorted(
    set(suites.FIGURE5_BENCHMARKS) | set(suites.FIGURE6_BENCHMARKS)
    | {"rv-auipc_jalr"}))
def test_rows_equal_stepping(name):
    program = suites.build(name, SCALE)
    trace = run_program(program, 1_000_000)
    reference = stepped(program)
    assert len(trace) == len(reference)
    assert [fields(row) for row in trace] == \
        [fields(record) for record in reference]
    if name.startswith("rv-"):
        assert ops.JALR in trace.op


def test_indexing_and_slices():
    trace = run_program(suites.build("gzip", SCALE), 1_000_000)
    rows = len(trace)
    assert fields(trace[-1]) == fields(trace[rows - 1])
    assert trace[-1].op == ops.HALT and trace[-1].next_pc == trace[-1].pc
    assert fields(trace[-rows]) == fields(trace[0])
    for index in (rows, -rows - 1):
        with pytest.raises(IndexError):
            trace[index]
    assert [fields(r) for r in trace[5:9]] == \
        [fields(trace[i]) for i in range(5, 9)]


def test_pickle_round_trip_returns_equal_columns():
    trace = run_program(suites.build("gcc", SCALE), 1_000_000)
    clone = pickle.loads(pickle.dumps(trace, pickle.HIGHEST_PROTOCOL))
    assert isinstance(clone, GoldenTrace)
    for column in COLUMNS:
        assert getattr(clone, column) == getattr(trace, column), column
    assert len(trace.store_rows) > 0


def test_record_stops_at_the_halt_and_at_its_count():
    program = suites.build("gap", SCALE)
    full = run_program(program, 1_000_000)
    short = Interpreter(program).record(10)
    assert len(short) == 10 and len(short.pc) == 11
    assert short.pc == full.pc[:11]
    assert len(Interpreter(program).record(10 ** 9)) == len(full)


# -- every golden check fires ------------------------------------------------

def simulate(program, trace):
    Processor(program, baseline_sfc_mdt_config(), trace=trace).run()


@pytest.fixture(scope="module")
def kernel():
    program = suites.build("gzip", 1_500)
    trace = run_program(program, 1_000_000)
    simulate(program, trace)  # the uncorrupted trace passes
    return program, trace


def fresh(kernel):
    program, trace = kernel
    return program, pickle.loads(pickle.dumps(trace))


def first_row(trace, program, wanted):
    """The first row after row 0 for which ``wanted(row index, record,
    static instruction)`` holds."""
    return next(i for i in range(1, len(trace))
                if wanted(i, trace[i], program.fetch(trace.pc[i])))


def test_corrupted_op_fails_the_pc_and_op_check(kernel):
    program, trace = fresh(kernel)
    row = first_row(trace, program, lambda i, r, s: r.op == ops.ADDI)
    trace.op[row] = ops.XORI
    with pytest.raises(SimulationError, match=r"does not match trace\["):
        simulate(program, trace)


def test_corrupted_destination_value_fails(kernel):
    program, trace = fresh(kernel)
    row = first_row(trace, program,
                    lambda i, r, s: r.dest_value is not None and s.rd)
    trace.dest[row] ^= 1
    with pytest.raises(SimulationError, match="wrong destination value"):
        simulate(program, trace)


@pytest.mark.parametrize("column", ["store_addr", "store_data"])
def test_corrupted_store_effect_fails(kernel, column):
    program, trace = fresh(kernel)
    getattr(trace, column)[0] ^= 8
    with pytest.raises(SimulationError, match="wrong store effect"):
        simulate(program, trace)


def test_corrupted_control_target_fails(kernel):
    """A taken branch's target is the next row's PC; fetch leaves the
    right path at the branch, so the retire check is what fires."""
    program, trace = fresh(kernel)
    row = first_row(trace, program,
                    lambda i, r, s: r.op in ops.BRANCH_OPS and r.taken)
    trace.pc[row + 1] ^= 0x1000
    with pytest.raises(SimulationError, match="wrong control target"):
        simulate(program, trace)


def test_corrupted_pc_fails_at_right_path_fetch(kernel):
    program, trace = fresh(kernel)
    row = first_row(trace, program,
                    lambda i, r, s: trace.op[i - 1] not in ops.CONTROL_OPS)
    trace.pc[row] += 4
    with pytest.raises(SimulationError,
                       match="right-path fetch diverged"):
        simulate(program, trace)


def test_trace_one_record_short_fails_at_fetch(kernel):
    program, trace = kernel
    short = Interpreter(program).record(len(trace) - 1)
    with pytest.raises(SimulationError,
                       match="right-path fetch ran past the golden trace"):
        simulate(program, short)


# -- the runner's traces -----------------------------------------------------

def live_traces():
    return sum(isinstance(obj, GoldenTrace) for obj in gc.get_objects())


def test_grid_keeps_one_trace_at_a_time():
    runner = ExperimentRunner(scale=800, jobs=1, use_cache=False)
    original = runner._cell_fn
    alive = []

    def counting(program, trace, config):
        alive.append(live_traces())
        return original(program, trace, config)

    runner._cell_fn = counting
    gc.collect()
    before = live_traces()
    results = runner.run_suite(["gap", "crafty"],
                               [baseline_lsq_config(),
                                baseline_sfc_mdt_config()])
    assert len(results) == 4
    # gap's trace is let go before crafty's is built, and crafty's after
    # its last cell.
    assert alive == [before + 1] * 4
    assert live_traces() == before
    assert not runner._traces


def test_run_and_trace_keep_their_traces():
    runner = ExperimentRunner(scale=800, jobs=1, use_cache=False)
    runner.run("gap", baseline_lsq_config())
    kept = runner._traces["gap"]
    runner.trace("crafty")
    runner.run_suite(["gap", "crafty"], [baseline_lsq_config(),
                                         baseline_sfc_mdt_config()])
    assert runner._traces["gap"] is kept
    assert set(runner._traces) == {"gap", "crafty"}
