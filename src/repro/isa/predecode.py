"""Predecoded program images for the batch-dispatch fast-forward engine.

A :class:`PredecodedProgram` translates a :class:`~repro.isa.program.Program`
once into dense parallel arrays -- opcode, register indices, immediate, a
dispatch *kind* (ALU / load / store / branch / jump flavour / halt / nop),
the memory access size, and the straight-line run length starting at each
instruction.  The fast-forward engine dispatches from these arrays instead
of fetching :class:`~repro.isa.instructions.Instruction` objects, and
compiles each basic block's straight-line body, with the conditional
branch that ends it, into a single Python function (a
"superinstruction") so hot loops execute without per-instruction
dispatch overhead.  Every block trains the warm cache state as it runs,
so blocks live in one table per cache geometry.

Predecoded images are cached globally, keyed by the program's content
digest, so the fast-forward engine, the architectural oracle
(:meth:`Interpreter.step` / :meth:`Interpreter.run`), and any frontend that
builds an identical image (e.g. the RV32 loader) share one predecode.

Correctness contract
--------------------
Compiled blocks are architecturally identical to executing the same
instructions through :meth:`Interpreter.step`:

* loads always perform the memory read, even with ``rd == r0`` (the read
  is architecturally visible to the warm cache capsule and must match the
  oracle's access stream);
* pure ALU work targeting ``r0`` is skipped only when the opcode is a
  known pure op -- unknown opcodes still reach ``execute_op`` so they
  raise exactly as the oracle would;
* instruction-cache touches are emitted only at block entry and at
  I-cache line crossings.  Within a straight-line run every skipped touch
  hits the line touched by the immediately preceding instruction, which is
  MRU by construction (data accesses never touch the L1I), so the skipped
  touches are tag-state no-ops;
* every emitted touch, instruction or data, first tests inline whether
  its line is already the MRU way of its L1 set, and calls the hierarchy
  only when it is not.  An MRU hit reorders nothing and reaches no other
  level, so the resulting warm capsule (``CacheHierarchy.export_state``
  -- tag arrays only, no hit/miss stats) is bit-identical to
  per-instruction touching;
* a folded branch evaluates ``branch_taken``'s comparison inline and
  returns the outcome; the dispatcher trains the predictor and picks the
  next PC.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from . import instructions as ops
from .instructions import MASK64, Instruction

__all__ = [
    "PredecodedProgram",
    "predecode",
    "K_ALU", "K_LOAD", "K_STORE", "K_BRANCH",
    "K_J", "K_JAL", "K_JR", "K_JALR", "K_HALT", "K_NOP",
]

# Dispatch kinds.  Straight-line kinds (ALU/load/store/nop) may appear
# inside superinstruction blocks; the rest terminate a block.
K_ALU, K_LOAD, K_STORE, K_BRANCH, K_J, K_JAL, K_JR, K_JALR, K_HALT, K_NOP = \
    range(10)

_STRAIGHT_KINDS = frozenset({K_ALU, K_LOAD, K_STORE, K_NOP})

#: Opcodes ``execute_op`` is known to handle; r0-targeted instances are
#: pure and may be elided inside compiled blocks.  Anything outside this
#: set must still reach ``execute_op`` so it raises like the oracle does.
_PURE_ALU = (frozenset(range(ops.NUM_OPCODES))
             - ops.MEM_OPS - ops.CONTROL_OPS - {ops.HALT, ops.NOP})

#: Signed loads: (access size, sign-bit mask, extension OR-mask).
_SIGNED_LOADS = {
    ops.LB: (1, 0x80, MASK64 ^ 0xFF),
    ops.LH: (2, 0x8000, MASK64 ^ 0xFFFF),
    ops.LW: (4, 0x8000_0000, MASK64 ^ 0xFFFF_FFFF),
}

#: Longest straight-line run compiled into a single block; longer runs are
#: chained block-to-block by the dispatcher.
MAX_BLOCK_INSTRUCTIONS = 256
#: Per-table cap on compiled entry points -- a backstop against
#: pathological programs where every branch lands on a fresh offset.
MAX_COMPILED_BLOCKS = 2048

_M = "0xffffffffffffffff"

#: A block table's cache geometry: (L1I line shift, L1I set mask,
#: L1D line shift, L1D set mask).
Geometry = Tuple[int, int, int, int]
#: A compiled block: its function and how many instructions it retires.
Block = Tuple[Callable, int]


def _kind_of(op: int) -> int:
    if op in ops.LOAD_OPS:
        return K_LOAD
    if op in ops.STORE_OPS:
        return K_STORE
    if op in ops.BRANCH_OPS:
        return K_BRANCH
    if op == ops.J:
        return K_J
    if op == ops.JAL:
        return K_JAL
    if op == ops.JR:
        return K_JR
    if op == ops.JALR:
        return K_JALR
    if op == ops.HALT:
        return K_HALT
    if op == ops.NOP:
        return K_NOP
    return K_ALU


def _signed(expr: str) -> str:
    """Expression computing ``to_signed`` of a 64-bit unsigned expression."""
    return f"({expr} - (({expr} >> 63) << 64))"


#: ``branch_taken``'s comparisons, inline, by conditional-branch opcode.
_BRANCH_CONDITIONS = {
    ops.BEQ: "{a} == {b}",
    ops.BNE: "{a} != {b}",
    ops.BLT: _signed("{a}") + " < " + _signed("{b}"),
    ops.BGE: _signed("{a}") + " >= " + _signed("{b}"),
    ops.BLTU: "{a} < {b}",
    ops.BGEU: "{a} >= {b}",
}


def _alu_expr(op: int, a: str, b: str, imm: int) -> Optional[str]:
    """Inline expression for the common pure ALU ops; None -> xop fallback.

    Must mirror ``execute_op`` exactly for every opcode it claims.
    """
    if op == ops.ADDI:
        return f"({a} + {imm}) & {_M}"
    if op == ops.ADD:
        return f"({a} + {b}) & {_M}"
    if op == ops.LI:
        return repr(imm & MASK64)
    if op == ops.SUB:
        return f"({a} - {b}) & {_M}"
    if op == ops.AND:
        return f"{a} & {b}"
    if op == ops.OR:
        return f"{a} | {b}"
    if op == ops.XOR:
        return f"{a} ^ {b}"
    if op == ops.SLT:
        return f"(1 if {_signed(a)} < {_signed(b)} else 0)"
    if op == ops.SLTU:
        return f"(1 if {a} < {b} else 0)"
    if op == ops.SLL:
        return f"({a} << ({b} & 63)) & {_M}"
    if op == ops.SRL:
        return f"{a} >> ({b} & 63)"
    if op == ops.SRA:
        return f"({_signed(a)} >> ({b} & 63)) & {_M}"
    if op == ops.ANDI:
        return f"{a} & {imm & MASK64}"
    if op == ops.ORI:
        return f"{a} | {imm & MASK64}"
    if op == ops.XORI:
        return f"{a} ^ {imm & MASK64}"
    if op == ops.SLTI:
        return f"(1 if {_signed(a)} < {imm} else 0)"
    if op == ops.SLLI:
        return f"({a} << {imm & 63}) & {_M}"
    if op == ops.SRLI:
        return f"{a} >> {imm & 63}"
    if op == ops.SRAI:
        return f"({_signed(a)} >> {imm & 63}) & {_M}"
    if op in (ops.MUL, ops.FMUL):
        return f"({a} * {b}) & {_M}"
    if op == ops.FADD:
        return f"({a} + {b}) & {_M}"
    if op == ops.FSUB:
        return f"({a} - {b}) & {_M}"
    if op == ops.SLTIU:
        return f"(1 if {a} < {imm & MASK64} else 0)"
    return None


def _w_alu_stmts(op: int, target: str, a: str, b: str,
                 imm: int) -> Optional[List[str]]:
    """Two-statement inline form for the common W-ops (32-bit result,
    sign-extended to 64).  None -> xop fallback."""
    if op == ops.ADDW:
        low = f"({a} + {b}) & 0xffffffff"
    elif op == ops.ADDIW:
        low = f"({a} + {imm}) & 0xffffffff"
    elif op == ops.SUBW:
        low = f"({a} - {b}) & 0xffffffff"
    elif op == ops.SLLW:
        low = f"({a} << ({b} & 31)) & 0xffffffff"
    elif op == ops.SRLW:
        low = f"({a} & 0xffffffff) >> ({b} & 31)"
    elif op == ops.SLLIW:
        low = f"({a} << {imm & 31}) & 0xffffffff"
    elif op == ops.SRLIW:
        low = f"({a} & 0xffffffff) >> {imm & 31}"
    else:
        return None
    return [f"_w = {low}",
            f"{target} = (_w | 0xffffffff00000000) if _w & 0x80000000 "
            f"else _w"]


class PredecodedProgram:
    """Dense-array form of a program plus its compiled block tables."""

    __slots__ = ("digest", "name", "length", "op", "rd", "rs1", "rs2",
                 "imm", "kind", "size", "run_len", "_blocks")

    def __init__(self, instructions: List[Instruction], digest: str,
                 name: str = "program"):
        self.digest = digest
        self.name = name
        n = len(instructions)
        self.length = n
        self.op = [inst.op for inst in instructions]
        self.rd = [inst.rd for inst in instructions]
        self.rs1 = [inst.rs1 for inst in instructions]
        self.rs2 = [inst.rs2 for inst in instructions]
        self.imm = [inst.imm for inst in instructions]
        self.kind = [_kind_of(o) for o in self.op]
        self.size = [ops.ACCESS_SIZE.get(o, 0) for o in self.op]
        # run_len[i]: number of consecutive straight-line instructions
        # starting at i (0 when i itself is a block terminator).
        run_len = [0] * n
        straight = _STRAIGHT_KINDS
        for i in range(n - 1, -1, -1):
            if self.kind[i] in straight:
                run_len[i] = (run_len[i + 1] + 1) if i + 1 < n else 1
        self.run_len = run_len
        # geometry -> {entry index -> (fn, block length)}: one table per
        # cache geometry.
        self._blocks: Dict[Geometry, Dict[int, Block]] = {}

    # -- round-trip ---------------------------------------------------------

    def to_instruction_tuples(self) -> List[Tuple[int, int, int, int, int]]:
        """(op, rd, rs1, rs2, imm) per instruction -- the full information
        content of the original stream, for round-trip checking."""
        return list(zip(self.op, self.rd, self.rs1, self.rs2, self.imm))

    # -- block compilation --------------------------------------------------

    def blocks(self, geometry: Geometry) -> Dict[int, Block]:
        """The table of blocks compiled for ``geometry``, the trained
        hierarchy's ``(L1I line shift, L1I set mask, L1D line shift, L1D
        set mask)``.  The dispatcher reads it directly and calls
        :meth:`compile_block` on a miss."""
        table = self._blocks.get(geometry)
        if table is None:
            table = self._blocks[geometry] = {}
        return table

    def compile_block(self, index: int,
                      geometry: Geometry) -> Optional[Block]:
        """Compile the block at ``index`` into ``geometry``'s table; None
        once that table holds :data:`MAX_COMPILED_BLOCKS`."""
        table = self.blocks(geometry)
        if len(table) >= MAX_COMPILED_BLOCKS:
            return None
        blk = table[index] = self._compile(index, geometry)
        return blk

    def _compile(self, start: int, geometry: Geometry) -> Block:
        """Compile the straight-line run at ``start`` into one function.

        The function body is pure array-free Python over the register
        file and bound memory accessors; signature
        ``_blk(regs, rdint, wrint, xop, il, dl, isets, dsets)`` where
        ``il``/``dl`` are the hierarchy's inst/data latency hooks and
        ``isets``/``dsets`` its L1I/L1D set lists.
        When the run ends at a conditional branch that the block cap did
        not cut off, the block also evaluates that branch and returns
        whether it is taken (its length then counts the branch);
        otherwise it returns None.
        """
        run = self.run_len[start]
        end = start + min(run, MAX_BLOCK_INSTRUCTIONS)
        if end == start + run and end < self.length \
                and self.op[end] in _BRANCH_CONDITIONS:
            end += 1  # fold the terminating branch into the block
        ishift, imask, dshift, dmask = geometry
        body: List[str] = []
        emit = body.append
        prev_line = None
        for i in range(start, end):
            # An instruction touch that finds its line MRU changes no tag
            # state: only the first instruction of each line is tested,
            # and the hierarchy is called on a miss.
            line = (i << 2) >> ishift
            if line != prev_line:
                emit(f"_w = isets[{line & imask}]")
                emit(f"if not _w or _w[-1] != {line}: il({i << 2})")
                prev_line = line
            k = self.kind[i]
            if k == K_NOP:
                continue
            op = self.op[i]
            rd = self.rd[i]
            rs1 = self.rs1[i]
            rs2 = self.rs2[i]
            imm = self.imm[i]
            a = f"regs[{rs1}]"
            b = f"regs[{rs2}]"
            if k == K_BRANCH:
                emit("return " + _BRANCH_CONDITIONS[op].format(a=a, b=b))
                continue
            if k == K_ALU:
                target = f"regs[{rd}]"
                if rd == 0:
                    if op in _PURE_ALU:
                        continue  # pure result discarded: elide
                    emit(f"xop({op}, {a}, {b}, {imm})")
                    continue
                expr = _alu_expr(op, a, b, imm)
                if expr is not None:
                    emit(f"{target} = {expr}")
                    continue
                stmts = _w_alu_stmts(op, target, a, b, imm)
                if stmts is not None:
                    body.extend(stmts)
                    continue
                emit(f"{target} = xop({op}, {a}, {b}, {imm})")
                continue
            # memory: effective address first (imm == 0 needs no mask --
            # register values are already in [0, 2**64)).
            addr = f"({a} + {imm}) & {_M}" if imm else a
            emit(f"_a = {addr}")
            # Same MRU test as an instruction touch, on the L1D.
            emit(f"_l = _a >> {dshift}")
            emit(f"_w = dsets[_l & {dmask}]")
            emit("if not _w or _w[-1] != _l: dl(_a)")
            if k == K_LOAD:
                signed = _SIGNED_LOADS.get(op)
                if signed is not None:
                    size, sign_bit, ext = signed
                    emit(f"_v = rdint(_a, {size})")
                    if rd:
                        emit(f"regs[{rd}] = (_v | {ext}) "
                             f"if _v & {sign_bit} else _v")
                elif rd:
                    emit(f"regs[{rd}] = rdint(_a, {self.size[i]})")
                else:
                    emit(f"rdint(_a, {self.size[i]})")
            else:  # K_STORE
                size = self.size[i]
                mask = (1 << (8 * size)) - 1
                emit(f"wrint(_a, {size}, {b} & {mask})")
        src = ("def _blk(regs, rdint, wrint, xop, il, dl, isets, dsets):"
               "\n    " + "\n    ".join(body) + "\n")
        namespace: Dict[str, Callable] = {}
        exec(compile(src, f"<predecode:{self.name}:{start}>", "exec"),
             {"__builtins__": {}}, namespace)
        return namespace["_blk"], end - start


# -- digest-keyed global cache ----------------------------------------------

#: Digest -> PredecodedProgram.  Bounded: cleared wholesale at the cap
#: (simple and safe -- predecode is cheap relative to any simulation that
#: would refill it).
_CACHE: Dict[str, PredecodedProgram] = {}
_CACHE_CAP = 256


def predecode(program) -> PredecodedProgram:
    """Predecoded form of ``program``, shared across identical images.

    Keyed by ``Program.digest()`` so two identically built programs (or
    the same workload rebuilt by another frontend) share one predecode
    and its compiled blocks.  Every call hashes the program: the
    per-program memo is checked against the digest, so a ``Program``
    edited in place is predecoded afresh rather than served stale.
    """
    memo = getattr(program, "_predecode_memo", None)
    digest = program.digest()
    if memo is not None and memo.digest == digest:
        return memo
    pd = _CACHE.get(digest)
    if pd is None:
        if len(_CACHE) >= _CACHE_CAP:
            _CACHE.clear()
        pd = PredecodedProgram(program.instructions, digest,
                               name=program.name)
        _CACHE[digest] = pd
    program._predecode_memo = pd
    return pd
