"""Predecoded program images for the batch-dispatch fast-forward engine.

A :class:`PredecodedProgram` translates a :class:`~repro.isa.program.Program`
once into dense parallel arrays -- opcode, register indices, immediate, a
dispatch *kind* (ALU / load / store / branch / jump flavour / halt / nop /
illegal), the memory access size, and the straight-line run length
starting at each instruction.  The fast-forward engine dispatches from
these arrays instead of fetching
:class:`~repro.isa.instructions.Instruction` objects, and compiles
each basic block's straight-line body, with the conditional branch that
ends it, into a single Python function (a "superinstruction") so hot
loops execute without per-instruction dispatch overhead.  A block keeps
the registers it uses in Python locals, reads and writes memory pages
directly, and trains the warm cache and branch-predictor state as it
runs, so blocks live in one table per cache and predictor geometry
(:data:`BlockKey`).

Predecoded images are cached globally, keyed by the program's content
digest, so the fast-forward engine, the architectural oracle
(:meth:`Interpreter.step` / :meth:`Interpreter.run`), and any frontend that
builds an identical image (e.g. the RV32 loader) share one predecode.

Correctness contract
--------------------
Compiled blocks are architecturally identical to executing the same
instructions through :meth:`Interpreter.step`:

* a block loads each register it reads into a local once, at entry,
  and stores each register it writes back to the register file at its
  exit;
* an opcode ``execute_op`` rejects (one outside :data:`_PURE_ALU`)
  ends a straight-line run and is never compiled: fast-forward steps
  it, so it raises with the PC, retire count and registers that
  stepping leaves;
* loads and stores address ``MainMemory._pages`` directly: a page
  lookup, then an in-page read or write of the bytearray.  An access
  that crosses a page, or a load or store that finds no page, falls
  back to ``read_int``/``write_int``, so a load never allocates a page
  and a store allocates one exactly as ``write_int`` does.  The block
  path therefore bypasses a ``MainMemory`` subclass that overrides
  ``read_int``/``write_int`` for in-page accesses;
* loads always perform the access, even with ``rd == r0`` (the L1D
  touch is visible in the warm cache capsule and must match the
  oracle's access stream);
* ALU work targeting ``r0`` is skipped: every ALU opcode a block
  holds is one ``execute_op`` handles, without side effects;
* instruction-cache touches are emitted only at block entry and at
  I-cache line crossings.  Within a straight-line run every skipped touch
  hits the line touched by the immediately preceding instruction, which is
  MRU by construction (data accesses never touch the L1I), so the skipped
  touches are tag-state no-ops;
* every emitted touch, instruction or data, is an L1 lookup written
  inline: a line at the MRU way of its set changes nothing, a line
  elsewhere in the set moves to the MRU way, and only a miss calls the
  hierarchy.  That is exactly what ``Cache.lookup`` does to the tag
  state on an L1 hit, which reaches no other level, so the resulting
  warm capsule (``CacheHierarchy.export_state`` -- tag arrays only, no
  hit/miss stats) is bit-identical to per-instruction touching;
* a folded branch evaluates ``branch_taken``'s comparison inline and
  trains the predictor's counter and global history as
  ``GsharePredictor.update(pc, taken, predict(pc))`` does;
* every block returns the PC it hands over to.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..memory.main_memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from . import instructions as ops
from .instructions import MASK64, Instruction

__all__ = [
    "PredecodedProgram",
    "predecode",
    "K_ALU", "K_LOAD", "K_STORE", "K_BRANCH",
    "K_J", "K_JAL", "K_JR", "K_JALR", "K_HALT", "K_NOP", "K_ILLEGAL",
]

# Dispatch kinds.  Straight-line kinds (ALU/load/store/nop) may appear
# inside superinstruction blocks; the rest terminate a block.  An opcode
# ``execute_op`` rejects is K_ILLEGAL, so no block holds it: fast-forward
# steps it, and it raises as stepping does.
(K_ALU, K_LOAD, K_STORE, K_BRANCH, K_J, K_JAL, K_JR, K_JALR, K_HALT, K_NOP,
 K_ILLEGAL) = range(11)

_STRAIGHT_KINDS = frozenset({K_ALU, K_LOAD, K_STORE, K_NOP})

#: The opcodes ``execute_op`` handles: every other opcode but the memory,
#: control, HALT and NOP ones.
_PURE_ALU = (frozenset(range(ops.NUM_OPCODES))
             - ops.MEM_OPS - ops.CONTROL_OPS - {ops.HALT, ops.NOP})

#: Signed loads: (sign-bit mask, extension OR-mask).
_SIGNED_LOADS = {op: (1 << (8 * ops.ACCESS_SIZE[op] - 1),
                      MASK64 ^ ((1 << (8 * ops.ACCESS_SIZE[op])) - 1))
                 for op in ops.SIGNED_LOADS}

#: Longest straight-line run compiled into a single block; longer runs are
#: chained block-to-block by the dispatcher.
MAX_BLOCK_INSTRUCTIONS = 256
#: Per-table cap on compiled entry points -- a backstop against
#: pathological programs where every branch lands on a fresh offset.
MAX_COMPILED_BLOCKS = 2048

_M = "0xffffffffffffffff"

#: Every constant a compiled block bakes in, and so the key of its table:
#: (L1I line shift, L1I set mask, L1D line shift, L1D set mask, gshare
#: table mask, gshare history mask).
BlockKey = Tuple[int, int, int, int, int, int]
#: A compiled block: its function and how many instructions it retires.
Block = Tuple[Callable, int]

#: The globals of every compiled block: no builtins, and the little-endian
#: in-page accessors of the 2-, 4- and 8-byte loads and stores.
_BLOCK_GLOBALS = {
    "__builtins__": {},
    "_ld2": struct.Struct("<H").unpack_from,
    "_ld4": struct.Struct("<I").unpack_from,
    "_ld8": struct.Struct("<Q").unpack_from,
    "_st2": struct.Struct("<H").pack_into,
    "_st4": struct.Struct("<I").pack_into,
    "_st8": struct.Struct("<Q").pack_into,
}


def _l1_touch(sets: str, line: str, index: str, addr: str,
              miss: str) -> List[str]:
    """An L1 lookup, inline: nothing at the MRU way, an LRU reorder on
    any other hit, and the hierarchy's hook ``miss`` only on a miss --
    what ``Cache.lookup`` does to the tag state."""
    return [f"_w = {sets}[{index}]",
            f"if not _w: {miss}({addr})",
            f"elif _w[-1] != {line}:",
            f"    if {line} in _w: _w.remove({line}); _w.append({line})",
            f"    else: {miss}({addr})"]


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
    return K_ALU if op in _PURE_ALU else K_ILLEGAL


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
        # BlockKey -> {entry PC -> (fn, block length)}: one table per
        # cache and predictor geometry.
        self._blocks: Dict[BlockKey, Dict[int, Block]] = {}

    # -- round-trip ---------------------------------------------------------

    def to_instruction_tuples(self) -> List[Tuple[int, int, int, int, int]]:
        """(op, rd, rs1, rs2, imm) per instruction -- the full information
        content of the original stream, for round-trip checking."""
        return list(zip(self.op, self.rd, self.rs1, self.rs2, self.imm))

    # -- block compilation --------------------------------------------------

    def blocks(self, key: BlockKey) -> Dict[int, Block]:
        """The table of blocks compiled for ``key`` (:data:`BlockKey`),
        keyed by entry PC.  The dispatcher reads it directly and calls
        :meth:`compile_block` on a miss."""
        table = self._blocks.get(key)
        if table is None:
            table = self._blocks[key] = {}
        return table

    def compile_block(self, index: int, key: BlockKey) -> Optional[Block]:
        """Compile the block at instruction ``index`` into ``key``'s
        table; None once that table holds :data:`MAX_COMPILED_BLOCKS`."""
        table = self.blocks(key)
        if len(table) >= MAX_COMPILED_BLOCKS:
            return None
        blk = table[index << 2] = self._compile(index, key)
        return blk

    def _compile(self, start: int, key: BlockKey) -> Block:
        """Compile the straight-line run at ``start`` into one function.

        The function body is pure Python over locals, with signature
        ``_blk(regs, pg, rdint, wrint, xop, il, dl, isets, dsets, bp,
        ctr)``: ``pg`` is the memory's page lookup (``_pages.get``),
        ``rdint``/``wrint`` its accessors for the accesses a page cannot
        serve, ``il``/``dl`` the hierarchy's inst/data latency hooks,
        ``isets``/``dsets`` its L1I/L1D set lists, and ``bp``/``ctr``
        the predictor and its counter list.  When the run ends at a
        conditional branch that the block cap did not cut off, the block
        also evaluates that branch and trains the predictor with it (its
        length then counts the branch).  It returns the next PC.
        """
        run = self.run_len[start]
        end = start + min(run, MAX_BLOCK_INSTRUCTIONS)
        if end == start + run and end < self.length \
                and self.op[end] in _BRANCH_CONDITIONS:
            end += 1  # fold the terminating branch into the block
        ishift, imask, dshift, dmask, table_mask, history_mask = key
        entry: List[str] = []  # loads of the registers read before written
        body: List[str] = []
        emit = body.append
        local = set()  # registers held in locals
        written: Dict[int, None] = {}  # registers to store back, in order

        def read(r: int) -> str:
            if not r:
                return "0"
            if r not in local:
                local.add(r)
                entry.append(f"r{r} = regs[{r}]")
            return f"r{r}"

        def write(r: int) -> str:
            local.add(r)
            written[r] = None
            return f"r{r}"

        branch = None
        prev_line = None
        for i in range(start, end):
            # An instruction touch that finds its line MRU changes no tag
            # state: only the first instruction of each line is looked up.
            line = (i << 2) >> ishift
            if line != prev_line:
                body.extend(_l1_touch("isets", str(line), str(line & imask),
                                      str(i << 2), "il"))
                prev_line = line
            k = self.kind[i]
            if k == K_NOP:
                continue
            op = self.op[i]
            rd = self.rd[i]
            imm = self.imm[i]
            a = read(self.rs1[i])
            if k == K_BRANCH:  # the folded terminator: the last one
                branch = (i, _BRANCH_CONDITIONS[op].format(
                    a=a, b=read(self.rs2[i])))
                continue
            if k == K_ALU:
                b = read(self.rs2[i])
                if rd == 0:
                    continue  # pure result discarded: elide
                target = write(rd)
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
            # register values are already in [0, 2**64)), then the L1D
            # lookup, then the page.
            size = self.size[i]
            emit(f"_a = ({a} + {imm}) & {_M}" if imm else f"_a = {a}")
            emit(f"_l = _a >> {dshift}")
            body.extend(_l1_touch("dsets", "_l", f"_l & {dmask}", "_a",
                                  "dl"))
            emit(f"_p = pg(_a >> {PAGE_SHIFT})")
            emit(f"_o = _a & {PAGE_MASK}")
            in_page = "_p is not None"
            if size > 1:
                in_page += f" and _o <= {PAGE_SIZE - size}"
            if k == K_LOAD:
                signed = _SIGNED_LOADS.get(op)
                value = write(rd) if rd and signed is None else "_v"
                direct = "_p[_o]" if size == 1 else f"_ld{size}(_p, _o)[0]"
                emit(f"{value} = {direct} if {in_page} "
                     f"else rdint(_a, {size})")
                if rd and signed is not None:
                    sign_bit, ext = signed
                    emit(f"{write(rd)} = (_v | {ext}) if _v & {sign_bit} "
                         f"else _v")
            else:  # K_STORE: a register already fits 8 bytes
                value = read(self.rs2[i])
                if size < 8:
                    value += f" & {hex((1 << (8 * size)) - 1)}"
                direct = (f"_p[_o] = {value}" if size == 1
                          else f"_st{size}(_p, _o, {value})")
                emit(f"if {in_page}: {direct}")
                emit(f"else: wrint(_a, {size}, {value})")
        body.extend(f"regs[{r}] = r{r}" for r in written)  # store back
        if branch is None:
            emit(f"return {end << 2}")
        else:
            # Train gshare as update(pc, taken, predict(pc)) does.
            i, condition = branch
            emit("_h = bp._history")
            emit(f"_s = ({i} ^ _h) & {table_mask}")
            emit("_c = ctr[_s]")
            emit(f"if {condition}:")
            emit("    if _c < 3: ctr[_s] = _c + 1")
            emit(f"    bp._history = ((_h << 1) | 1) & {history_mask}")
            emit(f"    return {self.imm[i]!r}")
            emit("if _c: ctr[_s] = _c - 1")
            emit(f"bp._history = (_h << 1) & {history_mask}")
            emit(f"return {(i + 1) << 2}")
        src = ("def _blk(regs, pg, rdint, wrint, xop, il, dl, isets, dsets, "
               "bp, ctr):\n    " + "\n    ".join(entry + body) + "\n")
        namespace: Dict[str, Callable] = {}
        exec(compile(src, f"<predecode:{self.name}:{start}>", "exec"),
             _BLOCK_GLOBALS, namespace)
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
