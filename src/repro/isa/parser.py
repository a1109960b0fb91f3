"""Text-format assembly parser.

Lets programs be written as plain assembly strings instead of builder
calls:

    program = parse_asm('''
        .data 0x1000 words 1 2 3
            li   r1, 0x1000
            li   r2, 0
            li   r3, 3
        loop:
            slli r4, r2, 3
            add  r4, r4, r1
            ld   r5, 0(r4)
            add  r6, r6, r5
            addi r2, r2, 1
            bne  r2, r3, loop
            halt
    ''')

Syntax
------
* one instruction per line; ``#`` or ``;`` start a comment;
* ``label:`` on its own line (or before an instruction) defines a label;
* loads/stores use ``offset(base)`` addressing: ``ld r5, 8(r4)``,
  ``sd r5, -16(r4)``;
* branch targets are labels or absolute addresses;
* immediates accept decimal, hex (``0x``), and negative values;
* ``.data ADDR bytes B0 B1 ...`` and ``.data ADDR words W0 W1 ...``
  populate the initial data segment.

A mnemonic is an opcode's name in
:data:`~repro.isa.instructions.OPCODE_NAMES`, or the ``mov``
pseudo-instruction.  Its operands are read by the opcode's operand
format (:data:`~repro.isa.instructions.OPERAND_FORMAT`), the same text
``Instruction.__repr__`` prints, so every listing parses back to the
instruction it came from.
"""

from __future__ import annotations

import re
from typing import List

from .assembler import METHOD_NAMES, Assembler, AssemblyError
from .instructions import OPCODE_NAMES, OPERAND_FORMAT
from .program import Program

_MEM_OPERAND = re.compile(r"^(-?\w+)\((\w+)\)$")

#: Mnemonic -> (its Assembler method, its operands' formats in assembly
#: order); ``mov`` is the assembler's one pseudo-instruction.
_SYNTAX = {OPCODE_NAMES[op]: (METHOD_NAMES[op],
                              fmt.split(", ") if fmt else [])
           for op, fmt in OPERAND_FORMAT.items()}
_SYNTAX["mov"] = ("mov", ["r{rd}", "r{rs1}"])


class AsmSyntaxError(AssemblyError):
    """Malformed assembly text (carries the offending line number)."""

    def __init__(self, line_number: int, line: str, message: str):
        super().__init__(f"line {line_number}: {message}: {line!r}")
        self.line_number = line_number


def _parse_int(token: str, line_number: int, line: str) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise AsmSyntaxError(line_number, line,
                             f"bad integer {token!r}") from None


def _split_operands(rest: str) -> List[str]:
    return [part.strip() for part in rest.split(",")] if rest else []


def parse_asm(text: str, name: str = "program") -> Program:
    """Parse assembly text into an executable :class:`Program`."""
    asm = Assembler()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue

        # Disassembly-style address prefixes ("0x0040: add ...") are
        # ignored, so `parse_asm(program.disassemble())` roundtrips.
        line = re.sub(r"^(0[xX][0-9a-fA-F]+|\d+):\s*", "", line)
        if not line:
            continue

        # Labels (possibly followed by an instruction on the same line).
        while True:
            match = re.match(r"^([A-Za-z_]\w*):\s*(.*)$", line)
            if not match:
                break
            asm.label(match.group(1))
            line = match.group(2).strip()
        if not line:
            continue

        # Data directives.
        if line.startswith(".data"):
            parts = line.split()
            if len(parts) < 4 or parts[2] not in ("bytes", "words"):
                raise AsmSyntaxError(
                    line_number, raw,
                    "expected '.data ADDR bytes|words V0 V1 ...'")
            addr = _parse_int(parts[1], line_number, raw)
            values = [_parse_int(tok, line_number, raw)
                      for tok in parts[3:]]
            if parts[2] == "bytes":
                asm.data(addr, bytes(v & 0xFF for v in values))
            else:
                asm.data_words(addr, values)
            continue

        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        operands = _split_operands(rest.strip())

        def mem_operand(token: str):
            match = _MEM_OPERAND.match(token.replace(" ", ""))
            if not match:
                raise AsmSyntaxError(line_number, raw,
                                     f"bad memory operand {token!r}")
            return (match.group(2),
                    _parse_int(match.group(1), line_number, raw))

        def target(token: str):
            if re.match(r"^-?(0x)?[0-9a-fA-F]+$", token):
                return _parse_int(token, line_number, raw)
            return token

        if mnemonic not in _SYNTAX:
            raise AsmSyntaxError(line_number, raw,
                                 f"unknown mnemonic {mnemonic!r}")
        method, formats = _SYNTAX[mnemonic]
        if len(operands) != len(formats):
            raise AsmSyntaxError(
                line_number, raw,
                f"{mnemonic} expects {len(formats)} operands, got "
                f"{len(operands)}")
        # The method's parameters are the operands in assembly order, an
        # address operand giving (base, offset).
        args = []
        try:
            for fmt, token in zip(formats, operands):
                if fmt.startswith("r{"):
                    args.append(token)
                elif fmt.startswith("{target"):
                    args.append(target(token))
                elif fmt.endswith(")"):
                    args.extend(mem_operand(token))
                else:
                    args.append(_parse_int(token, line_number, raw))
            getattr(asm, method)(*args)
        except ValueError as exc:
            raise AsmSyntaxError(line_number, raw, str(exc)) from None

    return asm.build(name=name)
