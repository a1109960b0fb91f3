"""The RV32 image loaders: one rule per source, no guessing.

A ``.hex``/``.txt`` path is hex text, a ``.bin`` path and raw bytes are a
flat little-endian binary, an int iterable is the words themselves;
any other path, and an image with no instruction words, raise
:class:`DecodeError`.
"""

from pathlib import Path

import pytest

from repro.isa import DecodeError
from repro.isa.interp import Interpreter
from repro.isa.riscv import (
    RVAssembler,
    load_program,
    load_words,
    words_from_binary,
)

HAZARD_HEX = Path(__file__).resolve().parent.parent / "examples" / \
    "hazard.hex"


def sum_words():
    """addi x1, x0, 5; addi x2, x1, 7; ecall."""
    asm = RVAssembler()
    asm.emit("addi", rd=1, rs1=0, imm=5)
    asm.emit("addi", rd=2, rs1=1, imm=7)
    asm.emit("ecall")
    return asm.words()


def binary(words):
    return b"".join(word.to_bytes(4, "little") for word in words)


def final_regs(program):
    interp = Interpreter(program)
    interp.run()
    return interp.regs


class TestWordsFromBinary:
    def test_little_endian_words(self):
        blob = bytes([0x13, 0x00, 0x00, 0x00, 0x93, 0x00, 0x10, 0x00,
                      0x78, 0x56, 0x34, 0x12])
        assert words_from_binary(blob) == [0x00000013, 0x00100093,
                                           0x12345678]

    def test_empty_image_has_no_words(self):
        assert words_from_binary(b"") == []

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 9])
    def test_partial_word_rejected(self, length):
        with pytest.raises(DecodeError, match="multiple of 4"):
            words_from_binary(bytes(length))


class TestOneRulePerSource:
    def test_hex_and_txt_paths_are_hex_text(self, tmp_path):
        text = "\n".join(f"{word:08x}" for word in sum_words()) + "\n"
        for suffix in (".hex", ".txt", ".HEX"):
            path = tmp_path / f"prog{suffix}"
            path.write_text(text)
            assert load_words(path) == sum_words()

    def test_bin_path_is_a_flat_binary(self, tmp_path):
        path = tmp_path / "prog.bin"
        path.write_bytes(binary(sum_words()))
        assert load_words(path) == sum_words()
        regs = final_regs(load_program(path))
        assert (regs[1], regs[2]) == (5, 12)
        assert load_program(path).name == "riscv-prog"

    def test_raw_bytes_are_a_flat_binary(self):
        assert load_words(binary(sum_words())) == sum_words()
        assert load_words(bytearray(binary(sum_words()))) == sum_words()

    def test_raw_bytes_holding_hex_text_are_not_guessed_at(self):
        # Eight hex digits and a newline: nine bytes, no whole words.
        with pytest.raises(DecodeError, match="multiple of 4"):
            load_program(b"00000013\n")

    def test_word_iterable_is_the_words(self):
        assert load_words(iter(sum_words())) == sum_words()

    @pytest.mark.parametrize("name", ["prog", "prog.img", "prog.hex.gz"])
    def test_other_paths_raise_naming_the_rule(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(HAZARD_HEX.read_bytes())
        with pytest.raises(DecodeError, match=r"\.hex.*\.bin"):
            load_words(path)

    def test_committed_hex_image_loads(self):
        program = load_program(HAZARD_HEX)
        assert program.name == "riscv-hazard"
        assert len(program) == len(load_words(HAZARD_HEX)) + 1


class TestEmptyImages:
    @pytest.mark.parametrize("source", [b"", [], bytearray()])
    def test_in_memory_image_without_words(self, source):
        with pytest.raises(DecodeError, match="no instruction words"):
            load_program(source)

    @pytest.mark.parametrize("name, payload", [
        ("empty.hex", b""),
        ("comments.hex", b"# nothing here\n// nor here\n"),
        ("empty.bin", b""),
    ])
    def test_file_without_words(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(DecodeError, match="no instruction words"):
            load_program(path)
