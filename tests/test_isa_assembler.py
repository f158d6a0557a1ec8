"""Assembler and disassembler tests."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.disassembler import disassemble, format_instr
from repro.isa.encoding import decode, make
from repro.isa import registers


def _decode_all(program):
    return list(disassemble(program.data, base=program.base))


class TestBasics:
    def test_empty_source(self):
        assert assemble("").data == b""

    def test_comments_and_blank_lines(self):
        program = assemble("; nothing\n\n   ; more\nNOP\n")
        assert len(program.data) == 1

    def test_label_resolution_forward_and_back(self):
        program = assemble(
            """
            start:
                JMP end
            mid:
                NOP
                JMP start
            end:
                HALT
            """
        )
        syms = program.symbols
        assert syms["start"] == 0
        assert syms["end"] > syms["mid"] > syms["start"]

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\nNOP\na:\nNOP")

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("JMP nowhere")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("FROB R1, R2")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("ADD R1")

    def test_branch_out_of_range(self):
        source = "start:\n" + ".space 40000\n" + "JMP start\n"
        with pytest.raises(AssemblerError):
            assemble(source)

    def test_base_offsets_symbols(self):
        program = assemble("x:\nNOP", base=0x1000)
        assert program.symbols["x"] == 0x1000


class TestPinnedBehaviour:
    """Messages and edge cases of the two-pass assembler, kept exactly
    by the one-pass rewrite."""

    @pytest.mark.parametrize("source, message", [
        ("MOVI R9, 1", "line 1: unknown GPR name: 'R9'"),
        ("LD R0, R1", "line 1: bad memory operand 'R1'"),
        (".byte lbl", "line 1: expected integer, got 'lbl'"),
        ("MOVI R0, 1 000", "line 1: expected integer or label, got '1 000'"),
        ("NOP\nFADD F9, F1", "line 2: unknown FPR name: 'F9'"),
        ("MOVSR PC, R1", "line 1: unknown special register: 'PC'"),
        (".word 1, x\nFROB", "line 2: unknown mnemonic 'FROB'"),
        ("JMP 40000\nJMP nowhere",
         "line 1: branch displacement 39997 out of rel16 range"),
    ])
    def test_error_messages(self, source, message):
        with pytest.raises(AssemblerError) as info:
            assemble(source)
        assert str(info.value) == message

    def test_underscore_digits_accepted(self):
        assert assemble("MOVI R0, 1_000").data.hex() == "1100e8030000"

    def test_trailing_comma_dropped(self):
        assert assemble("ADD R1,R2,").data == assemble("ADD R1, R2").data

    def test_numeric_branch_target_is_absolute(self):
        program = assemble("NOP\nJMP 0x1000", base=0x1000)
        assert _decode_all(program)[1][1].branch_target(0x1001) == 0x1000


class TestDirectives:
    def test_word_values(self):
        program = assemble(".word 1, 2, 0xFFFFFFFF")
        assert program.data[:4] == b"\x01\x00\x00\x00"
        assert program.data[8:12] == b"\xff\xff\xff\xff"

    def test_word_label_fixup(self):
        program = assemble(
            """
            table:
                .word target
            target:
                NOP
            """
        )
        value = int.from_bytes(program.data[:4], "little")
        assert value == program.symbols["target"]

    def test_byte_and_ascii(self):
        program = assemble('.byte 65, 66\n.ascii "CD"')
        assert program.data == b"ABCD"

    def test_ascii_escapes(self):
        program = assemble(r'.ascii "a\n"')
        assert program.data == b"a\n"

    @pytest.mark.parametrize("source, message", [
        ("NOP\n.align 0", "line 2: .align boundary must be at least 1, got 0"),
        (".align -4", "line 1: .align boundary must be at least 1, got -4"),
        ("NOP\n.align -4",
         "line 2: .align boundary must be at least 1, got -4"),
        (".space -1", "line 1: .space count must not be negative, got -1"),
    ])
    def test_bad_align_and_space_rejected(self, source, message):
        # Once a bare ZeroDivisionError / ValueError with no line.
        with pytest.raises(AssemblerError) as info:
            assemble(source)
        assert str(info.value) == message

    def test_space_zero_filled(self):
        program = assemble(".byte 1\n.space 3\n.byte 2")
        assert program.data == b"\x01\x00\x00\x00\x02"

    def test_align(self):
        program = assemble(".byte 1\n.align 4\nx:\n.word 7")
        assert program.symbols["x"] == 4

    def test_org_forward_only(self):
        program = assemble(".org 0x10\nNOP")
        assert len(program.data) == 0x11
        with pytest.raises(AssemblerError):
            assemble(".org 0x10\nNOP\n.org 0x4\nNOP")


class TestOperands:
    def test_memory_operand_forms(self):
        program = assemble(
            """
            LD R1, [R2+4]
            LD R1, [R2-4]
            LD R1, [R2]
            ST [R3+8], R4
            """
        )
        instrs = [i for _, i, _ in _decode_all(program)]
        assert instrs[0].imm == 4
        assert instrs[1].imm == -4
        assert instrs[2].imm == 0
        assert instrs[3].dst == 4 and instrs[3].src == 3

    def test_sp_fp_aliases(self):
        program = assemble("MOV SP, FP")
        instr = _decode_all(program)[0][1]
        assert instr.dst == registers.SP
        assert instr.src == registers.FP

    def test_special_registers_by_name(self):
        program = assemble("MOVSR EPC, R2\nMOVRS R3, CAUSE\nMOVRS R1, FLAGS")
        instrs = [i for _, i, _ in _decode_all(program)]
        assert instrs[0].dst == registers.SR_EPC and instrs[0].src == 2
        assert instrs[1].dst == 3 and instrs[1].src == registers.SR_CAUSE
        assert instrs[2].src == registers.SR_FLAGS

    def test_fp_registers(self):
        program = assemble("FADD F1, F2\nFLD F3, [R4+8]\nFST [R4+4], F5")
        instrs = [i for _, i, _ in _decode_all(program)]
        assert (instrs[0].dst, instrs[0].src) == (1, 2)
        assert (instrs[1].dst, instrs[1].src) == (3, 4)
        assert (instrs[2].dst, instrs[2].src) == (5, 4)

    def test_in_out_port_forms(self):
        program = assemble("IN R1, 0x50\nOUT 0x40, R2")
        instrs = [i for _, i, _ in _decode_all(program)]
        assert instrs[0].dst == 1 and instrs[0].imm == 0x50
        assert instrs[1].dst == 2 and instrs[1].imm == 0x40

    def test_rep_prefix(self):
        program = assemble("REP MOVSB")
        instr = _decode_all(program)[0][1]
        assert instr.rep

    def test_loop_instruction(self):
        program = assemble("top:\nLOOP R2, top")
        instr = _decode_all(program)[0][1]
        assert instr.dst == 2
        assert instr.branch_target(0) == 0

    def test_movi_label_immediate(self):
        program = assemble("MOVI R1, data\ndata:\n.word 5", base=0x200)
        instr = _decode_all(program)[0][1]
        assert instr.imm == program.symbols["data"]


class TestDisassembler:
    def test_format_roundtrip_text(self):
        source_lines = [
            "MOVI R1, 42",
            "ADD R1, R2",
            "LD R3, [R4+8]",
            "JZ 0x0",
            "HALT",
        ]
        program = assemble("\n".join(source_lines))
        texts = [text for _, _, text in _decode_all(program)]
        assert texts[0] == "MOVI R1, 42"
        assert texts[1] == "ADD R1, R2"
        assert "LD R3, [R4+8]" == texts[2]
        assert texts[4] == "HALT"

    def test_branch_target_shown_absolute(self):
        text = format_instr(make("JMP", imm=5), pc=0x100)
        assert "0x108" in text
