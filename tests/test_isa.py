import random

import pytest

from sid.isa import (
    MacroInstruction,
    Opcode,
    decode,
    disassemble,
    encode,
    halt,
    loop,
    program_from_bytes,
    program_to_bytes,
    regaddi,
    regload,
    regstore,
)

from oracles import AsmError, assemble


def random_instruction(rng: random.Random) -> MacroInstruction:
    return MacroInstruction(
        mode=Opcode(rng.randrange(16)),
        length=rng.randrange(1 << 14),
        width=rng.randrange(1 << 14),
        addr_x=rng.randrange(1 << 31),
        addr_y=rng.randrange(1 << 31),
        addr_z=rng.randrange(1 << 31),
        off_x=rng.random() < 0.5,
        off_y=rng.random() < 0.5,
        off_z=rng.random() < 0.5,
    )


def test_encode_known_word():
    inst = MacroInstruction(
        mode=Opcode.VADD, length=4, addr_x=0x100, addr_y=0x200, addr_z=0x300
    )
    # Recomputed from the bit layout: length sits at bit 110, operands at
    # 64/32/0, so the four 32-bit groups read 00010000 00000100 00000200 00000300.
    expected = (4 << 110) | (0x100 << 64) | (0x200 << 32) | 0x300
    assert encode(inst) == expected
    assert encode(inst) == 0x00010000_00000100_00000200_00000300
    assert decode(expected) == inst


def test_all_zero_fields():
    assert encode(MacroInstruction(mode=Opcode.VADD)) == 0


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(2000):
        inst = random_instruction(rng)
        assert decode(encode(inst)) == inst
        word = rng.randrange(1 << 128)
        assert encode(decode(word)) == word


def test_loop_field_positions():
    word = (int(Opcode.LOOP) << 124) | (12 << 64) | (9 << 32)
    inst = decode(word)
    assert inst.mode is Opcode.LOOP
    assert inst.x_field == 12 and inst.y_field == 9
    assert encode(loop(12, 9)) == word


def test_regaddi_signed_immediate():
    inst = regaddi(1, -40)
    assert inst.signed_imm == -40
    assert decode(encode(inst)).signed_imm == -40
    assert decode(encode(regaddi(2, 40))).signed_imm == 40


def test_field_masks_disjoint_and_cover():
    fields = [
        (0xF, 124),
        ((1 << 14) - 1, 110),
        ((1 << 14) - 1, 96),
        (0xFFFFFFFF, 64),
        (0xFFFFFFFF, 32),
        (0xFFFFFFFF, 0),
    ]
    total = 0
    for mask, shift in fields:
        placed = mask << shift
        assert total & placed == 0
        total |= placed
    assert total == (1 << 128) - 1


def test_encode_rejects_out_of_range():
    from sid.isa import EncodingError

    with pytest.raises(EncodingError):
        encode(MacroInstruction(mode=Opcode.VADD, length=1 << 14))
    with pytest.raises(EncodingError):
        encode(MacroInstruction(mode=Opcode.VADD, addr_x=1 << 31))


def test_program_file_roundtrip():
    rng = random.Random(8)
    program = [random_instruction(rng) for _ in range(50)]
    blob = program_to_bytes(program)
    assert len(blob) == 16 * len(program)
    assert program_from_bytes(blob) == program


def test_assemble_basic():
    program = assemble("vadd length=4 x=0x100 y=0x200 z=0x300\n")
    assert program == [
        MacroInstruction(mode=Opcode.VADD, length=4, addr_x=0x100, addr_y=0x200, addr_z=0x300)
    ]


def test_assemble_label_loop():
    text = """
    # square a vector, three times = n+1 iterations with n=2
    loop end=done n=2
    vmul length=8 x=0x10 y=0x10 z=0x10
    vadd length=8 x=0x10 y=0x20 z=0x10
    done: vsub length=8 x=0x10 y=0x30 z=0x40
    halt
    """
    program = assemble(text)
    assert program[0] == loop(3, 2)
    assert program[3].mode is Opcode.VSUB


def test_assemble_errors_name_line():
    with pytest.raises(AsmError, match="line 1"):
        assemble("vfoo length=1")
    with pytest.raises(AsmError, match="line 2"):
        assemble("halt\nvadd length=99999999")
    with pytest.raises(AsmError, match="end="):
        assemble("loop n=3")


def test_assemble_offsets_and_sugar():
    text = """
    vssgt length=16 x=0x40 y=0x80 z=0xc0 offx offy
    regaddi reg=off_y imm=-6
    regstore group=loop addr=0x40
    regload group=offset addr=0x44
    halt
    """
    program = assemble(text)
    assert program[0].off_x and program[0].off_y and not program[0].off_z
    assert program[1] == regaddi(1, -6)
    assert program[2] == regstore(0, 0x40)
    assert program[3] == regload(1, 0x44)
    assert program[4] == halt()


def test_disassemble_roundtrip():
    rng = random.Random(9)
    program = []
    for _ in range(100):
        choice = rng.randrange(5)
        if choice == 0:
            program.append(loop(rng.randrange(100), rng.randrange(50)))
        elif choice == 1:
            program.append(regaddi(rng.randrange(3), rng.randint(-1000, 1000)))
        elif choice == 2:
            program.append(regstore(rng.randrange(2), rng.randrange(1 << 16)))
        elif choice == 3:
            program.append(halt())
        else:
            inst = random_instruction(rng)
            if inst.mode in (
                Opcode.LOOP,
                Opcode.REGADDI,
                Opcode.REGSTORE,
                Opcode.REGLOAD,
                Opcode.HALT,
            ):
                inst = MacroInstruction(
                    mode=Opcode.VADD,
                    length=inst.length,
                    width=inst.width,
                    addr_x=inst.addr_x,
                    addr_y=inst.addr_y,
                    addr_z=inst.addr_z,
                    off_x=inst.off_x,
                    off_y=inst.off_y,
                    off_z=inst.off_z,
                )
            program.append(inst)
    assert assemble(disassemble(program)) == program


def test_disassemble_fixed_forms():
    assert disassemble([halt()]).strip() == "halt"
    assert disassemble([regstore(0, 0x40)]).strip() == "regstore length=0 z=0x40"
