"""Macro-instruction encoding, decoding and disassembly.

Instructions are 128 bits: Mode[127:124], Length[123:110], Width[109:96],
then three 32-bit operand slots whose top bit is the offset-enable flag and
whose low 31 bits are a word address (X at [95:64], Y at [63:32], Z at [31:0]).
Control instructions reuse the slots: Loop takes its end PC from the full
[95:64] field and its iteration count from [63:32]; RegAddi selects an offset
register through Length and reads a signed 32-bit immediate from [95:64];
RegStore/RegLoad select a register group through Length and address memory
through the Z slot.
"""

import enum
import struct
from dataclasses import dataclass

LEN_BITS = 14
ADDR_BITS = 31
MAX_LEN = (1 << LEN_BITS) - 1
MAX_ADDR = (1 << ADDR_BITS) - 1
INSTRUCTION_BYTES = 16


class Opcode(enum.IntEnum):
    VADD = 0
    VSUB = 1
    VMUL = 2
    VSGT = 3
    VSIG = 4
    VTANH = 5
    VEXP = 6
    MVMUL = 7
    VSSGT = 8
    VMAXABS = 9
    VSQNORM = 10
    LOOP = 11
    REGADDI = 12
    REGSTORE = 13
    REGLOAD = 14
    HALT = 15


CONTROL_OPCODES = frozenset(
    {Opcode.LOOP, Opcode.REGADDI, Opcode.REGSTORE, Opcode.REGLOAD, Opcode.HALT}
)

# RegAddi target / RegStore group selectors (carried in the Length field).
REG_X, REG_Y, REG_Z = 0, 1, 2
GROUP_LOOP, GROUP_OFFSET = 0, 1

_OFFSET_REG_NAMES = {REG_X: "off_x", REG_Y: "off_y", REG_Z: "off_z"}


class EncodingError(ValueError):
    pass


@dataclass(frozen=True)
class MacroInstruction:
    mode: Opcode
    length: int = 0
    width: int = 0
    addr_x: int = 0
    addr_y: int = 0
    addr_z: int = 0
    off_x: bool = False
    off_y: bool = False
    off_z: bool = False

    def _check(self):
        for name, value, limit in (
            ("length", self.length, MAX_LEN),
            ("width", self.width, MAX_LEN),
            ("addr_x", self.addr_x, MAX_ADDR),
            ("addr_y", self.addr_y, MAX_ADDR),
            ("addr_z", self.addr_z, MAX_ADDR),
        ):
            if not 0 <= value <= limit:
                raise EncodingError(f"{name}={value} out of range (max {limit})")

    # Control-instruction views of the operand slots.
    @property
    def x_field(self) -> int:
        """Full 32-bit X slot (offset bit included)."""
        return (int(self.off_x) << 31) | self.addr_x

    @property
    def y_field(self) -> int:
        return (int(self.off_y) << 31) | self.addr_y

    @property
    def signed_imm(self) -> int:
        """X slot as a signed 32-bit immediate (RegAddi)."""
        v = self.x_field
        return v - (1 << 32) if v & (1 << 31) else v


def encode(inst: MacroInstruction) -> int:
    inst._check()
    word = int(inst.mode) << 124
    word |= inst.length << 110
    word |= inst.width << 96
    word |= inst.x_field << 64
    word |= inst.y_field << 32
    word |= (int(inst.off_z) << 31) | inst.addr_z
    return word


def decode(word: int) -> MacroInstruction:
    if not 0 <= word < (1 << 128):
        raise EncodingError("instruction word must fit in 128 bits")
    x = (word >> 64) & 0xFFFFFFFF
    y = (word >> 32) & 0xFFFFFFFF
    z = word & 0xFFFFFFFF
    return MacroInstruction(
        mode=Opcode((word >> 124) & 0xF),
        length=(word >> 110) & MAX_LEN,
        width=(word >> 96) & MAX_LEN,
        addr_x=x & MAX_ADDR,
        addr_y=y & MAX_ADDR,
        addr_z=z & MAX_ADDR,
        off_x=bool(x >> 31),
        off_y=bool(y >> 31),
        off_z=bool(z >> 31),
    )


def loop(end: int, n: int) -> MacroInstruction:
    """Loop over the instructions following this one up to and including `end`."""
    return MacroInstruction(
        mode=Opcode.LOOP,
        addr_x=end & MAX_ADDR,
        off_x=bool(end >> 31),
        addr_y=n & MAX_ADDR,
        off_y=bool(n >> 31),
    )


def regaddi(reg: int, imm: int) -> MacroInstruction:
    if reg not in _OFFSET_REG_NAMES:
        raise EncodingError(f"regaddi register selector must be 0..2, got {reg}")
    if not -(1 << 31) <= imm < (1 << 31):
        raise EncodingError("regaddi immediate must fit in signed 32 bits")
    v = imm & 0xFFFFFFFF
    return MacroInstruction(
        mode=Opcode.REGADDI, length=reg, addr_x=v & MAX_ADDR, off_x=bool(v >> 31)
    )


def regstore(group: int, addr: int) -> MacroInstruction:
    return MacroInstruction(mode=Opcode.REGSTORE, length=group, addr_z=addr)


def regload(group: int, addr: int) -> MacroInstruction:
    return MacroInstruction(mode=Opcode.REGLOAD, length=group, addr_z=addr)


def halt() -> MacroInstruction:
    return MacroInstruction(mode=Opcode.HALT)


# ---------------------------------------------------------------------------
# Binary program files: little-endian 128-bit words, 16 bytes per instruction.
# ---------------------------------------------------------------------------

def program_to_bytes(instructions) -> bytes:
    out = bytearray()
    for inst in instructions:
        out += encode(inst).to_bytes(INSTRUCTION_BYTES, "little")
    return bytes(out)


def program_from_bytes(blob: bytes) -> list[MacroInstruction]:
    if len(blob) % INSTRUCTION_BYTES:
        raise EncodingError("program file length is not a multiple of 16 bytes")
    return [
        decode(int.from_bytes(blob[i : i + INSTRUCTION_BYTES], "little"))
        for i in range(0, len(blob), INSTRUCTION_BYTES)
    ]


def save_program(path, instructions) -> None:
    with open(path, "wb") as fh:
        fh.write(program_to_bytes(instructions))


def load_program(path) -> list[MacroInstruction]:
    with open(path, "rb") as fh:
        return program_from_bytes(fh.read())


# ---------------------------------------------------------------------------
# Disassembler
# ---------------------------------------------------------------------------

def disassemble(instructions) -> str:
    lines = []
    for inst in instructions:
        op = inst.mode
        name = op.name.lower()
        if op is Opcode.HALT:
            lines.append("halt")
        elif op is Opcode.LOOP:
            lines.append(f"loop end={inst.x_field} n={inst.y_field}")
        elif op is Opcode.REGADDI:
            reg = _OFFSET_REG_NAMES.get(inst.length, str(inst.length))
            lines.append(f"regaddi reg={reg} imm={inst.signed_imm}")
        elif op in (Opcode.REGSTORE, Opcode.REGLOAD):
            offz = " offz" if inst.off_z else ""
            lines.append(f"{name} length={inst.length} z={inst.addr_z:#x}{offz}")
        else:
            parts = [name, f"length={inst.length}"]
            if inst.width:
                parts.append(f"width={inst.width}")
            parts.append(f"x={inst.addr_x:#x}")
            parts.append(f"y={inst.addr_y:#x}")
            parts.append(f"z={inst.addr_z:#x}")
            if inst.off_x:
                parts.append("offx")
            if inst.off_y:
                parts.append("offy")
            if inst.off_z:
                parts.append("offz")
            lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
