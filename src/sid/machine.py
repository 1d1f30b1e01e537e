"""Virtual machine for the macro-instruction ISA.

Each step executes one whole macro instruction (every FSM iteration of it),
so instruction semantics are atomic and independent of the lane count; the
lane count only enters the cycle model. Arithmetic follows the Q16.16
saturating rules from `fixedpoint`, with element order fixed to plain
sequential order so results are bit-identical for every n_track.

`run` decodes a program once per call into (handler, instruction, cycles)
rows indexed by pc; `step_instruction` executes one instruction through the
same handlers and the same pc-advance and loop-back rule. Every handler
bounds-checks all of its operands before it writes anything.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .fixedpoint import FX_MAX, FX_MIN, FX_ONE, LutTable, default_luts
from .isa import (
    CONTROL_OPCODES,
    GROUP_LOOP,
    GROUP_OFFSET,
    MacroInstruction,
    Opcode,
)

IMAGE_MAGIC = b"SIDM"
IMAGE_VERSION = 1
IMAGE_HEADER_BYTES = 12  # magic, version, word count


class MachineTrap(RuntimeError):
    """Raised when execution cannot continue; records pc and reason."""

    def __init__(self, pc: int, reason: str):
        super().__init__(f"trap at pc={pc}: {reason}")
        self.pc = pc
        self.reason = reason


class LoadError(ValueError):
    pass


@dataclass(frozen=True)
class MachineConfig:
    n_track: int = 4
    n_local: int = 64  # scratchpad words (256 bytes)
    data_mem_words: int = 458_752  # 1.75 MB
    inst_mem_slots: int = 8_192  # 128 KB of 16-byte instructions
    pipeline_overhead: int = 4  # fetch/decode + EXE fill per macro instruction
    clock_hz: float = 115e6
    luts: dict = field(default_factory=default_luts)

    def __post_init__(self):
        if self.n_track < 1 or self.n_local < 1 or self.pipeline_overhead < 0:
            raise ValueError("invalid machine configuration")


@dataclass
class RunReport:
    cycles: int
    reads: int
    writes: int
    wall_time_s: float

    def to_keyvalues(self) -> str:
        return (
            f"cycles={self.cycles}\n"
            f"reads={self.reads}\n"
            f"writes={self.writes}\n"
            f"wall_time_s={self.wall_time_s:.9f}\n"
        )


class MachineState:
    """Mutable machine state; one execution context owns it at a time."""

    def __init__(self, config: MachineConfig, program, memory: np.ndarray):
        self.config = config
        self.program = list(program)
        self.memory = memory  # int32, data_mem_words long
        self.scratchpad = np.zeros(config.n_local, dtype=np.int32)
        self.pc = 0
        self.loop_begin = 0
        self.loop_end = 0
        self.loop_n = 0
        self.off_x = 0
        self.off_y = 0
        self.off_z = 0
        self.cycles = 0
        self.reads = 0
        self.writes = 0
        self.halted = False

    # -- helpers -----------------------------------------------------------

    def _operand(self, base: int, enabled: bool, offset: int, count: int) -> int:
        start = base + (offset if enabled else 0)
        if count and not (0 <= start and start + count <= len(self.memory)):
            raise MachineTrap(
                self.pc, f"address range [{start}, {start + count}) out of bounds"
            )
        return start


def load(config: MachineConfig, program, image) -> MachineState:
    program = list(program)
    if len(program) > config.inst_mem_slots:
        raise LoadError(
            f"program has {len(program)} instructions, "
            f"instruction memory holds {config.inst_mem_slots}"
        )
    image = np.asarray(image, dtype=np.int32)
    if len(image) > config.data_mem_words:
        raise LoadError(
            f"image has {len(image)} words, data memory holds {config.data_mem_words}"
        )
    memory = np.zeros(config.data_mem_words, dtype=np.int32)
    memory[: len(image)] = image
    return MachineState(config, program, memory)


def instruction_cycles(inst: MacroInstruction, config: MachineConfig) -> int:
    """Closed-form cycle cost of one macro instruction."""
    op = inst.mode
    if op in CONTROL_OPCODES:
        return 1
    iters = -(-inst.length // config.n_track)
    if op is Opcode.MVMUL:
        return inst.width * iters + config.pipeline_overhead
    return iters + config.pipeline_overhead


# ---------------------------------------------------------------------------
# Instruction handlers: handler(state, inst). Operands are int32 views of
# memory; arithmetic widens to int64 inside the ufunc and saturates in place.
# ---------------------------------------------------------------------------

_HI = np.int64(FX_MAX)
_LO = np.int64(FX_MIN)


def _saturate(values: np.ndarray) -> np.ndarray:
    """Clamp an int64 array to the Q16.16 range, in place."""
    np.minimum(values, _HI, out=values)
    np.maximum(values, _LO, out=values)
    return values


def _fx_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise Q16.16 product: full int64 product, floor shift, saturate."""
    product = np.multiply(x, y, dtype=np.int64)
    product >>= 16
    return _saturate(product)


def _saturating_running_sum(start: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Row-wise sequential saturating accumulation onto `start` of `products`,
    unsaturated Q16.16 products that each saturate before they are added.

    A row whose |start| + sum(|products|) fits the range cannot saturate a
    product or leave the range at any prefix, so its result is the plain sum.
    Rows over that bound saturate their products and get the prefix check;
    only rows whose prefix really leaves the range take the exact
    per-element loop.
    """
    result = start + products.sum(axis=1)
    bound = np.abs(start) + np.abs(products).sum(axis=1)
    risky = np.flatnonzero(bound > FX_MAX)
    if risky.size:
        terms = _saturate(products[risky])
        prefix = start[risky, None] + np.cumsum(terms, axis=1)
        result[risky] = start[risky] + terms.sum(axis=1)
        leaves = ((prefix > FX_MAX) | (prefix < FX_MIN)).any(axis=1)
        for i in np.flatnonzero(leaves):
            acc = int(start[risky[i]])
            for t in terms[i].tolist():
                acc += t
                if acc > FX_MAX:
                    acc = FX_MAX
                elif acc < FX_MIN:
                    acc = FX_MIN
            result[risky[i]] = acc
    return result


def _vector_operands(s: MachineState, inst: MacroInstruction, y_count: int):
    """Bounds-check X (length words), Y (y_count) and Z (length) before any
    write; return the three memory views and count the traffic."""
    n = inst.length
    xs = s._operand(inst.addr_x, inst.off_x, s.off_x, n)
    ys = s._operand(inst.addr_y, inst.off_y, s.off_y, y_count)
    zs = s._operand(inst.addr_z, inst.off_z, s.off_z, n)
    s.reads += n + y_count
    s.writes += n
    mem = s.memory
    return mem[xs : xs + n], mem[ys : ys + y_count], mem[zs : zs + n]


def _vadd(s, inst):
    x, y, z = _vector_operands(s, inst, inst.length)
    z[:] = _saturate(np.add(x, y, dtype=np.int64))


def _vsub(s, inst):
    x, y, z = _vector_operands(s, inst, inst.length)
    z[:] = _saturate(np.subtract(x, y, dtype=np.int64))


def _vmul(s, inst):
    x, y, z = _vector_operands(s, inst, inst.length)
    z[:] = _fx_mul(x, y)


def _vsgt(s, inst):
    x, y, z = _vector_operands(s, inst, inst.length)
    z[:] = np.where(x >= y, FX_ONE, 0)


def _vssgt(s, inst):
    x, y, z = _vector_operands(s, inst, 1)  # one scalar Y word against every X word
    z[:] = np.where(x > y, FX_ONE, 0)


def _lut_mode(s, inst, table: LutTable):
    n = inst.length
    xs = s._operand(inst.addr_x, inst.off_x, s.off_x, n)
    zs = s._operand(inst.addr_z, inst.off_z, s.off_z, n)
    x = s.memory[xs : xs + n]
    k, b = table.lookup_array(x)
    result = _fx_mul(k, x)
    result += b
    s.memory[zs : zs + n] = _saturate(result)
    s.reads += n
    s.writes += n


def _vsig(s, inst):
    _lut_mode(s, inst, s.config.luts["sigmoid"])


def _vtanh(s, inst):
    _lut_mode(s, inst, s.config.luts["tanh"])


def _vexp(s, inst):
    _lut_mode(s, inst, s.config.luts["exp-neg"])


def _vmaxabs(s, inst):
    n = inst.length
    xs = s._operand(inst.addr_x, inst.off_x, s.off_x, n)
    zs = s._operand(inst.addr_z, inst.off_z, s.off_z, 1)
    magnitudes = np.absolute(s.memory[xs : xs + n], dtype=np.int64)
    best = min(int(magnitudes.max(initial=0)), FX_MAX)
    s.scratchpad[0] = best
    s.memory[zs] = best
    s.reads += n
    s.writes += 1


def _vsqnorm(s, inst):
    n = inst.length
    xs = s._operand(inst.addr_x, inst.off_x, s.off_x, n)
    zs = s._operand(inst.addr_z, inst.off_z, s.off_z, 1)
    x = s.memory[xs : xs + n]
    total = min(int(_fx_mul(x, x).sum()), FX_MAX)  # non-negative terms: monotone prefix
    s.scratchpad[0] = total
    s.memory[zs] = total
    s.reads += n
    s.writes += 1


def _mvmul(s, inst):
    rows, cols = inst.width, inst.length
    if rows > s.config.n_local:
        raise MachineTrap(s.pc, f"Mvmul width {rows} exceeds scratchpad {s.config.n_local}")
    xs = s._operand(inst.addr_x, inst.off_x, s.off_x, rows * cols)
    ys = s._operand(inst.addr_y, inst.off_y, s.off_y, cols)
    zs = s._operand(inst.addr_z, inst.off_z, s.off_z, rows)
    if rows == 0:
        return
    mem = s.memory
    w = mem[xs : xs + rows * cols].reshape(rows, cols)
    products = np.multiply(w, mem[ys : ys + cols], dtype=np.int64)
    products >>= 16  # unsaturated; the running sum saturates where it must
    # Partial sums start from the prior Z contents.
    result = _saturating_running_sum(mem[zs : zs + rows].astype(np.int64), products)
    s.scratchpad[:rows] = result
    mem[zs : zs + rows] = result
    s.reads += rows * cols + cols + rows
    s.writes += rows


def _loop(s, inst):
    s.loop_begin = s.pc + 1
    s.loop_end = inst.x_field
    s.loop_n = inst.y_field


def _regaddi(s, inst):
    if inst.length == 0:
        s.off_x += inst.signed_imm
    elif inst.length == 1:
        s.off_y += inst.signed_imm
    elif inst.length == 2:
        s.off_z += inst.signed_imm
    else:
        raise MachineTrap(s.pc, f"regaddi selector {inst.length} undefined")


_REG_GROUPS = {
    GROUP_LOOP: ("loop_begin", "loop_end", "loop_n"),
    GROUP_OFFSET: ("off_x", "off_y", "off_z"),
}


def _reg_group(s, inst) -> tuple[str, str, str]:
    names = _REG_GROUPS.get(inst.length)
    if names is None:
        raise MachineTrap(s.pc, f"register group {inst.length} undefined")
    return names


def _signed32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >> 31 else v


def _regstore(s, inst):
    names = _reg_group(s, inst)
    zs = s._operand(inst.addr_z, inst.off_z, s.off_z, 3)
    s.memory[zs : zs + 3] = [_signed32(getattr(s, name)) for name in names]
    s.writes += 3


def _regload(s, inst):
    names = _reg_group(s, inst)
    zs = s._operand(inst.addr_z, inst.off_z, s.off_z, 3)
    for name, word in zip(names, s.memory[zs : zs + 3].tolist()):
        # Offsets are signed; the loop registers read back unsigned.
        setattr(s, name, _signed32(word) if name.startswith("off") else word & 0xFFFFFFFF)
    s.reads += 3


def _halt(s, inst):
    s.halted = True


_HANDLERS = {
    Opcode.VADD: _vadd,
    Opcode.VSUB: _vsub,
    Opcode.VMUL: _vmul,
    Opcode.VSGT: _vsgt,
    Opcode.VSIG: _vsig,
    Opcode.VTANH: _vtanh,
    Opcode.VEXP: _vexp,
    Opcode.MVMUL: _mvmul,
    Opcode.VSSGT: _vssgt,
    Opcode.VMAXABS: _vmaxabs,
    Opcode.VSQNORM: _vsqnorm,
    Opcode.LOOP: _loop,
    Opcode.REGADDI: _regaddi,
    Opcode.REGSTORE: _regstore,
    Opcode.REGLOAD: _regload,
    Opcode.HALT: _halt,
}


def _execute(state: MachineState, handler, inst: MacroInstruction, cycles: int) -> None:
    """Run one instruction, charge its cycles, then advance or loop back."""
    handler(state, inst)
    state.cycles += cycles
    if state.halted:
        return
    if state.pc == state.loop_end and state.loop_n != 0:
        state.loop_n -= 1
        state.pc = state.loop_begin
    else:
        state.pc += 1


def step_instruction(state: MachineState) -> MachineState:
    """Execute one macro instruction to completion, including loop back-jumps."""
    if state.halted:
        raise MachineTrap(state.pc, "machine is halted")
    if state.pc >= len(state.program):
        state.halted = True  # running off the end is a clean stop
        return state
    inst = state.program[state.pc]
    _execute(state, _HANDLERS[inst.mode], inst, instruction_cycles(inst, state.config))
    return state


def run(state: MachineState, max_cycles: int | None = None) -> RunReport:
    """Run to Halt (or past the last instruction); deterministic."""
    decoded = [
        (_HANDLERS[inst.mode], inst, instruction_cycles(inst, state.config))
        for inst in state.program
    ]
    end = len(decoded)
    while not state.halted:
        if state.pc >= end:
            state.halted = True  # running off the end is a clean stop
            break
        _execute(state, *decoded[state.pc])
        if max_cycles is not None and state.cycles > max_cycles:
            raise MachineTrap(state.pc, f"cycle budget {max_cycles} exceeded")
    return RunReport(
        cycles=state.cycles,
        reads=state.reads,
        writes=state.writes,
        wall_time_s=state.cycles / state.config.clock_hz,
    )


# ---------------------------------------------------------------------------
# Memory image files: "SIDM", version, word count, then little-endian words.
# ---------------------------------------------------------------------------

def image_to_bytes(words) -> bytes:
    arr = np.asarray(words, dtype=np.int32)
    header = IMAGE_MAGIC + struct.pack("<II", IMAGE_VERSION, len(arr))
    return header + arr.astype("<i4").tobytes()


def image_from_bytes(blob: bytes) -> np.ndarray:
    if blob[:4] != IMAGE_MAGIC:
        raise LoadError("bad image magic")
    if len(blob) < IMAGE_HEADER_BYTES:
        raise LoadError(f"image header truncated: {len(blob)} of {IMAGE_HEADER_BYTES} bytes")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != IMAGE_VERSION:
        raise LoadError(f"unsupported image version {version}")
    body = len(blob) - IMAGE_HEADER_BYTES
    if body != 4 * count:
        raise LoadError(
            f"image declares {count} words ({4 * count} bytes) but carries {body} bytes"
        )
    return np.frombuffer(blob, dtype="<i4", offset=IMAGE_HEADER_BYTES).astype(np.int32)


def save_image(path, words) -> None:
    with open(path, "wb") as fh:
        fh.write(image_to_bytes(words))


def load_image(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return image_from_bytes(fh.read())
