"""Virtual machine for the macro-instruction ISA.

Each step executes one whole macro instruction (every FSM iteration of it),
so instruction semantics are atomic and independent of the lane count; the
lane count only enters the cycle model. Arithmetic follows the Q16.16
saturating rules from `fixedpoint`, with element order fixed to plain
sequential order so results are bit-identical for every n_track.

A data instruction runs in two parts: operand resolution (the word ranges,
every one bounds-checked before anything is written, and the memory traffic)
and a kernel over the resolved ranges. Both execution paths run the same
kernels:

* the interpreter (`step_instruction`, and `run`'s fallback loop) resolves
  each instruction from the live registers, then runs its kernel;
* control flow never depends on data (loop counts and `regaddi` steps are
  immediates, `regload` reads back what `regstore` spilled), so
  `resolve_trace` walks it once and lists the memory-writing instructions in
  execution order with resolved operands. `run` caches that trace per
  program and replays only the kernels.

`run` falls back to the interpreter whenever the trace cannot stand in for
it, so a trap is raised at the same pc with the same partial memory.
"""

import copy
import struct
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fixedpoint import FX_MAX, FX_MIN, FX_ONE, default_luts
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
# Operand resolution from a state's registers, shared by the interpreter and
# `resolve_trace`.
# ---------------------------------------------------------------------------

_OFFSETS = ("off_x", "off_y", "off_z")
_LUT_NAMES = {Opcode.VSIG: "sigmoid", Opcode.VTANH: "tanh", Opcode.VEXP: "exp-neg"}


def _check_range(pc: int, start: int, count: int, words: int) -> None:
    if count and not (0 <= start and start + count <= words):
        raise MachineTrap(pc, f"address range [{start}, {start + count}) out of bounds")


_Y_UNREAD = frozenset({*_LUT_NAMES, Opcode.VMAXABS, Opcode.VSQNORM})
_Z_SCALAR = frozenset({Opcode.VMAXABS, Opcode.VSQNORM})
_MVMUL, _VSSGT = Opcode.MVMUL, Opcode.VSSGT


def _footprint(inst: MacroInstruction):
    """X, Y and Z word counts, reads and writes of a data instruction. An
    operand of 0 words is not touched, so it is not bounds-checked."""
    op, n = inst.mode, inst.length
    if op is _MVMUL:
        rows = inst.width
        return (rows * n, n, rows, *((rows * n + n + rows, rows) if rows else (0, 0)))
    # VSSGT compares every X word against one scalar Y word.
    ny = 0 if op in _Y_UNREAD else 1 if op is _VSSGT else n
    nz = 1 if op in _Z_SCALAR else n
    return n, ny, nz, n + ny, nz


def _traffic(inst: MacroInstruction) -> tuple[int, int]:
    """Words one instruction reads and writes."""
    if inst.mode in _KERNELS:
        return _footprint(inst)[3:]
    return {Opcode.REGSTORE: (0, 3), Opcode.REGLOAD: (3, 0)}.get(inst.mode, (0, 0))


def _operands(s, inst: MacroInstruction) -> tuple[slice, slice, slice]:
    """Bounds-check X, Y and Z in that order before anything is written,
    count the traffic and return the three word ranges."""
    nx, ny, nz, reads, writes = _footprint(inst)
    if inst.mode is _MVMUL and inst.width > s.config.n_local:
        raise MachineTrap(s.pc, f"Mvmul width {inst.width} exceeds scratchpad {s.config.n_local}")
    x = inst.addr_x + s.off_x if inst.off_x else inst.addr_x
    y = inst.addr_y + s.off_y if inst.off_y else inst.addr_y
    z = inst.addr_z + s.off_z if inst.off_z else inst.addr_z
    pc, words = s.pc, len(s.memory)
    _check_range(pc, x, nx, words)
    _check_range(pc, y, ny, words)
    _check_range(pc, z, nz, words)
    s.reads += reads
    s.writes += writes
    return slice(x, x + nx), slice(y, y + ny), slice(z, z + nz)


_REG_GROUPS = {
    GROUP_LOOP: ("loop_begin", "loop_end", "loop_n"),
    GROUP_OFFSET: _OFFSETS,
}


def _reg_slot(s, inst: MacroInstruction) -> tuple[tuple[str, str, str], slice]:
    """Register names and three-word memory range of a regstore/regload."""
    names = _REG_GROUPS.get(inst.length)
    if names is None:
        raise MachineTrap(s.pc, f"register group {inst.length} undefined")
    start = inst.addr_z + s.off_z if inst.off_z else inst.addr_z
    _check_range(s.pc, start, 3, len(s.memory))
    return names, slice(start, start + 3)


def _signed32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >> 31 else v


def _register_value(name: str, word: int) -> int:
    """A memory word read back into a register: offsets are signed, the loop
    registers unsigned."""
    return _signed32(word) if name.startswith("off") else word & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Kernels: kernel(state, inst, x, y, z) over resolved word ranges. Operands
# are int32 views of memory; arithmetic widens to int64 inside the ufunc and
# saturates in place. Each reads all of its operands before it writes Z.
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


def _vadd(s, inst, x, y, z):
    mem = s.memory
    total = mem[x].astype(np.int64)
    total += mem[y]
    mem[z] = _saturate(total)


def _vsub(s, inst, x, y, z):
    mem = s.memory
    total = mem[x].astype(np.int64)
    total -= mem[y]
    mem[z] = _saturate(total)


def _vmul(s, inst, x, y, z):
    mem = s.memory
    mem[z] = _fx_mul(mem[x], mem[y])


def _vsgt(s, inst, x, y, z):
    mem = s.memory
    out = mem[z]
    out[...] = mem[x] >= mem[y]
    out *= FX_ONE


def _vssgt(s, inst, x, y, z):
    mem = s.memory
    out = mem[z]
    out[...] = mem[x] > mem[y.start]  # one scalar Y word against every X word
    out *= FX_ONE


def _vlut(s, inst, x, y, z):
    mem = s.memory
    xv = mem[x]
    k, b = s.config.luts[_LUT_NAMES[inst.mode]].lookup_array(xv)
    result = _fx_mul(k, xv)
    result += b
    mem[z] = _saturate(result)


def _vmaxabs(s, inst, x, y, z):
    best = min(int(np.absolute(s.memory[x], dtype=np.int64).max(initial=0)), FX_MAX)
    s.scratchpad[0] = best
    s.memory[z] = best


def _vsqnorm(s, inst, x, y, z):
    xv = s.memory[x]
    total = min(int(_fx_mul(xv, xv).sum()), FX_MAX)  # non-negative terms: monotone prefix
    s.scratchpad[0] = total
    s.memory[z] = total


def _mvmul(s, inst, x, y, z):
    rows, cols = inst.width, inst.length
    if rows == 0:
        return
    mem = s.memory
    products = np.multiply(mem[x].reshape(rows, cols), mem[y], dtype=np.int64)
    products >>= 16  # unsaturated; the running sum saturates where it must
    # Partial sums start from the prior Z contents.
    result = _saturating_running_sum(mem[z].astype(np.int64), products)
    s.scratchpad[:rows] = result
    mem[z] = result


def _put_registers(s, inst, x, y, z):
    """Memory effect of regstore: `y` holds one (register, delta) pair per
    word, stored as delta plus that register of `s` (None: plus 0)."""
    s.memory[z] = [_signed32(delta + (getattr(s, reg) if reg else 0)) for reg, delta in y]


_KERNELS = {
    Opcode.VADD: _vadd,
    Opcode.VSUB: _vsub,
    Opcode.VMUL: _vmul,
    Opcode.VSGT: _vsgt,
    Opcode.VSIG: _vlut,
    Opcode.VTANH: _vlut,
    Opcode.VEXP: _vlut,
    Opcode.MVMUL: _mvmul,
    Opcode.VSSGT: _vssgt,
    Opcode.VMAXABS: _vmaxabs,
    Opcode.VSQNORM: _vsqnorm,
}


# ---------------------------------------------------------------------------
# Interpreter handlers: handler(state, inst) on the live registers.
# ---------------------------------------------------------------------------

def _data(s, inst):
    _KERNELS[inst.mode](s, inst, *_operands(s, inst))


def _loop(s, inst):
    s.loop_begin = s.pc + 1
    s.loop_end = inst.x_field
    s.loop_n = inst.y_field


def _regaddi(s, inst):
    if not 0 <= inst.length < len(_OFFSETS):
        raise MachineTrap(s.pc, f"regaddi selector {inst.length} undefined")
    name = _OFFSETS[inst.length]
    setattr(s, name, getattr(s, name) + inst.signed_imm)


def _regstore(s, inst):
    names, z = _reg_slot(s, inst)
    _put_registers(s, inst, None, [(name, 0) for name in names], z)
    s.writes += 3


def _regload(s, inst):
    names, z = _reg_slot(s, inst)
    for name, word in zip(names, s.memory[z].tolist()):
        setattr(s, name, _register_value(name, word))
    s.reads += 3


def _halt(s, inst):
    s.halted = True


_HANDLERS = {
    **{op: _data for op in _KERNELS},
    Opcode.LOOP: _loop,
    Opcode.REGADDI: _regaddi,
    Opcode.REGSTORE: _regstore,
    Opcode.REGLOAD: _regload,
    Opcode.HALT: _halt,
}


def _advance(s) -> None:
    """Next pc after an instruction: stay when halted, else loop back or step."""
    if s.halted:
        return
    if s.pc == s.loop_end and s.loop_n != 0:
        s.loop_n -= 1
        s.pc = s.loop_begin
    else:
        s.pc += 1


def _execute(state: MachineState, handler, inst: MacroInstruction, cycles: int) -> None:
    """Run one instruction, charge its cycles, then advance or loop back."""
    handler(state, inst)
    state.cycles += cycles
    _advance(state)


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


def _interpret(state: MachineState, max_cycles: int | None) -> None:
    """Run to Halt one instruction at a time from the live registers."""
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


# ---------------------------------------------------------------------------
# Static traces
# ---------------------------------------------------------------------------

_TRACE_CAP = 1 << 16  # dynamic instructions one trace may hold


class TraceError(ValueError):
    """The program has no static trace from this state; `reason` says why."""

    def __init__(self, reason: str):
        super().__init__(f"no static trace: {reason}")
        self.reason = reason


class TraceEntry(NamedTuple):
    """One memory-writing instruction of a trace, operands resolved."""

    kernel: object
    inst: MacroInstruction
    x: slice
    y: object  # a word range; for regstore, the (register, delta) pairs it stores
    z: slice
    pc: int


@dataclass
class Trace:
    """What a run from one set of entry registers does.

    `entries` are the data instructions and regstores in execution order;
    loop, regaddi, regload and halt leave only the final `registers` and
    `offsets` ((base, delta) each: delta plus the start value of offset
    register `base`, or plus 0). Word ranges are those of the start offsets
    `starts`. `relocs` lists the entries with ranges relative to a start
    offset, as (index, x base, y base, z base), and `extents` bounds those
    ranges per base, so the trace replays from other start offsets unless it
    is `pinned`: a regload result there could depend on them. `words` are
    the words regload reads before the trace writes them, with their
    run-start values.
    """

    starts: dict
    entries: list = field(default_factory=list)
    cycles: int = 0
    reads: int = 0
    writes: int = 0
    profile: dict = field(default_factory=dict)  # opcode -> [count, cycles, reads, writes]
    registers: tuple = ()  # final pc, loop_begin, loop_end, loop_n
    offsets: tuple = ()
    words: dict = field(default_factory=dict)
    pinned: bool = False
    extents: dict = field(default_factory=dict)
    relocs: list = field(default_factory=list)
    error: str | None = None  # why a cached walk found no trace

    def fits(self, state: MachineState) -> bool:
        """Whether `state` would walk this trace."""
        if self.pinned and any(getattr(state, n) != v for n, v in self.starts.items()):
            return False
        memory = state.memory
        return all(memory[w] == v for w, v in self.words.items())

    def replays(self, state: MachineState, max_cycles: int | None) -> bool:
        """Whether replay stands in for the interpreter on `state`: no trap
        on the way, no moved range out of bounds, within the budget."""
        if self.error is not None:
            return False
        if max_cycles is not None and state.cycles + self.cycles > max_cycles:
            return False
        words = len(state.memory)
        for base, (lo, hi) in self.extents.items():
            shift = getattr(state, base) - self.starts[base]
            if lo + shift < 0 or hi + shift > words:
                return False
        return True

    def bound_entries(self, state: MachineState) -> list:
        """`entries` with the relative ranges moved to `state`'s offsets."""
        shift = {base: getattr(state, base) - start for base, start in self.starts.items()}
        if not self.relocs or not any(shift.values()):
            return self.entries
        entries = list(self.entries)
        for i, *bases in self.relocs:
            entry = entries[i]
            entries[i] = entry._replace(**{
                f: slice(getattr(entry, f).start + shift[b], getattr(entry, f).stop + shift[b])
                for f, b in zip("xyz", bases) if b
            })
        return entries


def resolve_trace(state: MachineState) -> Trace:
    """The trace of a run from `state`'s registers, walked once and cached
    for `run`; shared, so callers must not modify it.

    Nothing in `state` changes. Raises TraceError where the walk would trap
    (an operand out of bounds, an Mvmul wider than the scratchpad, an
    undefined register selector), past 65,536 dynamic instructions, and
    at a regload of a word a data instruction wrote since its regstore (or,
    with no regstore before, since the run started): its value is data.
    """
    trace = _cached_trace(state)
    if trace.error is not None:
        raise TraceError(trace.error)
    return trace


def _walk(state: MachineState, trace: Trace, budget: int | None = None) -> bool:
    """Fill `trace` from `state`; False if it stopped once past `budget` cycles."""
    # A shallow copy: the walk moves its registers through the interpreter's
    # own resolution and control handlers, and only reads memory.
    w = copy.copy(state)
    w.cycles = 0
    base = {name: name for name in _OFFSETS}  # start register each offset is relative to
    starts = {None: 0, **trace.starts}
    costs = [instruction_cycles(inst, state.config) for inst in state.program]
    visits = [0] * len(state.program)
    stores = {}  # word -> (time, (base, delta)) of the last regstore to it
    written = []  # (start, stop, time) of every data write, in time order
    relative_write = False  # through an offset still relative to its start
    time = 0
    try:
        while not w.halted:
            if w.pc >= len(w.program):
                w.halted = True  # running off the end is a clean stop
                break
            if time == _TRACE_CAP:
                raise TraceError(f"more than {_TRACE_CAP} dynamic instructions")
            if budget is not None and w.cycles > budget:
                return False
            pc, inst = w.pc, w.program[w.pc]
            op = inst.mode
            if op in _KERNELS:
                ranges = _operands(w, inst)
                trace.entries.append(TraceEntry(_KERNELS[op], inst, *ranges, pc))
                if inst.off_x or inst.off_y or inst.off_z:
                    bases = [base.get(n) if on else None
                             for n, on in zip(_OFFSETS, (inst.off_x, inst.off_y, inst.off_z))]
                    relative_write |= _relocatable(trace, ranges, bases)
                z = ranges[2]
                if z.stop > z.start:
                    written.append((z.start, z.stop, time))
            elif op is Opcode.REGSTORE:
                names, z = _reg_slot(w, inst)
                values = tuple((base.get(n), getattr(w, n) - starts[base.get(n)]) for n in names)
                trace.entries.append(TraceEntry(_put_registers, inst, None, values, z, pc))
                if inst.off_z:
                    relative_write |= _relocatable(trace, [None, None, z], [None, None, base.get("off_z")])
                for word, value in zip(range(z.start, z.stop), values):
                    stores[word] = (time, value)
            elif op is Opcode.REGLOAD:
                names, z = _reg_slot(w, inst)
                # Which words this reads back could depend on the start offsets.
                trace.pinned |= relative_write or bool(inst.off_z and base.get("off_z"))
                for name, word in zip(names, range(z.start, z.stop)):
                    since, (value_base, delta) = stores.get(word, (-1, (None, None)))
                    for start, stop, t in reversed(written):
                        if t < since:
                            break
                        if start <= word < stop:
                            raise TraceError(f"regload at pc={pc} reads word {word} after a data write to it")
                    if delta is None:
                        delta = trace.words[word] = int(w.memory[word])
                    trace.pinned |= value_base is not None
                    setattr(w, name, _register_value(name, delta + starts[value_base]))
                    base.pop(name, None)
            else:
                _HANDLERS[op](w, inst)
            visits[pc] += 1
            w.cycles += costs[pc]
            _advance(w)
            time += 1
    except MachineTrap as trap:
        raise TraceError(str(trap)) from None
    for pc, count in enumerate(visits):
        if count:
            inst = state.program[pc]
            row = trace.profile.setdefault(inst.mode, [0, 0, 0, 0])
            for i, value in enumerate((1, costs[pc], *_traffic(inst))):
                row[i] += count * value
    trace.cycles, trace.reads, trace.writes = (
        sum(row[i] for row in trace.profile.values()) for i in (1, 2, 3)
    )
    trace.registers = (w.pc, w.loop_begin, w.loop_end, w.loop_n)
    trace.offsets = tuple(
        (base.get(n), getattr(w, n) - starts[base.get(n)]) for n in _OFFSETS
    )
    return True


def _relocatable(trace: Trace, ranges, bases) -> bool:
    """Note the entry just added if an operand adds an offset register still
    relative to its start (`bases`); returns whether it writes through one."""
    if any(bases):
        trace.relocs.append((len(trace.entries) - 1, *bases))
    for r, base in zip(ranges, bases):
        if base and r.stop > r.start:
            lo, hi = trace.extents.get(base, (r.start, r.stop))
            trace.extents[base] = (min(lo, r.start), max(hi, r.stop))
    return bool(bases[2]) and ranges[2].stop > ranges[2].start


# Traces `run` has resolved: (program, memory size, cycle and scratchpad
# config, entry pc and loop registers) -> the few traces seen under that key,
# newest first. Both levels are bounded. Shared by every state, so a fresh
# state of a compiled program finds its trace; keyed by content, so no result
# depends on what is cached.
_TRACES: OrderedDict = OrderedDict()
_TRACE_KEYS = 32
_TRACES_PER_KEY = 4


def _cached_trace(state: MachineState, max_cycles: int | None = None) -> Trace | None:
    """The trace `state` walks, resolved once per program and entry state; a
    program with no static trace is cached as a trace with an `error`. None
    when the walk passes the cycle budget: the interpreter traps on it."""
    config = state.config
    key = (
        tuple(state.program), len(state.memory), config.n_track, config.n_local,
        config.pipeline_overhead, state.pc, state.loop_begin, state.loop_end, state.loop_n,
    )
    traces = _TRACES.get(key)
    if traces is None:
        traces = _TRACES[key] = []
        if len(_TRACES) > _TRACE_KEYS:
            _TRACES.popitem(last=False)
    else:
        _TRACES.move_to_end(key)
    for trace in traces:
        if trace.fits(state):
            return trace
    trace = Trace(starts={name: getattr(state, name) for name in _OFFSETS})
    try:
        if not _walk(state, trace, None if max_cycles is None else max_cycles - state.cycles):
            return None
    except TraceError as exc:
        trace.error, trace.pinned = exc.reason, True  # holds for these starts and words only
    traces.insert(0, trace)
    del traces[_TRACES_PER_KEY:]
    return trace


def _replay(state: MachineState, trace: Trace) -> None:
    for kernel, inst, x, y, z, _ in trace.bound_entries(state):
        kernel(state, inst, x, y, z)
    offsets = [delta + (getattr(state, base) if base else 0) for base, delta in trace.offsets]
    state.off_x, state.off_y, state.off_z = offsets
    state.pc, state.loop_begin, state.loop_end, state.loop_n = trace.registers
    state.halted = True
    state.cycles += trace.cycles
    state.reads += trace.reads
    state.writes += trace.writes


def run(state: MachineState, max_cycles: int | None = None) -> RunReport:
    """Run to Halt (or past the last instruction); deterministic.

    Replays the program's cached trace when it stands in for the
    interpreter, which runs otherwise and raises any trap itself.
    """
    if not state.halted:
        trace = _cached_trace(state, max_cycles)
        if trace is not None and trace.replays(state, max_cycles):
            _replay(state, trace)
        else:
            _interpret(state, max_cycles)
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
