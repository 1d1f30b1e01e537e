"""Virtual machine for the macro-instruction ISA.

Each step executes one whole macro instruction (every FSM iteration of it),
so instruction semantics are atomic and independent of the lane count; the
lane count only enters the cycle model. Arithmetic follows the Q16.16
saturating rules from `fixedpoint`, with element order fixed to plain
sequential order so results are bit-identical for every n_track.

A data instruction runs in two parts: operand resolution (the word ranges,
every one bounds-checked before anything is written, and the memory traffic)
and a kernel over the resolved ranges. One step (`_step`) fetches the
instruction at pc, resolves it from the live registers, runs it, charges its
cycles and moves pc on; `step_instruction` and `run`'s interpreter take it.
Every data opcode but Mvmul is a map: its arithmetic is one function of X and Y
words (`_MAPS`), which one kernel body applies to a block (VMAXABS and
VSQNORM also set scratchpad word 0), and the loop batching below to a stack.

Control flow depends on data only through what `regload` reads: loop counts
and `regaddi` steps are immediates. So the first `run` of a program from
given registers (pc, the loop registers and the three offsets) records, as
it interprets, each step a replay must redo: the kernels over their resolved
ranges, each regstore as the words it wrote, and a guard per regload holding
the words it read. Later runs from the same registers replay the steps;
where a guard reads other words, replay restores the registers and counters
just before that regload and the interpreter goes on from there, so a trap
is raised at the same pc with the same partial memory. Every range of a
trace is fixed, so a program whose start offsets differ from run to run
records once per distinct start: `codegen.StepRunner`'s error pointer
(off_z) moves one word per step, so a window of a step program records one
trace per error slot, and every later window over it replays them. The
cache holds 1,024 traces, least recently used dropped first: windows of more
than about five 200-reading step programs interleaved step by step
re-record every step, so a driver of several should step one at a time.

As it records, the trace joins into one call consecutive blocks of one
kernel that continue each other's ranges and read no Z of the blocks before:
Mvmul row blocks over one Y range (a tall mat-vec, such as the four gate
mat-vecs of an LSTM step), and adjacent VADD, VSUB, VMUL, VSGT or same-table
LUT blocks (the step's bias-ins, its gate sigmoids). A LUT kernel is one
`LutTable.eval_array` call, which clamps only if its table's extrema let
k*x + b leave the range. When operand extrema show that no Mvmul row can
saturate, the kernel takes the plain sum; otherwise only rows whose prefix
sums leave the range run the per-element loop. The plain sum is in int32
when every product fits too: there a large mat-vec's X is viewed as long
rows of several mat-vec rows, and one multiply by Y tiled, one shift and one
segmented reduce (`np.add.reduceat`) sum every row.

`_record` then batches the loops of the run it caches. A loop whose
iterations replay the same runs, each range moved by a fixed stride
per iteration, and whose body is a chain of maps (VSUB, VADD, VMUL, VSGT,
VSSGT, the LUTs, and the row-wise VSQNORM and VMAXABS) ending in one VADD
accumulate Z = Z + T over a fixed Z, replays as one call over all K
iterations: each map runs its opcode's arithmetic, the function its
per-block kernel runs, on a (K, n) stack, and the accumulate adds the K
rows of T through `_saturating_running_sum`, exact sequential saturation.
Every intermediate Z word and the scratchpad end as the last iteration
leaves them. A loop stays unbatched, replayed run by run, unless that is
exact: its body holds no Mvmul, guard or regstore; its Z ranges
are fixed, nonempty and disjoint; and every read is loop-invariant, strided
and clear of every Z, or exactly the Z an earlier run of the same iteration
wrote, so the accumulator is read only by its accumulate. The KS inner loop
and the kernel-machine support-vector loop batch. Where T is a VSGT or VSSGT
stack, each term is 0 or FX_ONE, so K * FX_ONE bounds the terms' sum.

Last, `Trace.fold` folds in what the recording proves for every state that
replays the trace. A VSUB whose X is its Y fills Z with 0, since
saturate(a - a) is 0 (the KS histogram reset); and a regload guard is dropped
where the words it read are those a regstore wrote to its slot with no Z
since meeting it, so it cannot fail (the KS loop-register spill). The
20-reference KS+vote trace replays 104 runs.

A state may hold read-only word ranges, fixed at `load` (a compiled
program's weights and constants). A data Z range or a regstore slot that
meets one traps, naming the range, before anything is written; the ranges
are part of a trace's key, so no replayed Z meets one. `state.memory` is
a read-only view, and the kernels and `codegen.write_symbol` write through
its base, `state.words`. Since no instruction can change a read-only
range, each state caches max|X| of the Mvmul X ranges inside one, so a gate
matrix is scanned once per state.

A state's words are its image, zero-extended to data memory: `load` copies
the image only, and the first access past it, once its checks pass, grows the
state to the whole data memory, zeros past the image. Every bounds check and
trap is against `MachineConfig.data_mem_words`, whatever the state holds. A
trace records its reach, its largest range stop, and replay grows the state
first where that lies past the words. A compiled program's image covers every
symbol, so its states never grow.

The clock, pipeline fill, instruction memory and LUT ROM are fixed by the
design, so they are constants, not `MachineConfig` fields.
"""

import functools
import itertools
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import ClassVar

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

INST_MEM_SLOTS = 8_192  # 128 KB of 16-byte instructions
PIPELINE_OVERHEAD = 4  # fetch/decode + EXE fill per macro instruction


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
    clock_hz: ClassVar[float] = 115e6
    n_track: int = 4
    n_local: int = 64  # scratchpad words (256 bytes)
    data_mem_words: int = 458_752  # 1.75 MB

    def __post_init__(self):
        for name in ("n_track", "n_local"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")


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
    """Mutable machine state; one execution context owns it at a time.

    `words` is the int32 data memory's first words, zero-extended to data
    memory: the image's words until a run reaches past them, then, after
    `grow`, the whole data memory. `memory` is a read-only view of it. A host
    that writes past the words through `words` must `grow` first. `readonly`
    holds sorted, disjoint (start, stop) word ranges no write may meet, and
    `x_peaks` max|X| of each Mvmul X range inside one, by (start, stop). A
    host that writes a read-only range through `words` must drop `x_peaks`."""

    def __init__(self, config: MachineConfig, program, memory: np.ndarray, readonly=()):
        self.config = config
        self.program = list(program)
        self.program_hash = hash(tuple(self.program))  # a trace key; checked on use
        self._hold(memory)
        self.readonly = tuple(readonly)
        self.x_peaks = {}
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

    def _hold(self, words: np.ndarray) -> None:
        self.words = words
        self.memory = words.view()
        self.memory.flags.writeable = False

    def grow(self) -> None:
        """Hold the whole data memory: the words so far, then zeros."""
        words = np.zeros(self.config.data_mem_words, dtype=np.int32)
        words[: len(self.words)] = self.words
        self._hold(words)


def _merged(ranges) -> tuple:
    """Nonempty (start, stop) ranges sorted, adjacent or overlapping ones merged."""
    merged = []
    for start, stop in sorted(r for r in ranges if r[1] > r[0]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return tuple(merged)


def load(config: MachineConfig, program, image, readonly=()) -> MachineState:
    """A state running `program` over `image`, zero-extended to data memory:
    its words are a copy of the image, grown once a run reaches past them.
    `readonly` lists (start, stop) word ranges no write may meet."""
    program = list(program)
    if len(program) > INST_MEM_SLOTS:
        raise LoadError(
            f"program has {len(program)} instructions, instruction memory holds {INST_MEM_SLOTS}"
        )
    image = np.array(image, dtype=np.int32)
    if len(image) > config.data_mem_words:
        raise LoadError(
            f"image has {len(image)} words, data memory holds {config.data_mem_words}"
        )
    return MachineState(config, program, image, _merged(readonly))


def instruction_cycles(inst: MacroInstruction, config: MachineConfig) -> int:
    """Closed-form cycle cost of one macro instruction."""
    op = inst.mode
    if op in CONTROL_OPCODES:
        return 1
    iters = -(-inst.length // config.n_track)
    if op is Opcode.MVMUL:
        return inst.width * iters + PIPELINE_OVERHEAD
    return iters + PIPELINE_OVERHEAD


# ---------------------------------------------------------------------------
# Operand resolution from a state's registers.
# ---------------------------------------------------------------------------

_OFFSETS = ("off_x", "off_y", "off_z")
_LUT_NAMES = {Opcode.VSIG: "sigmoid", Opcode.VTANH: "tanh", Opcode.VEXP: "exp-neg"}
_LUTS = default_luts()  # the LUT ROM, built once at import


def _check_range(pc: int, start: int, count: int, words: int) -> None:
    if count and not (0 <= start and start + count <= words):
        raise MachineTrap(pc, f"address range [{start}, {start + count}) out of bounds")


def _cover(s, *ranges: slice) -> None:
    """Grow `s` if a nonempty word range, bounds-checked, reaches past its words."""
    if any(r.stop > len(s.words) and r.stop > r.start for r in ranges):
        s.grow()


def _check_writable(s, z: slice) -> None:
    """Trap if the nonempty word range `z` meets a read-only range."""
    if z.start < z.stop:
        for start, stop in s.readonly:
            if z.start < stop and start < z.stop:
                raise MachineTrap(
                    s.pc, f"write to [{z.start}, {z.stop}) meets read-only range [{start}, {stop})")


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


def _operands(s, inst: MacroInstruction) -> tuple[slice, slice, slice]:
    """Bounds-check X, Y and Z in that order, then Z against the read-only
    ranges, before anything is written; grow the state if they reach past
    its words, count the traffic and return the three word ranges."""
    nx, ny, nz, reads, writes = _footprint(inst)
    if inst.mode is _MVMUL and inst.width > s.config.n_local:
        raise MachineTrap(s.pc, f"Mvmul width {inst.width} exceeds scratchpad {s.config.n_local}")
    x = inst.addr_x + s.off_x if inst.off_x else inst.addr_x
    y = inst.addr_y + s.off_y if inst.off_y else inst.addr_y
    z = inst.addr_z + s.off_z if inst.off_z else inst.addr_z
    pc, words = s.pc, s.config.data_mem_words
    _check_range(pc, x, nx, words)
    _check_range(pc, y, ny, words)
    _check_range(pc, z, nz, words)
    xs, ys, zs = slice(x, x + nx), slice(y, y + ny), slice(z, z + nz)
    if s.readonly:
        _check_writable(s, zs)
    _cover(s, xs, ys, zs)
    s.reads += reads
    s.writes += writes
    return xs, ys, zs


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
    _check_range(s.pc, start, 3, s.config.data_mem_words)
    return names, slice(start, start + 3)


def _signed32(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >> 31 else v


def _register_value(name: str, word: int) -> int:
    """A memory word read back into a register: offsets are signed, the loop
    registers unsigned."""
    return _signed32(word) if name.startswith("off") else word & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Kernels: kernel(state, inst, x, y, z) over resolved word ranges. A map
# kernel runs its opcode's `_MAPS` function on one block, and `_batched` runs
# the same functions on a loop's iterations stacked. Operands are int32 views
# of memory; arithmetic widens to int64 inside the ufunc and saturates, except
# where extrema bound every result within the range (Mvmul's int32 path, a
# LUT's clamp-free path). Each reads all of its operands before it writes Z,
# through `state.words`, so a trace may join blocks that read no Z written
# before them. Extrema of writeable words are rescanned on every call, since
# the host may write them between runs; max|X| of an Mvmul X range inside a
# read-only range is cached in the state.
# ---------------------------------------------------------------------------

_HI = np.int64(FX_MAX)
_LO = np.int64(FX_MIN)
_MAX, _MIN = np.maximum.reduce, np.minimum.reduce  # cheaper per call than .max, .min


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


def _max_abs(words: np.ndarray) -> int:
    """max |w| of int32 words, 0 if there are none, with no int64 temporary."""
    return max(int(_MAX(words, axis=None, initial=0)), -int(_MIN(words, axis=None, initial=0)))


def _saturating_running_sum(start: np.ndarray, products: np.ndarray, cap: int) -> np.ndarray:
    """Row-wise sequential saturating accumulation onto `start` of `products`,
    unsaturated Q16.16 products that each saturate before they are added.

    `cap`, from operand extrema, bounds every row's |start| + sum(|products|):
    if it fits the range, every result is the plain sum. Otherwise the
    products are saturated and a row whose prefix sums all stay in range
    takes the plain sum of those; only rows whose prefix leaves the range
    take the exact per-element loop.
    """
    if cap <= FX_MAX:
        return start + products.sum(axis=1)
    terms = np.clip(products, _LO, _HI)
    prefix = start[:, None] + np.cumsum(terms, axis=1)
    result = start + terms.sum(axis=1)
    for i in np.flatnonzero(((prefix > FX_MAX) | (prefix < FX_MIN)).any(axis=1)):
        acc = int(start[i])
        for t in terms[i].tolist():
            acc = min(max(acc + t, FX_MIN), FX_MAX)
        result[i] = acc
    return result


def _vsum(op):
    """VADD (`op` is `np.add`) or VSUB (`np.subtract`): X op Y in int64, saturated."""
    return lambda x, y: _saturate(op(x, y, dtype=np.int64))


def _lut(table):
    return lambda x, y: table.eval_array(x)


# Map arithmetic, one function per opcode: the Z words that X and Y words give,
# along the last axis, so a kernel runs it on one block and a batched loop on a
# (K, n) stack of all K iterations. VSSGT compares every X word with Y's one
# word; VMAXABS and VSQNORM reduce X to one word, capped at FX_MAX.
_MAPS = {
    Opcode.VADD: _vsum(np.add),
    Opcode.VSUB: _vsum(np.subtract),
    Opcode.VMUL: _fx_mul,
    Opcode.VSGT: lambda x, y: np.multiply(x >= y, FX_ONE, dtype=np.int32),
    **{op: _lut(_LUTS[name]) for op, name in _LUT_NAMES.items()},
    Opcode.VSSGT: lambda x, y: np.multiply(x > y[..., :1], FX_ONE, dtype=np.int32),
    Opcode.VMAXABS: lambda x, y: np.minimum(
        np.absolute(x, dtype=np.int64).max(-1, keepdims=True, initial=0), FX_MAX),
    # Non-negative terms: the capped sum is the saturating running sum.
    Opcode.VSQNORM: lambda x, y: np.minimum(_fx_mul(x, x).sum(-1, keepdims=True), FX_MAX),
}


def _map(values):
    """The kernel of a map opcode: Z = values(X, Y)."""
    def _vmap(s, inst, x, y, z):
        mem = s.words
        mem[z] = values(mem[x], mem[y])
    return _vmap


def _scalar(values):
    """The kernel of VMAXABS or VSQNORM: their one word into Z and scratchpad word 0."""
    def _vscalar(s, inst, x, y, z):
        s.scratchpad[:1] = s.words[z] = values(s.words[x], None)
    return _vscalar


# Below `_FOLD_MIN` words, tiling Y and the segmented reduce cost more than
# broadcasting Y over short rows saves.
_LONG_ROW, _FOLD_MIN = 8_192, 32_768


@functools.cache
def _fold(rows: int, cols: int) -> tuple:
    """(fold, each row's start in a long row): the largest divisor of `rows`
    whose rows fit one long row of `_LONG_ROW` words, or 1 below `_FOLD_MIN`
    words (so with no columns, which np.add.reduceat cannot sum to 0)."""
    fold = 1
    if rows * cols >= _FOLD_MIN:
        fold = max((d for d in range(2, rows + 1) if rows % d == 0 and d * cols <= _LONG_ROW),
                   default=1)
    return fold, np.arange(fold) * cols


def _mvmul(s, inst, x, y, z):
    """Z += X @ Y, one row per Z word. `inst` is one Mvmul or, on replay, a
    tuple of the Mvmul blocks fused into these ranges; the scratchpad ends
    as running the blocks one by one leaves it. The int32 path views X, which
    is contiguous, as long rows of `fold` mat-vec rows (`_fold`), multiplies
    them by Y tiled `fold` times and sums each row's segment."""
    rows, cols = z.stop - z.start, y.stop - y.start
    if rows == 0:
        return
    mem = s.words
    xv, yv, zv = mem[x], mem[y], mem[z]
    x_peak = s.x_peaks.get((x.start, x.stop))
    if x_peak is None:
        x_peak = _max_abs(xv)
        if any(start <= x.start and x.stop <= stop for start, stop in s.readonly):
            s.x_peaks[x.start, x.stop] = x_peak  # no instruction can change these words
    # |a * b| <= peak, so |floor(a * b / 2**16)| <= (peak >> 16) + 1 for every
    # product, and cap bounds every row's |Z| plus its partial sums.
    peak = x_peak * _max_abs(yv)
    cap = _max_abs(zv) + cols * ((peak >> 16) + 1)
    if peak <= FX_MAX and cap <= FX_MAX:
        # Every product, partial sum and total fits int32, and a sum that
        # cannot overflow is the same in any order: no widening is needed.
        fold, starts = _fold(rows, cols)
        products = xv.reshape(rows // fold, fold * cols) * (np.tile(yv, fold) if fold > 1 else yv)
        products >>= 16  # arithmetic shift: floors, as on the int64 path
        result = (products.sum(axis=1, dtype=np.int32) if fold == 1 else
                  np.add.reduceat(products, starts, axis=1, dtype=np.int32).reshape(rows))
        result += zv
    else:
        products = np.multiply(xv.reshape(rows, cols), yv, dtype=np.int64)
        products >>= 16  # unsaturated; the running sum saturates where it must
        # Partial sums start from the prior Z contents.
        result = _saturating_running_sum(zv.astype(np.int64), products, cap)
    mem[z] = result
    # Each block wider than all after it leaves its rows past theirs.
    done, stop = 0, rows
    for block in reversed(inst) if type(inst) is tuple else (inst,):
        if block.width > done:
            s.scratchpad[done : block.width] = result[stop - block.width + done : stop]
            done = block.width
            if done == len(s.scratchpad):
                break
        stop -= block.width


def _batched(s, body, x, y, z):
    """K iterations of a loop body at once, as `_batch` planned them: `body`
    is (K, maps, accumulate). Each map (values, sources, Z, scalar) runs on
    its X and Y words stacked over the iterations, a source being an earlier
    map's stack (its index), a fixed range (a slice) or one range per
    iteration (a (K, n) array of word indices). The accumulate (source, Z)
    adds its stack onto Z through the exact running sum, bounded by the
    extrema of its terms, or by FX_ONE a term where the source is a compare
    map's stack. Every Z word and the scratchpad end as the last iteration
    leaves them."""
    count, maps, (t, acc) = body
    mem = s.words
    stacks = []

    def stack(source):
        if type(source) is int:
            return stacks[source]
        return mem[source][None] if type(source) is slice else mem[source]

    for values, sources, _, _ in maps:
        stacks.append(values(*map(stack, sources)))
    start, terms = mem[acc].astype(np.int64), stack(t)
    # Each term of a compare's stack is 0 or FX_ONE: no extrema scan.
    peak = FX_ONE if type(t) is int and maps[t][0] in _COMPARES else _max_abs(terms)
    if len(terms) < count:  # the same T every iteration
        terms = np.broadcast_to(terms, (count, len(start)))
    for (_, _, z, scalar), out in zip(maps, stacks):
        mem[z] = out[-1]
        if scalar:
            s.scratchpad[:1] = out[-1]
    mem[acc] = _saturating_running_sum(start, terms.T, _max_abs(start) + count * peak)


def _put_words(s, inst, x, y, z):
    """A run whose Z words the recording proves, a regstore's or a zero-fill
    (`Trace.fold`): Z = `y`."""
    s.words[z] = y


_KERNELS = {op: (_scalar if op in _Z_SCALAR else _map)(values) for op, values in _MAPS.items()}
_KERNELS[Opcode.MVMUL] = _mvmul
_MAP_VALUES = {_KERNELS[op]: values for op, values in _MAPS.items()}
_COMPARES = frozenset({_MAPS[Opcode.VSGT], _MAPS[_VSSGT]})
_SCALAR_KERNELS = frozenset(_KERNELS[op] for op in _Z_SCALAR)
# Kernels whose consecutive blocks a trace may join: not VSSGT, whose Y is one
# scalar word, nor VMAXABS or VSQNORM, which write one Z word and the scratchpad.
_JOINABLE = frozenset(k for op, k in _KERNELS.items() if op not in {_VSSGT, *_Z_SCALAR})


# ---------------------------------------------------------------------------
# Interpreter handlers: handler(state, inst) on the live registers. Each
# returns the step a replay must redo, (kernel, inst, x, y, z), or None.
# ---------------------------------------------------------------------------

def _data(s, inst):
    kernel = _KERNELS[inst.mode]
    x, y, z = _operands(s, inst)
    kernel(s, inst, x, y, z)
    return kernel, inst, x, y, z


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
    _check_writable(s, z)
    _cover(s, z)
    words = np.array([_signed32(getattr(s, name)) for name in names], dtype=np.int32)
    _put_words(s, inst, None, words, z)
    s.writes += 3
    return _put_words, inst, None, words, z


# What a guard restores: the registers and counters of a state.
_POINT = ("pc", "loop_begin", "loop_end", "loop_n", *_OFFSETS, "cycles", "reads", "writes")


def _point(s) -> tuple:
    return tuple(getattr(s, name) for name in _POINT)


def _regload(s, inst):
    names, z = _reg_slot(s, inst)
    _cover(s, z)
    before = _point(s)
    words = s.memory[z].tolist()
    for name, word in zip(names, words):
        setattr(s, name, _register_value(name, word))
    s.reads += 3
    return _guard, inst, None, (words, before), z


def _guard(s, inst, x, y, z):
    """A regload on replay: `y` holds the words the recorded run read and the
    trace point just before it, returned when `s` holds other words."""
    words, before = y
    if s.memory[z].tolist() != words:
        return before


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


def _step(s):
    """Execute the instruction at pc, charge its cycles and move pc on: loop
    back, step, or stay once halted. Returns the step a replay must redo, or
    None; past the last instruction it only stops, cleanly, and returns False."""
    if s.pc >= len(s.program):
        s.halted = True
        return False
    inst = s.program[s.pc]
    step = _HANDLERS[inst.mode](s, inst)
    s.cycles += instruction_cycles(inst, s.config)
    if not s.halted:
        if s.pc == s.loop_end and s.loop_n != 0:
            s.loop_n -= 1
            s.pc = s.loop_begin
        else:
            s.pc += 1
    return step


def step_instruction(state: MachineState) -> MachineState:
    """Execute one macro instruction to completion, including loop back-jumps."""
    if state.halted:
        raise MachineTrap(state.pc, "machine is halted")
    _step(state)
    return state


def profile(state: MachineState) -> dict:
    """Per opcode, the [count, cycles, reads, writes] of running `state` to
    Halt (or past the last instruction) one `step_instruction` at a time."""
    rows = {}
    while not state.halted and state.pc < len(state.program):
        op, before = state.program[state.pc].mode, (0, state.cycles, state.reads, state.writes)
        step_instruction(state)
        after = (1, state.cycles, state.reads, state.writes)
        rows[op] = [r + a - b for r, a, b in zip(rows.get(op, (0, 0, 0, 0)), after, before)]
    return rows


def _interpret(state: MachineState, max_cycles: int | None, trace=None):
    """Run to Halt one `_step` at a time from the live registers, adding each
    step to `trace`; returns it, or None once it grew too long."""
    while not state.halted:
        pc = state.pc
        step = _step(state)
        if step is False:
            break  # nothing ran, so nothing is charged against the budget
        if trace is not None:
            if step is not None:
                trace = trace.add(state, step)
            if pc == state.loop_end and trace is not None:
                trace.end_iteration(state)
        if max_cycles is not None and state.cycles > max_cycles:
            raise MachineTrap(state.pc, f"cycle budget {max_cycles} exceeded")
    return trace


# ---------------------------------------------------------------------------
# Recorded traces
# ---------------------------------------------------------------------------

_TRACE_CAP = 1 << 16  # runs one trace may hold


class Trace:
    """What replay must redo of one interpreted run: its `runs` in order
    (data kernels, regstores as the words they wrote and regload guards,
    operands resolved) and its `end` point. `add` joins consecutive blocks
    of one kernel into one call (see `_join`); a run of such a kernel holds
    its blocks' tuple. `batch_loops`, once the run has halted, replaces a
    loop's iterations by one `_batched` run where `_batch` finds that exact,
    and `fold` then turns zeroing VSUBs into `_put_words` runs and drops the
    guards that cannot fail.

    A point is the registers as the run held them (pc, the loop registers
    and the offsets) and the counters relative to the run's start. A trace
    replays only from the registers it was recorded from, so every range is
    fixed. `reach` is the largest stop of a nonempty range the run touched,
    so a replay grows the state first where it reaches past the state's
    words.
    """

    def __init__(self, state: MachineState):
        self.program = state.program
        self.counts = (state.cycles, state.reads, state.writes)
        self.runs = []
        self.ends = []  # (runs so far, loop_begin, loop_end) where an iteration ended
        self.end = None
        self.reach = 0

    def point(self, values: tuple) -> tuple:
        """The trace point of a `_point` tuple taken during the run."""
        return values[:7], tuple(v - c for v, c in zip(values[7:], self.counts))

    def add(self, state: MachineState, step: tuple):
        kernel, inst, x, y, z = step
        if kernel is _guard:
            y = (y[0], self.point(y[1]))
        for r in (x, y, z):  # a regstore's or guard's y is no range
            if type(r) is slice and r.stop > r.start:
                self.reach = max(self.reach, r.stop)
        if kernel in _JOINABLE:
            if self._join(kernel, inst, x, y, z):
                return self
            inst = (inst,)
        self.runs.append((kernel, inst, x, y, z))
        return self if len(self.runs) < _TRACE_CAP else None

    def _join(self, kernel, inst: MacroInstruction, x: slice, y: slice, z: slice) -> bool:
        """Join a block onto the last run if that is a run of the same kernel
        (so one opcode) whose X and Z ranges this block continues, and its Y
        range too (an Mvmul row block reads the same Y), with this block's X
        and Y clear of the Z joined so far. Then one kernel call, which reads
        every operand before it writes Z, leaves what the blocks one by one
        leave."""
        if not self.runs:
            return False
        kernel0, blocks, x0, y0, z0 = self.runs[-1]
        if kernel0 is not kernel:
            return False
        want_y, ys = (y0, y0) if kernel is _mvmul else (
            slice(y0.stop, y.stop), slice(y0.start, y.stop))
        if (x.start, z.start, y) != (x0.stop, z0.stop, want_y) or not all(
                z0.stop <= r.start or r.stop <= z0.start for r in (x, y)):
            return False
        xs, zs = slice(x0.start, x.stop), slice(z0.start, z.stop)
        self.runs[-1] = (kernel, (*blocks, inst), xs, ys, zs)
        return True

    def end_iteration(self, state: MachineState) -> None:
        """Note that an iteration of the live loop ended, unless it added no run."""
        if not self.ends or self.ends[-1][0] != len(self.runs):
            self.ends.append((len(self.runs), state.loop_begin, state.loop_end))

    def batch_loops(self) -> None:
        """Replace the runs of each loop's iterations by one `_batched` run
        where `_batch` finds that exact. A loop is a series of iteration
        ends of one (loop_begin, loop_end), the same number of runs apart;
        its first iteration is taken to hold that many runs too, which
        `_batch` checks with the rest. Drops the iteration ends."""
        kept, done, iteration_ends, self.ends = [], 0, self.ends, []
        for _, group in itertools.groupby(iteration_ends, key=lambda end: end[1:]):
            ends = [end for end, *_ in group]
            length = ends[1] - ends[0] if len(ends) > 1 else 0
            start = ends[0] - length
            if length and start >= done and all(b - a == length for a, b in zip(ends, ends[1:])):
                batched = _batch(self.runs[start : ends[-1]], length)
                if batched is not None:
                    kept += self.runs[done:start]
                    kept.append(batched)
                    done = ends[-1]
        self.runs = kept + self.runs[done:]

    def fold(self) -> None:
        """Fold in what the recording proves for every state that replays it:
        a VSUB whose X is its Y fills Z with 0, and a guard is dropped where
        the last write to its slot was a regstore of its very words."""
        known, runs = {}, []
        for kernel, inst, x, y, z in self.runs:
            if kernel is _guard:
                if known.get((z.start, z.stop)) == y[0]:
                    continue
            else:
                zs = [m[2] for m in inst[1]] + [inst[2][1]] if kernel is _batched else [z]
                known = {slot: words for slot, words in known.items()
                         if all(r.stop <= slot[0] or slot[1] <= r.start for r in zs)}
                if kernel is _put_words:  # a regstore
                    known[z.start, z.stop] = y.tolist()
                elif kernel is _KERNELS[Opcode.VSUB] and x == y:
                    kernel, y = _put_words, 0  # saturate(a - a) is 0
            runs.append((kernel, inst, x, y, z))
        self.runs = runs


def _batch(runs: list, length: int):
    """One `_batched` run standing in for `runs`, iterations of `length`
    runs each, or None unless it leaves exactly what they leave. Each run of
    an iteration repeats the first iteration's run, its ranges moved by a
    fixed stride per iteration. The body is a chain of maps that ends in one
    VADD accumulate Z = Z + T over a fixed Z; every Z is fixed, nonempty and
    clear of the others; every read is loop-invariant, strided and unwritten
    in the body, or the Z that an earlier run of the iteration wrote, so the
    accumulator is read only by its accumulate."""
    count, body = len(runs) // length, runs[:length]
    strides = []
    for j, (kernel, inst, *ranges) in enumerate(body):
        if kernel not in _MAP_VALUES:
            return None
        step = [b.start - a.start for a, b in zip(ranges, runs[length + j][2:])]
        for k in range(1, count):
            kernel_k, inst_k, *ranges_k = runs[k * length + j]
            if kernel_k is not kernel or inst_k != inst or ranges_k != [
                    slice(r.start + k * d, r.stop + k * d) for r, d in zip(ranges, step)]:
                return None
        strides.append(step)
    zs = [z for *_, z in body]
    spans = sorted((z.start, z.stop) for z in zs)
    if any(d[2] for d in strides) or any(a == b for a, b in spans) or any(
            a[1] > b[0] for a, b in zip(spans, spans[1:])):
        return None
    written = {(z.start, z.stop): j for j, z in enumerate(zs)}

    def source(j: int, r: slice, d: int):
        """Where run j finds the words of its read range r, moving d per
        iteration (see `_batched`), or None."""
        if r.start == r.stop:
            return r
        if d == 0 and (r.start, r.stop) in written:
            i = written[r.start, r.stop]
            return i if i < j else None
        lo, hi = min(r.start, r.start + d * (count - 1)), max(r.stop, r.stop + d * (count - 1))
        if any(lo < z.stop and z.start < hi for z in zs):
            return None
        if d == 0:
            return r
        return r.start + d * np.arange(count)[:, None] + np.arange(r.stop - r.start)

    *maps, (kernel, _, x, y, acc) = body
    (dx, dy, _), last = strides[-1], length - 1
    t = (source(last, y, dy) if x == acc and dx == 0 else
         source(last, x, dx) if y == acc and dy == 0 else None)
    if kernel is not _KERNELS[Opcode.VADD] or t is None:
        return None
    plan = []
    for j, ((kernel, _, x, y, z), (dx, dy, _)) in enumerate(zip(maps, strides)):
        sources = source(j, x, dx), source(j, y, dy)
        if any(source is None for source in sources):
            return None
        plan.append((_MAP_VALUES[kernel], sources, z, kernel in _SCALAR_KERNELS))
    return _batched, (count, tuple(plan), (t, acc)), None, None, None


def _restore(state: MachineState, point: tuple) -> None:
    """Set `state` to a trace point; replay leaves its registers and counters
    at their start values until then."""
    registers, counts = point
    (state.pc, state.loop_begin, state.loop_end, state.loop_n,
     state.off_x, state.off_y, state.off_z) = registers
    state.cycles += counts[0]
    state.reads += counts[1]
    state.writes += counts[2]


def _replay(state: MachineState, trace: Trace, max_cycles: int | None) -> bool:
    """Redo `trace` on `state`, grown first if the trace reaches past its
    words. False where the interpreter must go on: from the untouched state
    if the run passes `max_cycles`, from just before a regload whose guard
    failed."""
    if max_cycles is not None and state.cycles + trace.end[1][0] > max_cycles:
        return False
    if trace.reach > len(state.words):
        state.grow()
    for kernel, inst, x, y, z in trace.runs:
        before = kernel(state, inst, x, y, z)
        if before is not None:
            _restore(state, before)
            return False
    _restore(state, trace.end)
    state.halted = True
    return True


# Traces `run` has recorded, keyed by program (its hash; a trace of another
# program under that hash is recorded over), data memory size, lane count and
# scratchpad size, pc, loop and offset registers: what fixes the control flow
# and every range up to the first regload; and the read-only ranges, which
# decide its traps. Not the length of the state's words: bounds and traps are
# against data memory, and a replay grows the state where the run reached past
# them. Shared by every state, so fresh image-sized states of a compiled
# program find one trace per start; bounded, least recently used dropped first.
# The traffic: a `StepRunner` window records one trace per error slot (off_z),
# 200 for a 200-reading window and at most `codegen.STEP_ERRORS` (512), plus
# one per KS or feed-forward program. A cyclic walk over more keys than the
# cap re-records every step, so windows of more than about five step programs
# interleaved step by step thrash it.
_TRACES: OrderedDict = OrderedDict()
_TRACE_KEYS = 1024


def _record(state: MachineState, max_cycles: int | None, key: tuple) -> None:
    """Interpret `state` and cache the trace of the run, its loops batched
    where that is exact, if it halts."""
    trace = _interpret(state, max_cycles, Trace(state))
    if trace is not None:
        trace.end = trace.point(_point(state))
        trace.batch_loops()
        trace.fold()
        _TRACES[key] = trace
        if len(_TRACES) > _TRACE_KEYS:
            _TRACES.popitem(last=False)


def run(state: MachineState, max_cycles: int | None = None) -> RunReport:
    """Run to Halt (or past the last instruction); deterministic.

    The first run under a key interprets and records; later ones replay the
    trace, and the interpreter takes over wherever it cannot stand in.
    """
    if not state.halted:
        config = state.config
        key = (
            state.program_hash, config.data_mem_words, config.n_track, config.n_local,
            state.pc, state.loop_begin, state.loop_end, state.loop_n,
            state.off_x, state.off_y, state.off_z, state.readonly,
        )
        trace = _TRACES.get(key)
        if trace is None or trace.program != state.program:
            _record(state, max_cycles, key)
        else:
            _TRACES.move_to_end(key)
            if not _replay(state, trace, max_cycles):
                _interpret(state, max_cycles)
    return RunReport(state.cycles, state.reads, state.writes, state.cycles / state.config.clock_hz)


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
