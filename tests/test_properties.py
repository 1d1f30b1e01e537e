"""Property tests: the VM against a per-element scalar reference (Mvmul also
at the edges of its int32 path), trace replay against one-instruction
stepping on looped programs, on runs of Mvmul row blocks and of
element-wise blocks and on loops whose bodies replay batched, compiled
random bundles against the float oracle, ISA text and binary round trips,
truncated or corrupted binary inputs, the exact capped-simplex projection
against bisection, and the stacked KS statistic against per-reference
calls."""

import functools
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sid import machine
from sid.cli import DOMAIN_ERRORS
from sid.codegen import StepRunner, compile_model, run_feedforward
from sid.detection import ks_statistic
from sid.fixedpoint import (
    FX_MAX,
    FX_MIN,
    FX_ONE,
    default_luts,
    fx_array,
    saturate,
)
from sid.isa import (
    GROUP_LOOP,
    GROUP_OFFSET,
    INSTRUCTION_BYTES,
    MAX_ADDR,
    MAX_LEN,
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
from sid.machine import (
    MachineConfig,
    MachineTrap,
    image_from_bytes,
    image_to_bytes,
    load,
    run,
    step_instruction,
)
from sid.models import (
    ModelBundle,
    bundle_from_bytes,
    bundle_to_bytes,
    infer_lr,
    infer_ocsvm,
    infer_svm,
    mlp_logits,
)
from sid.training import _project_capped_simplex, init_mlp, init_rnn, train_ocsvm

from oracles import (
    assemble, full_state, fx_add, fx_mul, fx_sub, lut_eval, predict_series,
    project_capped_simplex_clip, stepped,
)

WORDS = 96  # data memory of the straight-line programs
LUTS = default_luts()
LUT_NAMES = {Opcode.VSIG: "sigmoid", Opcode.VTANH: "tanh", Opcode.VEXP: "exp-neg"}
ELEMENTWISE = {
    Opcode.VADD: fx_add,
    Opcode.VSUB: fx_sub,
    Opcode.VMUL: fx_mul,
    Opcode.VSGT: lambda a, b: FX_ONE if a >= b else 0,
}
VECTOR_OPS = sorted(
    [*ELEMENTWISE, *LUT_NAMES, Opcode.VSSGT, Opcode.VMAXABS, Opcode.VSQNORM, Opcode.MVMUL]
)


def reference_run(program, image) -> list[int]:
    """Straight-line semantics, one element at a time in sequential order.

    Every instruction reads all of its operands before it writes Z."""
    mem = [int(w) for w in image]
    for inst in program:
        op, n, x, y, z = inst.mode, inst.length, inst.addr_x, inst.addr_y, inst.addr_z
        if op is Opcode.MVMUL:
            out = []
            for r in range(inst.width):
                acc = mem[z + r]  # rows accumulate onto the prior Z contents
                for c in range(n):
                    acc = fx_add(acc, fx_mul(mem[x + r * n + c], mem[y + c]))
                out.append(acc)
        elif op is Opcode.VMAXABS:
            out = [saturate(max((abs(mem[x + i]) for i in range(n)), default=0))]
        elif op is Opcode.VSQNORM:
            acc = 0
            for i in range(n):
                acc = fx_add(acc, fx_mul(mem[x + i], mem[x + i]))
            out = [acc]
        elif op is Opcode.VSSGT:
            out = [FX_ONE if mem[x + i] > mem[y] else 0 for i in range(n)]
        elif op in LUT_NAMES:
            out = [lut_eval(LUTS[LUT_NAMES[op]], mem[x + i]) for i in range(n)]
        else:
            out = [ELEMENTWISE[op](mem[x + i], mem[y + i]) for i in range(n)]
        mem[z : z + len(out)] = out
    return mem


words = st.one_of(
    st.integers(-4 * FX_ONE, 4 * FX_ONE),
    st.integers(FX_MIN, FX_MAX),
    st.sampled_from([FX_MIN, FX_MIN + 1, -1, 0, 1, FX_ONE, FX_MAX - 1, FX_MAX]),
)


@st.composite
def vector_instructions(draw):
    op = draw(st.sampled_from(VECTOR_OPS))
    if op is Opcode.MVMUL:
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
        sizes = (rows * cols, cols, rows)
    else:
        rows, cols = 0, draw(st.integers(0, 12))
        y_size = 1 if op is Opcode.VSSGT else cols
        z_size = 1 if op in (Opcode.VMAXABS, Opcode.VSQNORM) else cols
        sizes = (cols, y_size, z_size)
    x, y, z = (draw(st.integers(0, WORDS - size)) for size in sizes)
    return MacroInstruction(mode=op, length=cols, width=rows, addr_x=x, addr_y=y, addr_z=z)


def _mvmul(rows, cols, x, y, z):
    return MacroInstruction(
        mode=Opcode.MVMUL, length=cols, width=rows, addr_x=x, addr_y=y, addr_z=z
    )


def _image(pairs):
    image = [0] * WORDS
    for addr, values in pairs:
        image[addr : addr + len(values)] = values
    return image


# Rows built to reach each accumulation path of the MVMUL kernel. With
# v = [50, -60] raw and unit weights the products are 50 and -60. The prior
# FX_MAX - 100 of rows 1 and 2 puts the operand extrema over the range, so the
# first Mvmul takes neither plain sum and every row gets the prefix check:
#   rows 0 (prior 0) and 1 (prior FX_MAX - 100): every prefix stays in range,
#     so the check passes and the result is the plain sum;
#   row 2, prior FX_MAX - 100 and products 200, -60: the first prefix leaves
#     the range, so the per-element loop saturates it and then subtracts.
# The second Mvmul's two products saturate on their own before they are added.
# The third has small operands: the int32 plain sum, whose products
# (FX_ONE + 1) * -3 and 7 * -1 floor to -4 and -1 where truncation gives -3
# and 0. The fourth's products are 2**31, past int32, but their sum fits:
# the int64 plain sum.
MVMUL_PATHS = (
    [_mvmul(3, 2, 0, 8, 16), _mvmul(1, 2, 32, 40, 48), _mvmul(2, 2, 56, 60, 62),
     _mvmul(1, 2, 64, 66, 68)],
    _image([
        (0, [FX_ONE, FX_ONE, FX_ONE, FX_ONE, 4 * FX_ONE, FX_ONE]),
        (8, [50, -60]),
        (16, [0, FX_MAX - 100, FX_MAX - 100]),
        (32, [FX_MAX, FX_MAX]),
        (40, [FX_MAX, FX_MIN]),
        (56, [FX_ONE + 1, 7, -FX_ONE, 3 * FX_ONE]),
        (60, [-3, -1]),
        (62, [10, -20]),
        (64, [FX_ONE, FX_ONE]),
        (66, [2**15, 2**15]),
    ]),
)


def _edge(x, y, z):
    """One Mvmul of len(z) rows of len(y) words, X at 0, Y at 48, Z at 64."""
    return [_mvmul(len(z), len(y), 0, 48, 64)], _image([(0, x), (48, y), (64, z)])


# Mvmuls at the edges of the int32 path, and the path each takes:
# peak = max|X| * max|Y| and cap = max|Z| + cols * ((peak >> 16) + 1).
HALF = 2**15
MVMUL_EDGES = {
    "peak == FX_MAX": ("int32 plain sum", _edge([1, -1], [FX_MAX, FX_MAX], [5])),
    "peak == FX_MAX + 1": ("int64 plain sum",
                           _edge([FX_ONE, FX_ONE, -FX_ONE, 1], [HALF, HALF], [0, 7])),
    "cap == FX_MAX": ("int32 plain sum", _edge([HALF, HALF, -HALF, -HALF], [HALF, HALF],
                                              [FX_MAX - 32_770, 32_770 - FX_MAX])),
    "cap == FX_MAX + 1": ("prefix check", _edge([HALF, HALF, -HALF, -HALF], [HALF, HALF],
                                               [FX_MAX - 32_769, 32_769 - FX_MAX])),
    "floor, not truncation": ("int32 plain sum", _edge([FX_ONE + 1, 7], [-3, -1], [0])),
}


def _assert_matches_reference(program, image):
    want = reference_run(program, image)
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, data_mem_words=WORDS)
        state = load(config, program + [halt()], image)
        run(state)
        assert state.memory.tolist() == want, f"n_track={n_track}"


@settings(max_examples=150, deadline=None)
@given(
    program=st.lists(vector_instructions(), min_size=1, max_size=6),
    image=st.lists(words, min_size=WORDS, max_size=WORDS),
)
@example(program=MVMUL_PATHS[0], image=MVMUL_PATHS[1])
def test_vm_matches_scalar_reference(program, image):
    _assert_matches_reference(program, image)


def _signed(magnitudes):
    return st.tuples(st.sampled_from((1, -1)), magnitudes).map(lambda t: t[0] * t[1])


def _up_to(bound):
    return st.one_of(st.sampled_from((bound, -bound)), _signed(st.integers(0, bound)))


@st.composite
def edge_mvmuls(draw):
    """One Mvmul whose X and Y magnitudes reach a bound of 2**15 to 2**16.5
    each, so peak falls on either side of FX_MAX, and whose Z words are as
    small or near +-FX_MAX, so cap does too."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    x_max, y_max = draw(st.integers(2**15, 92_682)), draw(st.integers(2**15, 92_682))
    prior = st.one_of(_signed(st.integers(0, 92_682)),
                      _signed(st.integers(FX_MAX - 2**18, FX_MAX)))
    return _edge(*(draw(st.lists(w, min_size=n, max_size=n)) for w, n in (
        (_up_to(x_max), rows * cols),
        (_up_to(y_max), cols),
        (prior, rows),
    )))


@settings(max_examples=150, deadline=None)
@given(case=edge_mvmuls())
@example(case=MVMUL_EDGES["peak == FX_MAX"][1])
@example(case=MVMUL_EDGES["peak == FX_MAX + 1"][1])
@example(case=MVMUL_EDGES["cap == FX_MAX"][1])
@example(case=MVMUL_EDGES["cap == FX_MAX + 1"][1])
@example(case=MVMUL_EDGES["floor, not truncation"][1])
def test_mvmul_edges_match_scalar_reference(case):
    _assert_matches_reference(*case)


def _mvmul_paths(monkeypatch, program, image) -> tuple[list[str], np.ndarray]:
    """Step `program`, naming the accumulation path each Mvmul takes: the
    int32 plain sum makes no `_saturating_running_sum` call; that call
    takes the int64 plain sum when its cap fits the range."""
    running_sum, paths = machine._saturating_running_sum, []

    def spy(start, products, cap):
        paths[-1] = "int64 plain sum" if cap <= FX_MAX else "prefix check"
        return running_sum(start, products, cap)

    monkeypatch.setattr(machine, "_saturating_running_sum", spy)
    state = load(MachineConfig(data_mem_words=WORDS), program + [halt()], image)
    for _ in program:
        paths.append("int32 plain sum")
        step_instruction(state)
    return paths, state.memory


def test_mvmul_accumulation_paths(monkeypatch):
    paths, memory = _mvmul_paths(monkeypatch, *MVMUL_PATHS)
    assert paths == ["prefix check", "prefix check", "int32 plain sum", "int64 plain sum"]
    assert memory[16:19].tolist() == [-10, FX_MAX - 110, FX_MAX - 60]
    assert memory[48] == -1  # saturated FX_MAX, then saturated FX_MIN
    assert memory[62:64].tolist() == [10 - 4 - 1, -20 + 3 - 3]
    assert memory[68] == 2 * HALF  # 2**31 >> 16, twice


@pytest.mark.parametrize("name", sorted(MVMUL_EDGES))
def test_mvmul_edges_take_their_path(monkeypatch, name):
    path, (program, image) = MVMUL_EDGES[name]
    assert _mvmul_paths(monkeypatch, program, image)[0] == [path]


# Looped programs: loops nested through a loop-group spill per depth, offset
# spills, regaddi on every offset register and offset-enabled operands, over a
# small memory whose top words hold the spill slots. Data writes may land in a
# slot (a later run's regload guard then reads other words) and offsets may push
# operands out of bounds.
LOOPED_WORDS = 64
LOOP_SLOTS = (48, 51)  # loop registers saved by the loop at depth 0 and 1
OFFSET_SLOT = 54
ZEROS_SLOT = 57  # read by an entry regload of the offset group; no regstore writes it
LOOPED_CONFIG = dict(n_local=4, data_mem_words=LOOPED_WORDS)  # Mvmul rows reach 5


@st.composite
def offset_instructions(draw):
    op = draw(st.sampled_from(VECTOR_OPS))
    if op is Opcode.MVMUL:
        rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    else:
        rows, cols = 0, draw(st.integers(0, 6))
    addr = st.one_of(st.integers(0, 36), st.integers(0, LOOPED_WORDS))
    return MacroInstruction(
        mode=op, length=cols, width=rows,
        addr_x=draw(addr), addr_y=draw(addr), addr_z=draw(addr),
        off_x=draw(st.booleans()), off_y=draw(st.booleans()), off_z=draw(st.booleans()),
    )


def _spill(mode, group, slot, relative):
    return MacroInstruction(mode=mode, length=group, addr_z=slot, off_z=relative)


@st.composite
def looped_programs(draw):
    def body(depth, out):
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(
                ("op", "op", "regaddi", "spill", "loop") if depth < len(LOOP_SLOTS) else
                ("op", "op", "regaddi")
            ))
            if kind == "op":
                out.append(draw(offset_instructions()))
            elif kind == "regaddi":
                out.append(regaddi(draw(st.integers(0, 2)), draw(st.integers(-3, 3))))
            elif kind == "spill":  # save the offsets, move them, restore them
                relative = draw(st.booleans())
                out.append(_spill(Opcode.REGSTORE, GROUP_OFFSET, OFFSET_SLOT, relative))
                body(len(LOOP_SLOTS), out)
                out.append(_spill(Opcode.REGLOAD, GROUP_OFFSET, OFFSET_SLOT, relative))
            else:
                start = len(out)
                out.append(None)  # the loop, once its end is known
                out.append(regstore(GROUP_LOOP, LOOP_SLOTS[depth]))
                body(depth + 1, out)
                out.append(regload(GROUP_LOOP, LOOP_SLOTS[depth]))
                out[start] = loop(len(out) - 1, draw(st.integers(0, 3)))
        return out

    program = []
    if draw(st.booleans()):  # entry hygiene: offsets <- the zeros slot, maybe moved by off_z
        program.append(_spill(Opcode.REGLOAD, GROUP_OFFSET, ZEROS_SLOT, draw(st.booleans())))
    body(0, program)
    if draw(st.booleans()):
        program.append(halt())
    return program


def _outcome(execute, state, max_cycles):
    """Trap message (or None) and every observable part of the state after."""
    try:
        execute(state, max_cycles)
        trap = None
    except MachineTrap as exc:
        trap = str(exc)
    registers = ("pc", "halted", "loop_begin", "loop_end", "loop_n",
                 "off_x", "off_y", "off_z", "cycles", "reads", "writes")
    return (trap, state.memory.tolist(), state.scratchpad.tolist(),
            *(getattr(state, name) for name in registers))


@settings(max_examples=200, deadline=None)
@given(
    program=looped_programs(),
    image=st.lists(words, min_size=LOOPED_WORDS, max_size=LOOPED_WORDS),
    zeros=st.one_of(st.just([0, 0, 0]), st.lists(st.integers(-2, 2), min_size=3, max_size=3)),
    starts=st.lists(st.tuples(*[st.integers(-6, 24)] * 3), min_size=2, max_size=2),
    max_cycles=st.one_of(st.none(), st.integers(0, 400)),
)
@example(  # the second state's offset moves the first state's Z range out of memory
    program=[MacroInstruction(mode=Opcode.VADD, length=4, addr_z=56, off_z=True), halt()],
    image=[0] * LOOPED_WORDS, zeros=[0, 0, 0], starts=[(0, 0, 0), (0, 0, 6)], max_cycles=None,
)
@example(  # a regload through off_z reads other words from the second state's start
    program=[_spill(Opcode.REGLOAD, GROUP_OFFSET, ZEROS_SLOT - 3, True), halt()],
    image=[0] * LOOPED_WORDS, zeros=[1, 2, 3], starts=[(0, 0, 0), (0, 0, 3)], max_cycles=None,
)
@example(  # a write through off_z reaches the regload's words from the second start only
    program=[MacroInstruction(mode=Opcode.VADD, length=1, addr_x=1, addr_y=1,
                              addr_z=ZEROS_SLOT + 3, off_z=True),
             regload(GROUP_OFFSET, ZEROS_SLOT), halt()],
    image=[0, 5] + [0] * (LOOPED_WORDS - 2), zeros=[0, 0, 0],
    starts=[(0, 0, 0), (0, 0, -1)], max_cycles=None,
)
@example(  # the vadd writes a spilled loop count from an input word that the
    # second start's off_x picks: the regload's guard reads a count of 1, not 0,
    # and the interpreter loops on into the cycle budget
    program=[loop(3, 1), regstore(GROUP_LOOP, LOOP_SLOTS[0]),
             MacroInstruction(mode=Opcode.VADD, length=1, addr_x=0, addr_y=2,
                              addr_z=LOOP_SLOTS[0] + 2, off_x=True),
             regload(GROUP_LOOP, LOOP_SLOTS[0]), halt()],
    image=[0, 1] + [0] * (LOOPED_WORDS - 2), zeros=[0, 0, 0],
    starts=[(0, 0, 0), (1, 0, 0)], max_cycles=None,
)
@example(  # entry-relative offsets spilled and reloaded: from the second start the
    # regload reads other words, so the vadd after it writes elsewhere
    program=[regstore(GROUP_OFFSET, OFFSET_SLOT), regload(GROUP_OFFSET, OFFSET_SLOT),
             MacroInstruction(mode=Opcode.VADD, length=1, addr_x=1, addr_y=1, off_z=True),
             halt()],
    image=[0, 5] + [0] * (LOOPED_WORDS - 2), zeros=[0, 0, 0],
    starts=[(0, 0, 0), (0, 0, 3)], max_cycles=None,
)
@example(  # two Mvmul blocks codegen would emit, but moved by off_z: not fused, and
    # the second start replays both shifted
    program=[MacroInstruction(mode=Opcode.MVMUL, length=2, width=1, addr_x=2 * row, addr_y=8,
                              addr_z=20 + row, off_z=True) for row in range(2)] + [halt()],
    image=[(i % 5 - 2) * FX_ONE for i in range(LOOPED_WORDS)], zeros=[0, 0, 0],
    starts=[(0, 0, 0), (0, 0, 3)], max_cycles=None,
)
@example(  # the same blocks with only the first moved by off_z: a fixed block is
    # never joined onto a moving one, so the second start moves the first alone
    program=[MacroInstruction(mode=Opcode.MVMUL, length=2, width=1, addr_x=2 * row, addr_y=8,
                              addr_z=20 + row, off_z=row == 0) for row in range(2)] + [halt()],
    image=[(i % 5 - 2) * FX_ONE for i in range(LOOPED_WORDS)], zeros=[0, 0, 0],
    starts=[(0, 0, 0), (0, 0, 3)], max_cycles=None,
)
def test_replay_matches_stepping(program, image, zeros, starts, max_cycles):
    """`run` (trace replay, or its fallback) leaves exactly what stepping one
    instruction at a time leaves, traps included. States of one program start
    from two sets of offsets, so the second can replay the first's trace
    moved; each state runs again from where its first run left the
    registers, as `StepRunner` does."""
    image[ZEROS_SLOT : ZEROS_SLOT + 3] = zeros
    if max_cycles is None and any(i.mode is Opcode.REGLOAD for i in program):
        max_cycles = 2_000  # a data write into a loop slot can make a loop endless
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, **LOOPED_CONFIG)
        for offsets in starts:
            states = [load(config, program, image) for _ in range(2)]
            for state in states:
                state.off_x, state.off_y, state.off_z = offsets
            for _ in range(2):
                got = _outcome(run, states[0], max_cycles)
                assert got == _outcome(stepped, states[1], max_cycles), f"n_track={n_track}"
                if got[0] is not None:
                    break
                for state in states:
                    state.pc, state.halted = 0, False


@st.composite
def read_only_ranges(draw):
    """Up to three (start, stop) ranges of looped memory, possibly empty,
    adjacent or overlapping; sometimes over a spill slot."""
    starts = st.one_of(st.integers(0, 40), st.integers(0, LOOPED_WORDS))
    return draw(st.lists(
        st.tuples(starts, st.integers(0, 8)).map(lambda r: (r[0], min(r[0] + r[1], LOOPED_WORDS))),
        max_size=3))


@settings(max_examples=200, deadline=None)
@given(
    program=looped_programs(),
    image=st.lists(words, min_size=LOOPED_WORDS, max_size=LOOPED_WORDS),
    readonly=read_only_ranges(),
    starts=st.lists(st.tuples(*[st.integers(-6, 24)] * 3), min_size=2, max_size=2),
    max_cycles=st.one_of(st.none(), st.integers(0, 400)),
)
@example(  # the first start's Z misses [30, 34); the second start's replay would
    # shift it in, so the interpreter runs it and traps
    program=[MacroInstruction(mode=Opcode.VADD, length=2, addr_x=1, addr_y=2, addr_z=20,
                              off_z=True), halt()],
    image=list(range(LOOPED_WORDS)), readonly=[(30, 32), (32, 34)],
    starts=[(0, 0, 0), (0, 0, 11)], max_cycles=None,
)
@example(  # likewise a regstore slot through off_z
    program=[loop(1, 1), _spill(Opcode.REGSTORE, GROUP_LOOP, 20, True), halt()],
    image=[0] * LOOPED_WORDS, readonly=[(24, 25)], starts=[(0, 0, 0), (0, 0, 2)],
    max_cycles=None,
)
@example(  # a regload and a data X and Y may read a read-only range
    program=[regload(GROUP_OFFSET, ZEROS_SLOT),
             MacroInstruction(mode=Opcode.VADD, length=3, addr_x=ZEROS_SLOT, addr_y=ZEROS_SLOT),
             halt()],
    image=[7] * LOOPED_WORDS, readonly=[(ZEROS_SLOT, ZEROS_SLOT + 3)],
    starts=[(0, 0, 0), (0, 0, 5)], max_cycles=None,
)
def test_read_only_ranges_trap_as_stepping_does(program, image, readonly, starts, max_cycles):
    """With read-only ranges loaded, `run` (recorded, then replayed from a
    second start) leaves exactly what stepping leaves: a data Z range or a
    regstore slot that meets a range traps at the same pc with the same
    partial memory, and the ranges keep their words. A run whose writes miss
    every range leaves what it leaves with none."""
    image[ZEROS_SLOT : ZEROS_SLOT + 3] = [0, 0, 0]  # entry regloads zero the offsets
    if max_cycles is None and any(i.mode is Opcode.REGLOAD for i in program):
        max_cycles = 2_000  # a data write into a loop slot can make a loop endless
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, **LOOPED_CONFIG)
        for offsets in starts:
            states = [load(config, program, image, readonly) for _ in range(2)]
            plain = load(config, program, image)  # no read-only range
            for state in (*states, plain):
                state.off_x, state.off_y, state.off_z = offsets
            for _ in range(2):
                got = _outcome(run, states[0], max_cycles)
                assert got == _outcome(stepped, states[1], max_cycles), f"n_track={n_track}"
                want = _outcome(run, plain, max_cycles)
                if got[0] is None or "read-only" not in got[0]:
                    assert got == want, f"n_track={n_track}"
                assert all(got[1][a:b] == image[a:b] for a, b in readonly)
                if got[0] is not None:
                    break
                for state in (*states, plain):
                    state.pc, state.halted = 0, False


def _zero_extended(outcome, words: int) -> tuple:
    """`_outcome` with its memory zero-extended to `words` words."""
    trap, memory, *rest = outcome
    return (trap, memory + [0] * (words - len(memory)), *rest)


@settings(max_examples=200, deadline=None)
@given(
    program=looped_programs(),
    image=st.lists(words, max_size=LOOPED_WORDS),
    data_mem_words=st.one_of(st.just(LOOPED_WORDS), st.integers(24, LOOPED_WORDS + 16)),
    readonly=read_only_ranges(),
    starts=st.lists(st.tuples(*[st.integers(-6, 24)] * 3), min_size=2, max_size=2),
    max_cycles=st.one_of(st.none(), st.integers(0, 400)),
)
@example(  # the squared norm lands one word further per run, past the two-word
    # image, until it leaves data memory
    program=[MacroInstruction(mode=Opcode.VSQNORM, length=2, addr_z=60, off_z=True),
             regaddi(2, 1), halt()],
    image=[FX_ONE, 2 * FX_ONE], data_mem_words=LOOPED_WORDS, readonly=[],
    starts=[(0, 0, 0), (0, 0, 1)], max_cycles=None,
)
@example(  # recorded inside the image; replayed from the second start, the same
    # trace writes past it
    program=[MacroInstruction(mode=Opcode.VADD, length=2, addr_z=4, off_z=True), halt()],
    image=[FX_ONE] * 6, data_mem_words=LOOPED_WORDS, readonly=[],
    starts=[(0, 0, 0), (0, 0, 10)], max_cycles=None,
)
@example(  # a regstore past the image
    program=[regstore(GROUP_OFFSET, OFFSET_SLOT), halt()], image=[5, 6],
    data_mem_words=LOOPED_WORDS, readonly=[], starts=[(1, 2, 3), (0, 0, 0)], max_cycles=None,
)
@example(  # a regload past the image reading zeros, then a regstore
    program=[regload(GROUP_OFFSET, ZEROS_SLOT), regstore(GROUP_LOOP, LOOP_SLOTS[0]),
             MacroInstruction(mode=Opcode.VADD, length=3, addr_x=LOOP_SLOTS[0], addr_z=2),
             halt()],
    image=[5, 6], data_mem_words=LOOPED_WORDS, readonly=[(2, 3)],
    starts=[(0, 0, 0), (1, 2, 3)], max_cycles=None,
)
def test_image_sized_state_matches_full_size_state(
        program, image, data_mem_words, readonly, starts, max_cycles):
    """A state loaded over a short image holds only its words until a run
    reaches past them. Recorded, then replayed from a second start and again
    from the first, and re-armed as `StepRunner` does, it leaves what stepping
    a state holding the whole data memory leaves: memory once zero-extended,
    scratchpad, registers, counters and traps, bounds against data memory."""
    image = image[:data_mem_words]
    if max_cycles is None and any(i.mode is Opcode.REGLOAD for i in program):
        max_cycles = 2_000  # a data write into a loop slot can make a loop endless
    machine._TRACES.clear()  # so that the first start records
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, n_local=4, data_mem_words=data_mem_words)
        for offsets in (*starts, starts[0]):
            state = load(config, program, image, readonly)
            reference = full_state(config, program, image, readonly)
            for s in (state, reference):
                s.off_x, s.off_y, s.off_z = offsets
            for _ in range(2):
                got = _zero_extended(_outcome(run, state, max_cycles), data_mem_words)
                assert got == _outcome(stepped, reference, max_cycles), f"n_track={n_track}"
                if got[0] is not None:
                    break
                for s in (state, reference):
                    s.pc, s.halted = 0, False


def test_mvmul_extrema_cache_is_per_state(monkeypatch):
    """Two states of one program whose read-only weights take different Mvmul
    paths each cache their own max|X|: the second, replaying the first's
    trace, takes the path its own weights need, as the scalar reference says."""
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    running_sum, widened = machine._saturating_running_sum, []
    monkeypatch.setattr(machine, "_saturating_running_sum",
                        lambda *args: widened.append(True) or running_sum(*args))
    program = [_mvmul(2, 2, 0, 48, 64)]
    weights = {False: [HALF, -3, 7, HALF // 2],  # the int32 plain sum
               True: [FX_MAX, FX_MIN + 1, 5, -7]}  # the int64 prefix check
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, data_mem_words=WORDS)
        for wide, x in weights.items():
            want = _image([(0, x), (48, [HALF, -9]), (64, [1, 2])])
            state = load(config, program + [halt()], want, [(0, 2), (2, 4)])
            for _ in range(2):  # recorded or replayed, then replayed
                want = reference_run(program, want)
                widened.clear()
                run(state)
                assert (state.memory.tolist(), bool(widened)) == (want, wide), n_track
                assert state.x_peaks == {(0, 4): max(map(abs, x))}
                state.pc, state.halted = 0, False


# Runs of Mvmul row blocks as `codegen` cuts a tall mat-vec: one length and Y
# range, X and Z contiguous, widths 0 to n_local, Z clear of X and Y; or not
# quite, with gaps in X or Z, another Y, or Z over X or Y, which replay must not
# fuse. Words under 2**15 take the int32 plain sum, small words mostly the
# int64 one; full-range words reach the prefix check and the per-element loop.
FUSED_WORDS = 160
FUSED_CONFIG = dict(n_local=4, data_mem_words=FUSED_WORDS)


@st.composite
def mvmul_runs(draw):
    """A run of Mvmul blocks then halt, and whether it is exactly as codegen
    emits it (so replay must fuse it into one call). Otherwise one block
    after the first moves its X, Y or Z, or Z starts where the first block's
    writes reach the second block's X or every block's Y."""
    widths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
    cols, x, y = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(96, 100))
    change = draw(st.sampled_from(("none", "none", "gap X", "gap Z", "other Y", "Z over X",
                                   "Z over Y")))
    z = {"Z over X": max(0, x + widths[0] * cols + draw(st.integers(-2, 2))),
         "Z over Y": y + draw(st.integers(-2, max(cols - 1, 0)))}.get(
        change, draw(st.integers(112, 120)))
    moved = draw(st.integers(1, 3)) if change in ("gap X", "gap Z", "other Y") else None
    program = []
    for i, rows in enumerate(widths):
        step = draw(st.integers(1, 2)) if i == moved else 0
        x, z = x + step * (change == "gap X"), z + step * (change == "gap Z")
        program.append(_mvmul(rows, cols, x, y + step * (change == "other Y"), z))
        x, z = x + rows * cols, z + rows
    return program + [halt()], change == "none" or (moved or 0) >= len(widths)


small_words = st.integers(-4 * FX_ONE, 4 * FX_ONE)


@settings(max_examples=150, deadline=None)
@given(
    blocks=mvmul_runs(),
    image=st.one_of(*(st.lists(w, min_size=FUSED_WORDS, max_size=FUSED_WORDS)
                      for w in (st.integers(-2**15, 2**15), small_words, words))),
)
@example(  # MVMUL_PATHS's first Mvmul cut in two blocks: one call, both slow-path outcomes
    blocks=([_mvmul(1, 2, 0, 8, 16), _mvmul(2, 2, 2, 8, 17), halt()], True),
    image=MVMUL_PATHS[1] + [0] * (FUSED_WORDS - WORDS),
)
def test_fused_mvmul_replay_matches_stepping(blocks, image):
    """`run` records a run of Mvmul blocks, then replays it, fused into one
    kernel call where it may be; both leave exactly what stepping leaves."""
    program, exact = blocks
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, **FUSED_CONFIG)
        want = _outcome(stepped, load(config, program, image), None)
        for _ in range(2):
            assert _outcome(run, load(config, program, image), None) == want, f"n_track={n_track}"
        if exact:
            trace = next(reversed(machine._TRACES.values()))
            assert len(trace.runs) == 1 and len(trace.runs[0][1]) == len(program) - 1


def test_long_rows_fold_only_large_mat_vecs():
    """The LSTM-200 gate mat-vec folds into long rows of about 8K words; the
    readout, the LSTM-16 gates, a prime row count and no columns keep one
    product row per Z word."""
    fold, starts = machine._fold(800, 206)
    assert fold == 32 and starts.tolist() == list(range(0, 32 * 206, 206))
    for rows, cols in ((6, 200), (64, 22), (199, 206), (800, 0)):
        assert machine._fold(rows, cols)[0] == 1, (rows, cols)


# Tall mat-vecs cut into Mvmul blocks of n_local rows, as codegen cuts them,
# with long rows cut to 16 words and folding from 12: under 12 words, with a
# prime row count past 16 words or with no columns `fold` is 1; 12 to 16 words
# fold every row into one long row; more fold a proper divisor of a composite
# row count.
TALL_WORDS = 256
TALL_X, TALL_Y, TALL_Z = 0, 192, 208


def _tall_image(x, y, z):
    image = [0] * TALL_WORDS
    for addr, values in ((TALL_X, x), (TALL_Y, y), (TALL_Z, z)):
        image[addr : addr + len(values)] = values
    return image


@st.composite
def tall_mvmuls(draw):
    rows = draw(st.one_of(st.sampled_from((7, 11, 13, 17, 19, 23)), st.integers(0, 24)))
    cols, n_local = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    cells = draw(st.sampled_from((st.integers(-2**15, 2**15), words)))  # int32 path or not
    x, y, z = (draw(st.lists(cells, min_size=n, max_size=n)) for n in (rows * cols, cols, rows))
    program, first = [], 0
    while first < rows:
        width = min(n_local, rows - first)
        program.append(_mvmul(width, cols, TALL_X + first * cols, TALL_Y, TALL_Z + first))
        first += width
    return program, n_local, _tall_image(x, y, z)


@settings(max_examples=80, deadline=None)
@given(case=tall_mvmuls())
@example(case=([_mvmul(7, 4, 0, 192, 208)], 8, _tall_image(range(28), [FX_ONE] * 4, [1] * 7)))
@example(case=([_mvmul(4, 2, 0, 192, 208), _mvmul(2, 2, 8, 192, 212)], 4,
               _tall_image(range(-6, 6), [3 * FX_ONE, -FX_ONE], range(6))))
@example(case=([_mvmul(8, 4, 0, 192, 208), _mvmul(4, 4, 32, 192, 216)], 8,
               _tall_image(range(-24, 24), [HALF, 1, -HALF, 7], [5] * 12)))
@example(case=([_mvmul(5, 0, 0, 192, 208)], 8, _tall_image([], [], [9, -9, 0, 1, 2])))
def test_tall_mvmul_matches_scalar_reference(case):
    """A tall mat-vec, recorded and then replayed as one fused call, leaves
    the memory `reference_run` computes and the scratchpad its blocks leave
    one by one, whether its int32 product folds into long rows or not."""
    program, n_local, image = case
    want, pad = reference_run(program, image), [0] * n_local
    for inst in program:
        pad[: inst.width] = want[inst.addr_z : inst.addr_z + inst.width]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(machine, "_LONG_ROW", 16)
        patch.setattr(machine, "_FOLD_MIN", 12)
        patch.setattr(machine, "_fold", functools.cache(machine._fold.__wrapped__))
        for n_track in (1, 2, 4, 8):
            config = MachineConfig(n_track=n_track, n_local=n_local, data_mem_words=TALL_WORDS)
            for _ in range(2):  # recorded, then replayed
                state = load(config, program + [halt()], image)
                run(state)
                assert (state.memory.tolist(), state.scratchpad.tolist()) == (want, pad), n_track
            assert len(next(reversed(machine._TRACES.values())).runs) == bool(program)


# Runs of element-wise blocks as `codegen` emits the LSTM's gate sigmoids and
# gate products: one opcode, X, Y and Z each continuing the block before (an
# unread Y stays put, as codegen leaves it at 0), X and Y clear of the Z before;
# in place or not. Or not quite, with a gap in X, Y or Z, another opcode, Z
# reaching the next block's X or Y, or a block addressed through the offset
# registers, which replay must not join. Full-range words saturate some sums.
JOINABLE_OPS = sorted([*ELEMENTWISE, *LUT_NAMES])


@st.composite
def elementwise_runs(draw):
    """Element-wise blocks then halt, the start offsets, and whether the
    blocks continue exactly (so replay must join them into one call)."""
    mode = draw(st.sampled_from(JOINABLE_OPS))
    lengths = draw(st.lists(st.integers(0, 6), min_size=2, max_size=4))
    change = draw(st.sampled_from(("none", "in place", "gap X", "gap Y", "gap Z", "other op",
                                   "X over Z", "Y over Z", "offset")))
    x, y = draw(st.integers(0, 4)), draw(st.integers(40, 44))
    z = {"in place": x,
         "X over Z": max(0, x + lengths[0] + draw(st.integers(-2, 2))),
         "Y over Z": y + lengths[0] + draw(st.integers(-2, 2))}.get(
        change, draw(st.integers(100, 104)))
    moved = None if change in ("none", "in place", "X over Z", "Y over Z") else draw(
        st.integers(1, len(lengths) - 1))
    other = draw(st.sampled_from([op for op in VECTOR_OPS if op not in (mode, Opcode.MVMUL)]))
    offsets = tuple(draw(st.integers(1, 3)) for _ in range(3)) if change == "offset" else (0, 0, 0)
    program = []
    for i, n in enumerate(lengths):
        step = draw(st.integers(1, 2)) if i == moved else 0
        x, y, z = x + step * (change == "gap X"), y + step * (change == "gap Y"), z + step * (
            change == "gap Z")
        shift = offsets if i == moved else (0, 0, 0)
        program.append(MacroInstruction(
            mode=other if i == moved and change == "other op" else mode, length=n,
            addr_x=x - shift[0], addr_y=y - shift[1], addr_z=z - shift[2],
            off_x=any(shift), off_y=any(shift), off_z=any(shift)))
        x, y, z = x + n, y + n * (mode not in LUT_NAMES), z + n
    return program + [halt()], offsets, change in ("none", "in place")


def _block(mode, n, x, y, z):
    return MacroInstruction(mode=mode, length=n, addr_x=x, addr_y=y, addr_z=z)


RAMP = [i * FX_ONE // 4 - 20 * FX_ONE for i in range(FUSED_WORDS)]


@settings(max_examples=150, deadline=None)
@given(blocks=elementwise_runs(),
       image=st.lists(words, min_size=FUSED_WORDS, max_size=FUSED_WORDS))
@example(  # the LSTM's gate sigmoids: three in-place blocks, one call
    blocks=([_block(Opcode.VSIG, 4, x, 0, x) for x in (8, 12, 16)] + [halt()], (0, 0, 0), True),
    image=RAMP)
@example(  # a gap in Y: two calls
    blocks=([_block(Opcode.VADD, 3, 0, 40, 100), _block(Opcode.VADD, 3, 3, 44, 103), halt()],
            (0, 0, 0), False),
    image=RAMP)
@example(  # the second block reads what the first wrote: two calls
    blocks=([_block(Opcode.VSIG, 3, 0, 0, 3), _block(Opcode.VSIG, 3, 3, 0, 6), halt()],
            (0, 0, 0), False),
    image=RAMP)
def test_joined_elementwise_replay_matches_stepping(blocks, image):
    """`run` records a run of element-wise blocks, then replays it, joined
    into one kernel call where it may be; both leave exactly what stepping
    leaves."""
    program, offsets, exact = blocks

    def fresh(config):
        state = load(config, program, image)
        state.off_x, state.off_y, state.off_z = offsets
        return state

    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, **FUSED_CONFIG)
        want = _outcome(stepped, fresh(config), None)
        for _ in range(2):
            assert _outcome(run, fresh(config), None) == want, f"n_track={n_track}"
        if exact:
            trace = next(reversed(machine._TRACES.values()))
            assert len(trace.runs) == 1 and len(trace.runs[0][1]) == len(program) - 1


# Loops as codegen emits the KS inner loop and the kernel-machine loop: an
# entry regload sets the offsets, then each of 1 to 40 iterations runs a chain
# of maps over strided inputs (off_x, off_y), fixed inputs and the Z of an
# earlier map, ends in a VADD accumulate Z = Z + T onto a fixed Z and moves the
# offsets by regaddi; a moving Vadd before the loop and a Vsgt after it. Replay
# must batch such a loop into one call. One change of UNBATCHED keeps it
# unbatched: a map that reads the accumulator, a map that reads a Z before the
# iteration writes it, a Z moved by off_z, a Z over a strided input, or a
# regload in the body. Full-range words saturate some sums part-way.
BATCH_WORDS = 400
BATCH_INPUTS = 256  # inputs below, fixed Z ranges from here, one word apart
BATCH_BASE = 120  # off_x and off_y after the entry regload; off_z is 0
MOVING_Z = 300  # where a Z moved by off_z starts
BATCH_SLOT = 394  # the entry regload's three words
MAP_OPS = sorted([*ELEMENTWISE, *LUT_NAMES, Opcode.VSSGT, Opcode.VMAXABS, Opcode.VSQNORM])
UNBATCHED = ("reads acc", "read before write", "strided Z", "Z over strided X", "regload")


def _map_op(op, n, x, z, y=0, off_x=False, off_y=False, off_z=False):
    return MacroInstruction(mode=op, length=n, addr_x=x, addr_y=y, addr_z=z,
                            off_x=off_x, off_y=off_y, off_z=off_z)


@st.composite
def batched_loops(draw):
    """A looped program and whether replay must batch its loop."""
    count, change = draw(st.integers(1, 40)), draw(st.sampled_from(("none",) * 5 + UNBATCHED))
    written, cursor = [], [BATCH_INPUTS]  # (first word, words) of each Z so far

    def new_z(n):
        cursor[0] += n + 1
        return cursor[0] - n - 1

    def read(n):
        """(first word, strided) of an n-word read."""
        earlier = [a for a, m in written if m == n]
        kind = draw(st.sampled_from(["strided", "fixed"] + ["earlier"] * bool(earlier)))
        if kind == "earlier":
            return draw(st.sampled_from(earlier)), False
        if kind == "strided":
            return draw(st.integers(0, 10)), True
        return draw(st.integers(0, BATCH_INPUTS - n)), False

    body = []
    for _ in range(draw(st.integers(0, 3))):
        op, n = draw(st.sampled_from(MAP_OPS)), draw(st.integers(1, 6))
        x, off_x = read(n)
        y, off_y = (0, False) if op in LUT_NAMES or op in (Opcode.VMAXABS, Opcode.VSQNORM) else (
            read(1 if op is Opcode.VSSGT else n))
        nz = 1 if op in (Opcode.VMAXABS, Opcode.VSQNORM) else n
        body.append(_map_op(op, n, x, new_z(nz), y, off_x, off_y))
        written.append((body[-1].addr_z, nz))
    n = draw(st.integers(1, 6))
    (t, strided), acc = read(n), new_z(n)
    if draw(st.booleans()):  # Z = T + Z
        accumulate = _map_op(Opcode.VADD, n, t, acc, acc, off_x=strided)
    else:
        accumulate = _map_op(Opcode.VADD, n, acc, acc, t, off_y=strided)
    at, steps = draw(st.integers(0, len(body))), [draw(st.integers(-3, 3)) for _ in range(2)]
    op = draw(st.sampled_from([Opcode.VSUB, Opcode.VMUL, Opcode.VSIG, Opcode.VTANH]))
    if change == "reads acc":
        body.insert(at, _map_op(op, n, acc, new_z(n), draw(st.integers(0, 200))))
    elif change == "read before write":  # the Z of a map at or after it
        later = [(inst.addr_z, inst.length) for inst in body[at:] if inst.mode in ELEMENTWISE]
        if later and draw(st.booleans()):
            x, m = draw(st.sampled_from(later))
            body.insert(at, _map_op(op, m, x, new_z(m), draw(st.integers(0, 200))))
        else:
            m = draw(st.integers(1, 6))
            z = new_z(m)
            body.insert(at, _map_op(op, m, z, z, draw(st.integers(0, 200))))
    elif change == "strided Z":
        body.insert(at, _map_op(op, n, draw(st.integers(0, 200)), MOVING_Z, off_z=True))
        steps.append(draw(st.integers(1, 2)))
    elif change == "Z over strided X":
        x, k = draw(st.integers(0, 10)), draw(st.integers(0, count - 1))
        z = max(0, x + BATCH_BASE + k * steps[0] + draw(st.integers(-n + 1, n - 1)))
        body.insert(at, _map_op(op, n, x, z, draw(st.integers(0, 200)), off_x=True))
    elif change == "regload":
        body.insert(at, regload(GROUP_OFFSET, BATCH_SLOT))
    body.append(accumulate)
    body += [regaddi(reg, step) for reg, step in enumerate(steps) if step]
    program = [_map_op(Opcode.VADD, 2, 250, 240, 252, off_z=True),
               regload(GROUP_OFFSET, BATCH_SLOT), loop(len(body) + 2, count - 1), *body,
               _map_op(Opcode.VSGT, 1, acc, new_z(1), 0), halt()]
    return program, change == "none" and count > 1


def _batch_image(pairs):
    image = [0] * BATCH_WORDS
    for addr, values in pairs:
        image[addr : addr + len(values)] = values
    return image


@settings(max_examples=100, deadline=None)
@given(
    loop=batched_loops(),
    image=st.lists(words, min_size=BATCH_WORDS, max_size=BATCH_WORDS),
    shift=st.integers(1, 8),
    max_cycles=st.one_of(st.none(), st.none(), st.integers(0, 2_000)),
)
@example(  # the KS inner loop: a count vector added up over eight errors
    loop=(assemble("""
    regload group=offset addr=394
    loop end=4 n=7
    vssgt length=4 x=20 y=0 z=256 offy
    vadd length=4 x=261 y=256 z=261
    regaddi reg=off_y imm=1
    halt
    """), True),
    image=_batch_image([(20, [0, FX_ONE, 2 * FX_ONE, 3 * FX_ONE]),
                        (BATCH_BASE, [i * FX_ONE // 2 for i in range(8)]),
                        (BATCH_SLOT, [BATCH_BASE, BATCH_BASE, 0])]),
    shift=1, max_cycles=None,
)
@example(  # sums that leave the range and come back: only the running sum is exact
    loop=(assemble("""
    regload group=offset addr=394
    loop end=3 n=4
    vadd length=2 x=0 y=260 z=260 offx
    regaddi reg=off_x imm=2
    halt
    """), True),
    image=_batch_image([(260, [FX_MAX - 5, FX_MIN + 5]),
                        (BATCH_BASE, [10, -10, -20, 20, FX_MAX, FX_MIN, FX_MIN, FX_MAX, 3, -3]),
                        (BATCH_SLOT, [BATCH_BASE, BATCH_BASE, 0])]),
    shift=1, max_cycles=None,
)
@example(  # VADD terms, not compare results, that saturate a sum from 0
    loop=(assemble("""
    regload group=offset addr=394
    loop end=4 n=3
    vadd length=2 x=0 y=20 z=256 offx
    vadd length=2 x=261 y=256 z=261
    regaddi reg=off_x imm=2
    halt
    """), True),
    image=_batch_image([(20, [FX_ONE, -FX_ONE]),
                        (BATCH_BASE, [FX_MAX // 2, FX_MIN // 2] * 4),
                        (BATCH_SLOT, [BATCH_BASE, BATCH_BASE, 0])]),
    shift=1, max_cycles=None,
)
def test_batched_loop_replay_matches_stepping(loop, image, shift, max_cycles):
    """`run`, recording a loop and then replaying it, leaves exactly what
    stepping leaves, traps included, and batches the loop where it must. A
    second state of the program starts with off_z moved; each state runs
    again from where its first run left the registers."""
    program, exact = loop
    image[BATCH_SLOT : BATCH_SLOT + 3] = [BATCH_BASE, BATCH_BASE, 0]
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, data_mem_words=BATCH_WORDS)
        for off_z in (0, shift):
            states = [load(config, program, image) for _ in range(2)]
            for state in states:
                state.off_z = off_z
            for _ in range(2):
                got = _outcome(run, states[0], max_cycles)
                assert got == _outcome(stepped, states[1], max_cycles), f"n_track={n_track}"
                if got[0] is not None:
                    break
                trace = next(reversed(machine._TRACES.values()))
                assert any(kernel is machine._batched for kernel, *_ in trace.runs) == exact
                for state in states:
                    state.pc, state.halted = 0, False


# Folded traces: programs shaped like the KS stage. An outer loop spills its
# loop registers, resets a range with VSUB a, a, a, counts with a compare and a
# VADD accumulate in an inner loop (maybe after a VSUB b, b into another range),
# reloads the spill and moves the offsets on. A data write into the spill slot,
# an operand moved by the entry-relative offsets, and accumulator words near
# FX_MAX that no reset zeroes decide which runs the recording may fold.
FOLD_WORDS = 104
FOLD_ERRS, FOLD_ACC, FOLD_TMP, FOLD_OTHER, FOLD_B, FOLD_C = 24, 40, 48, 56, 64, 72
FOLD_SLOT, FOLD_ZEROS = 88, 96  # the loop spill; zeros for the entry regload


@st.composite
def folded_programs(draw):
    """(program, spill write kind, whether the spill's guard must stay, a
    zero-fill must be folded, the inner loop must batch)."""
    n, count, refs = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    entry = draw(st.booleans())  # offsets <- 0, so nothing moves and the inner loop batches
    write = draw(st.sampled_from(("none", "none", "same", "other")))
    # A VADD onto slot words, of data or, "same", of the zeros, which an
    # offset moved by a second start before the inner loop changes to data.
    k, before = draw(st.integers(0, 2)), draw(st.booleans())
    spill_write = _map_op(Opcode.VADD, draw(st.integers(1, 3 - k)), FOLD_SLOT + k,
                          FOLD_SLOT + k, FOLD_ZEROS if write == "same" else FOLD_B,
                          off_y=write == "same" and before)
    moves = [draw(st.booleans()) for _ in range(3)]  # the reset's offset flags
    reset = draw(st.sampled_from((FOLD_ACC, FOLD_OTHER)))
    compare = _map_op(draw(st.sampled_from((Opcode.VSGT, Opcode.VSSGT))), n, 0, FOLD_TMP,
                      FOLD_ERRS, off_x=True, off_y=True)
    accumulate = (_map_op(Opcode.VADD, n, FOLD_ACC, FOLD_ACC, FOLD_TMP) if draw(st.booleans())
                  else _map_op(Opcode.VADD, n, FOLD_TMP, FOLD_ACC, FOLD_ACC))
    inner = [*[_map_op(Opcode.VSUB, n, FOLD_B, FOLD_C, FOLD_B)] * draw(st.booleans()),
             compare, accumulate, regaddi(1, 1)]
    spill = [spill_write] if write != "none" else []
    program = [regload(GROUP_OFFSET, FOLD_ZEROS)] * entry
    outer = len(program)
    program += [None, regstore(GROUP_LOOP, FOLD_SLOT), *spill * before,
                _map_op(Opcode.VSUB, n, reset, reset, reset, *moves)]
    program.append(loop(len(program) + len(inner), count - 1))
    program += [*inner, *spill * (not before), regload(GROUP_LOOP, FOLD_SLOT),
                regaddi(1, -count), regaddi(0, draw(st.integers(0, n)))]
    program[outer] = loop(len(program) - 1, refs - 1)
    program.append(halt())
    kept = write != "none" or (not entry and moves[2])  # a moving Z may meet the slot
    return program, write, kept, entry or not (moves[0] or moves[1]), entry and count > 1


@settings(max_examples=100, deadline=None)
@given(
    case=folded_programs(),
    image=st.lists(words, min_size=FOLD_WORDS, max_size=FOLD_WORDS),
    near_max=st.lists(st.integers(0, 2 * FX_ONE), min_size=4, max_size=4),
    start=st.tuples(*[st.integers(0, 4)] * 3),
    max_cycles=st.one_of(st.none(), st.none(), st.integers(0, 600)),
)
@example(  # no reset of the accumulator: 3 x 6 compares of FX_ONE onto FX_MAX - 1
    case=([regload(GROUP_OFFSET, FOLD_ZEROS), loop(10, 2), regstore(GROUP_LOOP, FOLD_SLOT),
           _map_op(Opcode.VSUB, 4, FOLD_OTHER, FOLD_OTHER, FOLD_OTHER), loop(7, 5),
           _map_op(Opcode.VSGT, 4, 0, FOLD_TMP, FOLD_ERRS, off_x=True, off_y=True),
           _map_op(Opcode.VADD, 4, FOLD_ACC, FOLD_ACC, FOLD_TMP), regaddi(1, 1),
           regload(GROUP_LOOP, FOLD_SLOT), regaddi(1, -6), regaddi(0, 4), halt()],
          "none", False, True, True),
    image=[FX_MIN] * FOLD_WORDS, near_max=[1] * 4, start=(0, 0, 0), max_cycles=None,
)
def test_folded_replay_matches_stepping(case, image, near_max, start, max_cycles):
    """`run`, recording and then replaying a trace with folded runs, leaves
    exactly what stepping leaves, traps included: a spill's guard is dropped
    only with no write into its slot since its regstore, a VSUB of X from
    itself is a zero-fill only where X and Y do not move, and the loop after
    a folded reset still batches, its compare-fed sums saturating."""
    program, write, kept, folded, batched = case
    image[FOLD_ACC : FOLD_ACC + 4] = [FX_MAX - d for d in near_max]
    image[FOLD_ZEROS : FOLD_ZEROS + 3] = [0, 0, 0]
    if max_cycles is None and write == "other":
        max_cycles = 5_000  # loop registers made of data can loop without end
    for n_track in (1, 2, 4, 8):
        config = MachineConfig(n_track=n_track, data_mem_words=FOLD_WORDS)
        for offsets in ((0, 0, 0), start):
            states = [load(config, program, image) for _ in range(2)]
            for state in states:
                state.off_x, state.off_y, state.off_z = offsets
            for again in range(2):
                got = _outcome(run, states[0], max_cycles)
                assert got == _outcome(stepped, states[1], max_cycles), f"n_track={n_track}"
                if got[0] is not None:
                    break
                if not again and offsets == (0, 0, 0):
                    runs = next(reversed(machine._TRACES.values())).runs
                    assert any(k is machine._guard and z == slice(FOLD_SLOT, FOLD_SLOT + 3)
                               for k, _, _, _, z in runs) == kept
                    assert any(k is machine._put_words and type(y) is int and z.start != FOLD_C
                               for k, _, _, y, z in runs) == folded  # the reset's
                    if write != "other":
                        assert any(k is machine._batched for k, *_ in runs) == batched
                for state in states:
                    state.pc, state.halted = 0, False


# Compiler differential: small random bundles of every compilable kind, run at
# every n_track against the float oracle within criterion 3's bound.
TOL = 2**-8
N_TRACKS = (1, 2, 4, 8)


def _quantize(values):
    return fx_array(values).astype(np.float64) / FX_ONE


def random_bundle(kind, dim, n, rng):
    """A bundle of `kind` over `dim` inputs with `n` support vectors or hidden units."""
    seed = int(rng.integers(1 << 16))
    if kind == "lr":
        return ModelBundle("lr", {"w": rng.normal(0, 0.3, size=dim), "b": rng.normal(0, 0.2)})
    if kind == "mlp":
        return init_mlp([dim, n, 2], seed=seed)
    if kind in ("lstm", "gru"):
        return init_rnn(kind, n, dim, seed=seed)
    sv = _quantize(rng.uniform(-2, 2, size=(n, dim)))
    if kind == "ocsvm":
        return ModelBundle("ocsvm", {"coef": rng.dirichlet(np.ones(n)), "sv": sv,
                                     "rho": rng.uniform(0, 0.5), "gamma": rng.uniform(0.1, 1)})
    tensors = {"coef": rng.normal(0, 0.2, size=n), "sv": sv, "b": rng.normal(0, 0.1)}
    if kind == "kernel_svm":
        tensors["gamma"] = rng.uniform(0.1, 1)
    return ModelBundle(kind, tensors)


def float_outputs(m, x):
    """The oracle's value of each output symbol but `decision`, the decision's
    margin and whether it is the positive one."""
    if m.kind == "lr":
        prob = infer_lr(m, x)
        return {"prob": [prob]}, prob - 0.5, prob >= 0.5
    if m.kind == "mlp":
        logits = mlp_logits(m, x)
        return {"logits": logits}, logits[1] - logits[0], logits[1] >= logits[0]
    if m.kind == "ocsvm":
        anomaly, score = infer_ocsvm(m, x)
        return {"score": [score]}, score, not anomaly
    label, score = infer_svm(m, x)
    return {"score": [score]}, score, label > 0


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(("lr", "linear_svm", "mlp", "kernel_svm", "ocsvm", "lstm", "gru")),
    dim=st.integers(1, 6),
    n=st.integers(1, 8),
    seed=st.integers(0, (1 << 32) - 1),
)
def test_compiled_bundles_match_float_oracle(kind, dim, n, seed):
    rng = np.random.default_rng(seed)
    m = random_bundle(kind, dim, n, rng)
    if kind in ("lstm", "gru"):
        readings = _quantize(rng.uniform(-1.5, 1.5, size=(4, dim)))
        want = predict_series(m, readings)
        for n_track in N_TRACKS:
            config = MachineConfig(n_track=n_track)
            runner = StepRunner(compile_model(m, config), config)
            for reading in readings:
                runner.step(reading)
            assert np.abs(runner.errors() - want).max() <= TOL, f"n_track={n_track}"
        return
    x = _quantize(rng.uniform(-2, 2, size=dim))
    want, margin, positive = float_outputs(m, x)
    names = (*want, "decision")
    strategies = ("looped", "unrolled") if kind in ("kernel_svm", "ocsvm") else ("looped",)
    for n_track in N_TRACKS:
        config = MachineConfig(n_track=n_track)
        words = []
        for strategy in strategies:
            prog = compile_model(m, config, strategy)
            got, state = run_feedforward(prog, config, x, outputs=names)
            for name, values in want.items():
                assert np.abs(got[name] - values).max() <= TOL, (strategy, n_track, name)
            if abs(margin) > TOL:
                assert bool(got["decision"][0]) == positive, (strategy, n_track)
            words.append([state.memory[prog.addr(name) : prog.addr(name) + prog.length(name)].tolist()
                          for name in names])
        assert all(w == words[0] for w in words), f"looped and unrolled differ at n_track={n_track}"


u32 = st.integers(0, (1 << 32) - 1)


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(["vector", "loop", "regaddi", "reg", "halt"]))
    if kind == "loop":
        return loop(draw(u32), draw(u32))
    if kind == "regaddi":
        return regaddi(draw(st.integers(0, 2)), draw(st.integers(-(1 << 31), (1 << 31) - 1)))
    if kind == "reg":
        return MacroInstruction(
            mode=draw(st.sampled_from([Opcode.REGSTORE, Opcode.REGLOAD])),
            length=draw(st.integers(0, MAX_LEN)),
            addr_z=draw(st.integers(0, MAX_ADDR)),
            off_z=draw(st.booleans()),
        )
    if kind == "halt":
        return halt()
    lengths, addrs = st.integers(0, MAX_LEN), st.integers(0, MAX_ADDR)
    return MacroInstruction(
        mode=draw(st.sampled_from(VECTOR_OPS)),
        length=draw(lengths),
        width=draw(lengths),
        addr_x=draw(addrs),
        addr_y=draw(addrs),
        addr_z=draw(addrs),
        off_x=draw(st.booleans()),
        off_y=draw(st.booleans()),
        off_z=draw(st.booleans()),
    )


@settings(deadline=None)
@given(st.lists(instructions(), max_size=20))
def test_assemble_disassemble_round_trip(program):
    assert assemble(disassemble(program)) == program
    assert program_from_bytes(program_to_bytes(program)) == program
    assert [decode(encode(inst)) for inst in program] == program


_PROGRAM = [loop(3, 2), regaddi(1, -7), MVMUL_PATHS[0][0], halt()]
_BUNDLE = ModelBundle(
    "lstm",
    {"Wc": np.arange(6.0).reshape(2, 3), "bc": np.ones(2), "scale": np.float64(0.5)},
)
# reader name -> (serialized input, reader)
SERIALIZED = {
    "program": (program_to_bytes(_PROGRAM), program_from_bytes),
    "image": (image_to_bytes(np.arange(-5, 20, dtype=np.int32)), image_from_bytes),
    "bundle": (bundle_to_bytes(_BUNDLE), bundle_from_bytes),
}
# reader name -> ways to make a whole input malformed other than by a cut
CORRUPTED = {
    "bundle": [lambda blob, data: blob + data.draw(st.binary(min_size=1), label="tail")],
}


@settings(deadline=None)
@given(name=st.sampled_from(sorted(SERIALIZED)), data=st.data())
def test_truncated_binary_inputs_raise_domain_errors(name, data):
    blob, read = SERIALIZED[name]
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    if name == "program" and cut % INSTRUCTION_BYTES == 0:
        # Program files have no header: a whole-instruction prefix is a program.
        assert read(blob[:cut]) == _PROGRAM[: cut // INSTRUCTION_BYTES]
        return
    with pytest.raises(DOMAIN_ERRORS) as info:  # never struct.error
        read(blob[:cut])
    assert "\n" not in str(info.value)
    for corrupt in CORRUPTED.get(name, ()):
        with pytest.raises(DOMAIN_ERRORS) as info:
            read(corrupt(blob, data))
        assert "\n" not in str(info.value)


def bisection_projection(v, cap):
    """Capped-simplex projection by 100 bisection steps on the shift t."""
    lo = v.min() - 1.0
    hi = v.max() + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, cap).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, cap)


@st.composite
def capped_simplex_inputs(draw):
    """(v, cap) with cap * n >= 1, as train_ocsvm's cap = 1 / max(nu * n, 1)."""
    n = draw(st.integers(1, 40), label="n")
    unit = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-0.5, 0.0, 0.25, 1.0]))  # ties
    v = np.array(draw(st.lists(unit, min_size=n, max_size=n), label="v"))
    # Up to 1e2: beyond it, one ulp of the shift times n free entries nears 1e-12.
    v *= draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e2]), label="scale")
    nu = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)), label="nu")  # 1.0: cap * n == 1
    return v, 1.0 / max(nu * n, 1.0)


@settings(max_examples=300, deadline=None)
@given(capped_simplex_inputs())
@example((np.full(7, 1.0 / 7), 1.0 / 7))  # cap * n == 1: every entry at the cap
@example((np.array([3.0]), 1.0))  # n == 1
@example((np.array([2.0, 2.0, 2.0, -1.0]), 0.5))  # ties straddling the cap
def test_capped_simplex_projection_matches_bisection(inputs):
    v, cap = inputs
    a = _project_capped_simplex(v, cap)
    assert np.abs(a - bisection_projection(v, cap)).max() <= 1e-12
    assert abs(a.sum() - 1.0) <= 1e-12
    assert np.all((a >= 0.0) & (a <= cap))


@st.composite
def signed_zero_simplex_inputs(draw):
    """(v, cap) whose entries include -0.0 and +0.0, ties, and values at +-cap."""
    n = draw(st.integers(1, 40), label="n")
    nu = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)), label="nu")
    cap = 1.0 / max(nu * n, 1.0)
    unit = st.one_of(st.floats(-1.0, 1.0),
                     st.sampled_from([-0.0, 0.0, 0.25, -0.5, 1.0, cap, -cap, 1.0 / n]))
    v = np.array(draw(st.lists(unit, min_size=n, max_size=n), label="v"))
    return v * draw(st.sampled_from([1.0, 1e-3, 1e2]), label="scale"), cap


@settings(max_examples=300, deadline=None)
@given(signed_zero_simplex_inputs())
@example((np.full(7, 1.0 / 7), 1.0 / 7))  # every entry at the cap
@example((np.array([-0.0, 0.0, -0.0]), 1.0))  # signed zeros, a three-way tie
@example((np.array([0.5, 0.5, -0.0, 0.0]), 0.5))  # two entries that end at the cap
def test_capped_simplex_projection_matches_clip_form_bit_for_bit(inputs):
    v, cap = inputs
    want = project_capped_simplex_clip(v, cap)
    assert _project_capped_simplex(v, cap).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 24), n_sv=st.integers(1, 20), rows=st.integers(0, 40),
       seed=st.integers(0, (1 << 32) - 1), grid=st.booleans(), trained=st.booleans())
def test_batched_ocsvm_matches_per_row_calls_bit_for_bit(dim, n_sv, rows, seed, grid, trained):
    """One kernel evaluation over the rows of X scores each row as its own call does.

    `grid` draws KS-statistic-like values on a 1/40 grid (ties); `trained`
    fits the model as local detection does, else its tensors are random.
    """
    rng = np.random.default_rng(seed)
    def draw(*shape):
        return rng.integers(0, 41, size=shape) / 40 if grid else rng.uniform(0, 1, size=shape)
    if trained:
        m = train_ocsvm(draw(n_sv, dim), gamma=2.0, nu=0.1)
    else:
        m = ModelBundle("ocsvm", {"coef": rng.dirichlet(np.ones(n_sv)), "sv": draw(n_sv, dim),
                                  "rho": rng.uniform(0, 1), "gamma": rng.uniform(0.1, 4)})
    X = draw(rows, dim)
    flags, scores = infer_ocsvm(m, X)
    singles = [infer_ocsvm(m, x) for x in X]
    assert scores.tobytes() == np.array([score for _, score in singles], dtype=float).tobytes()
    assert flags.tolist() == [flag for flag, _ in singles]


# A coarse grid makes ties within and across samples likely.
_ks_values = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(_ks_values, min_size=1, max_size=30),
    refs=st.integers(1, 30).flatmap(
        lambda m: st.lists(st.lists(_ks_values, min_size=m, max_size=m), min_size=1, max_size=6)
    ),
)
def test_stacked_ks_statistic_matches_per_reference_calls(a, refs):
    stacked = ks_statistic(a, np.array(refs))
    assert stacked.tolist() == [ks_statistic(a, r) for r in refs]
    for d, r in zip(stacked, refs):  # and the counting definition, bit for bit
        assert d == max(abs(sum(v <= x for v in a) / len(a) - sum(v <= x for v in r) / len(r))
                        for x in a + r)


@settings(max_examples=200, deadline=None)
@given(
    windows=st.integers(1, 30).flatmap(
        lambda n: st.lists(st.lists(_ks_values, min_size=n, max_size=n), min_size=1, max_size=6)
    ),
    refs=st.integers(1, 30).flatmap(
        lambda m: st.lists(st.lists(_ks_values, min_size=m, max_size=m), min_size=1, max_size=6)
    ),
)
def test_stacked_ks_statistic_matches_per_window_calls(windows, refs):
    stacked = ks_statistic(np.array(windows), np.array(refs))
    assert stacked.shape == (len(windows), len(refs))
    assert stacked.tolist() == [[ks_statistic(w, r) for r in refs] for w in windows]

