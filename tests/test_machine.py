import math
import random
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from sid.fixedpoint import FX_MAX, FX_ONE, fx_array, fx_from_real
from sid.isa import GROUP_LOOP, MacroInstruction, Opcode, halt, loop, regaddi, regload, regstore
from sid import machine
from sid.machine import (
    LoadError,
    MachineConfig,
    MachineTrap,
    instruction_cycles,
    load,
    profile,
    image_from_bytes,
    image_to_bytes,
    run,
)

from oracles import assemble, full_state, real_array, stepped


def vec_op(op, length, x, y, z, **kw):
    return MacroInstruction(mode=op, length=length, addr_x=x, addr_y=y, addr_z=z, **kw)


def fresh(program, image_pairs=(), config=None):
    """Build a state with (addr, values) pairs poked into the image."""
    config = config or MachineConfig()
    image = np.zeros(4096, dtype=np.int32)
    for addr, values in image_pairs:
        arr = fx_array(values)
        image[addr : addr + len(arr)] = arr
    return load(config, program, image)


def test_load_rejects_oversize():
    config = MachineConfig()
    with pytest.raises(LoadError, match="8193"):
        load(config, [halt()] * 8193, [])
    with pytest.raises(LoadError, match="words"):
        load(config, [halt()], np.zeros(config.data_mem_words + 1, dtype=np.int32))


def test_config_needs_a_lane_and_a_scratchpad_word():
    for name in ("n_track", "n_local"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {value}$"):
                MachineConfig(**{name: value})


def test_empty_program_halts():
    state = fresh([])
    report = run(state)
    assert state.halted and report.cycles == 0


def test_halt_costs_one_cycle():
    report = run(fresh([halt()]))
    assert report.cycles == 1


def test_image_roundtrip_through_state():
    state = fresh([halt()], [(100, [1.5, -2.0, 3.25])])
    assert list(real_array(state.memory[100:103])) == [1.5, -2.0, 3.25]


def test_vadd_and_friends():
    program = [
        vec_op(Opcode.VADD, 4, 0, 8, 16),
        vec_op(Opcode.VSUB, 4, 0, 0, 24),
        vec_op(Opcode.VMUL, 4, 0, 32, 40),
        halt(),
    ]
    state = fresh(
        program,
        [(0, [1, 2, 3, 4]), (8, [10, 20, 30, 40]), (32, [1, 1, 1, 1])],
    )
    run(state)
    assert list(real_array(state.memory[16:20])) == [11, 22, 33, 44]
    assert list(real_array(state.memory[24:28])) == [0, 0, 0, 0]
    assert list(real_array(state.memory[40:44])) == [1, 2, 3, 4]


def test_vsgt_inclusive_vssgt_strict():
    program = [
        vec_op(Opcode.VSGT, 2, 0, 4, 8),
        vec_op(Opcode.VSSGT, 3, 16, 24, 32),
        halt(),
    ]
    state = fresh(
        program,
        [(0, [1, 5]), (4, [2, 5]), (16, [1, 2, 3]), (24, [2])],
    )
    run(state)
    assert list(real_array(state.memory[8:10])) == [0, 1]  # >= is inclusive
    assert list(real_array(state.memory[32:35])) == [0, 0, 1]  # > is strict


def test_lut_modes():
    program = [
        vec_op(Opcode.VSIG, 2, 0, 0, 8),
        vec_op(Opcode.VTANH, 1, 2, 0, 12),
        vec_op(Opcode.VEXP, 1, 3, 0, 13),
        halt(),
    ]
    state = fresh(program, [(0, [0.0, 0.0, 0.0, 0.0])])
    run(state)
    out = real_array(state.memory[8:10])
    assert abs(out[0] - 0.5) <= 1e-3 and abs(out[1] - 0.5) <= 1e-3
    assert abs(real_array(state.memory[12:13])[0]) <= 1e-3
    assert abs(real_array(state.memory[13:14])[0] - 1.0) <= 2e-3


def test_mvmul_selector_rows_and_bias_accumulate():
    # W = [[1,0,0],[0,1,0]] selects the first two x entries.
    program = [vec_op(Opcode.MVMUL, 3, 0, 8, 16, width=2), halt()]
    state = fresh(program, [(0, [1, 0, 0, 0, 1, 0]), (8, [5, 6, 7])])
    run(state)
    assert list(real_array(state.memory[16:18])) == [5, 6]

    # Z preset to a bias and W zero: accumulate-into-destination keeps the bias.
    program = [vec_op(Opcode.MVMUL, 3, 0, 8, 16, width=2), halt()]
    state = fresh(program, [(0, [0] * 6), (8, [5, 6, 7]), (16, [1, 1])])
    run(state)
    assert list(real_array(state.memory[16:18])) == [1, 1]


def test_mvmul_matches_float_oracle():
    rng = np.random.default_rng(10)
    w = rng.uniform(-1, 1, size=(5, 8))
    x = rng.uniform(-1, 1, size=8)
    program = [vec_op(Opcode.MVMUL, 8, 0, 64, 128, width=5), halt()]
    state = fresh(program, [(0, w.reshape(-1)), (64, x)])
    run(state)
    got = real_array(state.memory[128:133])
    assert np.abs(got - w @ x).max() <= 2**-8


def test_mvmul_width_trap():
    program = [vec_op(Opcode.MVMUL, 4, 0, 64, 128, width=65), halt()]
    state = fresh(program)
    with pytest.raises(MachineTrap, match="scratchpad"):
        run(state)


def test_vmaxabs_vsqnorm():
    program = [
        vec_op(Opcode.VMAXABS, 3, 0, 0, 8),
        vec_op(Opcode.VSQNORM, 2, 4, 0, 9),
        halt(),
    ]
    state = fresh(program, [(0, [-3, 2, -7]), (4, [3, 4])])
    run(state)
    assert real_array(state.memory[8:9])[0] == 7
    assert real_array(state.memory[9:10])[0] == 25


def test_address_trap_leaves_memory_intact():
    config = MachineConfig()
    program = [vec_op(Opcode.VADD, 4, config.data_mem_words - 2, 0, 8), halt()]
    state = fresh(program, [(8, [9, 9, 9, 9])], config=config)
    before = state.memory.copy()
    with pytest.raises(MachineTrap, match="out of bounds"):
        run(state)
    assert np.array_equal(state.memory, before)


def test_loop_body_runs_n_plus_one_times():
    # Accumulate 1.0 into addr 64 inside a loop with n=9: 10 executions.
    program = [
        loop(1, 9),
        vec_op(Opcode.VADD, 1, 64, 65, 64),
        halt(),
    ]
    state = fresh(program, [(65, [1.0])])
    run(state)
    assert real_array(state.memory[64:65])[0] == 10.0


def test_loop_n_zero_falls_through():
    program = [loop(1, 0), vec_op(Opcode.VADD, 1, 64, 65, 64), halt()]
    state = fresh(program, [(65, [1.0])])
    run(state)
    assert real_array(state.memory[64:65])[0] == 1.0


def test_regaddi_accumulates():
    program = [regaddi(0, 6), regaddi(0, 6), halt()]
    state = fresh(program)
    run(state)
    assert state.off_x == 12


def test_offset_enable_applies_per_operand():
    program = [
        regaddi(1, 2),  # off_y = 2
        vec_op(Opcode.VADD, 2, 0, 8, 16, off_y=True),
        halt(),
    ]
    state = fresh(program, [(0, [1, 1]), (8, [5, 5]), (10, [7, 7])])
    run(state)
    assert list(real_array(state.memory[16:18])) == [8, 8]


def test_nested_loop_save_restore():
    # Outer loop over 3 iterations, inner loop over 2; saved registers make
    # the outer loop's state bit-identical after the inner loop finishes.
    text = """
    loop end=8 n=2
    regstore group=loop addr=200
    regstore group=offset addr=204
    loop end=5 n=1
    vadd length=1 x=64 y=65 z=64
    regaddi reg=off_x imm=1
    regload group=loop addr=200
    regload group=offset addr=204
    vadd length=1 x=66 y=65 z=66
    halt
    """
    program = assemble(text)
    state = fresh(program, [(65, [1.0])])
    run(state)
    assert real_array(state.memory[64:65])[0] == 6.0  # 3 outer * 2 inner
    assert real_array(state.memory[66:67])[0] == 3.0  # once per outer iter
    assert state.off_x == 0  # restored by the last regload


def test_cycle_formulas():
    config = MachineConfig(n_track=4)
    # One-dimension FSM: length 10 at 4 tracks is 3 iterations + 4 overhead.
    v = vec_op(Opcode.VADD, 10, 0, 16, 32)
    assert instruction_cycles(v, config) == 3 + 4
    # Matrix-vector FSM: width 5, length 8 at 4 tracks is 5*2 + 4.
    m = vec_op(Opcode.MVMUL, 8, 0, 64, 128, width=5)
    assert instruction_cycles(m, config) == 10 + 4
    assert instruction_cycles(loop(0, 0), config) == 1
    state = fresh([v, m, halt()])
    run(state)
    assert state.cycles == (3 + 4) + (10 + 4) + 1


def test_cycle_formula_random_instructions():
    rng = random.Random(11)
    for _ in range(200):
        n_track = rng.choice([1, 2, 3, 4, 8])
        config = MachineConfig(n_track=n_track)
        length = rng.randrange(0, 1 << 14)
        width = rng.randrange(0, 64)
        v = vec_op(Opcode.VSUB, length, 0, 0, 0)
        assert instruction_cycles(v, config) == math.ceil(length / n_track) + 4
        m = vec_op(Opcode.MVMUL, length, 0, 0, 0, width=width)
        assert instruction_cycles(m, config) == width * math.ceil(length / n_track) + 4


def test_n_track_invariance_small_program():
    text = """
    loop end=4 n=6
    vmul length=7 x=0 y=8 z=16 offy
    vadd length=7 x=16 y=24 z=24
    regaddi reg=off_y imm=1
    vmaxabs length=7 x=24 y=0 z=40
    vsqnorm length=7 x=24 y=0 z=41
    halt
    """
    program = assemble(text)
    rng = np.random.default_rng(12)
    image = np.zeros(128, dtype=np.int32)
    image[:32] = fx_array(rng.uniform(-2, 2, size=32))
    memories = []
    for n_track in (1, 2, 4, 8):
        state = load(MachineConfig(n_track=n_track), program, image)
        run(state)
        memories.append(state.memory.copy())
    for other in memories[1:]:
        assert np.array_equal(memories[0], other)


def test_determinism():
    program = assemble("vadd length=4 x=0 y=8 z=16\nhalt\n")
    image = np.arange(32, dtype=np.int32)
    r1 = run(load(MachineConfig(), program, image))
    r2 = run(load(MachineConfig(), program, image))
    assert r1 == r2


def test_run_report_keyvalues():
    report = run(fresh([halt()]))
    text = report.to_keyvalues()
    assert "cycles=1" in text and "wall_time_s=" in text


def test_cycle_budget_trap():
    program = [loop(1, (1 << 30)), vec_op(Opcode.VADD, 1, 0, 0, 0)]
    state = fresh(program)
    with pytest.raises(MachineTrap, match="budget"):
        run(state, max_cycles=10_000)


def test_image_bytes_roundtrip():
    words = np.array([1, -2, 3, FX_MAX], dtype=np.int32)
    assert np.array_equal(image_from_bytes(image_to_bytes(words)), words)
    with pytest.raises(LoadError):
        image_from_bytes(b"XXXX" + b"\x00" * 8)


def test_saturating_accumulation_order():
    # max + 1 - 1: sequential saturating evaluation pins the result at max.
    program = [vec_op(Opcode.MVMUL, 3, 0, 8, 16, width=1), halt()]
    state = fresh(program, [(0, [1.0, 1.0, 1.0])])
    big = FX_MAX - fx_from_real(0.5)
    state.words[8:11] = [big, fx_from_real(1.0), fx_from_real(-1.0)]
    run(state)
    assert state.memory[16] == FX_MAX - FX_ONE


def test_memory_is_a_read_only_view_of_words():
    state = fresh([halt()])
    with pytest.raises(ValueError, match="read-only"):
        state.memory[0] = 1
    state.words[0] = 1  # the host's and the kernels' way in
    assert state.memory[0] == 1


def test_writes_into_a_read_only_range_trap_naming_it():
    # [40, 44) and [44, 48) are adjacent, so they load as one range; an empty
    # range is dropped.
    ranges = [(44, 48), (40, 44), (20, 20)]
    cases = [
        ([vec_op(Opcode.VADD, 4, 0, 0, 36), vec_op(Opcode.VADD, 2, 0, 0, 46), halt()], 1,
         "write to [46, 48) meets read-only range [40, 48)"),
        ([vec_op(Opcode.VMAXABS, 4, 40, 0, 40), halt()], 0,
         "write to [40, 41) meets read-only range [40, 48)"),
        ([regstore(GROUP_LOOP, 38), halt()], 0, "write to [38, 41) meets read-only range [40, 48)"),
    ]
    for program, pc, reason in cases:
        image = [(0, [1.0, 2.0, 3.0, 4.0]), (40, [5.0] * 8)]
        outcomes = []
        for execute in (run, stepped):
            state = load(MachineConfig(), program, fresh([], image).memory, ranges)
            assert state.readonly == ((40, 48),)
            with pytest.raises(MachineTrap) as trap:
                execute(state)
            outcomes.append((str(trap.value), snapshot(state)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == f"trap at pc={pc}: {reason}"
        assert list(real_array(state.memory[40:48])) == [5.0] * 8
    # A write that ends where a read-only range starts, and reads of it, do not trap.
    state = load(MachineConfig(), [vec_op(Opcode.VADD, 4, 40, 44, 36), halt()],
                 fresh([], image).memory, ranges)
    run(state)
    assert list(real_array(state.memory[36:40])) == [10.0] * 4


def snapshot(state):
    return (state.memory.tolist(), state.scratchpad.tolist(), state.pc, state.halted,
            state.loop_begin, state.loop_end, state.loop_n, state.off_x, state.off_y,
            state.off_z, state.cycles, state.reads, state.writes)


NESTED = """
loop end=8 n=2
regstore group=loop addr=200
regstore group=offset addr=204
loop end=5 n=1
vadd length=1 x=64 y=65 z=64
regaddi reg=off_x imm=1
regload group=loop addr=200
regload group=offset addr=204
vadd length=1 x=66 y=65 z=66
halt
"""


def test_nested_run_matches_stepping_and_profile(monkeypatch):
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    program = assemble(NESTED)
    state = fresh(program, [(65, [1.0])])
    report = run(state)
    assert snapshot(state) == snapshot(stepped(fresh(program, [(65, [1.0])])))
    (trace,) = machine._TRACES.values()  # what the run recorded
    # A data run holds the tuple of its blocks; none of these join. The inner
    # loop's two vadds, each adding word 65 onto word 64, replay as one
    # batched run with no maps before its accumulate. Each regstore writes
    # the words it stored, and each guard, reading back those words with no
    # write to its slot since, is dropped.
    put, vadd = machine._put_words, machine._KERNELS[Opcode.VADD]
    kernels = [kernel for kernel, *_ in trace.runs]
    assert kernels == [put, put, machine._batched, vadd] * 3
    insts = [inst[0] if type(inst) is tuple else inst
             for kernel, inst, *_ in trace.runs[:4] if kernel is not machine._batched]
    assert [program.index(inst) for inst in insts] == [1, 2, 8]
    assert [z for *_, z in trace.runs[:2]] == [slice(200, 203), slice(204, 207)]
    assert [trace.runs[i][3].tolist() for i in range(0, 12, 4)] == [
        [1, 8, 2], [1, 8, 1], [1, 8, 0]]  # loop_begin, loop_end, loop_n
    assert all(trace.runs[i][3].tolist() == [0, 0, 0] for i in range(1, 12, 4))  # the offsets
    assert trace.runs[2][1] == (2, (), (slice(65, 66), slice(64, 65)))
    rows = profile(fresh(program, [(65, [1.0])]))
    totals = [sum(row[i] for row in rows.values()) for i in range(4)]
    assert totals == [1 + 3 * 10 + 1, report.cycles, report.reads, report.writes]
    assert rows[Opcode.LOOP][0] == 1 + 3


def test_invalid_trace_falls_back_to_interpreter(monkeypatch):
    # The vadd overwrites the saved loop count between the regstore and the
    # regload, so the loop exit depends on data.
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    program = assemble("""
    loop end=3 n=2
    regstore group=loop addr=200
    vadd length=1 x=64 y=65 z=202
    regload group=loop addr=200
    halt
    """)
    state = fresh(program)
    run(state)
    assert snapshot(state) == snapshot(stepped(fresh(program)))
    assert state.cycles == 4 + 5  # one pass: the stored count became 0
    # A count of 1 stored each pass never runs out: the regload's guard reads
    # other words than the recorded run, and the interpreter hits the budget.
    outcomes = []
    for execute in (run, stepped):
        state = fresh(program)
        state.words[65] = 1
        with pytest.raises(MachineTrap) as trap:
            execute(state, max_cycles=60)
        outcomes.append((str(trap.value), snapshot(state)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "trap at pc=3: cycle budget 60 exceeded"


def test_each_start_offset_records_one_trace(monkeypatch):
    # StepRunner's pattern: re-arm pc and run again, the error pointer (off_z)
    # one word further each time, until it leaves memory. The start offsets
    # are part of the trace key, so each start records once, and a fresh
    # state walking the same starts replays every run.
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    records = []
    record = machine._record
    monkeypatch.setattr(machine, "_record", lambda *args: records.append(1) or record(*args))
    program = [vec_op(Opcode.VSQNORM, 2, 0, 0, 60, off_z=True), regaddi(2, 1), halt()]
    config = MachineConfig(data_mem_words=64)
    replayed, reference = (load(config, program, fx_array([1.0, 2.0])) for _ in range(2))
    for _ in range(4):
        run(replayed)
        stepped(reference)
        assert snapshot(replayed) == snapshot(reference)
        for state in (replayed, reference):
            state.pc, state.halted = 0, False
    assert real_array(replayed.memory[60:64]).tolist() == [5.0] * 4
    with pytest.raises(MachineTrap) as trap:
        run(replayed)
    with pytest.raises(MachineTrap) as want:
        stepped(reference)
    assert str(trap.value) == str(want.value) == "trap at pc=0: address range [64, 65) out of bounds"
    assert snapshot(replayed) == snapshot(reference)
    assert len(records) == 5 and len(machine._TRACES) == 4  # a trapped run keeps no trace
    again = load(config, program, fx_array([1.0, 2.0]))  # a fresh state of the same program
    for _ in range(4):
        run(again)
        again.pc, again.halted = 0, False
    assert again.memory.tolist() == replayed.memory.tolist()
    assert len(records) == 5


def test_trace_recorded_inside_an_image_replays_past_it(monkeypatch):
    # Recorded on a state holding the whole data memory, where the sum at
    # off_z=10 lands inside its words; a fresh state's six-word image ends
    # before that write, so replay grows the state first.
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    interprets = []
    interpret = machine._interpret
    monkeypatch.setattr(machine, "_interpret",
                        lambda *args: interprets.append(1) or interpret(*args))
    program = [vec_op(Opcode.VADD, 2, 0, 2, 4, off_z=True), halt()]
    config = MachineConfig(data_mem_words=64)
    image = fx_array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0])
    recorded, reference = (full_state(config, program, image) for _ in range(2))
    replayed = load(config, program, image)
    for state in (recorded, replayed, reference):
        state.off_z = 10
    run(recorded)
    (trace,) = machine._TRACES.values()
    assert trace.reach == 16 and len(replayed.memory) == 6
    run(replayed)
    stepped(reference)
    assert len(replayed.memory) == 64
    assert snapshot(replayed) == snapshot(recorded) == snapshot(reference)
    assert real_array(replayed.memory[14:16]).tolist() == [4.0, 6.0]
    assert len(interprets) == 1


def test_programs_differing_in_one_field_never_share_a_trace(monkeypatch):
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    base = vec_op(Opcode.MVMUL, 2, 0, 8, 16, width=1)
    changes = [("mode", Opcode.VADD), ("length", 3), ("width", 2), ("addr_x", 1),
               ("addr_y", 9), ("addr_z", 17), ("off_x", True), ("off_y", True), ("off_z", True)]
    programs = [[base, halt()]] + [[replace(base, **{k: v}), halt()] for k, v in changes]

    def state(program):
        s = fresh(program, [(0, [1.0, 2.0, 3.0, 4.0]), (8, [0.5, -1.0, 2.0]), (16, [0.25])])
        s.off_x = s.off_y = s.off_z = 1  # so that each offset flag changes the result
        return s

    for program in programs:
        replayed = state(program)
        run(replayed)
        assert snapshot(replayed) == snapshot(stepped(state(program))), program[0]
    assert len(machine._TRACES) == len(programs)
    # The hash is only the key: a program filed under another's hash still
    # runs as itself.
    replayed = state(programs[1])
    replayed.program_hash = state(programs[0]).program_hash
    run(replayed)
    assert snapshot(replayed) == snapshot(stepped(state(programs[1])))
