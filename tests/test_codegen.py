import hashlib
import math
import re
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from sid import machine
from sid.codegen import (
    CompileError,
    StepRunner,
    compile_ks_stage,
    compile_model,
    code_size_report,
    fresh_state,
    read_symbol,
    run_feedforward,
    write_symbol,
)
from sid.detection import KsDecisionConfig, build_ped, ks_hardware, vote_decide
from sid.fixedpoint import FX_ONE, fx_array
from sid.isa import CONTROL_OPCODES, MacroInstruction, Opcode, halt, program_to_bytes
from sid.machine import MachineConfig, MachineTrap, image_to_bytes, run, step_instruction
from sid.models import (
    ModelBundle,
    infer_lr,
    infer_ocsvm,
    infer_svm,
    mlp_logits,
)
from sid.training import init_lstm, init_mlp, init_rnn

from oracles import fx_add, fx_mul, fx_sub, predict_series, stepped

CONFIG = MachineConfig()
TOL = 2**-8


def quantize(values):
    """Snap floats to the Q16.16 grid."""
    return fx_array(values).astype(np.float64) / FX_ONE


def random_mlp(sizes, seed):
    return init_mlp(sizes, seed=seed)


# Closed-form instruction counts of each lowering, derived independently of
# the compiler: the code-size tests pin the compiled programs against them.

def mlp_instruction_count(sizes, n_local=64) -> int:
    total = 0
    for fan_out in sizes[1:]:
        total += math.ceil(fan_out / n_local) + 1  # blocks + bias
    total += len(sizes) - 2  # hidden activations
    total += (1 if sizes[-1] == 2 else 0) + 1  # decision + halt
    return total


def kernel_instruction_count(n_sv: int, strategy: str) -> int:
    if strategy == "looped":
        return 13
    return 6 * n_sv + 3


def lstm_instruction_count(hidden, dim, n_local=64) -> int:
    blocks = math.ceil(hidden / n_local)
    out_blocks = math.ceil(dim / n_local)
    return 3 + 4 * (1 + blocks) + 4 + 3 + 2 + 1 + out_blocks + 1


def gru_instruction_count(hidden, dim, n_local=64) -> int:
    blocks = math.ceil(hidden / n_local)
    out_blocks = math.ceil(dim / n_local)
    return 3 + 2 * (1 + blocks) + 2 + 1 + 1 + 2 * blocks + 1 + 4 + 1 + out_blocks + 1


def ks_instruction_count(n_ref: int, n_err: int, strategy: str, include_vote=True) -> int:
    if strategy == "looped":
        base = 16  # prologue + nested loop machinery + per-reference tail + reject + halt
    else:
        base = n_ref * (2 * n_err + 3) + 2  # per-reference expansion + reject + halt
    return base + (2 if include_vote else 0)


# ---------------------------------------------------------------------------
# Code size
# ---------------------------------------------------------------------------

def test_mlp_code_sizes_match_targets():
    targets = {
        (384, 50, 2): 112,
        (384, 500, 2): 224,
        (384, 50, 25, 2): 208,
        (384, 200, 100, 2): 224,
    }
    for sizes, target in targets.items():
        prog = compile_model(random_mlp(list(sizes), seed=1), CONFIG)
        assert len(prog.instructions) == mlp_instruction_count(sizes, CONFIG.n_local)
        assert abs(prog.code_bytes - target) <= 64, (sizes, prog.code_bytes)


def test_lstm_200_code_size():
    m = init_lstm(200, 6, seed=2)
    prog = compile_model(m, CONFIG)
    assert len(prog.instructions) == lstm_instruction_count(200, 6, CONFIG.n_local) == 35
    assert prog.code_bytes == 560


def test_ks_and_vote_code_sizes():
    rng = np.random.default_rng(3)
    cfg = KsDecisionConfig()
    refs = [build_ped(quantize(rng.exponential(size=40)), 16) for _ in range(20)]
    ks_only = compile_ks_stage(refs, cfg, include_vote=False)
    assert len(ks_only.instructions) == ks_instruction_count(20, 40, "looped", False) == 16
    assert ks_only.code_bytes <= 352 + 64
    vote_only = compile_ks_stage(refs, cfg, include_ks=False)
    assert vote_only.stages["vote"] == 2  # the vote itself is 32 bytes
    assert abs(vote_only.code_bytes - 32) <= 64
    # The vote-only program holds its own operands and none of the KS stage's.
    assert not {"boundaries", "ref_counts", "errors"} & set(vote_only.symbols)
    assert len(vote_only.image) < 32
    for n_rejects in (10, 11):  # the half is inclusive: 10 of 20 is not an anomaly
        state = fresh_state(vote_only, CONFIG)
        write_symbol(state, vote_only, "rejects", [1.0] * n_rejects + [0.0] * (20 - n_rejects))
        run(state)
        assert bool(read_symbol(state, vote_only, "decision")[0]) == vote_decide(
            [True] * n_rejects + [False] * (20 - n_rejects), cfg
        )


def test_kernel_svm_reduction_ratio():
    rng = np.random.default_rng(4)
    m = ModelBundle(
        "kernel_svm",
        {"coef": rng.normal(size=400) / 400, "sv": rng.normal(size=(400, 6)), "b": 0.1,
         "gamma": 0.5},
    )
    looped = compile_model(m, CONFIG, "looped")
    unrolled = compile_model(m, CONFIG, "unrolled")
    assert len(looped.instructions) == kernel_instruction_count(400, "looped")
    assert len(unrolled.instructions) == kernel_instruction_count(400, "unrolled")
    assert unrolled.code_bytes / looped.code_bytes >= 50


def test_code_size_report_text():
    rng = np.random.default_rng(5)
    m = ModelBundle(
        "kernel_svm",
        {"coef": rng.normal(size=8), "sv": rng.normal(size=(8, 4)), "b": 0.0, "gamma": 1.0},
    )
    report = code_size_report([
        ("kernel_svm", compile_model(m, CONFIG, "looped"), compile_model(m, CONFIG, "unrolled")),
        ("lr", compile_model(ModelBundle("lr", {"w": [0.5, -0.5], "b": 0.0}), CONFIG), None),
    ])
    assert "kernel_svm" in report
    line = [l for l in report.splitlines() if l.startswith("kernel_svm")][0]
    assert line.split() == ["kernel_svm", f"{13 * 16}", f"{51 * 16}", "3.9X"]
    lr_line = [l for l in report.splitlines() if l.startswith("lr")][0]
    assert lr_line.split() == ["lr", f"{5 * 16}", "-", "1.0X"]


def test_krr_is_rejected():
    m = ModelBundle("krr", {"w": np.ones(14), "b": 0.0, "lam": 1e-3})
    with pytest.raises(CompileError, match="feature"):
        compile_model(m, CONFIG)


@pytest.mark.parametrize("m", [
    ModelBundle("lr", {"w": [0.5, -0.5], "b": 0.0}),
    ModelBundle("linear_svm", {"coef": [1.0], "sv": [[0.5, -0.5]], "b": 0.0}),
    init_mlp([3, 4, 2], seed=1),
    init_lstm(2, 3, seed=1),
    init_rnn("gru", 2, 3, seed=1),
], ids=lambda m: m.kind)
def test_unrolled_form_only_for_kernel_machines(m):
    with pytest.raises(CompileError, match="kernel_svm and ocsvm"):
        compile_model(m, CONFIG, "unrolled")


def reshaped(m, **tensors):
    return ModelBundle(m.kind, {**m.tensors, **tensors})


@pytest.mark.parametrize("kind, name, shape, message", [
    # D comes from bout, so a short bout shows as the first W gate's columns.
    ("lstm", "bout", (5,), "Wc has shape (8, 6), expected (8, 5) (hidden 8 from bc, D 5 from bout)"),
    ("lstm", "Wf", (8, 5), "Wf has shape (8, 5), expected (8, 6)"),
    ("lstm", "Uc", (8, 7), "Uc has shape (8, 7), expected (8, 8)"),
    ("lstm", "bo", (9,), "bo has shape (9,), expected (8,)"),
    ("lstm", "Wout", (7, 8), "Wout has shape (7, 8), expected (6, 8)"),
    ("gru", "bout", (5,), "Wz has shape (8, 6), expected (8, 5) (hidden 8 from bz, D 5 from bout)"),
    ("gru", "Wh", (8, 5), "Wh has shape (8, 5), expected (8, 6)"),
    ("gru", "Ur", (8, 7), "Ur has shape (8, 7), expected (8, 8)"),
    ("gru", "bh", (9,), "bh has shape (9,), expected (8,)"),
    ("gru", "Wout", (7, 8), "Wout has shape (7, 8), expected (6, 8)"),
])
def test_mis_shaped_recurrent_bundle_is_rejected(kind, name, shape, message):
    m = init_rnn(kind, 8, 6, seed=0)
    with pytest.raises(CompileError, match=re.escape(f"{kind} bundle: {message}")):
        compile_model(reshaped(m, **{name: np.zeros(shape)}), CONFIG)


@pytest.mark.parametrize("strategy", ["looped", "unrolled"])
@pytest.mark.parametrize("kind, offset", [("kernel_svm", "b"), ("ocsvm", "rho")])
@pytest.mark.parametrize("sv, coef", [((0, 6), (0,)), ((5, 6), (3,)), ((5,), (5,))],
                         ids=["no-sv", "short-coef", "flat-sv"])
def test_kernel_machine_needs_one_coefficient_per_support_vector(strategy, kind, offset, sv, coef):
    m = ModelBundle(kind, {"sv": np.zeros(sv), "coef": np.zeros(coef), "gamma": 0.5, offset: 0.0})
    with pytest.raises(CompileError, match="one coefficient per support vector"):
        compile_model(m, CONFIG, strategy)


def test_clamp_warning():
    m = ModelBundle("lr", {"w": [1e6, 1.0], "b": 0.0})
    with pytest.warns(RuntimeWarning, match="clamped out-of-range tensors: w$"):
        compile_model(m, CONFIG)


# ---------------------------------------------------------------------------
# Oracle equivalence (small instances; acceptance runs the pinned dimensions)
# ---------------------------------------------------------------------------

def test_lr_matches_oracle():
    rng = np.random.default_rng(6)
    m = ModelBundle("lr", {"w": rng.normal(0, 0.3, size=8), "b": 0.2})
    prog = compile_model(m, CONFIG)
    for _ in range(20):
        x = quantize(rng.uniform(-4, 4, size=8))
        out, _ = run_feedforward(prog, CONFIG, x, outputs=("prob", "decision"))
        want = infer_lr(m, x)
        assert abs(out["prob"][0] - want) <= TOL
        if abs(want - 0.5) > TOL:
            assert bool(out["decision"][0]) == (want >= 0.5)


def test_linear_svm_matches_oracle():
    rng = np.random.default_rng(7)
    m = ModelBundle(
        "linear_svm",
        {"coef": rng.normal(size=3), "sv": rng.normal(0, 0.4, size=(3, 6)), "b": -0.1},
    )
    prog = compile_model(m, CONFIG)
    for _ in range(20):
        x = quantize(rng.uniform(-4, 4, size=6))
        out, _ = run_feedforward(prog, CONFIG, x, outputs=("score", "decision"))
        label, score = infer_svm(m, x)
        assert abs(out["score"][0] - score) <= TOL
        if abs(score) > TOL:
            assert bool(out["decision"][0]) == (label > 0)


@pytest.mark.parametrize("strategy", ["looped", "unrolled"])
def test_kernel_svm_matches_oracle(strategy):
    rng = np.random.default_rng(8)
    m = ModelBundle(
        "kernel_svm",
        {
            "coef": rng.normal(0, 0.2, size=12),
            "sv": quantize(rng.uniform(-2, 2, size=(12, 6))),
            "b": 0.05,
            "gamma": 0.4,
        },
    )
    prog = compile_model(m, CONFIG, strategy)
    for _ in range(15):
        x = quantize(rng.uniform(-2, 2, size=6))
        out, _ = run_feedforward(prog, CONFIG, x, outputs=("score", "decision"))
        label, score = infer_svm(m, x)
        assert abs(out["score"][0] - score) <= TOL
        if abs(score) > TOL:
            assert bool(out["decision"][0]) == (label > 0)


def test_ocsvm_matches_oracle():
    rng = np.random.default_rng(9)
    coef = np.abs(rng.normal(0, 0.1, size=10))
    coef /= coef.sum()
    m = ModelBundle(
        "ocsvm",
        {"coef": coef, "sv": quantize(rng.normal(0, 1, size=(10, 6))), "rho": 0.4,
         "gamma": 0.5},
    )
    prog = compile_model(m, CONFIG)
    for _ in range(15):
        x = quantize(rng.normal(0, 1.5, size=6))
        out, _ = run_feedforward(prog, CONFIG, x, outputs=("score", "decision"))
        anomaly, score = infer_ocsvm(m, x)
        assert abs(out["score"][0] - score) <= TOL
        if abs(score) > TOL:
            assert bool(out["decision"][0]) == (not anomaly)


def test_mlp_matches_oracle():
    rng = np.random.default_rng(10)
    m = random_mlp([6, 8, 2], seed=11)
    prog = compile_model(m, CONFIG)
    for _ in range(20):
        x = quantize(rng.uniform(-2, 2, size=6))
        out, _ = run_feedforward(prog, CONFIG, x, outputs=("logits", "decision"))
        want = mlp_logits(m, x)
        assert np.abs(out["logits"] - want).max() <= TOL
        if abs(want[1] - want[0]) > TOL:
            assert bool(out["decision"][0]) == (want[1] >= want[0])


@pytest.mark.parametrize("kind, hidden, config", [
    # One row block per gate, then each gate split into blocks of 7, 7 and 2 rows.
    *(pytest.param(kind, 8, CONFIG, id=kind) for kind in ("lstm", "gru")),
    *(pytest.param(kind, 16, MachineConfig(n_local=7), id=f"{kind}-split-blocks")
      for kind in ("lstm", "gru")),
])
def test_rnn_step_matches_oracle(kind, hidden, config):
    rng = np.random.default_rng(12)
    m = init_rnn(kind, hidden, 6, seed=13)
    prog = compile_model(m, config)
    readings = quantize(rng.uniform(-1.5, 1.5, size=(12, 6)))
    runner = StepRunner(prog, config)
    for reading in readings:
        runner.step(reading)
    got = runner.errors()
    want = predict_series(m, readings)
    assert np.abs(got - want).max() <= TOL


def _replayed_step_trace(monkeypatch, prog):
    """Run three readings through `prog`, recorded then replayed, and check
    that each leaves the memory and scratchpad that stepping leaves; return
    the step program's trace."""
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    runner, reference = StepRunner(prog, CONFIG), fresh_state(prog, CONFIG)
    dim = prog.length("input")
    for reading in quantize(np.random.default_rng(21).uniform(-2, 2, size=(3, dim))):
        runner.step(reading)  # records the trace, then replays it
        write_symbol(reference, prog, "input", reading)
        reference.pc, reference.halted = 0, False
        stepped(reference)
        assert runner.state.memory.tolist() == reference.memory.tolist()
        assert runner.state.scratchpad.tolist() == reference.scratchpad.tolist()
    (trace,) = machine._TRACES.values()
    return trace


def _runs_of(trace, mode):
    """(first word, words) of the X range of each run of `mode`'s kernel."""
    kernel = machine._KERNELS[mode]
    return [(x.start, x.stop - x.start) for k, _, x, _, _ in trace.runs if k is kernel]


def test_lstm200_step_replays_its_gates_as_one_mvmul(monkeypatch):
    # Wcat_c..Wcat_o, b_c..b_o and gate_c..gate_o are each stacked, and every
    # bias-in comes before every gate mat-vec. So replay runs the four bias-ins
    # as one 800-word VADD and the four 200x206 mat-vecs, 16 row blocks (64,
    # 64, 64, 8 per gate) over one Y range, as one kernel call; the output
    # mat-vec is one more. The f, i and o sigmoids over adjacent gates are one
    # call, as are the products f*c and i*cand: 12 runs for 21 data blocks.
    prog = compile_model(init_lstm(200, 6, seed=0), CONFIG)
    trace = _replayed_step_trace(monkeypatch, prog)
    fused = [blocks for kernel, blocks, *_ in trace.runs if kernel is machine._mvmul]
    assert [[inst.width for inst in blocks] for blocks in fused] == [[64, 64, 64, 8] * 4, [6]]
    mvmuls = [inst for inst in prog.instructions if inst.mode is Opcode.MVMUL]
    assert len(mvmuls) == 17 and [inst for blocks in fused for inst in blocks] == mvmuls
    assert _runs_of(trace, Opcode.MVMUL) == [(prog.addr("Wcat_c"), 800 * 206),
                                             (prog.addr("Wout"), 6 * 200)]
    assert len(trace.runs) == 12
    assert _runs_of(trace, Opcode.VADD) == [(prog.addr("bc"), 800), (prog.addr("t1"), 200),
                                            (prog.addr("bout"), 6)]
    (bias_in,) = [run for run in trace.runs if run[2].start == prog.addr("bc")]
    assert bias_in[4] == slice(prog.addr("gate_c"), prog.addr("gate_c") + 800)
    assert _runs_of(trace, Opcode.VSIG) == [(prog.addr("gate_f"), 600)]
    assert prog.addr("gate_o") + 200 == prog.addr("gate_f") + 600
    assert _runs_of(trace, Opcode.VMUL) == [(prog.addr("gate_f"), 400), (prog.addr("gate_o"), 200)]


def test_gru_step_replays_z_and_r_as_one_sigmoid(monkeypatch):
    # The z and r bias-ins and mat-vecs join as the LSTM's do; the candidate's
    # Wh and Ur_cand mat-vecs read different Y ranges (input, r*h), so they stay
    # two calls: 16 runs.
    prog = compile_model(init_rnn("gru", 33, 6, seed=0), CONFIG)
    trace = _replayed_step_trace(monkeypatch, prog)
    assert _runs_of(trace, Opcode.VSIG) == [(prog.addr("gate_z"), 66), (prog.addr("cand"), 33)]
    assert _runs_of(trace, Opcode.MVMUL) == [(prog.addr("Wcat_z"), 66 * 39), (prog.addr("Wh"), 33 * 6),
                                             (prog.addr("Ur_cand"), 33 * 33), (prog.addr("Wout"), 6 * 33)]
    assert len(trace.runs) == 16


def test_parameters_load_as_read_only_ranges(monkeypatch):
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    prog = compile_model(init_rnn("gru", 8, 6, seed=0), CONFIG)
    assert prog.readonly == {"Wcat_z", "Wcat_r", "bz", "br", "Wh", "bh", "Ur_cand", "Wout",
                             "bout", "ones"}
    runner = StepRunner(prog, CONFIG)
    # Every parameter but `ones` lies before `input`: one merged range.
    ones = prog.addr("ones")
    assert runner.state.readonly == ((0, prog.addr("input")), (ones, ones + 8))
    for name in ("Wcat_z", "ones"):
        with pytest.raises(CompileError, match=f"^symbol '{name}' is read-only$"):
            write_symbol(runner.state, prog, name, [0.0])
    for reading in quantize(np.random.default_rng(4).uniform(-1, 1, size=(3, 6))):
        runner.step(reading)
    # Each state scans each read-only Mvmul X range once: the recording run
    # the z and r gate matrices one by one, replay the two joined; Wh, Ur_cand
    # and Wout.
    spans = [("Wcat_z", 8 * 14), ("Wcat_r", 8 * 14), ("Wcat_z", 2 * 8 * 14), ("Wh", 8 * 6),
             ("Ur_cand", 8 * 8), ("Wout", 6 * 8)]
    assert set(runner.state.x_peaks) == {(prog.addr(name), prog.addr(name) + n)
                                         for name, n in spans}


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_step_runner_stops_at_error_capacity(kind):
    # One squared error per step lands in `errors`; the word after it belongs
    # to `zerovec`, which every step adds to its biases.
    prog = compile_model(init_rnn(kind, 2, 2, seed=3), CONFIG)
    capacity = prog.length("errors")
    runner = StepRunner(prog, CONFIG)
    for _ in range(capacity):
        runner.step([0.5, -0.25])
    with pytest.raises(CompileError, match=rf"'errors'.*{capacity}"):
        runner.step([0.5, -0.25])
    assert runner.steps == capacity
    assert not read_symbol(runner.state, prog, "zerovec").any()


def test_read_symbol_rejects_counts_outside_the_symbol():
    # A count past the symbol would read the next symbol's words.
    prog = compile_model(init_lstm(2, 2, seed=3), CONFIG)
    state = fresh_state(prog, CONFIG)
    length = prog.length("errors")
    assert len(read_symbol(state, prog, "errors", count=length)) == length
    assert len(read_symbol(state, prog, "errors", count=0)) == 0
    for count in (length + 1, -1):
        with pytest.raises(CompileError, match=f"'errors' holds {length} words, cannot read {count}"):
            read_symbol(state, prog, "errors", count=count)


def test_strategy_equivalence_kernel_svm():
    rng = np.random.default_rng(14)
    for n_sv in (9, 1):  # one support vector is a loop count of 0
        m = ModelBundle(
            "kernel_svm",
            {"coef": rng.normal(0, 0.2, size=n_sv),
             "sv": quantize(rng.uniform(-2, 2, size=(n_sv, 5))), "b": 0.1, "gamma": 0.6},
        )
        looped = compile_model(m, CONFIG, "looped")
        unrolled = compile_model(m, CONFIG, "unrolled")
        assert len(unrolled.instructions) == kernel_instruction_count(n_sv, "unrolled")
        x = quantize(rng.uniform(-2, 2, size=5))
        out_l, state_l = run_feedforward(looped, CONFIG, x, outputs=("score", "decision"))
        out_u, state_u = run_feedforward(unrolled, CONFIG, x, outputs=("score", "decision"))
        for name in ("score", "decision", "acc", "kv", "sq"):
            a = state_l.memory[looped.addr(name) : looped.addr(name) + looped.length(name)]
            b = state_u.memory[unrolled.addr(name) : unrolled.addr(name) + unrolled.length(name)]
            assert np.array_equal(a, b), (n_sv, name)


# ---------------------------------------------------------------------------
# KS stage
# ---------------------------------------------------------------------------

def fx_window_errors(preds, acts):
    """Exact fixed-point materialization: err_i = sat(sum sat((p-a)^2))."""
    out = []
    for p_row, a_row in zip(fx_array(preds), fx_array(acts)):
        total = 0
        for p, a in zip(p_row, a_row):
            d = fx_sub(int(p), int(a))
            total = fx_add(total, fx_mul(d, d))
        out.append(total)
    return np.asarray(out, dtype=np.int64)


def make_refs(rng, cfg, n_ref=20):
    return [
        build_ped(quantize(rng.exponential(scale=rng.uniform(0.5, 1.5), size=cfg.window_errors)),
                  cfg.bins)
        for _ in range(n_ref)
    ]


def test_ks_stage_matches_hardware_oracle():
    rng = np.random.default_rng(15)
    cfg = KsDecisionConfig()
    refs = make_refs(rng, cfg)
    prog = compile_ks_stage(refs, cfg)
    for _ in range(10):
        observed = quantize(rng.exponential(scale=rng.uniform(0.5, 1.5), size=40))
        state = fresh_state(prog, CONFIG)
        write_symbol(state, prog, "errors", observed)
        run(state)
        d_values = read_symbol(state, prog, "d_values")
        rejects = read_symbol(state, prog, "rejects").astype(bool)
        for r, ref in enumerate(refs):
            d_count, reject = ks_hardware(ref, observed, cfg)
            assert int(d_values[r]) == d_count
            assert bool(rejects[r]) == reject
        want_decision = vote_decide(
            [ks_hardware(ref, observed, cfg)[1] for ref in refs], cfg
        )
        assert bool(read_symbol(state, prog, "decision")[0]) == want_decision


def test_ks_stage_boundary_ties_are_exact():
    # Observed errors placed exactly on reference boundaries: the one-ulp
    # shift keeps the <=-count convention bit-exact.
    cfg = KsDecisionConfig(window_errors=8, bins=4)
    ref_errors = quantize(np.linspace(0.5, 4.0, 8))
    ped = build_ped(ref_errors, 4)
    prog = compile_ks_stage([ped] * 20, cfg)
    observed = np.repeat(ped.boundaries, 2)
    state = fresh_state(prog, CONFIG)
    write_symbol(state, prog, "errors", observed)
    run(state)
    d_count, _ = ks_hardware(ped, observed, cfg)
    assert int(read_symbol(state, prog, "d_values")[0]) == d_count


def test_ks_strategy_equivalence():
    rng = np.random.default_rng(16)
    cfg = KsDecisionConfig()
    decisions = {}
    for n_ref in (20, 1):  # one reference is an outer loop count of 0
        refs = make_refs(rng, cfg, n_ref)
        looped = compile_ks_stage(refs, cfg, "looped")
        unrolled = compile_ks_stage(refs, cfg, "unrolled")
        assert looped.symbols == unrolled.symbols
        assert len(unrolled.instructions) == ks_instruction_count(n_ref, 40, "unrolled")
        preds = quantize(rng.uniform(-1, 1, size=(40, 6)))
        acts = quantize(rng.uniform(-1, 1, size=(40, 6)))
        # Squared errors of (prediction, actual) pairs reject every reference; a
        # window drawn like the references rejects only a few.
        windows = [fx_window_errors(preds, acts), fx_array(rng.exponential(size=40))]
        for errors_raw in windows:
            want = [ks_hardware(ref, errors_raw / FX_ONE, cfg) for ref in refs]
            rejects_want = [reject for _, reject in want]
            for n_track in (1, 2, 4, 8):
                config = MachineConfig(n_track=n_track)
                states = []
                for prog in (looped, unrolled):
                    state = fresh_state(prog, config)
                    state.words[prog.addr("errors") : prog.addr("errors") + 40] = errors_raw
                    run(state)
                    states.append(state)
                state_l, state_u = states
                for name in ("errors", "observed_hist", "diff", "d_values", "rejects", "votes",
                             "decision"):
                    a = state_l.memory[looped.addr(name) : looped.addr(name) + looped.length(name)]
                    b = state_u.memory[unrolled.addr(name) : unrolled.addr(name) + unrolled.length(name)]
                    assert np.array_equal(a, b), (n_ref, n_track, name)
                # Only the looped form spills its loop registers; every other word matches.
                spill, spill_len = looped.symbols["save_loop"]
                memory_l = state_l.memory.copy()
                memory_l[spill : spill + spill_len] = 0
                assert np.array_equal(memory_l, state_u.memory), (n_ref, n_track)
                assert read_symbol(state_u, unrolled, "d_values").astype(int).tolist() == [
                    d_count for d_count, _ in want
                ]
                assert read_symbol(state_u, unrolled, "rejects").astype(bool).tolist() == rejects_want
                decision = bool(read_symbol(state_u, unrolled, "decision")[0])
                assert decision == vote_decide(rejects_want, cfg)
                decisions.setdefault(n_ref, set()).add(decision)
    assert decisions[20] == {False, True}


def test_ks_unrolled_instruction_count():
    rng = np.random.default_rng(17)
    cfg = KsDecisionConfig()
    refs = make_refs(rng, cfg)
    unrolled = compile_ks_stage(refs, cfg, "unrolled", include_vote=False)
    assert len(unrolled.instructions) == ks_instruction_count(20, 40, "unrolled", False)
    assert unrolled.stages == {"ks": 1661}
    assert compile_ks_stage(refs, cfg, "unrolled").stages == {"ks": 1661, "vote": 2}
    assert compile_ks_stage(refs, cfg, "looped").stages == {"ks": 15, "vote": 2}


def _counted(state):
    """Memory, scratchpad and counters of a state."""
    return state.memory.tolist(), state.scratchpad.tolist(), state.cycles, state.reads, state.writes


def test_ks_vote_replays_one_batched_run_per_reference(monkeypatch):
    # Per reference: the loop-register spill, its constant words stored;
    # the histogram reset, VSUB acc, acc, acc, as a zero-fill; the 40
    # compare-and-add iterations as one batched run; the difference and its
    # max|.|. The spill's guard reads back words nothing since has written,
    # so it is dropped. With the entry guard, the reject compare and the
    # vote, 104 runs where the recorded run took 1,704 steps.
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    rng = np.random.default_rng(19)
    cfg = KsDecisionConfig()
    prog = compile_ks_stage(make_refs(rng, cfg), cfg)
    for scale in (1, 50, 1):  # recorded, then replayed
        errors = quantize(rng.exponential(size=cfg.window_errors)) * scale
        replayed, reference = fresh_state(prog, CONFIG), fresh_state(prog, CONFIG)
        for state in (replayed, reference):
            write_symbol(state, prog, "errors", errors)
        run(replayed)
        assert _counted(replayed) == _counted(stepped(reference))
    (trace,) = machine._TRACES.values()
    assert len(trace.runs) == 104
    batched = [i for i, (kernel, *_) in enumerate(trace.runs) if kernel is machine._batched]
    assert batched == list(range(3, 103, 5))
    assert [kernel for kernel, *_ in trace.runs].count(machine._guard) == 1  # the entry's
    bins, errs, tmp = cfg.bins, prog.addr("errors"), prog.addr("tmp")
    hist, save = prog.addr("observed_hist"), prog.addr("save_loop")
    for r, i in enumerate(batched):
        (put, _, _, spill, slot), (fill, _, _, zero, reset) = trace.runs[i - 2 : i]
        assert (put, slot, spill.dtype) == (machine._put_words, slice(save, save + 3), np.int32)
        assert (fill, zero, reset) == (machine._put_words, 0, slice(hist, hist + bins))
        count, ((_, (x, y), z, scalar),), accumulate = trace.runs[i][1]
        row = prog.addr("boundaries") + r * bins
        assert (count, x, z, scalar) == (40, slice(row, row + bins), slice(tmp, tmp + bins), False)
        assert y.ravel().tolist() == list(range(errs, errs + 40))  # one error per iteration
        assert accumulate == (0, slice(hist, hist + bins))  # tmp, the first map's Z


def test_fresh_states_of_one_ks_program_share_one_trace(monkeypatch):
    # One fresh state per window, its errors written in: each holds only the
    # program's image, which covers every word the program touches. The trace
    # key counts data memory, not a state's words, so the first window records
    # and every later one replays, a state grown to the whole data memory too.
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    records = []
    record = machine._record
    monkeypatch.setattr(machine, "_record", lambda *args: records.append(1) or record(*args))
    rng = np.random.default_rng(23)
    cfg = KsDecisionConfig()
    prog = compile_ks_stage(make_refs(rng, cfg), cfg)
    for grown in (False, False, True):
        errors = quantize(rng.exponential(size=cfg.window_errors))
        state, reference = fresh_state(prog, CONFIG), fresh_state(prog, CONFIG)
        if grown:
            state.grow()
        for s in (state, reference):
            write_symbol(s, prog, "errors", errors)
        run(state)
        stepped(reference)
        assert len(reference.memory) == len(prog.image)
        assert len(state.memory) == (CONFIG.data_mem_words if grown else len(prog.image))
        assert _counted(state)[1:] == _counted(reference)[1:]
        assert state.memory[: len(prog.image)].tolist() == reference.memory.tolist()
        assert not state.memory[len(prog.image) :].any()
    assert len(records) == 1


def test_ocsvm_replays_its_support_vector_loop_as_one_batched_run(monkeypatch):
    # d = x - v_i, its squared norm, * -gamma, exp, * coef_i, added onto acc:
    # five maps and the accumulate, 238 times in one call.
    monkeypatch.setattr(machine, "_TRACES", OrderedDict())
    rng = np.random.default_rng(20)
    n_sv, dim = 238, 6
    m = ModelBundle("ocsvm", {"coef": rng.dirichlet(np.ones(n_sv)), "rho": 0.3, "gamma": 0.5,
                              "sv": quantize(rng.uniform(-2, 2, size=(n_sv, dim)))})
    prog = compile_model(m, CONFIG)
    for x in quantize(rng.uniform(-2, 2, size=(3, dim))):  # recorded, then replayed
        _, replayed = run_feedforward(prog, CONFIG, x)
        reference = fresh_state(prog, CONFIG)
        write_symbol(reference, prog, "input", x)
        assert _counted(replayed) == _counted(stepped(reference))
    (trace,) = machine._TRACES.values()
    assert [kernel for kernel, *_ in trace.runs] == [
        machine._guard, machine._batched, machine._KERNELS[Opcode.VADD],
        machine._KERNELS[Opcode.VSGT]]
    count, maps, accumulate = trace.runs[1][1]
    acc = prog.addr("acc")
    assert (count, len(maps), accumulate) == (n_sv, 5, (4, slice(acc, acc + 1)))


def test_ks_reference_tables_are_read_only():
    # The tables hold raw words (boundaries one ulp up, counts in count
    # units), not fx_array's; adjacent, they load as one read-only range.
    cfg = KsDecisionConfig()
    prog = compile_ks_stage(make_refs(np.random.default_rng(18), cfg), cfg)
    assert prog.readonly == {"boundaries", "ref_counts", "ks_threshold", "vote_threshold"}
    start, stop = prog.addr("boundaries"), prog.addr("ref_counts") + prog.length("ref_counts")
    assert prog.addr("ref_counts") == start + prog.length("boundaries")
    assert (start, stop) in fresh_state(prog, CONFIG).readonly
    errs, z = prog.addr("errors"), start + 5
    writer = replace(prog, instructions=[
        MacroInstruction(mode=Opcode.VADD, length=2, addr_x=errs, addr_y=errs, addr_z=z), halt()])
    for execute in (run, stepped):
        state = fresh_state(writer, CONFIG)
        with pytest.raises(MachineTrap, match=re.escape(
                f"trap at pc=0: write to [{z}, {z + 2}) meets read-only range [{start}, {stop})")):
            execute(state)
        assert np.array_equal(state.memory[: len(prog.image)], prog.image)
    for name in ("boundaries", "ref_counts"):
        with pytest.raises(CompileError, match=f"^symbol '{name}' is read-only$"):
            write_symbol(state, prog, name, [0.0])


def test_ks_reference_validation():
    cfg = KsDecisionConfig()
    short = build_ped(np.arange(10.0), 5)
    with pytest.raises(CompileError, match="equal-size"):
        compile_ks_stage([short], cfg)
    refs = make_refs(np.random.default_rng(17), cfg)
    for compile_bogus in (lambda: compile_ks_stage(refs, cfg, "bogus"),
                          lambda: compile_model(init_mlp([3, 4, 2], seed=1), CONFIG, "bogus")):
        with pytest.raises(CompileError, match="unknown strategy 'bogus'"):
            compile_bogus()


# sha256 of the unrolled programs as the hand-written expansions emitted them.
UNROLLED_DIGESTS = {
    "ks_vote": "12f6a5249f4604945fb4258cfd9dbd1ac0d7b1e72eb7e143e636d555004c2b3b",
    "ks": "2ae7df76f2754175a259689740aad34444918b4c26e989e7d97b3ebbc7e3ce64",
    "kernel_svm": "53a0b9d38e39a64957c0f0ea5460e744254ccbd64bbd2dfde85e20f104b0eec4",
    "ocsvm": "d2a4de55e9b0ed96ed83013e2e586596ba22e20e830de67e859a9f612d8b5dc3",
}


def test_unrolled_programs_are_pinned():
    rng = np.random.default_rng(21)
    cfg = KsDecisionConfig()
    refs = make_refs(rng, cfg)
    sv = quantize(rng.uniform(-2, 2, size=(7, 6)))
    kernel_svm = ModelBundle("kernel_svm", {"coef": rng.normal(0, 0.2, size=7), "sv": sv,
                                            "b": 0.05, "gamma": 0.4})
    ocsvm = ModelBundle("ocsvm", {"coef": np.full(4, 0.25),
                                  "sv": quantize(rng.uniform(-2, 2, size=(4, 3))),
                                  "rho": 0.4, "gamma": 0.5})
    programs = {
        "ks_vote": compile_ks_stage(refs, cfg, "unrolled"),
        "ks": compile_ks_stage(refs, cfg, "unrolled", include_vote=False),
        "kernel_svm": compile_model(kernel_svm, CONFIG, "unrolled"),
        "ocsvm": compile_model(ocsvm, CONFIG, "unrolled"),
    }
    digests = {
        name: hashlib.sha256(program_to_bytes(prog.instructions)).hexdigest()
        for name, prog in programs.items()
    }
    assert digests == UNROLLED_DIGESTS


# sha256 of program, image and symbol table of init_rnn(kind, hidden, 6,
# seed=0) step programs: gate matrices, then gate biases stacked, every bias-in
# before the gate mat-vecs.
STEP_DIGESTS = {
    ("lstm", 16, 64): "ff9273e07e15ee4a7bf2584cbe7d2f58d818406cb43583d4f6ca05b6bd4eae6a",
    ("lstm", 200, 64): "85e082222e3d6031da27449f4e8f4373ba7cfae4c0d62f39f103cdb193e24f33",
    ("lstm", 33, 7): "c0a65ea8160ce7caf35fd4d351361df94ace10ca617144141838a0d4b31941fb",
    ("gru", 16, 64): "d161811fea99232302adc385e3cbe8fcf117511607d03017588d718bbceafe21",
    ("gru", 200, 64): "81e0033ae9932b8a5f9a9bb0c4d6b10ba348bfbebf3a3f632e82f513c3405745",
    ("gru", 33, 7): "b02593d1111fe0680f67ae0ac8934792e26c0ef21bc6b44bedb7f79f934dadb1",
}


@pytest.mark.parametrize("kind, hidden, n_local", list(STEP_DIGESTS))
def test_step_programs_are_pinned(kind, hidden, n_local):
    prog = compile_model(init_rnn(kind, hidden, 6, seed=0), MachineConfig(n_local=n_local))
    blob = (program_to_bytes(prog.instructions) + image_to_bytes(prog.image)
            + prog.symbol_table_text().encode())
    assert hashlib.sha256(blob).hexdigest() == STEP_DIGESTS[kind, hidden, n_local]


# sha256 of the memory, scratchpad and errors() that the init_rnn(kind, 200, 6,
# seed=0) step program leaves after 50 StepRunner readings at n_track 4. Most
# readings keep the gate mat-vec on the int32 Mvmul path; six reach past it.
STEP_RUN_DIGESTS = {
    "lstm": "a96e61e72be572c03e0eed7508ad5e7f9a0647f110e40b3bcf35c5d878120c03",
    "gru": "37041d2b44fa6b1f26692fd609e09a6dbd1a9ea5b5100f8bb3c09d2b0afc3afd",
}


@pytest.mark.parametrize("kind", sorted(STEP_RUN_DIGESTS))
def test_step_runs_are_pinned(kind):
    runner = StepRunner(compile_model(init_rnn(kind, 200, 6, seed=0), CONFIG),
                        MachineConfig(n_track=4))
    for reading in np.random.default_rng(32).normal(0, 0.7, size=(50, 6)):
        runner.step(reading)
    state = runner.state
    blob = state.memory.tobytes() + state.scratchpad.tobytes() + runner.errors().tobytes()
    assert hashlib.sha256(blob).hexdigest() == STEP_RUN_DIGESTS[kind]


def test_gru_instruction_count_formula():
    m = init_rnn("gru", 200, 6, seed=18)
    prog = compile_model(m, CONFIG)
    assert len(prog.instructions) == gru_instruction_count(200, 6, CONFIG.n_local)


def test_symbol_table_text():
    m = ModelBundle("lr", {"w": [0.5, -0.5], "b": 0.0})
    prog = compile_model(m, CONFIG)
    text = prog.symbol_table_text()
    assert "input" in text and "decision" in text


# ---------------------------------------------------------------------------
# Writes stay inside symbols
# ---------------------------------------------------------------------------

def written_range(state) -> tuple[int, int]:
    """Words the instruction at `state.pc` writes, from its fields and the
    live offsets: Z of a data instruction, the three words of a regstore."""
    inst = state.program[state.pc]
    if inst.mode is Opcode.REGSTORE:
        count = 3
    elif inst.mode in CONTROL_OPCODES:
        count = 0
    elif inst.mode is Opcode.MVMUL:
        count = inst.width
    elif inst.mode in (Opcode.VMAXABS, Opcode.VSQNORM):
        count = 1
    else:
        count = inst.length
    start = inst.addr_z + (state.off_z if inst.off_z else 0)
    return start, start + count


def assert_writes_inside_symbols(prog, state):
    """Step `state` to Halt, checking that every write lies inside one symbol."""
    while not state.halted:
        if state.pc < len(state.program):
            start, stop = written_range(state)
            assert stop == start or any(
                addr <= start and stop <= addr + length for addr, length in prog.symbols.values()
            ), f"{prog.name}: pc={state.pc} writes [{start}, {stop}) outside every symbol"
        step_instruction(state)


def standard_programs():
    """Every standard compiled program, with the symbol its input goes to."""
    rng = np.random.default_rng(19)
    sv = quantize(rng.uniform(-2, 2, size=(5, 6)))
    bundles = [
        ModelBundle("lr", {"w": rng.normal(0, 0.3, size=6), "b": 0.2}),
        ModelBundle("linear_svm", {"coef": rng.normal(size=3), "sv": rng.normal(size=(3, 6)),
                                   "b": -0.1}),
        init_mlp([6, 8, 2], seed=11),
        ModelBundle("kernel_svm", {"coef": rng.normal(0, 0.2, size=5), "sv": sv, "b": 0.05,
                                   "gamma": 0.4}),
        ModelBundle("ocsvm", {"coef": np.full(5, 0.2), "sv": sv, "rho": 0.4, "gamma": 0.5}),
        init_lstm(8, 6, seed=13),
        init_rnn("gru", 8, 6, seed=13),
    ]
    progs = [(compile_model(m, CONFIG), "input") for m in bundles]
    progs += [(compile_model(m, CONFIG, "unrolled"), "input") for m in bundles[3:5]]
    cfg = KsDecisionConfig()
    refs = make_refs(rng, cfg)
    progs += [(compile_ks_stage(refs, cfg, strategy), "errors") for strategy in ("looped", "unrolled")]
    progs.append((compile_ks_stage(refs, cfg, include_ks=False), None))
    return progs


def test_no_program_writes_outside_its_symbols():
    rng = np.random.default_rng(20)
    for prog, source in standard_programs():
        state = fresh_state(prog, CONFIG)
        steps = 3 if prog.kind in ("lstm", "gru") else 1
        for _ in range(steps):  # a step program moves its error pointer each step
            if source is not None:
                write_symbol(state, prog, source, quantize(rng.uniform(0, 2, size=prog.length(source))))
            state.pc, state.halted = 0, False
            assert_writes_inside_symbols(prog, state)
        if steps > 1:
            assert state.off_z == steps
