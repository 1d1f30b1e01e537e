"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to watch them stream)."""

import random
import time

import numpy as np
import pytest

from sid.codegen import (
    StepRunner,
    compile_ks_stage,
    compile_model,
    fresh_state,
    read_symbol,
    run_feedforward,
    write_symbol,
)
from sid.data import synth_user_sessions
from sid.detection import (
    ConfusionCounts,
    KsDecisionConfig,
    build_ped,
    combined_score,
    confusion_metrics,
    ks_hardware,
    ks_statistic,
    vote_decide,
)
from sid.energy import GPU_PROFILE, SID_PROFILE, energy_ratio
from sid.fixedpoint import FX_ONE, fx_array
from sid.isa import MacroInstruction, Opcode, decode, encode
from sid.machine import MachineConfig, load, run
from sid.models import (
    ModelBundle,
    infer_lr,
    infer_svm,
    mlp_logits,
    ocsvm_score,
)
from sid.pipeline import LadConfig, run_lad, safe_metrics
from sid.training import (
    init_lstm,
    init_mlp,
    mlp_loss_and_grads,
    rnn_loss_and_grads,
)

from oracles import init_gru, step_rnn

TOL = 2**-8


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def quantize(values):
    return fx_array(values).astype(np.float64) / FX_ONE


# ---------------------------------------------------------------------------
# Shared fixtures: the compiled-program set exercised by criteria 2 and 3
# ---------------------------------------------------------------------------

def build_bundles():
    rng = np.random.default_rng(2024)
    bundles = {}
    bundles["lr"] = ModelBundle("lr", {"w": rng.normal(0, 0.1, size=384), "b": 0.1})
    bundles["kernel_svm"] = ModelBundle(
        "kernel_svm",
        {
            "coef": rng.normal(0, 0.05, size=40),
            "sv": quantize(rng.uniform(-2, 2, size=(40, 24))),
            "b": 0.02,
            "gamma": 0.1,
        },
    )
    bundles["mlp_50"] = init_mlp([384, 50, 2], seed=11)
    bundles["mlp_200_100"] = init_mlp([384, 200, 100, 2], seed=12)
    coef = np.abs(rng.normal(0, 1, size=25))
    coef /= coef.sum()
    bundles["ocsvm"] = ModelBundle(
        "ocsvm",
        {"coef": coef, "sv": quantize(rng.normal(0, 1, size=(25, 20))), "rho": 0.3,
         "gamma": 0.2},
    )
    bundles["lstm"] = init_lstm(200, 6, seed=13)
    bundles["gru"] = init_gru(200, 6, seed=14)
    return bundles


def build_ks_refs(cfg=None):
    rng = np.random.default_rng(77)
    cfg = cfg or KsDecisionConfig()
    return [
        build_ped(
            quantize(rng.exponential(scale=rng.uniform(0.5, 1.5), size=cfg.window_errors)),
            cfg.bins,
        )
        for _ in range(cfg.refs)
    ]


@pytest.fixture(scope="module")
def bundles():
    return build_bundles()


@pytest.fixture(scope="module")
def ks_refs():
    return build_ks_refs()


# ---------------------------------------------------------------------------
# Criterion 1: ISA roundtrip
# ---------------------------------------------------------------------------

def test_criterion_1_isa_roundtrip():
    start = time.time()
    rng = random.Random(1)
    for _ in range(10_000):
        inst = MacroInstruction(
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
        assert decode(encode(inst)) == inst
        word = rng.randrange(1 << 128)
        assert encode(decode(word)) == word
    elapsed = time.time() - start
    report(1, elapsed < 5.0, f"10,000 roundtrips both ways in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: n_track invariance + exact cycle formulas
# ---------------------------------------------------------------------------

CONTROL_OPS = {Opcode.LOOP, Opcode.REGADDI, Opcode.REGSTORE, Opcode.REGLOAD, Opcode.HALT}


def trace_cycles(program, n_track, overhead=4, fuel=10_000_000):
    """Independent closed-form walk: formula and loop semantics re-derived.

    Models the loop registers plus their save/restore instructions (needed to
    follow nested loops); data memory and offsets do not affect cycle counts.
    """
    pc = 0
    cycles = 0
    loop_begin = loop_end = loop_n = 0
    saved: dict[int, tuple] = {}
    while pc < len(program):
        fuel -= 1
        assert fuel > 0, "tracer ran away"
        inst = program[pc]
        op = inst.mode
        if op in CONTROL_OPS:
            cycles += 1
        else:
            iters = -(-inst.length // n_track)  # ceil
            if op is Opcode.MVMUL:
                cycles += inst.width * iters + overhead
            else:
                cycles += iters + overhead
        if op is Opcode.HALT:
            break
        if op is Opcode.LOOP:
            loop_begin, loop_end, loop_n = pc + 1, inst.x_field, inst.y_field
        elif op is Opcode.REGSTORE and inst.length == 0:
            saved[inst.addr_z] = (loop_begin, loop_end, loop_n)
        elif op is Opcode.REGLOAD and inst.length == 0:
            loop_begin, loop_end, loop_n = saved.get(inst.addr_z, (0, 0, 0))
        if pc == loop_end and loop_n != 0:
            loop_n -= 1
            pc = loop_begin
        else:
            pc += 1
    return cycles


def run_fixed_workload(prog, kind, n_track):
    config = MachineConfig(n_track=n_track)
    rng = np.random.default_rng(5)
    state = fresh_state(prog, config)
    if kind in ("lstm", "gru"):
        runner = StepRunner(prog, config)
        for reading in quantize(rng.uniform(-1, 1, size=(3, 6))):
            runner.step(reading)
        return runner.state
    if kind == "ks":
        write_symbol(state, prog, "errors", quantize(rng.exponential(size=40)))
    else:
        dim = prog.length("input")
        write_symbol(state, prog, "input", quantize(rng.uniform(-1, 1, size=dim)))
    run(state)
    return state


def test_criterion_2_n_track_invariance(bundles, ks_refs):
    config4 = MachineConfig()
    programs = {name: compile_model(b, config4) for name, b in bundles.items()}
    programs["ks"] = compile_ks_stage(ks_refs, KsDecisionConfig())
    checked = 0
    for name, prog in programs.items():
        kind = prog.kind if prog.kind in ("lstm", "gru", "ks") else "ff"
        memories = []
        for n_track in (1, 2, 4, 8):
            state = run_fixed_workload(prog, kind if kind != "ff" else "input", n_track)
            expected = trace_cycles(prog.instructions, n_track)
            if kind in ("lstm", "gru"):
                expected *= 3  # three step invocations
            assert state.cycles == expected, (name, n_track, state.cycles, expected)
            memories.append(state.memory)
        for other in memories[1:]:
            assert np.array_equal(memories[0], other), name
        checked += 1
    report(2, True, f"{checked} programs bit-identical at n_track 1/2/4/8, cycles exact")


# ---------------------------------------------------------------------------
# Criterion 3: oracle equivalence on 100 randomized inputs per model
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence(bundles):
    start = time.time()
    config = MachineConfig()
    rng = np.random.default_rng(6)
    failures = []

    def check_close(name, got, want):
        err = np.abs(np.atleast_1d(got) - np.atleast_1d(want)).max()
        if err > TOL:
            failures.append(f"{name}: err {err:.3e}")

    # Feed-forward kinds: 100 inputs each.
    prog = compile_model(bundles["lr"], config)
    for _ in range(100):
        x = quantize(rng.uniform(-1, 1, size=384))
        out, _ = run_feedforward(prog, config, x, outputs=("prob", "decision"))
        want = infer_lr(bundles["lr"], x)
        check_close("lr", out["prob"][0], want)
        if abs(want - 0.5) > TOL:
            assert bool(out["decision"][0]) == (want >= 0.5)

    prog = compile_model(bundles["kernel_svm"], config)
    for _ in range(100):
        x = quantize(rng.uniform(-2, 2, size=24))
        out, _ = run_feedforward(prog, config, x, outputs=("score", "decision"))
        label, score = infer_svm(bundles["kernel_svm"], x)
        check_close("kernel_svm", out["score"][0], score)
        if abs(score) > TOL:
            assert bool(out["decision"][0]) == (label > 0)

    for name in ("mlp_50", "mlp_200_100"):
        prog = compile_model(bundles[name], config)
        for _ in range(100):
            x = quantize(rng.uniform(-1, 1, size=384))
            out, _ = run_feedforward(prog, config, x, outputs=("logits", "decision"))
            want = mlp_logits(bundles[name], x)
            check_close(name, out["logits"], want)
            if abs(want[1] - want[0]) > TOL:
                assert bool(out["decision"][0]) == (want[1] >= want[0])

    prog = compile_model(bundles["ocsvm"], config)
    for _ in range(100):
        x = quantize(rng.normal(0, 1, size=20))
        out, _ = run_feedforward(prog, config, x, outputs=("score", "decision"))
        score = ocsvm_score(bundles["ocsvm"], x)
        check_close("ocsvm", out["score"][0], score)
        if abs(score) > TOL:
            assert bool(out["decision"][0]) == (score >= 0)

    # Recurrent kinds: the compiled artifact is a step program, so its 100
    # randomized inputs are 100 independent (state, reading) pairs.
    for kind in ("lstm", "gru"):
        prog = compile_model(bundles[kind], config)
        m = bundles[kind]
        for _ in range(100):
            x = quantize(rng.uniform(-1, 1, size=6))
            h0 = quantize(rng.uniform(-1, 1, size=200))
            state = fresh_state(prog, config)
            write_symbol(state, prog, "input", x)
            write_symbol(state, prog, "h", h0)
            if kind == "lstm":
                c0 = quantize(rng.uniform(-1, 1, size=200))
                write_symbol(state, prog, "c", c0)
                (want_h, want_c), want_pred = step_rnn(m, (h0, c0), x)
            else:
                (want_h,), want_pred = step_rnn(m, (h0,), x)
            run(state)
            check_close(kind, read_symbol(state, prog, "pred"), want_pred)
            check_close(kind + "_h", read_symbol(state, prog, "h"), want_h)
            if kind == "lstm":
                check_close(kind + "_c", read_symbol(state, prog, "c"), want_c)

    elapsed = time.time() - start
    ok = not failures and elapsed < 120
    report(3, ok, f"7 models x 100 inputs within 2^-8 in {elapsed:.1f}s "
                  f"{'; '.join(failures) if failures else ''}")


# ---------------------------------------------------------------------------
# Criterion 4: KS oracles
# ---------------------------------------------------------------------------

def test_criterion_4_ks_oracles(ks_refs):
    rng = np.random.default_rng(7)
    # Software statistic vs independent counting loops: bit-equal floats.
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        m = int(rng.integers(1, 60))
        a = rng.normal(size=n)
        b = rng.normal(loc=rng.uniform(-1, 1), size=m)
        d = ks_statistic(a, b)
        best = 0.0
        for x in np.concatenate([a, b]):
            fa = sum(1 for v in a if v <= x) / n
            fb = sum(1 for v in b if v <= x) / m
            best = max(best, abs(fa - fb))
        assert d == best

    # Hardware-shaped counts vs boundary-restricted counting, in integers.
    cfg = KsDecisionConfig()
    for _ in range(1000):
        ref_sample = rng.exponential(scale=rng.uniform(0.5, 2.0), size=40)
        obs = rng.exponential(scale=rng.uniform(0.5, 2.0), size=40)
        ped = build_ped(ref_sample, cfg.bins)
        d_count, _ = ks_hardware(ped, obs, cfg)
        best = max(
            abs(int(c) - sum(1 for e in obs if e <= b))
            for b, c in zip(ped.boundaries, ped.counts)
        )
        assert d_count == best

    # Compiled program reproduces the reject bits and the vote.
    prog = compile_ks_stage(ks_refs, cfg)
    config = MachineConfig()
    for _ in range(100):
        observed = quantize(rng.exponential(scale=rng.uniform(0.5, 1.5), size=40))
        state = fresh_state(prog, config)
        write_symbol(state, prog, "errors", observed)
        run(state)
        rejects = read_symbol(state, prog, "rejects").astype(bool)
        want = [ks_hardware(ref, observed, cfg)[1] for ref in ks_refs]
        assert list(rejects) == want
        assert bool(read_symbol(state, prog, "decision")[0]) == vote_decide(want, cfg)
    report(4, True, "1000 software + 1000 hardware KS pairs exact; "
                    "100 compiled windows reproduce the reject bits")


# ---------------------------------------------------------------------------
# Criterion 5: gradient checks
# ---------------------------------------------------------------------------

def central_diff(loss_fn, tensor, eps=1e-5):
    grad = np.zeros_like(tensor)
    it = np.nditer(tensor, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor[idx]
        tensor[idx] = orig + eps
        up = loss_fn()
        tensor[idx] = orig - eps
        down = loss_fn()
        tensor[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
        it.iternext()
    return grad


def rel_err(a, n):
    # Norm-based relative error: elementwise ratios on near-zero entries are
    # limited by central-difference cancellation noise, not gradient quality.
    return float(np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-8))


def test_criterion_5_gradient_checks():
    start = time.time()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(8, 6))
        y = rng.integers(0, 2, size=8)
        m = init_mlp([6, 7, 2], seed=seed)
        _, grads = mlp_loss_and_grads(m, X, y)
        name = ["W0", "b0", "W1", "b1"][seed % 4]
        numeric = central_diff(lambda: mlp_loss_and_grads(m, X, y)[0], m.tensors[name])
        worst = max(worst, rel_err(grads[name], numeric))

        batch = rng.normal(size=(2, 5, 3))
        for init, names in ((init_lstm, ["Wc", "Uf", "bi", "Wout", "Uo"]),
                            (init_gru, ["Wz", "Ur", "bh", "Wout", "Uz"])):
            rm, name = init(4, 3, seed=seed), names[seed]
            _, grads, _ = rnn_loss_and_grads(rm, batch)
            numeric = central_diff(lambda: rnn_loss_and_grads(rm, batch)[0], rm.tensors[name])
            worst = max(worst, rel_err(grads[name], numeric))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 60
    report(5, ok, f"max relative gradient error {worst:.2e} over 5 instances "
                  f"per model in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 6: code sizes and looped/unrolled reduction
# ---------------------------------------------------------------------------

def test_criterion_6_code_sizes(ks_refs):
    config = MachineConfig()
    rows = []
    for name, sizes, target in (
        ("MLP-50", [384, 50, 2], 112),
        ("MLP-500", [384, 500, 2], 224),
        ("MLP-50-25", [384, 50, 25, 2], 208),
        ("MLP-200-100", [384, 200, 100, 2], 224),
    ):
        prog = compile_model(init_mlp(sizes, seed=1), config)
        rows.append((name, prog.code_bytes, target))
    rows.append(
        ("LSTM-200", compile_model(init_lstm(200, 6, seed=2), config).code_bytes, 560)
    )
    cfg = KsDecisionConfig()
    ks_looped = compile_ks_stage(ks_refs, cfg, "looped", include_vote=False)
    rows.append(("KS-40(20refs)", ks_looped.code_bytes, 352))
    vote = compile_ks_stage(ks_refs, cfg, include_ks=False)
    rows.append(("Vote-KS", vote.code_bytes, 32))
    for name, got, target in rows:
        assert got <= target + 64, f"{name}: {got} bytes vs target {target}"

    rng = np.random.default_rng(3)
    svm = ModelBundle(
        "kernel_svm",
        {"coef": rng.normal(size=400) / 400, "sv": rng.normal(size=(400, 6)),
         "b": 0.0, "gamma": 0.5},
    )
    svm_ratio = (
        compile_model(svm, config, "unrolled").code_bytes
        / compile_model(svm, config, "looped").code_bytes
    )
    sizes_txt = ", ".join(f"{n}={g}B(target {t})" for n, g, t in rows)
    ok = svm_ratio >= 50
    report("6 (sizes, SVM reduction)", ok,
           f"{sizes_txt}; SVM-400 reduction {svm_ratio:.1f}X (>=50X)")


def test_criterion_6_ks_reduction(ks_refs):
    cfg = KsDecisionConfig()
    ks_looped = compile_ks_stage(ks_refs, cfg, "looped", include_vote=False)
    ks_unrolled = compile_ks_stage(ks_refs, cfg, "unrolled", include_vote=False)
    # The ratio compares two forms of one function: on the fixture window both
    # leave identical memory, apart from the looped form's loop-register spill.
    state_l = run_fixed_workload(ks_looped, "ks", 4)
    state_u = run_fixed_workload(ks_unrolled, "ks", 4)
    spill, spill_len = ks_looped.symbols["save_loop"]
    memory_l = state_l.memory.copy()
    memory_l[spill : spill + spill_len] = 0
    assert ks_looped.symbols == ks_unrolled.symbols
    assert np.array_equal(memory_l, state_u.memory)
    ks_ratio = ks_unrolled.code_bytes / ks_looped.code_bytes
    report("6 (KS reduction)", ks_ratio >= 100,
           f"KS-40 unrolled/looped = {ks_unrolled.code_bytes}/{ks_looped.code_bytes} "
           f"= {ks_ratio:.1f}X (>=100X required)")


# ---------------------------------------------------------------------------
# Criterion 7: real-time budget
# ---------------------------------------------------------------------------

def test_criterion_7_real_time(bundles, ks_refs):
    config = MachineConfig(n_track=4)
    prog = compile_model(bundles["lstm"], config)
    runner = StepRunner(prog, config)
    runner.step(np.zeros(6))
    step_cycles = runner.cycles_per_step[0]
    ks_prog = compile_ks_stage(ks_refs, KsDecisionConfig())
    state = fresh_state(ks_prog, config)
    write_symbol(state, ks_prog, "errors", np.abs(np.random.default_rng(8).normal(size=40)))
    ks_report = run(state)
    # The KS pass runs once per window; windows advance every 4 readings.
    wall = (step_cycles + ks_report.cycles / 4) / config.clock_hz
    ok = wall < 0.020
    report(7, ok, f"LSTM-200 step + amortized KS = {wall * 1e3:.3f} ms at 115 MHz "
                  f"({step_cycles} + {ks_report.cycles}/4 cycles)")


# ---------------------------------------------------------------------------
# Criterion 8: energy bracket
# ---------------------------------------------------------------------------

def test_criterion_8_energy(bundles, ks_refs):
    config1 = MachineConfig(n_track=1)
    prog = compile_model(bundles["lstm"], config1)
    runner = StepRunner(prog, config1)
    runner.step(np.zeros(6))
    ks_prog = compile_ks_stage(ks_refs, KsDecisionConfig())
    state = fresh_state(ks_prog, config1)
    write_symbol(state, ks_prog, "errors", np.abs(np.random.default_rng(9).normal(size=40)))
    ks_cycles = run(state).cycles
    t_sid = (runner.cycles_per_step[0] + ks_cycles) / config1.clock_hz
    period = 0.020

    ratio_mid, idle = energy_ratio(
        [(GPU_PROFILE, 0.001)], [(SID_PROFILE, t_sid)], period
    )
    sweep = [
        energy_ratio([(GPU_PROFILE, t)], [(SID_PROFILE, t_sid)], period)[0]
        for t in (0.0005, 0.001, 0.002)
    ]
    brackets = min(sweep) <= 64.41 <= max(sweep)
    ok = 55 <= ratio_mid <= 70 and brackets and abs(idle - 8 / 0.12) < 1e-9
    report(8, ok, f"t_SID={t_sid * 1e3:.2f} ms (n_track=1); ratio@1ms={ratio_mid:.1f} "
                  f"in [55,70]; sweep {min(sweep):.1f}..{max(sweep):.1f} brackets 64.41; "
                  f"idle ratio {idle:.2f} (66.66)")


# ---------------------------------------------------------------------------
# Criterion 9: synthetic two-user PED advantage
# ---------------------------------------------------------------------------

def test_criterion_9_ped_vote_beats_threshold():
    start = time.time()
    sequences = synth_user_sessions(
        (1.6, 2.2), seqs_per_user=4, length=1400, seed=50,
        noise_std=0.1, session_jitter=0.07,
    )
    cfg = LadConfig(
        rnn_window=200, rnn_step=50, hidden=16, epochs=80, validation_fraction=0.4,
    )
    accuracies = {}
    for pipeline_name in ("vote", "threshold"):
        _, total = run_lad(sequences, "lstm", pipeline_name, cfg, seed=7)
        accuracies[pipeline_name] = float(safe_metrics(total)["accuracy"])
    elapsed = time.time() - start
    vote_acc = accuracies["vote"]
    thr_acc = accuracies["threshold"]
    ok = vote_acc >= 0.80 and (vote_acc - thr_acc) >= 0.10 and elapsed < 600
    report(9, ok, f"PED-vote {vote_acc:.1%} vs mean-threshold {thr_acc:.1%} "
                  f"(gap {100 * (vote_acc - thr_acc):.1f} pts) in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 10: metric identities
# ---------------------------------------------------------------------------

def test_criterion_10_metric_identities():
    rng = np.random.default_rng(10)
    for _ in range(500):
        total = int(rng.integers(2, 500))
        tp = int(rng.integers(1, total + 1))
        tn = int(rng.integers(0, total + 1))
        c = ConfusionCounts(tp=tp, fn=total - tp, tn=tn, fp=total - tn)
        m = confusion_metrics(c)
        assert m["accuracy"] == (m["tnr"] + m["tpr"]) / 2  # exact rational identity
    table = [
        (3.06, 6.03, 1.00, 1.00),
        (3.37, 5.54, 1.32, 2.78),
        (1.00, 4.36, 1.87, 2.82),
        (1.98, 1.00, 1.84, 2.81),
    ]
    score = combined_score(table)[0]
    ok = round(score, 2) == 0.36
    report(10, ok, f"balanced-accuracy identity exact on 500 draws; "
                   f"one-class table row scores {score:.4f} (0.36)")
