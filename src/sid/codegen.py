"""Lowering model bundles and the KS/vote pipeline to programs plus images.

Layout conventions shared by every generated program:
  * parameters are quantized to Q16.16 and placed in the memory image with a
    symbol table (name -> (word address, length)); every parameter symbol,
    the KS reference tables (raw words) included, is read-only
    (`CompiledProgram.readonly`): `fresh_state` loads it as a read-only range
    and `write_symbol` refuses it;
  * matrix-vector products split into row blocks of at most n_local rows and
    accumulate into their destination, which the image zero-initializes;
  * biases are added with an explicit Vadd after the matrix blocks (the
    recurrent step programs instead copy the bias in before accumulating so a
    step can run repeatedly);
  * a recurrent step program stacks its gate matrices `Wcat_<g>`, then its
    gate biases `b<g>`, and emits every bias-in Vadd (each over its own slice
    of `zerovec`) before all the gate mat-vecs, so a replay runs the bias-ins
    as one Vadd and the mat-vecs as one tall Mvmul;
  * programs end in Halt and are one-shot per load unless noted otherwise;
  * an unrolled form is never written: `_unroll` derives it from the looped one;
  * the LSTM and GRU step programs share one frame, `_compile_rnn_step`, and
    differ only in their `_STEP_CELLS` row (tensors, state, constants, cell);
  * a bundle whose tensor shapes disagree is a CompileError.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .detection import KsDecisionConfig
from .fixedpoint import FX_ONE, REAL_MAX, fx_array, fx_from_real
from .isa import (
    CONTROL_OPCODES,
    GROUP_LOOP,
    GROUP_OFFSET,
    MacroInstruction,
    Opcode,
    halt,
    loop,
    regaddi,
    regload,
    regstore,
)
from .machine import MachineConfig, MachineState, load, run, step_instruction
from .models import RNN_GATES, ModelBundle


class CompileError(ValueError):
    pass


@dataclass
class CompiledProgram:
    name: str
    kind: str
    instructions: list
    image: np.ndarray
    symbols: dict[str, tuple[int, int]]
    stages: dict[str, int] = field(default_factory=dict)
    readonly: frozenset[str] = frozenset()  # symbols no instruction or host may write

    @property
    def code_bytes(self) -> int:
        return 16 * len(self.instructions)

    def addr(self, name: str) -> int:
        return self.symbols[name][0]

    def length(self, name: str) -> int:
        return self.symbols[name][1]

    def symbol_table_text(self) -> str:
        lines = [f"{name} {addr} {length}" for name, (addr, length) in sorted(self.symbols.items())]
        return "\n".join(lines) + "\n"


class _Builder:
    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.cursor = 0
        self.symbols: dict[str, tuple[int, int]] = {}
        self.chunks: list[tuple[int, np.ndarray]] = []
        self.instructions: list[MacroInstruction] = []
        self.clamped: list[str] = []
        self.readonly: set[str] = set()

    def alloc(self, name: str, length: int) -> int:
        if name in self.symbols:
            raise CompileError(f"duplicate symbol {name!r}")
        addr = self.cursor
        self.cursor += length
        self.symbols[name] = (addr, length)
        return addr

    def tensor(self, name: str, values) -> int:
        """A read-only symbol holding `values`: a weight or a constant."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if np.any(np.abs(values) > REAL_MAX):
            self.clamped.append(name)
        return self.raw(name, fx_array(values))

    def raw(self, name: str, words: np.ndarray) -> int:
        """A read-only symbol holding int32 `words` as they are."""
        addr = self.alloc(name, len(words))
        self.chunks.append((addr, words))
        self.readonly.add(name)
        return addr

    def emit(self, inst: MacroInstruction) -> int:
        self.instructions.append(inst)
        return len(self.instructions) - 1

    def op(self, mode, length, x, y, z, width=0, offx=False, offy=False, offz=False) -> int:
        return self.emit(
            MacroInstruction(
                mode=mode, length=length, width=width,
                addr_x=x, addr_y=y, addr_z=z,
                off_x=offx, off_y=offy, off_z=offz,
            )
        )

    def placeholder_loop(self, n: int) -> int:
        return self.emit(loop(0, n))

    def patch_loop(self, idx: int, end: int) -> None:
        n = self.instructions[idx].y_field
        self.instructions[idx] = loop(end, n)

    def finish(self) -> CompiledProgram:
        image = np.zeros(self.cursor, dtype=np.int32)
        for addr, values in self.chunks:
            image[addr : addr + len(values)] = values
        if self.clamped:
            warnings.warn(
                f"{self.name}: clamped out-of-range tensors: {', '.join(self.clamped)}",
                RuntimeWarning,
                stacklevel=3,
            )
        return CompiledProgram(
            name=self.name,
            kind=self.kind,
            instructions=self.instructions,
            image=image,
            symbols=self.symbols,
            readonly=frozenset(self.readonly),
        )


def _emit_matvec(b: _Builder, config, w_addr, rows, cols, y_addr, z_addr):
    """Row-split Mvmul group accumulating W @ y into z, blocks of <= n_local rows."""
    for r0 in range(0, rows, config.n_local):
        blk = min(config.n_local, rows - r0)
        b.op(Opcode.MVMUL, cols, w_addr + r0 * cols, y_addr, z_addr + r0, width=blk)


def _check_strategy(strategy: str) -> None:
    if strategy not in ("looped", "unrolled"):
        raise CompileError(f"unknown strategy {strategy!r}")


def _unroll(prog: CompiledProgram, config: MachineConfig) -> CompiledProgram:
    """Unrolled form of looped `prog`: the data instructions one run over its
    own image executes, live off_x/off_y/off_z folded into their addresses,
    then Halt.

    The stream does not depend on the inputs: loop counts and regaddi steps
    are immediates, and these loops regload only their zeroed `zeros3` and
    their own `save_loop` spill, which no data instruction writes. Image and
    symbols are kept; each stage, a run of instructions from the first in
    `stages` order, counts the data instructions it ran.
    """
    state = MachineState(config, prog.instructions, prog.image.copy())
    owner = [name for name, count in prog.stages.items() for _ in range(count)]
    stages = dict.fromkeys(prog.stages, 0)
    instructions = []
    while not state.halted:
        inst = state.program[state.pc]
        if inst.mode not in CONTROL_OPCODES:
            instructions.append(replace(
                inst, off_x=False, off_y=False, off_z=False,
                addr_x=inst.addr_x + inst.off_x * state.off_x,
                addr_y=inst.addr_y + inst.off_y * state.off_y,
                addr_z=inst.addr_z + inst.off_z * state.off_z))
            if state.pc < len(owner):
                stages[owner[state.pc]] += 1
        step_instruction(state)
    instructions.append(halt())
    return replace(prog, instructions=instructions, stages=stages)


# ---------------------------------------------------------------------------
# Feed-forward models
# ---------------------------------------------------------------------------

def _compile_lr(m: ModelBundle) -> CompiledProgram:
    w = m["w"]
    b = _Builder("lr", "lr")
    waddr = b.tensor("w", w)
    baddr = b.tensor("b", [m.scalar("b")])
    x = b.alloc("input", len(w))
    z = b.alloc("score", 1)
    prob = b.alloc("prob", 1)
    half = b.tensor("half", [0.5])
    decision = b.alloc("decision", 1)
    b.op(Opcode.MVMUL, len(w), waddr, x, z, width=1)
    b.op(Opcode.VADD, 1, z, baddr, z)
    b.op(Opcode.VSIG, 1, z, 0, prob)
    b.op(Opcode.VSGT, 1, prob, half, decision)
    b.emit(halt())
    return b.finish()


def _compile_linear_svm(m: ModelBundle) -> CompiledProgram:
    weff = np.asarray(m["coef"]) @ np.asarray(m["sv"])  # collapse to the primal form
    b = _Builder("linear_svm", "linear_svm")
    waddr = b.tensor("w", weff)
    baddr = b.tensor("b", [m.scalar("b")])
    x = b.alloc("input", len(weff))
    score = b.alloc("score", 1)
    zero = b.alloc("zero", 1)
    decision = b.alloc("decision", 1)
    b.op(Opcode.MVMUL, len(weff), waddr, x, score, width=1)
    b.op(Opcode.VADD, 1, score, baddr, score)
    b.op(Opcode.VSGT, 1, score, zero, decision)
    b.emit(halt())
    return b.finish()


def _compile_kernel_machine(m: ModelBundle) -> CompiledProgram:
    """Shared kernel-sum lowering for the two-class and one-class SVMs.

    Per support vector: d = x - v_i; sq = squared norm of d; kv = exp(-gamma*sq);
    acc += coef_i * kv. The loop walks v_i through off_y (stride D) and coef_i
    through off_x (stride 1).
    """
    sv, coef = m["sv"], m["coef"]
    if sv.ndim != 2 or len(sv) < 1 or coef.shape != (len(sv),):
        raise CompileError(f"{m.kind} bundle: sv {sv.shape} and coef {coef.shape} need at least "
                           "one support vector and one coefficient per support vector")
    n_sv, dim = sv.shape
    gamma = m.scalar("gamma")
    offset = -m.scalar("rho") if m.kind == "ocsvm" else m.scalar("b")

    b = _Builder(m.kind, m.kind)
    zeros3 = b.alloc("zeros3", 3)
    svaddr = b.tensor("sv", sv)
    caddr = b.tensor("coef", coef)
    neg_gamma = b.tensor("neg_gamma", [-gamma])
    offs = b.tensor("offset_term", [offset])
    x = b.alloc("input", dim)
    d = b.alloc("d", dim)
    sq = b.alloc("sq", 1)
    arg = b.alloc("arg", 1)
    kv = b.alloc("kv", 1)
    term = b.alloc("term", 1)
    acc = b.alloc("acc", 1)
    score = b.alloc("score", 1)
    zero = b.alloc("zero", 1)
    decision = b.alloc("decision", 1)

    b.emit(regload(GROUP_OFFSET, zeros3))
    loop_idx = b.placeholder_loop(n_sv - 1)
    b.op(Opcode.VSUB, dim, x, svaddr, d, offy=True)
    b.op(Opcode.VSQNORM, dim, d, 0, sq)
    b.op(Opcode.VMUL, 1, sq, neg_gamma, arg)
    b.op(Opcode.VEXP, 1, arg, 0, kv)
    b.op(Opcode.VMUL, 1, caddr, kv, term, offx=True)
    b.op(Opcode.VADD, 1, acc, term, acc)
    b.emit(regaddi(1, dim))  # off_y += dim: next support vector
    end = b.emit(regaddi(0, 1))  # off_x += 1: next coefficient
    b.patch_loop(loop_idx, end)
    b.op(Opcode.VADD, 1, acc, offs, score)
    b.op(Opcode.VSGT, 1, score, zero, decision)  # 1.0 means +1 / normal
    b.emit(halt())
    return b.finish()


def _compile_mlp(m: ModelBundle, config: MachineConfig) -> CompiledProgram:
    """Mat-vec, bias and sigmoid per layer. Each layer's width comes from its
    bias; a weight that does not map the layer below onto it would be read
    as the wrong words."""
    n_layers = int(m.scalar("n_layers"))
    w0 = m["W0"]
    sizes = [w0.shape[-1] if w0.ndim else 0] + [m[f"b{i}"].size for i in range(n_layers)]
    for i in range(n_layers):
        source = f"b{i - 1}" if i else "W0"
        for name, shape in ((f"W{i}", (sizes[i + 1], sizes[i])), (f"b{i}", (sizes[i + 1],))):
            if m[name].shape != shape:
                raise CompileError(f"mlp bundle: layer {i} {name} has shape {m[name].shape}, "
                                   f"expected {shape} (input {sizes[i]} from {source}, "
                                   f"output {sizes[i + 1]} from b{i})")
    b = _Builder("mlp", "mlp")
    weights = []
    for i in range(n_layers):
        weights.append(
            (b.tensor(f"W{i}", m[f"W{i}"]), b.tensor(f"b{i}", m[f"b{i}"]))
        )
    acts = [b.alloc("input", sizes[0])]
    for i in range(1, n_layers):
        acts.append(b.alloc(f"act{i}", sizes[i]))
    logits = b.alloc("logits", sizes[-1])
    acts.append(logits)
    decision = b.alloc("decision", 1) if sizes[-1] == 2 else None

    for i in range(n_layers):
        waddr, baddr = weights[i]
        _emit_matvec(b, config, waddr, sizes[i + 1], sizes[i], acts[i], acts[i + 1])
        b.op(Opcode.VADD, sizes[i + 1], acts[i + 1], baddr, acts[i + 1])
        if i < n_layers - 1:
            b.op(Opcode.VSIG, sizes[i + 1], acts[i + 1], 0, acts[i + 1])
    if decision is not None:
        b.op(Opcode.VSGT, 1, logits + 1, logits, decision)  # impostor >= owner
    b.emit(halt())
    return b.finish()


# ---------------------------------------------------------------------------
# Recurrent step programs
# ---------------------------------------------------------------------------

STEP_ERRORS = 512  # words of `errors`: one squared error per step


def _lstm_cell(b: _Builder, at, hidden: int, config: MachineConfig) -> None:
    cand, f, i, o, c, h, t1, t2, t3 = map(at, "gate_c gate_f gate_i gate_o c h t1 t2 t3".split())
    b.op(Opcode.VTANH, hidden, cand, 0, cand)
    for gate in (f, i, o):
        b.op(Opcode.VSIG, hidden, gate, 0, gate)
    b.op(Opcode.VMUL, hidden, f, c, t1)
    b.op(Opcode.VMUL, hidden, i, cand, t2)
    b.op(Opcode.VADD, hidden, t1, t2, c)
    b.op(Opcode.VTANH, hidden, c, 0, t3)
    b.op(Opcode.VMUL, hidden, o, t3, h)


def _gru_cell(b: _Builder, at, hidden: int, config: MachineConfig) -> None:
    z, r, cand, h, t1, t2, t3 = map(at, "gate_z gate_r cand h t1 t2 t3".split())
    b.op(Opcode.VSIG, hidden, z, 0, z)
    b.op(Opcode.VSIG, hidden, r, 0, r)
    b.op(Opcode.VMUL, hidden, r, h, t1)  # r * h
    b.op(Opcode.VADD, hidden, at("bh"), at("zerovec"), cand)
    _emit_matvec(b, config, at("Wh"), hidden, b.symbols["input"][1], at("input"), cand)
    _emit_matvec(b, config, at("Ur_cand"), hidden, hidden, t1, cand)  # candidate reuses Ur
    b.op(Opcode.VSIG, hidden, cand, 0, cand)
    b.op(Opcode.VSUB, hidden, at("ones"), z, t2)  # 1 - z
    b.op(Opcode.VMUL, hidden, t2, h, t3)
    b.op(Opcode.VMUL, hidden, z, cand, t2)
    b.op(Opcode.VADD, hidden, t3, t2, h)


# Per kind: cell-only tensors (symbol, bundle tensor), hidden-long state symbols after h,
# hidden-long constants (symbol, value) and the cell; U gate g accumulates into `gate_<g>`.
_STEP_CELLS = {
    "lstm": ((), ("c", "gate_c", "gate_f", "gate_i", "gate_o"), (), _lstm_cell),
    "gru": ((("Wh", "Wh"), ("bh", "bh"), ("Ur_cand", "Ur")), ("gate_z", "gate_r", "cand"),
            (("ones", 1.0),), _gru_cell),
}


def _compile_rnn_step(m: ModelBundle, config: MachineConfig) -> CompiledProgram:
    """Error prelude, every U gate's bias in then every U gate's mat-vec, the
    kind's cell, readout. A tensor that does not match (hidden, D) would be
    read as the wrong words."""
    tensors, state, constants, cell = _STEP_CELLS[m.kind]
    w_gates, gates = RNN_GATES[m.kind]
    hidden, dim = m[f"b{w_gates[0]}"].size, m["bout"].size
    want = {f"W{g}": (hidden, dim) for g in w_gates}
    want.update({f"U{g}": (hidden, hidden) for g in gates})
    want.update({f"b{g}": (hidden,) for g in w_gates}, Wout=(dim, hidden), bout=(dim,))
    for name, shape in want.items():
        if m[name].shape != shape:
            raise CompileError(f"{m.kind} bundle: {name} has shape {m[name].shape}, expected "
                               f"{shape} (hidden {hidden} from b{w_gates[0]}, D {dim} from bout)")
    b = _Builder(f"{m.kind}_step", m.kind)
    # Each wcat is freed a gate later: freeing it at once raised the peak RSS of an
    # LSTM-200 compile and run by 1.7-2.9 MB, through glibc's dynamic mmap threshold.
    for g in gates:
        wcat = np.concatenate([m[f"W{g}"], m[f"U{g}"]], axis=1)
        b.tensor(f"Wcat_{g}", wcat)
    for g in gates:
        b.tensor(f"b{g}", m[f"b{g}"])
    for name, source in tensors + (("Wout", "Wout"), ("bout", "bout")):
        b.tensor(name, m[source])
    xh = b.alloc("input", dim)  # x and h are contiguous: one gate operand
    for name in ("h", *state, "t1", "t2", "t3"):
        b.alloc(name, hidden)
    pred = b.alloc("pred", dim)
    ed = b.alloc("ed", dim)
    errs = b.alloc("errors", STEP_ERRORS)
    # One slice per gate bias-in; also zeroes the dim-long pred bias add.
    zerovec = b.alloc("zerovec", max(len(gates) * hidden, dim))
    for name, value in constants:
        b.tensor(name, np.full(hidden, value))
    at = lambda name: b.symbols[name][0]

    # Error of the previous prediction against the newly arrived reading; the
    # write pointer lives in off_z and survives across runs of this program.
    b.op(Opcode.VSUB, dim, pred, xh, ed)
    b.op(Opcode.VSQNORM, dim, ed, 0, errs, offz=True)
    b.emit(regaddi(2, 1))
    for k, g in enumerate(gates):  # bias in, repeat-safe
        b.op(Opcode.VADD, hidden, at(f"b{g}"), zerovec + k * hidden, at(f"gate_{g}"))
    for g in gates:
        _emit_matvec(b, config, at(f"Wcat_{g}"), hidden, dim + hidden, xh, at(f"gate_{g}"))
    cell(b, at, hidden, config)
    b.op(Opcode.VADD, dim, at("bout"), zerovec, pred)
    _emit_matvec(b, config, at("Wout"), dim, hidden, at("h"), pred)
    b.emit(halt())
    return b.finish()


# ---------------------------------------------------------------------------
# KS + vote stage
# ---------------------------------------------------------------------------

def compile_ks_stage(
    references,
    cfg: KsDecisionConfig,
    strategy: str = "looped",
    include_vote: bool = True,
    include_ks: bool = True,
) -> CompiledProgram:
    """Compile the reference comparison and (optionally) the vote.

    The image stores, per reference, the bin boundaries shifted up one ulp
    (so the strict vector-scalar compare counts errors <= boundary exactly)
    and the cumulative histogram in count units. The observed window lives at
    the `errors` symbol, one Q16.16 word per error, written by the host. Per
    reference the stage builds the observed histogram into `observed_hist`,
    subtracts it from the reference counts into `diff` and writes max|diff|
    into `d_values`; one compare after the last reference sets every
    `rejects` bit. The unrolled form is the looped program's executed data
    stream (`_unroll`), so both leave the same words in every symbol except
    the looped form's loop-register spill slot, `save_loop`.
    """
    _check_strategy(strategy)
    refs = list(references)
    n_ref = len(refs)
    n_err = cfg.window_errors
    bins = refs[0].bins if refs else cfg.bins
    for ref in refs:
        if ref.bins != bins:
            raise CompileError("all references must share one bin count")
        if ref.n != n_err:
            raise CompileError(
                f"equal-size contract: reference has {ref.n} samples, window has {n_err}"
            )
    if not include_ks and not include_vote:
        raise CompileError("nothing to compile")
    if include_ks and n_ref < 1:
        raise CompileError("the comparison stage needs at least one reference")

    name = {(True, True): "ks_vote", (True, False): "ks", (False, True): "vote"}[
        (include_ks, include_vote)
    ]
    b = _Builder(name, "ks")
    if include_ks:  # the vote reads only rejects, votes and vote_threshold
        zeros3 = b.alloc("zeros3", 3)
        save_l = b.alloc("save_loop", 3)
        bnd_rows = []
        cnt_rows = []
        for ref in refs:
            # One ulp up: the strict > compare then counts errors <= boundary.
            bnd_rows.append([min(fx_from_real(v) + 1, 0x7FFFFFFF) for v in ref.boundaries])
            cnt_rows.append([int(c) for c in ref.counts])
        # Raw words: the boundaries are already Q16.16, the counts whole counts.
        bnds = b.raw("boundaries",
                     np.asarray(bnd_rows, dtype=np.int64).reshape(-1).astype(np.int32))
        counts = b.raw("ref_counts",
                       (np.asarray(cnt_rows, dtype=np.int64).reshape(-1) * FX_ONE).astype(np.int32))
        errs = b.alloc("errors", n_err)
        tmp = b.alloc("tmp", bins)
        acc = b.alloc("observed_hist", bins)
        diff = b.alloc("diff", bins)
        dvec = b.alloc("d_values", n_ref)
    rejects = b.alloc("rejects", max(n_ref, 1))
    votes = b.alloc("votes", 1)
    decision = b.alloc("decision", 1)
    if include_ks:
        ks_thresh = b.tensor("ks_threshold", [cfg.critical * math.sqrt(2 * n_err)])
    vote_thresh = b.tensor("vote_threshold", [n_ref / 2])

    stages = {}
    if include_ks:
        start = len(b.instructions)
        b.emit(regload(GROUP_OFFSET, zeros3))  # entry hygiene: offsets <- 0
        outer = b.placeholder_loop(n_ref - 1)
        b.emit(regstore(GROUP_LOOP, save_l))
        b.op(Opcode.VSUB, bins, acc, acc, acc)  # zero the observed histogram
        inner = b.placeholder_loop(n_err - 1)
        b.op(Opcode.VSSGT, bins, bnds, errs, tmp, offx=True, offy=True)
        b.op(Opcode.VADD, bins, acc, tmp, acc)
        inner_end = b.emit(regaddi(1, 1))  # next error
        b.patch_loop(inner, inner_end)
        b.emit(regload(GROUP_LOOP, save_l))
        b.emit(regaddi(1, -n_err))  # rewind to the first error
        b.op(Opcode.VSUB, bins, counts, acc, diff, offx=True)
        b.op(Opcode.VMAXABS, bins, diff, 0, dvec, offz=True)
        b.emit(regaddi(0, bins))  # next reference row
        outer_end = b.emit(regaddi(2, 1))  # next D slot
        b.patch_loop(outer, outer_end)
        b.op(Opcode.VSSGT, n_ref, dvec, ks_thresh, rejects)  # reject iff D > c*sqrt(2n)
        stages["ks"] = len(b.instructions) - start
    if include_vote:
        start = len(b.instructions)
        b.op(Opcode.VSQNORM, n_ref, rejects, 0, votes)  # reject bits are 0/1
        b.op(Opcode.VSGT, 1, votes, vote_thresh, decision)  # half is inclusive
        stages["vote"] = len(b.instructions) - start
    b.emit(halt())
    prog = b.finish()
    prog.stages = stages
    return _unroll(prog, MachineConfig()) if strategy == "unrolled" else prog


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def compile_model(m: ModelBundle, config: MachineConfig, strategy: str = "looped") -> CompiledProgram:
    """Lower a bundle; only the kernel machines loop, so only they have an
    unrolled form (`_unroll` of the looped program)."""
    _check_strategy(strategy)
    if m.kind == "krr":
        raise CompileError(
            "krr is not compilable: its feature extraction needs vector min/max/"
            "sqrt/FFT operations the hardware leaves unimplemented"
        )
    if m.kind in ("kernel_svm", "ocsvm"):
        prog = _compile_kernel_machine(m)
        return _unroll(prog, config) if strategy == "unrolled" else prog
    if strategy == "unrolled":
        raise CompileError(
            f"{m.kind} has no unrolled form; only kernel_svm and ocsvm have one"
        )
    if m.kind == "lr":
        return _compile_lr(m)
    if m.kind == "linear_svm":
        return _compile_linear_svm(m)
    if m.kind == "mlp":
        return _compile_mlp(m, config)
    if m.kind in _STEP_CELLS:
        return _compile_rnn_step(m, config)
    raise CompileError(f"unsupported model kind {m.kind!r}")


def code_size_report(rows) -> str:
    """Plain-text size table of (name, looped, unrolled or None) rows with
    looped/unrolled reduction factors."""
    lines = [f"{'program':<16} {'looped_B':>9} {'unrolled_B':>11} {'reduction':>10}"]
    for name, looped, unrolled in rows:
        lb = looped.code_bytes
        ub = unrolled.code_bytes if unrolled else "-"
        reduction = f"{ub / lb:.1f}X" if unrolled else "1.0X"
        lines.append(f"{name:<16} {lb:>9} {ub:>11} {reduction:>10}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Running compiled programs
# ---------------------------------------------------------------------------

def fresh_state(prog: CompiledProgram, config: MachineConfig) -> MachineState:
    """A loaded state of `prog` whose read-only symbols are read-only ranges."""
    ranges = [(addr, addr + length) for addr, length in map(prog.symbols.get, prog.readonly)]
    return load(config, prog.instructions, prog.image, ranges)


def _writable(prog: CompiledProgram, name: str) -> tuple[int, int]:
    """The (address, length) of a symbol the host may write."""
    symbol = prog.symbols[name]
    if name in prog.readonly:
        raise CompileError(f"symbol {name!r} is read-only")
    return symbol


def _put(state: MachineState, name: str, symbol: tuple[int, int], values) -> None:
    """Write `values` as Q16.16 words from the start of symbol (address, length)."""
    addr, length = symbol
    values = np.asarray(values, dtype=np.float64)
    if values.size > length:
        raise CompileError(f"symbol {name!r} holds {length} words, got {values.size}")
    state.words[addr : addr + values.size] = fx_array(values).reshape(-1)


def write_symbol(state: MachineState, prog: CompiledProgram, name: str, values) -> None:
    _put(state, name, _writable(prog, name), values)


def read_symbol(state: MachineState, prog: CompiledProgram, name: str, count=None) -> np.ndarray:
    addr, length = prog.symbols[name]
    count = length if count is None else count
    if not 0 <= count <= length:
        raise CompileError(f"symbol {name!r} holds {length} words, cannot read {count}")
    return state.memory[addr : addr + count].astype(np.float64) / FX_ONE


def run_feedforward(prog: CompiledProgram, config: MachineConfig, x, outputs=("decision",)):
    """Load a fresh state, write the input vector, run, read named outputs."""
    state = fresh_state(prog, config)
    write_symbol(state, prog, "input", x)
    run(state)
    return {name: read_symbol(state, prog, name) for name in outputs}, state


class StepRunner:
    """Drives a recurrent step program over a sequence of readings.

    The program keeps h/c/pred in memory and appends one squared error per
    step; the first error (no prior prediction exists) is discarded.
    """

    def __init__(self, prog: CompiledProgram, config: MachineConfig):
        self.prog = prog
        self.state = fresh_state(prog, config)
        self.steps = 0
        self.cycles_per_step: list[int] = []
        self._input = _writable(prog, "input")
        # Each step writes one error at errors[steps]; past the last slot the
        # program would write into the next symbol.
        self._capacity = prog.length("errors")

    def step(self, reading) -> None:
        state, capacity = self.state, self._capacity
        if self.steps >= capacity:
            raise CompileError(
                f"symbol 'errors' holds {capacity} words: the step program is full "
                f"after {capacity} steps"
            )
        before = state.cycles
        _put(state, "input", self._input, reading)
        state.pc = 0  # a new reading re-arms the program counter
        state.halted = False
        run(state)
        self.cycles_per_step.append(state.cycles - before)
        self.steps += 1

    def errors(self) -> np.ndarray:
        raw = read_symbol(self.state, self.prog, "errors", count=self.steps)
        return raw[1:]  # drop the bootstrap error
