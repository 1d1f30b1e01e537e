"""Reference implementations that only the tests use.

Most are the plain loop a faster `sid` routine replaced, kept here so the
tests can compare the two; the assembler, the inverse of
`sid.isa.disassemble`, lets the tests write programs as text.
"""

import numpy as np

from sid.fixedpoint import FRAC_BITS, FX_ONE, LutTable, saturate
from sid.isa import (
    _OFFSET_REG_NAMES, GROUP_LOOP, GROUP_OFFSET, EncodingError, MacroInstruction, Opcode, loop,
    regaddi, regload, regstore,
)
from sid.machine import MachineState, MachineTrap, _merged, step_instruction
from sid.models import RNN_CELLS, ShapeError, mT, rnn_hidden_size, split_gates, stacked_weights
from sid.training import init_rnn


def init_gru(hidden, dim, seed=0, scale=0.2):
    """The GRU counterpart of `sid.training.init_lstm`, for tests that iterate
    over the two initializers."""
    return init_rnn("gru", hidden, dim, seed, scale)


def step_rnn(m, state, x) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """One cell update plus the affine readout: (state', Wout h' + bout)."""
    cell, arity, _ = RNN_CELLS[m.kind]
    hidden = rnn_hidden_size(m)
    state = tuple(np.asarray(s, dtype=np.float64) for s in state)
    if len(state) != arity or any(s.shape != (hidden,) for s in state):
        raise ShapeError(f"{m.kind} state must be {arity} array(s) of shape ({hidden},)")
    W, U, b = stacked_weights(m)
    *state, _ = cell(np.asarray(x, dtype=np.float64) @ W.T, U, b, *state)
    return tuple(state), m["Wout"] @ state[0] + m["bout"]


def project_capped_simplex_clip(v, cap):
    """`sid.training._project_capped_simplex` in its np.clip form, with numpy
    scalars in the interpolation: the form the np.maximum/np.minimum one replaced."""
    knots = np.sort(np.concatenate([v - cap, v]))
    f = np.clip(v - knots[:, None], 0.0, cap).sum(axis=1)
    j = np.count_nonzero(f > 1.0)
    t = knots[0]
    if j:
        t = knots[j - 1] + (f[j - 1] - 1.0) * (knots[j] - knots[j - 1]) / (f[j - 1] - f[j])
    return np.clip(v - t, 0.0, cap)


def full_state(config, program, image, readonly=()) -> MachineState:
    """A state of `program` that holds the whole data memory from the start,
    `image` then zeros, as `sid.machine.load` once built every state: the
    reference an image-sized state, grown on demand, must match."""
    memory = np.zeros(config.data_mem_words, dtype=np.int32)
    memory[: len(image)] = image
    return MachineState(config, program, memory, _merged(readonly))


def stepped(state, max_cycles=None):
    """`sid.machine.run` one `step_instruction` at a time, with its cycle
    budget: checked after each instruction, not after the stop past the last
    one, which executes nothing."""
    while not state.halted:
        executes = state.pc < len(state.program)
        step_instruction(state)
        if executes and max_cycles is not None and state.cycles > max_cycles:
            raise MachineTrap(state.pc, f"cycle budget {max_cycles} exceeded")
    return state


def predict_series(m, readings) -> np.ndarray:
    """Squared-L2 next-step prediction errors over a reading sequence.

    errors[t-1] = ||prediction from readings[..t-1] - readings[t]||^2,
    one error per transition, so a length-T sequence yields T-1 errors.
    Steps the single-reading models, state from zero.
    """
    readings = np.asarray(readings, dtype=np.float64)
    if readings.ndim != 2 or len(readings) < 2:
        raise ShapeError("need at least two readings to score predictions")
    state = (np.zeros(rnn_hidden_size(m)),) * RNN_CELLS[m.kind][1]
    errors = []
    for t in range(len(readings) - 1):
        state, pred = step_rnn(m, state, readings[t])
        diff = pred - readings[t + 1]
        errors.append(float(np.dot(diff, diff)))
    return np.array(errors)


def stepwise_readout_errors(m, windows) -> np.ndarray:
    """batched_window_errors with the readout and the error inside the step loop."""
    x = np.asarray(windows, dtype=np.float64)
    B, T, D = x.shape
    W, U, b = stacked_weights(m)
    cell, arity, _ = RNN_CELLS[m.kind]
    state = (np.zeros((B, rnn_hidden_size(m))),) * arity
    errors = np.empty((B, T - 1))
    for t in range(T - 1):
        *state, _ = cell(x[:, t, :] @ W.T, U, b, *state)
        pred = state[0] @ m["Wout"].T + m["bout"]
        errors[:, t] = ((pred - x[:, t + 1, :]) ** 2).sum(axis=1)
    return errors


def _lstm_grads(U, gU, state, acts, dstate):
    """One step back through lstm_cell: (pre-activation gradient, previous
    (dh, dc)), given (dh, dc) at its output; adds the step's U gradient to gU."""
    (h, c), (cand, fio, hc), (dh, dc) = state, acts, dstate
    H = h.shape[-1]
    f, i, o = fio[..., :H], fio[..., H : 2 * H], fio[..., 2 * H :]
    dc = dc + dh * o * (1.0 - hc**2)
    dfio = np.concatenate([dc * c, dc * cand, dh * hc], axis=-1)
    da = np.concatenate([dc * i * (1.0 - cand**2), dfio * fio * (1.0 - fio)], axis=-1)
    gU += mT(da) @ h
    return da, (da @ U, dc * f)


def _gru_grads(U, gU, state, acts, dstate):
    """One step back through gru_cell, as _lstm_grads; the candidate reuses Ur."""
    (h,), (zr, rh, cand), (dh,) = state, acts, dstate
    H = h.shape[-1]
    z, r = zr[..., :H], zr[..., H:]
    dac = dh * z * cand * (1.0 - cand)  # candidate pre-activation
    drh = dac @ U[..., H:, :]
    dzr = np.concatenate([dh * (cand - h), drh * h], axis=-1) * zr * (1.0 - zr)
    gU += mT(dzr) @ h  # gate-side uses of Uz and Ur
    gU[..., H:, :] += mT(dac) @ rh  # candidate-side use of Ur
    return np.concatenate([dzr, dac], axis=-1), (dh * (1.0 - z) + drh * r + dzr @ U,)


def bptt_stepped(m, batch, state=None):
    """sid.training.rnn_loss_and_grads with every product, readout, loss and
    gradient term computed step by step inside the two loops, on new arrays."""
    x = np.asarray(batch, dtype=np.float64)
    *_, B, T, D = x.shape
    cell, arity, _ = RNN_CELLS[m.kind]
    W, U, b = stacked_weights(m)
    b_rows = b[..., None, :]
    w_out, b_out = m["Wout"], m["bout"][..., None, :]
    zeros = (np.zeros(x.shape[:-2] + (rnn_hidden_size(m),)),) * arity
    state = zeros if state is None else tuple(state)
    steps = T - 1
    cache = []
    loss = 0.0
    for t in range(steps):
        xt = x[..., t, :]
        *new, acts = cell(xt @ mT(W), U, b_rows, *state)
        err = new[0] @ mT(w_out) + b_out - x[..., t + 1, :]
        loss += (err**2).sum(axis=(-2, -1))
        cache.append((xt, state, acts, new[0], err))
        state = tuple(new)
    scale = 1.0 / (B * steps)
    loss *= scale

    gW, gU, gb = np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)
    g_out, g_bout = np.zeros_like(w_out), np.zeros_like(m["bout"])
    step_back = {"lstm": _lstm_grads, "gru": _gru_grads}[m.kind]
    dstate = zeros
    for t in reversed(range(steps)):
        xt, prev, acts, h_new, err = cache[t]
        dpred = 2.0 * scale * err
        g_out += mT(dpred) @ h_new
        g_bout += dpred.sum(axis=-2)
        dh = dstate[0] + dpred @ w_out
        da, dstate = step_back(U, gU, prev, acts, (dh, *dstate[1:]))
        gW += mT(da) @ xt
        gb += da.sum(axis=-2)
    grads = {**split_gates(m.kind, gW, gU, gb), "Wout": g_out, "bout": g_bout}
    return loss, grads, state


def fx_add(a: int, b: int) -> int:
    """Saturating Q16.16 sum of two raw values."""
    return saturate(a + b)


def fx_sub(a: int, b: int) -> int:
    """Saturating Q16.16 difference of two raw values."""
    return saturate(a - b)


def fx_mul(a: int, b: int) -> int:
    """Q16.16 product of two raw values: the full product, then an arithmetic
    shift (rounding toward negative infinity), saturated."""
    return saturate((a * b) >> FRAC_BITS)


def lut_lookup(table: LutTable, x_raw: int) -> tuple[int, int]:
    """Slope/intercept pair of `table` for one raw input."""
    if x_raw < table.lo_raw:
        return 0, table.sat_lo
    if x_raw >= table.hi_raw:
        return 0, table.sat_hi
    idx = (x_raw - table.lo_raw) * table.segments // (table.hi_raw - table.lo_raw)
    return int(table.k[idx]), int(table.b[idx])


def lut_eval(table: LutTable, x_raw: int) -> int:
    """k*x + b of `table` for one raw input, through the fixed-point multiply
    and add: what `LutTable.eval_array` gives per element."""
    k, b = lut_lookup(table, x_raw)
    return fx_add(fx_mul(k, x_raw), b)


def real_array(raw) -> np.ndarray:
    """Raw Q16.16 values as floats."""
    return np.asarray(raw, dtype=np.float64) / FX_ONE


class AsmError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_MNEMONICS = {op.name.lower(): op for op in Opcode}
_GROUP_NAMES = {GROUP_LOOP: "loop", GROUP_OFFSET: "offset"}
_FIELD_KEYS = {"length", "width", "x", "y", "z"}


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token, 16) if token.lower().startswith(("0x", "-0x")) else int(token)
    except ValueError:
        raise AsmError(line_no, f"bad {what} value {token!r}") from None


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def assemble(text: str) -> list[MacroInstruction]:
    """Assemble one instruction per line; `name:` labels resolve to indices.

    The inverse of `sid.isa.disassemble`, which the tests use to write
    programs as text.
    """
    labels: dict[str, int] = {}
    rows: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        while line.split()[0].endswith(":"):
            label = line.split()[0][:-1]
            if not label.isidentifier():
                raise AsmError(line_no, f"bad label {label!r}")
            if label in labels:
                raise AsmError(line_no, f"duplicate label {label!r}")
            labels[label] = len(rows)
            line = line[len(label) + 1 :].strip()
            if not line:
                break
        if line:
            rows.append((line_no, line))

    instructions = []
    for line_no, line in rows:
        parts = line.split()
        mnemonic = parts[0].lower()
        op = _MNEMONICS.get(mnemonic)
        if op is None:
            raise AsmError(line_no, f"unknown opcode {parts[0]!r}")
        kv: dict[str, str] = {}
        flags: set[str] = set()
        for part in parts[1:]:
            if "=" in part:
                key, _, value = part.partition("=")
                kv[key.lower()] = value
            elif part.lower() in {"offx", "offy", "offz"}:
                flags.add(part.lower())
            else:
                raise AsmError(line_no, f"unexpected token {part!r}")

        def take(key: str, default=0, *, required=False):
            if key in kv:
                return _parse_int(kv.pop(key), line_no, key)
            if required:
                raise AsmError(line_no, f"missing field {key}=")
            return default

        if op is Opcode.LOOP and ("end" in kv or "n" in kv):
            end_tok = kv.pop("end", None)
            if end_tok is None:
                raise AsmError(line_no, "loop needs end=")
            end = labels[end_tok] if end_tok in labels else _parse_int(end_tok, line_no, "end")
            inst = loop(end, take("n", required=True))
        elif op is Opcode.REGADDI and ("reg" in kv or "imm" in kv):
            reg_tok = kv.pop("reg", None)
            if reg_tok is None:
                raise AsmError(line_no, "regaddi needs reg=")
            name_map = {v: k for k, v in _OFFSET_REG_NAMES.items()}
            reg = name_map.get(reg_tok, None)
            if reg is None:
                reg = _parse_int(reg_tok, line_no, "reg")
            inst = regaddi(reg, take("imm", required=True))
        elif op in (Opcode.REGSTORE, Opcode.REGLOAD) and ("group" in kv or "addr" in kv):
            group_tok = kv.pop("group", None)
            if group_tok is None:
                raise AsmError(line_no, f"{mnemonic} needs group=")
            name_map = {v: k for k, v in _GROUP_NAMES.items()}
            group = name_map.get(group_tok)
            if group is None:
                group = _parse_int(group_tok, line_no, "group")
            ctor = regstore if op is Opcode.REGSTORE else regload
            inst = ctor(group, take("addr", required=True))
        else:
            values = {key: take(key) for key in _FIELD_KEYS}
            try:
                inst = MacroInstruction(
                    mode=op,
                    length=values["length"],
                    width=values["width"],
                    addr_x=values["x"],
                    addr_y=values["y"],
                    addr_z=values["z"],
                    off_x="offx" in flags,
                    off_y="offy" in flags,
                    off_z="offz" in flags,
                )
                inst._check()
            except EncodingError as exc:
                raise AsmError(line_no, str(exc)) from None
        if kv:
            raise AsmError(line_no, f"unexpected fields {sorted(kv)}")
        instructions.append(inst)
    return instructions
