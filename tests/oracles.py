"""Reference implementations that only the tests use.

Most are the plain loop a faster `sid` routine replaced, kept here so the
tests can compare the two; the assembler, the inverse of
`sid.isa.disassemble`, lets the tests write programs as text.
"""

import numpy as np

from sid.fixedpoint import FX_ONE, saturate
from sid.isa import (
    _OFFSET_REG_NAMES, GROUP_LOOP, GROUP_OFFSET, EncodingError, MacroInstruction, Opcode, loop,
    regaddi, regload, regstore,
)
from sid.models import RNN_CELLS, ShapeError, rnn_hidden_size, stacked_weights, step_rnn


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
    cell, arity = RNN_CELLS[m.kind]
    state = (np.zeros((B, rnn_hidden_size(m))),) * arity
    errors = np.empty((B, T - 1))
    for t in range(T - 1):
        *state, _ = cell(W, U, b, *state, x[:, t, :])
        pred = state[0] @ m["Wout"].T + m["bout"]
        errors[:, t] = ((pred - x[:, t + 1, :]) ** 2).sum(axis=1)
    return errors


def fx_sub(a: int, b: int) -> int:
    """Saturating Q16.16 difference of two raw values."""
    return saturate(a - b)


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
