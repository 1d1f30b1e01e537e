"""The four benchmark workloads, driven through the public `sid` API.

Every input comes from `data.synth_user_sessions` with the run's seed: two
users, four sessions each, 1,400 readings per session, cut into 200-reading
windows every 50 readings and split by session into train and test halves.

* lad_train:  `sid detect --pipeline vote` over the corpus; trains one LSTM-16
              per user inside every call (the user's corpus -> CSV run).
* lad_score:  `sid detect --model <bundle> --user u` for both users and the
              vote, threshold and ocsvm pipelines; set-up trains the bundles,
              so the calls only score, test and decide.
* vm_lstm200: per test window, a fresh `StepRunner` runs the compiled
              LSTM-200 step program over the 200 readings, then the looped
              KS+vote program decides on the last 40 machine errors.
* vm_ks:      the KS+vote program alone, once per (owner, test window), on the
              float oracle's last 40 errors of that window.

Each operation checks its own outputs; a failed check or an exception counts
against the run's `failed`.
"""

import csv
import dataclasses
import hashlib
import io
import shutil
import time
from collections import defaultdict

import numpy as np

from sid import cli, codegen, data, detection, energy, isa, machine, models, pipeline, training
from sid.fixedpoint import FX_ONE, fx_array

FREQS = (1.6, 2.2)
SESSIONS = 4
READINGS = 1400
WINDOW = 200
STEP = 50
TRAIN_FRACTION = 0.5
VOTE_FLOOR = 0.80  # criterion 9's accuracy floor for the PED vote
# |machine - float| squared error per reading: criterion 3 bounds one step's
# outputs by 2^-8; 200 chained steps and a squared 6-channel error widen that.
VM_ERR_TOL = 2.0**-4
N_TRACKS = (1, 4, 8)
BUDGET_MS = 20.0  # criterion 7: one detection step per 20 ms reading period
ENERGY_BAND = (55.0, 70.0)  # criterion 8


def corpus(seed):
    return data.synth_user_sessions(
        FREQS, SESSIONS, READINGS, seed, noise_std=0.1, session_jitter=0.07
    )


def split(sequences, seed):
    return detection.split_by_sequence(sequences, TRAIN_FRACTION, seed, WINDOW, STEP)


@dataclasses.dataclass
class OpResult:
    """One benchmark operation: what it decided, how long it took, what failed."""

    windows: int  # detection windows decided
    busy_s: float  # host seconds spent in the program
    latencies_s: list  # one sample per unit of work (call, step or KS window)
    outcome: object  # compared between the traced and the untraced pass
    errors: list = dataclasses.field(default_factory=list)
    decisions: list = dataclasses.field(default_factory=list)  # (vm, truth, float vote)
    max_abs_err: float = 0.0
    start: float = 0.0  # perf_counter() around the operation, set by the runner
    end: float = 0.0


class Workload:
    name = ""
    unit = ""  # what one latency sample times
    cycle = 1  # operations run in whole cycles of this many

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir
        self._setups = 0

    def fresh_dir(self):
        self._setups += 1
        path = self.workdir / f"setup{self._setups}"
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def run_checks(self, results) -> list:
        """(ok, message) for checks over the whole run."""
        return []

    def readouts(self, results) -> dict:
        return {}


# ---------------------------------------------------------------------------
# Local detection through the CLI
# ---------------------------------------------------------------------------

def parse_report(text, expected_users, test_sizes):
    """Rows and summary of a `sid detect` CSV, with the confusion counts each
    row's rates imply; raises ValueError when the report is malformed."""
    table, _, tail = text.partition("\n\n")
    reader = csv.DictReader(io.StringIO(table))
    if tuple(reader.fieldnames or ()) != detection.REPORT_FIELDS:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    rows = list(reader)
    summary = dict(line.split("=", 1) for line in tail.splitlines() if line)
    if [int(r["user"]) for r in rows] != list(expected_users):
        raise ValueError(f"rows for users {[r['user'] for r in rows]}, want {expected_users}")
    counts = {}
    for row in rows:
        user = int(row["user"])
        owner, impostor = test_sizes[user]
        tn = round(float(row["tnr"]) * owner)
        tp = round(float(row["tpr"]) * impostor)
        c = detection.ConfusionCounts(tp=tp, fp=owner - tn, tn=tn, fn=impostor - tp)
        implied = pipeline.safe_metrics(c)
        for key in ("tnr", "tpr", "accuracy", "precision", "recall", "f1"):
            if abs(float(implied[key]) - float(row[key])) > 1e-6:
                raise ValueError(f"user {user}: {key}={row[key]} fits no confusion counts")
        counts[user] = c
    total = sum(counts.values(), detection.ConfusionCounts())
    if abs(float(pipeline.safe_metrics(total)["accuracy"]) - float(summary["accuracy"])) > 1e-6:
        raise ValueError("summary accuracy disagrees with the rows")
    return counts


def accuracy(counts) -> float:
    total = sum(counts, detection.ConfusionCounts())
    return (total.tp + total.tn) / max(total.tp + total.tn + total.fp + total.fn, 1)


class _Lad(Workload):
    unit = "sid detect call"

    def _write_corpus(self):
        root = self.fresh_dir()
        sequences = corpus(self.seed)
        data.hapt_write(root / "corpus", sequences)
        _, test_w = split(sequences, self.seed)
        users = sorted({s.user for s in sequences})
        self.users = users
        self.test_sizes = {
            u: (sum(w.user == u for w in test_w), sum(w.user != u for w in test_w))
            for u in users
        }
        self.root = root
        return root / "corpus"

    def fingerprint(self) -> bytes:
        digest = hashlib.sha256()
        for path in sorted(self.root.rglob("*")):
            if path.is_file():
                digest.update(path.name.encode() + path.read_bytes())
        return digest.digest()

    def _detect(self, tr, extra, users):
        out = self.root / "report.csv"
        argv = [
            "detect", "--scenario", "lad", "--step", str(STEP),
            "--data", str(self.corpus), "--seed", str(self.seed), "--out", str(out),
            *extra,
        ]
        t0 = time.perf_counter()
        with tr.span("cli.main"):
            rc = cli.main(argv)
        busy = time.perf_counter() - t0
        with tr.span("bench.check"):
            if rc != 0:
                return OpResult(0, busy, [busy], None, [f"sid detect exited {rc}"]), None
            text = out.read_text()
            try:
                counts = parse_report(text, users, self.test_sizes)
            except (ValueError, KeyError) as exc:
                return OpResult(0, busy, [busy], text, [f"bad report: {exc}"]), None
            windows = sum(sum(self.test_sizes[u]) for u in users)
            return OpResult(windows, busy, [busy], text), counts


class LadTrain(_Lad):
    name = "lad_train"

    def setup(self, tr):
        self.corpus = self._write_corpus()
        self.first_text = None

    def op(self, i, tr):
        result, counts = self._detect(tr, ["--pipeline", "vote"], self.users)
        if counts is None:
            return result
        with tr.span("bench.check"):
            if self.first_text is None:
                self.first_text = result.outcome
            elif result.outcome != self.first_text:
                result.errors.append("report differs from the first call's")
            acc = accuracy(counts.values())
            if acc < VOTE_FLOOR:
                result.errors.append(f"vote accuracy {acc:.3f} below {VOTE_FLOOR}")
            result.decisions = [("vote", acc)]
        return result

    def readouts(self, results):
        accs = [acc for r in results for _, acc in r.decisions]
        return {"fidelity.accuracy": accs[0]} if accs else {}


class LadScore(_Lad):
    name = "lad_score"

    def setup(self, tr):
        self.corpus = self._write_corpus()
        self.calls = [(p, u) for p in pipeline.PIPELINES for u in self.users]
        self.cycle = len(self.calls)
        sequences = data.hapt_load(self.corpus)  # exactly what `sid detect` reads
        train_w, _ = split(sequences, self.seed)
        cfg = pipeline.LadConfig(rnn_window=WINDOW, rnn_step=STEP)  # the CLI defaults
        self.bundles = {}
        for user in self.users:
            own = [w for w in train_w if w.user == user]
            model = pipeline.fit_lad_model(user, own, "lstm", cfg, self.seed)
            path = self.root / f"lstm_u{user}.sidb"
            models.save_bundle(path, model.bundle)
            self.bundles[user] = path
        self.texts = {}

    def op(self, i, tr):
        pipe, user = self.calls[i % self.cycle]
        extra = ["--pipeline", pipe, "--model", str(self.bundles[user]), "--user", str(user)]
        result, counts = self._detect(tr, extra, [user])
        if counts is None:
            return result
        with tr.span("bench.check"):
            if self.texts.setdefault((pipe, user), result.outcome) != result.outcome:
                result.errors.append(f"{pipe}/user {user}: report differs from the first call's")
            result.decisions = [(pipe, user, counts[user])]
        return result

    def _by_pipeline(self, results):
        """Accuracy per pipeline over both users' first call."""
        first = {}
        for r in results:
            for pipe, user, counts in r.decisions:
                first.setdefault((pipe, user), counts)
        by_pipe = defaultdict(list)
        for (pipe, _), counts in first.items():
            by_pipe[pipe].append(counts)
        return {p: accuracy(cs) for p, cs in by_pipe.items() if len(cs) == len(self.users)}

    def run_checks(self, results):
        vote = self._by_pipeline(results).get("vote")
        if vote is None:
            return [(False, "no vote call ran for every user")]
        return [(vote >= VOTE_FLOOR, f"vote accuracy {vote:.3f} below {VOTE_FLOOR}")]

    def readouts(self, results):
        accs = self._by_pipeline(results)
        out = {f"accuracy.{pipe}": acc for pipe, acc in accs.items()}
        if "vote" in accs:
            out["fidelity.accuracy"] = accs["vote"]
        return out


# ---------------------------------------------------------------------------
# Fixed-point detection on the machine
# ---------------------------------------------------------------------------

def _roundtrip(prog):
    """Encode and decode the program and its .sidm image, as a device load would."""
    instructions = isa.program_from_bytes(isa.program_to_bytes(prog.instructions))
    image = machine.image_from_bytes(machine.image_to_bytes(prog.image))
    if instructions != list(prog.instructions) or not np.array_equal(image, prog.image):
        raise RuntimeError(f"{prog.name}: program or image changed in the round trip")
    return dataclasses.replace(prog, instructions=instructions, image=image)


class _Vm(Workload):
    """Shared set-up: LSTM-200 step program, per-owner KS+vote programs, and
    the float oracle's errors for every window."""

    def setup(self, tr):
        sequences = corpus(self.seed)
        train_w, test_w = split(sequences, self.seed)
        self.config = machine.MachineConfig(n_track=4)
        self.cfg = detection.KsDecisionConfig()
        self.bundle = training.init_lstm(200, 6, seed=self.seed)  # the paper's size
        step_prog = codegen.compile_model(self.bundle, self.config)
        train_err = pipeline.batched_window_errors(self.bundle, np.stack([w.data for w in train_w]))
        self.test_err = pipeline.batched_window_errors(
            self.bundle, np.stack([w.data for w in test_w])
        )
        rng = np.random.default_rng(self.seed)
        n = self.cfg.window_errors
        self.users = sorted({w.user for w in train_w})
        self.ref_samples, self.peds, ks_progs = {}, {}, {}
        for user in self.users:
            own = [i for i, w in enumerate(train_w) if w.user == user]
            picks = np.sort(rng.choice(own, size=self.cfg.refs, replace=False))
            samples = train_err[picks, -n:]
            self.ref_samples[user] = samples
            # The device stores references in Q16.16, so the PEDs are built
            # from quantized errors; the float vote keeps the float samples.
            quantized = fx_array(samples).astype(np.float64) / FX_ONE
            self.peds[user] = [detection.build_ped(q, self.cfg.bins) for q in quantized]
            ks_progs[user] = codegen.compile_ks_stage(self.peds[user], self.cfg)
        with tr.span("isa.roundtrip"):
            self.step_prog = _roundtrip(step_prog)
            self.ks_progs = {u: _roundtrip(p) for u, p in ks_progs.items()}
        self.test_w = test_w
        tasks = [(u, j) for u in self.users for j in range(len(test_w))]
        self.tasks = [tasks[k] for k in rng.permutation(len(tasks))]

    def fingerprint(self) -> bytes:
        digest = hashlib.sha256()
        for prog in (self.step_prog, *self.ks_progs.values()):
            digest.update(isa.program_to_bytes(prog.instructions))
            digest.update(machine.image_to_bytes(prog.image))
        digest.update(self.test_err.tobytes())
        digest.update(repr(self.tasks).encode())
        return digest.digest()

    def ks(self, owner, errors, config=None):
        """One KS+vote window on the machine; returns (anomaly, state, report)."""
        prog = self.ks_progs[owner]
        state = codegen.fresh_state(prog, config or self.config)
        codegen.write_symbol(state, prog, "errors", errors)
        report = machine.run(state)
        return bool(codegen.read_symbol(state, prog, "decision")[0]), state, report

    def float_vote(self, owner, errors) -> bool:
        n = self.cfg.window_errors
        return detection.vote_decide(
            [
                detection.ks_reject(detection.ks_statistic(errors, ref), n, n, self.cfg)
                for ref in self.ref_samples[owner]
            ],
            self.cfg,
        )

    def check_ks(self, owner, j, anomaly, state, result):
        """The machine's vote must equal the count-domain KS oracle on the
        errors the machine saw."""
        prog = self.ks_progs[owner]
        seen = codegen.read_symbol(state, prog, "errors")
        oracle = detection.vote_decide(
            [detection.ks_hardware(ped, seen, self.cfg)[1] for ped in self.peds[owner]],
            self.cfg,
        )
        if anomaly != oracle:
            result.errors.append(f"owner {owner} window {j}: machine vote {anomaly}, oracle {oracle}")
        truth = self.test_w[j].user != owner
        float_vote = self.float_vote(owner, self.test_err[j][-self.cfg.window_errors:])
        result.decisions.append((anomaly, truth, float_vote))

    def readouts(self, results):
        decisions = [d for r in results for d in r.decisions]
        if not decisions:
            return {}
        return {
            "fidelity.accuracy": sum(vm == truth for vm, truth, _ in decisions) / len(decisions),
            "fidelity.vm_vote_agreement": sum(vm == fl for vm, _, fl in decisions) / len(decisions),
            "fidelity.windows": len(decisions),
        }

    # -- traced-run extras: spec check, per-opcode profile, paper readouts --

    def _step_window(self, readings, config, trace=None, stats=None):
        """The sampled window's steps, through StepRunner or, when profiling,
        one `step_instruction` at a time."""
        runner = codegen.StepRunner(self.step_prog, config)
        for x in readings:
            if trace is None:
                runner.step(x)
            else:
                codegen.write_symbol(runner.state, self.step_prog, "input", x)
                runner.state.pc = 0
                runner.state.halted = False
                _drive(runner.state, trace, stats)
                runner.steps += 1
        return runner

    def _ks_profiled(self, owner, errors, trace, stats):
        prog = self.ks_progs[owner]
        state = codegen.fresh_state(prog, self.config)
        codegen.write_symbol(state, prog, "errors", errors)
        _drive(state, trace, stats)
        return state

    def spec(self, check, ks_errors=None, stats=None):
        """Run the sampled window's KS+vote program at n_track 1, 4 and 8 and
        once under the per-instruction profiler; returns per-layer metrics."""
        owner, j = self.tasks[0]
        prog = self.ks_progs[owner]
        stats = defaultdict(lambda: defaultdict(float)) if stats is None else stats
        if ks_errors is None:
            ks_errors = self.test_err[j][-self.cfg.window_errors:]
        trace = []
        profiled = self._ks_profiled(owner, ks_errors, trace, stats)
        mems, self.ks_cycles = [], {}
        for n in N_TRACKS:
            _, state, report = self.ks(owner, ks_errors, machine.MachineConfig(n_track=n))
            mems.append(state.memory)
            self.ks_cycles[n] = report.cycles
        check(all(np.array_equal(mems[0], m) for m in mems[1:] + [profiled.memory]),
              "KS program memory differs across n_track or the profiled run")
        _check_trace_cycles(check, "KS", prog, trace, self.ks_cycles)
        out = _program_metrics("ks", profiled, trace, 1)
        for op, s in stats.items():
            out[f"machine.op.{op}.count"] = int(s["count"])
            out[f"machine.op.{op}.cycles"] = int(s["cycles"])
            out[f"machine.op.{op}.host_s"] = s["host_s"]
        ks_end = prog.stages["ks"]
        bounds = {"ks": (0, ks_end), "vote": (ks_end, ks_end + prog.stages["vote"])}
        for stage, (lo, hi) in bounds.items():
            out[f"machine.stage.{stage}.cycles"] = sum(
                machine.instruction_cycles(prog.instructions[pc], self.config)
                for pc in trace if lo <= pc < hi
            )
        out["sim.cycles_per_window"] = self.ks_cycles[4]
        return out

    def code_sizes(self):
        """Instruction counts of the deployed programs and criterion 6's ratio."""
        peds = self.peds[self.users[0]]
        looped = codegen.compile_ks_stage(peds, self.cfg, "looped", include_vote=False)
        unrolled = codegen.compile_ks_stage(peds, self.cfg, "unrolled", include_vote=False)
        return {
            "codegen.instructions.lstm200": len(self.step_prog.instructions),
            "codegen.instructions.ks_looped": len(looped.instructions),
            "codegen.instructions.ks_unrolled": len(unrolled.instructions),
            "codegen.ks_reduction_x": unrolled.code_bytes / looped.code_bytes,
        }


def _drive(state, trace, stats):
    """Run to Halt one `step_instruction` at a time, recording executed pcs
    and per-opcode count, cycles and host seconds."""
    program = state.program
    while not state.halted:
        pc = state.pc
        t0 = time.perf_counter()
        machine.step_instruction(state)
        host = time.perf_counter() - t0
        if pc >= len(program):
            continue  # running off the end is a clean stop
        inst = program[pc]
        trace.append(pc)
        s = stats[inst.mode.name]
        s["count"] += 1
        s["cycles"] += machine.instruction_cycles(inst, state.config)
        s["host_s"] += host


def _check_trace_cycles(check, label, prog, trace, cycles):
    """Cycles the machine counted at each n_track must equal the closed-form
    cost summed over the executed trace, which does not depend on n_track."""
    for n, got in cycles.items():
        config = machine.MachineConfig(n_track=n)
        want = sum(machine.instruction_cycles(prog.instructions[pc], config) for pc in trace)
        check(got == want, f"{label} cycles at n_track={n}: {got} != trace sum {want}")


def _program_metrics(label, state, trace, runs):
    """Exact per-run counts of one program from its profiled execution."""
    return {
        f"machine.{label}.instructions": len(trace) // runs,
        f"machine.{label}.cycles": state.cycles // runs,
        f"machine.{label}.reads": state.reads // runs,
        f"machine.{label}.writes": state.writes // runs,
    }


class VmLstm200(_Vm):
    name = "vm_lstm200"
    unit = "StepRunner.step"

    def op(self, i, tr):
        owner, j = self.tasks[i % len(self.tasks)]
        readings = self.test_w[j].data
        steps = []
        t0 = time.perf_counter()
        with tr.span("bench.window"):
            runner = codegen.StepRunner(self.step_prog, self.config)
            for x in readings:
                ts = time.perf_counter()
                runner.step(x)
                steps.append(time.perf_counter() - ts)
            errors = runner.errors()
            with tr.span("bench.ks"):
                anomaly, state, _ = self.ks(owner, errors[-self.cfg.window_errors:])
        busy = time.perf_counter() - t0
        result = OpResult(1, busy, steps, (owner, j, anomaly))
        with tr.span("bench.check"):
            result.max_abs_err = float(np.abs(errors - self.test_err[j]).max())
            if not result.max_abs_err <= VM_ERR_TOL:
                result.errors.append(
                    f"window {j}: |machine - float| error {result.max_abs_err:.4f} > {VM_ERR_TOL}"
                )
            if len(set(runner.cycles_per_step)) != 1:
                result.errors.append(f"window {j}: step cycles vary across readings")
            self.check_ks(owner, j, anomaly, state, result)
        return result

    def readouts(self, results):
        out = super().readouts(results)
        if results:
            out["fidelity.vm_max_abs_err"] = max(r.max_abs_err for r in results)
        return out

    def spec(self, check):
        """The sampled window's step program first, then the base KS check on
        the machine's own errors; adds the paper's cycle and energy readouts."""
        _, j = self.tasks[0]
        readings = self.test_w[j].data
        stats = defaultdict(lambda: defaultdict(float))
        trace = []
        profiled = self._step_window(readings, self.config, trace, stats)
        mems, cycles = [], {}
        for n in N_TRACKS:
            runner = self._step_window(readings, machine.MachineConfig(n_track=n))
            mems.append(runner.state.memory)
            cycles[n] = runner.state.cycles
        check(all(np.array_equal(mems[0], m) for m in mems[1:] + [profiled.state.memory]),
              "step program memory differs across n_track or the profiled run")
        _check_trace_cycles(check, "step", self.step_prog, trace, cycles)
        steps = len(readings)
        out = _program_metrics("step", profiled.state, trace, steps)
        out.update(super().spec(check, profiled.errors()[-self.cfg.window_errors:], stats))
        step_cycles, ks_cycles = out["machine.step.cycles"], self.ks_cycles
        out["sim.cycles_per_window"] = steps * step_cycles + ks_cycles[4]
        # Criterion 7: a step per reading plus the KS pass amortized over the
        # 4 readings by which windows advance, at 115 MHz.
        out["sim.ms_per_reading"] = (step_cycles + ks_cycles[4] / 4) / self.config.clock_hz * 1e3
        # Criterion 8: one step and one KS pass at n_track=1 per 20 ms period.
        t_sid = (cycles[1] // steps + ks_cycles[1]) / machine.MachineConfig(n_track=1).clock_hz
        ratio, _ = energy.energy_ratio(
            [(energy.GPU_PROFILE, 0.001)], [(energy.SID_PROFILE, t_sid)], 0.020
        )
        out["energy.sid_active_ms"] = t_sid * 1e3
        out["energy.ratio_gpu_sid"] = ratio
        return out


class VmKs(_Vm):
    name = "vm_ks"
    unit = "KS window"

    def op(self, i, tr):
        owner, j = self.tasks[i % len(self.tasks)]
        errors = self.test_err[j][-self.cfg.window_errors:]
        t0 = time.perf_counter()
        with tr.span("bench.ks"):
            anomaly, state, _ = self.ks(owner, errors)
        busy = time.perf_counter() - t0
        result = OpResult(1, busy, [busy], (owner, j, anomaly))
        with tr.span("bench.check"):
            self.check_ks(owner, j, anomaly, state, result)
        return result


WORKLOADS = {w.name: w for w in (LadTrain, LadScore, VmLstm200, VmKs)}
