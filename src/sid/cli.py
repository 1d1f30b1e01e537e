"""Command-line orchestration: data -> train -> compile -> simulate -> detect.

Every subcommand reads and writes the file formats its module defines; all
randomness flows from --seed. Flags may also come from a key=value config file
(--config) whose keys name options of the invoked subcommand. Each line goes in
as a --key=value flag just after the subcommand, so argparse parses it exactly
as the flag and an explicit flag wins; the one switch, sim's profile, takes 1
(set) or 0 (unset). Exit codes: 0 success, 1 usage error, 2 domain error (trap,
shape mismatch, malformed file), always with one `error:` line on stderr.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import codegen, data, detection, energy, isa, machine, models, pipeline, training

# Every other error class in `sid` derives from ValueError.
DOMAIN_ERRORS = (ValueError, OSError, machine.MachineTrap, training.TrainingError)


class UsageError(ValueError):
    """A malformed command line, a flag the run does not read, or a kind the
    scenario cannot use (exit 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError where it would print usage and exit."""

    def error(self, message):
        raise UsageError(message)


def _apply_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """argv with each key=value line of the --config file inserted as a
    --key=value token just after the subcommand; a key that names none of its
    options is an error."""
    probe = _Parser(add_help=False)
    probe.add_argument("--config")
    probe.add_argument("tail", nargs=argparse.REMAINDER)  # the subcommand onwards
    known, _ = probe.parse_known_args(argv)
    command = known.tail[0] if known.tail else None
    sub = parser._sid_subparsers.get(command)
    if not known.config or sub is None:
        return argv  # no config, or no subcommand: argparse reports the usage error
    options = {a.dest: a for a in sub._actions if a.option_strings and a.dest != "help"}
    tokens = []
    for line_no, raw in enumerate(Path(known.config).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{known.config}: line {line_no}"
        if "=" not in line:
            raise UsageError(f"{where}: expected key=value")
        key, _, value = (part.strip() for part in line.partition("="))
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"{where}: {command} takes no option {key!r}")
        flag = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value in ("0", "1"):
            tokens += [flag] * int(value)
        else:
            raise UsageError(f"{where}: {flag} takes 1 or 0, got {value!r}")
    cut = len(argv) - len(known.tail) + 1
    return argv[:cut] + tokens + argv[cut:]


def _numbers(text: str) -> list[float]:
    """--freqs: comma-separated numbers."""
    try:
        return [float(f) for f in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _platform(text: str) -> tuple[str, float]:
    """--platform-a/-b: name:active_seconds; a name alone means 0 s."""
    name, _, seconds = text.partition(":")
    try:
        return name, float(seconds or 0.0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected name:active_seconds, got {text!r}") from None


def _given(args, **fields) -> dict:
    """field -> flag value for each flag that was set; the rest keep the
    defaults of the config the fields belong to."""
    return {f: getattr(args, d) for f, d in fields.items() if getattr(args, d) is not None}


def _reject(args, dests, context):
    """Exit 1 naming every flag of `dests` that was set: `context` never reads it."""
    flags = [f"--{d.replace('_', '-')}" for d in dests if getattr(args, d) is not None]
    if flags:
        raise UsageError(f"{', '.join(flags)}: not read by {context}")


def _write(path, text):
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    if args.users < 1:
        raise UsageError(f"--users must be at least 1, got {args.users}")
    if args.freqs is None:
        freqs = [1.6, 2.2] if args.users == 2 else list(np.linspace(1.5, 2.3, args.users))
    else:
        freqs = args.freqs
        if len(freqs) != args.users:
            raise UsageError(f"--freqs gives {len(freqs)} frequencies for {args.users} users")
    sequences = data.synth_user_sessions(
        freqs, args.seqs, args.length, args.seed,
        noise_std=args.noise, session_jitter=args.jitter,
    )
    data.hapt_write(args.out, sequences)
    print(f"wrote {len(sequences)} sequences for {args.users} users to {args.out}")
    return 0


def cmd_train(args) -> int:
    reads = pipeline.KIND_SETTINGS[args.kind]
    _reject(args, [d for d in ("seed", "hidden", "epochs", "lr") if d not in reads],
            f"--kind {args.kind}")
    sequences = data.hapt_load(args.data)
    user = args.user if args.user is not None else sorted({s.user for s in sequences})[0]
    windows = [
        w for s in sequences
        for w in detection.tag_windows(s.user, s.seq, s.readings, args.window, args.step)
    ]
    settings = _given(args, **{d: d for d in reads})
    bundle = pipeline.train_user_model(args.kind, windows, user, **settings)
    models.save_bundle(args.out, bundle)
    print(f"trained {args.kind} for user {user}: {args.out}")
    return 0


def cmd_compile(args) -> int:
    bundle = models.load_bundle(args.model)
    prog = codegen.compile_model(bundle, machine.MachineConfig(), args.strategy)
    prefix = Path(args.out_prefix)
    isa.save_program(f"{prefix}.prog.bin", prog.instructions)
    machine.save_image(f"{prefix}.image.sidm", prog.image)
    Path(f"{prefix}.symbols.txt").write_text(prog.symbol_table_text())
    Path(f"{prefix}.asm").write_text(isa.disassemble(prog.instructions))
    print(
        f"{prog.name} [{args.strategy}]: {len(prog.instructions)} instructions, "
        f"{prog.code_bytes} bytes"
    )
    return 0


def cmd_sim(args) -> int:
    if args.max_cycles is not None and args.max_cycles < 0:
        raise UsageError(f"--max-cycles must be at least 0, got {args.max_cycles}")
    if args.n_track < 1:
        raise UsageError(f"--n-track must be at least 1, got {args.n_track}")
    program = isa.load_program(args.program)
    image = machine.load_image(args.image)
    config = machine.MachineConfig(n_track=args.n_track)
    state = machine.load(config, program, image)
    report = machine.run(state, max_cycles=args.max_cycles)
    sys.stdout.write(report.to_keyvalues())
    # The whole data memory: the state's words, then the zeros past them.
    digest = hashlib.sha256(state.memory.tobytes())
    digest.update(bytes(4 * (config.data_mem_words - len(state.memory))))
    print(f"memory_sha256={digest.hexdigest()}")
    if args.profile:
        sys.stdout.write(_profile_table(machine.profile(machine.load(config, program, image))))
    return 0


def _profile_table(profile: dict) -> str:
    """Per-opcode count, cycles, reads and writes, then their totals."""
    rows = [(op.name, *profile[op]) for op in isa.Opcode if op in profile]
    rows.append(("total", *(sum(row[i] for row in rows) for i in range(1, 5))))
    header = ("opcode", "count", "cycles", "reads", "writes")
    return "".join(
        f"{name:<9}" + "".join(f"{v:>11}" for v in values) + "\n"
        for name, *values in [header, *rows]
    )


def cmd_detect(args) -> int:
    lad = args.scenario == "lad"
    if not lad:
        _reject(args, ("model", "pipeline", "refs", "hidden", "user"), "scenario idaas")
    elif args.model:
        _reject(args, ("hidden", "epochs"), "a pre-trained --model")
    if args.pipeline == "threshold":
        _reject(args, ("refs",), "pipeline threshold")
    bundle = models.load_bundle(args.model) if args.model else None
    kind = args.model_kind or (bundle.kind if bundle else "lstm" if lad else "mlp")
    if bundle is not None and bundle.kind != kind:
        raise UsageError(f"--model-kind {kind} does not match {args.model}, a {bundle.kind} bundle")
    if lad and kind in pipeline.TWO_CLASS_KINDS:
        raise UsageError(f"scenario lad cannot use two-class kind {kind!r}")
    if lad and kind not in pipeline.LAD_KINDS:
        raise UsageError(f"scenario lad trains an lstm or gru per user, not kind {kind!r}")
    if not lad and kind in pipeline.ONE_CLASS_KINDS:
        raise UsageError(f"scenario idaas cannot use one-class kind {kind!r}")
    if not lad and "epochs" not in pipeline.KIND_SETTINGS[kind]:
        _reject(args, ("epochs",), f"kind {kind}")
    sequences = data.hapt_load(args.data)
    if lad:
        pipe = args.pipeline or "vote"
        cfg = pipeline.LadConfig(
            ks=detection.KsDecisionConfig(**_given(args, refs="refs")),
            **_given(args, rnn_window="window", rnn_step="step", hidden="hidden", epochs="epochs"),
        )
        user = args.user
        if bundle is not None and user is None:
            user = sorted({s.user for s in sequences})[0]
        rows, total = pipeline.run_lad(sequences, kind, pipe, cfg, args.seed, bundle, user)
    else:
        pipe = "idaas"
        cfg = pipeline.IdaasConfig(
            **_given(args, window_len="window", step="step", epochs="epochs")
        )
        rows, total = pipeline.run_idaas(sequences, kind, cfg, args.seed)
    summary = {
        "scenario": args.scenario,
        "pipeline": pipe,
        "model": kind,
        "seed": args.seed,
        **{k: f"{float(v):.6f}" for k, v in detection.confusion_metrics(total).items()},
    }
    _write(args.out, detection.format_report(rows, summary))
    return 0


def cmd_energy(args) -> int:
    if args.profiles:
        profiles = energy.load_profiles(args.profiles)
    else:
        profiles = {"gpu": energy.GPU_PROFILE, "sid": energy.SID_PROFILE}
    platforms = []
    for name, seconds in (args.platform_a, args.platform_b):
        if name not in profiles:
            raise energy.EnergyError(
                f"unknown profile {name!r} (known: {', '.join(sorted(profiles))})"
            )
        platforms.append([(profiles[name], seconds)])
    sys.stdout.write(energy.format_energy_report(*platforms, args.period))
    return 0


def cmd_report(args) -> int:
    # The table holds only code sizes, so the placeholder weights use a fixed seed.
    rng = np.random.default_rng(0)
    config = machine.MachineConfig()
    rows = [
        (name, codegen.compile_model(training.init_mlp(sizes), config), None)
        for name, sizes in (
            ("mlp_50", [384, 50, 2]),
            ("mlp_500", [384, 500, 2]),
            ("mlp_50_25", [384, 50, 25, 2]),
            ("mlp_200_100", [384, 200, 100, 2]),
        )
    ]
    lstm = codegen.compile_model(training.init_lstm(200, 6), config)
    rows.append(("lstm_200", lstm, None))
    svm = models.ModelBundle(
        "kernel_svm",
        {"coef": rng.normal(size=400) / 400, "sv": rng.normal(size=(400, 6)),
         "b": 0.0, "gamma": 0.5},
    )
    rows.append(("kernel_svm_400", codegen.compile_model(svm, config),
                 codegen.compile_model(svm, config, "unrolled")))
    ocsvm = models.ModelBundle(
        "ocsvm",
        {"coef": np.abs(rng.normal(size=20)), "sv": rng.normal(size=(20, 20)),
         "rho": 0.5, "gamma": 0.5},
    )
    rows.append(("ocsvm_after_ks", codegen.compile_model(ocsvm, config), None))
    cfg = detection.KsDecisionConfig()
    refs = [
        detection.build_ped(rng.exponential(size=cfg.window_errors), cfg.bins)
        for _ in range(cfg.refs)
    ]
    rows.append(("ks_40_20refs", codegen.compile_ks_stage(refs, cfg, include_vote=False),
                 codegen.compile_ks_stage(refs, cfg, "unrolled", include_vote=False)))
    rows.append(("vote_ks", codegen.compile_ks_stage(refs, cfg, include_ks=False), None))
    _write(args.out, codegen.code_size_report(rows))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sid", description=__doc__)
    parser.add_argument("--config", help="key=value defaults file; flags win")
    sub = parser.add_subparsers(dest="command", required=True)
    parser._sid_subparsers = sub.choices

    p = sub.add_parser("gen-data", help="write a synthetic sensor corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=2)
    p.add_argument("--seqs", type=int, default=4)
    p.add_argument("--length", type=int, default=1400)
    p.add_argument("--freqs", type=_numbers, help="per-user step frequencies, one per user "
                   "(default 1.6,2.2 for two users, else evenly spaced over 1.5-2.3)")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--jitter", type=float, default=0.07)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model bundle from a data directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--kind", required=True, choices=models.KINDS)
    p.add_argument("--data", required=True)
    p.add_argument("--user", type=int)
    p.add_argument("--window", type=int, default=200)
    p.add_argument("--step", type=int, default=100)
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compile", help="lower a bundle to a program and image")
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", choices=("looped", "unrolled"), default="looped")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("sim", help="run a program over a memory image")
    p.add_argument("--n-track", type=int, default=4)
    p.add_argument("--program", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--max-cycles", type=int)
    p.add_argument("--profile", action="store_true",
                   help="then per-opcode count, cycles, reads and writes of the run")
    p.set_defaults(fn=cmd_sim)

    p = sub.add_parser("detect", help="run a detection scenario end to end")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scenario", choices=("lad", "idaas"), required=True)
    p.add_argument("--pipeline", choices=pipeline.PIPELINES)
    p.add_argument("--model", help="pre-trained bundle (.sidb)")
    p.add_argument("--model-kind", choices=models.KINDS)
    p.add_argument("--user", type=int)
    p.add_argument("--data", required=True)
    p.add_argument("--window", type=int)
    p.add_argument("--step", type=int)
    p.add_argument("--refs", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("energy", help="deployment energy comparison")
    p.add_argument("--profiles", help="device profile table")
    p.add_argument("--platform-a", type=_platform, default="gpu:0.001",
                   help="name:active_seconds")
    p.add_argument("--platform-b", type=_platform, default="sid:0.0016")
    p.add_argument("--period", type=float, default=0.02)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("report", help="code-size table over the standard stages")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_apply_config(parser, argv))
    except SystemExit:  # --help: every usage error raises UsageError instead
        return 0
    except (OSError, ValueError) as exc:  # UsageError, or an unreadable --config file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
