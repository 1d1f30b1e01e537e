"""sid benchmark: one workload per run, or all four with `--workload all`.

    python3 bench/run.py --workload vm_ks --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is imported from `src/` next to
this directory. Inputs come from `--seed`; operations run for `--seconds`.

With `--trace 0` the run sets up three times or more and reports the
end-to-end metrics of BENCHMARK.json as seconds at a reference host speed
(see hostspeed.py), with the raw figures printed beside them. With
`--trace 1` it sets up once, runs the operations with a span around every
layer call, replays the same operations untraced, checks the machine spec on
one sampled window, and reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Scratch files and span
dumps go to `.bench_run/` at the repository root.
"""

import os

# One process with BLAS pinned to one thread: numpy's OpenBLAS would
# otherwise start a thread per core (up to 64) and add scheduling noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S has passed
SETUP_MIN_S = 1.0
POST_OP = -2  # spans after the operations: replay, spec check, code sizes


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return spec


def import_program():
    if not (ROOT / "src" / "sid" / "__init__.py").is_file():
        fail(f"no sid package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import sid

    if Path(sid.__file__).resolve().parent != ROOT / "src" / "sid":
        fail(f"imported sid from {sid.__file__}, not from this checkout")
    return numpy


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(seed, numpy):
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Measuring one workload
# ---------------------------------------------------------------------------

def measure(wl, tr, seconds, n_ops=None):
    """Run whole cycles of operations until `seconds` pass, or exactly
    `n_ops` operations; returns (results, wall seconds)."""
    from workloads import OpResult

    results = []
    start = time.perf_counter()
    while True:
        i = len(results)
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i and i % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        tr.op = i
        t0 = time.perf_counter()
        with tr.span("bench.op"):
            try:
                result = wl.op(i, tr)
            except Exception as exc:  # an operation that raises counts as failed
                traceback.print_exc()
                result = OpResult(0, 0.0, [], repr(exc), [f"operation {i} raised {exc!r}"])
        result.start, result.end = t0, time.perf_counter()
        results.append(result)
    wall = time.perf_counter() - start
    tr.op = POST_OP
    return results, wall


def end_to_end(results, setups, speed):
    """The gated metrics, in seconds at the reference host speed (see
    hostspeed.py), then figures that are printed but not gated."""
    import numpy as np

    slowdowns = [speed.slowdown(r.start, r.end) for r in results]
    latencies = [s / f for r, f in zip(results, slowdowns) for s in r.latencies_s] or [0.0]
    busy = sum(r.busy_s / f for r, f in zip(results, slowdowns))
    windows = sum(r.windows for r in results)
    raw_latencies = [s for r in results for s in r.latencies_s] or [0.0]
    raw_busy = sum(r.busy_s for r in results)
    gated = {
        "setup_s": statistics.median((t1 - t0) / speed.slowdown(t0, t1) for t0, t1 in setups),
        "windows_per_s": windows / busy if busy else 0.0,
        "op_ms_p50": float(np.percentile(latencies, 50)) * 1e3,
        "op_ms_p90": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "setups": len(setups),
        "op_samples": len(latencies),
        "host_samples": len(speed.samples),
        "host_slowdown_min": min(f for _, f in speed.samples),
        "host_slowdown_median": statistics.median(f for _, f in speed.samples),
        "host_slowdown_max": max(f for _, f in speed.samples),
        "raw.setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
        "raw.windows_per_s": windows / raw_busy if raw_busy else 0.0,
        "raw.op_ms_p50": float(np.percentile(raw_latencies, 50)) * 1e3,
        "raw.op_ms_p90": float(np.percentile(raw_latencies, 90)) * 1e3,
    }
    return gated, info


def per_layer(tr, wall, replay_wall, extras):
    from tracing import SETUP_OP, SpanTotals

    ops = SpanTotals(tr.spans, lambda op: op >= 0)
    setup = SpanTotals(tr.spans, lambda op: op == SETUP_OP)
    # Unattributed: wall time of the operations that no layer's span covers
    # (the benchmark's own loop, checks and span bookkeeping).
    layer_self = sum(t for name, t in ops.self_time.items() if not name.startswith("bench."))
    train_s = ops.total["training.train"]
    m = {
        "bench.wall_s": wall,
        "bench.unattributed_s": wall - layer_self,
        "bench.check_s": ops.total["bench.check"],
        "bench.trace_overhead_s": wall - replay_wall,
        "bench.spans": len(tr.spans),
        "cli.self_s": ops.self_time["cli.main"],
        "data.load_s": ops.total["data.hapt_load"],
        "detection.split_s": ops.total["detection.split_by_sequence"],
        "detection.ks_s": ops.total["detection.ks_statistic"],
        "pipeline.score_s": ops.total["pipeline.window_error_samples"],
        "pipeline.fit_s": ops.total["pipeline.fit_lad_model"],
        "pipeline.decide_s": ops.total["pipeline.LadModel.decide"],
        "pipeline.windows_scored": tr.counts["pipeline.window_error_samples"],
        "training.train_s": train_s,
        "training.ocsvm_s": ops.total["training.train_ocsvm"],
        "training.share": train_s / wall,
        "models.load_s": ops.total["models.load_bundle"],
        "models.ocsvm_s": ops.total["models.infer_ocsvm"],
        "codegen.compile_s": setup.total["codegen.compile_model"]
        + setup.total["codegen.compile_ks_stage"],
        "isa.roundtrip_s": setup.total["isa.roundtrip"],
        "codegen.write_symbol_s": ops.total["codegen.write_symbol"],
        "codegen.fresh_state_s": ops.total["codegen.fresh_state"],
    }
    step_key = ("codegen.StepRunner.step", "machine.run")
    step_run_s = ops.child_total[step_key]
    m["codegen.runner_self_s"] = ops.total["codegen.StepRunner.step"] - step_run_s
    runs = {
        "step": (step_run_s, ops.child_count[step_key]),
        "ks": (ops.total["machine.run"] - step_run_s, ops.count["machine.run"] - ops.child_count[step_key]),
    }
    for label, (run_s, n) in runs.items():
        instructions = n * extras.get(f"machine.{label}.instructions", 0)
        m[f"machine.{label}.run_ms"] = run_s / n * 1e3 if n else 0.0
        m[f"machine.{label}.host_us_per_instruction"] = (
            run_s / instructions * 1e6 if instructions else 0.0
        )
        m[f"machine.{label}.sim_instr_per_host_s"] = instructions / run_s if instructions else 0.0
    m.update(extras)
    return m


def run_workload(name, seed, seconds, trace, spec, record):
    from hostspeed import HostSpeed
    from tracing import Tracer, layer_spans
    from workloads import WORKLOADS

    workdir = RUN_DIR / f"{name}-{seed}-{os.getpid()}"
    wl = WORKLOADS[name](seed, workdir)
    tr = Tracer(bool(trace))
    speed = HostSpeed()
    run_errors = []
    checks = 0

    def check(ok, message):
        nonlocal checks
        checks += 1
        if not ok:
            run_errors.append(message)

    try:
        with layer_spans(tr), speed.sampling() if not trace else contextlib.nullcontext():
            setups, prints = [], []
            while not setups or not trace and (
                len(setups) < SETUP_REPEATS or sum(b - a for a, b in setups) < SETUP_MIN_S
            ):
                t0 = time.perf_counter()
                with tr.span("bench.setup"):
                    wl.setup(tr)
                setups.append((t0, time.perf_counter()))
                prints.append(wl.fingerprint())
            check(len(set(prints)) == 1, "set-up gives different inputs on repeat")
            results, wall = measure(wl, tr, seconds)
        for ok, message in wl.run_checks(results):
            check(ok, message)
        readouts = wl.readouts(results)
        counted = list(results)
        if trace:
            replay, replay_wall = measure(wl, Tracer(False), seconds, n_ops=len(results))
            counted += replay
            check(
                [r.outcome for r in replay] == [r.outcome for r in results],
                "traced and untraced operations decided differently",
            )
            extras = dict(readouts)
            if hasattr(wl, "spec"):
                extras.update(wl.spec(check))
                extras.update(wl.code_sizes())
            metrics = per_layer(tr, wall, replay_wall, extras)
            wanted = spec["per_layer"]
        else:
            metrics, info = end_to_end(results, setups, speed)
            readouts.update(info)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        tr.write(RUN_DIR / f"trace-{name}-seed{seed}.json", record)

    failed_ops = [e for r in counted for e in r.errors]
    for message in failed_ops[:10] + run_errors:
        print(f"FAILED: {message}")
    print(f"workload={name} seed={seed} trace={trace} ops={len(results)} unit={wl.unit!r}")
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    for key, value in sorted(readouts.items()):
        print(f"  readout {key} = {value:.6g}")
    if trace and "sim.ms_per_reading" in metrics:
        from workloads import BUDGET_MS, ENERGY_BAND

        print(f"  paper: {metrics['sim.ms_per_reading']:.3f} ms per reading at 115 MHz "
              f"against the {BUDGET_MS:.0f} ms budget (criterion 7)")
        lo, hi = ENERGY_BAND
        print(f"  paper: GPU/SID energy ratio {metrics['energy.ratio_gpu_sid']:.1f} "
              f"against the [{lo:.0f}, {hi:.0f}] band (criterion 8)")
    attempted = len(counted) + checks
    failed = sum(1 for r in counted if r.errors) + len(run_errors)
    print(f"  error_rate = {failed}/{attempted}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}


def run_all(args):
    """Each workload in a fresh process, so peak memory is per workload."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None):
    spec = load_spec()
    numpy = import_program()
    from workloads import WORKLOADS  # the script's directory is on sys.path

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = run_record(args.seed, numpy)
    print("record: " + " ".join(f"{k}={v}" for k, v in record.items()), flush=True)
    RUN_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec, record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
