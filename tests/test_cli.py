import hashlib
import importlib
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import sid
from sid import cli, codegen, detection, isa, machine, pipeline
from sid.cli import UsageError, main
from sid.fixedpoint import fx_array
from sid.models import ModelBundle, load_bundle, save_bundle
from sid.training import init_lstm, init_mlp

from oracles import assemble


def run_cli(*argv):
    return main(list(argv))


def test_usage_errors_exit_one(capsys):
    assert run_cli("no-such-command") == 1
    assert run_cli("detect", "--scenario", "lad", "--pipeline", "vote",
                   "--model-kind", "mlp", "--data", "nowhere") == 1
    err = capsys.readouterr().err
    assert "error:" in err and "two-class" in err
    assert run_cli("sim", "--program", "nowhere", "--image", "nowhere", "--max-cycles", "-1") == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and "--max-cycles" in errors[0]
    assert run_cli("sim", "--program", "nowhere", "--image", "nowhere", "--n-track", "0") == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and "--n-track" in errors[0]


def test_lad_rejects_kinds_that_are_not_recurrent(capsys):
    # ocsvm is one-class, but local detection trains an lstm or gru per user.
    assert run_cli("detect", "--scenario", "lad", "--model-kind", "ocsvm",
                   "--data", "nowhere") == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and "'ocsvm'" in errors[0]


def test_corpus_without_walking_segment_exits_two(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "1", "--seqs", "1", "--length", "300",
            "--freqs", "1.8", "--seed", "3", "--out", str(datadir))
    labels = datadir / "labels.txt"
    rows = [line.split() for line in labels.read_text().splitlines()]
    labels.write_text("".join(f"{e} {u} 5 {a} {b}\n" for e, u, _, a, b in rows))  # sitting
    capsys.readouterr()
    for argv in (("train", "--kind", "lstm", "--out", str(tmp_path / "m.sidb")),
                 ("detect", "--scenario", "lad")):
        assert run_cli(*argv, "--data", str(datadir)) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and "no walking segment" in errors[0], argv


def test_domain_errors_exit_two(capsys, tmp_path):
    missing = tmp_path / "missing"
    assert run_cli("detect", "--scenario", "lad", "--data", str(missing)) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_train_compile_sim_flow(tmp_path, capsys):
    datadir = tmp_path / "synth"
    assert run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "400",
                   "--seed", "3", "--out", str(datadir)) == 0
    bundle = tmp_path / "lstm.sidb"
    assert run_cli("train", "--kind", "lstm", "--data", str(datadir), "--user", "1",
                   "--window", "120", "--step", "60", "--hidden", "6",
                   "--epochs", "2", "--out", str(bundle)) == 0
    prefix = tmp_path / "lstm"
    assert run_cli("compile", "--model", str(bundle), "--out-prefix", str(prefix)) == 0
    capsys.readouterr()
    assert run_cli("sim", "--program", f"{prefix}.prog.bin",
                   "--image", f"{prefix}.image.sidm") == 0
    out = capsys.readouterr().out
    assert "cycles=" in out and "wall_time_s=" in out and "memory_sha256=" in out


def test_sim_memory_digest_invariant_across_tracks(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "1", "--seqs", "2", "--length", "300",
            "--freqs", "1.8", "--seed", "4", "--out", str(datadir))
    bundle = tmp_path / "m.sidb"
    run_cli("train", "--kind", "lr", "--data", str(datadir), "--window", "64",
            "--step", "32", "--epochs", "3", "--out", str(bundle))
    prefix = tmp_path / "m"
    run_cli("compile", "--model", str(bundle), "--out-prefix", str(prefix))
    digests = []
    for tracks in ("1", "8"):
        capsys.readouterr()
        assert run_cli("sim", "--program", f"{prefix}.prog.bin",
                       "--image", f"{prefix}.image.sidm", "--n-track", tracks) == 0
        out = capsys.readouterr().out
        digests.append(re.search(r"memory_sha256=(\w+)", out).group(1))
    assert digests[0] == digests[1]


def test_detect_lad_writes_csv(tmp_path):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "500",
            "--seed", "5", "--out", str(datadir))
    out_csv = tmp_path / "report.csv"
    assert run_cli("detect", "--scenario", "lad", "--pipeline", "vote",
                   "--data", str(datadir), "--window", "120", "--step", "60",
                   "--hidden", "6", "--epochs", "3", "--out", str(out_csv)) == 0
    text = out_csv.read_text()
    assert text.startswith("user,model,pipeline")
    assert "scenario=lad" in text and "accuracy=" in text


def test_detect_lad_user_restricts_to_owner(tmp_path):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "500",
            "--seed", "5", "--out", str(datadir))
    out_csv = tmp_path / "report.csv"
    assert run_cli("detect", "--scenario", "lad", "--user", "2",
                   "--data", str(datadir), "--window", "120", "--step", "60",
                   "--hidden", "6", "--epochs", "3", "--out", str(out_csv)) == 0
    rows = out_csv.read_text().split("\n\n")[0].splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["2"]


def test_detect_lad_unknown_user_exits_two(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--seed", "5", "--out", str(datadir))
    bundle = tmp_path / "lstm.sidb"
    save_bundle(bundle, init_lstm(4, 6))
    capsys.readouterr()
    for extra in ((), ("--model", str(bundle))):
        assert run_cli("detect", "--scenario", "lad", "--user", "9", "--data", str(datadir),
                       "--window", "120", "--step", "60", *extra) == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:") and "9" in errors[0], extra


def test_non_positive_window_or_step_exits_two(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--seed", "5", "--out", str(datadir))
    capsys.readouterr()
    commands = [
        ("train", "--kind", "lr", "--out", str(tmp_path / "m.sidb")),
        ("detect", "--scenario", "lad"),
        ("detect", "--scenario", "idaas"),
    ]
    for command in commands:
        for bad in (("--step", "0"), ("--step", "-5"), ("--window", "0")):
            assert run_cli(*command, "--data", str(datadir), *bad) == 2, (command, bad)
            errors = capsys.readouterr().err.splitlines()
            assert len(errors) == 1 and errors[0].startswith("error:"), (command, bad)
            assert "must be at least 1" in errors[0], (command, bad)


@pytest.mark.parametrize("command, bad, message", [
    (("train", "--kind", "lstm"), ("--hidden", "0"), "hidden must be at least 1"),
    (("train", "--kind", "mlp"), ("--hidden", "-2"), "hidden must be at least 1"),
    (("train", "--kind", "gru"), ("--epochs", "0"), "epochs must be at least 1"),
    (("train", "--kind", "lstm"), ("--lr", "0"), "lr must be above 0"),
    (("detect", "--scenario", "lad"), ("--hidden", "0"), "hidden must be at least 1"),
    (("detect", "--scenario", "lad"), ("--epochs", "0"), "epochs must be at least 1"),
    (("detect", "--scenario", "idaas"), ("--epochs", "-3"), "epochs must be at least 1"),
], ids=["train-lstm-hidden", "train-mlp-hidden", "train-gru-epochs", "train-lstm-lr",
        "lad-hidden", "lad-epochs", "idaas-epochs"])
def test_non_positive_training_setting_exits_two_writing_nothing(tmp_path, capsys, command,
                                                                 bad, message):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--seed", "5", "--out", str(datadir))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli(*command, *bad, "--data", str(datadir), "--out", str(out)) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith(f"error: {message}, got "), errors
    assert not out.exists()


def test_detect_zero_refs_exits_two(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--seed", "5", "--out", str(datadir))
    capsys.readouterr()
    assert run_cli("detect", "--scenario", "lad", "--refs", "0", "--data", str(datadir)) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and "refs" in errors[0]


def test_gen_data_freqs_must_match_users(tmp_path, capsys):
    out = tmp_path / "synth"
    assert run_cli("gen-data", "--users", "2", "--freqs", "1.8", "--out", str(out)) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and "--freqs" in errors[0]
    for users in ("0", "-1"):
        assert run_cli("gen-data", "--users", users, "--out", str(out)) == 1, users
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:") and "--users" in errors[0]
    assert not out.exists()


def test_detect_window_longer_than_every_sequence_exits_two(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--seed", "5", "--out", str(datadir))
    capsys.readouterr()
    for scenario in ("lad", "idaas"):
        assert run_cli("detect", "--scenario", scenario, "--data", str(datadir),
                       "--window", "2000") == 2, scenario
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error:"), scenario
        assert "2000-reading window" in errors[0], scenario


def test_detect_window_too_short_for_the_errors_exits_two_untrained(tmp_path, capsys,
                                                                    monkeypatch):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--seed", "5", "--out", str(datadir))
    capsys.readouterr()
    trained = []
    monkeypatch.setattr(pipeline, "train", lambda *args, **kwargs: trained.append(args))
    assert run_cli("detect", "--scenario", "lad", "--data", str(datadir), "--window", "30") == 2
    assert capsys.readouterr().err.splitlines() == ["error: windows yield 29 errors, need 40"]
    assert trained == []


def test_detect_with_pretrained_bundle(tmp_path):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "500",
            "--seed", "6", "--out", str(datadir))
    bundle = tmp_path / "gru.sidb"
    run_cli("train", "--kind", "gru", "--data", str(datadir), "--user", "1",
            "--window", "120", "--step", "60", "--hidden", "6", "--epochs", "2",
            "--out", str(bundle))
    out_csv = tmp_path / "report.csv"
    assert run_cli("detect", "--scenario", "lad", "--pipeline", "threshold",
                   "--model", str(bundle), "--data", str(datadir),
                   "--window", "120", "--step", "60", "--out", str(out_csv)) == 0
    rows = [l for l in out_csv.read_text().splitlines() if l and "," in l][1:]
    assert len(rows) == 1  # single-user evaluation with the provided bundle


def test_detect_rejects_removed_backend_flags(tmp_path, capsys):
    # Detection runs on the float oracle with a fixed KS critical value; lanes
    # change only cycles, so only `sim` takes --n-track; compile and sim draw
    # no random numbers. No path reads the PED bin count, and a flag that the
    # chosen scenario, pipeline or model kind never reads is an error too.
    lad = ("detect", "--scenario", "lad", "--data", "nowhere")
    idaas = ("detect", "--scenario", "idaas", "--data", "nowhere")
    compile_ = ("compile", "--model", "nowhere", "--out-prefix", "nowhere")
    sim = ("sim", "--program", "nowhere", "--image", "nowhere")

    def train(kind):
        return ("train", "--kind", kind, "--data", "nowhere", "--out", "nowhere")

    cases = [
        (lad, "--strategy", "unrolled"), (lad, "--n-track", "7"), (lad, "--alpha", "0.5"),
        (lad, "--bins", "3"), (compile_, "--seed", "1"), (compile_, "--n-track", "8"),
        (sim, "--seed", "1"), (("report",), "--n-track", "8"),
        (idaas, "--model", "m.sidb"), (idaas, "--pipeline", "vote"), (idaas, "--refs", "3"),
        (idaas, "--hidden", "9"), (idaas, "--user", "2"),
        (idaas + ("--model-kind", "krr"), "--epochs", "2"),
        (lad + ("--model", "nowhere"), "--hidden", "9"),
        (lad + ("--model", "nowhere"), "--epochs", "2"),
        (lad + ("--pipeline", "threshold"), "--refs", "3"),
        *[(train(kind), flag, "3") for kind in ("krr", "ocsvm")
          for flag in ("--seed", "--hidden", "--epochs", "--lr")],
        *[(train(kind), flag, "3") for kind in ("lr", "linear_svm", "kernel_svm")
          for flag in ("--lr", "--hidden")],
        (train("mlp"), "--lr", "3"),
    ]
    for prefix, flag, value in cases:
        assert run_cli(*prefix, flag, value) == 1, (prefix, flag)
        errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
        assert len(errors) == 1 and flag in errors[0], (prefix, flag)
    # a config key is a flag too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hidden=9\n")
    assert run_cli("--config", str(cfg), *idaas) == 1
    errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert len(errors) == 1 and "--hidden" in errors[0]


def test_detect_model_kind_must_match_bundle(tmp_path, capsys):
    bundle = tmp_path / "lstm.sidb"
    save_bundle(bundle, init_lstm(4, 6))
    assert run_cli("detect", "--scenario", "lad", "--model-kind", "gru",
                   "--model", str(bundle), "--data", "nowhere") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "gru" in err[0]


def test_detect_idaas(tmp_path):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "400",
            "--seed", "7", "--out", str(datadir))
    out_csv = tmp_path / "idaas.csv"
    assert run_cli("detect", "--scenario", "idaas", "--model-kind", "lr",
                   "--data", str(datadir), "--step", "16", "--epochs", "10",
                   "--out", str(out_csv)) == 0
    assert "pipeline" in out_csv.read_text()


def test_detect_idaas_krr(tmp_path):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "400",
            "--seed", "8", "--out", str(datadir))
    out_csv = tmp_path / "krr.csv"
    assert run_cli("detect", "--scenario", "idaas", "--model-kind", "krr",
                   "--data", str(datadir), "--step", "32",
                   "--out", str(out_csv)) == 0
    assert "krr" in out_csv.read_text()


def test_detect_reruns_byte_identical(tmp_path):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "500",
            "--seed", "9", "--out", str(datadir))
    outs = []
    for name in ("a.csv", "b.csv"):
        out_csv = tmp_path / name
        assert run_cli("detect", "--scenario", "lad", "--pipeline", "threshold",
                       "--data", str(datadir), "--window", "120", "--step", "60",
                       "--hidden", "6", "--epochs", "3", "--seed", "11",
                       "--out", str(out_csv)) == 0
        outs.append(out_csv.read_bytes())
    assert outs[0] == outs[1]


def test_energy_command(capsys):
    assert run_cli("energy", "--platform-a", "gpu:0.001",
                   "--platform-b", "sid:0.0016", "--period", "0.02") == 0
    out = capsys.readouterr().out
    assert "energy_ratio=" in out and "idle_ratio=66.67" in out


def test_energy_with_profile_file(tmp_path, capsys):
    profile = tmp_path / "profiles.txt"
    profile.write_text("cpu 30 10 0 0\nacc 1 0.2 0 0\n")
    assert run_cli("energy", "--profiles", str(profile),
                   "--platform-a", "cpu:0.002", "--platform-b", "acc:0.001") == 0
    assert "idle_ratio=50" in capsys.readouterr().out
    assert run_cli("energy", "--platform-a", "foo:0.001") == 2
    assert capsys.readouterr().err == "error: unknown profile 'foo' (known: gpu, sid)\n"


def test_energy_rejects_non_finite_profiles_and_bad_periods(tmp_path, capsys):
    profile = tmp_path / "profiles.txt"
    for row in ("cpu nan 10 0 0", "cpu 30 inf 0 0", "cpu 30 10 -inf 0", "cpu 30 10 0 nan"):
        profile.write_text(f"{row}\nacc 1 0.2 0 0\n")
        assert run_cli("energy", "--profiles", str(profile),
                       "--platform-a", "cpu:0.002", "--platform-b", "acc:0.001") == 2, row
        assert capsys.readouterr().err == "error: line 1: cpu: power/energy values must be finite\n"
    for period in ("0", "-1", "inf"):
        assert run_cli("energy", "--period", period) == 2, period
        errors = capsys.readouterr().err.splitlines()
        assert errors == [f"error: period must be finite and above 0, got {float(period)}"]


def test_rejected_profile_row_names_its_line_and_device(tmp_path, capsys):
    profile = tmp_path / "profiles.txt"
    for row, reason in (("cpu 1 2 0 0", "running power must be at least idle power"),
                        ("cpu 30 -1 0 0", "power/energy values must be non-negative")):
        profile.write_text(f"# name P_run P_idle E_wake E_sleep\nacc 1 0.2 0 0\n{row}\n")
        assert run_cli("energy", "--profiles", str(profile),
                       "--platform-a", "cpu:0.002", "--platform-b", "acc:0.001") == 2, row
        assert capsys.readouterr().err.splitlines() == [f"error: line 3: cpu: {reason}"]


def test_profile_file_naming_a_device_twice_exits_two(tmp_path, capsys):
    profile = tmp_path / "profiles.txt"
    profile.write_text("gpu 56 8 0 0\nsid 0.62 0.12 0 0\ngpu 1 0.2 0 0\n")
    assert run_cli("energy", "--profiles", str(profile),
                   "--platform-a", "gpu:0.001", "--platform-b", "sid:0.0016") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: line 3: device 'gpu' is already named on line 1"]


def test_malformed_freqs_and_platform_values_exit_one(tmp_path, capsys):
    for argv in (("gen-data", "--freqs", "1.6,abc", "--out", str(tmp_path / "d")),
                 ("energy", "--platform-a", "gpu:abc"),
                 ("energy", "--platform-b", "sid:1e")):
        assert run_cli(*argv) == 1, argv
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith(f"error: argument {argv[1]}:"), argv
    assert not (tmp_path / "d").exists()
    assert run_cli("energy", "--platform-a", "gpu") == 0  # no :seconds means 0 s
    assert "energy_a_j=0.16\n" in capsys.readouterr().out  # idle watts x period


def test_non_finite_bundle_exits_two(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--seed", "5", "--out", str(datadir))
    bundle = tmp_path / "lstm.sidb"
    for value in (np.nan, np.inf, -np.inf):
        m = init_lstm(4, 6)
        m.tensors["Wc"][1, 2] = value
        save_bundle(bundle, m)
        capsys.readouterr()
        for argv in (("detect", "--scenario", "lad", "--model", str(bundle), "--data", str(datadir),
                      "--window", "120", "--step", "60"),
                     ("compile", "--model", str(bundle), "--out-prefix", str(tmp_path / "m"))):
            assert run_cli(*argv) == 2, (value, argv[0])
            errors = capsys.readouterr().err.splitlines()
            assert errors == ["error: tensor 'Wc' holds a non-finite value"], (value, argv[0])


def test_report_command(tmp_path):
    out = tmp_path / "sizes.txt"
    assert run_cli("report", "--out", str(out)) == 0
    text = out.read_text()
    assert "mlp_50" in text and "lstm_200" in text and "ks_40_20refs" in text
    lstm_line = [l for l in text.splitlines() if l.startswith("lstm_200")][0]
    assert "560" in lstm_line


def test_truncated_files_exit_two(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "1", "--seqs", "2", "--length", "300",
            "--freqs", "1.8", "--seed", "4", "--out", str(datadir))
    bundle = tmp_path / "m.sidb"
    run_cli("train", "--kind", "lr", "--data", str(datadir), "--window", "64",
            "--step", "32", "--epochs", "3", "--out", str(bundle))
    prefix = tmp_path / "m"
    run_cli("compile", "--model", str(bundle), "--out-prefix", str(prefix))
    capsys.readouterr()
    # lr has no unrolled form
    assert run_cli("compile", "--model", str(bundle), "--strategy", "unrolled",
                   "--out-prefix", str(prefix)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "unrolled" in err[0]
    image = tmp_path / "m.image.sidm"
    for cut in (6, 11):  # inside the bundle header, inside the image header
        bundle.write_bytes(bundle.read_bytes()[:cut])
        image.write_bytes(image.read_bytes()[:cut])
        capsys.readouterr()
        assert run_cli("compile", "--model", str(bundle), "--out-prefix", str(prefix)) == 2
        assert run_cli("sim", "--program", f"{prefix}.prog.bin", "--image", str(image)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error:") for line in err)


@pytest.mark.parametrize("bundle, named", [
    (ModelBundle("lstm", {**init_lstm(8, 6).tensors, "bout": np.zeros(5)}), "Wc"),
    (ModelBundle("kernel_svm", {"sv": np.zeros((5, 6)), "coef": np.zeros(3), "b": 0.0,
                                "gamma": 0.5}), "coefficient"),
    (ModelBundle("mlp", {**init_mlp([3, 4, 2]).tensors, "W1": np.zeros((2, 3))}),
     "layer 1 W1 has shape (2, 3), expected (2, 4)"),
    (ModelBundle("mlp", {**init_mlp([3, 4, 2]).tensors, "b0": np.zeros(5)}),
     "layer 0 W0 has shape (4, 3), expected (5, 3) (input 3 from W0, output 5 from b0)"),
    (ModelBundle("kernel_svm", {"sv": np.zeros((3, 6)), "coef": np.zeros(3), "b": 0.0,
                                "gamma": np.zeros(0)}), "kernel_svm tensor 'gamma' holds 0 values"),
    (ModelBundle("lr", {"w": np.zeros(4), "b": np.zeros(0)}), "lr tensor 'b' holds 0 values"),
], ids=["lstm-short-bout", "kernel-svm-short-coef", "mlp-swapped-w1", "mlp-long-b0",
        "kernel-svm-empty-gamma", "lr-empty-b"])
def test_compile_mis_shaped_bundle_exits_two(tmp_path, capsys, bundle, named):
    path = tmp_path / "m.sidb"
    save_bundle(path, bundle)
    prefix = tmp_path / "m"
    assert run_cli("compile", "--model", str(path), "--out-prefix", str(prefix)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert sorted(tmp_path.iterdir()) == [path]  # nothing written


def test_config_rejects_keys_the_command_does_not_take(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for line in ("bogus_key=3", "strategy=unrolled", "n-track=0"):
        cfg.write_text(f"period=0.04\n{line}\n")
        key = line.split("=")[0]
        assert run_cli("--config", str(cfg), "energy") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and len(err.splitlines()) == 1


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("period=0.04\n")
    assert run_cli("--config", str(cfg), "energy") == 0
    assert "period_s=0.04" in capsys.readouterr().out
    # explicit flag wins over the config value
    capsys.readouterr()
    assert run_cli("--config", str(cfg), "energy", "--period", "0.02") == 0
    assert "period_s=0.02" in capsys.readouterr().out


def _small_sim(tmp_path):
    program = assemble("""
    vadd length=1 x=64 y=65 z=66
    halt
    """)
    return _save(tmp_path / "p", program, np.zeros(256, dtype=np.int32))


# Each value is one argparse would refuse as a flag; from a config file it
# must fail the same way, before anything is read or written.
CONFIG_REFUSALS = {
    "detect-epochs": (("detect", "--scenario", "lad", "--data", "{data}", "--out", "{out}"),
                      "epochs=2.5", "--epochs"),
    "train-hidden": (("train", "--kind", "lstm", "--data", "{data}", "--out", "{out}"),
                     "hidden=2.5", "--hidden"),
    "gen-data-length": (("gen-data", "--out", "{out}"), "length=300.5", "--length"),
    "gen-data-seed": (("gen-data", "--out", "{out}"), "seed=1.5", "--seed"),
    "sim-n-track": (("sim",), "n_track=1.5", "--n-track"),
    "detect-pipeline": (("detect", "--scenario", "lad", "--data", "{data}", "--out", "{out}"),
                        "pipeline=bogus", "--pipeline"),
    "compile-strategy": (("compile", "--model", "{bundle}", "--out-prefix", "{out}"),
                         "strategy=bogus", "--strategy"),
    "sim-profile": (("sim",), "profile=2", "--profile"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
def test_config_values_are_checked_as_flags(pinned_corpus, tmp_path, capsys, case):
    argv, line, flag = CONFIG_REFUSALS[case]
    sim = _small_sim(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    before = sorted(tmp_path.iterdir())
    fields = {"data": pinned_corpus / "synth", "bundle": pinned_corpus / "lstm.sidb",
              "out": tmp_path / "out"}
    argv = sim if argv == ("sim",) else [a.format(**fields) for a in argv]
    assert run_cli("--config", str(cfg), *argv) == 1
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and flag in errors[0], errors
    assert captured.out == "" and sorted(tmp_path.iterdir()) == before


def test_config_data_satisfies_required_flag(pinned_corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data={pinned_corpus / 'synth'}\n")
    train = ("train", "--kind", "lr", "--window", "64", "--step", "32", "--epochs", "3")
    assert run_cli(*train, "--data", str(pinned_corpus / "synth"),
                   "--out", str(tmp_path / "flag.sidb")) == 0
    assert run_cli("--config", str(cfg), *train, "--out", str(tmp_path / "cfg.sidb")) == 0
    assert (tmp_path / "cfg.sidb").read_bytes() == (tmp_path / "flag.sidb").read_bytes()


def test_config_profile_takes_one_or_zero(tmp_path, capsys):
    sim = _small_sim(tmp_path)
    cfg = tmp_path / "run.cfg"
    outputs = {}
    for argv in ((), ("--profile",)):
        assert run_cli(*sim, *argv) == 0
        outputs[argv] = capsys.readouterr().out
    assert outputs[()] != outputs[("--profile",)]
    for value, argv in (("1", ("--profile",)), ("0", ())):
        cfg.write_text(f"profile={value}\n")
        assert run_cli("--config", str(cfg), *sim) == 0
        assert capsys.readouterr().out == outputs[argv], value


def test_config_seed_loses_to_the_flag(pinned_corpus, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\n")
    out = tmp_path / "krr.csv"
    assert run_cli("--config", str(cfg), "detect", "--scenario", "idaas", "--model-kind", "krr",
                   "--step", "32", "--data", str(pinned_corpus / "synth"), "--seed", "3",
                   "--out", str(out)) == 0
    assert "\nseed=3\n" in out.read_text()


def _sid_errors():
    """Every exception class a `sid` module defines, but the usage error."""
    found = []
    for info in pkgutil.iter_modules(sid.__path__):
        module = importlib.import_module(f"sid.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__ and obj is not UsageError]
    return found


def test_sid_errors_are_found():
    names = {error.__name__ for error in _sid_errors()}
    assert {"MachineTrap", "TrainingError", "LoadError", "DataError"} <= names


@pytest.mark.parametrize("error", _sid_errors(), ids=lambda e: f"{e.__module__}.{e.__name__}")
def test_every_sid_error_exits_two(monkeypatch, capsys, error):
    exc = error(7, "boom") if error is machine.MachineTrap else error("boom")

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_energy", fail)
    assert run_cli("energy") == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {exc}"]


def test_programming_errors_propagate(monkeypatch):
    monkeypatch.setattr(cli, "cmd_energy", lambda args: {}["boom"])
    with pytest.raises(KeyError):
        run_cli("energy")


@pytest.mark.parametrize("argv", [
    ("no-such-command",),
    ("compile", "--model", "m", "--out-prefix", "p", "--strategy", "bogus"),
    ("detect", "--scenario", "lad"),
    ("energy", "--bogus", "1"),
    ("report", "--seed", "1"),
], ids=["unknown-command", "invalid-choice", "missing-required", "unrecognised", "report-seed"])
def test_usage_errors_print_one_line(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error:") and captured.out == "", errors


def test_help_exits_zero(capsys):
    for argv in (("--help",), ("detect", "--help")):
        assert run_cli(*argv) == 0, argv
        assert capsys.readouterr().out.startswith("usage: sid"), argv


def _save(prefix: Path, instructions, image):
    isa.save_program(f"{prefix}.prog.bin", instructions)
    machine.save_image(f"{prefix}.image.sidm", image)
    return ("sim", "--program", f"{prefix}.prog.bin", "--image", f"{prefix}.image.sidm")


def test_sim_profile_counts_every_opcode(tmp_path, capsys):
    cfg = detection.KsDecisionConfig()
    rng = np.random.default_rng(2)
    refs = [detection.build_ped(rng.exponential(size=cfg.window_errors), cfg.bins)
            for _ in range(cfg.refs)]
    prog = codegen.compile_ks_stage(refs, cfg)
    sim = _save(tmp_path / "ks", prog.instructions, prog.image)
    assert run_cli(*sim) == 0
    plain = capsys.readouterr().out
    assert run_cli(*sim, "--profile") == 0
    out = capsys.readouterr().out
    assert out.startswith(plain)  # the key=value lines stay byte-identical
    header, *rows = [line.split() for line in out[len(plain):].splitlines()]
    assert header == ["opcode", "count", "cycles", "reads", "writes"]
    table = {name: [int(v) for v in values] for name, *values in rows}
    n_ref, n_err = cfg.refs, cfg.window_errors
    assert table["VSSGT"][0] == n_ref * n_err + 1
    assert table["REGSTORE"] == [n_ref, n_ref, 0, 3 * n_ref]
    assert table["HALT"] == [1, 1, 0, 0]
    totals = [sum(values[i] for name, values in table.items() if name != "total")
              for i in range(4)]
    assert totals == table["total"]
    keyvalues = dict(line.split("=") for line in plain.splitlines())
    assert table["total"][1:] == [int(keyvalues[k]) for k in ("cycles", "reads", "writes")]


def test_sim_profile_of_data_dependent_loop(tmp_path, capsys):
    # A data write into the saved loop count makes the loop exit data-dependent.
    program = assemble("""
    loop end=3 n=2
    regstore group=loop addr=200
    vadd length=1 x=64 y=65 z=202
    regload group=loop addr=200
    halt
    """)
    sim = _save(tmp_path / "p", program, np.zeros(256, dtype=np.int32))
    assert run_cli(*sim) == 0
    plain = capsys.readouterr().out
    assert run_cli(*sim, "--profile") == 0
    out = capsys.readouterr().out
    assert out.startswith(plain)
    _, *rows = [line.split() for line in out[len(plain):].splitlines()]
    table = {name: [int(v) for v in values] for name, *values in rows}
    assert [name for name, *_ in rows] == ["VADD", "LOOP", "REGSTORE", "REGLOAD", "HALT", "total"]
    totals = [sum(values[i] for name, values in table.items() if name != "total")
              for i in range(4)]
    assert totals == table["total"]
    keyvalues = dict(line.split("=") for line in plain.splitlines())
    assert table["total"][1:] == [int(keyvalues[k]) for k in ("cycles", "reads", "writes")]


def _ks_vote_sim(prefix: Path):
    """A looped KS+vote program over its own image, an errors window written in."""
    cfg = detection.KsDecisionConfig()
    rng = np.random.default_rng(2)
    refs = [detection.build_ped(rng.exponential(size=cfg.window_errors), cfg.bins)
            for _ in range(cfg.refs)]
    prog = codegen.compile_ks_stage(refs, cfg)
    image = prog.image.copy()
    errors = rng.exponential(size=cfg.window_errors)
    image[prog.addr("errors") : prog.addr("errors") + len(errors)] = fx_array(errors)
    return _save(prefix, prog.instructions, image)


def _past_image_sim(prefix: Path):
    """A two-word image; its loop writes a squared norm ever further past it,
    then a regstore and regload spill the offsets near the top of data memory."""
    top = machine.MachineConfig().data_mem_words - 3
    program = assemble(f"""
    loop end=2 n=3
    vsqnorm length=2 x=0 y=0 z=60 offz
    regaddi reg=off_z imm=7
    regstore group=offset addr={top}
    regload group=offset addr={top}
    vadd length=2 x=0 y=0 z=200000 offz
    halt
    """)
    return _save(prefix, program, fx_array([1.0, -2.5]))


# sha256 of the data memory `sid sim` leaves (its `memory_sha256` line), for a
# program that stays inside its image and one that reaches past it; both pinned
# while every state still held the whole data memory.
PINNED_SIM_MEMORY = {
    "ks-vote": (
        _ks_vote_sim, "c989f2d609ed43aa8dec82be62561367fbcedfe5db3c65320ffbec0771565c14"),
    "past-image": (
        _past_image_sim, "dde761feea8de0c3447fc3b3e9b0249fd2a5e29b3d90f1f764b88528c8f7a3e7"),
}


@pytest.mark.parametrize("case", sorted(PINNED_SIM_MEMORY))
def test_sim_memory_digest_is_pinned(tmp_path, capsys, case):
    build, digest = PINNED_SIM_MEMORY[case]
    assert run_cli(*build(tmp_path / case)) == 0
    out = capsys.readouterr().out
    assert re.search(r"memory_sha256=(\w+)", out).group(1) == digest


def test_malformed_sensor_file_exits_two_naming_the_line(tmp_path, capsys):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--freqs", "1.6,2.1", "--seed", "3", "--out", str(datadir))
    acc = sorted(datadir.glob("acc_*.txt"))[1]
    lines = acc.read_text().splitlines(keepends=True)
    lines[6] = "0.5 0.25\n"  # 2 columns, then 4: the token total still fits
    lines[7] = "0.5 0.25 0.125 1.0\n"
    acc.write_text("".join(lines))
    capsys.readouterr()
    assert run_cli("detect", "--scenario", "lad", "--data", str(datadir)) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert errors == [f"error: {acc}: line 7: expected 3 columns"]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_non_finite_reading_exits_two_naming_the_line(tmp_path, capsys, value):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--freqs", "1.6,2.1", "--seed", "3", "--out", str(datadir))
    gyro = sorted(datadir.glob("gyro_*.txt"))[2]
    lines = gyro.read_text().splitlines(keepends=True)
    lines[11] = f"0.5 {value} 0.125\n"
    gyro.write_text("".join(lines))
    capsys.readouterr()
    assert run_cli("detect", "--scenario", "lad", "--data", str(datadir)) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert errors == [f"error: {gyro}: line 12: non-finite number"]


@pytest.mark.parametrize("text", ["", "\n\n", "  \t\n \r\n"])
def test_blank_labels_exit_two_without_a_warning(tmp_path, capsys, text):
    datadir = tmp_path / "synth"
    run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "300",
            "--freqs", "1.6,2.1", "--seed", "3", "--out", str(datadir))
    (datadir / "labels.txt").write_bytes(text.encode())
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" would raise here
        assert run_cli("detect", "--scenario", "lad", "--data", str(datadir)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {datadir / 'labels.txt'}: no walking segment "
                            "(activity 1) labelled\n")


# sha256 of each `sid detect` CSV on one small corpus, pinned so that a
# refactor of the detection path cannot change a single output byte unnoticed.
LAD_SMALL = ("--scenario", "lad", "--window", "120", "--step", "60")
PINNED_REPORTS = {
    "lad-lstm-vote": (
        (*LAD_SMALL, "--pipeline", "vote", "--hidden", "6", "--epochs", "2"),
        "48e690d11feb8639d4fa6e6dea2d5f408abc0839eab87233f8329e697094958c"),
    "lad-lstm-threshold": (
        (*LAD_SMALL, "--pipeline", "threshold", "--hidden", "6", "--epochs", "2"),
        "4fd027ce31365fd1651e9dc4d5b25e4131ed4bfd640a66b32c40272443699bb0"),
    "lad-lstm-ocsvm": (
        (*LAD_SMALL, "--pipeline", "ocsvm", "--hidden", "6", "--epochs", "2"),
        "4af06a34f213b919a575cbee989fda4a34c4945df27ab2077cee7d57a2d65cfa"),
    "lad-gru-vote": (
        (*LAD_SMALL, "--model-kind", "gru", "--hidden", "6", "--epochs", "2"),
        "4b9a142186889c4ca7dac342d8c6d7060097339d34047b38deb3a6503eddb89d"),
    "lad-model-ocsvm": (
        (*LAD_SMALL, "--pipeline", "ocsvm", "--model", "{bundle}", "--user", "1"),
        "99cd61ab976b1eaeb402fa7c9216a0a71c3f759a75918700f8a06be674fa39b2"),
    "idaas-mlp": (
        ("--scenario", "idaas", "--model-kind", "mlp", "--step", "16", "--epochs", "30"),
        "7c05bd749199104c7165c0a1134e491f29f95a0175591ec228bfe9a803055325"),
}


@pytest.fixture(scope="module")
def pinned_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    assert run_cli("gen-data", "--users", "2", "--seqs", "2", "--length", "500",
                   "--seed", "5", "--out", str(root / "synth")) == 0
    assert run_cli("train", "--kind", "lstm", "--data", str(root / "synth"), "--user", "1",
                   "--window", "120", "--step", "60", "--hidden", "6", "--epochs", "2",
                   "--out", str(root / "lstm.sidb")) == 0
    return root


@pytest.mark.parametrize("case", sorted(PINNED_REPORTS))
def test_detect_reports_match_pinned_digests(pinned_corpus, tmp_path, case):
    argv, digest = PINNED_REPORTS[case]
    argv = [a.format(bundle=pinned_corpus / "lstm.sidb") for a in argv]
    out_csv = tmp_path / "report.csv"
    assert run_cli("detect", *argv, "--data", str(pinned_corpus / "synth"),
                   "--out", str(out_csv)) == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest


# sha256 of the outputs of CLI paths that no other test runs, on the same corpus.
PINNED_PATHS = {
    "train-ocsvm": (
        ("train", "--kind", "ocsvm", "--window", "120", "--step", "60"),
        "6d594ccde79a0a8267a3e7709ef2aeba2d50bd9912003785d66fe1071cf15af9"),
    "train-mlp-hidden": (
        ("train", "--kind", "mlp", "--window", "120", "--step", "60", "--hidden", "8",
         "--epochs", "2"),
        "114d098fa70b8d5aa9498b874fb41039dfd2a9c997da7d797fed8e5d7354e19b"),
    "idaas-linear-svm": (
        ("detect", "--scenario", "idaas", "--model-kind", "linear_svm", "--step", "16",
         "--epochs", "2"),
        "4cf6b72afeb6a0e91949b2ac105c51b83589a3905384659bc2d42b4214e582b0"),
    "idaas-kernel-svm": (
        ("detect", "--scenario", "idaas", "--model-kind", "kernel_svm", "--step", "16",
         "--epochs", "2"),
        "e657fe6a72fd95a43a0b4695f0f9ed59717817db73fe38a8a02e1fd6620ad3a8"),
}


@pytest.mark.parametrize("case", sorted(PINNED_PATHS))
def test_cli_paths_match_pinned_digests(pinned_corpus, tmp_path, case):
    argv, digest = PINNED_PATHS[case]
    out = tmp_path / "out"
    assert run_cli(*argv, "--data", str(pinned_corpus / "synth"), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `sid detect --model` CSVs at the `lad_score` benchmark's shape: the default
# `gen-data` corpus (2 users x 4 sessions x 1,400 readings), 200-reading windows every
# 50, scored by a hidden-16 lstm that `sid train` fits for user 1.
BENCH_SHAPE_BUNDLE = "0fc75d22a592d456f0c24e289979357f3c32038fc6d18a1ff397db806b3b5f21"
PINNED_MODEL_REPORTS = {
    "vote": "9377a2c573579ddf87cb28619799c649839554e2cc6c4c1636eb30f3c3a52f30",
    "threshold": "b47a48859ef4494f7aa26eecac6e25e5ea86d7faa5bdff9416356cfe7f6871fa",
    "ocsvm": "a0aed58f622f18cbdff060472dcb0f6c8719da867773894371fc7d357d157f80",
}


@pytest.fixture(scope="module")
def bench_shape_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_shape")
    assert run_cli("gen-data", "--seed", "7", "--out", str(root / "synth")) == 0
    assert run_cli("train", "--kind", "lstm", "--data", str(root / "synth"), "--user", "1",
                   "--step", "50", "--out", str(root / "lstm.sidb")) == 0
    assert hashlib.sha256((root / "lstm.sidb").read_bytes()).hexdigest() == BENCH_SHAPE_BUNDLE
    return root


@pytest.mark.parametrize("pipe", sorted(PINNED_MODEL_REPORTS))
def test_detect_model_at_bench_shape_matches_pinned_digests(bench_shape_corpus, tmp_path, pipe):
    out_csv = tmp_path / "report.csv"
    assert run_cli("detect", "--scenario", "lad", "--step", "50", "--pipeline", pipe,
                   "--model", str(bench_shape_corpus / "lstm.sidb"), "--user", "1",
                   "--data", str(bench_shape_corpus / "synth"), "--out", str(out_csv)) == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == PINNED_MODEL_REPORTS[pipe]


def test_train_mlp_hidden_sets_the_hidden_layer(pinned_corpus, tmp_path):
    out = tmp_path / "mlp.sidb"
    assert run_cli("train", "--kind", "mlp", "--data", str(pinned_corpus / "synth"),
                   "--window", "120", "--step", "60", "--hidden", "8", "--epochs", "2",
                   "--out", str(out)) == 0
    assert load_bundle(out)["b0"].shape == (8,)


def test_train_user_without_windows_exits_two(pinned_corpus, tmp_path, capsys):
    out = tmp_path / "m.sidb"
    assert run_cli("train", "--kind", "lstm", "--data", str(pinned_corpus / "synth"),
                   "--user", "99", "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == ["error: user 99 has no training window"]
    assert not out.exists()
