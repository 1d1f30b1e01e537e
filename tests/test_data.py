import math

import numpy as np
import pytest

from sid.data import (
    DataError,
    GaitParams,
    UserSequence,
    amp_features,
    dft_full_magnitudes,
    dft_magnitudes,
    hapt_load,
    hapt_write,
    krr_features,
    random_gait_params,
    synth_sequence,
    synth_user_sessions,
)


def radix2_fft(x):
    """Independent recursive radix-2 implementation for cross-checking."""
    n = len(x)
    if n == 1:
        return [complex(x[0])]
    even = radix2_fft(x[0::2])
    odd = radix2_fft(x[1::2])
    out = [0j] * n
    for k in range(n // 2):
        tw = complex(math.cos(-2 * math.pi * k / n), math.sin(-2 * math.pi * k / n)) * odd[k]
        out[k] = even[k] + tw
        out[k + n // 2] = even[k] - tw
    return out


def params(freq=1.8, noise=0.05):
    rng = np.random.default_rng(0)
    return random_gait_params(rng, step_freq=freq, noise_std=noise)


def test_noiseless_sequence_is_periodic():
    p = params(freq=2.0, noise=0.0)
    rng = np.random.default_rng(1)
    seq = synth_sequence(p, 200, rng)
    period = int(50 / 2.0)  # samples per gait cycle
    assert np.allclose(seq[:100], seq[period : 100 + period], atol=1e-9)


def test_synth_deterministic():
    a = synth_user_sessions([1.6, 2.2], 2, 128, seed=7, noise_std=0.05)
    b = synth_user_sessions([1.6, 2.2], 2, 128, seed=7, noise_std=0.05)
    for s1, s2 in zip(a, b):
        assert s1.user == s2.user and s1.seq == s2.seq
        assert np.array_equal(s1.readings, s2.readings)


def test_synth_shape_and_user_ids():
    seqs = synth_user_sessions([1.8, 1.8], 3, 100, seed=2, noise_std=0.05)
    assert len(seqs) == 6
    assert {s.user for s in seqs} == {1, 2}
    assert all(s.readings.shape == (100, 6) for s in seqs)


def test_gait_params_validation():
    rng = np.random.default_rng(3)
    with pytest.raises(DataError):
        GaitParams(step_freq=3.0, amplitudes=np.ones((3, 6)), phases=np.zeros((3, 6)))
    with pytest.raises(DataError):
        random_gait_params(rng, noise_std=-1.0)


def test_hapt_roundtrip(tmp_path):
    seqs = synth_user_sessions([1.5, 2.1], 2, 90, seed=4, noise_std=0.05)
    hapt_write(tmp_path, seqs)
    loaded = hapt_load(tmp_path)
    assert len(loaded) == len(seqs)
    for orig, back in zip(seqs, loaded):
        assert back.user == orig.user
        assert np.allclose(back.readings, orig.readings, atol=1e-9)


def test_hapt_label_slicing(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.normal(size=(30, 6))
    np.savetxt(tmp_path / "acc_exp01_user01.txt", data[:, :3], fmt="%.8f")
    np.savetxt(tmp_path / "gyro_exp01_user01.txt", data[:, 3:], fmt="%.8f")
    (tmp_path / "labels.txt").write_text("1 1 1 10 20\n1 1 5 1 9\n")
    seqs = hapt_load(tmp_path)
    assert len(seqs) == 1  # activity 5 is skipped
    assert len(seqs[0].readings) == 11  # inclusive range
    assert np.allclose(seqs[0].readings[:, :3], data[9:20, :3], atol=1e-8)


def test_hapt_length_mismatch(tmp_path):
    np.savetxt(tmp_path / "acc_exp01_user01.txt", np.zeros((5, 3)))
    np.savetxt(tmp_path / "gyro_exp01_user01.txt", np.zeros((4, 3)))
    (tmp_path / "labels.txt").write_text("1 1 1 1 4\n")
    with pytest.raises(DataError, match="rows"):
        hapt_load(tmp_path)


def test_hapt_without_walking_segment(tmp_path):
    np.savetxt(tmp_path / "acc_exp01_user01.txt", np.zeros((5, 3)))
    np.savetxt(tmp_path / "gyro_exp01_user01.txt", np.zeros((5, 3)))
    for labels in ("", "1 1 5 1 4\n"):  # nothing labelled; only sitting
        (tmp_path / "labels.txt").write_text(labels)
        with pytest.raises(DataError, match="no walking segment"):
            hapt_load(tmp_path)


def test_hapt_missing_file(tmp_path):
    (tmp_path / "labels.txt").write_text("1 1 1 1 4\n")
    with pytest.raises(DataError, match="missing sensor file"):
        hapt_load(tmp_path)


def test_amp_features():
    window = np.zeros((64, 6))
    window[0] = [1, 2, 2, 0, 3, 4]
    acc, gyr = amp_features(window)
    assert acc[0] == 9 and gyr[0] == 25
    assert acc[1] == 0
    flipped = window.copy()
    flipped[:, 0] *= -1
    acc2, _ = amp_features(flipped)
    assert np.array_equal(acc, acc2)


def test_dft_constant_series():
    mags = dft_magnitudes(np.full(64, 3.0))
    assert mags[0] == pytest.approx(64 * 3.0)
    assert np.abs(mags[1:]).max() < 1e-9


def test_dft_pure_cosine_peak():
    j = np.arange(64)
    series = np.cos(2 * np.pi * 4 * j / 64)
    mags = dft_magnitudes(series)
    assert np.argmax(mags) == 4
    assert mags[4] == pytest.approx(32.0, abs=1e-9)


def test_dft_conjugate_symmetry():
    rng = np.random.default_rng(6)
    series = rng.normal(size=64)
    full = dft_full_magnitudes(series)
    for k in range(1, 32):
        assert full[k] == pytest.approx(full[64 - k], abs=1e-9)


def test_dft_matches_radix2():
    rng = np.random.default_rng(7)
    series = rng.normal(size=64)
    mags = dft_full_magnitudes(series)
    fft = radix2_fft(list(series))
    assert np.abs(mags - np.abs(fft)).max() < 1e-9


def test_dft_length_check():
    with pytest.raises(DataError):
        dft_magnitudes(np.zeros(63))


def test_krr_features_count_and_constant_window():
    window = np.full((64, 6), 0.5)
    feats = krr_features(window)
    assert feats.shape == (14,)
    # constant amplitude series: std 0 and min == max == mean
    assert feats[3] == pytest.approx(0.0)
    assert feats[0] == feats[1] == feats[2]


def test_krr_features_quadratic_scaling():
    rng = np.random.default_rng(8)
    window = rng.normal(size=(64, 6))
    f1 = krr_features(window)
    f2 = krr_features(2.0 * window)
    # squared amplitudes scale by 4, and the DFT is linear in them
    assert f2 == pytest.approx(4.0 * f1, rel=1e-9)


def test_user_sequence_validation():
    with pytest.raises(DataError):
        UserSequence(1, 0, np.zeros((0, 6)))
    with pytest.raises(DataError):
        UserSequence(1, 0, np.full((4, 6), np.nan))


def _sensor_corpus(tmp_path, acc_text, rows=4):
    """A one-experiment corpus whose acc file is `acc_text` verbatim."""
    (tmp_path / "acc_exp01_user01.txt").write_text(acc_text)
    np.savetxt(tmp_path / "gyro_exp01_user01.txt", np.zeros((rows, 3)))
    (tmp_path / "labels.txt").write_text(f"1 1 1 1 {rows}\n")
    return tmp_path / "acc_exp01_user01.txt"


@pytest.mark.parametrize(
    "acc_text, line_no, message",
    [
        # 2 + 4 tokens make 2 rows' worth: only a per-line check sees line 3
        ("1 2 3\n\n4 5\n6 7 8 9\n", 3, "expected 3 columns"),
        ("1 2 3\n4 5 6\n7 8 9 10\n1 2 3\n", 3, "expected 3 columns"),
        ("1 2 3\n4 5 6\n7 8 9\n1 2\n", 4, "expected 3 columns"),
        ("1 2\n3 4\n5 6\n7 8\n", 1, "expected 3 columns"),  # consistent but wrong
        ("1 2 3\n4 5 6\n7 x 9\n1 2 3\n", 3, "malformed number"),
        ("1 2 3\n4 5 6\n7 8 9\n1 2 3e\n", 4, "malformed number"),
        ("1 2 3\n# 4 5\n7 8 9\n1 2 3\n", 2, "malformed number"),
        ("1 2 3\n4 nan 6\n7 8 9\n1 2 3\n", 2, "non-finite number"),
        ("1 2 3\n4 5 6\n1e999 8 9\n1 2 3\n", 3, "non-finite number"),  # overflows to inf
        ("1 2 3\n4 5 6\n7 8 9\n-inf 2 3\n", 4, "non-finite number"),
    ],
)
def test_hapt_reader_names_offending_line(tmp_path, acc_text, line_no, message):
    acc = _sensor_corpus(tmp_path, acc_text)
    with pytest.raises(DataError) as info:
        hapt_load(tmp_path)
    assert str(info.value) == f"{acc}: line {line_no}: {message}"


@pytest.mark.parametrize(
    "labels, line_no, message",
    [("1 1 1 1 4\n\n1 1 1 2\n", 3, "expected 5 columns"),
     ("1 1 1 1 4\n1 1 1 1 4.5\n", 2, "malformed integer"),
     ("1 1 1 1 4\n1 1 1 nan 4\n", 2, "malformed integer")],
)
def test_hapt_labels_reader_names_offending_line(tmp_path, labels, line_no, message):
    _sensor_corpus(tmp_path, "1 2 3\n" * 4)
    (tmp_path / "labels.txt").write_text(labels)
    with pytest.raises(DataError) as info:
        hapt_load(tmp_path)
    assert str(info.value) == f"{tmp_path / 'labels.txt'}: line {line_no}: {message}"


def test_hapt_reader_accepts_blank_lines_and_missing_newline(tmp_path):
    _sensor_corpus(tmp_path, "\n1 2 3\n  \n4\t5 6\n\n7 8 9\n-1e-3 +2.5 .5")
    (seq,) = hapt_load(tmp_path)
    expected = [[1, 2, 3], [4, 5, 6], [7, 8, 9], [-1e-3, 2.5, 0.5]]
    assert seq.readings[:, :3].tolist() == expected
    assert seq.readings.shape == (4, 6)


def test_hapt_reader_reads_crlf_files(tmp_path):
    acc = _sensor_corpus(tmp_path, "")
    acc.write_bytes(b"1 2 3\r\n\r\n4\t5 6\r\n7 8 9\r\n-1e-3 +2.5 .5\r\n")
    (tmp_path / "labels.txt").write_bytes(b"1 1 1 1 4\r\n")
    (seq,) = hapt_load(tmp_path)
    assert seq.readings[:, :3].tolist() == [[1, 2, 3], [4, 5, 6], [7, 8, 9], [-1e-3, 2.5, 0.5]]
    acc.write_bytes(b"1 2 3\r\n4 5 6\r\n7 x 9\r\n1 2 3\r\n")
    with pytest.raises(DataError) as info:
        hapt_load(tmp_path)
    assert str(info.value) == f"{acc}: line 3: malformed number"
