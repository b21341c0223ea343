"""Dataset ingestion, splits, synthetic corpora, and CLI end-to-end runs."""

import csv
import gc
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from fhespec.circuit import DESCRIPTOR_NAMES, PipelinePlan, Sweep, build_transform_plan
from fhespec.cli import (
    COMMANDS,
    EVALUATING,
    EXIT_FAILED,
    EXIT_OK,
    EXIT_SKIPS,
    CliError,
    build_parser,
    gather_clips,
    main,
    parse_bits,
    parse_grid,
    resolve_settings,
    truncate_to_common_length,
)
from fhespec.approx import FORMS, ApproxError, Cropping, Dilation, Poorman, parse_approx
from fhespec.dataset import (
    DatasetError,
    ingest,
    read_wav,
    split_clips,
    synthetic_clips,
)
from fhespec.quant import BitWidthConfig
from fhespec.evaluate import SIGNIFICANCE_LEVEL
from fhespec.transforms import N_MFCC, AudioBuffer, GammatoneSpec, MelSpec, StftConfig

FS = 16000


def write_wav(path, buf: AudioBuffer) -> None:
    """Write `buf` as a mono 32-bit float WAV file: the suite's fixtures."""
    wavfile.write(path, buf.sample_rate_hz, buf.samples.astype(np.float32))


# WAV I/O ----------------------------------------------------------------------

def test_wav_float_round_trip(tmp_path):
    x = np.random.default_rng(0).uniform(-0.9, 0.9, 1000)
    buf = AudioBuffer(x, FS)
    p = tmp_path / "a.wav"
    write_wav(p, buf)
    back = read_wav(p, FS)
    assert back.sample_rate_hz == FS
    assert np.allclose(back.samples, x, atol=1e-6)  # float32 storage


def test_wav_int16_scaling(tmp_path):
    p = tmp_path / "b.wav"
    wavfile.write(p, FS, np.array([0, 16384, -32768], dtype=np.int16))
    back = read_wav(p, FS)
    assert np.allclose(back.samples, [0.0, 0.5, -1.0])


def test_wav_rejections(tmp_path):
    stereo = tmp_path / "stereo.wav"
    wavfile.write(stereo, FS, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(DatasetError):
        read_wav(stereo, FS)
    wrong_rate = tmp_path / "rate.wav"
    wavfile.write(wrong_rate, 44100, np.zeros(100, dtype=np.int16))
    with pytest.raises(DatasetError):
        read_wav(wrong_rate, FS)
    int32 = tmp_path / "i32.wav"
    wavfile.write(int32, FS, np.zeros(100, dtype=np.int32))
    with pytest.raises(DatasetError):
        read_wav(int32, FS)


# Ingestion and splits ---------------------------------------------------------

def make_dataset(root, per_class=4, n=992):
    rng = np.random.default_rng(1)
    for label in ("alpha", "beta"):
        d = root / label
        d.mkdir(parents=True)
        for i in range(per_class):
            write_wav(d / f"{label}_{i}.wav",
                      AudioBuffer(rng.standard_normal(n) * 0.3, FS))


def test_ingest_layout_and_skips(tmp_path):
    root = tmp_path / "data"
    make_dataset(root)
    # sub-class level, a stray root-level file, a wrong-rate file and a
    # file id that another class already uses
    sub = root / "alpha" / "sub"
    sub.mkdir()
    write_wav(sub / "deep.wav", AudioBuffer(np.ones(500) * 0.1, FS))
    write_wav(root / "stray.wav", AudioBuffer(np.ones(500) * 0.1, FS))
    wavfile.write(root / "beta" / "cd_rate.wav", 44100,
                  np.zeros(500, dtype=np.int16))
    write_wav(root / "beta" / "alpha_0.wav", AudioBuffer(np.ones(500) * 0.1, FS))
    clips, skips = ingest(root, FS, min_samples=1)
    assert sorted({e.label for e in clips}) == ["alpha", "beta"]
    assert len(clips) == 9
    deep = next(e for e in clips if e.file_id == "deep")
    assert deep.label == "alpha"  # the sub-class level shares its class label
    assert np.allclose(deep.buffer.samples, 0.1)  # decoded once, kept
    # one "path: reason" line per skipped file, naming the file once
    assert skips == [
        f"{root / 'beta' / 'alpha_0.wav'}: file id 'alpha_0' already used by "
        "alpha/alpha_0.wav",
        f"{root / 'beta' / 'cd_rate.wav'}: sample rate 44100 Hz != expected {FS} Hz",
        f"{root / 'stray.wav'}: file outside any class directory",
    ]
    assert [e.label for e in clips if e.file_id == "alpha_0"] == ["alpha"]
    with pytest.raises(DatasetError):
        ingest(tmp_path / "missing", FS, min_samples=1)


def test_stratified_split_deterministic_and_proportional(tmp_path):
    root = tmp_path / "data"
    make_dataset(root, per_class=10)
    clips, _ = ingest(root, FS, min_samples=1)
    cal1, ev1, warnings = split_clips(clips, 0.2, seed=7)
    cal2, ev2, _ = split_clips(clips, 0.2, seed=7)
    def keys(clips):
        return [(c.label, c.file_id) for c in clips]

    assert keys(cal1) == keys(cal2)
    assert keys(ev1) == keys(ev2)
    for label in ("alpha", "beta"):
        assert sum(e.label == label for e in cal1) == 2
        assert sum(e.label == label for e in ev1) == 8
    assert len(cal1) + len(ev1) == len(clips)
    assert not set(keys(cal1)) & set(keys(ev1))
    assert warnings == []
    with pytest.raises(DatasetError):
        split_clips(clips, 1.5, seed=0)


def test_single_file_class_goes_to_calibration(tmp_path, capsys):
    root = tmp_path / "data"
    make_dataset(root, per_class=3)
    solo = root / "solo"
    solo.mkdir()
    write_wav(solo / "only.wav", AudioBuffer(np.ones(992) * 0.1, FS))
    cal, ev, warnings = split_clips(ingest(root, FS, min_samples=1)[0], 0.3, seed=0)
    assert any(e.label == "solo" for e in cal)
    assert not any(e.label == "solo" for e in ev)
    assert len(warnings) == 1 and "solo" in warnings[0]
    # the CLI prints the warning; a warning is not a skip
    code = main(["budget", "--dataset", str(root), "--window", "64",
                 "--hop", "32", "--n-mels", "8", "--n-gammatone", "8",
                 "--bits", "5,6,4,5", "--calib-fraction", "0.3",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "warning: class 'solo' has a single file" in capsys.readouterr().err


# Synthetic corpora ------------------------------------------------------------

def test_synthetic_deterministic_and_labelled():
    c1 = synthetic_clips("tones", 6, seed=3)
    c2 = synthetic_clips("tones", 6, seed=3)
    assert len(c1) == 6
    for a, b in zip(c1, c2):
        assert a.file_id == b.file_id and a.label == b.label
        assert np.array_equal(a.buffer.samples, b.buffer.samples)
    assert {c.label for c in c1} == {"tone_soft", "tone_loud"}
    combo = synthetic_clips("tones,noise", 4, seed=3)
    assert len(combo) == 8
    assert {c.label for c in combo} == {"tone_soft", "tone_loud", "noise"}
    with pytest.raises(DatasetError):
        synthetic_clips("whale", 4, seed=0)
    with pytest.raises(DatasetError):
        synthetic_clips("tones", 0, seed=0)


def test_split_clips_stratified():
    clips = synthetic_clips("tones,noise", 10, seed=4)
    calib, evalu, warnings = split_clips(clips, 0.2, seed=5)
    assert len(calib) + len(evalu) == len(clips)
    for label in ("tone_soft", "tone_loud", "noise"):
        assert sum(c.label == label for c in calib) >= 1
        assert sum(c.label == label for c in evalu) >= 1
    assert warnings == []
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(DatasetError):
            split_clips(clips, bad, seed=5)


def test_truncate_to_common_length(capsys):
    clips = synthetic_clips("noise", 2, seed=6, duration_s=0.1)
    short = synthetic_clips("noise", 1, seed=7, duration_s=0.05)
    out = truncate_to_common_length(clips + short)
    n = len(short[0].buffer)
    assert all(len(c.buffer) == n for c in out)
    assert capsys.readouterr().err == (
        f"warning: trimmed 2 of 3 clips to {n} samples, the length of the shortest\n")
    again = truncate_to_common_length(out)  # nothing to trim, no word
    assert all(a is b for a, b in zip(again, out))
    assert capsys.readouterr().err == ""


def test_cli_warns_when_it_trims_clips(tmp_path, capsys):
    """A descriptor command on WAVs of unequal length names the trim once;
    file ids are unique across classes, so `ingest` keeps every file."""
    root = tmp_path / "data"
    rng = np.random.default_rng(2)
    for label, lengths in (("alpha", (992, 1100, 992)), ("beta", (1200, 992, 992))):
        (root / label).mkdir(parents=True)
        for i, n in enumerate(lengths):
            write_wav(root / label / f"{label}_{i}.wav",
                      AudioBuffer(rng.standard_normal(n) * 0.3, FS))
    code = main(["descriptors", "--dataset", str(root), "--window", "64",
                 "--hop", "32", "--n-mels", "8", "--n-gammatone", "8",
                 "--bits", "5,6,4,5", "--calib-fraction", "0.3",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert capsys.readouterr().err == (
        "warning: trimmed 2 of 6 clips to 992 samples, the length of the shortest\n")


# CLI argument parsing ---------------------------------------------------------

def test_parse_approx_forms():
    assert parse_approx("conventional").kind == "conventional"
    assert parse_approx("dilation:4") == Dilation(rate=4)
    assert parse_approx("dilation:max") == Dilation(rate=None)
    assert parse_approx("poorman:8") == Poorman(roots=8)
    assert parse_approx("crop:100:2000") == Cropping(f_min_hz=100.0,
                                                     f_max_hz=2000.0)
    assert parse_approx("l1").kind == "l1"
    for bad in ("dilation", "poorman:1", "crop:5:1", "mystery"):
        with pytest.raises(ApproxError):
            parse_approx(bad)


@pytest.mark.parametrize("form, message", [
    ("dilation", "bad approximation spec 'dilation'"),
    ("poorman:1", "bad approximation spec 'poorman:1': poorman needs at least 2 roots"),
    ("crop:5:1", "bad approximation spec 'crop:5:1': need 0 <= f_min < f_max"),
    ("mystery", "bad approximation spec 'mystery'"),
    ("dilation:abc", "bad approximation spec 'dilation:abc': "
                     "invalid literal for int() with base 10: 'abc'"),
    ("crop:1", "bad approximation spec 'crop:1'"),
])
def test_refused_approx_forms_fail_the_run(tmp_path, capsys, form, message):
    code, out = run_cli(tmp_path, "spectrogram", "--approx", form)
    assert code == EXIT_FAILED
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_parse_bits_and_grid():
    assert parse_bits("4,6,3,5") == BitWidthConfig(4, 6, 3, 5)
    with pytest.raises(CliError):
        parse_bits("4,6,3")
    with pytest.raises(CliError):
        parse_bits("4,6,3,99")
    grid = parse_grid("4,6,3,5;2,2,2,2")
    assert grid == [BitWidthConfig(4, 6, 3, 5), BitWidthConfig(2, 2, 2, 2)]
    assert len(parse_grid("full")) == 7**4
    for bad in ("4,4,0,4;5,5,4,5", "4,4,1,4", "4,4,4", ";"):
        with pytest.raises(CliError, match="--grid"):
            parse_grid(bad)
    # a malformed grid is refused with the settings, before any clip is drawn
    args = build_parser().parse_args(["gridsearch", *BASE, "--grid", "4,4,1,4;5,5,4,5"])
    with pytest.raises(CliError, match="bad --grid '4,4,1,4'"):
        resolve_settings(args)
    assert resolve_settings(build_parser().parse_args(
        ["gridsearch", "--grid", "5,6,4,5"]))["grid_configs"] == [BitWidthConfig(5, 6, 4, 5)]


# CLI end-to-end ---------------------------------------------------------------

BASE = ["--synthetic", "tones", "--clips", "6", "--duration", "0.062",
        "--window", "64", "--hop", "32", "--n-mels", "8",
        "--n-gammatone", "8", "--bits", "5,6,4,5", "--seed", "1"]


def run_cli(tmp_path, command, *extra):
    out = tmp_path / command.replace("-", "_")
    return main([command, *BASE, "--out", str(out), *extra]), out


def record_realize(monkeypatch) -> list:
    """The graphs `PipelinePlan.realize` returns from now on, in call order."""
    realized = []
    realize = PipelinePlan.realize

    def recording(plan, *args, **kwargs):
        realized.append(realize(plan, *args, **kwargs))
        return realized[-1]

    monkeypatch.setattr(PipelinePlan, "realize", recording)
    return realized


def test_cli_descriptors(tmp_path, capsys):
    code, out = run_cli(tmp_path, "descriptors")
    assert code == EXIT_OK
    text = (out / "descriptors.csv").read_text()
    assert text.startswith("file_id,class,")
    assert "clear" in text and "fhe" in text


def test_cli_descriptor_rows_are_the_realized_arms(tmp_path, monkeypatch, capsys):
    """descriptors.csv holds, per evaluation clip in split order, the clear
    row and then the fhe row of the graph the CLI realizes, each value
    written so that it parses back to the same float."""
    realized = record_realize(monkeypatch)
    code, out = run_cli(tmp_path, "descriptors")
    assert code == EXIT_OK
    [graph] = realized
    settings = resolve_settings(build_parser().parse_args(["descriptors", *BASE]))
    calib, evalu, _ = gather_clips(settings)
    evalu = truncate_to_common_length(calib + evalu)[len(calib):]
    with open(out / "descriptors.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * len(evalu)
    for k, clip in enumerate(evalu):
        clear = graph.run_clear(clip.buffer)["descriptor_vector"]
        fhe = graph.execute(clip.buffer).dequantized
        for row, path, want in ((rows[2 * k], "clear", clear),
                                (rows[2 * k + 1], "fhe", fhe)):
            assert (row["file_id"], row["class"], row["path"]) == \
                (clip.file_id, clip.label, path)
            got = [float(row[n]) for n in DESCRIPTOR_NAMES]
            assert np.array_equal(got, want)
            assert [row[n] for n in DESCRIPTOR_NAMES] == [repr(x) for x in got]


def test_cli_spectrogram(tmp_path, monkeypatch, capsys):
    """Per evaluation clip, `<file_id>_clear.csv` and `<file_id>_fhe.csv`
    hold the clear output and the dequantized circuit output of the graph
    the CLI realizes, with the bytes `np.savetxt(fmt="%.9e", delimiter=",")`
    writes."""
    realized = record_realize(monkeypatch)
    code, out = run_cli(tmp_path, "spectrogram")
    assert code == EXIT_OK
    axes = json.loads((out / "axes.json").read_text())
    assert axes["transform"] == "stft"
    assert 0.0 <= axes["mean_distance"] <= 2.0
    [graph] = realized
    settings = resolve_settings(build_parser().parse_args(["spectrogram", *BASE]))
    _, evalu, _ = gather_clips(settings)
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(
        ["distances.csv", *(f"{c.file_id}_{arm}.csv" for c in evalu
                            for arm in ("clear", "fhe"))])
    for clip in evalu:
        for arm, want in (("clear", graph.run_clear(clip.buffer)[graph.output_node]),
                          ("fhe", graph.execute(clip.buffer).dequantized)):
            text = io.BytesIO()
            np.savetxt(text, want, fmt="%.9e", delimiter=",")
            assert (out / f"{clip.file_id}_{arm}.csv").read_bytes() == text.getvalue()


def test_cli_stft_axes_are_bin_frequencies(tmp_path, capsys):
    code, out = run_cli(tmp_path, "spectrogram")
    assert code == EXIT_OK
    freqs = json.loads((out / "axes.json").read_text())["channel_freqs_hz"]
    window = int(BASE[BASE.index("--window") + 1])
    assert len(freqs) == window // 2 + 1  # K columns, DC to Nyquist
    assert freqs[0] == 0.0 and freqs[-1] == FS / 2
    assert freqs[1] == FS / window


def test_cli_distances_csv_quotes_file_ids(tmp_path, capsys):
    root = tmp_path / "data"
    rng = np.random.default_rng(3)
    for label, stem in (("alpha", "a,b"), ("beta", "plain")):
        (root / label).mkdir(parents=True)
        for name in (stem, f"{label}_0", f"{label}_1"):
            write_wav(root / label / f"{name}.wav",
                      AudioBuffer(rng.standard_normal(992) * 0.3, FS))
    entries, _ = ingest(root, FS, min_samples=1)
    seed = next(s for s in range(20) if {"a,b", "plain"} <= {
        c.file_id for c in split_clips(entries, 0.1, s)[1]})
    evaluated = {c.file_id for c in split_clips(entries, 0.1, seed)[1]}
    out = tmp_path / "out"
    assert main(["spectrogram", "--dataset", str(root), "--window", "64", "--hop", "32",
                 "--n-mels", "8", "--n-gammatone", "8", "--bits", "5,6,4,5",
                 "--calib-fraction", "0.1", "--seed", str(seed),
                 "--out", str(out)]) == EXIT_OK
    with open(out / "distances.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["file_id", "distance"]
    assert all(len(row) == 2 for row in rows)
    assert {fid for fid, _ in rows} == evaluated
    assert all(0.0 <= float(d) <= 2.0 for _, d in rows)


def test_cli_stattest(tmp_path, capsys):
    code, out = run_cli(tmp_path, "stattest")
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classes"] == ["tone_loud", "tone_soft"]
    d = summary["discovery"]
    assert d["n"] == d["TP"] + d["FP"] + d["TN"] + d["FN"] > 0
    assert (out / "pairs.csv").exists()
    assert (out / "pvalue_scatter.csv").exists()


def test_cli_stattest_needs_two_classes_before_realizing(tmp_path, capsys):
    # 8,8,8,8 is over budget: the class check comes first
    code, out = run_cli(tmp_path, "stattest", "--synthetic", "noise",
                        "--bits", "8,8,8,8")
    assert code == EXIT_FAILED
    assert capsys.readouterr().err == "error: stattest needs at least two classes\n"
    assert not list(out.iterdir())


def test_cli_gridsearch_needs_two_evaluation_clips_before_realizing(
        tmp_path, capsys, monkeypatch):
    # two noise clips split one to calibration, one to evaluation: a
    # correlation over one clip is undefined
    monkeypatch.setattr(Sweep, "realize", lambda *a: pytest.fail("realized"))
    code, out = run_cli(tmp_path, "gridsearch", "--synthetic", "noise",
                        "--clips", "2", "--grid", "4,4,3,5")
    assert code == EXIT_FAILED
    assert capsys.readouterr().err == (
        "error: grid search needs at least 2 evaluation clips, got 1\n")
    assert not list(out.iterdir())


def test_cli_gridsearch(tmp_path, capsys):
    code, out = run_cli(tmp_path, "gridsearch",
                        "--grid", "5,6,4,5;8,6,8,6")
    assert code == EXIT_OK
    doc = json.loads((out / "gridsearch.json").read_text())
    feas = [r["feasible"] for r in doc["results"]]
    assert feas == [True, False]


def test_cli_validate_bounds(tmp_path, capsys):
    code, out = run_cli(tmp_path, "validate-bounds")
    assert code == EXIT_OK
    doc = json.loads((out / "bounds.json").read_text())
    assert all(v["all_satisfied"] for v in doc["poorman_bound"].values())
    assert all(v["satisfied"] for v in doc["dilation_aliasing"].values())


def test_cli_budget(tmp_path, capsys):
    code, out = run_cli(tmp_path, "budget")
    assert code == EXIT_OK
    doc = json.loads((out / "budget.json").read_text())
    assert doc["feasible"] is True
    assert doc["budget_bits"] == 16
    printed = capsys.readouterr().out
    assert json.loads(printed)["feasible"] is True


def test_cli_gridsearch_repeated_config_scored_once(tmp_path, capsys):
    code, out = run_cli(tmp_path, "gridsearch",
                        "--grid", "8,6,8,6;5,6,4,5;8,6,8,6;5,6,4,5")
    assert code == EXIT_OK
    doc = json.loads((out / "gridsearch.json").read_text())
    assert [r["config"] for r in doc["results"]] == [
        BitWidthConfig(5, 6, 4, 5).as_dict(), BitWidthConfig(8, 6, 8, 6).as_dict()]


def test_budget_reports_the_graph_spectrogram_realizes(tmp_path, monkeypatch,
                                                       capsys):
    """On these noise clips, calibrating on the evaluation clips as well
    would widen `stft_conv_requant` and the energy accumulators after it:
    `budget` must report the graph `spectrogram` runs, calibrated on the
    calibration split alone."""
    realized = record_realize(monkeypatch)
    flags = ["--synthetic", "noise", "--clips", "6", "--duration", "0.062",
             "--window", "64", "--hop", "32", "--n-mels", "8", "--n-mfcc", "8",
             "--transform", "mfcc", "--bits", "6,6,4,6", "--seed", "1"]
    assert main(["spectrogram", *flags, "--out", str(tmp_path / "spec")]) == EXIT_OK
    assert main(["budget", *flags, "--out", str(tmp_path / "budget")]) == EXIT_OK
    graph = realized[0]
    doc = json.loads((tmp_path / "budget" / "budget.json").read_text())
    assert doc == {"format_version": 1, "transform": "mfcc",
                   "bits": graph.bits.as_dict(), **graph.check_budget().as_dict()}


def test_cli_budget_over_budget_reports_and_exits_ok(tmp_path, capsys):
    code, out = run_cli(tmp_path, "budget", "--bits", "8,8,8,8")
    assert code == EXIT_OK
    doc = json.loads((out / "budget.json").read_text())
    assert doc["feasible"] is False
    assert any(n["violation"] for n in doc["nodes"])


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_empty_evaluation_set(tmp_path, command, capsys):
    """With one clip per class every clip goes to calibration: a command
    that scores evaluation clips exits 1 and writes nothing."""
    out = tmp_path / "out"
    code = main([command, *BASE, "--clips", "1", "--out", str(out)])
    err = capsys.readouterr().err
    if command in EVALUATING:
        assert code == EXIT_FAILED
        assert "error: no evaluation clips" in err
        assert not out.exists()
    else:
        assert code == EXIT_OK, err


def test_cli_settings_defaults(tmp_path):
    settings = resolve_settings(build_parser().parse_args(["gridsearch"]))
    assert settings["n_mels"] == MelSpec().n_mels
    assert settings["n_gammatone"] == GammatoneSpec().n_filters
    assert settings["n_mfcc"] == N_MFCC
    assert inspect.signature(build_transform_plan).parameters["n_mfcc"].default == N_MFCC
    assert settings["alpha"] == SIGNIFICANCE_LEVEL
    assert settings["grid"] == "full"
    # a config file's grid reaches gridsearch
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\ngrid = 5,6,4,5\n")
    args = build_parser().parse_args(["gridsearch", "--config", str(cfg)])
    assert resolve_settings(args)["grid"] == "5,6,4,5"


def test_cli_failure_exit_codes(tmp_path, capsys):
    # no input source at all
    assert main(["descriptors", "--out", str(tmp_path / "x")]) == EXIT_FAILED
    # malformed bit widths
    assert main(["budget", *BASE[:-4], "--bits", "banana",
                 "--out", str(tmp_path / "y")]) == EXIT_FAILED


@pytest.mark.parametrize("kind,rate,minimum", [
    ("tones", 100, 250), ("tones", 0, 250), ("tones", -5, 250),
    ("chirps", 1000, 2500), ("noise", 0, 1)])
def test_cli_low_sample_rate_is_an_error(tmp_path, capsys, kind, rate, minimum):
    out = tmp_path / "out"
    assert main(["descriptors", "--synthetic", kind, "--clips", "6",
                 "--sample-rate", str(rate), "--out", str(out)]) == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"at least {minimum} Hz" in err
    assert "Traceback" not in err and not out.exists()
    # the lowest rate of each kind draws its clips
    assert synthetic_clips(kind, 2, seed=0, sample_rate_hz=minimum)


MFCC = ["--transform", "mfcc", "--window", "256", "--hop", "128", "--n-mels", "16"]


@pytest.mark.parametrize("command,extra,names", [
    ("spectrogram", [*MFCC, "--n-mfcc", "40"], ["n_mfcc=40", "n_mels=16"]),
    ("spectrogram", [*MFCC, "--n-mfcc", "-3"], ["n_mfcc=-3", "n_mels=16"]),
    ("spectrogram", [*MFCC, "--n-mfcc", "0"], ["n_mfcc=0", "n_mels=16"]),
    ("budget", [*MFCC, "--n-mfcc", "17"], ["n_mfcc=17", "n_mels=16"]),
    ("descriptors", ["--seed", "-1"], ["seed", "-1"]),
    ("descriptors", ["--synthetic", "noise", "--duration", "-1"], ["-1.0 s", "no samples"]),
    ("descriptors", ["--duration", "0"], ["no samples"]),
    ("stattest", ["--alpha", "2"], ["significance level", "2.0"]),
    ("stattest", ["--alpha", "-1"], ["significance level", "-1.0"]),
    ("stattest", ["--alpha", "1"], ["significance level", "1.0"]),
    ("spectrogram", ["--approx", "crop:9000:10000"],
     ["9000.0-10000.0 Hz", "Nyquist frequency 8000.0 Hz"]),
    ("spectrogram", ["--approx", "fdwindow:1000", "--window", "256"],
     ["n_min=1000", "N=256"]),
    ("gridsearch", ["--grid", "4,4,0,4;5,5,4,5"], ["--grid", "'4,4,0,4'", "weight_bits"]),
    ("gridsearch", ["--grid", "4,4,1,4;5,5,4,5"], ["--grid", "'4,4,1,4'", "weight_bits",
                                                   "[2, 16], got 1"]),
    ("descriptors", ["--bits", "5,8,1,5"], ["--bits", "weight_bits", "[2, 16], got 1"]),
    ("validate-bounds", ["--synthetic", ","], ["no synthetic kind", "','"]),
    ("spectrogram", ["--synthetic", "tones,tones"], ["named more than once: tones"]),
])
def test_cli_out_of_range_value_is_an_error(tmp_path, capsys, command, extra, names):
    code, _ = run_cli(tmp_path, command, *extra)
    assert code == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert all(name in err for name in names), err


@pytest.mark.parametrize("extra", [
    [*MFCC, "--n-mfcc", "16"], [*MFCC, "--n-mfcc", "1"], ["--approx", "crop:0:2000"]])
def test_cli_edge_of_range_values_run(tmp_path, capsys, extra):
    assert run_cli(tmp_path, "spectrogram", *extra)[0] == EXIT_OK


def test_split_refuses_a_negative_seed(tmp_path, capsys):
    root = tmp_path / "data"
    make_dataset(root)
    assert main(["descriptors", "--dataset", str(root), "--seed", "-1",
                 "--out", str(tmp_path / "out")]) == EXIT_FAILED
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


def test_cli_dataset_skips_exit_code(tmp_path, capsys):
    root = tmp_path / "data"
    make_dataset(root, per_class=4)
    wavfile.write(root / "alpha" / "bad.wav", 44100,
                  np.zeros(500, dtype=np.int16))
    write_wav(root / "beta" / "alpha_1.wav", AudioBuffer(np.ones(992) * 0.1, FS))
    out = tmp_path / "out"
    code = main(["descriptors", "--dataset", str(root), "--window", "64",
                 "--hop", "32", "--n-mels", "8", "--n-gammatone", "8",
                 "--bits", "5,6,4,5", "--calib-fraction", "0.25",
                 "--out", str(out)])
    assert code == EXIT_SKIPS
    rows = (out / "descriptors.csv").read_text().splitlines()[1:]
    keys = [(r.split(",")[0], r.split(",")[-1]) for r in rows]
    assert len(keys) == len(set(keys))  # one row per file id and path
    assert capsys.readouterr().err == (
        f"skipped: {root / 'alpha' / 'bad.wav'}: sample rate 44100 Hz != expected {FS} Hz\n"
        f"skipped: {root / 'beta' / 'alpha_1.wav'}: file id 'alpha_1' already used by "
        "alpha/alpha_1.wav\n")


@pytest.mark.parametrize("name, size, reason", [
    ("broken", 30, "file cut short: unpack requires a buffer of 16 bytes"),
    ("cut", 50, "file cut short: Reached EOF prematurely; finished at 50 bytes, "
                "expected 2028 bytes from header."),
], ids=["cut-header", "cut-data"])
def test_cli_dataset_skips_a_truncated_wav(tmp_path, capsys, name, size, reason):
    """A WAV cut short in its header or its data is skipped with one line,
    neither aborting the run nor joining it as a clip of a few samples."""
    root = tmp_path / "data"
    make_dataset(root, per_class=4)
    good = tmp_path / "good.wav"
    wavfile.write(good, FS, np.ones(992, dtype=np.int16))
    path = root / "alpha" / f"{name}.wav"
    path.write_bytes(good.read_bytes()[:size])
    out = tmp_path / "out"
    code = main(["descriptors", "--dataset", str(root), "--window", "64",
                 "--hop", "32", "--n-mels", "8", "--n-gammatone", "8",
                 "--bits", "5,6,4,5", "--calib-fraction", "0.25",
                 "--out", str(out)])
    assert capsys.readouterr().err == f"skipped: {path}: {reason}\n"
    assert code == EXIT_SKIPS
    rows = (out / "descriptors.csv").read_text().splitlines()[1:]
    assert name not in {r.split(",")[0] for r in rows}


@pytest.mark.parametrize("command, need", [("descriptors", 256 + 128),
                                           ("spectrogram", 256)])
def test_cli_dataset_skips_a_wav_shorter_than_the_command_uses(
        tmp_path, capsys, command, need):
    """A complete WAV of 3 samples next to 0.5 s clips is skipped with one
    line, and the run goes on over the other clips at their own length
    (the descriptors need two frames, a spectrogram one), where it used to
    trim every clip to 3 samples and fail."""
    root = tmp_path / "data"
    make_dataset(root, per_class=4, n=FS // 2)
    short = root / "beta" / "short.wav"
    wavfile.write(short, FS, np.array([1, -2, 3], dtype=np.int16))
    out = tmp_path / "out"
    code = main([command, "--dataset", str(root), "--window", "256", "--hop", "128",
                 "--n-mels", "32", "--n-gammatone", "32", "--out", str(out)])
    assert capsys.readouterr().err == (
        f"skipped: {short}: 3 samples, fewer than the {need} a clip needs\n")
    assert code == EXIT_SKIPS
    if command == "descriptors":
        rows = (out / "descriptors.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 6  # 8 clips, one of each class calibrates
    else:
        frames = StftConfig(256, 128).frame_count(FS // 2)
        written = [p for p in out.glob("*_fhe.csv")]
        assert len(written) == 6
        assert all(len(p.read_text().splitlines()) == frames for p in written)


def test_ingest_skips_files_shorter_than_min_samples(tmp_path):
    root = tmp_path / "data"
    (root / "alpha").mkdir(parents=True)
    for n in (383, 384, 385):
        write_wav(root / "alpha" / f"n{n}.wav", AudioBuffer(np.zeros(n), FS))
    clips, skips = ingest(root, FS, min_samples=384)
    assert [c.file_id for c in clips] == ["n384", "n385"]
    assert skips == [f"{root / 'alpha' / 'n383.wav'}: 383 samples, fewer than "
                     "the 384 a clip needs"]
    assert len(ingest(root, FS, min_samples=1)[0]) == 3


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nsynthetic = tones\nclips = 6\nduration = 0.062\n"
        "window = 64\nhop = 32\nn-mels = 8\nn-gammatone = 8\n"
        "bits = 3,3,2,3\nseed = 1\n")
    out = tmp_path / "out"
    code = main(["budget", "--config", str(cfg), "--bits", "5,6,4,5",
                 "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads((out / "budget.json").read_text())
    assert doc["bits"] == {"input_bits": 5, "output_bits": 6,
                           "weight_bits": 4, "mid_bits": 5}  # flag wins
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nmystery = 1\n")
    assert main(["budget", "--config", str(bad),
                 "--out", str(out)]) == EXIT_FAILED
    capsys.readouterr()
    bad.write_text("[run]\nsynthetic = tones\nwindow = abc\n")
    assert main(["budget", "--config", str(bad),
                 "--out", str(out)]) == EXIT_FAILED
    assert "error: bad window value 'abc'" in capsys.readouterr().err


def test_cli_refuses_a_dataset_and_a_synthetic_corpus_together(tmp_path, capsys):
    """Given both, by flags or by a config file, a run refuses instead of
    reading the synthetic clips and ignoring the dataset."""
    root = tmp_path / "data"
    make_dataset(root)
    error = "error: give either --dataset or --synthetic, not both\n"
    code, out = run_cli(tmp_path, "budget", "--dataset", str(root))
    assert code == EXIT_FAILED
    assert capsys.readouterr().err == error
    assert not out.exists()
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ndataset = {root}\nsynthetic = tones\n")
    assert main(["descriptors", "--config", str(cfg),
                 "--out", str(tmp_path / "from_config")]) == EXIT_FAILED
    assert capsys.readouterr().err == error
    assert not (tmp_path / "from_config").exists()


@pytest.mark.parametrize("extra, config, refused", [
    (["--clips", "5"], "", "--clips"),
    (["--duration", "9"], "", "--duration"),
    (["--clips", "5", "--duration", "9"], "", "--clips and --duration"),
    ([], "clips = 5\n", "--clips"),
    (["--clips", "30"], "duration = 1.0\n", "--clips and --duration"),
], ids=["clips", "duration", "both", "clips-in-config", "defaults-given"])
def test_cli_refuses_synthetic_settings_on_a_dataset_run(tmp_path, capsys, extra,
                                                          config, refused):
    """A dataset run given `--clips` or `--duration`, by flag or in the
    config file, even at their defaults, refuses instead of ignoring them;
    the defaults alone run."""
    root = tmp_path / "data"
    make_dataset(root, per_class=3, n=FS // 2)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\ndataset = {root}\n{config}")
    flags = ["--config", str(cfg), "--window", "256", "--hop", "128"]
    out = tmp_path / "out"
    assert main(["budget", *flags, *extra, "--out", str(out)]) == EXIT_FAILED
    assert capsys.readouterr().err == (
        f"error: --dataset refuses {refused}: only synthetic corpora read them\n")
    assert not out.exists()
    cfg.write_text(f"[run]\ndataset = {root}\n")
    assert main(["budget", *flags, "--out", str(out)]) == EXIT_OK
    assert (out / "budget.json").is_file()


@pytest.mark.parametrize("command", ["spectrogram", "descriptors", "stattest",
                                     "budget"])
def test_cli_defaults_realize(tmp_path, command, capsys):
    code = main([command, "--synthetic", "tones", "--clips", "6",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK, capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list:
    """The `fhespec` lines of the README's command-line block, as argv lists."""
    block = re.search(r"## Command line.*?```sh\n(.*?)```", README.read_text(),
                      re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fhespec ")]


def test_readme_commands_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    rng = np.random.default_rng(2)
    for label in ("alpha", "beta"):
        (corpus / label).mkdir(parents=True)
        for i in range(3):
            write_wav(corpus / label / f"{label}_{i}.wav",
                      AudioBuffer(rng.standard_normal(FS) * 0.3, FS))
    commands = readme_commands()
    assert len(commands) == 6
    for argv in commands:
        args = dict(zip(argv[1::2], argv[2::2]))
        if "--synthetic" in args:
            args["--clips"] = "6"
        if "--dataset" in args:
            args["--dataset"] = str(corpus)
        args["--out"] = str(tmp_path / args["--out"])
        run = [argv[0], *(x for kv in args.items() for x in kv)]
        assert main(run) == EXIT_OK, (argv, capsys.readouterr().err)


def test_readme_names_exactly_the_approx_forms():
    sentence = re.search(r"`--approx` accepts (.*?)\.\s", README.read_text(), re.S).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == list(FORMS)


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library example.*?```python\n(.*?)```",
                      README.read_text(), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    distance, feasible = capsys.readouterr().out.split()
    assert 0.0 <= float(distance) <= 2.0
    assert feasible == "True"


IMPORT_PROBE = """
import sys

def unwanted_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                  or m in ("dataclasses", "configparser"))

import fhespec.cli
assert not unwanted_modules(), ("import", unwanted_modules())
code = fhespec.cli.main(["budget", "--synthetic", "tones", "--clips", "4",
                         "--out", sys.argv[1]])
assert code == 0, code
assert not unwanted_modules(), ("budget", unwanted_modules())
"""


def test_cli_loads_no_scipy(tmp_path):
    """Importing the CLI and running a synthetic command never loads SciPy,
    `dataclasses` or `configparser`: SciPy is imported on first use, by WAV
    I/O only, `configparser` only for `--config`, and no record is a
    dataclass."""
    src = str(Path(sys.modules["fhespec"].__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "budget.json").is_file()


MA_PROBE = """
import sys
import fhespec.cli
code = fhespec.cli.main(["stattest", *sys.argv[2:], "--out", sys.argv[1]])
assert code == 0, code
assert "numpy.ma" not in sys.modules
"""


def test_stattest_loads_no_numpy_ma(tmp_path):
    """A `stattest` run never imports `numpy.ma`, whose import the first
    `np.unique` call pays for."""
    src = str(Path(sys.modules["fhespec"].__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", MA_PROBE, str(tmp_path),
                          "--synthetic", "tones,noise", *BASE[2:]],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "summary.json").is_file()


# Counts the calls of `gc.freeze` and registers, before `cli.main` registers
# its freeze, an exit handler that runs after it (handlers run last in,
# first out) and prints those calls and whether the heap is frozen; in
# between it runs `budget` argv[2] times.
EXIT_PROBE = """
import atexit, gc, sys
freeze, calls = gc.freeze, []
gc.freeze = lambda: calls.append(freeze())
atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))
import fhespec.cli
for _ in range(int(sys.argv[2])):
    code = fhespec.cli.main(["budget", "--synthetic", "tones", "--clips", "4",
                             "--window", "256", "--hop", "128", "--out", sys.argv[1]])
    assert code == 0, code
"""


@pytest.mark.parametrize("runs, printed", [(0, "0 False"), (2, "1 True")])
def test_cli_freezes_the_heap_at_exit(tmp_path, runs, printed):
    """`cli.main` has the interpreter freeze its heap at exit, so the final
    collection skips every live object; the freeze runs once however often
    `main` ran, and a program that only imports `fhespec` exits as it would
    without it."""
    src = str(Path(sys.modules["fhespec"].__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", EXIT_PROBE, str(tmp_path), str(runs)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == printed


@pytest.mark.parametrize("command", list(COMMANDS))
def test_cli_leaves_no_file_open(tmp_path, capsys, command):
    """Every file a command writes is closed when `main` returns, which the
    exit freeze relies on: a frozen file object that only the collector
    could free, one in a reference cycle, is never finalized, so it would
    lose what it had not flushed."""
    extra = ["--grid", "5,6,4,5;8,6,8,6"] if command == "gridsearch" else []
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        code, _ = run_cli(tmp_path, command, *extra)
        gc.collect()
    assert code == EXIT_OK, capsys.readouterr().err
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


TRACER = README.parent / "perfbench" / "trace_cli.py"


def traced_spans(tmp_path, command) -> list:
    """Span names of one tiny CLI command run under the per-layer tracer."""
    spans = tmp_path / f"{command}_spans.json"
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src"),
           **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}}
    run = subprocess.run([sys.executable, "-B", str(TRACER), str(spans), command,
                          *BASE, "--out", str(tmp_path / command)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return [row[0] for row in json.loads(spans.read_text())]


def test_tracer_sees_the_descriptor_commands(tmp_path):
    """The per-layer tracer wraps the program's functions by name and skips
    a name that is gone; each layer it times must still show up."""
    names = traced_spans(tmp_path, "stattest")
    for want in ("evaluate.pair_tests", "evaluate.mann_whitney", "circuit.realize",
                 "circuit.execute", "circuit.run_clear", "transforms.kernels",
                 "approx.kernels",
                 *(f"node.{kind}" for kind in ("conv", "matmul", "lut", "reduce",
                                               "std", "concat"))):
        assert want in names, want
    assert names.count("io.write") == 3
    assert traced_spans(tmp_path, "descriptors").count("io.write") == 1
