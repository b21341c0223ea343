"""Dataset ingestion, splits, synthetic corpora, and CLI end-to-end runs."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from fhespec.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_SKIPS,
    CliError,
    main,
    parse_approx,
    parse_bits,
    parse_grid,
    truncate_to_common_length,
)
from fhespec.approx import Cropping, Dilation, Poorman
from fhespec.dataset import (
    DatasetError,
    ingest,
    read_wav,
    split_clips,
    synthetic_clips,
    write_wav,
)
from fhespec.quant import BitWidthConfig
from fhespec.transforms import AudioBuffer

FS = 16000


# WAV I/O ----------------------------------------------------------------------

def test_wav_float_round_trip(tmp_path):
    x = np.random.default_rng(0).uniform(-0.9, 0.9, 1000)
    buf = AudioBuffer(x, FS)
    p = tmp_path / "a.wav"
    write_wav(p, buf)
    back = read_wav(p, expected_rate_hz=FS)
    assert back.sample_rate_hz == FS
    assert np.allclose(back.samples, x, atol=1e-6)  # float32 storage


def test_wav_int16_scaling(tmp_path):
    p = tmp_path / "b.wav"
    wavfile.write(p, FS, np.array([0, 16384, -32768], dtype=np.int16))
    back = read_wav(p)
    assert np.allclose(back.samples, [0.0, 0.5, -1.0])


def test_wav_rejections(tmp_path):
    stereo = tmp_path / "stereo.wav"
    wavfile.write(stereo, FS, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(DatasetError):
        read_wav(stereo)
    wrong_rate = tmp_path / "rate.wav"
    wavfile.write(wrong_rate, 44100, np.zeros(100, dtype=np.int16))
    with pytest.raises(DatasetError):
        read_wav(wrong_rate, expected_rate_hz=FS)
    int32 = tmp_path / "i32.wav"
    wavfile.write(int32, FS, np.zeros(100, dtype=np.int32))
    with pytest.raises(DatasetError):
        read_wav(int32)


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
    manifest = ingest(root, FS)
    assert manifest.labels() == ["alpha", "beta"]
    assert len(manifest) == 9
    deep = next(e for e in manifest.entries if e.file_id == "deep")
    assert (deep.label, deep.sublabel) == ("alpha", "sub")
    assert np.allclose(deep.buffer.samples, 0.1)  # decoded once, kept
    reasons = {s.path.name: s.reason for s in manifest.skipped}
    assert "44100" in reasons["cd_rate.wav"]
    assert "outside" in reasons["stray.wav"]
    assert reasons["alpha_0.wav"] == "file id 'alpha_0' already used by alpha/alpha_0.wav"
    assert [e.label for e in manifest.entries if e.file_id == "alpha_0"] == ["alpha"]
    with pytest.raises(DatasetError):
        ingest(tmp_path / "missing", FS)


def test_stratified_split_deterministic_and_proportional(tmp_path):
    root = tmp_path / "data"
    make_dataset(root, per_class=10)
    manifest = ingest(root, FS)
    cal1, ev1, warnings = split_clips(manifest.entries, 0.2, seed=7)
    cal2, ev2, _ = split_clips(manifest.entries, 0.2, seed=7)
    def keys(clips):
        return [(c.label, c.file_id) for c in clips]

    assert keys(cal1) == keys(cal2)
    assert keys(ev1) == keys(ev2)
    for label in ("alpha", "beta"):
        assert sum(e.label == label for e in cal1) == 2
        assert sum(e.label == label for e in ev1) == 8
    assert len(cal1) + len(ev1) == len(manifest)
    assert not set(keys(cal1)) & set(keys(ev1))
    assert warnings == []
    with pytest.raises(DatasetError):
        split_clips(manifest.entries, 1.5, seed=0)


def test_single_file_class_goes_to_calibration(tmp_path, capsys):
    root = tmp_path / "data"
    make_dataset(root, per_class=3)
    solo = root / "solo"
    solo.mkdir()
    write_wav(solo / "only.wav", AudioBuffer(np.ones(992) * 0.1, FS))
    cal, ev, warnings = split_clips(ingest(root, FS).entries, 0.3, seed=0)
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


def test_truncate_to_common_length():
    clips = synthetic_clips("noise", 2, seed=6, duration_s=0.1)
    short = synthetic_clips("noise", 1, seed=7, duration_s=0.05)
    out = truncate_to_common_length(clips + short)
    n = len(short[0].buffer)
    assert all(len(c.buffer) == n for c in out)


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
        with pytest.raises(CliError):
            parse_approx(bad)


def test_parse_bits_and_grid():
    assert parse_bits("4,6,3,5") == BitWidthConfig(4, 6, 3, 5)
    with pytest.raises(CliError):
        parse_bits("4,6,3")
    with pytest.raises(CliError):
        parse_bits("4,6,3,99")
    grid = parse_grid("4,6,3,5;2,2,2,2")
    assert grid == [BitWidthConfig(4, 6, 3, 5), BitWidthConfig(2, 2, 2, 2)]
    assert len(parse_grid("full")) == 7**4


# CLI end-to-end ---------------------------------------------------------------

BASE = ["--synthetic", "tones", "--clips", "6", "--duration", "0.062",
        "--window", "64", "--hop", "32", "--n-mels", "8",
        "--n-gammatone", "8", "--bits", "5,6,4,5", "--seed", "1"]


def run_cli(tmp_path, command, *extra):
    out = tmp_path / command.replace("-", "_")
    return main([command, *BASE, "--out", str(out), *extra]), out


def test_cli_descriptors(tmp_path, capsys):
    code, out = run_cli(tmp_path, "descriptors")
    assert code == EXIT_OK
    text = (out / "descriptors.csv").read_text()
    assert text.startswith("file_id,class,")
    assert "clear" in text and "fhe" in text


def test_cli_spectrogram(tmp_path, capsys):
    code, out = run_cli(tmp_path, "spectrogram")
    assert code == EXIT_OK
    axes = json.loads((out / "axes.json").read_text())
    assert axes["transform"] == "stft"
    assert 0.0 <= axes["mean_distance"] <= 2.0
    assert (out / "distances.csv").exists()
    assert list(out.glob("*_clear.csv")) and list(out.glob("*_fhe.csv"))


def test_cli_stattest(tmp_path, capsys):
    code, out = run_cli(tmp_path, "stattest")
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classes"] == ["tone_loud", "tone_soft"]
    d = summary["discovery"]
    assert d["n"] == d["TP"] + d["FP"] + d["TN"] + d["FN"] > 0
    assert (out / "pairs.csv").exists()
    assert (out / "pvalue_scatter.csv").exists()


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


def test_cli_failure_exit_codes(tmp_path, capsys):
    # no input source at all
    assert main(["descriptors", "--out", str(tmp_path / "x")]) == EXIT_FAILED
    # malformed bit widths
    assert main(["budget", *BASE[:-4], "--bits", "banana",
                 "--out", str(tmp_path / "y")]) == EXIT_FAILED


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
    err = capsys.readouterr().err
    assert "bad.wav" in err and "already used by alpha/alpha_1.wav" in err


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
