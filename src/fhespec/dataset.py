"""Dataset handling: labelled clips, WAV ingestion, splits, synthetic corpora.

Every source yields the same `Clip` (file id, class label, decoded buffer).
Datasets follow a directory-per-class layout (root/classA/*.wav, optionally
one more level of sub-class directories, which share their class's label);
`ingest` decodes each file once and keeps the buffer.  A clip's file id is
its file name without the extension, so it must be unique across classes.
A file that cannot be decoded, whose sample rate differs from the
configured rate, that is shorter than the run can use or whose id an
earlier file took is skipped instead of aborting the run: `ingest` returns
one "path: reason" line for it next to the clips.  There is no resampling
or down-mixing.
"""

from __future__ import annotations

import math
import struct
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .transforms import AudioBuffer


class DatasetError(ValueError):
    pass


PREMATURE_EOF = "Reached EOF prematurely"  # how SciPy's warning of cut data starts


class Clip(NamedTuple):
    """One labelled, decoded audio clip (a WAV file or a synthetic signal)."""

    file_id: str
    label: str
    buffer: AudioBuffer


def read_wav(path, expected_rate_hz: int) -> AudioBuffer:
    """Load a mono WAV file at `expected_rate_hz`: 16-bit PCM (scaled by
    2^15) or 32/64-bit float.

    A `DatasetError` says what is wrong with the file, one cut short or at
    another rate included, but not its path, which the caller holds."""
    from scipy.io import wavfile  # on first use: most commands read no WAV

    with warnings.catch_warnings():
        warnings.filterwarnings("error", PREMATURE_EOF, wavfile.WavFileWarning)
        try:
            rate, data = wavfile.read(path)
        except (struct.error, wavfile.WavFileWarning) as exc:
            if isinstance(exc, Warning) and not str(exc).startswith(PREMATURE_EOF):
                raise  # another warning, which an outer filter made an error
            raise DatasetError(f"file cut short: {exc}") from None
    if data.ndim != 1:
        raise DatasetError("only mono files are supported")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise DatasetError(f"unsupported sample format {data.dtype}")
    if rate != expected_rate_hz:
        raise DatasetError(f"sample rate {rate} Hz != expected {expected_rate_hz} Hz")
    return AudioBuffer(samples=samples, sample_rate_hz=rate)


def ingest(root, sample_rate_hz: int, min_samples: int) -> tuple[list, list]:
    """Decode a directory-per-class tree: (clips, "path: reason" skip lines).

    A file of fewer than `min_samples` samples is skipped."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    clips, skips = [], []
    used: dict = {}  # file id -> the accepted file's path relative to root
    for wav_path in sorted(root.rglob("*.wav")):
        rel = wav_path.relative_to(root)
        if len(rel.parts) < 2:
            skips.append(f"{wav_path}: file outside any class directory")
            continue
        if wav_path.stem in used:
            skips.append(f"{wav_path}: file id {wav_path.stem!r} already used by "
                         f"{used[wav_path.stem]}")
            continue
        try:
            buf = read_wav(wav_path, expected_rate_hz=sample_rate_hz)
        except ValueError as exc:  # DatasetError, SignalError or undecodable
            skips.append(f"{wav_path}: {exc}")
            continue
        if len(buf) < min_samples:
            skips.append(f"{wav_path}: {len(buf)} samples, fewer than the "
                         f"{min_samples} a clip needs")
            continue
        used[wav_path.stem] = rel.as_posix()
        clips.append(Clip(file_id=wav_path.stem, label=rel.parts[0], buffer=buf))
    if not clips and not skips:
        raise DatasetError(f"dataset root {root} contains no .wav files")
    return clips, skips


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise DatasetError(f"seed must be nonnegative, got {seed}")


def split_clips(items: list, fraction: float, seed: int) -> tuple[list, list, list]:
    """Per-class proportional calibration/evaluation split of labelled items.

    Works on anything with a `.label`.
    Deterministic under a fixed seed; every class gives at least one item to
    calibration and, when it has two or more, at least one to evaluation.
    A single-item class contributes its only item to calibration, with a
    warning.  Returns (calibration, evaluation, warnings).
    """
    if not 0.0 < fraction < 1.0:
        raise DatasetError("calibration fraction must be in (0, 1)")
    _check_seed(seed)
    by_label: dict = {}
    for item in items:
        by_label.setdefault(item.label, []).append(item)
    rng = np.random.default_rng(seed)
    calib, evalu, warnings = [], [], []
    for label in sorted(by_label):
        members = by_label[label]
        order = rng.permutation(len(members))
        n_cal = max(1, int(math.floor(fraction * len(members) + 0.5)))
        if len(members) == 1:
            warnings.append(f"class {label!r} has a single file; assigned to calibration")
        else:
            n_cal = min(n_cal, len(members) - 1)
        chosen = set(order[:n_cal].tolist())
        for i, item in enumerate(members):
            (calib if i in chosen else evalu).append(item)
    return calib, evalu, warnings


# Synthetic corpora ------------------------------------------------------------

SYNTHETIC_KINDS = ("tones", "noise", "chirps")
SAMPLE_RATE_HZ = 16000  # the default rate of a synthetic corpus and of a run
NYQUIST_FRACTION = 0.8  # synthetic frequencies are drawn up to this share of Nyquist
TONE_LOW_HZ = 100.0  # lowest frequency of a tone
CHIRP_END_LOW_HZ = 1000.0  # lowest end frequency of a chirp

# Lowest sample rate of each kind: the one whose `rate / 2.0 * NYQUIST_FRACTION`
# reaches the low end of the kind's frequency draw (250 and 2500 Hz at 0.8).
MIN_SAMPLE_RATE_HZ = {"tones": math.ceil(TONE_LOW_HZ * 2.0 / NYQUIST_FRACTION),
                      "noise": 1,
                      "chirps": math.ceil(CHIRP_END_LOW_HZ * 2.0 / NYQUIST_FRACTION)}


def _tone(rng, n, rate, amplitude):
    freq = rng.uniform(TONE_LOW_HZ, rate / 2.0 * NYQUIST_FRACTION)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / rate
    return amplitude * np.sin(2.0 * np.pi * freq * t + phase)


def synthetic_clips(kind: str, count: int, seed: int,
                    sample_rate_hz: int = SAMPLE_RATE_HZ,
                    duration_s: float = 1.0) -> list:
    """Deterministic labelled synthetic audio.

    'tones': sine clips in two amplitude classes, 1.0 ('tone_soft') and
    1.5 ('tone_loud'), split evenly.  'noise': white noise ('noise').
    'chirps': linear frequency sweeps ('chirp').  Comma-separated kinds
    combine, each named once and receiving `count` clips.
    """
    kinds = [k.strip() for k in kind.split(",") if k.strip()]
    if not kinds:
        raise DatasetError(f"no synthetic kind in {kind!r}")
    unknown = [k for k in kinds if k not in SYNTHETIC_KINDS]
    if unknown:
        raise DatasetError(f"unknown synthetic kind(s): {', '.join(unknown)}")
    repeated = sorted({k for k in kinds if kinds.count(k) > 1})
    if repeated:
        raise DatasetError(f"synthetic kind(s) named more than once: {', '.join(repeated)}")
    if count < 1:
        raise DatasetError("synthetic clip count must be >= 1")
    for k in kinds:
        if sample_rate_hz < MIN_SAMPLE_RATE_HZ[k]:
            raise DatasetError(f"synthetic {k!r} needs a sample rate of at least "
                               f"{MIN_SAMPLE_RATE_HZ[k]} Hz, got {sample_rate_hz}")
    n = int(round(duration_s * sample_rate_hz)) if math.isfinite(duration_s) else 0
    if n < 1:
        raise DatasetError(f"{duration_s} s at {sample_rate_hz} Hz gives no samples")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate_hz
    clips = []
    for k in kinds:
        for i in range(count):
            if k == "tones":
                loud = i % 2 == 1
                label = "tone_loud" if loud else "tone_soft"
                x = _tone(rng, n, sample_rate_hz, 1.5 if loud else 1.0)
            elif k == "noise":
                label = "noise"
                x = rng.standard_normal(n) * 0.5
            else:
                label = "chirp"
                f0 = rng.uniform(50.0, 500.0)
                f1 = rng.uniform(CHIRP_END_LOW_HZ, sample_rate_hz / 2.0 * NYQUIST_FRACTION)
                x = np.sin(2.0 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2.0 * duration_s)))
            clips.append(Clip(
                file_id=f"{k}_{i:04d}", label=label,
                buffer=AudioBuffer(samples=x, sample_rate_hz=sample_rate_hz)))
    return clips
