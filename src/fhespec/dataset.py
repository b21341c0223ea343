"""Dataset handling: labelled clips, WAV ingestion, splits, synthetic corpora.

Every source yields the same `Clip` (file id, class label, decoded buffer).
Datasets follow a directory-per-class layout (root/classA/*.wav, optionally
one more level of sub-class directories); `ingest` decodes each file once
and keeps the buffer.  A clip's file id is its file name without the
extension, so it must be unique across classes.  Files that cannot be
decoded, whose sample rate differs from the configured rate or whose id an
earlier file took are collected in a skip report instead of aborting the
run; there is no resampling or down-mixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .transforms import AudioBuffer, SignalError


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class Clip:
    """One labelled, decoded audio clip (a WAV file or a synthetic signal)."""

    file_id: str
    label: str
    buffer: AudioBuffer
    sublabel: str | None = None


@dataclass(frozen=True)
class SkipRecord:
    path: Path
    reason: str


@dataclass
class DatasetManifest:
    root: Path
    sample_rate_hz: int
    entries: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def labels(self) -> list:
        return sorted({e.label for e in self.entries})

    def __len__(self) -> int:
        return len(self.entries)


def read_wav(path, expected_rate_hz: int | None = None) -> AudioBuffer:
    """Load a mono WAV file: 16-bit PCM (scaled by 2^15) or 32/64-bit float."""
    rate, data = wavfile.read(path)
    if data.ndim != 1:
        raise DatasetError(f"{path}: only mono files are supported")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise DatasetError(f"{path}: unsupported sample format {data.dtype}")
    if expected_rate_hz is not None and rate != expected_rate_hz:
        raise DatasetError(
            f"{path}: sample rate {rate} Hz != expected {expected_rate_hz} Hz")
    return AudioBuffer(samples=samples, sample_rate_hz=rate)


def write_wav(path, buf: AudioBuffer) -> None:
    wavfile.write(path, buf.sample_rate_hz,
                  buf.samples.astype(np.float32))


def ingest(root, sample_rate_hz: int) -> DatasetManifest:
    """Decode a directory-per-class tree into a manifest of clips, collecting skips."""
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    manifest = DatasetManifest(root=root, sample_rate_hz=sample_rate_hz)
    used: dict = {}  # file id -> the accepted file's path relative to root
    for wav_path in sorted(root.rglob("*.wav")):
        rel = wav_path.relative_to(root)
        if len(rel.parts) < 2:
            manifest.skipped.append(SkipRecord(wav_path, "file outside any class directory"))
            continue
        if wav_path.stem in used:
            reason = f"file id {wav_path.stem!r} already used by {used[wav_path.stem]}"
            manifest.skipped.append(SkipRecord(wav_path, reason))
            continue
        label = rel.parts[0]
        sublabel = rel.parts[1] if len(rel.parts) > 2 else None
        try:
            buf = read_wav(wav_path, expected_rate_hz=sample_rate_hz)
        except (DatasetError, SignalError, ValueError) as exc:
            manifest.skipped.append(SkipRecord(wav_path, str(exc)))
            continue
        used[wav_path.stem] = rel.as_posix()
        manifest.entries.append(Clip(file_id=wav_path.stem, label=label,
                                     buffer=buf, sublabel=sublabel))
    if not manifest.entries and not manifest.skipped:
        raise DatasetError(f"dataset root {root} contains no .wav files")
    return manifest


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


def _tone(rng, n, rate, amplitude):
    freq = rng.uniform(100.0, rate / 2.0 * 0.8)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / rate
    return amplitude * np.sin(2.0 * np.pi * freq * t + phase)


def synthetic_clips(kind: str, count: int, seed: int,
                    sample_rate_hz: int = 16000,
                    duration_s: float = 1.0) -> list:
    """Deterministic labelled synthetic audio.

    'tones': sine clips in two amplitude classes, 1.0 ('tone_soft') and
    1.5 ('tone_loud'), split evenly.  'noise': white noise ('noise').
    'chirps': linear frequency sweeps ('chirp').  Comma-separated kinds
    combine, each receiving `count` clips.
    """
    kinds = [k.strip() for k in kind.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in SYNTHETIC_KINDS]
    if unknown:
        raise DatasetError(f"unknown synthetic kind(s): {', '.join(unknown)}")
    if count < 1:
        raise DatasetError("synthetic clip count must be >= 1")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate_hz))
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
                f1 = rng.uniform(1000.0, sample_rate_hz / 2.0 * 0.8)
                x = np.sin(2.0 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2.0 * duration_s)))
            clips.append(Clip(
                file_id=f"{k}_{i:04d}", label=label,
                buffer=AudioBuffer(samples=x, sample_rate_hz=sample_rate_hz)))
    return clips
