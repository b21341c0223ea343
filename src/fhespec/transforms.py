"""Floating-point reference transforms: STFT, Mel, MFCC, gammatone.

Every transform is expressed twice: once as a direct frame-wise computation
and once as a bank of fixed convolution kernels applied with stride equal to
the hop length.  The kernel-bank view is the one the quantized integer
circuit consumes, so the two paths act as mutual oracles.

Frames lie fully inside the signal (no padding): T = floor((M - N) / h) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class SignalError(ValueError):
    pass


@dataclass(frozen=True)
class AudioBuffer:
    """Mono signal samples plus sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", s)
        if s.ndim != 1 or s.size == 0:
            raise SignalError("AudioBuffer needs a nonempty 1-D sample array")
        if not np.all(np.isfinite(s)):
            raise SignalError("AudioBuffer samples must be finite")
        if self.sample_rate_hz <= 0:
            raise SignalError("sample rate must be positive")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class StftConfig:
    window_length: int
    hop: int

    def __post_init__(self):
        if self.window_length < 2 or self.window_length % 2 != 0:
            raise SignalError("window length must be even and >= 2")
        if not (1 <= self.hop <= self.window_length):
            raise SignalError("hop must satisfy 1 <= hop <= window length")

    @property
    def bins(self) -> int:
        return self.window_length // 2 + 1

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.window_length:
            raise SignalError(
                f"signal of {n_samples} samples is shorter than one {self.window_length}-sample frame"
            )
        return (n_samples - self.window_length) // self.hop + 1

    def bin_upper_freqs(self, sample_rate_hz: int) -> np.ndarray:
        """Upper edge of each retained bin: (k + 1) * f_s / N.

        Used by the frequency-adaptive window width rule, where bin 0 needs
        a nonzero frequency.
        """
        return (np.arange(self.bins) + 1) * sample_rate_hz / self.window_length

    def bin_freqs(self, sample_rate_hz: int) -> np.ndarray:
        """DFT bin frequency k * f_s / N (0 .. Nyquist inclusive)."""
        return np.arange(self.bins) * sample_rate_hz / self.window_length


@dataclass(frozen=True)
class ComplexSpectrogram:
    real: np.ndarray  # (T, K)
    imag: np.ndarray  # (T, K)
    bin_upper_freqs: np.ndarray

    @property
    def frame_count(self) -> int:
        return self.real.shape[0]


@dataclass(frozen=True)
class Spectrogram:
    values: np.ndarray  # (T, C)
    channel_freqs: np.ndarray | None = None

    @property
    def frame_count(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class MelSpec:
    n_mels: int = 64
    f_low: float = 0.0
    f_high: float | None = None  # defaults to Nyquist

    def __post_init__(self):
        if self.n_mels < 1:
            raise SignalError("n_mels must be positive")
        if self.f_low < 0:
            raise SignalError("f_low must be nonnegative")


@dataclass(frozen=True)
class GammatoneSpec:
    n_filters: int = 64
    order: int = 4
    f_low: float = 50.0
    f_high: float | None = None

    def __post_init__(self):
        if self.n_filters < 1 or self.order < 1:
            raise SignalError("gammatone spec needs n_filters >= 1 and order >= 1")


def hann_window(n: int) -> np.ndarray:
    """w(j) = 0.5 * (1 - cos(2*pi*j/N)) for 0 <= j < N."""
    if n < 2:
        raise SignalError("window length must be >= 2")
    j = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * j / n))


def frame_signal(x: np.ndarray, n: int, hop: int) -> np.ndarray:
    """Strided (T, N) view of the frames fully inside the signal."""
    t = (x.size - n) // hop + 1
    if t < 1:
        raise SignalError("signal shorter than one frame")
    stride = x.strides[0]
    return np.lib.stride_tricks.as_strided(
        x, shape=(t, n), strides=(hop * stride, stride), writeable=False
    )


def stft(buf: AudioBuffer, cfg: StftConfig, window: np.ndarray) -> ComplexSpectrogram:
    """Frame-wise windowed DFT, one-sided (bins 0 .. N/2).

    Phases are frame-local, matching the strided-convolution formulation;
    magnitudes are identical to the sliding-DFT definition.
    """
    if window.size != cfg.window_length:
        raise SignalError("window length does not match the STFT config")
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop)
    spec = np.fft.rfft(frames * window, axis=1)
    return ComplexSpectrogram(
        real=np.ascontiguousarray(spec.real),
        imag=np.ascontiguousarray(spec.imag),
        bin_upper_freqs=cfg.bin_upper_freqs(buf.sample_rate_hz),
    )


def stft_two_sided(buf: AudioBuffer, cfg: StftConfig, window: np.ndarray,
                   tap_mask: np.ndarray | None = None) -> np.ndarray:
    """Full N-bin DFT per frame (debug path for Parseval and aliasing checks).

    `tap_mask` optionally zeroes frame samples before the transform, which is
    how the dilated formulation reads on the frame index.
    """
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop) * window
    if tap_mask is not None:
        frames = frames * tap_mask
    return np.fft.fft(frames, axis=1)


def power_spectrogram(spec: ComplexSpectrogram) -> Spectrogram:
    return Spectrogram(
        values=spec.real**2 + spec.imag**2,
        channel_freqs=spec.bin_upper_freqs,
    )


@dataclass(frozen=True)
class KernelBank:
    """Fixed convolution kernels realizing a (possibly approximate) STFT.

    real/imag have shape (K, N); convolving frames with them at stride h
    reproduces the matching transform exactly.
    """

    cfg: StftConfig
    window: np.ndarray
    real: np.ndarray
    imag: np.ndarray

    @property
    def bins(self) -> int:
        return self.real.shape[0]

    def stacked(self) -> np.ndarray:
        """(2K, N) array: real rows then imaginary rows."""
        return np.vstack([self.real, self.imag])

    def apply(self, buf: AudioBuffer) -> ComplexSpectrogram:
        frames = frame_signal(buf.samples, self.cfg.window_length, self.cfg.hop)
        return ComplexSpectrogram(
            real=frames @ self.real.T,
            imag=frames @ self.imag.T,
            bin_upper_freqs=self.cfg.bin_upper_freqs(buf.sample_rate_hz),
        )


def stft_kernels(cfg: StftConfig, window: np.ndarray) -> KernelBank:
    """Kernel bank for the conventional STFT.

    kernel_re[k, j] = w(j) * cos(2*pi*k*j/N); kernel_im[k, j] = -w(j) * sin(...).
    """
    n = cfg.window_length
    k = np.arange(cfg.bins)[:, None]
    j = np.arange(n)[None, :]
    phase = 2.0 * np.pi * k * j / n
    return KernelBank(
        cfg=cfg,
        window=np.asarray(window, dtype=np.float64),
        real=window * np.cos(phase),
        imag=-window * np.sin(phase),
    )


# Mel scale (HTK formula) -----------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_triangles(n_mels: int, f_low: float, f_high: float,
                   bin_freqs: np.ndarray) -> np.ndarray:
    """(n_mels, K) un-normalized triangular filters on the HTK mel scale."""
    edges = mel_to_hz(np.linspace(hz_to_mel(f_low), hz_to_mel(f_high), n_mels + 2))
    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (bin_freqs[None, :] - lower) / np.maximum(center - lower, 1e-12)
    down = (upper - bin_freqs[None, :]) / np.maximum(upper - center, 1e-12)
    return np.maximum(0.0, np.minimum(up, down))


def mel_filterbank_matrix(spec: MelSpec, cfg: StftConfig, sample_rate_hz: int) -> np.ndarray:
    """(n_mels, K) triangular filters on the HTK mel scale, each row peaking at 1."""
    f_high = spec.f_high if spec.f_high is not None else sample_rate_hz / 2.0
    if not spec.f_low < f_high <= sample_rate_hz / 2.0:
        raise SignalError("need 0 <= f_low < f_high <= Nyquist")
    band = (spec.f_low, f_high, cfg.bin_upper_freqs(sample_rate_hz))
    weights = _mel_triangles(spec.n_mels, *band)
    row_max = weights.max(axis=1)
    if np.any(row_max <= 0.0):
        fits = next((n for n in range(spec.n_mels - 1, 0, -1)
                     if _mel_triangles(n, *band).any(axis=1).all()), None)
        hint = (f"the largest n_mels that fits is {fits}" if fits
                else "no n_mels fits this band")
        raise SignalError(f"n_mels={spec.n_mels} leaves empty filter rows for "
                          f"K={cfg.bins} bins; {hint}")
    return weights / row_max[:, None]


def apply_filterbank(power: Spectrogram, matrix: np.ndarray) -> Spectrogram:
    return Spectrogram(values=power.values @ matrix.T)


# MFCC ------------------------------------------------------------------------

MFCC_LOG_EPS = 1e-6


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, shape (n, n)."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    m = np.cos(np.pi * i * (2 * j + 1) / (2 * n)) * np.sqrt(2.0 / n)
    m[0, :] /= np.sqrt(2.0)
    return m


def mfcc(mel_values: np.ndarray, n_mfcc: int) -> np.ndarray:
    """First n_mfcc orthonormal DCT-II coefficients of log(mel + eps), per frame."""
    n_mels = mel_values.shape[1]
    if n_mfcc > n_mels:
        raise SignalError("n_mfcc must not exceed n_mels")
    d = dct_matrix(n_mels)[:n_mfcc]
    return np.log(mel_values + MFCC_LOG_EPS) @ d.T


# Gammatone -------------------------------------------------------------------

def erb_bandwidth(f):
    """Glasberg-Moore equivalent rectangular bandwidth at frequency f (Hz)."""
    return 24.7 * (4.37 * np.asarray(f, dtype=np.float64) / 1000.0 + 1.0)


def erb_scale(f):
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(f, dtype=np.float64))


def erb_scale_inv(e):
    return (10.0 ** (np.asarray(e, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def gammatone_center_freqs(spec: GammatoneSpec, sample_rate_hz: int) -> np.ndarray:
    f_high = spec.f_high if spec.f_high is not None else sample_rate_hz / 2.0
    if not 0 < spec.f_low < f_high:
        raise SignalError("need 0 < f_low < f_high for gammatone centers")
    return erb_scale_inv(np.linspace(erb_scale(spec.f_low), erb_scale(f_high), spec.n_filters))


def gammatone_kernels(spec: GammatoneSpec, cfg: StftConfig, sample_rate_hz: int) -> np.ndarray:
    """(n_filters, N) peak-normalized FIR gammatone kernels.

    g(t) = t^(order-1) * exp(-2*pi*b*t) * cos(2*pi*f_c*t), b = 1.019 * ERB(f_c).
    """
    centers = gammatone_center_freqs(spec, sample_rate_hz)
    t = np.arange(cfg.window_length)[None, :] / sample_rate_hz
    b = 1.019 * erb_bandwidth(centers)[:, None]
    fc = centers[:, None]
    g = t ** (spec.order - 1) * np.exp(-2.0 * np.pi * b * t) * np.cos(2.0 * np.pi * fc * t)
    peak = np.abs(g).max(axis=1, keepdims=True)
    return g / peak


def gammatone_spectrogram(buf: AudioBuffer, kernels: np.ndarray, cfg: StftConfig,
                          center_freqs: np.ndarray | None = None) -> Spectrogram:
    """Strided squared-convolution output, shape (T, n_filters)."""
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop)
    return Spectrogram(values=(frames @ kernels.T) ** 2, channel_freqs=center_freqs)
