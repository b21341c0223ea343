"""Transform building blocks: STFT, Mel, MFCC and gammatone kernels.

Every transform is a bank of fixed convolution kernels applied with stride
equal to the hop length, followed by fixed matrices (Mel filterbank, DCT);
this is the form the quantized integer circuit consumes.  The direct
frame-wise float transforms the circuits are checked against live with the
test oracles.

Frames lie fully inside the signal (no padding): T = floor((M - N) / h) + 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .record import Record, set_field


class SignalError(ValueError):
    pass


class AudioBuffer(Record):
    """Mono signal samples plus sample rate; its length is its sample count."""

    __slots__ = _fields = ("samples", "sample_rate_hz")

    def __init__(self, samples: np.ndarray, sample_rate_hz: int):
        s = np.asarray(samples, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise SignalError("AudioBuffer needs a nonempty 1-D sample array")
        if not np.all(np.isfinite(s)):
            raise SignalError("AudioBuffer samples must be finite")
        if sample_rate_hz <= 0:
            raise SignalError("sample rate must be positive")
        set_field(self, "samples", s)
        set_field(self, "sample_rate_hz", sample_rate_hz)

    def __len__(self) -> int:
        return self.samples.size


class StftConfig(Record):
    __slots__ = _fields = ("window_length", "hop")

    def __init__(self, window_length: int, hop: int):
        if window_length < 2 or window_length % 2 != 0:
            raise SignalError("window length must be even and >= 2")
        if not (1 <= hop <= window_length):
            raise SignalError("hop must satisfy 1 <= hop <= window length")
        set_field(self, "window_length", window_length)
        set_field(self, "hop", hop)

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

        The Mel filterbank samples its triangles here, one bin above the
        bin frequencies `bin_freqs`.
        """
        return (np.arange(self.bins) + 1) * sample_rate_hz / self.window_length

    def bin_freqs(self, sample_rate_hz: int) -> np.ndarray:
        """DFT bin frequency k * f_s / N (0 .. Nyquist inclusive)."""
        return np.arange(self.bins) * sample_rate_hz / self.window_length


N_MELS = 64  # Mel filters by default


class MelSpec(Record):
    __slots__ = _fields = ("n_mels",)

    def __init__(self, n_mels: int = N_MELS):
        if n_mels < 1:
            raise SignalError("n_mels must be positive")
        set_field(self, "n_mels", n_mels)


# Gammatone filters are 4th order, with centers from 50 Hz to Nyquist.
GAMMATONE_ORDER = 4
GAMMATONE_F_LOW_HZ = 50.0
N_GAMMATONE = 64  # gammatone filters by default


class GammatoneSpec(Record):
    __slots__ = _fields = ("n_filters",)

    def __init__(self, n_filters: int = N_GAMMATONE):
        if n_filters < 1:
            raise SignalError("gammatone spec needs n_filters >= 1")
        set_field(self, "n_filters", n_filters)


def hann_window(n: int) -> np.ndarray:
    """w(j) = 0.5 * (1 - cos(2*pi*j/N)) for 0 <= j < N."""
    if n < 2:
        raise SignalError("window length must be >= 2")
    j = np.arange(n)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * j / n))


def frame_signal(x: np.ndarray, n: int, hop: int) -> np.ndarray:
    """Strided (..., T, N) view of the frames fully inside the signal, taken
    along its last axis."""
    t = (x.shape[-1] - n) // hop + 1
    if t < 1:
        raise SignalError("signal shorter than one frame")
    stride = x.strides[-1]
    return np.lib.stride_tricks.as_strided(
        x, shape=(*x.shape[:-1], t, n), strides=(*x.strides[:-1], hop * stride, stride),
        writeable=False
    )


# A pass over a whole bank takes a block of whole rows, of about this many
# elements, at a time, so its temporaries stay near 256 KB at any bank size.
_BLOCK_ELEMENTS = 1 << 15


def _row_blocks(rows: int, n: int) -> list:
    """Slices of whole rows covering a (rows, n) matrix, each of about
    `_BLOCK_ELEMENTS` elements and at least one row."""
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    return [slice(r, r + step) for r in range(0, rows, step)]


def stft_two_sided(buf: AudioBuffer, cfg: StftConfig, window: np.ndarray,
                   tap_mask: np.ndarray | None = None) -> np.ndarray:
    """Full N-bin DFT per frame, for the dilation aliasing identity check.

    `tap_mask` optionally zeroes frame samples before the transform, which is
    how the dilated formulation reads on the frame index.
    """
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop) * window
    if tap_mask is not None:
        frames = frames * tap_mask
    return np.fft.fft(frames, axis=1)


class KernelBank(NamedTuple):
    """Fixed convolution kernels realizing a (possibly approximate) STFT.

    `kernels` is one (2K, N) array: the K real kernels, then the K
    imaginary ones.  `real` and `imag` are views of its two halves, and
    `kernels` is what the conv node multiplies, so no copy of the bank is
    ever stacked.  Convolving frames with the kernels at stride h
    reproduces the matching transform exactly.
    """

    cfg: StftConfig
    window: np.ndarray
    kernels: np.ndarray

    @property
    def bins(self) -> int:
        return self.kernels.shape[0] // 2

    @property
    def halves(self) -> np.ndarray:
        """(2, K, N) view: the real kernels, then the imaginary ones."""
        return self.kernels.reshape(2, self.bins, -1)

    @property
    def real(self) -> np.ndarray:
        return self.kernels[:self.bins]

    @property
    def imag(self) -> np.ndarray:
        return self.kernels[self.bins:]

    def apply(self, buf: AudioBuffer) -> np.ndarray:
        """(T, K) complex spectrogram; its real and imaginary parts are
        exactly the two real kernel products."""
        frames = frame_signal(buf.samples, self.cfg.window_length, self.cfg.hop)
        spec = np.empty((frames.shape[0], self.bins), dtype=np.complex128)
        spec.real = frames @ self.real.T
        spec.imag = frames @ self.imag.T
        return spec


def stft_kernels(cfg: StftConfig, window: np.ndarray) -> KernelBank:
    """Kernel bank for the conventional STFT.

    kernel_re[k, j] = w(j) * cos(2*pi*k*j/N); kernel_im[k, j] = -w(j) * sin(...).
    The phases 2*pi*k*j/N are computed in the imaginary half, and both
    halves are written in place, so the (2K, N) bank is the only array of
    its size this allocates.
    """
    n, bins = cfg.window_length, cfg.bins
    window = np.asarray(window, dtype=np.float64)
    kernels = np.empty((2 * bins, n))
    re, im = kernels[:bins], kernels[bins:]
    np.multiply(2.0 * np.pi * np.arange(bins)[:, None], np.arange(n), out=im)
    im /= n
    np.cos(im, out=re)
    np.sin(im, out=im)
    re *= window
    im *= -window
    return KernelBank(cfg=cfg, window=window, kernels=kernels)


# Mel scale (HTK formula) -----------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_triangles(n_mels: int, f_high: float, bin_freqs: np.ndarray) -> np.ndarray:
    """(n_mels, K) un-normalized triangular filters on the HTK mel scale,
    from 0 Hz to `f_high`."""
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(f_high), n_mels + 2))
    lower, center, upper = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (bin_freqs[None, :] - lower) / np.maximum(center - lower, 1e-12)
    down = (upper - bin_freqs[None, :]) / np.maximum(upper - center, 1e-12)
    return np.maximum(0.0, np.minimum(up, down))


def mel_filterbank_matrix(spec: MelSpec, cfg: StftConfig, sample_rate_hz: int) -> np.ndarray:
    """(n_mels, K) triangular filters on the HTK mel scale from 0 Hz to
    Nyquist, each row peaking at 1."""
    band = (sample_rate_hz / 2.0, cfg.bin_upper_freqs(sample_rate_hz))
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


# MFCC ------------------------------------------------------------------------

MFCC_LOG_EPS = 1e-6
N_MFCC = 13  # cepstral coefficients kept by default


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, shape (n, n)."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    m = np.cos(np.pi * i * (2 * j + 1) / (2 * n)) * np.sqrt(2.0 / n)
    m[0, :] /= np.sqrt(2.0)
    return m


# Gammatone -------------------------------------------------------------------

def erb_bandwidth(f):
    """Glasberg-Moore equivalent rectangular bandwidth at frequency f (Hz)."""
    return 24.7 * (4.37 * np.asarray(f, dtype=np.float64) / 1000.0 + 1.0)


def erb_scale(f):
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(f, dtype=np.float64))


def erb_scale_inv(e):
    return (10.0 ** (np.asarray(e, dtype=np.float64) / 21.4) - 1.0) / 0.00437


def gammatone_center_freqs(spec: GammatoneSpec, sample_rate_hz: int) -> np.ndarray:
    nyquist = sample_rate_hz / 2.0
    if not GAMMATONE_F_LOW_HZ < nyquist:
        raise SignalError(f"gammatone centers start at {GAMMATONE_F_LOW_HZ} Hz, at or "
                          f"above the Nyquist frequency {nyquist} Hz")
    return erb_scale_inv(np.linspace(erb_scale(GAMMATONE_F_LOW_HZ), erb_scale(nyquist),
                                     spec.n_filters))


def gammatone_kernels(spec: GammatoneSpec, cfg: StftConfig, sample_rate_hz: int) -> np.ndarray:
    """(n_filters, N) peak-normalized FIR gammatone kernels.

    g(t) = t^(order-1) * exp(-2*pi*b*t) * cos(2*pi*f_c*t), b = 1.019 * ERB(f_c),
    with order `GAMMATONE_ORDER`.
    """
    centers = gammatone_center_freqs(spec, sample_rate_hz)
    t = np.arange(cfg.window_length)[None, :] / sample_rate_hz
    b = 1.019 * erb_bandwidth(centers)[:, None]
    fc = centers[:, None]
    g = t ** (GAMMATONE_ORDER - 1) * np.exp(-2.0 * np.pi * b * t) * np.cos(2.0 * np.pi * fc * t)
    peak = np.abs(g).max(axis=1, keepdims=True)
    return g / peak
