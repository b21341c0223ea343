"""Approximate STFT formulations as kernel-bank rewrites, with error bounds.

Five rewrites of the conventional kernel bank: tap dilation (with a per-bin
Nyquist cap), frequency-adaptive window widths, unit-root phase projection
("poorman" DFT), l1 energy, and frequency-band cropping.  Each one only
zeroes taps or bins, reshapes windows, or projects coefficients, so the bank
shape is unchanged; each writes its rewrite into one new (2K, N) array.
Dilation and cropping mask a conventional bank and leave it as it was; the
window and phase rewrites need none.  The poorman error bound and the
dilation aliasing identity are implemented alongside, so `validate-bounds`
can check them on audio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .transforms import (
    AudioBuffer,
    KernelBank,
    StftConfig,
    frame_signal,
    stft_kernels,
    stft_two_sided,
)


class ApproxError(ValueError):
    pass


# Approximation specs (tagged union) ------------------------------------------

@dataclass(frozen=True)
class Conventional:
    kind = "conventional"


@dataclass(frozen=True)
class Dilation:
    """Keep one tap every `rate` samples; rate=None means the per-bin maximum."""

    rate: int | None = None
    per_bin_cap: bool = True
    kind = "dilation"

    def __post_init__(self):
        if self.rate is not None and self.rate < 1:
            raise ApproxError("dilation rate must be >= 1")
        if self.rate is None and not self.per_bin_cap:
            raise ApproxError("maximal dilation requires the per-bin cap")


@dataclass(frozen=True)
class FreqAdaptiveWindow:
    n_min: int = 80
    kind = "fdwindow"

    def __post_init__(self):
        if self.n_min < 2:
            raise ApproxError("minimum window width must be >= 2")


@dataclass(frozen=True)
class Poorman:
    """Project each DFT coefficient onto the `roots`-th roots of unity."""

    roots: int = 4
    kind = "poorman"

    def __post_init__(self):
        if self.roots < 2:
            raise ApproxError("poorman needs at least 2 roots")


@dataclass(frozen=True)
class L1Energy:
    kind = "l1"


@dataclass(frozen=True)
class Cropping:
    f_min_hz: float = 0.0
    f_max_hz: float = 1000.0
    kind = "crop"

    def __post_init__(self):
        if not 0 <= self.f_min_hz < self.f_max_hz:
            raise ApproxError("need 0 <= f_min < f_max")


ApproxSpec = Conventional | Dilation | FreqAdaptiveWindow | Poorman | L1Energy | Cropping


# Dilation --------------------------------------------------------------------

def max_dilation_per_bin(n: int, k: int) -> int:
    """Nyquist-derived cap: d_k = floor(N / (2 * (k + 1)))."""
    if not 0 <= k <= n // 2:
        raise ApproxError(f"bin index {k} out of range for N={n}")
    return max(1, n // (2 * (k + 1)))


def dilation_mask(n: int, bins: int, rate: int | None, per_bin_cap: bool) -> np.ndarray:
    """(bins, N) 0/1 mask keeping frame taps j with j % effective_rate == 0."""
    j = np.arange(n)[None, :]
    caps = np.array([max_dilation_per_bin(n, k) for k in range(bins)])[:, None]
    if rate is None:
        eff = caps
    elif per_bin_cap:
        eff = np.minimum(rate, caps)
    else:
        eff = np.full_like(caps, rate)
    return (j % eff == 0).astype(np.float64)


def _rewritten(bank: KernelBank, halves: np.ndarray) -> KernelBank:
    """`bank` with the new (2, K, N) kernels `halves`, stacked as a view."""
    return dc_replace(bank, kernels=halves.reshape(bank.kernels.shape))


def dilation_kernels(bank: KernelBank, rate: int | None, per_bin_cap: bool = True) -> KernelBank:
    mask = dilation_mask(bank.cfg.window_length, bank.bins, rate, per_bin_cap)
    return _rewritten(bank, bank.halves * mask)


def dilation_aliasing_residual(buf: AudioBuffer, cfg: StftConfig,
                               window: np.ndarray, rate: int) -> float:
    """Max deviation from the aliasing identity for a uniform dilation rate.

    On the two-sided DFT, keeping every `rate`-th tap (rate dividing N, no
    per-bin cap) equals the average of the full spectrum over `rate` copies
    shifted by N/rate bins: X_d[m, k] = (1/d) * sum_j X[m, k - j*N/d].
    Returns the maximum absolute difference between the two sides.
    """
    n = cfg.window_length
    if rate < 1 or n % rate != 0:
        raise ApproxError("aliasing identity needs a rate dividing N")
    mask = (np.arange(n) % rate == 0).astype(np.float64)
    dilated = stft_two_sided(buf, cfg, window, tap_mask=mask)
    full = stft_two_sided(buf, cfg, window)
    shift = n // rate
    predicted = sum(np.roll(full, j * shift, axis=1) for j in range(rate)) / rate
    return float(np.max(np.abs(dilated - predicted)))


# Frequency-adaptive windows --------------------------------------------------

def fd_width(k: int, n: int, n_min: int) -> int:
    """min(N, N_min * f_max / f_k) rounded to the nearest integer width.

    With f_k = (k+1) * f_s / N and f_max the top retained bin, the frequency
    ratio reduces to bins / (k + 1).
    """
    bins = n // 2 + 1
    return min(n, int(round(n_min * bins / (k + 1))))


def fd_window(k: int, n: int, n_min: int) -> np.ndarray:
    """Length-N window: a Hann of width N_fd(k) centered in the frame.

    The centering puts (N - N_fd) // 2 zeros on the left; an odd remainder
    leaves the extra zero on the right.
    """
    if not 2 <= n_min <= n:
        raise ApproxError(f"need 2 <= n_min <= N, got n_min={n_min}, N={n}")
    width = fd_width(k, n, n_min)
    start = (n - width) // 2
    w = np.zeros(n)
    j = np.arange(width)
    w[start:start + width] = 0.5 * (1.0 - np.cos(2.0 * np.pi * j / width))
    return w


def fd_kernels(cfg: StftConfig, window: np.ndarray, n_min: int) -> KernelBank:
    """Each bin's bare complex coefficients under its own `fd_window`;
    `window` is the bank's nominal window."""
    n = cfg.window_length
    windows = np.vstack([fd_window(k, n, n_min) for k in range(cfg.bins)])
    bank = stft_kernels(cfg, np.ones(n))  # bare complex coefficients
    halves = bank.halves
    halves *= windows
    return dc_replace(bank, window=np.asarray(window, dtype=np.float64))


# Poorman ---------------------------------------------------------------------

def poorman_project(angle: float, roots: int) -> int:
    """Index l of the nearest root e^{-2j*pi*l/roots} to e^{j*angle}.

    Ties in angular distance break toward the smaller index.
    """
    if roots < 2:
        raise ApproxError("poorman needs at least 2 roots")
    t = -angle * roots / (2.0 * np.pi)
    a = int(np.floor(t))
    best = None
    for cand in (a, a + 1):
        l = cand % roots
        dist = abs(t - cand)
        key = (dist, l)
        if best is None or key < best:
            best = key
    return best[1]


def poorman_root(l, roots: int) -> complex:
    ang = -2.0 * np.pi * np.asarray(l) / roots
    return np.cos(ang) + 1j * np.sin(ang)


def _project_grid(n: int, bins: int, roots: int) -> np.ndarray:
    """Projected root index for every (k, j) phase -2*pi*k*j/N, exact ties.

    Ties are detected in integer arithmetic (2 * (k*j*L mod N) == N) so the
    smaller-index rule is applied exactly regardless of float rounding.
    """
    k = np.arange(bins, dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)[None, :]
    num = k * j * roots
    lo = num // n
    rem = num - lo * n
    l = np.where(2 * rem > n, lo + 1, lo)
    tie = 2 * rem == n
    if np.any(tie):
        la, lb = lo % roots, (lo + 1) % roots
        l = np.where(tie, np.where(la <= lb, lo, lo + 1), l)
    return l % roots


def poorman_kernels(cfg: StftConfig, window: np.ndarray, roots: int) -> KernelBank:
    """The window times each tap's projected root, gathered by index from
    the `roots` distinct roots."""
    window = np.asarray(window, dtype=np.float64)
    l = _project_grid(cfg.window_length, cfg.bins, roots)
    root = poorman_root(np.arange(roots), roots)
    kernels = np.empty((2 * cfg.bins, cfg.window_length))
    np.multiply(window, root.real[l], out=kernels[:cfg.bins])
    np.multiply(window, root.imag[l], out=kernels[cfg.bins:])
    return KernelBank(cfg=cfg, window=window, kernels=kernels)


# Cropping --------------------------------------------------------------------

def crop_mask(cfg: StftConfig, sample_rate_hz: int, f_min: float, f_max: float) -> np.ndarray:
    """Bins whose DFT frequency k * f_s / N lies inside [f_min, f_max]."""
    freqs = cfg.bin_freqs(sample_rate_hz)
    return (freqs >= f_min) & (freqs <= f_max)


def crop_kernels(bank: KernelBank, sample_rate_hz: int, f_min: float,
                 f_max: float) -> KernelBank:
    mask = crop_mask(bank.cfg, sample_rate_hz, f_min, f_max)
    if not mask.any():
        raise ApproxError(f"crop band {f_min}-{f_max} Hz keeps no bin: bins are "
                          f"{sample_rate_hz / bank.cfg.window_length} Hz apart, up to "
                          f"the Nyquist frequency {sample_rate_hz / 2.0} Hz")
    keep = mask[:, None].astype(np.float64)
    return _rewritten(bank, bank.halves * keep)


# Kernel bank dispatch --------------------------------------------------------

def approx_kernels(spec: ApproxSpec, cfg: StftConfig, window: np.ndarray,
                   sample_rate_hz: int) -> KernelBank:
    """Kernel bank implementing the requested STFT formulation.  The
    conventional bank is built only for the rewrites that start from it."""
    if isinstance(spec, FreqAdaptiveWindow):
        return fd_kernels(cfg, window, spec.n_min)
    if isinstance(spec, Poorman):
        return poorman_kernels(cfg, window, spec.roots)
    base = stft_kernels(cfg, window)
    if isinstance(spec, (Conventional, L1Energy)):
        return base
    if isinstance(spec, Dilation):
        return dilation_kernels(base, spec.rate, spec.per_bin_cap)
    if isinstance(spec, Cropping):
        return crop_kernels(base, sample_rate_hz, spec.f_min_hz, spec.f_max_hz)
    raise ApproxError(f"unknown approximation spec: {spec!r}")


@dataclass(frozen=True)
class BoundReport:
    bound: np.ndarray
    empirical: np.ndarray

    @property
    def satisfied(self) -> np.ndarray:
        return self.empirical <= self.bound * (1.0 + 1e-9)

    @property
    def all_satisfied(self) -> bool:
        return bool(np.all(self.satisfied))


def poorman_bound_report(buf: AudioBuffer, cfg: StftConfig, window: np.ndarray,
                         roots: int) -> BoundReport:
    """Per-(m, k) poorman error against the k-independent per-frame bound.

    The bound is 2*|sin(pi/2L)| * ||x_frame||_2 * ||w||_2.  Each projected
    coefficient is within chord distance 2*sin(pi/2L) of the exact one, so
    by Cauchy-Schwarz the per-bin error is at most
    ||x_frame||_2 * ||w * d||_2 <= 2*sin(pi/2L) * ||x_frame||_2 * ||w||_2.
    The norms factor separately; bounding the windowed product's norm alone
    would not survive the worst case.
    """
    base = stft_kernels(cfg, window)
    poor = poorman_kernels(cfg, window, roots)
    exact = base.apply(buf)
    approx = poor.apply(buf)
    err = np.hypot(exact.real - approx.real, exact.imag - approx.imag)
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop)
    energy = np.sqrt(np.sum(frames**2, axis=1))
    w_norm = np.sqrt(np.sum(np.asarray(window) ** 2))
    bound = 2.0 * abs(np.sin(np.pi / (2.0 * roots))) * energy * w_norm
    return BoundReport(bound=np.broadcast_to(bound[:, None], err.shape).copy(), empirical=err)
