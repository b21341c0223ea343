"""Independent reference implementations used as test oracles.

`fake_quant_reference` re-executes a realized circuit as a float pipeline
with quantizers inserted at every edge, using its own rounding, framing,
integer matmul and lookup evaluation (no table reads).  Bit-exact agreement
with the integer execution path is the circuit-equivalence contract.

The float transforms (`stft`, `power_spectrogram`, `apply_filterbank`,
`mfcc`, `gammatone_spectrogram`) compute each spectrogram directly, frame by
frame, without the kernel-bank and node machinery of `fhespec.circuit`; they
are what `run_clear` is checked against.  `kernel_halves` computes each
approximation's kernel bank as two separate (K, N) products, the formulas
`approx_kernels` must reproduce bit for bit, and `poorman_project` finds
one tap's nearest root by a scalar search.  The approximation error terms
(`dilation_error`, `fd_window_error_terms`, `l1_energy_error`,
`cropping_error`) are the closed forms the approximation tests compare with
direct subtraction.  Spectrograms are (T, C) arrays, complex before the
energy step.
"""

from __future__ import annotations

import numpy as np

from fhespec.approx import (
    Cropping,
    Dilation,
    FreqAdaptiveWindow,
    Poorman,
    _project_grid,
    crop_mask,
    dilation_kernels,
    dilation_mask,
    fd_width,
    fd_window,
    poorman_root,
)
from fhespec.circuit import (
    ConcatNode,
    ConvNode,
    LutNode,
    MatmulNode,
    ReduceNode,
    StdNode,
)
from fhespec.transforms import (
    AudioBuffer,
    SignalError,
    StftConfig,
    dct_matrix,
    frame_signal,
    hann_window,
    stft_kernels,
)

MFCC_LOG_EPS = 1e-6  # pinned independently of the library constant


def round_half_away(t):
    t = np.asarray(t, dtype=np.float64)
    return np.where(t >= 0.0, np.floor(t + 0.5), np.ceil(t - 0.5)).astype(np.int64)


def quant_edge(x, spec):
    v = round_half_away(np.asarray(x, dtype=np.float64) / spec.scale)
    return np.clip(v, spec.v_min, spec.v_max)


def frames_of(x, n, hop):
    t = (len(x) - n) // hop + 1
    return np.stack([x[i * hop: i * hop + n] for i in range(t)])


def lut_fn(node, x):
    if node.semantic == "requant":
        return x
    if node.semantic == "log":
        return np.log(np.maximum(x, 0.0) + MFCC_LOG_EPS)
    if node.semantic == "sqrt":
        return np.sqrt(np.maximum(x, 0.0))
    if node.semantic == "normalize":
        return (x - node.norm_center) / node.norm_scale
    raise AssertionError(node.semantic)


def fake_quant_reference(graph, buf):
    """Integer output vector of the graph, recomputed independently."""
    values = {"input": quant_edge(buf.samples, graph.input_spec)}
    for node in graph.nodes:
        if isinstance(node, ConvNode):
            frames = frames_of(values[node.src], node.weights_q.shape[1],
                               node.stride)
            values[node.name] = np.einsum("tn,cn->tc", frames, node.weights_q)
        elif isinstance(node, MatmulNode):
            values[node.name] = np.einsum("tn,cn->tc", values[node.src],
                                          node.weights_q)
        elif isinstance(node, LutNode):
            v = values[node.src]
            if node.semantic == "square":
                values[node.name] = v * v
            elif node.semantic == "abs":
                values[node.name] = np.abs(v)
            else:
                x = v.astype(np.float64) * node.in_spec.scale
                values[node.name] = quant_edge(lut_fn(node, x), node.out_spec)
        elif isinstance(node, ReduceNode):
            v = values[node.src]
            if node.axis == "pair":
                t, c2 = v.shape
                values[node.name] = v.reshape(t, 2, c2 // 2).sum(axis=1)
            elif node.axis == "channels":
                values[node.name] = v.sum(axis=v.ndim - 1)
            else:
                values[node.name] = v.sum(axis=0)
        elif isinstance(node, StdNode):
            v = values[node.src].astype(np.float64)
            std = np.std(v, axis=0) * node.in_spec.scale
            values[node.name] = quant_edge(std, node.out_spec)
        elif isinstance(node, ConcatNode):
            values[node.name] = np.array(
                [int(np.asarray(values[s])) for s in node.srcs], dtype=np.int64)
        else:
            raise AssertionError(type(node).__name__)
    out = graph.node(graph.output_node)
    return np.asarray(values[graph.output_node]) - out.out_spec.lift


# Float transforms -------------------------------------------------------------

def stft(buf: AudioBuffer, cfg: StftConfig, window: np.ndarray) -> np.ndarray:
    """Frame-wise windowed DFT, one-sided (bins 0 .. N/2), shape (T, K).

    Phases are frame-local, matching the strided-convolution formulation;
    magnitudes are identical to the sliding-DFT definition.
    """
    if window.size != cfg.window_length:
        raise SignalError("window length does not match the STFT config")
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop)
    return np.fft.rfft(frames * window, axis=1)


def power_spectrogram(spec: np.ndarray) -> np.ndarray:
    return spec.real**2 + spec.imag**2


def apply_filterbank(power: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    return power @ matrix.T


def mfcc(mel_values: np.ndarray, n_mfcc: int) -> np.ndarray:
    """First n_mfcc orthonormal DCT-II coefficients of log(mel + eps), per frame."""
    n_mels = mel_values.shape[1]
    if n_mfcc > n_mels:
        raise SignalError("n_mfcc must not exceed n_mels")
    d = dct_matrix(n_mels)[:n_mfcc]
    return np.log(mel_values + MFCC_LOG_EPS) @ d.T


def gammatone_spectrogram(buf: AudioBuffer, kernels: np.ndarray,
                          cfg: StftConfig) -> np.ndarray:
    """Strided squared-convolution output, shape (T, n_filters)."""
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop)
    return (frames @ kernels.T) ** 2


# Kernel banks -----------------------------------------------------------------

def poorman_project(angle: float, roots: int) -> int:
    """Index l of the nearest root e^{-2j*pi*l/roots} to e^{j*angle}, by a
    scalar float search over the two neighbouring roots: the reference for
    the integer grid `approx._project_grid`.

    Ties in angular distance break toward the smaller index.
    """
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


def kernel_halves(spec, cfg: StftConfig, window: np.ndarray,
                  sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray]:
    """(real, imag) kernels of the STFT formulation `spec`, each computed as
    its own (K, N) product: w(j) * cos(2*pi*k*j/N) and -w(j) * sin(...),
    then each rewrite's product with its mask, windows or projected roots."""
    n = cfg.window_length
    k = np.arange(cfg.bins)[:, None]
    j = np.arange(n)[None, :]
    phase = 2.0 * np.pi * k * j / n
    real, imag = window * np.cos(phase), -window * np.sin(phase)
    if isinstance(spec, Dilation):
        mask = dilation_mask(n, cfg.bins, spec.rate, per_bin_cap=True)
        return real * mask, imag * mask
    if isinstance(spec, FreqAdaptiveWindow):
        ones = np.ones(n)
        windows = np.vstack([fd_window(b, n, spec.n_min) for b in range(cfg.bins)])
        return (ones * np.cos(phase)) * windows, (-ones * np.sin(phase)) * windows
    if isinstance(spec, Poorman):
        root = poorman_root(_project_grid(n, cfg.bins, spec.roots), spec.roots)
        return window * root.real, window * root.imag
    if isinstance(spec, Cropping):
        keep = crop_mask(cfg, sample_rate_hz, spec.f_min_hz, spec.f_max_hz)
        keep = keep[:, None].astype(np.float64)
        return real * keep, imag * keep
    return real, imag  # conventional and l1 share the conventional bank


# Approximation error terms ----------------------------------------------------

def dilation_error(buf: AudioBuffer, cfg: StftConfig, window: np.ndarray,
                   rate: int, per_bin_cap: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """|X - X^(d)| computed two ways: masked complement sum, direct subtraction.

    Returns (masked_form, direct_form), both (T, K).
    """
    base = stft_kernels(cfg, window)
    dilated = dilation_kernels(base, rate, per_bin_cap)
    frames = frame_signal(buf.samples, cfg.window_length, cfg.hop)

    comp_re = base.real - dilated.real
    comp_im = base.imag - dilated.imag
    masked = np.hypot(frames @ comp_re.T, frames @ comp_im.T)

    full = base.apply(buf)
    part = dilated.apply(buf)
    direct = np.hypot(full.real - part.real, full.imag - part.imag)
    return masked, direct


def fd_window_error_terms(k: int, n: int, n_min: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-case decomposition of (w - w_k): (narrowing_inside, padding_outside).

    narrowing is nonzero only inside the narrow window's support, padding only
    outside (where w_k is zero and the difference is the full window itself).
    Their sum equals hann(N) - fd_window(k).
    """
    width = fd_width(k, n, n_min)
    start = (n - width) // 2
    j = np.arange(n)
    inside = (j >= start) & (j < start + width)
    narrowing = np.where(inside, 0.5 * (np.cos(2.0 * np.pi * (j - start) / width)
                                        - np.cos(2.0 * np.pi * j / n)), 0.0)
    padding = np.where(inside, 0.0, hann_window(n))
    return narrowing, padding


def l1_energy(spec: np.ndarray) -> np.ndarray:
    return np.abs(spec.real) + np.abs(spec.imag)


def l1_energy_error(spec: np.ndarray) -> np.ndarray:
    """| |X|^2 - (|Re X| + |Im X|) | per entry."""
    return np.abs(power_spectrogram(spec) - l1_energy(spec))


def cropping_error(spec: np.ndarray, cfg: StftConfig, sample_rate_hz: int,
                   f_min: float, f_max: float) -> np.ndarray:
    """|X| on the dropped bins, zero elsewhere (exact, not a bound)."""
    keep = crop_mask(cfg, sample_rate_hz, f_min, f_max)
    mag = np.hypot(spec.real, spec.imag)
    return mag * (~keep)[None, :]
