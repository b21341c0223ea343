"""Approximation tests: masks, projections, closed-form errors, bounds."""

from typing import get_args

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cropping_error,
    dilation_error,
    fd_window_error_terms,
    kernel_halves,
    l1_energy,
    l1_energy_error,
    poorman_project,
)
from fhespec.approx import (
    FORMS,
    ApproxError,
    ApproxSpec,
    Conventional,
    Cropping,
    Dilation,
    FreqAdaptiveWindow,
    L1Energy,
    Poorman,
    approx_kernels,
    approx_label,
    crop_kernels,
    crop_mask,
    dilation_aliasing_residual,
    dilation_kernels,
    dilation_mask,
    fd_kernels,
    fd_width,
    fd_window,
    max_dilation_per_bin,
    parse_approx,
    poorman_bound_report,
    poorman_kernels,
    poorman_root,
    _project_grid,
)
from fhespec.transforms import (
    AudioBuffer,
    StftConfig,
    frame_signal,
    hann_window,
    stft_kernels,
)

FS = 16000
CFG = StftConfig(256, 64)
WINDOW = hann_window(256)


def noise_buf(n=2000, seed=0):
    return AudioBuffer(np.random.default_rng(seed).standard_normal(n), FS)


# Dilation ---------------------------------------------------------------------

def test_max_dilation_per_bin_values():
    assert max_dilation_per_bin(400, 0) == 200
    assert max_dilation_per_bin(400, 199) == 1
    assert max_dilation_per_bin(400, 200) == 1  # clamped at the top bin
    with pytest.raises(ApproxError):
        max_dilation_per_bin(400, 201)


def test_dilation_mask_uniform():
    mask = dilation_mask(16, 9, rate=2, per_bin_cap=False)
    assert mask.shape == (9, 16)
    assert np.all(mask[:, ::2] == 1.0)
    assert np.all(mask[:, 1::2] == 0.0)
    # exactly ceil(N/2) nonzero taps per kernel row
    assert np.all(mask.sum(axis=1) == 8)


def test_dilation_rate_one_is_identity():
    base = stft_kernels(CFG, WINDOW)
    same = dilation_kernels(base, 1, per_bin_cap=True)
    assert np.array_equal(base.real, same.real)
    assert np.array_equal(base.imag, same.imag)


def test_dilation_per_bin_cap():
    n, bins = 64, 33
    mask = dilation_mask(n, bins, rate=8, per_bin_cap=True)
    for k in range(bins):
        eff = min(8, max_dilation_per_bin(n, k))
        assert np.array_equal(mask[k], (np.arange(n) % eff == 0))
    # maximal dilation: rate=None uses the cap itself
    mask_max = dilation_mask(n, bins, rate=None, per_bin_cap=True)
    for k in range(bins):
        eff = max_dilation_per_bin(n, k)
        assert np.array_equal(mask_max[k], (np.arange(n) % eff == 0))


def test_dilation_aliasing_identity_library_and_inline():
    buf = noise_buf(seed=11)
    frames = frame_signal(buf.samples, 256, 64) * hann_window(256)
    full = np.fft.fft(frames, axis=1)
    for rate in (2, 4, 8):
        residual = dilation_aliasing_residual(buf, CFG, rate)
        assert residual < 1e-9
        # the library runs the identity on the Hann window, bit for bit
        lhs = np.fft.fft(frames * (np.arange(256) % rate == 0), axis=1)
        rhs = sum(np.roll(full, j * 256 // rate, axis=1) for j in range(rate)) / rate
        assert residual == float(np.max(np.abs(lhs - rhs)))
    # independent inline check for one rate using plain numpy fft
    rate, n = 4, 256
    frame = buf.samples[:n] * WINDOW
    masked = frame * (np.arange(n) % rate == 0)
    lhs = np.fft.fft(masked)
    full = np.fft.fft(frame)
    rhs = sum(np.roll(full, j * n // rate) for j in range(rate)) / rate
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_dilation_error_two_forms_agree():
    buf = noise_buf(seed=12)
    masked, direct = dilation_error(buf, CFG, WINDOW, rate=4)
    assert masked.shape == direct.shape
    assert np.max(np.abs(masked - direct)) < 1e-10
    # rate 1 means no error
    m1, d1 = dilation_error(buf, CFG, WINDOW, rate=1)
    assert np.max(m1) == 0.0 and np.max(d1) == 0.0


def test_maximal_dilation_error_larger_at_low_bins():
    buf = noise_buf(4096, seed=13)
    _, direct = dilation_error(buf, CFG, WINDOW, rate=10**9, per_bin_cap=True)
    mean_err = direct.mean(axis=0)
    assert mean_err[1] >= mean_err[-1]  # aggressive dilation hurts low bins


# Frequency-adaptive windows ---------------------------------------------------

def test_fd_width_monotone_and_limits():
    n, n_min = 256, 80
    widths = [fd_width(k, n, n_min) for k in range(129)]
    assert widths[0] == n  # saturates at the full window for low bins
    assert widths[-1] == n_min  # top bin gets the minimum width
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_fd_window_centered():
    w = fd_window(128, 256, 80)  # top bin: width exactly 80
    # (256 - 80) // 2 = 88 zeros on the left, 88 on the right
    assert np.all(w[:88] == 0.0)
    assert np.array_equal(w[88:168], hann_window(80))
    assert np.all(w[168:] == 0.0)
    # odd slack: the extra zero goes on the right
    w_odd = fd_window(128, 256, 81)
    assert np.all(w_odd[:87] == 0.0)
    assert np.array_equal(w_odd[87:168], hann_window(81))
    assert np.all(w_odd[168:] == 0.0)


def test_fd_error_decomposition():
    for k in (0, 10, 64, 128):
        narrowing, padding = fd_window_error_terms(k, 256, 80)
        direct = hann_window(256) - fd_window(k, 256, 80)
        assert np.max(np.abs((narrowing + padding) - direct)) < 1e-12
        # the two cases have disjoint support
        assert np.max(np.abs(narrowing * padding)) == 0.0


# Poorman ----------------------------------------------------------------------

def test_poorman_project_examples():
    assert poorman_project(0.0, 4) == 0
    # theta = -pi/3 is closest to the root at angle -pi/2, i.e. -j (l=1)
    assert poorman_project(-np.pi / 3, 4) == 1
    assert poorman_root(1, 4) == pytest.approx(-1j)
    roots = {np.round(poorman_root(l, 4), 12) for l in range(4)}
    assert roots == {1 + 0j, -1j, -1 + 0j, 1j}


def test_poorman_tie_breaks_to_smaller_index():
    # theta = -pi/4 is equidistant to roots l=0 (angle 0) and l=1 (-pi/2)
    assert poorman_project(-np.pi / 4, 4) == 0


def test_project_grid_matches_scalar_projection():
    n, bins, roots = 64, 33, 6
    grid = _project_grid(n, bins, roots)
    for k in (0, 5, 16, 32):
        for j in (0, 1, 7, 33, 63):
            if (2 * k * j * roots) % (2 * n) == n:
                # exact midpoint between two roots: the integer grid breaks
                # the tie deterministically, the float scalar path cannot
                # see the tie, so skip these angles in the cross-check
                continue
            angle = -2.0 * np.pi * k * j / n
            assert grid[k, j] == poorman_project(angle, roots)


def test_poorman_kernels_nearest_root_per_tap():
    for roots in (2, 4, 8):
        poor = poorman_kernels(CFG, roots)
        k = np.arange(129)[:, None]
        j = np.arange(256)[None, :]
        target = np.exp(-2j * np.pi * k * j / 256)
        got = np.zeros_like(target)
        nz = WINDOW != 0
        got[:, nz] = (poor.real[:, nz] + 1j * poor.imag[:, nz]) / WINDOW[nz]
        chord = np.abs(target[:, nz] - got[:, nz])
        assert chord.max() <= 2 * np.sin(np.pi / (2 * roots)) + 1e-12


def test_poorman_large_l_converges():
    base = stft_kernels(CFG, WINDOW)
    poor = poorman_kernels(CFG, 1 << 20)
    assert np.max(np.abs(poor.real - base.real)) < 1e-5
    assert np.max(np.abs(poor.imag - base.imag)) < 1e-5


def test_poorman_k0_kernel():
    poor = poorman_kernels(CFG, 4)
    assert np.allclose(poor.real[0], WINDOW)
    assert np.allclose(poor.imag[0], 0.0)


def test_poorman_bound_holds_and_error_shrinks():
    buf = noise_buf(4096, seed=14)
    energy = np.sqrt(np.sum(frame_signal(buf.samples, 256, 64) ** 2, axis=1))
    prev = None
    for roots in (4, 8, 16, 32, 64):
        rep = poorman_bound_report(buf, CFG, roots)
        assert rep.all_satisfied
        # 2*|sin(pi/2L)| * ||frame||_2 * ||w||_2 with w the Hann window, bit for bit
        bound = 2.0 * abs(np.sin(np.pi / (2.0 * roots))) * energy * np.sqrt(np.sum(WINDOW**2))
        assert np.array_equal(rep.bound, np.broadcast_to(bound[:, None], rep.bound.shape))
        total = float(np.linalg.norm(rep.empirical))
        if prev is not None:
            assert total <= prev + 1e-12
        prev = total


# L1 energy --------------------------------------------------------------------

def test_l1_energy_values():
    buf = noise_buf(seed=15)
    spec = stft_kernels(CFG, WINDOW).apply(buf)
    l1 = l1_energy(spec)
    assert np.allclose(l1, np.abs(spec.real) + np.abs(spec.imag))
    err = l1_energy_error(spec)
    sq = spec.real**2 + spec.imag**2
    assert np.allclose(err, np.abs(sq - l1))


# Cropping ---------------------------------------------------------------------

def test_crop_full_band_is_identity():
    base = stft_kernels(CFG, WINDOW)
    same = crop_kernels(base, FS, 0.0, FS / 2.0)
    assert np.array_equal(base.real, same.real)


def test_crop_zeroes_out_of_band_bins():
    base = stft_kernels(CFG, WINDOW)
    cropped = crop_kernels(base, FS, 0.0, 1000.0)
    keep = crop_mask(CFG, FS, 0.0, 1000.0)
    buf = noise_buf(seed=16)
    spec = cropped.apply(buf)
    assert np.all(spec.real[:, ~keep] == 0.0)
    assert np.all(spec.imag[:, ~keep] == 0.0)
    # error formula is exact: |X| on dropped bins, 0 on kept bins
    full = base.apply(buf)
    err = cropping_error(full, CFG, FS, 0.0, 1000.0)
    direct = np.hypot(full.real - spec.real, full.imag - spec.imag)
    assert np.max(np.abs(err - direct)) < 1e-12


def test_approx_kernels_shape_invariant():
    specs = [Conventional(), Dilation(rate=4), Dilation(),
             FreqAdaptiveWindow(n_min=32), Poorman(roots=4), L1Energy(),
             Cropping()]
    for spec in specs:
        bank = approx_kernels(spec, CFG, FS)
        assert bank.real.shape == (129, 256)
        assert bank.imag.shape == (129, 256)


# Forms and labels -------------------------------------------------------------

_CROP_LOW = st.floats(0.0, 1e12) | st.integers(0, 10**6)
SPECS = {
    Conventional: st.builds(Conventional),
    Dilation: st.builds(Dilation, st.none() | st.integers(1, 10**9)),
    FreqAdaptiveWindow: st.builds(FreqAdaptiveWindow, st.integers(2, 10**9)),
    Poorman: st.builds(Poorman, st.integers(2, 10**9)),
    L1Energy: st.builds(L1Energy),
    Cropping: _CROP_LOW.flatmap(lambda lo: st.builds(
        Cropping, st.just(lo), st.floats(min_value=lo, exclude_min=True))),
}


def test_forms_cover_every_spec_class():
    """Each spec class has an `--approx` form and a strategy in `SPECS`, and
    each form starts with its class's kind and gives it one argument per
    field, or none."""
    assert set(FORMS.values()) == set(SPECS) == set(get_args(ApproxSpec))
    for form, spec in FORMS.items():
        kind, *args = form.split(":")
        assert kind == spec.kind, form
        assert len(args) in (0, len(spec._fields)), form


@settings(max_examples=300)
@given(spec=st.one_of(*SPECS.values()))
def test_parse_approx_reads_back_every_label(spec):
    """A spec's label is an `--approx` form that names an equal spec."""
    assert parse_approx(approx_label(spec)) == spec


def test_labels_are_the_cli_forms():
    assert approx_label(Dilation(rate=4)) == "dilation:4"
    assert approx_label(Dilation(rate=None)) == "dilation:max"
    assert approx_label(Cropping()) == "crop:0.0:1000.0"
    assert approx_label(L1Energy()) == "l1"
    assert L1Energy().energy == "abs"
    assert {spec().energy for spec in FORMS.values() if spec is not L1Energy} == {"square"}


def test_spec_validation():
    with pytest.raises(ApproxError):
        Dilation(rate=0)
    with pytest.raises(ApproxError):
        Poorman(roots=1)
    with pytest.raises(ApproxError):
        Cropping(f_min_hz=500.0, f_max_hz=100.0)
    with pytest.raises(ApproxError):
        FreqAdaptiveWindow(n_min=1)
    with pytest.raises(ApproxError):
        fd_window(0, 256, 300)


def test_fd_kernels_use_narrow_windows():
    fd = fd_kernels(CFG, 32)
    # top bin kernel support matches the narrow centered window
    w_top = fd_window(128, 256, 32)
    envelope = np.hypot(fd.real[128], fd.imag[128])
    assert np.allclose(envelope, w_top, atol=1e-9)


@pytest.mark.parametrize("spec, bound", [(FreqAdaptiveWindow(n_min=80), 2.1),
                                         (Poorman(roots=4), 1.15)])
def test_rewrites_without_a_base_bank_build_none(spec, bound):
    """At N=1024, with W the bytes of one (2K, N) float bank, building the
    frequency-adaptive bank peaks near 2 W (the bank and its windows) and
    the poorman bank near 1.1 W (the bank, its uint8 root indices and the
    row-block temporaries of the projection and the gather): neither builds
    the conventional bank, which took another W, nor poorman's complex
    (K, N) roots or a full-size int64 index array."""
    import tracemalloc

    cfg = StftConfig(1024, 256)
    w = 2 * cfg.bins * 1024 * 8
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bank = approx_kernels(spec, cfg, FS)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert bank.kernels.nbytes == w
    assert peak <= bound * w


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_approx_kernels_equal_the_half_formulas_bit_for_bit(n):
    """Every formulation's bank equals the oracle's two separate (K, N)
    products in every bit, signed zeros included, and its halves are views
    of the one (2K, N) array the conv node multiplies."""
    cfg = StftConfig(n, n // 4)
    window = hann_window(n)
    specs = (Conventional(), Dilation(rate=4), Dilation(rate=None), Dilation(rate=3),
             FreqAdaptiveWindow(n_min=16), Poorman(roots=4), Poorman(roots=3), L1Energy(),
             Cropping(f_min_hz=300.0, f_max_hz=4000.0))
    for spec in specs:
        bank = approx_kernels(spec, cfg, FS)
        real, imag = kernel_halves(spec, cfg, window, FS)
        assert bank.kernels.shape == (2 * cfg.bins, n), spec
        assert bank.real.tobytes() == real.tobytes(), spec
        assert bank.imag.tobytes() == imag.tobytes(), spec
        assert np.shares_memory(bank.real, bank.kernels), spec
        assert np.shares_memory(bank.imag, bank.kernels), spec
