"""Reference transform tests: FFT oracles, kernel/direct equivalence."""

import numpy as np
import pytest

from oracles import (
    apply_filterbank,
    gammatone_spectrogram,
    mfcc,
    power_spectrogram,
    stft,
)
from fhespec.transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    SignalError,
    StftConfig,
    dct_matrix,
    erb_bandwidth,
    frame_signal,
    gammatone_center_freqs,
    gammatone_kernels,
    hann_window,
    hz_to_mel,
    mel_filterbank_matrix,
    mel_to_hz,
    stft_kernels,
)

RNG = np.random.default_rng(1234)
FS = 16000


def make_buf(n=4000, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    return AudioBuffer(rng.standard_normal(n), FS)


def test_audio_buffer_validation():
    with pytest.raises(SignalError):
        AudioBuffer(np.array([]), FS)
    with pytest.raises(SignalError):
        AudioBuffer(np.array([[1.0, 2.0]]), FS)
    with pytest.raises(SignalError):
        AudioBuffer(np.array([1.0, np.inf]), FS)
    with pytest.raises(SignalError):
        AudioBuffer(np.array([1.0]), 0)


def test_stft_config():
    cfg = StftConfig(256, 64)
    assert cfg.bins == 129
    assert cfg.frame_count(4096) == (4096 - 256) // 64 + 1
    with pytest.raises(SignalError):
        StftConfig(255, 64)  # odd window
    with pytest.raises(SignalError):
        StftConfig(256, 0)
    with pytest.raises(SignalError):
        cfg.frame_count(100)
    freqs = cfg.bin_upper_freqs(FS)
    assert freqs[0] == FS / 256
    assert freqs[-1] == (129) * FS / 256


def test_hann_window_periodic():
    w = hann_window(8)
    j = np.arange(8)
    assert np.allclose(w, 0.5 * (1 - np.cos(2 * np.pi * j / 8)))
    assert w[0] == 0.0
    assert w.max() == 1.0  # j = N/2


def test_frame_signal_strides():
    x = np.arange(20, dtype=np.float64)
    fr = frame_signal(x, 8, 4)
    assert fr.shape == (4, 8)
    assert np.array_equal(fr[1], x[4:12])
    assert np.array_equal(fr[3], x[12:20])


def test_stft_matches_direct_dft():
    """Frame-wise rfft output equals the naive DFT sum per frame."""
    buf = make_buf(600, seed=0)
    cfg = StftConfig(128, 32)
    w = hann_window(128)
    spec = stft(buf, cfg, w)
    m, k = 3, 17
    frame = buf.samples[m * 32: m * 32 + 128] * w
    direct = np.sum(frame * np.exp(-2j * np.pi * k * np.arange(128) / 128))
    assert abs(spec.real[m, k] - direct.real) < 1e-10
    assert abs(spec.imag[m, k] - direct.imag) < 1e-10


def test_kernel_bank_equals_fft_stft():
    buf = make_buf(2000, seed=1)
    cfg = StftConfig(256, 64)
    w = hann_window(256)
    via_fft = stft(buf, cfg, w)
    via_kernels = stft_kernels(cfg, w).apply(buf)
    assert np.allclose(via_fft.real, via_kernels.real, atol=1e-9)
    assert np.allclose(via_fft.imag, via_kernels.imag, atol=1e-9)


def test_power_parseval():
    """Sum of two-sided power equals N * frame energy (Parseval)."""
    buf = make_buf(512, seed=2)
    cfg = StftConfig(256, 256)
    w = hann_window(256)
    spec = stft(buf, cfg, w)
    power = power_spectrogram(spec)[0]
    # fold the one-sided spectrum back to two-sided: bins 1..N/2-1 count twice
    total = power[0] + power[-1] + 2 * power[1:-1].sum()
    frame = buf.samples[:256] * w
    assert np.isclose(total, 256 * np.sum(frame**2), rtol=1e-10)


def test_pure_tone_peaks_at_right_bin():
    cfg = StftConfig(256, 128)
    k_target = 32
    freq = k_target * FS / 256
    t = np.arange(1024) / FS
    buf = AudioBuffer(np.sin(2 * np.pi * freq * t), FS)
    power = power_spectrogram(stft(buf, cfg, hann_window(256)))
    assert np.argmax(power.mean(axis=0)) == k_target


def test_mel_scale_round_trip():
    f = np.array([0.0, 100.0, 1000.0, 7999.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-9)
    assert hz_to_mel(1000.0) == pytest.approx(1000.0, rel=1e-3)  # HTK anchor


def test_mel_filterbank_shape_and_peaks():
    cfg = StftConfig(256, 64)
    m = mel_filterbank_matrix(MelSpec(n_mels=16), cfg, FS)
    assert m.shape == (16, 129)
    assert np.allclose(m.max(axis=1), 1.0)
    assert np.all(m >= 0.0)
    # empty rows; the error names the largest n_mels that fits K=129 bins
    with pytest.raises(SignalError, match="largest n_mels that fits is 57"):
        mel_filterbank_matrix(MelSpec(n_mels=500), cfg, FS)
    mel_filterbank_matrix(MelSpec(n_mels=57), cfg, FS)
    with pytest.raises(SignalError, match="fits is 57"):
        mel_filterbank_matrix(MelSpec(n_mels=58), cfg, FS)


def test_mfcc_against_direct_formula():
    rng = np.random.default_rng(3)
    mel_vals = rng.uniform(0.1, 5.0, size=(7, 20))
    out = mfcc(mel_vals, 13)
    assert out.shape == (7, 13)
    # direct cosine-sum recomputation of one coefficient
    i, c = 4, 5
    n = 20
    direct = sum(
        np.log(mel_vals[i, j] + 1e-6)
        * np.cos(np.pi * c * (2 * j + 1) / (2 * n)) * np.sqrt(2 / n)
        for j in range(n))
    assert out[i, c] == pytest.approx(direct, abs=1e-10)
    with pytest.raises(SignalError):
        mfcc(mel_vals, 21)


def test_dct_matrix_orthonormal():
    d = dct_matrix(16)
    assert np.allclose(d @ d.T, np.eye(16), atol=1e-12)


def test_erb_and_centers():
    assert erb_bandwidth(1000.0) == pytest.approx(24.7 * 5.37)
    centers = gammatone_center_freqs(GammatoneSpec(n_filters=16), FS)
    assert centers.shape == (16,)
    assert centers[0] == pytest.approx(50.0, rel=1e-9)
    assert centers[-1] == pytest.approx(FS / 2.0, rel=1e-9)
    assert np.all(np.diff(centers) > 0)


def test_gammatone_kernels_and_spectrogram():
    cfg = StftConfig(256, 64)
    spec = GammatoneSpec(n_filters=8)
    kernels = gammatone_kernels(spec, cfg, FS)
    assert kernels.shape == (8, 256)
    assert np.allclose(np.abs(kernels).max(axis=1), 1.0)  # peak-normalized
    buf = make_buf(2000, seed=4)
    sg = gammatone_spectrogram(buf, kernels, cfg)
    frames = frame_signal(buf.samples, 256, 64)
    direct = (frames @ kernels.T) ** 2
    assert np.allclose(sg, direct)
    assert np.all(sg >= 0.0)


def test_gammatone_tuned_to_center_frequency():
    """A filter responds more to a tone at its center than one far away."""
    cfg = StftConfig(512, 256)
    spec = GammatoneSpec(n_filters=8)
    kernels = gammatone_kernels(spec, cfg, FS)
    centers = gammatone_center_freqs(spec, FS)
    t = np.arange(4096) / FS
    on_tone = AudioBuffer(np.sin(2 * np.pi * centers[4] * t), FS)
    off_tone = AudioBuffer(np.sin(2 * np.pi * centers[4] * 2.7 * t), FS)
    on = gammatone_spectrogram(on_tone, kernels, cfg)[:, 4].mean()
    off = gammatone_spectrogram(off_tone, kernels, cfg)[:, 4].mean()
    assert on > 10 * off


def test_apply_filterbank():
    power = power_spectrogram(stft(make_buf(seed=5), StftConfig(256, 64),
                                   hann_window(256)))
    matrix = mel_filterbank_matrix(MelSpec(n_mels=12), StftConfig(256, 64), FS)
    mel = apply_filterbank(power, matrix)
    assert mel.shape == (power.shape[0], 12)
    assert np.allclose(mel, power @ matrix.T)
