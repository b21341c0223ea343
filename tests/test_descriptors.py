"""Descriptor tests: formulas, normalization, CSV, circuit agreement.

The clear descriptors are the float forward pass (`run_clear`) of the joint
descriptor graph, so the formula checks read its intermediate nodes.
"""

import numpy as np
import pytest

from fhespec.approx import Conventional, L1Energy
from fhespec.circuit import DESCRIPTOR_NAMES, CircuitError, build_descriptor_plan
from fhespec.descriptors import (
    CSV_FIELDS,
    DescriptorVector,
    read_descriptor_csv,
    write_descriptor_csv,
)
from fhespec.evaluate import pearson
from fhespec.quant import BitWidthConfig
from fhespec.transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    StftConfig,
)

FS = 16000
CFG = StftConfig(64, 32)
MEL = MelSpec(n_mels=8)
GAMMA = GammatoneSpec(n_filters=8)
DBITS = BitWidthConfig(6, 7, 4, 5)
N_FRAMES = 30  # 992 samples at N=64, hop=32


def noise_buf(seed, n=992, scale=0.5):
    return AudioBuffer(np.random.default_rng(seed).standard_normal(n) * scale, FS)


def descriptor_graph(approx=Conventional(), calib=None):
    plan = build_descriptor_plan(approx, CFG, FS, N_FRAMES, mel=MEL, gamma=GAMMA)
    plan.calibrate(calib or [noise_buf(s, scale=0.2 + 0.1 * s) for s in range(4)])
    return plan, plan.realize(DBITS)


def raw_descriptors(graph, values) -> dict:
    """Un-normalized descriptors: the inputs of the normalize lookups."""
    return {n: float(values[graph.node(n).src]) for n in DESCRIPTOR_NAMES}


def test_rms_per_frame_formula():
    _, graph = descriptor_graph()
    values = graph.run_clear(noise_buf(0))
    power = np.asarray(values["stft_power"])
    assert power.shape == (N_FRAMES, CFG.bins)
    assert values["rms"].shape == (N_FRAMES,)
    assert np.allclose(values["rms"], np.sqrt(power.mean(axis=1)), rtol=1e-12)


def test_mean_std_over_time():
    _, graph = descriptor_graph()
    values = graph.run_clear(noise_buf(3))
    rms = values["rms"]
    assert float(values["mean_rms_sum"]) == pytest.approx(rms.mean(), rel=1e-12)
    # population convention
    assert float(values["std_rms_val"]) == pytest.approx(rms.std(ddof=0), rel=1e-12)
    mel = np.asarray(values["mel_spec"])
    assert np.allclose(values["mel_stds"], mel.std(axis=0), rtol=1e-12)
    # time statistics need at least two frames
    with pytest.raises(CircuitError):
        build_descriptor_plan(Conventional(), CFG, FS, 1, mel=MEL, gamma=GAMMA)


def test_descriptor_values_against_direct_recompute():
    buf = noise_buf(1)
    _, graph = descriptor_graph()
    values = graph.run_clear(buf)
    vector = values["descriptor_vector"]
    assert vector.shape == (len(DESCRIPTOR_NAMES),)
    assert np.array_equal(vector, [float(values[n]) for n in DESCRIPTOR_NAMES])
    raw = raw_descriptors(graph, values)
    # independent recomputation of the RMS pair from a plain spectrogram
    from fhespec.transforms import hann_window, power_spectrogram, stft

    power = power_spectrogram(stft(buf, CFG, hann_window(64)))
    rms = np.sqrt(power.values.mean(axis=1))
    assert raw["mean_rms"] == pytest.approx(rms.mean(), rel=1e-12)
    assert raw["std_rms"] == pytest.approx(rms.std(), rel=1e-12)


def test_l1_descriptors_differ_from_squared():
    buf = noise_buf(2)
    _, sq = descriptor_graph(Conventional())
    _, l1 = descriptor_graph(L1Energy())
    assert (raw_descriptors(sq, sq.run_clear(buf))["mean_rms"]
            != raw_descriptors(l1, l1.run_clear(buf))["mean_rms"])


def test_normalization_constants():
    calib = [noise_buf(s, scale=0.2 + 0.1 * s) for s in range(5)]
    plan, graph = descriptor_graph(calib=calib)
    runs = [graph.run_clear(b) for b in calib]
    for name in DESCRIPTOR_NAMES:
        raw = np.array([raw_descriptors(graph, v)[name] for v in runs])
        center, scale = plan.normalization[name]
        assert center == pytest.approx(raw.mean(), rel=1e-12)
        assert scale == pytest.approx(raw.std(), rel=1e-12)
        z = np.array([float(v[name]) for v in runs])
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, rel=1e-12)
    # constant descriptor: scale falls back to 1 instead of dividing by zero
    flat, _ = descriptor_graph(calib=[AudioBuffer(np.zeros(992), FS)] * 3)
    assert flat.normalization == {n: (0.0, 1.0) for n in DESCRIPTOR_NAMES}


def test_fit_normalization_matches_manual():
    """The plan's frozen constants are the z-score of the calibration clips,
    and both the clear forward pass and the circuit apply them."""
    bufs = [noise_buf(s, scale=0.2 + 0.1 * s) for s in range(4)]
    plan, graph = descriptor_graph(calib=bufs)
    raws = [raw_descriptors(graph, graph.run_clear(b)) for b in bufs]
    for name in DESCRIPTOR_NAMES:
        vals = np.array([r[name] for r in raws], dtype=np.float64)
        assert plan.normalization[name] == (float(vals.mean()), float(vals.std()))
        lut = graph.node(name)
        assert (lut.norm_center, lut.norm_scale) == plan.normalization[name]
    z = graph.run_clear(bufs[0])["descriptor_vector"]
    want = [(raws[0][n] - plan.normalization[n][0]) / plan.normalization[n][1]
            for n in DESCRIPTOR_NAMES]
    assert np.array_equal(z, want)


def test_csv_round_trip(tmp_path):
    vectors = [
        DescriptorVector(file_id=f"clip_{i}", label="noise",
                         values={n: 0.1 * i + j for j, n in
                                 enumerate(DESCRIPTOR_NAMES)},
                         path=p)
        for i in range(3) for p in ("clear", "fhe")
    ]
    out = tmp_path / "descriptors.csv"
    write_descriptor_csv(out, vectors)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    back = read_descriptor_csv(out)
    assert back == vectors  # repr() serialization is lossless for floats


def test_csv_bytes_deterministic(tmp_path):
    vectors = [DescriptorVector("a", "x", {n: 1 / 3 for n in DESCRIPTOR_NAMES},
                                "clear")]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_descriptor_csv(p1, vectors)
    write_descriptor_csv(p2, vectors)
    assert p1.read_bytes() == p2.read_bytes()


def test_circuit_descriptors_track_clear_pipeline():
    """Quantized descriptor vectors correlate strongly with clear ones."""
    rng = np.random.default_rng(10)
    bufs = [AudioBuffer(rng.standard_normal(992) * rng.uniform(0.2, 1.0), FS)
            for _ in range(40)]
    calib, evalu = bufs[:8], bufs[8:]
    plan = build_descriptor_plan(Conventional(), CFG, FS, n_frames=30,
                                 mel=MEL, gamma=GAMMA)
    plan.calibrate(calib)
    graph = plan.realize(BitWidthConfig(6, 7, 4, 5))
    clear = np.array([graph.run_clear(b)["descriptor_vector"] for b in evalu])
    fhe = np.array([graph.execute(b).dequantized for b in evalu])
    for i, name in enumerate(DESCRIPTOR_NAMES):
        assert pearson(clear[:, i], fhe[:, i]) > 0.95, name
