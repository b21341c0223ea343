"""Descriptor tests: formulas, normalization, CSV, circuit agreement.

The clear descriptors are the float forward pass (`run_clear`) of the joint
descriptor graph, so the formula checks read its intermediate nodes.
"""

import csv

import numpy as np
import pytest

from oracles import power_spectrogram, stft
from fhespec.approx import Conventional, L1Energy
from fhespec.circuit import (
    DESCRIPTOR_NAMES,
    CircuitError,
    Sweep,
    build_descriptor_plan,
)
from fhespec.dataset import Clip
from fhespec.descriptors import CSV_FIELDS, write_descriptor_csv
from fhespec.evaluate import pearson
from fhespec.quant import BitWidthConfig
from fhespec.transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    StftConfig,
    hann_window,
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


def head_constants(plan) -> dict:
    """Each normalize head's (center, scale), as calibration set them."""
    return {n.name: (n.norm_center, n.norm_scale) for n in plan.nodes
            if n.name in DESCRIPTOR_NAMES}


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
    power = power_spectrogram(stft(buf, CFG, hann_window(64)))
    rms = np.sqrt(power.mean(axis=1))
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
        center, scale = head_constants(plan)[name]
        assert center == pytest.approx(raw.mean(), rel=1e-12)
        assert scale == pytest.approx(raw.std(), rel=1e-12)
        z = np.array([float(v[name]) for v in runs])
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, rel=1e-12)
    # constant descriptor: scale falls back to 1 instead of dividing by zero
    flat, _ = descriptor_graph(calib=[AudioBuffer(np.zeros(992), FS)] * 3)
    assert head_constants(flat) == {n: (0.0, 1.0) for n in DESCRIPTOR_NAMES}


def test_fit_normalization_matches_manual():
    """The plan's frozen constants are the z-score of the calibration clips,
    and both the clear forward pass and the circuit apply them."""
    bufs = [noise_buf(s, scale=0.2 + 0.1 * s) for s in range(4)]
    plan, graph = descriptor_graph(calib=bufs)
    raws = [raw_descriptors(graph, graph.run_clear(b)) for b in bufs]
    constants = head_constants(plan)
    for name in DESCRIPTOR_NAMES:
        vals = np.array([r[name] for r in raws], dtype=np.float64)
        assert constants[name] == (float(vals.mean()), float(vals.std()))
        lut = graph.node(name)
        assert (lut.norm_center, lut.norm_scale) == constants[name]
    z = graph.run_clear(bufs[0])["descriptor_vector"]
    want = [(raws[0][n] - constants[n][0]) / constants[n][1]
            for n in DESCRIPTOR_NAMES]
    assert np.array_equal(z, want)


def test_calibration_is_repeatable_and_all_or_nothing():
    """Calibrating again on the same clips gives the same plan, and a
    calibration that fails part-way leaves the plan as it was."""
    calib = [noise_buf(s, scale=0.2 + 0.1 * s) for s in range(4)]
    evalu = [noise_buf(10 + s) for s in range(3)]
    plan, _ = descriptor_graph(calib=calib)

    def state():
        graph = plan.realize(DBITS)
        return (dict(plan.ranges), head_constants(plan), graph.to_json(),
                [graph.execute(b).output.data.tobytes() for b in evalu],
                [graph.run_clear(b)["descriptor_vector"].tobytes() for b in evalu])

    before = state()
    assert plan.calibrate(calib) is plan
    assert state() == before
    # a louder clip would widen every range, had the failed forward kept it
    wrong_rate = AudioBuffer(calib[0].samples, FS // 2)
    with pytest.raises(CircuitError, match="sample rate mismatch"):
        plan.calibrate([noise_buf(20, scale=2.0), wrong_rate])
    assert state() == before


def test_descriptor_graph_refuses_another_frame_count():
    """The time reductions are sized for the plan's n_frames: a clip of
    another frame count raises instead of returning mis-scaled means."""
    plan, graph = descriptor_graph()
    for frames in (20, N_FRAMES, 40):
        buf = noise_buf(0, n=CFG.window_length + (frames - 1) * CFG.hop)
        assert CFG.frame_count(len(buf)) == frames
        sweep = Sweep(plan, [buf])
        sweep.realize(DBITS)
        if frames == N_FRAMES:
            assert np.array_equal(sweep.execute()[0],
                                  graph.execute(buf).dequantized)
            continue
        for run in (lambda: graph.execute(buf), sweep.execute):
            with pytest.raises(CircuitError,
                               match=f"clip has {frames} frames.*fan_in={N_FRAMES}"):
                run()


def csv_arms(n=3):
    """n noise clips and their (n, 4) clear and fhe arms."""
    clips = [Clip(f"clip_{i}", "noise", noise_buf(i)) for i in range(n)]
    clear = np.array([[0.1 * i + j for j in range(4)] for i in range(n)])
    return clips, clear, clear / 3


def test_csv_round_trip(tmp_path):
    clips, clear, fhe = csv_arms()
    out = tmp_path / "descriptors.csv"
    write_descriptor_csv(out, clips, clear, fhe)
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["file_id"], r["class"], r["path"]) for r in rows] == [
        (c.file_id, c.label, arm) for c in clips for arm in ("clear", "fhe")]
    back = np.array([[float(r[n]) for n in DESCRIPTOR_NAMES] for r in rows])
    # repr() serialization is lossless for floats
    assert np.array_equal(back[0::2], clear) and np.array_equal(back[1::2], fhe)


def test_csv_bytes_deterministic(tmp_path):
    clips, clear, fhe = csv_arms(1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_descriptor_csv(p1, clips, clear, fhe)
    write_descriptor_csv(p2, clips, clear, fhe)
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
        assert pearson(clear[None, :, i:i + 1], fhe[None, :, i:i + 1])[0, 0] > 0.95, name
