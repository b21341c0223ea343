"""Integer-circuit tests: edges, weights, budget, bit-exact equivalence."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply_filterbank,
    fake_quant_reference,
    gammatone_spectrogram,
    mfcc,
    power_spectrogram,
    stft,
)
from fhespec.approx import (
    Conventional,
    Cropping,
    Dilation,
    FreqAdaptiveWindow,
    L1Energy,
    Poorman,
)
from fhespec.circuit import (
    BUDGET_BITS,
    BudgetViolation,
    CircuitError,
    CircuitOverflow,
    ConvNode,
    EdgeSpec,
    RawSpec,
    SWEEP_ORDER,
    Sweep,
    approx_label,
    build_descriptor_plan,
    build_transform_plan,
    quantize_weights,
)
from fhespec.cli import parse_approx
from fhespec.evaluate import normalized_euclidean
from fhespec.quant import MAX_BITS, BitWidthConfig, width_of
from fhespec.transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    StftConfig,
    gammatone_kernels,
    hann_window,
    mel_filterbank_matrix,
)

FS = 16000
CFG = StftConfig(64, 32)
MEL = MelSpec(n_mels=8)
GAMMA = GammatoneSpec(n_filters=8)
BITS = BitWidthConfig(5, 6, 4, 6)
DBITS = BitWidthConfig(5, 6, 4, 5)  # narrower mid edges for the std heads
CLIP_LEN = 992  # 30 frames at N=64, hop=32


def clips(count, seed=0, n=CLIP_LEN, scale=0.5):
    rng = np.random.default_rng(seed)
    return [AudioBuffer(rng.standard_normal(n) * scale, FS) for _ in range(count)]


# Edges ------------------------------------------------------------------------

def test_edge_spec_zero_aligned():
    e = EdgeSpec.from_range(-1.0, 3.0, bits=4, signed=True)
    assert e.v_max - e.v_min == 15  # full level count
    assert e.to_v(0.0) == 0  # zero is exactly representable
    assert e.scale == pytest.approx(4.0 / 15.0)
    assert e.v_min == -4 and e.v_max == 11  # round(1 / scale) = 4
    # the serialized range is the represented one; v = q + lift
    assert e.describe()["alpha"] == pytest.approx(e.scale * e.v_min)
    assert e.describe()["beta"] == pytest.approx(e.scale * e.v_max)
    assert e.lift == e.v_min + 8


def test_edge_spec_clamps_and_degenerates():
    # a strictly positive range still includes zero
    e = EdgeSpec.from_range(2.0, 5.0, bits=3, signed=False)
    assert e.v_min == 0
    assert e.to_v(0.0) == 0
    # degenerate range widens instead of dividing by zero
    e = EdgeSpec.from_range(1.5, 1.5, bits=3, signed=False)
    assert e.scale > 0.0
    # a non-finite range is refused
    for lo, hi in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(CircuitError, match="not finite"):
            EdgeSpec.from_range(lo, hi, bits=4, signed=False)


def test_edge_spec_round_trip():
    e = EdgeSpec.from_range(-2.0, 2.0, bits=8, signed=True)
    x = np.linspace(-2.0, 2.0, 1001)
    back = e.to_float(e.to_v(x))
    assert np.max(np.abs(back - x)) <= e.scale / 2 + 1e-12


def test_raw_spec_width():
    assert RawSpec(1.0, -100, 200).max_abs == 200
    assert RawSpec(1.0, -100, 200).width == 8
    assert RawSpec(1.0, 0, 1).width == 0
    assert RawSpec(1.0, 0, 65535).width == 16


# Weight quantization ----------------------------------------------------------

def test_quantize_weights_symmetric():
    w = np.array([[0.0, -1.0, 0.5, 0.25]])
    q, scale = quantize_weights(w, bits=4)
    assert q[0, 0] == 0  # exact zero taps survive
    assert abs(q).max() == 7  # max magnitude uses the full signed range
    assert np.allclose(q * scale, w, atol=scale / 2)
    q0, s0 = quantize_weights(np.zeros((2, 3)), bits=4)
    assert np.all(q0 == 0) and s0 == 1.0
    with pytest.raises(CircuitError):
        quantize_weights(w, bits=1)


def test_quantize_weights_preserves_sparsity():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((8, 64))
    w[:, ::2] = 0.0
    q, _ = quantize_weights(w, bits=3)
    assert np.all(q[:, ::2] == 0)


# Float64 integer kernels ------------------------------------------------------

def bound_conv(weights_f, in_spec, bits):
    """A hand-built conv node bound to `in_spec`, one frame per kernel length."""
    node = ConvNode(name="conv", src="input", weights_f=weights_f,
                    stride=weights_f.shape[1])
    return node.bind({"input": in_spec}, bits, None, None)


def test_conv_kernel_exact_at_max_bits():
    n, c = 1024, 4
    rng = np.random.default_rng(50)
    w = rng.uniform(0.5, 1.0, (c, n)) * rng.choice([-1.0, 1.0], (c, n))
    in_spec = EdgeSpec.from_range(-1.0, 1.0, bits=MAX_BITS, signed=True)
    node = bound_conv(w, in_spec, BitWidthConfig(*[MAX_BITS] * 4))
    q = node.weights_q
    # each channel's worst-case sign pattern at +-max_abs: every product has
    # the same sign, so the partial sums climb monotonically to the extreme
    hi = np.where(q >= 0, in_spec.v_max, in_spec.v_min)
    lo = np.where(q >= 0, in_spec.v_min, in_spec.v_max)
    frames = np.concatenate([hi, lo])
    got = node.run_int(frames.ravel()[None])  # a batch of one clip
    assert got.dtype == np.int64
    assert np.array_equal(got, np.einsum("tn,cn->tc", frames, q)[None])
    assert (got.min(), got.max()) == node.acc_range()
    assert node.out_spec.max_abs > 1 << 39  # far beyond float32's 2^24


def test_bind_refuses_partial_sums_beyond_float64():
    q_max = (1 << (MAX_BITS - 1)) - 1
    w = np.array([[1.0, 1.0 / q_max]])  # quantizes to [q_max, 1]: sum 2^15
    bits = BitWidthConfig(*[MAX_BITS] * 4)

    def edge(max_abs):
        return EdgeSpec(scale=1.0, v_min=-max_abs, v_max=max_abs, bits=MAX_BITS,
                        signed=True)

    # max_row(sum |w_q|) * max |v| just below 2^53 binds, and reaching it refuses
    node = bound_conv(w, edge((1 << 38) - 1), bits)
    assert node.weights_q.tolist() == [[q_max, 1]]
    assert node.out_spec.max_abs == (1 << 53) - (1 << 15)
    with pytest.raises(CircuitError, match="2\\^53"):
        bound_conv(w, edge(1 << 38), bits)


THREAD_PROBE = """
import hashlib, pickle, sys
with open(sys.argv[1], "rb") as fh:
    graphs, bufs = pickle.load(fh)
h = hashlib.sha256()
for graph in graphs:
    for buf in bufs:
        h.update(graph.execute(buf).output.data.tobytes())
print(h.hexdigest())
"""


def test_integer_path_independent_of_blas_threads(tmp_path):
    cfg = StftConfig(256, 64)
    mel, gamma = MelSpec(n_mels=16), GammatoneSpec(n_filters=16)
    n = cfg.window_length + 29 * cfg.hop  # 30 frames
    calib, evalu = clips(4, seed=45, n=n), clips(3, seed=46, n=n)
    bits = BitWidthConfig(5, 8, 4, 5)
    graphs = [
        build_transform_plan("stft", Conventional(), cfg, FS).calibrate(calib).realize(bits),
        build_descriptor_plan(Conventional(), cfg, FS, n_frames=30, mel=mel,
                              gamma=gamma).calibrate(calib).realize(bits),
    ]
    # calibration runs the float clear path, whose last bits may depend on
    # the thread count, so the graphs are realized once, here, and only their
    # integer execution runs at each thread count
    path = tmp_path / "graphs.pkl"
    path.write_bytes(pickle.dumps((graphs, evalu)))
    want = hashlib.sha256()
    for graph in graphs:
        for buf in evalu:
            want.update(graph.execute(buf).output.data.tobytes())
    src = str(Path(sys.modules["fhespec"].__file__).parents[1])
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", THREAD_PROBE, str(path)], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == want.hexdigest(), threads


# Bit-exact equivalence with the independent reference -------------------------

APPROXES = [Conventional(), Dilation(rate=4), Poorman(roots=4), L1Energy(),
            Cropping(f_min_hz=0.0, f_max_hz=2000.0)]


@pytest.mark.parametrize("kind", ["stft", "mel", "mfcc", "gammatone"])
@pytest.mark.parametrize("approx", APPROXES, ids=lambda a: a.kind)
def test_integer_execution_matches_reference(kind, approx):
    calib = clips(4, seed=20)
    plan = build_transform_plan(kind, approx, CFG, FS, mel=MEL, gamma=GAMMA, n_mfcc=8)
    graph = plan.calibrate(calib).realize(BITS)
    for buf in clips(5, seed=21):
        got = graph.execute(buf).output.data
        want = fake_quant_reference(graph, buf)
        assert np.array_equal(got, want)


def float_transform(kind, buf):
    """The direct float oracle of `kind` at CFG, MEL, GAMMA and 8 MFCCs."""
    if kind == "gammatone":
        return gammatone_spectrogram(buf, gammatone_kernels(GAMMA, CFG, FS), CFG)
    out = power_spectrogram(stft(buf, CFG, hann_window(CFG.window_length)))
    if kind in ("mel", "mfcc"):
        out = apply_filterbank(out, mel_filterbank_matrix(MEL, CFG, FS))
    if kind == "mfcc":
        out = mfcc(out, 8)
    return out


@pytest.mark.parametrize("kind", ["stft", "mel", "mfcc", "gammatone"])
def test_clear_path_matches_float_oracle(kind):
    """run_clear (kernel bank and nodes) equals the direct float transform."""
    plan = build_transform_plan(kind, Conventional(), CFG, FS, mel=MEL, gamma=GAMMA,
                                n_mfcc=8)
    graph = plan.calibrate(clips(4, seed=20)).realize(BITS)
    for buf in clips(3, seed=24):
        got = np.asarray(graph.run_clear(buf)[graph.output_node])
        want = float_transform(kind, buf)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-12 * np.abs(want).max())


def test_descriptor_circuit_matches_reference():
    calib = clips(6, seed=22)
    plan = build_descriptor_plan(Conventional(), CFG, FS, n_frames=30,
                                 mel=MEL, gamma=GAMMA)
    plan.calibrate(calib)
    graph = plan.realize(DBITS)
    for buf in clips(5, seed=23):
        got = graph.execute(buf).output.data
        want = fake_quant_reference(graph, buf)
        assert np.array_equal(got, want)


def test_dequantized_consistent_with_output_params():
    calib = clips(3, seed=24)
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    graph = plan.calibrate(calib).realize(BITS)
    res = graph.execute(calib[0])
    p = res.output.params
    assert p == graph.node(graph.output_node).out_spec
    assert np.array_equal(res.dequantized, p.to_float(res.output.data + p.lift))


# Budget accounting ------------------------------------------------------------

def test_budget_report_structure():
    calib = clips(3, seed=25)
    plan = build_transform_plan("mel", Conventional(), CFG, FS, mel=MEL)
    graph = plan.calibrate(calib).realize(BITS)
    report = graph.check_budget()
    assert report.feasible
    kinds = {e.kind for e in report.entries}
    assert "conv" in kinds and "reduce" in kinds
    by_node = {e.node: e.kind for e in report.entries}
    assert by_node["stft_conv"] == "conv" and by_node["mel_matmul"] == "matmul"
    assert all(e.worst_case_bits <= BUDGET_BITS for e in report.entries)
    d = report.as_dict()
    assert d["feasible"] is True and d["budget_bits"] == BUDGET_BITS


def test_observed_never_exceeds_worst_case():
    calib = clips(3, seed=26)
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    graph = plan.calibrate(calib).realize(BITS)
    res = graph.execute(calib[1])
    report = graph.check_budget(res.observed)
    for e in report.entries:
        if e.observed_max_bits is not None:
            assert e.observed_max_bits <= e.worst_case_bits


def test_budget_violation_raised_and_inspectable():
    calib = clips(6, seed=27)
    plan = build_descriptor_plan(Conventional(), CFG, FS, n_frames=30,
                                 mel=MEL, gamma=GAMMA)
    plan.calibrate(calib)
    wide = BitWidthConfig(5, 6, 4, 8)  # 30 * 255^2 blows the std accumulator
    with pytest.raises(BudgetViolation) as exc:
        plan.realize(wide)
    # the exception carries the whole report, which names the offending nodes
    report = exc.value.report
    assert not report.feasible and len(report.entries) > len(report.violations)
    assert [e.node for e in report.violations] == ["std_rms_val", "mel_stds",
                                                   "gamma_stds"]
    assert all(e.worst_case_bits > BUDGET_BITS for e in report.violations)
    assert str(exc.value) == (f"{BUDGET_BITS}-bit accumulator budget exceeded at: "
                              "std_rms_val(21 bits), mel_stds(21 bits), "
                              "gamma_stds(21 bits)")


def test_long_clips_std_limit():
    """A std head's sum of squares is T * m^2: at mid width 6 (m = 63) a
    descriptor plan leaves the 16-bit budget from 17 frames on."""
    bits = BitWidthConfig(5, 6, 4, 6)
    m = (1 << bits.mid_bits) - 1
    for n_frames in range(2, 40):
        n = CFG.window_length + (n_frames - 1) * CFG.hop
        plan = build_descriptor_plan(Conventional(), CFG, FS, n_frames=n_frames,
                                     mel=MEL, gamma=GAMMA)
        plan.calibrate(clips(3, seed=34, n=n))
        try:
            plan.realize(bits)
        except BudgetViolation as exc:
            violated = {e.node for e in exc.report.violations}
            break
    else:
        pytest.fail("no frame count below 40 leaves the budget")
    assert n_frames == 17
    assert violated == {"std_rms_val", "mel_stds", "gamma_stds"}
    assert width_of(16 * m * m) <= BUDGET_BITS < width_of(17 * m * m)


def test_overflow_check_fires_on_tampered_range():
    calib = clips(3, seed=28)
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    graph = plan.calibrate(calib).realize(BITS)
    conv = graph.node("stft_conv")
    conv.out_spec = RawSpec(scale=conv.out_spec.scale, v_lo=0, v_hi=1)
    with pytest.raises(CircuitOverflow):
        graph.execute(calib[0])


def test_realized_graphs_are_isolated():
    calib = clips(3, seed=35)
    plan = build_descriptor_plan(Conventional(), CFG, FS, n_frames=30,
                                 mel=MEL, gamma=GAMMA).calibrate(calib)
    graph = plan.realize(DBITS)
    attrs = [{k: id(v) for k, v in vars(n).items()} for n in graph.nodes]
    doc = graph.to_json()
    results = [graph.execute(buf) for buf in calib]
    # executing leaves no output on any node
    assert [{k: id(v) for k, v in vars(n).items()} for n in graph.nodes] == attrs
    assert graph.to_json() == doc
    # a later realize and a search on the same plan bind nodes of their own
    later = plan.realize(DBITS)
    sweep = Sweep(plan, calib)
    searched = [g for _, g, _ in sweep.visit([DBITS, BitWidthConfig(4, 6, 4, 5)])]
    for g in [later, *searched]:
        assert not {id(n) for n in g.nodes} & {id(n) for n in graph.nodes}
    # so tampering with one graph leaves the other unchanged
    conv = later.node("stft_conv")
    conv.out_spec = RawSpec(scale=conv.out_spec.scale, v_lo=0, v_hi=1)
    with pytest.raises(CircuitOverflow):
        later.execute(calib[0])
    for buf, before in zip(calib, results):
        after = graph.execute(buf)
        assert np.array_equal(after.output.data, before.output.data)
        assert after.observed == before.observed
    assert graph.to_json() == doc


def test_sweep_stores_nothing_from_a_failed_run():
    calib = clips(3, seed=37)
    plan = build_transform_plan("stft", Conventional(), CFG, FS).calibrate(calib)
    sweep = Sweep(plan, calib)
    reduce = sweep.realize(BITS).node("stft_energy_sum")
    reduce.out_spec = RawSpec(scale=reduce.out_spec.scale, v_lo=0, v_hi=1)
    with pytest.raises(CircuitOverflow):
        sweep.execute()
    assert all(slot.value is None for slot in sweep.slots.values())


def test_budget_entries_read_nonzero_taps_from_the_bank(monkeypatch):
    calib = clips(3, seed=36)
    plan = build_transform_plan("mel", Dilation(rate=4), CFG, FS, mel=MEL)
    plan.calibrate(calib).realize(BITS)  # quantizes the banks at this weight width
    count_nonzero = np.count_nonzero
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return count_nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counting)
    graph = plan.realize(BitWidthConfig(4, 5, BITS.weight_bits, 5))
    assert not calls
    for name in ("stft_conv", "mel_matmul"):
        node = graph.node(name)
        taps = int(np.max(count_nonzero(node.weights_q, axis=1)))
        assert node.nonzero_taps() == node.budget_entry().l_taps == taps


# Fidelity sanity --------------------------------------------------------------

def test_generous_bits_give_small_distance_on_tone():
    t = np.arange(CLIP_LEN) / FS
    tone = AudioBuffer(0.8 * np.sin(2.0 * np.pi * 1000.0 * t), FS)
    calib = clips(4, seed=29) + [tone]
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    fine = plan.calibrate(calib).realize(BitWidthConfig(6, 8, 4, 8))
    clear = np.asarray(fine.run_clear(tone)["stft_power"])
    d_fine = normalized_euclidean(clear, fine.execute(tone).dequantized)
    assert d_fine < 0.1
    coarse = plan.realize(BitWidthConfig(3, 3, 2, 3))
    clear_c = np.asarray(coarse.run_clear(tone)["stft_power"])
    d_coarse = normalized_euclidean(clear_c, coarse.execute(tone).dequantized)
    assert d_coarse > d_fine


def test_simulate_fhe_transform_shape():
    calib = clips(3, seed=30)
    plan = build_transform_plan("mel", Conventional(), CFG, FS, mel=MEL)
    graph = plan.calibrate(calib).realize(BITS)
    assert graph.execute(calib[0]).dequantized.shape == (30, 8)


# Plan reuse and serialization -------------------------------------------------

def test_plan_realize_reusable_across_configs():
    calib = clips(4, seed=31)
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    plan.calibrate(calib)
    g1 = plan.realize(BitWidthConfig(4, 5, 3, 5))
    g2 = plan.realize(BitWidthConfig(6, 7, 4, 7))
    r1 = g1.execute(calib[0])
    r2 = g2.execute(calib[0])
    assert r1.output.params.bits == 5 and r2.output.params.bits == 7
    # realizing must not mutate the shared plan structure
    assert plan.nodes[0].weights_q is None


def test_realize_is_deterministic():
    calib = clips(4, seed=32)
    plan = build_transform_plan("mel", Dilation(rate=4), CFG, FS, mel=MEL)
    plan.calibrate(calib)
    j1 = plan.realize(BITS).to_json()
    j2 = plan.realize(BITS).to_json()
    assert j1 == j2


def test_graph_json_contents():
    calib = clips(3, seed=33)
    plan = build_transform_plan("mfcc", Poorman(roots=4), CFG, FS, mel=MEL, n_mfcc=8)
    graph = plan.calibrate(calib).realize(BITS)
    doc = json.loads(graph.to_json())
    assert doc["format_version"] == 1
    assert doc["kind"] == "mfcc"
    assert doc["approx"] == approx_label(Poorman(roots=4))
    names = {n["name"] for n in doc["nodes"]}
    assert {"stft_conv", "mel_matmul", "dct_matmul", "mfcc_out"} <= names
    conv = next(n for n in doc["nodes"] if n["name"] == "stft_conv")
    assert conv["weights"]["shape"] == [2 * CFG.bins, CFG.window_length]
    for n in doc["nodes"]:
        if "table_size" in n:
            assert n["table_size"] == graph.node(n["name"]).table.size
    assert len(conv["weights"]["sha256"]) == 64


def test_sparse_approximations_lower_conv_taps():
    dense = build_transform_plan("stft", Conventional(), CFG, FS)
    # uniform dilation thins every kernel row; the per-bin cap would keep
    # high bins dense, so the maximum tap count only drops without it
    sparse = build_transform_plan("stft", Dilation(rate=4, per_bin_cap=False),
                                  CFG, FS)
    n_dense = dense.nodes[0].nonzero_taps()
    n_sparse = sparse.nodes[0].nonzero_taps()
    assert n_dense == CFG.window_length - 1  # the Hann window zeroes tap 0
    assert n_sparse <= (n_dense + 3) // 4 + 1
    # every --approx form keeps a row at N - 1 taps: the per-bin cap keeps
    # high bins dense, and cropping drops whole rows
    for text in ("dilation:2", "dilation:4", "dilation:max", "fdwindow:16",
                 "poorman:4", "l1", "crop", "crop:500:4000"):
        plan = build_transform_plan("stft", parse_approx(text), CFG, FS)
        assert plan.nodes[0].nonzero_taps() == CFG.window_length - 1, text


def test_calibration_errors():
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    with pytest.raises(CircuitError):
        plan.calibrate([])
    with pytest.raises(CircuitError):
        plan.realize(BITS)  # not calibrated yet
    with pytest.raises(CircuitError):
        plan.calibrate([AudioBuffer(np.ones(CLIP_LEN), 8000)])  # rate mismatch


# Properties over random configurations ----------------------------------------

BITS_ST = st.builds(BitWidthConfig, *[st.integers(2, 8)] * 4)
PLAN_KINDS = ("stft", "mel", "mfcc", "gammatone", "descriptors")
PROPERTY_APPROXES = APPROXES + [Dilation(rate=None), FreqAdaptiveWindow(n_min=16)]
# (N, hop): the smallest N that holds 8 Mel bands is 32
STFT_CONFIGS = st.sampled_from((32, 64, 128)).flatmap(
    lambda n: st.builds(StftConfig, st.just(n), st.integers(1, n)))


def calibrated_plan(kind, approx, cfg=CFG, n_frames=30):
    """A plan calibrated on clips of exactly `n_frames` frames."""
    if kind == "descriptors":
        plan = build_descriptor_plan(approx, cfg, FS, n_frames=n_frames, mel=MEL,
                                     gamma=GAMMA)
    else:
        plan = build_transform_plan(kind, approx, cfg, FS, mel=MEL, gamma=GAMMA, n_mfcc=8)
    return plan.calibrate(clips(4, seed=40, n=clip_length(cfg, n_frames)))


def clip_length(cfg, n_frames):
    return cfg.window_length + (n_frames - 1) * cfg.hop


def realize_or_none(plan, bits):
    try:
        return plan.realize(bits)
    except BudgetViolation:
        return None


@settings(max_examples=60, deadline=None, database=None)
@given(kind=st.sampled_from(PLAN_KINDS), approx=st.sampled_from(PROPERTY_APPROXES),
       cfg=STFT_CONFIGS, n_frames=st.integers(2, 40), a=BITS_ST, b=BITS_ST)
def test_realize_properties_over_random_configs(kind, approx, cfg, n_frames, a, b):
    plan = calibrated_plan(kind, approx, cfg, n_frames)
    graph_a, graph_b = realize_or_none(plan, a), realize_or_none(plan, b)
    # binding never mutates the plan: B after A serializes like a fresh B
    fresh_b = realize_or_none(calibrated_plan(kind, approx, cfg, n_frames), b)
    assert (graph_b is None) == (fresh_b is None)
    if graph_b is not None:
        assert graph_b.to_json() == fresh_b.to_json()
    # every config that realizes is bit-exact with the oracle
    evalu = clips(2, seed=41, n=clip_length(cfg, n_frames))
    # and no accumulator it executes exceeds its declared worst case
    for graph in (graph_a, graph_b):
        for buf in evalu if graph is not None else []:
            res = graph.execute(buf)
            assert np.array_equal(res.output.data, fake_quant_reference(graph, buf))
            for e in graph.check_budget(res.observed).entries:
                if e.observed_max_bits is not None:
                    assert e.observed_max_bits <= e.worst_case_bits
    # the clear forward pass does not depend on the bit widths: every
    # config that realizes matches the narrowest one, which always does
    narrowest = plan.realize(BitWidthConfig(2, 2, 2, 2))
    realized = [g for g in (graph_a, graph_b) if g is not None]
    for buf in evalu:
        reference = narrowest.run_clear(buf)
        for graph in realized:
            clear = graph.run_clear(buf)
            assert clear.keys() == reference.keys()
            for name in clear:
                assert np.array_equal(clear[name], reference[name])


@settings(max_examples=40, deadline=None, database=None)
@given(kind=st.sampled_from(PLAN_KINDS), approx=st.sampled_from(PROPERTY_APPROXES),
       cfg=STFT_CONFIGS, n_frames=st.integers(2, 40), n_clips=st.integers(1, 4),
       configs=st.lists(BITS_ST, min_size=1, max_size=3))
def test_sweep_batch_equals_per_clip_execution(kind, approx, cfg, n_frames, n_clips,
                                               configs):
    """One batched run of a sweep gives, row by row, what each clip gives on
    its own, and observes the maximum of the per-clip magnitudes."""
    plan = calibrated_plan(kind, approx, cfg, n_frames)
    evalu = clips(n_clips, seed=42, n=clip_length(cfg, n_frames))
    sweep = Sweep(plan, evalu)
    for _, graph, _ in sweep.visit(configs):
        if graph is None:
            continue
        got = sweep.execute()
        refs = [graph.execute(buf) for buf in evalu]
        assert len(got.output.data) == n_clips
        for row, ref, buf in zip(got.output.data, refs, evalu):
            assert np.array_equal(row, ref.output.data)
            assert np.array_equal(row, fake_quant_reference(graph, buf))
        assert np.array_equal(got.dequantized, np.stack([r.dequantized for r in refs]))
        assert got.observed == {name: max(r.observed[name] for r in refs)
                                for name in refs[0].observed}
    # the fixed sweep order lets every node share with its neighbours
    assert all(s.fields == SWEEP_ORDER[:len(s.fields)] for s in sweep.slots.values())


def test_sweep_refuses_clips_of_unequal_length():
    plan = build_transform_plan("stft", Conventional(), CFG, FS).calibrate(clips(2))
    with pytest.raises(CircuitError, match=r"lengths \[992, 1024\]"):
        Sweep(plan, clips(2, seed=1) + clips(1, seed=2, n=1024))


@settings(max_examples=200, deadline=None, database=None)
@given(kind=st.sampled_from(PLAN_KINDS), approx=st.sampled_from(PROPERTY_APPROXES),
       cfg=STFT_CONFIGS,
       configs=st.lists(st.tuples(*[st.integers(2, 7)] * 4), min_size=1, max_size=24))
def test_budget_violations_persist_under_wider_widths(kind, approx, cfg, configs):
    """If config c is over budget, so is c plus one bit in any field: every
    worst case is non-decreasing in each of the four widths."""
    plan = calibrated_plan(kind, approx, cfg)
    for c in configs:
        if realize_or_none(plan, BitWidthConfig(*c)) is None:
            for i in range(4):
                wider = BitWidthConfig(*(w + (j == i) for j, w in enumerate(c)))
                assert realize_or_none(plan, wider) is None, (c, wider)
