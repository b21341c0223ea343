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

from oracles import fake_quant_reference
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
    approx_label,
    build_descriptor_plan,
    build_transform_plan,
    quantize_weights,
)
from fhespec.evaluate import normalized_euclidean
from fhespec.quant import MAX_BITS, BitWidthConfig, width_of
from fhespec.transforms import AudioBuffer, GammatoneSpec, MelSpec, StftConfig

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
    got = node.run_int(frames.ravel())
    assert got.dtype == np.int64
    assert np.array_equal(got, np.einsum("tn,cn->tc", frames, q))
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
    assert exc.value.violations  # names the offending nodes
    # same config builds with enforcement off, and the report flags it
    graph = plan.realize(wide, enforce_budget=False)
    assert not graph.check_budget().feasible
    # over budget no deferred table is built, so the graph refuses to
    # execute, but it still serializes
    assert graph.node("mel_spec").table is None
    with pytest.raises(CircuitError, match="over budget.*tables were not built"):
        graph.execute(calib[0])
    for n in json.loads(graph.to_json())["nodes"]:
        if "table_size" in n:
            lo, hi = graph.node(n["name"]).in_spec.bounds
            assert n["table_size"] == hi - lo + 1


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
            violated = {name for name, _ in exc.violations}
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


def calibrated_plan(kind, approx):
    if kind == "descriptors":
        plan = build_descriptor_plan(approx, CFG, FS, n_frames=30, mel=MEL, gamma=GAMMA)
    else:
        plan = build_transform_plan(kind, approx, CFG, FS, mel=MEL, gamma=GAMMA, n_mfcc=8)
    return plan.calibrate(clips(4, seed=40))


def realize_or_none(plan, bits):
    try:
        return plan.realize(bits)
    except BudgetViolation:
        return None


@settings(max_examples=30, deadline=None, database=None)
@given(kind=st.sampled_from(PLAN_KINDS),
       approx=st.sampled_from(APPROXES + [Dilation(rate=None),
                                          FreqAdaptiveWindow(n_min=16)]),
       a=BITS_ST, b=BITS_ST)
def test_realize_properties_over_random_configs(kind, approx, a, b):
    plan = calibrated_plan(kind, approx)
    graph_a, graph_b = realize_or_none(plan, a), realize_or_none(plan, b)
    # binding never mutates the plan: B after A serializes like a fresh B
    fresh_b = realize_or_none(calibrated_plan(kind, approx), b)
    assert (graph_b is None) == (fresh_b is None)
    if graph_b is not None:
        assert graph_b.to_json() == fresh_b.to_json()
    # every config that realizes is bit-exact with the oracle
    evalu = clips(2, seed=41)
    # and no accumulator it executes exceeds its declared worst case
    for graph in (graph_a, graph_b):
        for buf in evalu if graph is not None else []:
            res = graph.execute(buf)
            assert np.array_equal(res.output.data, fake_quant_reference(graph, buf))
            for e in graph.check_budget(res.observed).entries:
                if e.observed_max_bits is not None:
                    assert e.observed_max_bits <= e.worst_case_bits
    # the clear forward pass does not depend on the bit widths
    loose = [plan.realize(bits, enforce_budget=False)
             for bits in (a, b)]
    for buf in evalu:
        clear_a, clear_b = (g.run_clear(buf) for g in loose)
        assert clear_a.keys() == clear_b.keys()
        for name in clear_a:
            assert np.array_equal(clear_a[name], clear_b[name])
