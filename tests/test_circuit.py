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
    lut_fn,
    mfcc,
    power_spectrogram,
    quant_edge,
    round_half_away,
    stft,
)
from fhespec.approx import (
    Conventional,
    Cropping,
    Dilation,
    FreqAdaptiveWindow,
    L1Energy,
    Poorman,
    approx_label,
    dilation_kernels,
    parse_approx,
)
from fhespec.circuit import (
    BUDGET_BITS,
    BudgetViolation,
    CircuitError,
    CircuitGraph,
    CircuitOverflow,
    ConvNode,
    EdgeSpec,
    LUT_SEMANTICS,
    LutNode,
    MatmulNode,
    PipelinePlan,
    RawSpec,
    ReduceNode,
    Sweep,
    WeightBank,
    _row_blocks,
    build_descriptor_plan,
    build_transform_plan,
    quantize_weights,
)
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
    stft_kernels,
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


# Values of t = x / scale, all within the oracle's int64 cast: exact
# halves, signed zeros, values far outside any edge and magnitudes near
# 2^52, where the float spacing reaches 1
ROUNDING_VALUES = st.one_of(
    st.integers(-(1 << 20), 1 << 20).map(lambda k: k + 0.5),
    st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5)),
    st.floats(-(2.0**40), 2.0**40),
    st.floats(2.0**51, 2.0**53).flatmap(lambda t: st.sampled_from((t, -t))),
    st.integers((1 << 52) - 4, (1 << 52) + 4).flatmap(lambda k: st.sampled_from((k, -k)))
    .map(float),
)


@st.composite
def edges_and_inputs(draw):
    """A quantized edge of 1-16 bits, signed or not, over a random range
    (with a power-of-two scale half the time, where x / scale is exact), and
    floats to quantize as a Python float, a 0-d array or a 1-d or 2-d array.
    On a power-of-two scale some values sit just outside the edge, within
    half a step of it, where clamping and rounding meet."""
    bits, signed = draw(st.integers(1, 16)), draw(st.booleans())
    levels = (1 << bits) - 1
    values = ROUNDING_VALUES
    if draw(st.booleans()):
        step = 2.0 ** draw(st.integers(-30, 30))
        m = draw(st.integers(0, levels)) if signed else 0
        spec = EdgeSpec.from_range(-m * step, (levels - m) * step, bits=bits, signed=signed)
        assert spec.scale == step
        values = st.one_of(values, st.sampled_from((
            spec.v_max + 0.49999999999999994, spec.v_max + 0.5,
            spec.v_min - 0.5, spec.v_min - 0.5000000000000001)))
    else:
        magnitude = st.floats(1e-6, 1e6)
        spec = EdgeSpec.from_range(-draw(magnitude) if signed else draw(magnitude) / 4,
                                   draw(magnitude), bits=bits, signed=signed)
    ts = draw(st.lists(values, min_size=1, max_size=24))
    x = np.array(ts) * spec.scale
    form = draw(st.sampled_from(("python", "0-d", "1-d", "2-d")))
    if form == "python":
        return spec, float(x[0])
    if form == "0-d":
        return spec, np.array(x[0])
    if form == "2-d" and x.size % 2 == 0:
        return spec, x.reshape(2, -1)
    return spec, x


@settings(max_examples=500)
@given(case=edges_and_inputs())
def test_to_v_equals_the_oracle_quantizer(case):
    """`to_v` rounds half away from zero and clamps like the oracle, on
    ties, signed zeros, far-out and near-2^52 values, and leaves its input
    as it was."""
    spec, x = case
    before = np.array(x, copy=True)
    got = spec.to_v(x)
    assert got.dtype == np.int64
    assert np.array_equal(got, quant_edge(x, spec))
    assert np.asarray(x).tobytes() == before.tobytes()


def test_quantize_weights_refuses_a_scale_that_underflows():
    """The smallest subnormal over q_max = 32767 rounds to a scale of 0, so
    dividing by it would give inf and nan codes."""
    with pytest.raises(CircuitError, match="underflows"):
        quantize_weights(np.array([[5e-324, 0.0]]), 16)
    q, scale = quantize_weights(np.array([[5e-324, 0.0]]), 2)  # q_max = 1
    assert q.tolist() == [[1.0, 0.0]] and scale == 5e-324


@settings(max_examples=300)
@given(bits=st.integers(2, 16), data=st.data())
def test_quantize_weights_equals_the_oracle_rounding(bits, data):
    """Symmetric weight codes are the oracle's half-away rounding of
    w / scale, clipped to +-q_max, with exact ties whenever the largest
    weight is q_max itself, and the float weights are left as they were.
    The codes come as float32, which holds every one of them exactly.  The
    drawn values make up one row or one column, or are scattered over a
    uniform matrix taller than one row block of the quantizer's pass.
    Weights whose scale underflows to 0 are refused."""
    q_max = (1 << (bits - 1)) - 1
    values = st.one_of(st.integers(-q_max, q_max - 1).map(lambda k: k + 0.5),
                       st.sampled_from((0.0, -0.0, float(q_max), -float(q_max))),
                       st.floats(-q_max, q_max))
    drawn = np.array(data.draw(st.lists(values, min_size=1, max_size=32)))
    form = data.draw(st.sampled_from(("row", "column", "blocks")))
    if form == "blocks":
        n = data.draw(st.integers(16, 4096))
        step = _row_blocks(1, n)[0].stop  # rows per block
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        w = rng.uniform(-q_max, q_max, (data.draw(st.integers(step + 1, 3 * step)), n))
        w.flat[rng.choice(w.size, drawn.size, replace=False)] = drawn
        assert len(_row_blocks(*w.shape)) > 1
    else:
        w = drawn.reshape((1, -1) if form == "row" else (-1, 1))
    before = w.copy()
    largest = np.abs(w).max()
    if largest and not largest / q_max:
        # the scale underflows, as for a largest weight of 5e-324 at 16 bits
        with pytest.raises(CircuitError, match="underflows"):
            quantize_weights(w, bits)
        return
    q, scale = quantize_weights(w, bits)
    assert q.dtype == np.float32
    assert w.tobytes() == before.tobytes()
    if not largest:
        assert not q.any() and scale == 1.0
    else:
        assert np.array_equal(q, np.clip(round_half_away(w / scale), -q_max, q_max))


# Float integer kernels --------------------------------------------------------

def bound_conv(weights_f, in_spec, bits):
    """A hand-built conv node bound to `in_spec`, one frame per kernel length."""
    node = ConvNode(name="conv", src="input", weights_f=weights_f,
                    stride=weights_f.shape[1])
    return node.bind({"input": in_spec}, bits, None)


def worst_case_frames(q, in_spec):
    """Each channel's worst-case sign pattern at the edge's extremes, high
    then low, as (2C, N) frames: every product of a row has the same sign,
    so the partial sums climb monotonically to the extreme."""
    hi = np.where(q >= 0, in_spec.v_max, in_spec.v_min)
    lo = np.where(q >= 0, in_spec.v_min, in_spec.v_max)
    return np.concatenate([hi, lo])


def assert_refuses_to_run(node, *args):
    """`run_int` of a node whose partial sums may reach 2^24 raises
    instead of rounding in float32."""
    with pytest.raises(CircuitError, match=r"float32 .*\(limit 2\^24\)"):
        node.run_int(*args)


def test_conv_kernel_exact_at_max_bits():
    """At 16 bits everywhere a conv binds with its exact accumulator range,
    far beyond float32 and over the budget, and refuses to run."""
    n, c = 1024, 4
    rng = np.random.default_rng(50)
    w = rng.uniform(0.5, 1.0, (c, n)) * rng.choice([-1.0, 1.0], (c, n))
    in_spec = EdgeSpec.from_range(-1.0, 1.0, bits=MAX_BITS, signed=True)
    node = bound_conv(w, in_spec, BitWidthConfig(*[MAX_BITS] * 4))
    q = node.weights_q
    frames = worst_case_frames(q, in_spec)
    exact = np.einsum("tn,cn->tc", frames, q)
    assert (exact.min(), exact.max()) == node.acc_range() == node.out_spec.bounds
    assert node.out_spec.max_abs > 1 << 39  # far beyond float32's 2^24
    assert node.budget_entry().worst_case_bits == node.out_spec.width > BUDGET_BITS
    assert_refuses_to_run(node, frames.ravel()[None])


# At 13 weight bits q_max is 4095, and a bank whose largest weight is 4095
# quantizes to itself.  Row 0 of each bank has the l1 norm and the edge
# the magnitude whose product is the bound: 23205 * 723 = 2^24 - 1 and
# 16384 * 1024 = 2^24.
KERNEL_BOUNDS = [
    ((1 << 24) - 1, [4095] * 5 + [2730], 723),
    (1 << 24, [4095] * 4 + [4], 1024),
]


@pytest.mark.parametrize("kind", ["conv", "matmul"])
@pytest.mark.parametrize("bound, row0, max_abs", KERNEL_BOUNDS, ids=["float32", "refused"])
def test_kernels_exact_at_the_float32_boundary(kind, bound, row0, max_abs):
    """A dot node multiplies in float32 while its partial sums stay below
    2^24, exact on the worst-case input, and refuses to run from there,
    with its exact range still bound.  Its bank keeps the float32 codes
    as its only array of the bank's size."""
    n, c = 8, 4
    rng = np.random.default_rng(51)
    q = rng.integers(-2000, 2001, (c, n))
    q[0] = np.pad(row0, (0, n - len(row0))) * rng.choice([-1, 1], n)
    in_spec = EdgeSpec(scale=1.0, v_min=-max_abs, v_max=max_abs, bits=MAX_BITS,
                       signed=True)
    bits = BitWidthConfig(MAX_BITS, MAX_BITS, 13, MAX_BITS)
    frames = worst_case_frames(q, in_spec)
    if kind == "conv":
        node = bound_conv(q.astype(np.float64), in_spec, bits)
        args = frames.ravel()[None]
    else:
        node = MatmulNode(name="matmul", src="src", weights_f=q.astype(np.float64))
        node = node.bind({"src": in_spec}, bits, None)
        args = frames[None]
    assert np.array_equal(node.weights_q, q)
    assert node.partial_sum_bound == bound
    assert node.bank.codes.dtype == np.float32
    assert [k for k, a in vars(node.bank).items()
            if isinstance(a, np.ndarray) and a.size == q.size] == ["codes"]
    assert node.acc_range() == node.out_spec.bounds == (-bound, bound)
    if bound < 1 << 24:
        got = node.run_int(args)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.einsum("tn,cn->tc", frames, q)[None])
        assert (got.min(), got.max()) == (-bound, bound)
    else:
        assert node.budget_entry().worst_case_bits == width_of(bound) > BUDGET_BITS
        assert_refuses_to_run(node, args)


def test_weight_bank_row_sums_exact_beyond_float32():
    """The row sums behind `acc_range` stay exact past 2^24, where a float32
    sum of the float32 codes would round."""
    rng = np.random.default_rng(52)
    q = rng.integers(1 << 14, 1 << 15, (4, 1024))
    q[1] *= -1
    node = ConvNode(name="conv", src="input", weights_f=np.ones(q.shape), stride=q.shape[1])
    node.bank = WeightBank(q.astype(np.float32), 1.0)
    assert node.bank.pos.tolist() == np.maximum(q, 0).sum(axis=1).tolist()
    assert node.bank.neg.tolist() == np.minimum(q, 0).sum(axis=1).tolist()
    assert node.bank.max_row_l1 == np.abs(q).sum(axis=1).max() > 1 << 24


def test_bind_accepts_partial_sums_beyond_float64():
    """`bind` never refuses: at a bound of 2^53, which float64 no longer
    holds exactly, the accumulator range stays exact in integers, reports
    its over-budget width, and the node refuses to run."""
    q_max = (1 << (MAX_BITS - 1)) - 1
    w = np.array([[1.0, 1.0 / q_max]])  # quantizes to [q_max, 1]: sum 2^15
    bits = BitWidthConfig(*[MAX_BITS] * 4)
    edge = EdgeSpec(scale=1.0, v_min=-(1 << 38), v_max=1 << 38, bits=MAX_BITS, signed=True)
    node = bound_conv(w, edge, bits)
    assert node.weights_q.tolist() == [[q_max, 1]]
    assert node.acc_range() == node.out_spec.bounds == (-(1 << 53), 1 << 53)
    assert node.budget_entry().worst_case_bits == width_of(1 << 53) > BUDGET_BITS
    assert_refuses_to_run(node, np.zeros((1, 2), dtype=np.int64))


THREAD_PROBE = """
import hashlib, pickle, sys
with open(sys.argv[1], "rb") as fh:
    graphs, bufs, sweep = pickle.load(fh)
h = hashlib.sha256()
for graph in graphs:
    for buf in bufs:
        h.update(graph.execute(buf).output.data.tobytes())
h.update(sweep.execute().tobytes())
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
    # an N=1024 plan run as one (B, L) batch, whose long products BLAS
    # splits between threads
    wide = StftConfig(1024, 256)
    n_wide = wide.window_length + 29 * wide.hop
    plan = build_descriptor_plan(Conventional(), wide, FS, n_frames=30, mel=mel,
                                 gamma=gamma).calibrate(clips(4, seed=47, n=n_wide))
    sweep = Sweep(plan, clips(4, seed=48, n=n_wide))
    sweep.realize(bits)
    # calibration runs the float clear path, whose last bits may depend on
    # the thread count, so the graphs are realized once, here, and only their
    # integer execution runs at each thread count
    path = tmp_path / "graphs.pkl"
    path.write_bytes(pickle.dumps((graphs, evalu, sweep)))
    want = hashlib.sha256()
    for graph in graphs:
        for buf in evalu:
            want.update(graph.execute(buf).output.data.tobytes())
    want.update(sweep.execute().tobytes())
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
    assert doc["approx"] == approx_label(Poorman(roots=4)) == "poorman:4"
    names = {n["name"] for n in doc["nodes"]}
    assert {"stft_conv", "mel_matmul", "dct_matmul", "mfcc_out"} <= names
    conv = next(n for n in doc["nodes"] if n["name"] == "stft_conv")
    assert conv["weights"]["shape"] == [2 * CFG.bins, CFG.window_length]
    # a table holds one entry per integer of its input edge: 2^B on a
    # quantized edge, v_hi - v_lo + 1 on a raw one
    edges = {n["name"]: n["out_edge"] for n in doc["nodes"]}
    for n in doc["nodes"]:
        if "table_size" in n:
            e = edges[n["inputs"][0]]
            want = e["v_hi"] - e["v_lo"] + 1 if e["raw"] else 1 << e["bits"]
            assert n["table_size"] == want
    assert len(conv["weights"]["sha256"]) == 64


def test_realized_plan_json_is_pinned():
    """A fixed small realized plan serializes to the bytes pinned here: its
    approximation's `--approx` form, weight codes' int64 hashes, weight
    scales, accumulator ranges and edges.
    The ranges are set by hand, so no float summation order reaches them."""
    plan = build_transform_plan("mfcc", Dilation(rate=4), CFG, FS, mel=MEL, n_mfcc=8)
    plan.ranges = {"input": (-1.0, 1.0),
                   **{n.name: (-0.25 * k, 1.0 + k) for k, n in enumerate(plan.nodes)}}
    doc = plan.realize(BITS).to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        "b3643fd2fdba288b81b31dd714a1693c035f22c8371f8b706c81fcb3630b7516"


def test_bank_memory_is_one_float_kernel_and_one_float32_code_array():
    """On an N=1024 STFT plan whose float kernel takes W bytes, building
    the plan peaks at 1.5 W (plus 1 MB), realizing adds a peak of 0.5 W (the
    float32 codes, plus 1 MB), and the first execution allocates nothing
    near the size of the bank.  tracemalloc sees numpy's buffers, so the
    figures do not depend on the allocator."""
    import tracemalloc

    mb = 1 << 20
    clip = clips(1, seed=60, n=4000)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        plan = build_transform_plan("stft", Conventional(), StftConfig(1024, 256), FS)
        build_peak = tracemalloc.get_traced_memory()[1] - base
        w = plan.nodes[0].weights_f.nbytes
        plan.calibrate(clip)

        def added_peak(fn):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - base

        graph, realize_peak = added_peak(lambda: plan.realize(BitWidthConfig(4, 8, 3, 5)))
        _, execute_peak = added_peak(lambda: graph.execute(clip[0]))
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert w == 2 * (1024 // 2 + 1) * 1024 * 8
    assert build_peak <= 1.5 * w + mb
    assert realize_peak <= 0.5 * w + mb
    assert execute_peak < w / 8


def test_sparse_approximations_lower_conv_taps():
    dense = build_transform_plan("stft", Conventional(), CFG, FS)
    # uniform dilation, which no spec builds, thins every kernel row, so
    # the maximum tap count drops; the per-bin cap keeps high bins dense
    uniform = dilation_kernels(stft_kernels(CFG, hann_window(CFG.window_length)), 4,
                               per_bin_cap=False)
    sparse = ConvNode(name="stft_conv", src="input", weights_f=uniform.kernels,
                      stride=CFG.hop)
    n_dense = dense.nodes[0].nonzero_taps()
    n_sparse = sparse.nonzero_taps()
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


@pytest.mark.parametrize("node_type, setting", [
    (ReduceNode, {"op": "avg", "axis": "channels"}),
    (ReduceNode, {"op": "sum", "axis": "frames"}),
    (LutNode, {"semantic": "exp"}),
])
def test_nodes_refuse_unknown_settings_at_construction(node_type, setting):
    """A reduce op or axis, or a lookup semantic, outside the known ones is
    refused when the node is built, not when its two arms disagree."""
    with pytest.raises(CircuitError, match="unknown"):
        node_type("n", "x", **setting)


def test_reduce_nodes_set_their_fan_in_when_built():
    """A pair sum reduces two values and refuses any other fan-in, and a
    reduce over another axis without its fan-in is refused when it is
    built, not at its first bind."""
    assert ReduceNode("n", "x", op="sum", axis="pair").fan_in == 2
    assert ReduceNode("n", "x", op="sum", axis="pair", fan_in=2).fan_in == 2
    with pytest.raises(CircuitError, match="reduce node n sums pairs, not fan_in=3"):
        ReduceNode("n", "x", op="sum", axis="pair", fan_in=3)
    for axis in ("channels", "time"):
        with pytest.raises(CircuitError, match="reduce node n needs fan_in"):
            ReduceNode("n", "x", op="mean", axis=axis)


def test_channel_reduce_refuses_another_fan_in():
    """A channel mean sized for 4 channels refuses a clip of 8 instead of
    dividing their sum by 4: clear gave 0.125 and the circuit 0.251."""
    nodes = [LutNode("a", "input", "requant"),
             ReduceNode("r", "a", op="mean", axis="channels", fan_in=4),
             LutNode("out", "r", "requant")]
    plan = PipelinePlan("stft", Conventional(), FS, nodes, "out")
    bufs = [AudioBuffer(np.array([1.0] * ones + [0.0] * (8 - ones)), FS)
            for ones in (1, 4)]
    graph = plan.calibrate(bufs).realize(BitWidthConfig(6, 8, 4, 8))
    assert graph.run_clear(bufs[0])["out"] == 0.125
    with pytest.raises(CircuitError, match="clip has 8 channels.*fan_in=4"):
        graph.execute(bufs[0])


# Properties over random configurations ----------------------------------------

BITS_ST = st.builds(BitWidthConfig, *[st.integers(2, 8)] * 4)
PLAN_KINDS = ("stft", "mel", "mfcc", "gammatone", "descriptors")
PROPERTY_APPROXES = APPROXES + [Dilation(rate=None), FreqAdaptiveWindow(n_min=16)]
# (N, hop): the smallest N that holds 8 Mel bands is 32
STFT_CONFIGS = st.sampled_from((32, 64, 128)).flatmap(
    lambda n: st.builds(StftConfig, st.just(n), st.integers(1, n)))


def uncalibrated_plan(kind, approx, cfg=CFG, n_frames=30):
    """A plan whose time reductions expect clips of `n_frames` frames."""
    if kind == "descriptors":
        return build_descriptor_plan(approx, cfg, FS, n_frames=n_frames, mel=MEL,
                                     gamma=GAMMA)
    return build_transform_plan(kind, approx, cfg, FS, mel=MEL, gamma=GAMMA, n_mfcc=8)


def calibrated_plan(kind, approx, cfg=CFG, n_frames=30):
    """A plan calibrated on clips of exactly `n_frames` frames."""
    plan = uncalibrated_plan(kind, approx, cfg, n_frames)
    return plan.calibrate(clips(4, seed=40, n=clip_length(cfg, n_frames)))


def clip_length(cfg, n_frames):
    return cfg.window_length + (n_frames - 1) * cfg.hop


def realize_or_none(plan, bits):
    try:
        return plan.realize(bits)
    except BudgetViolation:
        return None


@pytest.mark.parametrize("kind", PLAN_KINDS)
def test_realize_leaves_the_plan_nodes_as_they_were(kind):
    """Realizing binds copies: after configs that fit and configs over
    budget, every attribute of a plan node is the object it was, a dot
    node's `banks` only gains the weight widths realized, and no plan node
    holds an edge or a bank."""
    plan = calibrated_plan(kind, Conventional())
    dot_nodes = [n for n in plan.nodes if isinstance(n, (ConvNode, MatmulNode))]
    before = [dict(vars(n)) for n in plan.nodes]
    plan.realize(DBITS)
    first = [dict(n.banks) for n in dot_nodes]
    configs = [BitWidthConfig(4, 3, 3, 5), DBITS, BitWidthConfig(*[MAX_BITS] * 4)]
    assert [realize_or_none(plan, b) is None for b in configs] == [False, False, True]
    for node, attrs in zip(plan.nodes, before):
        assert vars(node).keys() == attrs.keys(), node.name
        assert all(vars(node)[k] is a for k, a in attrs.items()), node.name
        assert node.in_spec is None and node.out_spec is None, node.name
    for node, banks in zip(dot_nodes, first):
        assert node.bank is None and list(banks) == [DBITS.weight_bits]
        assert all(node.banks[w] is bank for w, bank in banks.items())
        assert sorted(node.banks) == [3, DBITS.weight_bits, MAX_BITS]


@settings(max_examples=60)
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


@settings(max_examples=40)
@given(kind=st.sampled_from(PLAN_KINDS), approx=st.sampled_from(PROPERTY_APPROXES),
       cfg=STFT_CONFIGS, n_frames=st.integers(2, 40), n_clips=st.integers(1, 4),
       configs=st.lists(BITS_ST, min_size=1, max_size=3))
def test_sweep_batch_equals_per_clip_execution(kind, approx, cfg, n_frames, n_clips,
                                               configs):
    """One batched run of a sweep gives, row by row, what each clip gives on
    its own, for configs visited in sorted order and then realized in the
    drawn order; so does the batched clear arm, which needs no realized
    graph and which no realize, refused or not, changes."""
    plan = calibrated_plan(kind, approx, cfg, n_frames)
    evalu = clips(n_clips, seed=42, n=clip_length(cfg, n_frames))
    sweep = Sweep(plan, evalu)
    batched = sweep.clear_output()

    def graphs():
        yield from (graph for _, graph, _ in sweep.visit(configs))
        for bits in configs:
            try:
                yield sweep.realize(bits)
            except BudgetViolation:
                yield None

    for graph in graphs():
        assert sweep.clear_output().tobytes() == batched.tobytes()
        if graph is None:
            continue
        got = sweep.execute()
        refs = [graph.execute(buf) for buf in evalu]
        spec = graph.node(graph.output_node).out_spec
        assert len(got) == n_clips
        for row, ref, buf in zip(got, refs, evalu):
            assert np.array_equal(row, ref.dequantized)
            assert np.array_equal(row, spec.to_float(fake_quant_reference(graph, buf)
                                                     + spec.lift))
        assert np.array_equal(got, np.stack([r.dequantized for r in refs]))
        # the batched clear arm is each clip's own clear forward, bit for bit
        clear = np.stack([graph.run_clear(buf)[graph.output_node] for buf in evalu])
        assert batched.shape == clear.shape
        assert batched.tobytes() == clear.tobytes()
    # depth never falls along an edge, so a node rebinds whenever an input does
    slots = sweep.slots
    assert all(slots[s].depth <= slots[n.name].depth for n in plan.nodes for s in n.inputs)


@settings(max_examples=40)
@given(kind=st.sampled_from(PLAN_KINDS), approx=st.sampled_from(PROPERTY_APPROXES),
       cfg=STFT_CONFIGS, n_frames=st.integers(2, 40), n_clips=st.integers(1, 4))
def test_calibration_equals_the_per_clip_clear_forwards(kind, approx, cfg, n_frames,
                                                        n_clips):
    """`calibrate` widens each range as its forward yields the value, and
    gives the ranges and z-score constants that the whole per-clip
    `run_clear` dicts of the unbound plan give: each range spans every
    clip, and a normalize head's constants are the mean and standard
    deviation of its values concatenated in clip order."""
    plan = uncalibrated_plan(kind, approx, cfg, n_frames)
    calib = clips(n_clips, seed=43, n=clip_length(cfg, n_frames))
    unbound = CircuitGraph(kind=plan.kind, approx_label="", bits=None, input_spec=None,
                           nodes=plan.nodes, output_node=plan.output_node)
    runs = [unbound.run_clear(buf) for buf in calib]
    ranges = {name: (min(float(r[name].min()) for r in runs),
                     max(float(r[name].max()) for r in runs)) for name in runs[0]}
    heads = [n for n in plan.nodes if isinstance(n, LutNode) and n.semantic == "normalize"]
    normalization = {}
    for head in heads:
        flat = np.concatenate([r[head.name].ravel() for r in runs])
        center, scale = float(flat.mean()), float(flat.std()) or 1.0
        normalization[head.name] = (center, scale)
        lo, hi = ranges[head.name]
        ranges[head.name] = ((lo - center) / scale, (hi - center) / scale)
    plan.calibrate(calib)
    assert list(plan.ranges) == ["input", *(n.name for n in plan.nodes)]
    assert plan.ranges == ranges
    assert {n.name: (n.norm_center, n.norm_scale) for n in heads} == normalization


# Metamorphic relations: two runs whose codes must agree, so no oracle is
# needed.  Both take every approximation of PROPERTY_APPROXES.  MFCC is
# left out of the gain relation: its log reads the linearly quantized Mel
# spectrum, so a gain moves most of its codes.
# powers of two scale every value exactly; the others round
GAINS = st.sampled_from([0.125, 0.25, 0.5, 2.0, 4.0, 8.0]) | st.sampled_from(
    [0.3, 0.7, 1.5, 3.0, 5.0]) | st.floats(0.1, 10.0)


def edge_bounds(graph) -> list:
    """The integer range of every edge: the input's, then each node's."""
    return [graph.input_spec.bounds, *(n.out_spec.bounds for n in graph.nodes)]


def louder(bufs, k):
    return [AudioBuffer(buf.samples * k, buf.sample_rate_hz) for buf in bufs]


@settings(max_examples=60)
@given(kind=st.sampled_from(("stft", "mel", "gammatone", "descriptors")),
       approx=st.sampled_from(PROPERTY_APPROXES), cfg=STFT_CONFIGS,
       n_frames=st.integers(2, 40), bits=BITS_ST, k=GAINS)
def test_codes_do_not_depend_on_the_recording_gain(kind, approx, cfg, n_frames, bits, k):
    """Scaling every calibration and evaluation clip by one gain k scales
    every calibrated range, so the same configs realize, every edge keeps
    its integer range, and every code stays where it was: the output's, and
    each node's largest accumulator.  The descriptor plan's normalize heads
    z-score, so a gain cancels there too."""
    n = clip_length(cfg, n_frames)
    calib, evalu = clips(4, seed=40, n=n), clips(2, seed=41, n=n)
    graph = realize_or_none(uncalibrated_plan(kind, approx, cfg, n_frames)
                            .calibrate(calib), bits)
    loud = realize_or_none(uncalibrated_plan(kind, approx, cfg, n_frames)
                           .calibrate(louder(calib, k)), bits)
    assert (graph is None) == (loud is None)
    if graph is not None:
        assert edge_bounds(loud) == edge_bounds(graph)
    for buf, loud_buf in zip(evalu, louder(evalu, k)) if graph is not None else ():
        quiet_run, loud_run = graph.execute(buf), loud.execute(loud_buf)
        assert np.array_equal(loud_run.output.data, quiet_run.output.data)
        assert loud_run.observed == quiet_run.observed


@settings(max_examples=60)
@given(kind=st.sampled_from(("stft", "mel", "mfcc", "gammatone")),
       approx=st.sampled_from(PROPERTY_APPROXES), cfg=STFT_CONFIGS,
       n_frames=st.integers(2, 40), bits=BITS_ST)
def test_dropping_the_first_hop_drops_the_first_frame(kind, approx, cfg, n_frames, bits):
    """Each frame is computed alone, so a clip without its first `hop`
    samples gives the codes of the whole clip's frames 1..T-1."""
    graph = realize_or_none(calibrated_plan(kind, approx, cfg, n_frames), bits)
    for buf in clips(2, seed=44, n=clip_length(cfg, n_frames)) if graph is not None else ():
        later = AudioBuffer(buf.samples[cfg.hop:], FS)
        assert np.array_equal(graph.execute(later).output.data,
                              graph.execute(buf).output.data[1:])


def test_sweep_refuses_clips_of_unequal_length():
    plan = build_transform_plan("stft", Conventional(), CFG, FS).calibrate(clips(2))
    with pytest.raises(CircuitError, match=r"lengths \[992, 1024\]"):
        Sweep(plan, clips(2, seed=1) + clips(1, seed=2, n=1024))


@settings(max_examples=200)
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


@settings(max_examples=60)
@given(kind=st.sampled_from(PLAN_KINDS), approx=st.sampled_from(PROPERTY_APPROXES),
       cfg=STFT_CONFIGS,
       configs=st.lists(BITS_ST | st.builds(BitWidthConfig, *[st.integers(2, MAX_BITS)] * 4),
                        min_size=1, max_size=8))
def test_realized_dot_products_run_in_float32(kind, approx, cfg, configs):
    """Every conv and matmul of a config the budget accepts keeps its
    partial sums within its accumulator's span, at most 2^17, so its
    float32 kernel is exact and never meets the 2^24 refusal."""
    plan = calibrated_plan(kind, approx, cfg)
    for bits in configs:
        graph = realize_or_none(plan, bits)
        for node in graph.nodes if graph is not None else ():
            if isinstance(node, (ConvNode, MatmulNode)):
                lo, hi = node.out_spec.bounds
                assert node.partial_sum_bound <= hi - lo <= 1 << 17


@st.composite
def bound_luts(draw):
    """A lookup bound to a random input edge and, for a quantized semantic,
    a random output edge around its values, with codes that hold every
    integer of the input edge laid out as (B, T, C): contiguous, a strided
    view or a transposed view."""
    magnitude = st.floats(1e-3, 1e3)
    signed = draw(st.booleans())
    in_spec = EdgeSpec.from_range(-draw(magnitude) if signed else 0.0, draw(magnitude),
                                  bits=draw(st.integers(1, 16)), signed=signed)
    norm = (draw(st.floats(-1e3, 1e3)), draw(magnitude))
    node = LutNode(name="lut", src="src", semantic=draw(st.sampled_from(LUT_SEMANTICS)))
    node.norm_center, node.norm_scale = norm
    lo, hi = in_spec.bounds
    out_spec = None  # a raw lookup derives its own
    if node.semantic not in ("square", "abs"):
        f = lut_fn(node, np.arange(lo, hi + 1) * in_spec.scale)
        stretch = st.floats(0.25, 2.0)
        out_lo, out_hi = f.min() * draw(stretch), f.max() * draw(stretch)
        out_spec = EdgeSpec.from_range(out_lo, out_hi, bits=draw(st.integers(1, 16)),
                                       signed=out_lo < 0.0)
    node = node.bind({"src": in_spec}, None, lambda name: out_spec)

    b, c = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    t = -(-(hi - lo + 1) // (b * c))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.permutation(np.resize(np.arange(lo, hi + 1), b * t * c)).reshape(b, t, c)
    layout = draw(st.sampled_from(("contiguous", "strided", "transposed")))
    if layout == "strided":
        padded = np.zeros((b, 2 * t, c + 1), dtype=np.int64)
        padded[:, ::2, :c] = codes
        codes = padded[:, ::2, :c]
    elif layout == "transposed":
        codes = np.ascontiguousarray(codes.transpose(2, 1, 0)).transpose(2, 1, 0)
    return node, codes


@settings(max_examples=300)
@given(case=bound_luts())
def test_lookup_equals_a_gather_from_the_whole_table(case):
    """`run_int` on any layout of the codes equals a gather from a table of
    the whole key domain built with the oracle's quantizer, and a raw
    lookup declares the largest value of that table as its bound."""
    node, codes = case
    lo, hi = node.in_spec.bounds
    keys = np.arange(lo, hi + 1)
    if node.semantic == "square":
        table = keys * keys
    elif node.semantic == "abs":
        table = np.abs(keys)
    else:
        table = quant_edge(lut_fn(node, keys * node.in_spec.scale), node.out_spec)
    got = node.run_int(codes)
    assert got.dtype == np.int64
    assert np.array_equal(got, table[codes - lo])
    if node.semantic in ("square", "abs"):
        assert node.out_spec.bounds == (0, int(table.max()))
