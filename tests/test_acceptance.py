"""Acceptance gate: one test per contract guarantee, pinned tolerances.

Each test prints a single PASS line naming the guarantee it verified, so a
verbose run reads as a checklist:

 1. phase-projection error bound holds at every (frame, bin)
 2. uniform-dilation aliasing identity on the two-sided DFT
 3. worst-case accumulator width is achieved exactly by adversarial input
 4. integer circuits are bit-exact against the fake-quant reference
 5. edge quantizer round-trip error, monotone codes and exported code range
 6. grid-searched configs reach small spectrogram distances (MFCC worst)
 7. clear-vs-clear replication is perfect; a constructed effect survives FHE
 8. Mann-Whitney exact p-values (enumeration oracle, asymptotic agreement)
 9. L1 energy costs one extra accumulator bit, squared energy doubles it
10. CLI outputs are byte-identical across reruns
"""

import filecmp
import json

import numpy as np
import pytest

from oracles import fake_quant_reference
from fhespec.approx import (
    Conventional,
    Cropping,
    Dilation,
    L1Energy,
    Poorman,
    dilation_aliasing_residual,
    poorman_bound_report,
)
from fhespec.circuit import (
    CircuitGraph,
    ConvNode,
    EdgeSpec,
    LutNode,
    RawSpec,
    ReduceNode,
    build_transform_plan,
)
from fhespec.cli import main
from fhespec.dataset import split_clips, synthetic_clips
from fhespec.evaluate import (
    discovery_errors,
    grid_search,
    mann_whitney_u,
    pair_tests,
    transform_distance_search,
)
from fhespec.quant import BitWidthConfig, accumulator_bits, width_of
from fhespec.transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    StftConfig,
    hann_window,
)

FS = 16000


def random_buffers(count, length, seed):
    rng = np.random.default_rng(seed)
    return [AudioBuffer(rng.standard_normal(length), FS) for _ in range(count)]


def test_phase_projection_error_bound_everywhere():
    """Phase-projected STFT error stays under the per-frame analytic bound.

    100 random signals (length 4096, N=256, h=64), L in {2,4,6,8,16}: at
    every (frame, bin), |X - X_L| <= 2*sin(pi/2L) * ||frame||_2 * ||w||_2
    with relative slack 1e-9.  (The separable two-norm product is the form
    that provably dominates the projection chords via Cauchy-Schwarz.)
    """
    cfg = StftConfig(256, 64)
    window = hann_window(256)
    bufs = random_buffers(100, 4096, seed=100)
    worst = 0.0
    for roots in (2, 4, 6, 8, 16):
        for buf in bufs:
            rep = poorman_bound_report(buf, cfg, window, roots)
            assert rep.all_satisfied
            worst = max(worst, float(np.max(rep.empirical / rep.bound)))
    assert worst <= 1.0 + 1e-9
    print(f"PASS: projection error bound holds at every (m, k); "
          f"max empirical/bound ratio {worst:.3f}")


def test_uniform_dilation_aliasing_identity():
    """Keeping every d-th tap averages d shifted copies of the spectrum.

    Uniform d in {2,4,8} dividing N=256, two-sided DFT, no per-bin cap:
    max deviation from (1/d) * sum_j X[m, k - j*N/d] below 1e-9 over 20
    random signals.
    """
    cfg = StftConfig(256, 64)
    window = hann_window(256)
    worst = 0.0
    for buf in random_buffers(20, 2048, seed=101):
        for rate in (2, 4, 8):
            worst = max(worst,
                        dilation_aliasing_residual(buf, cfg, window, rate))
    assert worst < 1e-9
    print(f"PASS: aliasing identity for d in (2,4,8); "
          f"max residual {worst:.3e}")


def test_accumulator_width_achieved_by_adversarial_input():
    """The declared worst-case dot-product width is attained, not padded.

    20 random (L, N, M) with L <= 64 and N, M <= 5: driving every operand
    to its range maximum produces an accumulator whose exact bit width
    equals both the budget report's figure and the closed-form width of
    L * (2^N - 1) * (2^M - 1).
    """
    rng = np.random.default_rng(102)
    for _ in range(20):
        l = int(rng.integers(1, 65))
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        node = ConvNode(name="acc", src="input",
                        weights_f=np.ones((1, l)), stride=l)
        node.weights_q = np.full((1, l), (1 << m) - 1, dtype=np.int64)
        node.w_scale = 1.0
        node.in_spec = EdgeSpec(scale=1.0, v_min=0, v_max=(1 << n) - 1,
                                bits=n, signed=False)
        lo, hi = node.acc_range()
        node.out_spec = RawSpec(scale=1.0, v_lo=lo, v_hi=hi)
        acc = node.run_int(np.full((1, l), (1 << n) - 1, dtype=np.int64))
        observed = width_of(int(acc.max()))
        assert observed == node.out_spec.width == accumulator_bits(l, n, m)
    print("PASS: worst-case accumulator width achieved exactly "
          "(observed == declared == closed form) on 20 random shapes")


def test_integer_circuits_bit_exact_against_reference():
    """Every transform x approximation circuit matches the fake-quant oracle.

    Four transforms x {conventional, dilation d=4, poorman L=4,
    crop 0-1000 Hz, L1} at bits (4,6,3,5), 50 random inputs each,
    integer-for-integer.
    """
    cfg = StftConfig(256, 64)
    bits = BitWidthConfig(4, 6, 3, 5)
    mel = MelSpec(n_mels=16)
    gamma = GammatoneSpec(n_filters=16)
    approxes = [Conventional(), Dilation(rate=4), Poorman(roots=4),
                Cropping(f_min_hz=0.0, f_max_hz=1000.0), L1Energy()]
    calib = random_buffers(4, 1024, seed=103)
    inputs = random_buffers(50, 1024, seed=104)
    checked = 0
    for kind in ("stft", "mel", "mfcc", "gammatone"):
        for approx in approxes:
            plan = build_transform_plan(kind, approx, cfg, FS,
                                        mel=mel, gamma=gamma, n_mfcc=13)
            graph = plan.calibrate(calib).realize(bits)
            for buf in inputs:
                got = graph.execute(buf).output.data
                want = fake_quant_reference(graph, buf)
                assert np.array_equal(got, want), (kind, approx.kind)
                checked += 1
    print(f"PASS: {checked} executions bit-exact across 4 transforms "
          f"x 5 approximations at bits (4,6,3,5)")


def test_quantizer_round_trip_and_monotonicity():
    """The circuit's edge quantizer stays within half a step, preserves order
    and exports B-bit codes.

    `EdgeSpec.from_range(-4, 6, B, signed)` with 10^5 random values per
    (B in 1..16, signed in {False, True}); error bound scale/2 with 1e-12
    float slack; codes non-decreasing on sorted inputs; exported codes
    v - lift inside [0, 2^B - 1], or [-2^(B-1), 2^(B-1) - 1] when signed.
    """
    rng = np.random.default_rng(105)
    for bits in range(1, 17):
        for signed in (False, True):
            e = EdgeSpec.from_range(-4.0, 6.0, bits=bits, signed=signed)
            x = rng.uniform(-4.0, 6.0, size=100_000)
            v = e.to_v(x)
            back = e.to_float(v)
            assert np.max(np.abs(back - x)) <= e.scale / 2 + 1e-12
            order = np.argsort(x)
            assert np.all(np.diff(v[order]) >= 0)
            q = v - e.lift
            lo = -(1 << (bits - 1)) if signed else 0
            assert lo <= q.min() and q.max() <= lo + (1 << bits) - 1
    print("PASS: round-trip error <= scale/2, monotone codes and B-bit "
          "exported codes for B in 1..16, both signednesses, 10^5 values each")


def test_best_grid_config_reaches_small_transform_distance():
    """Budget-feasible configs keep STFT/Mel/gammatone outputs close.

    200 synthetic clips (tones + noise, 16 kHz, 1 s), window 256 hop 128:
    the best searched config per transform achieves mean normalized
    Euclidean distance <= 0.30 for stft, mel and gammatone.  MFCC is
    checked to be the worst of the four (log + DCT amplify quantization
    noise) without a numeric gate.
    """
    cfg = StftConfig(256, 128)
    mel = MelSpec(n_mels=32)
    gamma = GammatoneSpec(n_filters=32)
    clips = synthetic_clips("tones,noise", 100, seed=106)
    assert len(clips) == 200
    calib_c, eval_c, _ = split_clips(clips, 0.1, seed=106)
    calib = [c.buffer for c in calib_c]
    evalu = [c.buffer for c in eval_c]
    space = [BitWidthConfig(5, 8, 3, 7), BitWidthConfig(4, 8, 4, 7)]
    best = {}
    for kind in ("stft", "mel", "gammatone", "mfcc"):
        plan = build_transform_plan(kind, Conventional(), cfg, FS,
                                    mel=mel, gamma=gamma)
        scored = transform_distance_search(space, plan.calibrate(calib), evalu)
        assert scored, kind
        best[kind] = scored[0][1]
    for kind in ("stft", "mel", "gammatone"):
        assert best[kind] <= 0.30, (kind, best[kind])
    assert best["mfcc"] == max(best.values())
    print("PASS: best mean distances "
          + ", ".join(f"{k}={v:.3f}" for k, v in best.items())
          + " (stft/mel/gammatone <= 0.30; mfcc worst, no gate)")


def test_statistical_replication_clear_and_constructed_effect():
    """The replication harness is exact on itself and detects a real effect.

    Feeding the clear descriptors into both arms gives error_rate exactly 0.
    On two synthetic tone classes separated by amplitude (1.0 vs 1.5, 30
    clips each), the best grid-searched conventional-STFT circuit reproduces
    the clear mean-RMS decision: p < 0.05 in both arms, outcome TP,
    error_rate 0 for that pair.
    """
    cfg = StftConfig(256, 128)
    mel = MelSpec(n_mels=32)
    gamma = GammatoneSpec(n_filters=32)
    clips = synthetic_clips("tones", 60, seed=107)
    calib_c, eval_c, _ = split_clips(clips, 0.1, seed=107)
    calib = [c.buffer for c in calib_c]
    n_frames = cfg.frame_count(len(calib[0]))

    space = [BitWidthConfig(5, 6, 3, 4), BitWidthConfig(4, 6, 4, 4),
             BitWidthConfig(4, 5, 3, 4)]
    from fhespec.circuit import build_descriptor_plan

    plan = build_descriptor_plan(Conventional(), cfg, FS, n_frames,
                                 mel=mel, gamma=gamma)
    plan.calibrate(calib)
    ranked = grid_search(space, plan, [c.buffer for c in eval_c])
    feasible = [r for r in ranked if r.feasible]
    assert feasible
    graph = plan.realize(feasible[0].config)
    labels = [clip.label for clip in eval_c]
    clear = np.array([graph.run_clear(c.buffer)["descriptor_vector"] for c in eval_c])
    fhe = np.array([graph.execute(c.buffer).dequantized for c in eval_c])

    # clear vs clear: perfectly replicated by construction
    assert discovery_errors(pair_tests(labels, clear, clear))["error_rate"] == 0.0

    # clear vs simulated circuit on the amplitude-separated pair
    results = [r for r in pair_tests(labels, clear, fhe)
               if r.class_pair[0].endswith("/mean_rms")]
    assert len(results) == 1
    r = results[0]
    assert r.p_clear < 0.05 and r.p_fhe < 0.05
    assert r.outcome == "TP"
    assert discovery_errors(results)["error_rate"] == 0.0
    print(f"PASS: clear-vs-clear error_rate 0; amplitude effect replicated "
          f"(p_clear={r.p_clear:.2e}, p_fhe={r.p_fhe:.2e}, TP)")


def test_rank_test_exact_pvalues():
    """Exact two-sided p-values match enumeration; asymptotic path is close.

    a={1,2,3} vs b={10,11,12}: p = 2/C(6,3) exactly 0.1.  On tie-free
    samples with n=m=10, exact and asymptotic p agree within 0.02.
    """
    p = mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0], method="exact")
    assert p == pytest.approx(0.1, abs=1e-15)
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal(10)
        b = rng.standard_normal(10) + rng.uniform(-1.0, 1.0)
        pe = mann_whitney_u(a, b, method="exact")
        pa = mann_whitney_u(a, b, method="asymptotic")
        worst = max(worst, abs(pe - pa))
    assert worst <= 0.02
    print(f"PASS: exact p(separated 3v3) = 0.1; max |exact - asymptotic| "
          f"at n=m=10 is {worst:.4f} <= 0.02")


def test_l1_saves_accumulator_bits_versus_square():
    """|Re|+|Im| needs one extra bit; Re^2+Im^2 doubles the input width.

    On identical upstream edges of width B, the budget report shows the
    abs-then-sum head at exactly B+1 bits and the square-then-sum head at
    2B+1 bits (the +1 from the two-term sum), for B in 3..7.
    """
    for b in range(3, 8):
        m = (1 << b) - 1  # full-range edge: width_of(m) == b
        edge = EdgeSpec(scale=1.0, v_min=-m, v_max=0, bits=b, signed=True)
        nodes = []
        for sem in ("abs", "square"):
            lut = LutNode(name=f"{sem}_lut", src="input", semantic=sem).bind(
                {"input": edge}, None, None, None)
            red = ReduceNode(name=f"{sem}_sum", src=f"{sem}_lut",
                             op="sum", axis="pair", fan_in=2)
            red.in_spec = lut.out_spec
            red.out_spec = RawSpec(scale=lut.out_spec.scale,
                                   v_lo=2 * lut.out_spec.v_lo,
                                   v_hi=2 * lut.out_spec.v_hi)
            nodes += [lut, red]
        graph = CircuitGraph(kind="stft", approx_label="energy-head probe",
                             bits=BitWidthConfig(b, b, 2, b),
                             input_spec=edge, nodes=nodes,
                             output_node="square_sum")
        widths = {e.node: e.worst_case_bits
                  for e in graph.check_budget().entries}
        assert width_of(edge.max_abs) == b
        assert widths["abs_sum"] == b + 1
        assert widths["square_sum"] == 2 * b + 1
        # the widths are attained by an adversarial full-scale input
        v = np.full((1, 1, 2), -m, dtype=np.int64)  # one clip, one frame
        for sem, want in (("abs", b + 1), ("square", 2 * b + 1)):
            lut = next(n for n in nodes if n.name == f"{sem}_lut")
            red = next(n for n in nodes if n.name == f"{sem}_sum")
            achieved = width_of(int(red.run_int(lut.run_int(v)).max()))
            assert achieved == want
    print("PASS: abs energy head costs B+1 bits, squared head 2B+1, "
          "for B in 3..7, achieved by full-scale inputs")


CLI_BASE = ["--synthetic", "tones", "--clips", "8", "--duration", "0.062",
            "--window", "64", "--hop", "32", "--n-mels", "8",
            "--n-gammatone", "8", "--bits", "5,6,4,5", "--seed", "3"]


def test_cli_reruns_are_byte_identical(tmp_path):
    """Same seed, same flags: every subcommand writes identical bytes twice."""
    commands = {
        "spectrogram": [],
        "descriptors": [],
        "stattest": [],
        "gridsearch": ["--grid", "5,6,4,5;4,5,3,4"],
        "validate-bounds": [],
        "budget": [],
    }
    for command, extra in commands.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            code = main([command, *CLI_BASE, "--out", str(out), *extra])
            assert code == 0, command
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        assert files, command
        match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], files,
                                                   shallow=False)
        assert not mismatch and not errors, (command, mismatch, errors)
    print(f"PASS: {len(commands)} subcommands byte-identical across reruns")
