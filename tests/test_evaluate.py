"""Evaluation tests: distance, rank test vs scipy, discovery, grid search."""

import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from fhespec.approx import Conventional
from fhespec import circuit
from fhespec.circuit import (
    ConvNode,
    MatmulNode,
    build_descriptor_plan,
    build_transform_plan,
)
from fhespec.evaluate import (
    DiscoveryErrorReport,
    EvalError,
    GridSearchResult,
    PairTestResult,
    UndefinedCorrelation,
    conv_feasible,
    default_grid,
    discovery_errors,
    grid_search,
    mann_whitney_u,
    normalized_euclidean,
    pair_tests,
    pearson,
    transform_distance_search,
)
from fhespec.quant import BitWidthConfig
from fhespec.transforms import AudioBuffer, GammatoneSpec, MelSpec, StftConfig

FS = 16000
CFG = StftConfig(64, 32)
MEL = MelSpec(n_mels=8)
GAMMA = GammatoneSpec(n_filters=8)


# Distance ---------------------------------------------------------------------

def test_distance_scale_invariant():
    rng = np.random.default_rng(0)
    s1 = rng.uniform(0.0, 5.0, size=(7, 13))
    assert normalized_euclidean(s1, 3.0 * s1) == pytest.approx(0.0, abs=1e-12)
    assert normalized_euclidean(s1, s1) == 0.0


def test_distance_known_values():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert normalized_euclidean(a, b) == pytest.approx(np.sqrt(2.0))
    assert normalized_euclidean(a, -a) == pytest.approx(2.0)
    assert normalized_euclidean(np.zeros(4), np.zeros(4)) == 0.0
    assert normalized_euclidean(np.zeros(4), np.ones(4)) == 1.0
    with pytest.raises(EvalError):
        normalized_euclidean(np.zeros((2, 2)), np.zeros(3))


def test_distance_bounded_by_two():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = normalized_euclidean(rng.standard_normal(20),
                                 rng.standard_normal(20))
        assert 0.0 <= d <= 2.0


# Mann-Whitney -----------------------------------------------------------------

def test_mw_exact_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 10))
        a = rng.standard_normal(n)
        b = rng.standard_normal(m) + rng.uniform(-1.0, 1.0)
        ours = mann_whitney_u(a, b, method="exact")
        ref = mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
        assert ours == pytest.approx(ref, abs=1e-12)


def test_mw_asymptotic_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.standard_normal(40)
        b = rng.standard_normal(35) + rng.uniform(-0.5, 0.5)
        ours = mann_whitney_u(a, b, method="asymptotic")
        ref = mannwhitneyu(a, b, alternative="two-sided",
                           method="asymptotic").pvalue
        assert ours == pytest.approx(ref, abs=1e-10)


def test_mw_asymptotic_with_ties_against_scipy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.integers(0, 6, size=30).astype(float)
        b = rng.integers(0, 6, size=25).astype(float)
        ours = mann_whitney_u(a, b, method="asymptotic")
        ref = mannwhitneyu(a, b, alternative="two-sided",
                           method="asymptotic").pvalue
        assert ours == pytest.approx(ref, abs=1e-10)


def test_mw_symmetry_and_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(8)
    b = rng.standard_normal(9) + 0.8
    p = mann_whitney_u(a, b)
    assert mann_whitney_u(b, a) == pytest.approx(p, abs=1e-12)
    # ranks are invariant under any strictly increasing transform
    assert mann_whitney_u(np.exp(a), np.exp(b)) == pytest.approx(p, abs=1e-12)


def test_mw_edge_cases():
    assert mann_whitney_u([1.0, 1.0, 1.0], [1.0, 1.0]) == 1.0  # all tied
    # complete separation at small n: smallest possible two-sided p
    p = mann_whitney_u([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
    assert p == pytest.approx(2.0 / 70.0)
    with pytest.raises(EvalError):
        mann_whitney_u([], [1.0])
    with pytest.raises(EvalError):
        mann_whitney_u([1.0], [1.0], method="exact")  # tie blocks exact path
    with pytest.raises(EvalError):
        mann_whitney_u([1.0], [2.0], method="nope")


def test_mw_auto_switchover():
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    assert mann_whitney_u(a, b) == mann_whitney_u(a, b, method="exact")
    a, b = rng.standard_normal(11), rng.standard_normal(10)
    assert mann_whitney_u(a, b) == mann_whitney_u(a, b, method="asymptotic")


# Pearson ----------------------------------------------------------------------

def test_pearson_formula_and_errors():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(50)
    b = 2.0 * a + rng.standard_normal(50) * 0.1
    r = pearson(a, b)
    da, db = a - a.mean(), b - b.mean()
    manual = (da @ db) / np.sqrt((da @ da) * (db @ db))
    assert r == pytest.approx(manual, abs=1e-12)
    assert pearson(a, -a) == pytest.approx(-1.0)
    with pytest.raises(UndefinedCorrelation):
        pearson(a, np.full(50, 3.0))
    with pytest.raises(EvalError):
        pearson([1.0], [2.0])


# Discovery accounting ---------------------------------------------------------

def test_pair_outcomes_partition():
    cases = {
        (0.01, 0.01): "TP",
        (0.01, 0.50): "FN",
        (0.50, 0.01): "FP",
        (0.50, 0.50): "TN",
        (0.05, 0.05): "TN",  # threshold is strict
    }
    for (pc, pf), want in cases.items():
        assert PairTestResult(("a", "b"), pc, pf).outcome == want
    # a looser alpha flips the threshold cases
    assert PairTestResult(("a", "b"), 0.05, 0.05, alpha=0.051).outcome == "TP"


def test_discovery_error_report():
    results = [PairTestResult(("a", "b"), pc, pf) for pc, pf in
               [(0.01, 0.01), (0.01, 0.5), (0.5, 0.01), (0.5, 0.5),
                (0.02, 0.02)]]
    rep = discovery_errors(results)
    assert (rep.tp, rep.fn, rep.fp, rep.tn) == (2, 1, 1, 1)
    assert rep.n == 5 and rep.error_count == 2
    assert rep.error_rate == pytest.approx(0.4)
    d = rep.as_dict()
    assert d["error_percent"] == pytest.approx(40.0)
    assert DiscoveryErrorReport(0, 0, 0, 0).error_rate == 0.0


def test_pair_tests_identical_inputs_have_no_errors():
    rng = np.random.default_rng(8)
    by_class = {
        label: [{n: float(rng.normal(loc)) for n in
                 ("m_gstds", "m_mstds", "mean_rms", "std_rms")}
                for _ in range(12)]
        for label, loc in (("a", 0.0), ("b", 2.0), ("c", 0.1))
    }
    results = pair_tests(by_class, by_class)
    assert len(results) == 3 * 4  # three pairs, four descriptors
    rep = discovery_errors(results)
    assert rep.error_count == 0  # identical p-values can never disagree
    single = pair_tests(by_class, by_class, descriptor="mean_rms")
    assert len(single) == 3


# Grid search ------------------------------------------------------------------

def eval_clips(count, seed):
    rng = np.random.default_rng(seed)
    return [AudioBuffer(rng.standard_normal(992) * rng.uniform(0.2, 1.0), FS)
            for _ in range(count)]


def descriptor_plan(calib):
    plan = build_descriptor_plan(Conventional(), CFG, FS, n_frames=30,
                                 mel=MEL, gamma=GAMMA)
    return plan.calibrate(calib)


def test_default_grid_size():
    grid = default_grid()
    assert len(grid) == 7**4
    assert len(set(grid)) == len(grid)


def test_conv_feasible_prune():
    assert conv_feasible(BitWidthConfig(6, 6, 4, 6), max_taps=63)
    # 1023 * 255 * 127 needs 25 bits: out of budget regardless of calibration
    assert not conv_feasible(BitWidthConfig(8, 6, 8, 6), max_taps=1023)


def test_grid_search_ranking_and_infeasible():
    calib, evalu = eval_clips(6, 20), eval_clips(24, 21)
    space = [BitWidthConfig(6, 7, 4, 5), BitWidthConfig(3, 3, 2, 3),
             BitWidthConfig(5, 6, 4, 8)]  # last one blows the std budget
    results = grid_search(space, descriptor_plan(calib), evalu)
    assert len(results) == 3
    feasible = [r for r in results if r.feasible]
    infeasible = [r for r in results if not r.feasible]
    assert len(feasible) == 2 and len(infeasible) == 1
    assert infeasible[0].config == BitWidthConfig(5, 6, 4, 8)
    assert infeasible[0].reason
    # the generous config tracks the clear descriptors better
    assert feasible[0].config == BitWidthConfig(6, 7, 4, 5)
    assert feasible[0].mean_r >= feasible[1].mean_r
    assert set(feasible[0].per_descriptor_r) == {
        "m_gstds", "m_mstds", "mean_rms", "std_rms"}
    # infeasible results sort after feasible ones and carry no correlation
    assert results[:2] == feasible
    assert infeasible[0].mean_r is None


def test_grid_search_deterministic():
    calib, evalu = eval_clips(4, 22), eval_clips(10, 23)
    space = [BitWidthConfig(5, 6, 3, 4), BitWidthConfig(4, 5, 3, 4)]
    r1 = grid_search(space, descriptor_plan(calib), evalu)
    r2 = grid_search(list(reversed(space)), descriptor_plan(calib), evalu)
    assert r1 == r2


def test_grid_search_quantizes_each_weight_width_once(monkeypatch):
    calib, evalu = eval_clips(4, 26), eval_clips(6, 27)
    space = [BitWidthConfig(*t)
             for t in itertools.product((4, 6), (5, 7), range(2, 9), (4, 5))]
    calls = Counter()
    quantize = circuit.quantize_weights

    def counting(w, bits):
        calls[id(w), bits] += 1
        return quantize(w, bits)

    monkeypatch.setattr(circuit, "quantize_weights", counting)
    plan = descriptor_plan(calib)
    results = grid_search(space, plan, evalu)
    banks = sum(isinstance(n, (ConvNode, MatmulNode)) for n in plan.nodes)
    widths = {b.weight_bits for b in space}
    assert len(space) >= 50 and banks == 3
    assert max(calls.values()) == 1
    assert sum(calls.values()) <= banks * len(widths)
    # the cached banks change nothing: a fresh plan per config ranks the same
    fresh = [grid_search([bits], descriptor_plan(calib), evalu)[0] for bits in space]
    ranked = sorted((r for r in fresh if r.feasible),
                    key=lambda r: (-r.mean_r, r.config.as_tuple()))
    assert results == ranked + [r for r in fresh if not r.feasible]
    assert ranked  # some configs realize


def test_grid_search_all_infeasible_reported():
    calib, evalu = eval_clips(3, 24), eval_clips(4, 25)
    space = [BitWidthConfig(8, 6, 8, 6)]
    # 63-tap convolution at 8/8 bits exceeds the accumulator budget
    results = grid_search(space, descriptor_plan(calib), evalu)
    assert results == [GridSearchResult(BitWidthConfig(8, 6, 8, 6), False,
                                        reason="accumulator bound")]


def test_grid_search_validates_inputs():
    plan = descriptor_plan(eval_clips(2, 0))
    with pytest.raises(EvalError):
        grid_search([], plan, eval_clips(2, 1))
    with pytest.raises(EvalError):
        grid_search([BitWidthConfig(5, 6, 3, 4)], plan, [])


def test_transform_distance_search_orders_by_fidelity():
    calib, evalu = eval_clips(4, 26), eval_clips(6, 27)
    space = [BitWidthConfig(3, 3, 2, 3), BitWidthConfig(6, 8, 4, 8)]
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    scored = transform_distance_search(space, plan.calibrate(calib), evalu)
    assert len(scored) == 2
    assert scored[0][0] == BitWidthConfig(6, 8, 4, 8)  # best first
    assert scored[0][1] < scored[1][1]
    assert all(0.0 <= d <= 2.0 for _, d in scored)
