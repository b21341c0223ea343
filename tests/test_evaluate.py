"""Evaluation tests: distance, rank test vs scipy, discovery, grid search."""

import ctypes
import io
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu, rankdata

from fhespec.approx import Conventional, Dilation, L1Energy, Poorman
from fhespec import circuit, cli, evaluate
from fhespec.circuit import (
    DESCRIPTOR_NAMES,
    BudgetViolation,
    ConvNode,
    MatmulNode,
    SWEEP_ORDER,
    Sweep,
    build_descriptor_plan,
    build_transform_plan,
)
from fhespec.evaluate import (
    _asymptotic_p,
    _exact_p,
    _midranks,
    EvalError,
    GridSearchResult,
    PairTestResult,
    conv_feasible,
    default_grid,
    discovery_errors,
    grid_search,
    mann_whitney_u,
    normalized_euclidean,
    pair_tests,
    pearson,
    transform_distance_search,
    write_grid_json,
    write_matrix_csv,
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
    # at most 18 tie-free observations: the exact path
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 10))
        a = rng.standard_normal(n)
        b = rng.standard_normal(m) + rng.uniform(-1.0, 1.0)
        ours = mann_whitney_u(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
        assert ours == pytest.approx(ref, abs=1e-12)


def test_mw_asymptotic_against_scipy():
    # 75 observations: the normal approximation
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.standard_normal(40)
        b = rng.standard_normal(35) + rng.uniform(-0.5, 0.5)
        ours = mann_whitney_u(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided",
                           method="asymptotic").pvalue
        assert ours == pytest.approx(ref, abs=1e-10)


def test_mw_asymptotic_with_ties_against_scipy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.integers(0, 6, size=30).astype(float)
        b = rng.integers(0, 6, size=25).astype(float)
        ours = mann_whitney_u(a, b)
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


@settings(max_examples=200)
@given(st.integers(1, 60).flatmap(lambda n: st.lists(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 7.25]),
    min_size=n, max_size=n)))
def test_midranks_equal_scipy_rankdata(values):
    """Tie-heavy samples: exact float64 midranks and the np.unique counts."""
    x = np.array(values)
    ranks, sizes = _midranks(x)
    assert np.array_equal(ranks, rankdata(x))
    assert np.array_equal(sizes, np.unique(x, return_counts=True)[1])


def test_mw_nonfinite_small_sample_raises():
    # the exact path used to fail with a bare "cannot convert float NaN"
    with pytest.raises(EvalError, match="sample a contains non-finite"):
        mann_whitney_u([1.0, np.nan, 3.0], [2.0, 5.0])
    with pytest.raises(EvalError, match="sample b contains non-finite"):
        mann_whitney_u([1.0, 3.0], [2.0, np.inf])


def test_mw_nonfinite_large_sample_raises():
    # above 20 pooled samples a NaN used to give p = 1.0 silently
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal(15), rng.standard_normal(15) + 3.0
    assert mann_whitney_u(a, b) < 1e-4
    b[4] = np.nan
    with pytest.raises(EvalError, match="sample b contains non-finite"):
        mann_whitney_u(a, b)


def test_pearson_nonfinite_raises():
    a = np.arange(6, dtype=np.float64).reshape(1, 6, 1)
    for bad in (np.nan, np.inf, -np.inf):
        b = a * 2.0
        b[0, 2, 0] = bad
        with pytest.raises(EvalError, match="pearson input b contains non-finite"):
            pearson(a, b)
        with pytest.raises(EvalError, match="pearson input a contains non-finite"):
            pearson(b, a)


def u_statistic(a, b):
    """U of sample a and the tie-group sizes of the pooled sample."""
    ranks, sizes = _midranks(np.concatenate([a, b]))
    return ranks[:len(a)].sum() - len(a) * (len(a) + 1) / 2.0, sizes


def test_mw_auto_switchover():
    """Exact up to `EXACT_MW_POOLED_MAX` tie-free observations, the normal
    approximation above it or with a tie."""
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal(10), rng.standard_normal(10)
    u1, _ = u_statistic(a, b)
    assert mann_whitney_u(a, b) == _exact_p(u1, 10, 10)
    a, b = rng.standard_normal(11), rng.standard_normal(10)
    u1, sizes = u_statistic(a, b)
    assert mann_whitney_u(a, b) == _asymptotic_p(u1, 11, 10, sizes)
    a, b = np.array([1.0, 2.0, 3.0]), np.array([3.0, 4.0])  # one tie, 5 pooled
    u1, sizes = u_statistic(a, b)
    assert mann_whitney_u(a, b) == _asymptotic_p(u1, 3, 2, sizes)
    assert mann_whitney_u(a, b) != _exact_p(u1, 3, 2)


# Pearson ----------------------------------------------------------------------

def column(x):
    """A vector as a stack of one arm with one column."""
    return np.asarray(x, dtype=np.float64).reshape(1, -1, 1)


def test_pearson_formula_and_errors():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(50)
    b = 2.0 * a + rng.standard_normal(50) * 0.1
    r = pearson(column(a), column(b))
    assert r.shape == (1, 1)
    da, db = a - a.mean(), b - b.mean()
    manual = (da @ db) / np.sqrt((da @ da) * (db @ db))
    assert r[0, 0] == pytest.approx(manual, abs=1e-12)
    assert pearson(column(a), column(-a))[0, 0] == pytest.approx(-1.0)
    assert np.isnan(pearson(column(a), column(np.full(50, 3.0)))[0, 0])
    with pytest.raises(EvalError):
        pearson(column([1.0]), column([2.0]))
    with pytest.raises(EvalError, match="equal-shape"):
        pearson(a, b)  # a vector is not a stack


def assert_columns_equal_corrcoef_of_the_stack(a, b):
    """Column j of `pearson` of the one-arm stacks of the (n, k) arrays a
    and b equals `np.corrcoef` of the (n, 2k) stack [a | b] at [j, k + j]
    bit for bit, and is nan, with no warning, for a column constant on
    either side.  The stack goes to `np.corrcoef` as 2k C-contiguous rows,
    the order in which `pearson` sums each row's mean.  A one-column stack
    equals the 1-D `np.corrcoef` of its pair bit for bit."""
    k = a.shape[1]
    r = pearson(a[None], b[None])
    assert r.shape == (1, k)
    r = r[0]
    constant = (np.ptp(a, axis=0) == 0.0) | (np.ptp(b, axis=0) == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.corrcoef(np.ascontiguousarray(np.concatenate([a, b], axis=1).T))
    want = np.where(constant, np.nan, c[np.arange(k), k + np.arange(k)])
    assert np.array_equal(r, want, equal_nan=True)
    for j in np.flatnonzero(~constant):
        assert (pearson(column(a[:, j]), column(b[:, j]))[0, 0]
                == np.corrcoef(a[:, j], b[:, j])[0, 1])


@settings(max_examples=60)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       const_a=st.lists(st.booleans(), min_size=4, max_size=4),
       const_b=st.lists(st.booleans(), min_size=4, max_size=4))
def test_pearson_columns_equal_corrcoef_of_the_stacked_pair(n, seed, const_a, const_b):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, 4)) * rng.uniform(0.1, 10.0, 4)
    b = a + rng.standard_normal((n, 4)) * rng.uniform(0.01, 3.0, 4)
    a[:, const_a] = 0.1  # a repeated value whose mean need not be exact
    b[:, const_b] = rng.uniform(-1.0, 1.0)
    assert_columns_equal_corrcoef_of_the_stack(a, b)
    with pytest.raises(EvalError, match="equal-shape"):
        pearson(a[None], b[None, :, :3])


def test_pearson_column_may_differ_from_a_one_column_stack_in_the_last_bit():
    """A fixed case where BLAS rounds the product of the 12-row stack and of
    a 2-row pair differently: column 5 came out 1.0 in the six-column stack
    and 0.9999999999999999 in the one-column stack of the same pair (NumPy
    2.4.6, OpenBLAS 0.3.31).  Each still equals its own `np.corrcoef`."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((1, 2, 6)) * 73
    b = np.round((a + rng.standard_normal((1, 2, 6)) * 73 * 0.3) / 73) * 73
    assert_columns_equal_corrcoef_of_the_stack(a[0], b[0])


@settings(max_examples=80)
@given(m=st.integers(1, 30), n=st.integers(2, 64), k=st.integers(1, 6),
       scale=st.floats(1e-3, 1e3), bits=st.integers(1, 8),
       const_share=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([None, None, None, "a", "b"]))
def test_pearson_stack_equals_corrcoef_per_arm(m, n, k, scale, bits, const_share,
                                                seed, bad):
    """Each row of the stack's result equals `np.corrcoef` of its own arm's
    2k rows bit for bit, and is nan for a column constant on either side.
    The second arm holds dequantized codes, as the grid search's arms do.
    A stack of one arm gives that arm's row, and a stack of one arm and
    one column equals the 1-D `np.corrcoef`."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n, k)) * scale
    step = scale * 2.0 ** (2 - bits)
    b = np.round((a + rng.standard_normal((m, n, k)) * scale * 0.3) / step) * step
    a.transpose(0, 2, 1)[rng.random((m, k)) < const_share] = 0.1 * scale  # constant columns
    b.transpose(0, 2, 1)[rng.random((m, k)) < const_share] = step
    if bad is not None:
        arm = a if bad == "a" else b
        arm[rng.integers(m), rng.integers(n), rng.integers(k)] = rng.choice(
            [np.nan, np.inf, -np.inf])
        with pytest.raises(EvalError, match=f"pearson input {bad} contains non-finite"):
            pearson(a, b)
        return
    r = pearson(a, b)
    assert r.shape == (m, k)
    constant = (np.ptp(a, axis=1) == 0.0) | (np.ptp(b, axis=1) == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(m):
            c = np.corrcoef(np.ascontiguousarray(np.concatenate([a[i], b[i]], axis=1).T))
            want = np.where(constant[i], np.nan, c[np.arange(k), k + np.arange(k)])
            assert np.array_equal(r[i], want, equal_nan=True)
            assert np.array_equal(pearson(a[i:i + 1], b[i:i + 1])[0], want,
                                  equal_nan=True)
    x, y = a[0, :, 0], b[0, :, 0]
    if constant[0, 0]:
        assert np.isnan(pearson(column(x), column(y))[0, 0])
    else:
        assert pearson(column(x), column(y))[0, 0] == np.corrcoef(x, y)[0, 1]


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
    d = discovery_errors(results)
    assert (d["TP"], d["FN"], d["FP"], d["TN"]) == (2, 1, 1, 1)
    assert d["n"] == 5 and d["error_count"] == 2
    assert d["error_rate"] == pytest.approx(0.4)
    assert d["error_percent"] == pytest.approx(40.0)
    assert discovery_errors([])["error_rate"] == 0.0


def test_pair_tests_identical_inputs_have_no_errors():
    rng = np.random.default_rng(8)
    labels = [label for label in ("a", "b", "c") for _ in range(12)]
    arm = np.array([[rng.normal(loc) for _ in range(4)]
                    for loc in (0.0, 2.0, 0.1) for _ in range(12)])
    results = pair_tests(labels, arm, arm)
    assert len(results) == 3 * 4  # three pairs, four descriptors
    assert discovery_errors(results)["error_count"] == 0  # identical p-values never disagree
    single = [r for r in results if r.class_pair[0].endswith("/mean_rms")]
    assert len(single) == 3


# Labels mixing case, accents, other scripts and characters beyond the BMP
LABELS = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00/"),
                 min_size=1, max_size=3) | st.sampled_from(("a", "A", "b", "B", "é", "É",
                                                            "ß", "Ω", "ω", "中", "😀"))


@settings(max_examples=100)
@given(labels=st.lists(LABELS, min_size=1, max_size=10), seed=st.integers(0, 2**32 - 1))
def test_pair_tests_run_over_the_np_unique_pairs(labels, seed):
    """The results run over the class pairs in the order of `np.unique`'s
    sorted classes, then over the descriptors."""
    arm = np.random.default_rng(seed).standard_normal((len(labels), 4))
    got = [r.class_pair for r in pair_tests(labels, arm, arm)]
    want = [(f"{a}/{name}", f"{b}/{name}")
            for a, b in itertools.combinations(np.unique(labels), 2)
            for name in DESCRIPTOR_NAMES]
    assert got == want


def _by_unordered_pair(results, name=lambda label: label) -> dict:
    """{({class names}, descriptor): (p_clear, p_fhe, outcome)}, with the
    p-values as their exact bits and the classes renamed by `name`."""
    keyed = {}
    for r in results:
        (a, descriptor), (b, _) = (side.rsplit("/", 1) for side in r.class_pair)
        keyed[frozenset((name(a), name(b))), descriptor] = (
            r.p_clear.hex(), r.p_fhe.hex(), r.outcome)
    assert len(keyed) == len(results)
    return keyed


# tie-free floats take the exact U distribution, small integers the
# tie-corrected normal approximation
ARM_VALUES = st.floats(-1e3, 1e3) | st.integers(-2, 2).map(float)


@settings(max_examples=100)
@given(data=st.data(), names=st.lists(LABELS, min_size=2, max_size=4, unique=True))
def test_pair_tests_do_not_depend_on_the_class_names(data, names):
    """Renaming the classes by any bijection reorders the class pairs and
    may swap the two sides of one, but leaves every unordered pair's and
    descriptor's p-values and outcome as they were, bit for bit."""
    k = len(names)
    renamed = data.draw(st.permutations(names) | st.lists(
        LABELS, min_size=k, max_size=k, unique=True))
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
    labels = [name for name, size in zip(names, sizes) for _ in range(size)]
    clear, fhe = (np.array(data.draw(st.lists(st.lists(ARM_VALUES, min_size=4, max_size=4),
                                              min_size=len(labels), max_size=len(labels))))
                  for _ in range(2))
    rename = dict(zip(names, renamed))
    assert (_by_unordered_pair(pair_tests([rename[x] for x in labels], clear, fhe))
            == _by_unordered_pair(pair_tests(labels, clear, fhe), rename.get))


# Grid search ------------------------------------------------------------------

def eval_clips(count, seed):
    rng = np.random.default_rng(seed)
    return [AudioBuffer(rng.standard_normal(992) * rng.uniform(0.2, 1.0), FS)
            for _ in range(count)]


def descriptor_plan(calib, approx=Conventional()):
    plan = build_descriptor_plan(approx, CFG, FS, n_frames=30, mel=MEL, gamma=GAMMA)
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


def test_grid_search_builds_each_edge_and_budget_entry_once(monkeypatch):
    calib, evalu = eval_clips(4, 26), eval_clips(6, 27)
    space = [BitWidthConfig(*t)
             for t in itertools.product((4, 6), (5, 7), range(2, 9), (4, 5))]
    edges, binds, entries = Counter(), Counter(), Counter()
    from_range = circuit.EdgeSpec.from_range

    def counting_range(cls, lo, hi, bits, signed):
        edges[lo, hi, bits, signed] += 1
        return from_range(lo, hi, bits, signed)

    def counting(method, calls):
        def counted(node, *args, **kwargs):
            calls[node.name] += 1
            return method(node, *args, **kwargs)
        return counted

    monkeypatch.setattr(circuit.EdgeSpec, "from_range", classmethod(counting_range))
    for cls in vars(circuit).values():
        if isinstance(cls, type) and issubclass(cls, circuit.Node):
            for attr, calls in (("bind", binds), ("budget_entry", entries)):
                if attr in vars(cls):
                    monkeypatch.setattr(cls, attr, counting(vars(cls)[attr], calls))
    plan = descriptor_plan(calib)
    results = grid_search(space, plan, evalu)
    assert any(r.feasible for r in results) and not all(r.feasible for r in results)
    # each quantized edge once per (range, width), each budget entry once per bind
    assert max(edges.values()) == 1
    assert entries == binds
    # a config rebinds the nodes whose widths changed, not the whole plan
    assert sum(binds.values()) < len(space) * len(plan.nodes) / 2


def subspace(widths):
    return sorted(BitWidthConfig(*t) for t in itertools.product(*widths))


@settings(max_examples=15)
@given(approx=st.sampled_from([Conventional(), Dilation(rate=4), Poorman(roots=4),
                               L1Energy()]),
       widths=st.lists(st.sets(st.integers(2, 8), min_size=1, max_size=2),
                       min_size=4, max_size=4),
       data=st.data())
def test_sweep_equals_fresh_realizes(approx, widths, data):
    configs = subspace(widths)
    space = data.draw(st.permutations(configs + configs[:3]))  # repeats, shuffled
    calib, evalu = eval_clips(3, 28), eval_clips(3, 29)
    fresh = {}  # config -> (to_json or None, budget report, results or message)
    fresh_results = []

    def expected(bits):
        if bits not in fresh:
            fresh_plan = descriptor_plan(calib, approx)
            fresh_results.extend(grid_search([bits], fresh_plan, evalu))
            try:
                want = fresh_plan.realize(bits)
            except BudgetViolation as exc:
                fresh[bits] = None, exc.report.as_dict(), str(exc)
            else:
                fresh[bits] = (want.to_json(), want.check_budget().as_dict(),
                               [want.execute(buf) for buf in evalu])
        return fresh[bits]

    def check(bits, graph, violation, sweep):
        want_json, want_report, refs = expected(bits)
        if want_json is None:
            assert graph is None and str(violation) == refs
            assert violation.report.as_dict() == want_report
            return
        assert violation is None
        assert graph.to_json() == want_json
        assert graph.check_budget().as_dict() == want_report
        got = sweep.execute()
        for i, ref in enumerate(refs):
            assert np.array_equal(got[i], ref.dequantized)

    sweep = Sweep(descriptor_plan(calib, approx), evalu)
    visited = []
    for bits, graph, violation in sweep.visit(space):
        visited.append(bits)
        # one slot per node, its depth at least that of each of its inputs
        slots = sweep.slots
        assert set(slots) == {"input", *(n.name for n in sweep.plan.nodes)}
        assert slots["input"].depth == 1
        assert all(slots[s].depth <= slots[n.name].depth
                   for n in sweep.plan.nodes for s in n.inputs)
        for slot in slots.values():
            # a kept value spans the whole batch of evaluation clips
            if isinstance(slot.value, np.ndarray):
                assert len(slot.value) == len(evalu)
        check(bits, graph, violation, sweep)
    assert sorted(visited) == configs

    # realizes called directly: in the drawn order, with repeats, a
    # violation in between and a realize whose last bind raised
    def realize(bits):
        try:
            return sweep.realize(bits), None
        except BudgetViolation as exc:
            return None, exc

    class Injected(RuntimeError):
        pass

    def failing(node, *args):
        raise Injected

    over = BitWidthConfig(5, 6, 4, 8)  # 30 * 255^2 blows the std accumulators
    assert expected(over)[0] is None
    sweep = Sweep(descriptor_plan(calib, approx), evalu)
    check(space[0], *realize(space[0]), sweep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit.ConcatNode, "bind", failing)
        with pytest.raises(Injected):  # every node but the last one rebinds first
            sweep.realize(space[0]._replace(input_bits=space[0].input_bits + 1))
    with pytest.raises(circuit.CircuitError, match="no realized graph"):
        sweep.execute()
    for i, bits in enumerate([space[0], *space]):
        check(bits, *realize(bits), sweep)
        if i % 3 == 1:
            check(over, *realize(over), sweep)

    # the search over the whole space ranks like a fresh plan per config
    fresh_results = sorted((r for r in fresh_results if r.config in configs),
                           key=lambda r: r.config)
    ranked = sorted((r for r in fresh_results if r.feasible),
                    key=lambda r: (-r.mean_r, r.config.as_tuple()))
    assert grid_search(space, descriptor_plan(calib, approx), evalu) == \
        ranked + [r for r in fresh_results if not r.feasible]


# the descriptor plan's nodes that read an output width, and only these
DEPTH_4 = {"mean_rms", "std_rms", "m_mstds", "m_gstds", "descriptor_vector"}


def test_sweep_visits_configs_in_field_order_of_first_read():
    calib, evalu = eval_clips(3, 30), eval_clips(2, 31)
    sweep = Sweep(descriptor_plan(calib), evalu)
    configs = subspace([(3, 4), (3, 5), (2, 3), (3, 4)])
    visited = [bits for bits, _, _ in sweep.visit(configs)]
    assert visited == sorted(configs, key=lambda b: (b.input_bits, b.weight_bits,
                                                     b.mid_bits, b.output_bits))
    # the sweep order covers the config; an output width is read by the
    # normalize tables and the concat alone
    assert sorted(SWEEP_ORDER) == sorted(BitWidthConfig._fields)
    depth = {name: slot.depth for name, slot in sweep.slots.items()}
    assert (depth["input"], depth["stft_conv"], depth["mel_stds"]) == (1, 2, 3)
    assert {name for name, d in depth.items() if d == 4} == DEPTH_4


def test_sweep_rebinds_the_nodes_deeper_than_the_shared_prefix():
    sweep = Sweep(descriptor_plan(eval_clips(3, 30)), eval_clips(2, 31))
    a = BitWidthConfig(input_bits=4, output_bits=4, weight_bits=5, mid_bits=3)
    sweep.realize(a)
    before = {name: slot.node for name, slot in sweep.slots.items()}
    sweep.realize(a._replace(output_bits=5))  # shares the first three widths
    rebound = {name for name, slot in sweep.slots.items() if slot.node is not before[name]}
    assert rebound == DEPTH_4
    before = {name: slot.node for name, slot in sweep.slots.items()}
    sweep.realize(a._replace(input_bits=5, output_bits=5))  # shares no prefix
    assert all(slot.node is not before[name] for name, slot in sweep.slots.items())


# every slot's depth in the descriptor plan: the input edge, the two convs
# (weight width), the nodes on an intermediate edge and those of DEPTH_4
DEPTHS = {"input": 1, "stft_conv": 2, "gamma_conv": 2,
          **{name: 4 for name in DEPTH_4},
          **{name: 3 for name in (
              "stft_conv_requant", "stft_energy", "stft_energy_sum", "stft_power",
              "rms_mean_power", "rms", "mean_rms_sum", "std_rms_val", "mel_matmul",
              "mel_spec", "mel_stds", "m_mstds_sum", "gamma_conv_requant",
              "gamma_energy", "gamma_spec", "gamma_stds", "m_gstds_sum")}}


def test_sweep_keeps_one_run_list_per_shared_prefix():
    """The run list of prefix length k holds the slots deeper than k, in
    plan order with the input edge first: the slots `realize` rebinds at a
    config sharing k widths with the last one, and those `execute` reruns.
    `execute` refuses before any realize, after a refused config and after
    a failed bind, since then no realized graph matches the slots."""
    plan = descriptor_plan(eval_clips(3, 30))
    sweep = Sweep(plan, eval_clips(2, 31))
    with pytest.raises(circuit.CircuitError, match="no realized graph"):
        sweep.execute()
    fits, over = BitWidthConfig(4, 4, 5, 3), BitWidthConfig(5, 6, 4, 8)
    sweep.realize(fits)
    order = ["input", *(n.name for n in plan.nodes)]
    for k in range(len(SWEEP_ORDER) + 1):
        assert [s.name for s in sweep.runs[k].slots] == \
            [name for name in order if DEPTHS[name] > k]
    with pytest.raises(BudgetViolation):
        sweep.realize(over)
    with pytest.raises(circuit.CircuitError, match="no realized graph"):
        sweep.execute()
    sweep.realize(fits)
    want = sweep.execute()

    def failing(node, *args):
        raise RuntimeError("injected")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit.ConcatNode, "bind", failing)
        with pytest.raises(RuntimeError, match="injected"):
            sweep.realize(fits._replace(output_bits=5))
    with pytest.raises(circuit.CircuitError, match="no realized graph"):
        sweep.execute()
    sweep.realize(fits)
    assert np.array_equal(sweep.execute(), want)


def _shared_prefix(a, b) -> int:
    if a is None:
        return 0
    fields = [getattr(a, f) == getattr(b, f) for f in SWEEP_ORDER]
    return fields.index(False) if False in fields else len(fields)


@settings(max_examples=10)
@given(data=st.data())
def test_sweep_binds_and_runs_only_the_changed_nodes(data):
    """Each node's `bind` and `step` calls, counted per config over a
    shuffled subspace, visited and then realized in a drawn order: a config
    binds exactly the slots deeper than the prefix it shares with the last
    realized config (refused ones included), and every slot after a failed
    bind; a feasible config runs exactly the nodes bound since they last
    ran, which are the ones it rebound plus those a refused config before
    it rebound.  Every config with 8 intermediate bits is refused, so
    refusals and feasible configs alternate."""
    configs = subspace([(3, 5), (3, 4), (3, 8), (4, 8)])
    calib, evalu = eval_clips(3, 30), eval_clips(2, 31)
    bound, ran = [], []  # node names, in call order

    def counting(method, calls):
        def counted(node, *args):
            calls.append(node.name)
            return method(node, *args)
        return counted

    class Injected(RuntimeError):
        pass

    def failing(node, *args):
        raise Injected

    def expect(sweep, last, bits, stale, step):
        """Run `step` (a realize or visit step) and check its binds and runs."""
        before = {name: slot.node for name, slot in sweep.slots.items()}
        bound.clear()
        graph, violation = step()
        deeper = {name for name, d in DEPTHS.items() if d > _shared_prefix(last, bits)}
        assert sorted(bound) == sorted(deeper - {"input"})
        assert {n for n, s in sweep.slots.items() if s.node is not before[n]} == deeper
        assert (violation is not None) == (bits.mid_bits == 8)
        assert (graph is None) == (violation is not None)
        stale |= deeper
        if graph is not None:
            ran.clear()
            sweep.execute()
            assert sorted(ran) == sorted(stale - {"input"})
            stale.clear()

    def realize(sweep, bits):
        try:
            return sweep.realize(bits), None
        except BudgetViolation as exc:
            return None, exc

    with pytest.MonkeyPatch.context() as mp:
        for cls in (circuit.ConvNode, circuit.MatmulNode, circuit.LutNode,
                    circuit.ReduceNode, circuit.StdNode, circuit.ConcatNode):
            mp.setattr(cls, "bind", counting(cls.bind, bound))
            mp.setattr(cls, "step", counting(cls.step, ran))

        sweep, last, stale = Sweep(descriptor_plan(calib), evalu), None, set()
        steps = sweep.visit(data.draw(st.permutations(configs)))
        for bits in sorted(configs, key=lambda b: [getattr(b, f) for f in SWEEP_ORDER]):
            expect(sweep, last, bits, stale, lambda: next(steps)[1:])
            last = bits
        assert {n: s.depth for n, s in sweep.slots.items()} == DEPTHS

        # a fresh sweep in a drawn order, with repeats, and the last bind
        # failing at a drawn config that rebinds the concat: any but a
        # repeat, the first one (before any depth is learned) included
        order = data.draw(st.permutations(configs + configs[:4]))
        fail_at = data.draw(st.sampled_from(
            [i for i, bits in enumerate(order) if i == 0 or bits != order[i - 1]]))
        sweep, last, stale = Sweep(descriptor_plan(calib), evalu), None, set()
        for i, bits in enumerate(order):
            if i == fail_at:
                with pytest.MonkeyPatch.context() as inject:
                    inject.setattr(circuit.ConcatNode, "bind", failing)
                    with pytest.raises(Injected):
                        sweep.realize(bits)
                last = None  # the next config rebinds every slot
            expect(sweep, last, bits, stale, lambda: realize(sweep, bits))
            last = bits


def test_transform_distance_search_runs_the_clear_arm_once_per_clip(monkeypatch):
    """A search runs its clear arm once, over all evaluation clips as one
    batch: the plan's convolution runs one clear call on a (B, L) batch,
    and no per-clip `run_clear` runs."""
    calib, evalu = eval_clips(4, 26), eval_clips(5, 27)
    space = [BitWidthConfig(3, 3, 2, 3), BitWidthConfig(4, 5, 3, 4),
             BitWidthConfig(4, 6, 3, 4), BitWidthConfig(6, 8, 4, 8)]
    plan = build_transform_plan("mel", Conventional(), CFG, FS, mel=MEL).calibrate(calib)
    run_clear, conv_clear = circuit.CircuitGraph.run_clear, circuit.ConvNode.clear
    calls, batches = Counter(), []

    def counting(graph, buf):
        calls[id(buf)] += 1
        return run_clear(graph, buf)

    def conv_counting(node, x):
        batches.append(x.shape)
        return conv_clear(node, x)

    monkeypatch.setattr(circuit.CircuitGraph, "run_clear", counting)
    monkeypatch.setattr(circuit.ConvNode, "clear", conv_counting)
    scored = transform_distance_search(space, plan, evalu)
    assert calls == Counter()
    assert batches == [(len(evalu), len(evalu[0].samples))]
    # each score is the distance of that config's own clear and integer arms
    want = []
    for bits in space:
        graph = plan.realize(bits)
        want.append((bits, float(np.mean([
            normalized_euclidean(run_clear(graph, buf)[graph.output_node],
                                 graph.execute(buf).dequantized) for buf in evalu]))))
    assert scored == sorted(want, key=lambda t: (t[1], t[0].as_tuple()))


def test_grid_search_all_infeasible_reported():
    calib, evalu = eval_clips(3, 24), eval_clips(4, 25)
    space = [BitWidthConfig(8, 6, 8, 6)]
    # 63-tap convolution at 8/8 bits exceeds the accumulator budget
    results = grid_search(space, descriptor_plan(calib), evalu)
    assert results == [GridSearchResult(BitWidthConfig(8, 6, 8, 6),
                                        reason="accumulator bound")]
    assert not results[0].feasible


def test_grid_search_validates_inputs():
    plan = descriptor_plan(eval_clips(2, 0))
    with pytest.raises(EvalError):
        grid_search([], plan, eval_clips(2, 1))
    with pytest.raises(EvalError):
        grid_search([BitWidthConfig(5, 6, 3, 4)], plan, [])
    with pytest.raises(EvalError, match="at least 2 evaluation clips, got 1"):
        grid_search([BitWidthConfig(5, 6, 3, 4)], plan, eval_clips(1, 1))


def test_transform_distance_search_orders_by_fidelity():
    calib, evalu = eval_clips(4, 26), eval_clips(6, 27)
    space = [BitWidthConfig(3, 3, 2, 3), BitWidthConfig(6, 8, 4, 8)]
    plan = build_transform_plan("stft", Conventional(), CFG, FS)
    scored = transform_distance_search(space, plan.calibrate(calib), evalu)
    assert len(scored) == 2
    assert scored[0][0] == BitWidthConfig(6, 8, 4, 8)  # best first
    assert scored[0][1] < scored[1][1]
    assert all(0.0 <= d <= 2.0 for _, d in scored)
    assert len(transform_distance_search(space, plan, evalu[:1])) == 2  # one clip is enough
    with pytest.raises(EvalError, match="evaluation clips"):
        transform_distance_search(space, plan, [])


def test_grid_search_scores_every_config_with_one_pearson_call(monkeypatch):
    calib, evalu = eval_clips(4, 22), eval_clips(10, 23)
    space = subspace([(4, 6), (5, 7), (3, 4), (4, 5)])
    calls = []
    score = evaluate.pearson

    def counting(a, b):
        calls.append(np.shape(b))
        return score(a, b)

    monkeypatch.setattr(evaluate, "pearson", counting)
    results = grid_search(space, descriptor_plan(calib), evalu)
    feasible = sum(r.feasible for r in results)
    assert feasible >= 2
    assert calls == [(feasible, len(evalu), len(DESCRIPTOR_NAMES))]


def test_transform_distance_search_scores_each_config_before_the_next_executes(
        monkeypatch):
    calib, evalu = eval_clips(4, 26), eval_clips(3, 27)
    space = [BitWidthConfig(3, 3, 2, 3), BitWidthConfig(4, 5, 3, 4),
             BitWidthConfig(6, 8, 4, 8)]
    plan = build_transform_plan("mel", Conventional(), CFG, FS, mel=MEL).calibrate(calib)
    events = []
    execute, distance = Sweep.execute, evaluate.normalized_euclidean

    def logged_execute(sweep):
        events.append("execute")
        return execute(sweep)

    def logged_distance(a, b):
        events.append("distance")
        return distance(a, b)

    monkeypatch.setattr(Sweep, "execute", logged_execute)
    monkeypatch.setattr(evaluate, "normalized_euclidean", logged_distance)
    scored = transform_distance_search(space, plan, evalu)
    assert len(scored) == len(space)
    assert events == (["execute"] + ["distance"] * len(evalu)) * len(space)


# Allocator policy -------------------------------------------------------------

def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# The `grid` workload's setup (see perfbench/workloads.py), searched twice in
# one process under the CLI's allocator policy: prints the minor page faults
# of each pass.
FAULT_PROBE = """
import resource, sys
from fhespec import cli
from fhespec.evaluate import grid_search
cli.fix_allocator_thresholds()
settings = cli.resolve_settings(cli.build_parser().parse_args(sys.argv[1:]))
calib, evalu, _ = cli.gather_clips(settings)
plan, evalu = cli._descriptor_plan(settings, calib, evalu)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    grid_search(settings["grid_configs"], plan, [c.buffer for c in evalu])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
GRID_ARGV = ("gridsearch", "--grid", "full", "--synthetic", "tones,noise",
             "--clips", "4", "--duration", "0.25", "--window", "256", "--hop", "128",
             "--n-mels", "32", "--n-gammatone", "32", "--seed", "3")


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_warm_grid_search_faults_no_pages_in(tmp_path):
    """Under the CLI's fixed allocator thresholds, a second search over the
    `grid` workload keeps the heap the first one grew: its steps fault
    (almost) no pages in.  Under glibc's moving thresholds each step that
    frees its intermediate-width arrays gives the heap top back, and the
    second pass faults about 9K pages.  It runs in a fresh interpreter, so
    no earlier test has moved the thresholds."""
    src = str(Path(sys.modules["fhespec"].__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE, *GRID_ARGV,
                          "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    first, second = map(int, out.stdout.split())
    assert second <= 256, (first, second)


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: object(), _no_c_library],
                         ids=["no-mallopt", "no-libc"])
def test_allocator_policy_is_skipped_without_mallopt(monkeypatch, tmp_path, cdll):
    """Where the C library has no `mallopt`, or none can be loaded, the
    policy helper returns quietly and the CLI runs as before."""
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli.fix_allocator_thresholds() is None
    code = cli.main(["budget", "--synthetic", "tones", "--clips", "4",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "budget.json").is_file()


# Report emission --------------------------------------------------------------

_json_floats = st.one_of(
    st.floats(), st.sampled_from([-0.0, 1e-17, 0.1 + 0.2, 1 / 3, -2.0 ** -1074,
                                  1.7976931348623157e308, math.nan, math.inf,
                                  -math.inf]))
_configs = st.builds(BitWidthConfig, st.integers(1, 16), st.integers(1, 16),
                     st.integers(2, 16), st.integers(1, 16))


def _grid_result(*args, **kwargs) -> GridSearchResult:
    with np.errstate(over="ignore", invalid="ignore"):  # mean_r of huge or +-inf values
        return GridSearchResult(*args, **kwargs)


_grid_results = st.lists(st.one_of(
    st.builds(_grid_result, _configs, per_descriptor_r=st.fixed_dictionaries(
        {name: _json_floats for name in DESCRIPTOR_NAMES})),
    st.builds(_grid_result, _configs, reason=st.none() | st.text() | st.sampled_from(
        ['"quoted" \\ back\\slash', "tab\tnew\nline\x00\x1f\x7f", "accumulé 16 → 17 bits"]))),
    max_size=6)


@settings(max_examples=200)
@given(results=_grid_results)
def test_write_grid_json_bytes_equal_the_indent_encoder(results, tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "gridsearch.json"
    write_grid_json(path, results)
    doc = {"format_version": 1, "results": [
        {"config": r.config.as_dict(), "feasible": r.feasible,
         "per_descriptor_r": r.per_descriptor_r, "mean_r": r.mean_r,
         "reason": r.reason} for r in results]}
    want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode("ascii")


@settings(max_examples=200)
@given(rows=st.integers(1, 40), cols=st.integers(1, 40),
       values=st.sampled_from(["normal", "subnormal", "codes"]),
       exponent=st.integers(-300, 300), special=st.sampled_from([0.0, 0.2]),
       layout=st.sampled_from(["C", "F", "transposed", "strided"]),
       seed=st.integers(0, 2**32 - 1))
def test_write_matrix_csv_bytes_equal_savetxt(rows, cols, values, exponent, special,
                                              layout, seed, tmp_path_factory):
    """The bytes equal `np.savetxt(fmt="%.9e", delimiter=",")` for values from
    1e-300 to 1e301, subnormals, dequantized codes (which repeat), a share of
    +-0.0, nan and +-inf, and C-ordered, F-ordered, transposed or strided
    arrays."""
    rng = np.random.default_rng(seed)
    shape = {"transposed": (cols, rows), "strided": (2 * rows, 3 * cols)}.get(
        layout, (rows, cols))
    scale = rng.uniform(1.0, 10.0) * 10.0 ** exponent
    if values == "codes":
        x = (rng.integers(0, 16, shape) + rng.integers(-128, 128)) * scale
    elif values == "subnormal":
        x = rng.integers(-2**20, 2**20, shape) * 2.0 ** -1074
    else:
        x = rng.standard_normal(shape) * scale
    hit = rng.random(shape) < special
    x[hit] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], hit.sum())
    x = {"C": x, "F": np.asfortranarray(x), "transposed": x.T,
         "strided": x[::2, ::3]}[layout]
    assert x.shape == (rows, cols) and x.dtype == np.float64
    path = tmp_path_factory.mktemp("matrix") / "matrix.csv"
    write_matrix_csv(path, x)
    want = io.BytesIO()
    np.savetxt(want, x, fmt="%.9e", delimiter=",")
    assert path.read_bytes() == want.getvalue()


def _assert_written_like_savetxt(tmp_path, x):
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, x)
    want = io.BytesIO()
    np.savetxt(want, x, fmt="%.9e", delimiter=",")
    assert path.read_bytes() == want.getvalue()


def _with_neighbours(x, ulps=3):
    """`x`, the floats 1..`ulps` steps above and below each value, and all
    of them negated, as one 16-column matrix (padded with zeros)."""
    up = down = np.asarray(x, dtype=np.float64)
    ring = [up]
    with np.errstate(over="ignore"):  # the largest float's next is inf
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            ring += [up, down]
    v = np.concatenate(ring)
    v = np.concatenate([v, -v])
    return np.concatenate([v, np.zeros(-v.size % 16)]).reshape(-1, 16)


@pytest.mark.parametrize("x", [
    np.zeros((0, 3)),
    np.zeros((3, 0)),
    np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32),
    np.array([[0, 1, -7, 123456789012], [2**53 + 1, -2**63, 2**63 - 1, 5]], dtype=np.int64),
], ids=["rows-0", "cols-0", "float32", "int64"])
def test_write_matrix_csv_edge_shapes_and_dtypes(x, tmp_path):
    """An empty (0, k) matrix writes an empty file, a (k, 0) one k newlines,
    and float32 and int64 values the text of their float64 values."""
    _assert_written_like_savetxt(tmp_path, x)


def test_write_matrix_csv_exact_at_ties(tmp_path):
    """Floats at or next to a tie of the 10th digit: the nearest float to a
    random 11-digit decimal ending in 5, at every exponent the fast path
    writes and some it does not, the floats that are exact ties, and 1..3
    ulps around each."""
    rng = np.random.default_rng(7)
    mantissas = rng.integers(10**9, 10**10, 4000).tolist()
    exponents = rng.integers(-110, 110, 4000).tolist()
    nearest = [float(f"{m}5e{k - 10}") for m, k in zip(mantissas, exponents)]
    exact = [1.0029296875, 12345678905.0, 1234567890.5, 9999999999.5, 0.0029296875]
    _assert_written_like_savetxt(tmp_path, _with_neighbours(nearest + exact))


def test_write_matrix_csv_exact_at_powers_of_ten(tmp_path):
    """Each 10^k for |k| <= 290, where log10 may be off by one, and the
    mantissas that carry into the next power, 9.9999999995e k, with the
    floats around them."""
    powers = [float(f"1e{k}") for k in range(-290, 291)]
    carries = [float(f"9.9999999995e{k}") for k in range(-290, 291)]
    _assert_written_like_savetxt(tmp_path, _with_neighbours(powers + carries))


def test_write_matrix_csv_exact_at_the_ends_of_the_range(tmp_path):
    """The ends of the 2-digit exponents, the largest and smallest normals,
    subnormals, zeros, nan and the infinities."""
    info = np.finfo(np.float64)
    ends = [1e99, 1e100, 1e-99, 1e-100, 9.9999999995e99, 9.9999999995e-100,
            info.max, info.tiny, info.tiny / 2, info.smallest_subnormal,
            123 * info.smallest_subnormal, 0.0, np.nan, np.inf]
    _assert_written_like_savetxt(tmp_path, _with_neighbours(ends, ulps=1))


def test_write_matrix_csv_exact_on_random_bit_patterns(tmp_path):
    """float64 views of random 64-bit patterns: every sign, exponent and
    class of value, nan payloads included."""
    bits = np.random.default_rng(11).integers(0, 2**64, 2**16, dtype=np.uint64,
                                              endpoint=False)
    _assert_written_like_savetxt(tmp_path, bits.view(np.float64).reshape(-1, 32))


def test_write_matrix_csv_formats_normal_values_in_numpy():
    """All but a tiny share of ordinary values take the fast path: those
    within 1e-5 of a tie, about 2 in 10^5."""
    x = np.random.default_rng(5).standard_normal(10**5) * 10.0 ** np.arange(-50, 50).repeat(1000)
    _, _, fast = evaluate._mantissas(np.abs(x))
    assert fast.mean() >= 0.999
