"""Fidelity evaluation: spectrogram distance, rank tests, grid search.

Three questions are answered here.  How far is a simulated-encrypted
spectrogram from its clear counterpart (scale-free Frobenius distance)?  Do
clear and simulated-encrypted descriptors support the same class-separation
decisions (Mann-Whitney U per class pair, discovery-error accounting)?  And
which bit-width configuration tracks the clear descriptors best (Pearson
correlation, grid search with budget pruning)?
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .circuit import (
    BUDGET_BITS,
    DESCRIPTOR_NAMES,
    BudgetViolation,
    ConvNode,
    PipelinePlan,
)
from .quant import BitWidthConfig, accumulator_bits

SIGNIFICANCE_LEVEL = 0.05
EXACT_MW_POOLED_MAX = 20


class EvalError(ValueError):
    pass


class UndefinedCorrelation(EvalError):
    pass


# Intrinsic spectrogram distance ----------------------------------------------

def normalized_euclidean(s1: np.ndarray, s2: np.ndarray) -> float:
    """Frobenius distance between L2-normalized arrays; always in [0, 2].

    Zero-norm convention: 0 when both operands are zero, 1 when exactly one is.
    """
    a = np.asarray(s1, dtype=np.float64)
    b = np.asarray(s2, dtype=np.float64)
    if a.shape != b.shape:
        raise EvalError(f"shape mismatch: {a.shape} vs {b.shape}")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(np.linalg.norm(a / na - b / nb))


# Mann-Whitney U ---------------------------------------------------------------

def _u_statistic(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    pooled = np.concatenate([a, b])
    ranks = rankdata(pooled)
    r1 = ranks[: a.size].sum()
    u1 = r1 - a.size * (a.size + 1) / 2.0
    return u1, pooled


def _exact_u_counts(n: int, m: int) -> list:
    """Frequency of each U value over all C(n+m, n) rank assignments.

    These are the coefficients of the Gaussian binomial [n+m choose n]_q,
    the product over i = 1..n of (1 - q^(m+i)) / (1 - q^i).  Each factor is
    applied in place to a power series cut at degree n*m, which is the
    degree of the result, so the counts are exact Python ints.
    """
    counts = [1] + [0] * (n * m)
    for i in range(1, n + 1):
        for u in range(n * m, m + i - 1, -1):  # times (1 - q^(m+i))
            counts[u] -= counts[u - m - i]
        for u in range(i, n * m + 1):  # divided by (1 - q^i)
            counts[u] += counts[u - i]
    return counts


def _exact_p(a: np.ndarray, b: np.ndarray) -> float:
    pooled = np.concatenate([a, b])
    if np.unique(pooled).size != pooled.size:
        raise EvalError("exact Mann-Whitney path requires tie-free samples")
    u1, _ = _u_statistic(a, b)
    n, m = a.size, b.size
    u_big = int(round(max(u1, n * m - u1)))
    counts = _exact_u_counts(n, m)
    tail = int(sum(counts[u_big:]))
    total = int(sum(counts))
    return min(1.0, 2.0 * tail / total)


def _asymptotic_p(a: np.ndarray, b: np.ndarray) -> float:
    n, m = a.size, b.size
    u1, pooled = _u_statistic(a, b)
    big_n = n + m
    mu = n * m / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts))
    var = n * m / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var <= 0.0:
        return 1.0  # all observations tied: no evidence either way
    z = max(0.0, abs(u1 - mu) - 0.5) / math.sqrt(var)  # 0.5 = continuity corr.
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def mann_whitney_u(a, b, method: str = "auto") -> float:
    """Two-sided Mann-Whitney U p-value.

    'auto' uses the exact U distribution when the pooled sample has at most
    20 tie-free observations, and the normal approximation (tie-corrected,
    continuity-corrected) otherwise.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size < 1 or b.size < 1:
        raise EvalError("both samples must be nonempty")
    if method == "exact":
        return _exact_p(a, b)
    if method == "asymptotic":
        return _asymptotic_p(a, b)
    if method != "auto":
        raise EvalError(f"unknown method {method!r}")
    pooled = a.size + b.size
    has_ties = np.unique(np.concatenate([a, b])).size != pooled
    if pooled <= EXACT_MW_POOLED_MAX and not has_ties:
        return _exact_p(a, b)
    return _asymptotic_p(a, b)


# Pearson ----------------------------------------------------------------------

def pearson(a, b) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise EvalError("pearson needs two equal-length vectors of size >= 2")
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        raise UndefinedCorrelation("pearson is undefined for constant input")
    return float(np.corrcoef(a, b)[0, 1])


# Discovery errors -------------------------------------------------------------

@dataclass(frozen=True)
class PairTestResult:
    class_pair: tuple
    p_clear: float
    p_fhe: float
    alpha: float = SIGNIFICANCE_LEVEL

    @property
    def outcome(self) -> str:
        clear_sig = self.p_clear < self.alpha
        fhe_sig = self.p_fhe < self.alpha
        if clear_sig and fhe_sig:
            return "TP"
        if clear_sig and not fhe_sig:
            return "FN"
        if not clear_sig and fhe_sig:
            return "FP"
        return "TN"


@dataclass(frozen=True)
class DiscoveryErrorReport:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def error_count(self) -> int:
        return self.fp + self.fn

    @property
    def error_rate(self) -> float:
        return self.error_count / self.n if self.n else 0.0

    def as_dict(self) -> dict:
        return {"TP": self.tp, "FP": self.fp, "TN": self.tn, "FN": self.fn,
                "n": self.n, "error_count": self.error_count,
                "error_rate": self.error_rate,
                "error_percent": 100.0 * self.error_rate}


def discovery_errors(results: list) -> DiscoveryErrorReport:
    counts = {"TP": 0, "FP": 0, "TN": 0, "FN": 0}
    for r in results:
        counts[r.outcome] += 1
    return DiscoveryErrorReport(tp=counts["TP"], fp=counts["FP"],
                                tn=counts["TN"], fn=counts["FN"])


def pair_tests(clear_by_class: dict, fhe_by_class: dict,
               descriptor: str | None = None,
               alpha: float = SIGNIFICANCE_LEVEL) -> list:
    """Mann-Whitney per unordered class pair, on one or all descriptors.

    Inputs map class label -> list of descriptor dicts.  When `descriptor`
    is None a test is emitted per (pair, descriptor); otherwise one per pair.
    """
    names = DESCRIPTOR_NAMES if descriptor is None else (descriptor,)
    labels = sorted(clear_by_class)
    results = []
    for la, lb in itertools.combinations(labels, 2):
        for name in names:
            ca = [v[name] for v in clear_by_class[la]]
            cb = [v[name] for v in clear_by_class[lb]]
            fa = [v[name] for v in fhe_by_class[la]]
            fb = [v[name] for v in fhe_by_class[lb]]
            results.append(PairTestResult(
                class_pair=(la, lb) if descriptor else (f"{la}/{name}", f"{lb}/{name}"),
                p_clear=mann_whitney_u(ca, cb),
                p_fhe=mann_whitney_u(fa, fb), alpha=alpha))
    return results


# Grid search ------------------------------------------------------------------

@dataclass(frozen=True)
class GridSearchResult:
    config: BitWidthConfig
    feasible: bool
    per_descriptor_r: dict | None = None
    reason: str | None = None

    @property
    def mean_r(self) -> float | None:
        if self.per_descriptor_r is None:
            return None
        return float(np.mean(list(self.per_descriptor_r.values())))

    def as_dict(self) -> dict:
        return {"config": self.config.as_dict(), "feasible": self.feasible,
                "per_descriptor_r": self.per_descriptor_r,
                "mean_r": self.mean_r, "reason": self.reason}


def default_grid() -> list:
    """Every bit-width combination in {2..8}^4."""
    return [BitWidthConfig(*t) for t in itertools.product(range(2, 9), repeat=4)]


def conv_feasible(bits: BitWidthConfig, max_taps: int) -> bool:
    """Calibration-free prune: worst-case convolution accumulator width."""
    return accumulator_bits(max_taps, bits.input_bits, bits.weight_bits) <= BUDGET_BITS


def _plan_max_taps(plan) -> int:
    """Largest nonzero tap count over the plan's input convolutions.

    Sparse approximations (dilation, cropping) lower this, which is exactly
    what lets them afford wider input/weight quantization."""
    return max(n.nonzero_taps() for n in plan.nodes if isinstance(n, ConvNode))


def _search(plan, space: list, score) -> list:
    """Prune, realize and score each config of `space`, in sorted order.

    Returns (config, score(graph), None) for a realized config and
    (config, None, reason) for one the prune or the budget rejects."""
    max_taps = _plan_max_taps(plan)
    out = []
    for bits in sorted(space, key=lambda c: c.as_tuple()):
        if not conv_feasible(bits, max_taps):
            out.append((bits, None, "accumulator bound"))
            continue
        try:
            graph = plan.realize(bits)
        except BudgetViolation as exc:
            out.append((bits, None, str(exc)))
            continue
        out.append((bits, score(graph), None))
    return out


def grid_search(space: list, plan: PipelinePlan, evaluation: list) -> list:
    """Rank bit-width configurations by clear-vs-simulated descriptor Pearson.

    `plan` is a calibrated descriptor plan; the descriptor pipeline spans all
    three filter banks, so the search is joint over the full descriptor
    vector.  Each configuration only re-realizes the quantized graph.
    Infeasible configs are reported with feasible=False and excluded from
    the ranking.
    """
    if not space or not evaluation:
        raise EvalError("grid search needs a nonempty space and datasets")
    clear_cache: list = []  # the clear arm does not depend on the bit widths

    def correlations(graph) -> dict:
        if not clear_cache:
            clear_cache.extend(graph.run_clear(buf)["descriptor_vector"]
                               for buf in evaluation)
        fhe = [graph.execute(buf).dequantized for buf in evaluation]
        rs = {}
        for i, name in enumerate(DESCRIPTOR_NAMES):
            c = [vec[i] for vec in clear_cache]
            f = [vec[i] for vec in fhe]
            try:
                rs[name] = pearson(c, f)
            except UndefinedCorrelation:
                rs[name] = 0.0  # constant arm carries no ranking signal
        return rs

    results = [GridSearchResult(bits, rs is not None, per_descriptor_r=rs, reason=reason)
               for bits, rs, reason in _search(plan, space, correlations)]
    ranked = sorted([r for r in results if r.feasible],
                    key=lambda r: (-r.mean_r, r.config.as_tuple()))
    return ranked + [r for r in results if not r.feasible]


def transform_distance_search(space: list, plan: PipelinePlan,
                              evaluation: list) -> list:
    """Rank configurations by mean clear-vs-simulated spectrogram distance.

    `plan` is a calibrated transform plan.  Returns (config, mean_distance)
    pairs for feasible configs, best first; the distance compares each
    clip's dequantized circuit output with the float forward pass of the
    same graph.
    """
    def mean_distance(graph) -> float:
        return float(np.mean([normalized_euclidean(graph.run_clear(buf)[graph.output_node],
                                                   graph.execute(buf).dequantized)
                              for buf in evaluation]))

    scored = [(bits, d) for bits, d, _ in _search(plan, space, mean_distance)
              if d is not None]
    return sorted(scored, key=lambda t: (t[1], t[0].as_tuple()))


# Report emission --------------------------------------------------------------

def write_pair_csv(path, results: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["class_a", "class_b", "p_clear", "p_fhe", "outcome"])
        for r in results:
            writer.writerow([r.class_pair[0], r.class_pair[1],
                             repr(r.p_clear), repr(r.p_fhe), r.outcome])


def write_scatter_csv(path, results: list) -> None:
    """Per-pair (p_clear, p_fhe) points for a log-log scatter plot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["p_clear", "p_fhe"])
        for r in results:
            writer.writerow([repr(r.p_clear), repr(r.p_fhe)])


def write_summary_json(path, report: DiscoveryErrorReport,
                       extra: dict | None = None) -> None:
    doc = {"format_version": 1, "discovery": report.as_dict()}
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_grid_json(path, results: list) -> None:
    doc = {"format_version": 1,
           "results": [r.as_dict() for r in results]}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
