"""Fidelity evaluation: spectrogram distance, rank tests, grid search.

Three questions are answered here.  How far is a simulated-encrypted
spectrogram from its clear counterpart (scale-free Frobenius distance)?  Do
clear and simulated-encrypted descriptors support the same class-separation
decisions (Mann-Whitney U per class pair, discovery-error accounting)?  And
which bit-width configuration tracks the clear descriptors best (grid
search with budget pruning, the descriptor arms of all realized configs
scored by one stacked Pearson correlation)?
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .circuit import (
    BUDGET_BITS,
    DESCRIPTOR_NAMES,
    ConvNode,
    PipelinePlan,
    Sweep,
)
from .quant import BitWidthConfig, accumulator_bits
from .record import Record, set_field
from .transforms import _row_blocks

SIGNIFICANCE_LEVEL = 0.05
EXACT_MW_POOLED_MAX = 20


class EvalError(ValueError):
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

def _midranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of `x`, tied values sharing the mean of their ranks,
    and the size of each tie group in ascending value order.

    A group at sorted positions [start, start + size) gets the rank
    (2 * start + size + 1) / 2, a half-integer, so the float64 ranks are
    exact and the sizes are the counts `np.unique` would return."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    sizes = np.diff(starts, append=s.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((2 * starts + sizes + 1) / 2.0, sizes)
    return ranks, sizes


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


def _exact_p(u1: float, n: int, m: int) -> float:
    u_big = int(round(max(u1, n * m - u1)))
    counts = _exact_u_counts(n, m)
    tail = int(sum(counts[u_big:]))
    total = int(sum(counts))
    return min(1.0, 2.0 * tail / total)


def _asymptotic_p(u1: float, n: int, m: int, tie_sizes: np.ndarray) -> float:
    big_n = n + m
    mu = n * m / 2.0
    tie_term = float(np.sum(tie_sizes.astype(np.float64) ** 3 - tie_sizes))
    var = n * m / 12.0 * ((big_n + 1) - tie_term / (big_n * (big_n - 1)))
    if var <= 0.0:
        return 1.0  # all observations tied: no evidence either way
    z = max(0.0, abs(u1 - mu) - 0.5) / math.sqrt(var)  # 0.5 = continuity corr.
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def _finite(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).ravel()
    bad = x.size - int(np.count_nonzero(np.isfinite(x)))
    if bad:
        raise EvalError(f"{what} contains non-finite values ({bad} of {x.size})")
    return x


def mann_whitney_u(a, b) -> float:
    """Two-sided Mann-Whitney U p-value.

    The exact U distribution when the pooled sample has at most
    `EXACT_MW_POOLED_MAX` tie-free observations, the normal approximation
    (tie-corrected, continuity-corrected) otherwise.  Non-finite samples
    raise EvalError.
    """
    a = _finite(a, "mann_whitney_u sample a")
    b = _finite(b, "mann_whitney_u sample b")
    if a.size < 1 or b.size < 1:
        raise EvalError("both samples must be nonempty")
    n, m = a.size, b.size
    ranks, tie_sizes = _midranks(np.concatenate([a, b]))
    u1 = ranks[:n].sum() - n * (n + 1) / 2.0
    if tie_sizes.size == n + m and n + m <= EXACT_MW_POOLED_MAX:
        return _exact_p(u1, n, m)
    return _asymptotic_p(u1, n, m, tie_sizes)


# Pearson ----------------------------------------------------------------------

def pearson(a, b) -> np.ndarray:
    """Pearson r of each arm's column pairs in two (m, n, k) stacks of m arms.

    It does `np.corrcoef`'s arithmetic once over all m arms: the row
    means, the centring, X @ Xᵀ, the factor 1/(n−1), the two divisions by
    the standard deviations and the clip to [−1, 1], so row i of the
    (m, k) result equals `np.corrcoef` of arm i's 2k-row stack
    [a[i] | b[i]]ᵀ at [j, k + j], bit for bit.  A column constant on
    either side gives nan."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 3 or a.shape[1] < 2:
        raise EvalError("pearson needs two equal-shape (m, n, k) stacks with n >= 2")
    _finite(a, "pearson input a")
    _finite(b, "pearson input b")
    constant = (np.ptp(a, axis=1) == 0.0) | (np.ptp(b, axis=1) == 0.0)
    n, k = a.shape[1:]
    # one C-contiguous row per arm and column, so each row's mean sums in
    # `np.corrcoef`'s order; X @ Xᵀ takes the BLAS path of `np.cov`'s dot
    x = np.concatenate([a, b], axis=2).transpose(0, 2, 1).copy()
    x -= x.mean(axis=2, keepdims=True)
    c = x @ x.transpose(0, 2, 1)
    c *= np.true_divide(1, n - 1)
    sd = np.sqrt(np.diagonal(c, axis1=1, axis2=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        c /= sd[:, :, None]
        c /= sd[:, None, :]
    np.clip(c, -1.0, 1.0, out=c)
    return np.where(constant, np.nan, c[:, np.arange(k), k + np.arange(k)])


# Discovery errors -------------------------------------------------------------

class PairTestResult(NamedTuple):
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


def discovery_errors(results: list) -> dict:
    """Outcome counts of `results` and the share of FP and FN among them
    (0.0 when there are none): the "discovery" part of `summary.json`."""
    counts = {"TP": 0, "FP": 0, "TN": 0, "FN": 0}
    for r in results:
        counts[r.outcome] += 1
    n = sum(counts.values())
    errors = counts["FP"] + counts["FN"]
    rate = errors / n if n else 0.0
    return {**counts, "n": n, "error_count": errors, "error_rate": rate,
            "error_percent": 100.0 * rate}


def pair_tests(labels, clear, fhe, alpha: float = SIGNIFICANCE_LEVEL) -> list:
    """Mann-Whitney per unordered class pair and descriptor, on both arms.

    `labels` holds each clip's class; `clear` and `fhe` are (n, 4) arrays
    with one row per clip and columns in `DESCRIPTOR_NAMES` order.  The
    results run over the sorted class pairs, then the descriptors, and
    each names its classes "<label>/<descriptor>".
    """
    if not 0.0 < alpha < 1.0:
        raise EvalError(f"significance level must lie in (0, 1), got {alpha}")
    labels = np.asarray(labels)
    results = []
    # np.unique's order, without the numpy.ma import its first call makes
    for la, lb in itertools.combinations(sorted(set(labels.tolist())), 2):
        a, b = labels == la, labels == lb
        for k, name in enumerate(DESCRIPTOR_NAMES):
            results.append(PairTestResult(
                class_pair=(f"{la}/{name}", f"{lb}/{name}"),
                p_clear=mann_whitney_u(clear[a, k], clear[b, k]),
                p_fhe=mann_whitney_u(fhe[a, k], fhe[b, k]), alpha=alpha))
    return results


# Grid search ------------------------------------------------------------------

class GridSearchResult(Record):
    """One config's search outcome: its per-descriptor Pearson r when it
    realized, else the reason it did not.  `mean_r`, the mean of the r
    values (None without them), is computed once, here."""

    __slots__ = ("config", "per_descriptor_r", "reason", "mean_r")
    _fields = ("config", "per_descriptor_r", "reason")

    def __init__(self, config: BitWidthConfig, per_descriptor_r: dict | None = None,
                 reason: str | None = None):
        set_field(self, "config", config)
        set_field(self, "per_descriptor_r", per_descriptor_r)
        set_field(self, "reason", reason)
        set_field(self, "mean_r", None if per_descriptor_r is None
                  else float(np.mean(list(per_descriptor_r.values()))))

    @property
    def feasible(self) -> bool:
        return self.per_descriptor_r is not None


def default_grid() -> list:
    """Every bit-width combination in {2..8}^4."""
    return [BitWidthConfig(*t) for t in itertools.product(range(2, 9), repeat=4)]


def conv_feasible(bits: BitWidthConfig, max_taps: int) -> bool:
    """Calibration-free prune: worst-case convolution accumulator width."""
    return accumulator_bits(max_taps, bits.input_bits, bits.weight_bits) <= BUDGET_BITS


def _plan_max_taps(plan) -> int:
    """Largest nonzero tap count over the plan's input convolutions.

    Only a bank thinned in every row would lower it, and no approximation
    spec builds one: each keeps at least one row at N - 1 taps (the Hann
    window zeroes tap 0), as dilation's per-bin cap keeps high bins dense
    and cropping drops whole rows."""
    return max(n.nonzero_taps() for n in plan.nodes if isinstance(n, ConvNode))


def _search(plan, space: list, evaluation: list):
    """Prune, realize and execute each distinct config of `space`.

    One `Sweep` realizes and executes the configs the prune keeps, in its
    traversal order, each config once over all evaluation clips (which
    must have equal lengths).  The clear arm does not depend on the bit
    widths, so it comes from the calibrated plan, once, over all
    evaluation clips as one batch, before any config realizes.  Yields
    (config, None, reason) for each config the prune rejects, then, in
    the sweep's order, (config, (clear, fhe), None) for a realized config,
    its clear and dequantized outputs stacked along a leading clip axis,
    and (config, None, reason) for one over budget.  The outputs are
    yielded before the next config executes, so the caller decides what
    it keeps of them."""
    if not evaluation:
        raise EvalError("a search needs evaluation clips")
    max_taps = _plan_max_taps(plan)
    configs = set(space)
    pruned = {bits for bits in configs if not conv_feasible(bits, max_taps)}
    for bits in pruned:
        yield bits, None, "accumulator bound"
    sweep = Sweep(plan, evaluation)
    clear = sweep.clear_output()
    for bits, graph, violation in sweep.visit(configs - pruned):
        if graph is None:
            yield bits, None, str(violation)
        else:
            yield bits, (clear, sweep.execute()), None


def grid_search(space: list, plan: PipelinePlan, evaluation: list) -> list:
    """Rank bit-width configurations by clear-vs-simulated descriptor Pearson.

    `plan` is a calibrated descriptor plan; the descriptor pipeline spans all
    three filter banks, so the search is joint over the full descriptor
    vector.  Configurations share the nodes and values whose widths they
    share (see `Sweep`).  The (B, 4) descriptor arms of the realized configs
    are stacked and scored by one `pearson` call.  Infeasible configs are
    reported with feasible=False, after the ranking, in config order.  A
    correlation needs at least two evaluation clips; fewer are refused
    before any realization.
    """
    if not space:
        raise EvalError("grid search needs a nonempty space")
    if len(evaluation) < 2:
        raise EvalError(f"grid search needs at least 2 evaluation clips, "
                        f"got {len(evaluation)}")
    realized, refused = [], []
    for bits, arms, reason in _search(plan, space, evaluation):
        if arms is None:
            refused.append(GridSearchResult(bits, reason=reason))
        else:
            realized.append((bits, *arms))
    ranked = []
    if realized:
        configs, clear, fhe = zip(*realized)
        for bits, rs in zip(configs, pearson(np.stack(clear), np.stack(fhe))):
            # a constant arm (nan) carries no ranking signal
            ranked.append(GridSearchResult(bits, per_descriptor_r={
                name: 0.0 if math.isnan(r) else float(r)
                for name, r in zip(DESCRIPTOR_NAMES, rs)}))
    ranked.sort(key=lambda r: (-r.mean_r, r.config.as_tuple()))
    return ranked + sorted(refused, key=lambda r: r.config.as_tuple())


def transform_distance_search(space: list, plan: PipelinePlan,
                              evaluation: list) -> list:
    """Rank configurations by mean clear-vs-simulated spectrogram distance.

    `plan` is a calibrated transform plan, and the evaluation clips must
    have equal lengths: each config runs once over all of them, and a
    `CircuitError` names the lengths otherwise.  Returns (config,
    mean_distance) pairs for feasible configs, best first; the distance
    compares each clip's dequantized circuit output with the float forward
    pass of the same graph.  Each config is scored before the next one
    executes, so no more than one config's spectrograms are held.
    """
    scored = []
    for bits, arms, _ in _search(plan, space, evaluation):
        if arms is not None:
            scored.append((bits, float(np.mean([normalized_euclidean(c, f)
                                                for c, f in zip(*arms)]))))
    return sorted(scored, key=lambda t: (t[1], t[0].as_tuple()))


# Report emission --------------------------------------------------------------

def write_pair_csv(path, results: list) -> None:
    write_csv(path, ["class_a", "class_b", "p_clear", "p_fhe", "outcome"],
              ([*r.class_pair, repr(r.p_clear), repr(r.p_fhe), r.outcome]
               for r in results))


def write_scatter_csv(path, results: list) -> None:
    """Per-pair (p_clear, p_fhe) points for a log-log scatter plot."""
    write_csv(path, ["p_clear", "p_fhe"],
              ([repr(r.p_clear), repr(r.p_fhe)] for r in results))


def write_summary_json(path, discovery: dict, extra: dict) -> None:
    write_json(path, {"format_version": 1, "discovery": discovery, **extra})


# One result of gridsearch.json, laid out as `write_json` lays it out
# inside the results list (keys sorted, two-space indent).
_GRID_RECORD = """    {
      "config": {
        "input_bits": %d,
        "mid_bits": %d,
        "output_bits": %d,
        "weight_bits": %d
      },
      "feasible": %s,
      "mean_r": %s,
      "per_descriptor_r": %s,
      "reason": %s
    }"""


def write_grid_json(path, results: list) -> None:
    """`write_json`'s bytes for {"format_version": 1, "results": [...]}:
    each result is formatted directly from its fixed schema and written on
    its own, so the document is never held whole."""
    with open(path, "w") as fh:
        fh.write('{\n  "format_version": 1,\n  "results": [')
        sep = "\n"
        for r in results:
            c, rs = r.config, r.per_descriptor_r
            fh.write(sep + _GRID_RECORD % (
                c.input_bits, c.mid_bits, c.output_bits, c.weight_bits,
                "true" if r.feasible else "false",
                "null" if rs is None else _json_float(r.mean_r),
                "null" if rs is None else _json_floats(rs),
                "null" if r.reason is None else encode_basestring_ascii(r.reason)))
            sep = ",\n"
        fh.write("\n  ]\n}\n" if results else "]\n}\n")


def _json_floats(values: dict) -> str:
    """A nonempty name -> float object at a result's per_descriptor_r indent."""
    lines = ",\n".join(f"        {encode_basestring_ascii(k)}: {_json_float(v)}"
                        for k, v in sorted(values.items()))
    return f"{{\n{lines}\n      }}"


def _json_float(x: float) -> str:
    """`x` as `json.dumps` spells it: its repr, or NaN and +-Infinity."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def write_json(path, doc: dict) -> None:
    """Indented JSON with sorted keys and a final newline (deterministic bytes)."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row, fields quoted where needed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_matrix_csv(path, x) -> None:
    """One line per row of the 2-D array `x`, each value `%.9e`, comma-separated.

    The bytes are those NumPy's `savetxt` writes with `fmt="%.9e"` and
    `delimiter=","`, whose `%` rounds the exact binary value of each
    float64 to 10 significant digits, half to even.  The values are
    converted to float64 first, as `%` converts them.  A block of whole
    rows at a time is formatted into one buffer and written once.

    Fast path, in NumPy: e = floor(log10 |x|), clamped to [-99, 99], and
    the mantissa m = |x| * 10^(9 - e), one multiplication by a correctly
    rounded power of ten.  Those two roundings put m within 2^-52 of the
    exact mantissa, relatively, so within 2.3e-6 below 1e10.  A value
    whose m lies in [1e9, 1e10) with rint(m) < 1e10, and whose fraction
    lies at least `_TIE_MARGIN` = 1e-5 from .5, is written from rint(m)
    and e.  Its exact mantissa is then too close to m to round to another
    integer, and never a tie; if it lies just below 1e9, `%` rounds it up
    to 1e10 at exponent e - 1, which is the same text.  ±0.0 take this
    path too.

    Fallback: every other value is formatted by `%` itself.  These are
    values too close to a tie, values whose log10 is off by one next to a
    power of ten, 3-digit exponents, subnormals, nan and ±inf.  So no byte
    depends on the estimate."""
    x = np.asarray(x, dtype=np.float64)
    rows, cols = x.shape
    with open(path, "wb") as fh, np.errstate(all="ignore"):
        if cols:
            for r in _row_blocks(rows, cols):
                fh.write(_format_rows(x[r]))
        else:
            fh.write(b"\n" * rows)  # savetxt's empty rows


# How far from .5 the fraction of an estimated mantissa must lie: over
# four times its error bound (see `write_matrix_csv`).
_TIE_MARGIN = 1e-5
_ROW_END = (ord("\n") - ord(",")) << 56  # added to a word, its last "," becomes "\n"


@functools.cache
def _format_tables() -> tuple:
    """Built on first use: 10^k, correctly rounded, for k = -90..108, and
    the little-endian int64 words that spell the leading "d.d" of each
    integer below 100, the four digits of each integer below 10^4 and the
    "e+dd," of each exponent from -99 to 99, each at its byte offset."""
    pow10 = np.array([float(f"1e{k}") for k in range(-90, 109)])
    lead = np.frombuffer(b"".join(b"%d.%d\0\0\0\0\0" % divmod(t, 10)
                                  for t in range(100)), "<i8")
    digits = np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
    four = digits.astype(np.uint8).view("<u4").ravel().astype(np.int64)
    exps = np.frombuffer(b"".join(b"\0\0\0e%+03d," % e for e in range(-99, 100)), "<i8")
    return pow10, lead, four, exps


def _mantissas(a: np.ndarray) -> tuple:
    """(e, q, fast) of the magnitudes `a`: the decimal exponent e, the
    10-digit mantissa q as int64 (0 where not fast), and whether the fast
    path of `write_matrix_csv` has them right."""
    pow10 = _format_tables()[0]
    e = np.zeros(a.size)
    np.log10(a, out=e, where=a != 0)  # 0.0 keeps exponent 0
    e = np.fmin(np.fmax(np.floor(e), -99), 99).astype(np.intp)  # nan -> -99
    m = a * pow10[99 - e]
    r = np.rint(m)
    fast = ((m >= 1e9) & (r < 1e10) | (m == 0)) & (np.abs(m - r) <= 0.5 - _TIE_MARGIN)
    return e, np.where(fast, r, 0).astype(np.int64), fast


def _format_rows(x: np.ndarray) -> bytes:
    """The `%.9e` text of the float64 (rows, cols) block `x`, each row
    ended by a newline, as `write_matrix_csv` describes it."""
    _, lead, four, exps = _format_tables()
    v = x.ravel()
    e, q, fast = _mantissas(np.abs(v))
    hi = q // 10000  # digits 1-6
    top = hi // 10000  # digits 1-2
    low = four[q - 10000 * hi]  # digits 7-10
    # per value: a sign byte, 0 when there is none, and the 16 bytes of two
    # words, "d.dddddd" and "ddde+dd,"; the zero bytes are then dropped.
    # A word sums byte fields that do not overlap: int64 + and *, as the
    # rest of the program runs them, where a process's first uint64 shift
    # raised its peak RSS by 148 KB.
    cells = np.empty((v.size, 17), np.uint8)
    np.multiply(np.signbit(v), ord("-"), out=cells[:, 0], casting="unsafe")
    words = cells[:, 1:].view("<i8")
    words[:, 0] = lead[top] + four[hi - 10000 * top] * 2**24 + low % 256 * 2**56
    words[:, 1] = low // 256 + exps[e + 99]
    words[x.shape[1] - 1::x.shape[1], 1] += _ROW_END
    if fast.all():
        return cells.tobytes().replace(b"\0", b"")
    slow = np.flatnonzero(~fast)
    cells[slow, :16] = 0  # keeps each separator
    cells[slow, 0] = 1  # a byte no text contains, where `%`'s text goes
    head, *rest = cells.tobytes().replace(b"\0", b"").split(b"\1")
    return head + b"".join(b"%.9e" % y + p for y, p in zip(v[slow].tolist(), rest))
