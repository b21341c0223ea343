"""Integer dataflow circuits standing in for compiled FHE execution.

A pipeline is a DAG of quantized convolutions, elementwise lookups and
reductions.  Nonlinearities are single-input lookups keyed on the incoming
integer, mirroring a lookup-table FHE backend without any cryptography; the
simulator evaluates each lookup's function on the integers it gets, so a
table exists only as its size.
Every accumulator gets a worst-case bit width; anything above the 16-bit
budget refuses to build, and execution asserts observed values against the
declared ranges instead of ever wrapping silently.

This module holds the package's only quantizers.  A quantized edge
(`EdgeSpec`) is zero-aligned: it represents scale * v, with v an integer in
a B-bit range [v_min, v_max] that contains 0 and covers the calibrated
range; floats round half away from zero and clamp to it.  Weights quantize
symmetrically (`quantize_weights`), to float32 codes.  Outputs export the
codes q = v - lift, in [0, 2^B - 1], or [-2^(B-1), 2^(B-1) - 1] on a
signed edge.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .approx import ApproxSpec, L1Energy, approx_kernels
from .quant import BitWidthConfig, width_of
from .transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    StftConfig,
    dct_matrix,
    frame_signal,
    gammatone_kernels,
    hann_window,
    mel_filterbank_matrix,
    MFCC_LOG_EPS,
    N_MFCC,
)

BUDGET_BITS = 16

# A float type holds every integer below its bound exactly, and so every
# sum of such integers that stays below it: 2^24 in float32, 2^53 in
# float64.  The integer dot products run in float32 BLAS when no partial sum
# can reach the first and in float64 when none can reach the second; `bind`
# refuses the rest (see `_DotNode`).
EXACT_FLOAT32_BOUND = 1 << 24
EXACT_FLOAT_BOUND = 1 << 53

TRANSFORMS = ("stft", "mel", "mfcc", "gammatone")


class CircuitError(RuntimeError):
    pass


class BudgetViolation(CircuitError):
    """Raised by `realize` when a node's worst-case width exceeds the budget;
    `report` is the `AccumulatorReport` of the refused graph."""

    def __init__(self, report):
        self.report = report
        names = ", ".join(f"{e.node}({e.worst_case_bits} bits)"
                          for e in report.violations)
        super().__init__(f"{BUDGET_BITS}-bit accumulator budget exceeded at: {names}")


class CircuitOverflow(CircuitError):
    """Raised at execution time when an observed value leaves its declared range."""


# Edges -----------------------------------------------------------------------

def _round_in_place(t: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Round the float64 array `t` to the nearest integer, halves away from
    zero (np.round is half-even), clamp it to [lo, hi] and return it.
    Overwrites `t`.  trunc(t + copysign(0.5, t)) is
    sign(t) * floor(|t| + 0.5) for every float, ties and -0.0 included."""
    t += np.copysign(0.5, t)
    np.trunc(t, out=t)
    np.clip(t, lo, hi, out=t)
    return t


@dataclass(frozen=True)
class EdgeSpec:
    """Quantized edge: represented value is scale * v, v in [v_min, v_max]."""

    scale: float
    v_min: int
    v_max: int
    bits: int
    signed: bool

    @classmethod
    def from_range(cls, lo: float, hi: float, bits: int, signed: bool) -> "EdgeSpec":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise CircuitError(f"edge range [{lo}, {hi}] is not finite")
        lo, hi = min(lo, 0.0), max(hi, 0.0)
        if hi == lo:
            hi = lo + 1.0
        levels = (1 << bits) - 1
        scale = (hi - lo) / levels
        m = int(_round_in_place(np.array(-lo / scale), 0, levels))
        return cls(scale=scale, v_min=-m, v_max=levels - m, bits=bits, signed=signed)

    @property
    def lift(self) -> int:
        # v = q + lift, with q the exported B-bit code
        offset = (1 << (self.bits - 1)) if self.signed else 0
        return self.v_min + offset

    @property
    def bounds(self) -> tuple[int, int]:
        return self.v_min, self.v_max

    @property
    def max_abs(self) -> int:
        return max(abs(self.v_min), abs(self.v_max))

    def to_v(self, x) -> np.ndarray:
        """The edge integers of the floats `x`; `x` itself is not written."""
        return self.to_v_in_place(np.array(x, dtype=np.float64))

    def to_v_in_place(self, t: np.ndarray) -> np.ndarray:
        """`to_v` of a float64 array the caller hands over: overwrites `t`."""
        t /= self.scale
        return _round_in_place(t, self.v_min, self.v_max).astype(np.int64)

    def to_float(self, v) -> np.ndarray:
        return np.asarray(v, dtype=np.float64) * self.scale

    def describe(self) -> dict:
        return {"raw": False, "alpha": self.scale * self.v_min,
                "beta": self.scale * self.v_max, "bits": self.bits,
                "signed": self.signed}


@dataclass(frozen=True)
class RawSpec:
    """Un-requantized integer edge (accumulator output); value = scale * v."""

    scale: float
    v_lo: int
    v_hi: int

    @property
    def bounds(self) -> tuple[int, int]:
        return self.v_lo, self.v_hi

    @property
    def max_abs(self) -> int:
        return max(abs(self.v_lo), abs(self.v_hi))

    @property
    def width(self) -> int:
        return width_of(self.max_abs)

    def to_float(self, v) -> np.ndarray:
        return np.asarray(v, dtype=np.float64) * self.scale

    def describe(self) -> dict:
        return {"raw": True, "scale": self.scale, "v_lo": self.v_lo,
                "v_hi": self.v_hi, "width": self.width}


# Nodes -----------------------------------------------------------------------

class Node:
    """The node protocol, with the defaults node types override.

    A node is built with structure and float weights only.
    `bind(specs, bits, edge, normalization)` returns a copy bound to one
    bit-width configuration, sharing the float weights, so the plan's own
    nodes are never modified (beyond the weight banks a conv or matmul node
    caches per width): `specs` maps every name bound so far to its
    output edge, `edge(name)` is the plan's quantized edge for a node and
    `normalization` the plan's z-score constants.  A bind reads widths
    from `bits` and `edge` alone; that is how a `Sweep` learns a node's
    depth in `SWEEP_ORDER`.  `clear()` never touches
    quantization and is what calibration runs.  A bound node executes as
    it is, with nothing left to build: `step()` runs `run_int`, checks any
    accumulator against its declared range and returns the value with its
    observed magnitude (None when nothing accumulates); `budget_entry()`
    and `describe()` feed the budget report and the JSON serialization.

    Every value has a leading clip axis: the input is (B, L), a frame-wise
    value (B, T, C) or (B, T), a statistic over time (B, C) or (B,), and
    the descriptor vector (B, 4).  `clear` and `run_int` treat the clips
    independently, so an observed magnitude is the maximum over the batch.
    `_forward` is the one loop that runs nodes, `clear` or `step` on a
    batch, for calibration, both arms of a graph and the sweep alike.
    """

    @property
    def inputs(self) -> list:
        return [self.src]

    def step(self, *vs):
        return self.run_int(*vs), None

    def budget_entry(self, observed_bits: int | None = None):
        return None

    def describe(self) -> dict:
        return {"name": self.name, "type": type(self).__name__,
                "inputs": self.inputs, "out_edge": self.out_spec.describe()}


def _check_range(name, arr, lo, hi) -> int:
    """Raise unless `arr` lies in [lo, hi]; return its largest magnitude."""
    if not arr.size:
        return 0
    a, b = int(arr.min()), int(arr.max())
    if a < lo or b > hi:
        raise CircuitOverflow(f"node {name}: observed value outside declared range "
                              f"[{lo}, {hi}]")
    return max(-a, b)


def _accumulate(node, v):
    """Step of a node whose output is a raw accumulator."""
    acc = node.run_int(v)
    return acc, _check_range(node.name, acc, node.out_spec.v_lo, node.out_spec.v_hi)


def _check_frames(node, v) -> None:
    """Refuse a clip whose frame count is not the time fan-in that sized
    the node's mean and worst case."""
    if v.shape[1] != node.fan_in:
        raise CircuitError(f"node {node.name}: clip has {v.shape[1]} frames, "
                           f"but the node was sized for fan_in={node.fan_in}")


# A pass over a whole bank takes a block of whole rows, of about this many
# elements, at a time, so its temporaries stay near 256 KB at any bank size.
_BLOCK_ELEMENTS = 1 << 15


def _row_blocks(rows: int, n: int) -> list:
    """Slices of whole rows covering a (rows, n) matrix, each of about
    `_BLOCK_ELEMENTS` elements and at least one row."""
    step = max(1, _BLOCK_ELEMENTS // max(n, 1))
    return [slice(r, r + step) for r in range(0, rows, step)]


def _max_row_nonzero(w: np.ndarray) -> int:
    return max(int(np.count_nonzero(w[r], axis=1).max()) for r in _row_blocks(*w.shape))


def _describe_weights(w: np.ndarray) -> dict:
    return {"shape": list(w.shape), "nonzero": int(np.count_nonzero(w)),
            "sha256": hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()}


class WeightBank:
    """A kernel bank quantized at one weight width.

    `codes` holds the integer codes as float32, which holds every code
    exactly (|q| <= 2^15 < 2^24), and is the bank's only array of its
    size: a float32 kernel multiplies it as it is (see `_DotNode`).  The
    bank also holds the positive and negative row sums `acc_range` reads,
    the largest row sum of |q| and the largest nonzero count of a row, all
    derived once, here, a row block at a time.
    """

    def __init__(self, codes: np.ndarray):
        self.codes = codes
        self.pos, self.neg = (np.empty(codes.shape[0], dtype=np.int64) for _ in range(2))
        for r in _row_blocks(*codes.shape):
            # float64 sums of integers stay exact below 2^53
            self.pos[r] = np.maximum(codes[r], 0).sum(axis=1, dtype=np.float64)
            self.neg[r] = np.minimum(codes[r], 0).sum(axis=1, dtype=np.float64)
        self.max_row_l1 = int((self.pos - self.neg).max(initial=0))
        self.nonzero_taps = _max_row_nonzero(codes)


@dataclass
class _DotNode(Node):
    """Integer dot products of the input with a fixed weight matrix.

    The products run in float BLAS and are cast back to int64.  That is
    exact: inputs and weights are integers, and no partial sum exceeds
    `partial_sum_bound` = max_row(sum |w_q|) * max |v| in magnitude, so as
    long as the float holds every integer up to it no summation order can
    round.  `dtype` is float32 below 2^24 and float64 otherwise; `bind`
    refuses a bound of 2^53 or above.  The bound is per output element, so
    it covers a batch of any size unchanged.  A float32 node multiplies the
    bank's float32 codes themselves; a float64 node casts them for each
    call, so a realized node holds its float kernel `weights_f` and the
    bank's codes, and no other array of the bank's size.

    Every node the budget accepts runs in float32, with partial sums below
    2^17: row r spans hi_r - lo_r = l1_r * (v_max - v_min), at least
    l1_r * max |v| because the input edge holds 0, and a width within the
    16-bit budget puts hi_r and lo_r inside +-2^16.

    `banks` maps a weight width to its `(WeightBank, w_scale)`; it is
    filled lazily by `bind` and shared with every bound copy, so each
    width quantizes the float weights once.  `weights_q` reads the codes
    as int64, cast afresh on each read; setting it by hand builds a fresh
    bank from integer codes below 2^24 in magnitude.  `kind` names the node
    in the budget report.
    """

    name: str
    src: str
    weights_f: np.ndarray  # (C_out, C_in)
    bank: WeightBank | None = None
    w_scale: float | None = None
    in_spec: EdgeSpec | None = None
    out_spec: RawSpec | None = None
    banks: dict = field(default_factory=dict, repr=False)

    @property
    def weights_q(self) -> np.ndarray | None:
        return None if self.bank is None else self.bank.codes.astype(np.int64)

    @weights_q.setter
    def weights_q(self, q: np.ndarray) -> None:
        self.bank = WeightBank(np.asarray(q, dtype=np.float32))

    def nonzero_taps(self) -> int:
        if self.bank is None:
            return _max_row_nonzero(self.weights_f)
        return self.bank.nonzero_taps

    @property
    def partial_sum_bound(self) -> int:
        return self.bank.max_row_l1 * self.in_spec.max_abs

    @property
    def dtype(self) -> type:
        return np.float32 if self.partial_sum_bound < EXACT_FLOAT32_BOUND else np.float64

    def acc_range(self) -> tuple[int, int]:
        pos, neg = self.bank.pos, self.bank.neg
        a, b = self.in_spec.v_min, self.in_spec.v_max
        hi = int((pos * b + neg * a).max())
        lo = int((pos * a + neg * b).min())
        return lo, hi

    def bind(self, specs, bits, edge, normalization):
        entry = self.banks.get(bits.weight_bits)
        if entry is None:
            weights_q, w_scale = quantize_weights(self.weights_f, bits.weight_bits)
            entry = self.banks[bits.weight_bits] = (WeightBank(weights_q), w_scale)
        bank, w_scale = entry
        node = replace(self, bank=bank, w_scale=w_scale, in_spec=specs[self.src])
        bound = node.partial_sum_bound
        if bound >= EXACT_FLOAT_BOUND:
            raise CircuitError(f"node {self.name}: partial sums may reach {bound}, "
                               f"which float64 does not hold exactly (limit 2^53)")
        lo, hi = node.acc_range()
        node.out_spec = RawSpec(scale=node.in_spec.scale * w_scale, v_lo=lo, v_hi=hi)
        return node

    step = _accumulate

    def budget_entry(self, observed_bits=None):
        return BudgetEntry(self.name, self.kind, self.out_spec.width,
                           self.nonzero_taps(), observed_bits)

    def describe(self) -> dict:
        return {**super().describe(), "weights": _describe_weights(self.weights_q),
                "weight_scale": self.w_scale}


@dataclass
class ConvNode(_DotNode):
    """Strided 1-D convolution of the signal with a fixed kernel bank
    (weights (C, N), one row per kernel)."""

    stride: int = field(kw_only=True)
    kind = "conv"

    def clear(self, x: np.ndarray) -> np.ndarray:
        return frame_signal(x, self.weights_f.shape[1], self.stride) @ self.weights_f.T

    def run_int(self, v: np.ndarray) -> np.ndarray:
        w = self.bank.codes.astype(self.dtype, copy=False)
        frames = frame_signal(v.astype(w.dtype), w.shape[1], self.stride)
        return (frames @ w.T).astype(np.int64)  # (B, T, C)

    def describe(self) -> dict:
        return {**super().describe(), "stride": self.stride}


@dataclass
class MatmulNode(_DotNode):
    """Channel-mixing matrix applied per frame (mel filterbank, DCT)."""

    kind = "matmul"

    def clear(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights_f.T

    def run_int(self, v: np.ndarray) -> np.ndarray:
        w = self.bank.codes.astype(self.dtype, copy=False)
        return (v.astype(w.dtype) @ w.T).astype(np.int64)


@dataclass
class LutNode(Node):
    """Elementwise lookup keyed on the incoming integer value: `run_int`
    evaluates `clear` on the codes it gets.  A lookup-table FHE backend
    holds one entry per integer of the input edge; `describe` reports that
    count as `table_size`, and no table is built here.

    'square' and 'abs' emit raw (un-requantized) integers so the cost
    contrast between l1 and squared energy is visible in the budget report;
    'requant', 'log', 'sqrt' and 'normalize' emit values on a quantized
    edge.  Unbound, 'normalize' is the identity calibration collects.
    """

    name: str
    src: str
    semantic: str
    norm_center: float = 0.0
    norm_scale: float = 1.0
    in_spec: EdgeSpec | RawSpec | None = None
    out_spec: EdgeSpec | RawSpec | None = None

    def clear(self, x: np.ndarray) -> np.ndarray:
        if self.semantic == "square":
            return np.square(x)
        if self.semantic == "abs":
            return np.abs(x)
        if self.semantic == "requant":
            return x
        if self.semantic == "log":
            return np.log(np.maximum(x, 0.0) + MFCC_LOG_EPS)
        if self.semantic == "sqrt":
            return np.sqrt(np.maximum(x, 0.0))
        if self.semantic == "normalize":
            return (x - self.norm_center) / self.norm_scale
        raise CircuitError(f"unknown LUT semantic {self.semantic!r}")

    def bind(self, specs, bits, edge, normalization):
        node = replace(self, in_spec=specs[self.src])
        if self.semantic in ("square", "abs"):
            # both are convex and the input edge holds 0, so the outputs
            # span 0 to the larger of the two endpoint values
            lo, hi = node.in_spec.bounds
            scale = node.in_spec.scale
            node.out_spec = RawSpec(scale=scale**2 if self.semantic == "square" else scale,
                                    v_lo=0, v_hi=int(max(self.clear(lo), self.clear(hi))))
            return node
        if self.semantic == "normalize":
            node.norm_center, node.norm_scale = normalization[self.name]
        node.out_spec = edge(self.name)
        return node

    def run_int(self, v: np.ndarray) -> np.ndarray:
        if self.semantic in ("square", "abs"):
            return self.clear(v)
        # `clear` of the fresh `to_float` array is a fresh array: rounding
        # it in place leaves the codes `v` as they were
        return self.out_spec.to_v_in_place(self.clear(self.in_spec.to_float(v)))

    def budget_entry(self, observed_bits=None):
        return BudgetEntry(self.name, f"lut:{self.semantic}",
                           width_of(self.out_spec.max_abs), None, None)

    def describe(self) -> dict:
        lo, hi = self.in_spec.bounds
        return {**super().describe(), "semantic": self.semantic,
                "table_size": hi - lo + 1}


@dataclass
class ReduceNode(Node):
    """Integer sum (or mean, as a rescaled sum) over one axis."""

    name: str
    src: str
    op: str  # 'sum' | 'mean'
    axis: str  # 'pair' | 'channels' | 'time'
    in_spec: EdgeSpec | RawSpec | None = None
    out_spec: RawSpec | None = None
    fan_in: int | None = None

    def _split(self, x: np.ndarray):
        if self.axis == "pair":
            return x.reshape(*x.shape[:-1], 2, x.shape[-1] // 2), -2
        if self.axis == "channels":
            return x, -1
        if self.axis == "time":
            return x, 1
        raise CircuitError(f"unknown reduce axis {self.axis!r}")

    def clear(self, x: np.ndarray) -> np.ndarray:
        arr, ax = self._split(x)
        return arr.sum(axis=ax) if self.op == "sum" else arr.mean(axis=ax)

    def bind(self, specs, bits, edge, normalization):
        fan = 2 if self.axis == "pair" else self.fan_in
        if fan is None:
            raise CircuitError(f"reduce node {self.name} needs fan_in")
        in_spec = specs[self.src]
        lo, hi = in_spec.bounds
        scale = in_spec.scale / fan if self.op == "mean" else in_spec.scale
        return replace(self, in_spec=in_spec, fan_in=fan,
                       out_spec=RawSpec(scale=scale, v_lo=fan * lo, v_hi=fan * hi))

    def run_int(self, v: np.ndarray) -> np.ndarray:
        if self.axis == "time":
            _check_frames(self, v)
        arr, ax = self._split(v)
        return arr.sum(axis=ax)

    step = _accumulate

    def budget_entry(self, observed_bits=None):
        return BudgetEntry(self.name, "reduce", self.out_spec.width,
                           self.fan_in, observed_bits)

    def describe(self) -> dict:
        return {**super().describe(), "op": self.op, "axis": self.axis}


@dataclass
class StdNode(Node):
    """Population standard deviation over time, via exact integer moments.

    Keeps two accumulators (sum and sum of squares); the variance uses the
    exact integer L*S2 - S1^2 so no cancellation occurs before the sqrt.
    """

    name: str
    src: str
    in_spec: EdgeSpec | None = None
    out_spec: EdgeSpec | None = None
    fan_in: int | None = None

    def clear(self, x: np.ndarray) -> np.ndarray:
        return x.std(axis=1)

    def acc_worst(self) -> tuple[int, int]:
        t = self.fan_in
        m = self.in_spec.max_abs
        return t * m, t * m * m

    def bind(self, specs, bits, edge, normalization):
        return replace(self, in_spec=specs[self.src], out_spec=edge(self.name))

    def run_int(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _check_frames(self, v)
        t = self.fan_in
        s1 = v.sum(axis=1)
        s2 = (v * v).sum(axis=1)
        m2 = t * s2 - s1 * s1  # exact: t^2 * variance in integer units
        std = self.in_spec.scale * np.sqrt(m2.astype(np.float64)) / t
        return self.out_spec.to_v_in_place(std), s1, s2

    def step(self, v):
        out, s1, s2 = self.run_int(v)
        w1, w2 = self.acc_worst()
        return out, max(_check_range(self.name, s1, -w1, w1),
                        _check_range(self.name, s2, 0, w2))

    def budget_entry(self, observed_bits=None):
        w1, w2 = self.acc_worst()
        return BudgetEntry(self.name, "std", max(width_of(w1), width_of(w2)),
                           self.fan_in, observed_bits)


@dataclass
class ConcatNode(Node):
    """Stack per-clip scalar heads that share one set of output params
    along the last axis."""

    name: str
    srcs: list
    in_spec: EdgeSpec | None = None
    out_spec: EdgeSpec | None = None

    @property
    def inputs(self) -> list:
        return self.srcs

    def clear(self, *xs) -> np.ndarray:
        return np.stack(xs, axis=-1)

    def bind(self, specs, bits, edge, normalization):
        in_spec = specs[self.srcs[0]]
        if any(specs[s] != in_spec for s in self.srcs):
            raise CircuitError("concat inputs must share output params")
        return replace(self, in_spec=in_spec, out_spec=in_spec)

    def run_int(self, *vs) -> np.ndarray:
        return np.stack(vs, axis=-1)


def _forward(nodes: list, values: dict, clear: bool):
    """Run, in order, each node of `nodes` whose value `values` lacks on the
    batch in `values` (name -> value, 'input' included): `clear()` if
    `clear`, else `step()`.  Yields (name, value, observed) for each node
    run and drops a value from `values` once its last reader ran."""
    last_read = {s: k for k, n in enumerate(nodes) for s in n.inputs}
    for k, n in enumerate(nodes):
        if n.name in values:
            continue
        args = (values[s] for s in n.inputs)
        values[n.name], obs = (n.clear(*args), None) if clear else n.step(*args)
        for s in n.inputs:
            if last_read[s] == k:
                values.pop(s, None)
        yield n.name, values[n.name], obs


# Weight quantization ---------------------------------------------------------

def quantize_weights(w: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Per-tensor symmetric quantization of the 2-D weights `w`: the codes
    and the scale, with exact integer zeros for sparse taps.

    The codes come as float32, which holds each of them exactly
    (|q| <= 2^15 < 2^24).  They are rounded a row block at a time, so the
    codes are the only array of the bank's size this allocates.  Weights so
    small that the scale underflows to 0 raise `CircuitError`."""
    if bits < 2:
        raise CircuitError("weight quantization needs at least 2 bits")
    q_max = (1 << (bits - 1)) - 1
    max_abs = float(max(w.max(), -w.min()))
    q = np.zeros(w.shape, dtype=np.float32)
    if max_abs == 0.0:
        return q, 1.0
    scale = max_abs / q_max
    if scale == 0.0:
        raise CircuitError(f"weight scale {max_abs!r} / {q_max} underflows to 0")
    for r in _row_blocks(*w.shape):
        q[r] = _round_in_place(w[r] / scale, -q_max, q_max)
    return q, scale


# Graph -----------------------------------------------------------------------

@dataclass(frozen=True)
class BudgetEntry:
    node: str
    kind: str
    worst_case_bits: int
    l_taps: int | None = None
    observed_max_bits: int | None = None

    @property
    def violation(self) -> bool:
        return self.worst_case_bits > BUDGET_BITS


@dataclass(frozen=True)
class AccumulatorReport:
    entries: list

    @property
    def violations(self) -> list:
        return [e for e in self.entries if e.violation]

    @property
    def feasible(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "budget_bits": BUDGET_BITS,
            "nodes": [{**asdict(e), "violation": e.violation} for e in self.entries],
        }


@dataclass(frozen=True)
class QuantizedTensor:
    """Exported codes q = v - lift of the output edge `params`."""

    data: np.ndarray
    params: EdgeSpec

    def __post_init__(self):
        lo, hi = (b - self.params.lift for b in self.params.bounds)
        if self.data.min(initial=0) < lo or self.data.max(initial=0) > hi:
            raise CircuitError("quantized data outside the range of its edge")


@dataclass
class ExecutionResult:
    output: QuantizedTensor
    dequantized: np.ndarray
    observed: dict  # node name -> max abs accumulator / value


@dataclass
class CircuitGraph:
    """Realized integer pipeline; immutable once built, reusable across inputs.
    `execute` and `run_clear` run `_forward` on a batch of one clip."""

    kind: str
    approx_label: str
    bits: BitWidthConfig
    input_spec: EdgeSpec
    nodes: list
    output_node: str

    def node(self, name: str):
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)

    def execute(self, buf: AudioBuffer) -> ExecutionResult:
        """Integer forward of one clip: a batch of one, returned without
        the clip axis."""
        values = {"input": self.input_spec.to_v(buf.samples[None])}
        observed = {name: obs for name, _, obs in _forward(self.nodes, values, clear=False)
                    if obs is not None}
        return self._result(values[self.output_node][0], observed)

    def _result(self, v: np.ndarray, observed: dict) -> ExecutionResult:
        spec = self.node(self.output_node).out_spec
        return ExecutionResult(
            output=QuantizedTensor(data=v - spec.lift, params=spec),
            dequantized=spec.to_float(v),
            observed=observed,
        )

    def run_clear(self, buf: AudioBuffer) -> dict:
        """Float forward of the same structure (no quantization anywhere) on
        one clip: every value by name, 'input' included, without the clip axis."""
        values = _forward(self.nodes, {"input": buf.samples[None]}, clear=True)
        return {"input": buf.samples, **{name: v[0] for name, v, _ in values}}

    def check_budget(self, observed: dict | None = None) -> AccumulatorReport:
        observed = observed or {}
        entries = (n.budget_entry(width_of(observed[n.name]) if n.name in observed else None)
                   for n in self.nodes)
        return AccumulatorReport(entries=[e for e in entries if e is not None])

    def to_json(self) -> str:
        doc = {
            "format_version": 1,
            "kind": self.kind,
            "approx": self.approx_label,
            "bits": self.bits.as_dict(),
            "input_edge": self.input_spec.describe(),
            "output_node": self.output_node,
            "nodes": [n.describe() for n in self.nodes],
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# Pipeline construction -------------------------------------------------------

def approx_label(spec: ApproxSpec) -> str:
    parts = [spec.kind]
    for f in spec.__dataclass_fields__:
        parts.append(str(getattr(spec, f)))
    return ":".join(parts)


@dataclass
class PipelinePlan:
    """Structure plus calibration statistics; realize() binds bit widths.

    Calibration runs the clear pipeline once; realizing different bit-width
    configurations afterwards is cheap, which is what the grid search needs.
    """

    kind: str
    approx: ApproxSpec
    sample_rate_hz: int
    nodes: list
    output_node: str
    normalization: dict | None = None  # node name -> (center, scale)
    ranges: dict | None = None  # node name (and 'input') -> (lo, hi)

    def calibrate(self, calibration: list) -> "PipelinePlan":
        if not calibration:
            raise CircuitError("calibration set is empty")
        ranges: dict = {}

        def widen(name, arr):
            lo, hi = ranges.get(name, (math.inf, -math.inf))
            ranges[name] = (min(float(arr.min()), lo), max(float(arr.max()), hi))

        collected: dict = {name: [] for name in (self.normalization or {})}
        for buf in calibration:
            if buf.sample_rate_hz != self.sample_rate_hz:
                raise CircuitError("calibration buffer sample rate mismatch")
            widen("input", buf.samples)
            for name, v, _ in _forward(self.nodes, {"input": buf.samples[None]}, clear=True):
                widen(name, v)
                if name in collected:
                    collected[name].append(v.ravel())
        if self.normalization is not None:
            norm = {}
            for name, vals in collected.items():
                flat = np.concatenate(vals)
                center = float(flat.mean())
                scale = float(flat.std())
                if scale <= 0.0:
                    scale = 1.0
                norm[name] = (center, scale)
                lo, hi = ranges[name]
                ranges[name] = ((lo - center) / scale, (hi - center) / scale)
            self.normalization = norm
        self.ranges = ranges
        return self

    def realize(self, bits: BitWidthConfig) -> CircuitGraph:
        """Bind one bit-width configuration: the returned graph executes, and
        an over-budget configuration raises `BudgetViolation` instead.  Each
        call binds every node afresh, so graphs share no node."""
        return Sweep(self).realize(bits)


# The config fields in the order a plan's nodes first read them: the input
# edge, the conv weights, the intermediate edges, the output edges.  A
# node's depth is the length of the prefix of it that holds every field the
# node depends on, so configs sorted by it share the most bound nodes and
# kept values.
SWEEP_ORDER = ("input_bits", "weight_bits", "mid_bits", "output_bits")


class _ReadLog:
    """Stands in for a `BitWidthConfig` and records, in `depth`, the
    deepest `SWEEP_ORDER` position (counted from 1) read from it since
    `depth` was last reset to 0."""

    def __init__(self, bits: BitWidthConfig):
        self._bits = bits
        self.depth = 0

    def __getattr__(self, name: str):
        if name in SWEEP_ORDER:
            self.depth = max(self.depth, SWEEP_ORDER.index(name) + 1)
        return getattr(self._bits, name)


@dataclass
class _Slot:
    """What a sweep keeps of one node: its depth and what it bound."""

    depth: int  # the SWEEP_ORDER prefix length holding every width the node reads
    node: object  # the bound node; for 'input', the input edge
    entry: BudgetEntry | None  # the bound node's budget entry
    value: tuple | None = None  # (value, observed) over the sweep's clips


class Sweep:
    """Realizes and executes one calibrated plan at many configurations,
    rebinding and rerunning only the nodes whose widths changed.

    The clips must have equal lengths: every execution runs the graph once
    over all of them, stacked into one (B, L) batch.

    A node's depth is the deepest `SWEEP_ORDER` position (from 1) that its
    `bind` reads, through `bits` or the plan's `edge(name)`, or that its
    inputs have, whichever is deeper.  Each node has one slot: its depth,
    the bound node, its budget entry and, once executed, its batched
    (value, observed) (see `execute` for the values it drops).

    One rule decides reuse: `realize` keeps a slot iff its depth is at
    most the length of the `SWEEP_ORDER` prefix the config shares with
    `realized`, the last config whose binds all completed, and rebinds the
    node, dropping its value, otherwise.  A kept node was bound at the same
    first `depth` widths, so a reused value was range-checked by the same
    bound node on the same input; after a failed bind every node rebinds.
    A config costs what its changed nodes cost: the verdict comes from the
    kept budget entries, `execute` seeds `_forward` with the kept values so
    that it runs only the slots with no value, and each quantized edge is
    computed once per range and width.  `clear_output` runs the clear arm
    over all clips in one `_forward`.

    `visit` realizes configs sorted by the fields in `SWEEP_ORDER`, so
    consecutive configs share the longest prefix.  `PipelinePlan.realize`
    is the case of a fresh sweep and one config.
    """

    def __init__(self, plan: PipelinePlan, clips=()):
        lengths = sorted({len(c.samples) for c in clips})
        if len(lengths) > 1:
            raise CircuitError(f"sweep clips must have one length, got lengths {lengths}")
        self.plan = plan
        self.samples = np.stack([c.samples for c in clips]) if lengths else None  # (B, L)
        self.slots: dict = {}
        self.specs: dict = {}  # name -> the output edge of the node in its slot
        self.edges: dict = {}  # (group of node names, width) -> EdgeSpec
        self.realized: tuple | None = None  # the last config whose binds all completed
        self.graph: CircuitGraph | None = None  # the graph realized last
        self.label = approx_label(plan.approx)
        # Heads feeding a multi-input node (the descriptor concat) must land
        # on one shared quantized edge, so their ranges are pooled.
        self.pooled = frozenset(s for n in plan.nodes if len(n.inputs) > 1
                                for s in n.inputs)
        self.readers: dict = {}  # name -> the nodes that read its value
        for n in plan.nodes:
            for s in n.inputs:
                self.readers.setdefault(s, []).append(n.name)
        self.order = [("input", None), *((n.name, n) for n in plan.nodes)]

    def _edge(self, log: _ReadLog, name: str) -> EdgeSpec:
        """The plan's quantized edge for node `name`, at the width read
        through `log`."""
        plan = self.plan
        pooled = name in self.pooled
        b = log.output_bits if pooled or name == plan.output_node else log.mid_bits
        group = self.pooled if pooled else (name,)
        spec = self.edges.get((group, b))
        if spec is None:
            lo = min(plan.ranges[s][0] for s in group)
            hi = max(plan.ranges[s][1] for s in group)
            spec = self.edges[group, b] = EdgeSpec.from_range(lo, hi, bits=b,
                                                              signed=lo < 0.0)
        return spec

    def realize(self, bits: BitWidthConfig) -> CircuitGraph:
        """Bind `bits`, reusing every node whose depth lies in the prefix it
        shares with the last realized config; raises `BudgetViolation` for
        an over-budget configuration."""
        plan = self.plan
        if plan.ranges is None:
            raise CircuitError("plan must be calibrated before realization")
        self.graph = None
        config = tuple(getattr(bits, f) for f in SWEEP_ORDER)
        last, self.realized = self.realized, None  # None stays if a bind raises
        shared = 0 if last is None else next(
            (i for i, (a, b) in enumerate(zip(config, last)) if a != b), len(config))
        log = _ReadLog(bits)
        edge = partial(self._edge, log)
        slots, specs = self.slots, self.specs
        for name, n in self.order:
            slot = slots.get(name)
            if slot is not None and slot.depth <= shared:
                continue
            log.depth = 0
            if n is None:
                node = spec = EdgeSpec.from_range(*plan.ranges["input"],
                                                  bits=log.input_bits, signed=False)
                entry, depth = None, log.depth
            else:
                node = n.bind(specs, log, edge, plan.normalization)
                spec, entry = node.out_spec, node.budget_entry()
                depth = max(log.depth, *(slots[s].depth for s in n.inputs))
            slots[name] = _Slot(depth, node, entry)
            specs[name] = spec
        self.realized = config

        kept = [slots[n.name] for n in plan.nodes]
        report = AccumulatorReport(entries=[s.entry for s in kept if s.entry is not None])
        if not report.feasible:
            raise BudgetViolation(report)
        graph = CircuitGraph(
            kind=plan.kind,
            approx_label=self.label,
            bits=bits,
            input_spec=slots["input"].node,
            nodes=[s.node for s in kept],
            output_node=plan.output_node,
        )
        self.graph = graph
        return graph

    def _keeps_value(self, name: str) -> bool:
        """Whether the slot of `name` keeps the value itself: for the output,
        and for a node with a deeper reader, since only such a reader can
        run again while the node is reused."""
        depth = self.slots[name].depth
        return name == self.plan.output_node or any(
            self.slots[r].depth > depth for r in self.readers.get(name, ()))

    def _graph(self) -> CircuitGraph:
        if self.graph is None:
            raise CircuitError("the sweep has no realized graph to execute")
        if self.samples is None:
            raise CircuitError("the sweep has no clips to execute on")
        return self.graph

    def execute(self) -> ExecutionResult:
        """Run the graph realized last once over all clips, running only the
        nodes whose slot holds no value.  The result's arrays lead with the
        clip axis, and `observed` holds the maximum over the clips.

        The forward starts from what the slots hold: the value, or None
        where `_keeps_value` kept the observed magnitude alone, which no
        reader that runs needs.  What a run computes is stored once the
        whole run succeeded, so a failed run leaves every slot as it was."""
        graph = self._graph()
        slots = self.slots
        values = {name: s.value[0] for name, s in slots.items() if s.value is not None}
        computed: dict = {}  # name -> what its slot keeps of this run
        if "input" not in values:
            v = values["input"] = graph.input_spec.to_v(self.samples)
            computed["input"] = (v if self._keeps_value("input") else None), None
        for name, v, obs in _forward(graph.nodes, values, clear=False):
            computed[name] = (v if self._keeps_value(name) else None), obs
        for name, kept in computed.items():
            slots[name].value = kept
        observed = {n.name: slots[n.name].value[1] for n in graph.nodes
                    if slots[n.name].value[1] is not None}
        return graph._result(slots[graph.output_node].value[0], observed)

    def clear_output(self) -> np.ndarray:
        """The clear output of the graph realized last, over all clips at
        once, leading with the clip axis: row b equals `run_clear` of clip b."""
        graph = self._graph()
        for name, v, _ in _forward(graph.nodes, {"input": self.samples}, clear=True):
            if name == graph.output_node:
                return v

    def visit(self, configs: list):
        """Realize the distinct configs of `configs` sorted by the fields in
        `SWEEP_ORDER`, yielding (bits, graph, None), or (bits, None,
        violation) for one over budget."""
        for bits in sorted(set(configs),
                           key=lambda b: tuple(getattr(b, f) for f in SWEEP_ORDER)):
            try:
                graph, violation = self.realize(bits), None
            except BudgetViolation as exc:
                graph, violation = None, exc
            yield bits, graph, violation


def _energy_head(nodes: list, src: str, approx: ApproxSpec, prefix: str,
                 paired: bool) -> str:
    """Square (or abs for l1) energy over conv outputs, summed over re/im."""
    semantic = "abs" if isinstance(approx, L1Energy) else "square"
    nodes.append(LutNode(name=f"{prefix}_energy", src=src, semantic=semantic))
    head = f"{prefix}_energy"
    if paired:
        nodes.append(ReduceNode(name=f"{prefix}_energy_sum", src=head,
                                op="sum", axis="pair"))
        head = f"{prefix}_energy_sum"
    return head


def _stft_power_nodes(approx: ApproxSpec, cfg: StftConfig,
                      sample_rate_hz: int) -> tuple[list, str]:
    bank = approx_kernels(approx, cfg, hann_window(cfg.window_length), sample_rate_hz)
    nodes = [
        ConvNode(name="stft_conv", src="input", weights_f=bank.kernels,
                 stride=cfg.hop),
        LutNode(name="stft_conv_requant", src="stft_conv", semantic="requant"),
    ]
    head = _energy_head(nodes, "stft_conv_requant", approx, "stft", paired=True)
    nodes.append(LutNode(name="stft_power", src=head, semantic="requant"))
    return nodes, "stft_power"


def _gamma_nodes(approx: ApproxSpec, cfg: StftConfig, sample_rate_hz: int,
                 gamma: GammatoneSpec) -> list:
    kernels = gammatone_kernels(gamma, cfg, sample_rate_hz)
    nodes = [
        ConvNode(name="gamma_conv", src="input", weights_f=kernels, stride=cfg.hop),
        LutNode(name="gamma_conv_requant", src="gamma_conv", semantic="requant"),
    ]
    head = _energy_head(nodes, "gamma_conv_requant", approx, "gamma", paired=False)
    nodes.append(LutNode(name="gamma_spec", src=head, semantic="requant"))
    return nodes


def _mel_nodes(power: str, mel: MelSpec, cfg: StftConfig, sample_rate_hz: int) -> list:
    """Mel filterbank over the power spectrogram `power`, requantized."""
    matrix = mel_filterbank_matrix(mel, cfg, sample_rate_hz)
    return [MatmulNode(name="mel_matmul", src=power, weights_f=matrix),
            LutNode(name="mel_spec", src="mel_matmul", semantic="requant")]


def build_transform_plan(kind: str, approx: ApproxSpec, cfg: StftConfig,
                         sample_rate_hz: int,
                         mel: MelSpec | None = None,
                         gamma: GammatoneSpec | None = None,
                         n_mfcc: int = N_MFCC) -> PipelinePlan:
    """Un-calibrated pipeline structure for one transform."""
    if kind not in TRANSFORMS:
        raise CircuitError(f"unknown transform {kind!r}")
    if kind == "gammatone":
        nodes = _gamma_nodes(approx, cfg, sample_rate_hz, gamma or GammatoneSpec())
        output = "gamma_spec"
    else:
        nodes, power = _stft_power_nodes(approx, cfg, sample_rate_hz)
        output = power
        if kind in ("mel", "mfcc"):
            mspec = mel or MelSpec()
            nodes += _mel_nodes(power, mspec, cfg, sample_rate_hz)
            output = "mel_spec"
            if kind == "mfcc":
                if not 1 <= n_mfcc <= mspec.n_mels:
                    raise CircuitError(f"n_mfcc={n_mfcc} must lie in 1..n_mels "
                                       f"(n_mels={mspec.n_mels})")
                d = dct_matrix(mspec.n_mels)[:n_mfcc]
                nodes.append(LutNode(name="log_lut", src="mel_spec", semantic="log"))
                nodes.append(MatmulNode(name="dct_matmul", src="log_lut", weights_f=d))
                nodes.append(LutNode(name="mfcc_out", src="dct_matmul",
                                     semantic="requant"))
                output = "mfcc_out"
    return PipelinePlan(kind=kind, approx=approx, sample_rate_hz=sample_rate_hz,
                        nodes=nodes, output_node=output)


DESCRIPTOR_NAMES = ("m_gstds", "m_mstds", "mean_rms", "std_rms")


def build_descriptor_plan(approx: ApproxSpec, cfg: StftConfig, sample_rate_hz: int,
                          n_frames: int,
                          mel: MelSpec | None = None,
                          gamma: GammatoneSpec | None = None) -> PipelinePlan:
    """Joint four-descriptor pipeline ending in one shared-quantization vector.

    `n_frames` fixes the time fan-in of the reductions, so all inputs must
    produce the same frame count (equal-length clips).
    """
    if n_frames < 2:
        raise CircuitError("need at least 2 frames for time statistics")
    mspec = mel or MelSpec()
    gspec = gamma or GammatoneSpec()

    nodes, power = _stft_power_nodes(approx, cfg, sample_rate_hz)

    # mean/std over time of per-frame RMS of the STFT power spectrogram
    nodes.append(ReduceNode(name="rms_mean_power", src=power, op="mean",
                            axis="channels", fan_in=cfg.bins))
    nodes.append(LutNode(name="rms", src="rms_mean_power", semantic="sqrt"))
    nodes.append(ReduceNode(name="mean_rms_sum", src="rms", op="mean", axis="time",
                            fan_in=n_frames))
    nodes.append(LutNode(name="mean_rms", src="mean_rms_sum", semantic="normalize"))
    nodes.append(StdNode(name="std_rms_val", src="rms", fan_in=n_frames))
    nodes.append(LutNode(name="std_rms", src="std_rms_val", semantic="normalize"))

    # mean over Mel channels of the per-channel std over time
    nodes += _mel_nodes(power, mspec, cfg, sample_rate_hz)
    nodes.append(StdNode(name="mel_stds", src="mel_spec", fan_in=n_frames))
    nodes.append(ReduceNode(name="m_mstds_sum", src="mel_stds", op="mean",
                            axis="channels", fan_in=mspec.n_mels))
    nodes.append(LutNode(name="m_mstds", src="m_mstds_sum", semantic="normalize"))

    # same over gammatone channels
    nodes += _gamma_nodes(approx, cfg, sample_rate_hz, gspec)
    nodes.append(StdNode(name="gamma_stds", src="gamma_spec", fan_in=n_frames))
    nodes.append(ReduceNode(name="m_gstds_sum", src="gamma_stds", op="mean",
                            axis="channels", fan_in=gspec.n_filters))
    nodes.append(LutNode(name="m_gstds", src="m_gstds_sum", semantic="normalize"))

    nodes.append(ConcatNode(name="descriptor_vector",
                            srcs=list(DESCRIPTOR_NAMES)))
    return PipelinePlan(kind="descriptors", approx=approx,
                        sample_rate_hz=sample_rate_hz, nodes=nodes,
                        output_node="descriptor_vector",
                        normalization={name: None for name in DESCRIPTOR_NAMES})
