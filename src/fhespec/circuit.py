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
range; floats round half away from zero and clamp to it (four passes and
an int64 cast), and codes go back to floats in one multiply.  Weights
quantize symmetrically (`quantize_weights`), to float32 codes.  Outputs
export the codes q = v - lift, in [0, 2^B - 1], or [-2^(B-1), 2^(B-1) - 1]
on a signed edge.

A `Sweep` realizes one plan at many configurations: with each node's depth
learned once, a config rebinds only the nodes deeper than the prefix it
shares with the last one, the budget verdict is kept up to date, and an
execution runs only the nodes rebound since the last one.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import cached_property, partial
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .approx import ApproxSpec, approx_kernels, approx_label
from .quant import BitWidthConfig, width_of
from .record import Record, set_field
from .transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    StftConfig,
    dct_matrix,
    frame_signal,
    gammatone_kernels,
    mel_filterbank_matrix,
    MFCC_LOG_EPS,
    N_MFCC,
    _row_blocks,
)

BUDGET_BITS = 16

# float32 holds every integer below 2^24 exactly, and so every sum of such
# integers that stays below it.  The integer dot products run in float32
# BLAS, and a node whose partial sums could reach 2^24 refuses to run (see
# `_DotNode`); no node the budget accepts comes near it.
EXACT_FLOAT32_BOUND = 1 << 24

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
    zero (np.round is half-even), clamp it to [lo, hi] and return it as
    int64.  Overwrites `t`.  The cast truncates toward zero, and
    trunc(t + copysign(0.5, t)) is sign(t) * floor(|t| + 0.5) for every
    float, ties and -0.0 included; clamping to integer bounds commutes with
    truncation, so it runs first and keeps the cast inside int64."""
    t += np.copysign(0.5, t)
    np.maximum(t, lo, out=t)
    np.minimum(t, hi, out=t)
    return t.astype(np.int64)


class EdgeSpec(NamedTuple):
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
        return _round_in_place(t, self.v_min, self.v_max)

    def to_float(self, v) -> np.ndarray:
        return np.multiply(v, self.scale, dtype=np.float64)

    def describe(self) -> dict:
        return {"raw": False, "alpha": self.scale * self.v_min,
                "beta": self.scale * self.v_max, "bits": self.bits,
                "signed": self.signed}


class RawSpec(NamedTuple):
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
        return np.multiply(v, self.scale, dtype=np.float64)

    def describe(self) -> dict:
        return {"raw": True, "scale": self.scale, "v_lo": self.v_lo,
                "v_hi": self.v_hi, "width": self.width}


# Nodes -----------------------------------------------------------------------

class Node:
    """The node protocol, with the defaults node types override.

    A node is built from its structure alone: name, inputs, float weights
    or semantic, stride, op, axis and fan-in; calibration sets a
    `normalize` lookup's constants.  Its edges `in_spec` and `out_spec`
    (and a dot node's `bank`) are class defaults of None that only
    `bind(specs, bits, edge)` sets: it returns a `_copy` bound to one
    bit-width configuration, sharing the float weights and constants, so
    the plan's own nodes are never modified (beyond the weight banks a conv
    or matmul node caches per width): `specs` maps every name bound so far
    to its output edge and `edge(name)` is the plan's quantized edge for a
    node.  A bind reads widths from `bits` and `edge` alone; that is how a
    `Sweep` learns a node's depth in `SWEEP_ORDER`.  `clear()` never touches
    quantization: a plan's own nodes run the clear arm.  A bound node
    executes as it is: `step()` runs `run_int`, checks any accumulator
    against its declared range and returns the value with its observed
    magnitude (None when nothing accumulates); `budget_entry()` and
    `describe()` feed the budget report and the JSON serialization.

    Every value has a leading clip axis: the input is (B, L), a frame-wise
    value (B, T, C) or (B, T), a statistic over time (B, C) or (B,), and
    the descriptor vector (B, 4).  `clear` and `run_int` treat the clips
    independently, so an observed magnitude is the maximum over the batch.
    `_forward` is the one loop that runs nodes, `clear` or `step` on a
    batch, for calibration, both arms of a graph and the sweep's run lists
    alike.
    """

    in_spec = out_spec = None

    @property
    def inputs(self) -> list:
        return [self.src]

    def _copy(self, **changes):
        """A copy of this node, sharing its attributes, with `changes` set."""
        node = object.__new__(type(self))
        node.__dict__.update(self.__dict__, **changes)
        return node

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


def _check_fan_in(node, n: int, unit: str) -> None:
    """Refuse a clip whose reduced axis holds `n` values, not the fan-in
    that sized the node's mean and worst case."""
    if n != node.fan_in:
        raise CircuitError(f"node {node.name}: clip has {n} {unit}, "
                           f"but the node was sized for fan_in={node.fan_in}")


def _max_row_nonzero(w: np.ndarray) -> int:
    return max(int(np.count_nonzero(w[r], axis=1).max()) for r in _row_blocks(*w.shape))


def _describe_weights(w: np.ndarray) -> dict:
    return {"shape": list(w.shape), "nonzero": int(np.count_nonzero(w)),
            "sha256": hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()}


class WeightBank:
    """A kernel bank quantized at one weight width: its codes and `scale`.

    `codes` holds the integer codes as float32, which holds every code
    exactly (|q| <= 2^15 < 2^24), and is the bank's only array of its
    size: the float32 kernel multiplies it as it is (see `_DotNode`).  The
    bank also holds the positive and negative row sums `acc_range` reads,
    the largest row sum of |q| and the largest nonzero count of a row, all
    derived once, here, a row block at a time.
    """

    def __init__(self, codes: np.ndarray, scale: float):
        self.codes = codes
        self.scale = scale
        self.pos, self.neg = (np.empty(codes.shape[0], dtype=np.int64) for _ in range(2))
        for r in _row_blocks(*codes.shape):
            # float64 sums of integers stay exact below 2^53
            self.pos[r] = np.maximum(codes[r], 0).sum(axis=1, dtype=np.float64)
            self.neg[r] = np.minimum(codes[r], 0).sum(axis=1, dtype=np.float64)
        self.max_row_l1 = int((self.pos - self.neg).max(initial=0))
        self.nonzero_taps = _max_row_nonzero(codes)


class _DotNode(Node):
    """Integer dot products of the input with a fixed weight matrix.

    The products run in float32 BLAS on the bank's codes and are cast back
    to int64.  That is exact: inputs and weights are integers, and no
    partial sum exceeds `partial_sum_bound` = max_row(sum |w_q|) * max |v|
    in magnitude, so while it stays below 2^24 no summation order can
    round.  The bound is per output element, so it covers a batch of any
    size.  A realized node holds its float kernel `weights_f` and the
    bank's codes, and no other array of the bank's size.

    Every node the budget accepts has partial sums of at most 2^17: row r
    spans hi_r - lo_r = l1_r * (v_max - v_min), at least l1_r * max |v|
    because the input edge holds 0, and a width within the 16-bit budget
    puts hi_r and lo_r inside +-2^16.  A wider node binds with its exact
    range, which the budget refuses; run by hand, it raises `CircuitError`
    once its bound reaches 2^24.

    `banks` maps a weight width to its `WeightBank`, filled lazily by
    `bind` and shared with every bound copy, so each width quantizes the
    float weights once.  `weights_q` reads the bound codes as int64, cast
    afresh on each read.  `kind` names the node in the budget report.
    """

    bank = None

    def __init__(self, name: str, src: str, weights_f: np.ndarray):
        self.name = name
        self.src = src
        self.weights_f = weights_f  # (C_out, C_in)
        self.banks = {}

    @property
    def weights_q(self) -> np.ndarray | None:
        return None if self.bank is None else self.bank.codes.astype(np.int64)

    def nonzero_taps(self) -> int:
        if self.bank is None:
            return _max_row_nonzero(self.weights_f)
        return self.bank.nonzero_taps

    @property
    def partial_sum_bound(self) -> int:
        return self.bank.max_row_l1 * self.in_spec.max_abs

    def acc_range(self) -> tuple[int, int]:
        pos, neg = self.bank.pos, self.bank.neg
        a, b = self.in_spec.v_min, self.in_spec.v_max
        hi = int((pos * b + neg * a).max())
        lo = int((pos * a + neg * b).min())
        return lo, hi

    def bind(self, specs, bits, edge):
        bank = self.banks.get(bits.weight_bits)
        if bank is None:
            bank = self.banks[bits.weight_bits] = WeightBank(
                *quantize_weights(self.weights_f, bits.weight_bits))
        node = self._copy(bank=bank, in_spec=specs[self.src])
        lo, hi = node.acc_range()
        node.out_spec = RawSpec(scale=node.in_spec.scale * bank.scale, v_lo=lo, v_hi=hi)
        return node

    def _dot(self, x: np.ndarray) -> np.ndarray:
        """x @ codes.T as int64, for `x` float32 integers of the input edge."""
        bound = self.partial_sum_bound
        if bound >= EXACT_FLOAT32_BOUND:
            raise CircuitError(f"node {self.name}: partial sums may reach {bound}, "
                               f"which float32 does not hold exactly (limit 2^24)")
        return (x @ self.bank.codes.T).astype(np.int64)

    step = _accumulate

    def budget_entry(self, observed_bits=None):
        return BudgetEntry(self.name, self.kind, self.out_spec.width,
                           self.nonzero_taps(), observed_bits)

    def describe(self) -> dict:
        return {**super().describe(), "weights": _describe_weights(self.weights_q),
                "weight_scale": self.bank.scale}


class ConvNode(_DotNode):
    """Strided 1-D convolution of the signal with a fixed kernel bank
    (weights (C, N), one row per kernel)."""

    kind = "conv"

    def __init__(self, name: str, src: str, weights_f: np.ndarray, *, stride: int):
        super().__init__(name, src, weights_f)
        self.stride = stride

    def clear(self, x: np.ndarray) -> np.ndarray:
        return frame_signal(x, self.weights_f.shape[1], self.stride) @ self.weights_f.T

    def run_int(self, v: np.ndarray) -> np.ndarray:
        frames = frame_signal(v.astype(np.float32), self.weights_f.shape[1], self.stride)
        return self._dot(frames)  # (B, T, C)

    def describe(self) -> dict:
        return {**super().describe(), "stride": self.stride}


class MatmulNode(_DotNode):
    """Channel-mixing matrix applied per frame (mel filterbank, DCT)."""

    kind = "matmul"

    def clear(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights_f.T

    def run_int(self, v: np.ndarray) -> np.ndarray:
        return self._dot(v.astype(np.float32))


LUT_SEMANTICS = ("requant", "log", "sqrt", "normalize", "square", "abs")


class LutNode(Node):
    """Elementwise lookup keyed on the incoming integer value: `run_int`
    evaluates `clear` on the codes it gets.  A lookup-table FHE backend
    holds one entry per integer of the input edge; `describe` reports that
    count as `table_size`, and no table is built here.

    'square' and 'abs' emit raw (un-requantized) integers so the cost
    contrast between l1 and squared energy is visible in the budget report;
    'requant', 'log', 'sqrt' and 'normalize' emit values on a quantized
    edge.  'normalize' z-scores with `norm_center` and `norm_scale`, class
    defaults of the identity that only calibration sets on the plan's node,
    which its bound copies share.
    """

    norm_center, norm_scale = 0.0, 1.0

    def __init__(self, name: str, src: str, semantic: str):
        if semantic not in LUT_SEMANTICS:
            raise CircuitError(f"unknown LUT semantic {semantic!r}")
        self.name = name
        self.src = src
        self.semantic = semantic

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
        return (x - self.norm_center) / self.norm_scale  # normalize

    def bind(self, specs, bits, edge):
        node = self._copy(in_spec=specs[self.src])
        if self.semantic in ("square", "abs"):
            # both are convex and the input edge holds 0, so the outputs
            # span 0 to the larger of the two endpoint values
            lo, hi = node.in_spec.bounds
            scale = node.in_spec.scale
            node.out_spec = RawSpec(scale=scale**2 if self.semantic == "square" else scale,
                                    v_lo=0, v_hi=int(max(self.clear(lo), self.clear(hi))))
            return node
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


class ReduceNode(Node):
    """Integer sum (or mean, as a rescaled sum) of `fan_in` values along one axis."""

    def __init__(self, name: str, src: str, op: str, axis: str, fan_in: int | None = None):
        if op not in ("sum", "mean"):
            raise CircuitError(f"unknown reduce op {op!r}")
        if axis not in ("pair", "channels", "time"):
            raise CircuitError(f"unknown reduce axis {axis!r}")
        if axis == "pair" and fan_in not in (None, 2):
            raise CircuitError(f"reduce node {name} sums pairs, not fan_in={fan_in}")
        if axis != "pair" and fan_in is None:
            raise CircuitError(f"reduce node {name} needs fan_in")
        self.name = name
        self.src = src
        self.op = op
        self.axis = axis
        self.fan_in = 2 if axis == "pair" else fan_in

    def _split(self, x: np.ndarray):
        if self.axis == "pair":
            return x.reshape(*x.shape[:-1], 2, x.shape[-1] // 2), -2
        if self.axis == "channels":
            return x, -1
        return x, 1  # time

    def clear(self, x: np.ndarray) -> np.ndarray:
        arr, ax = self._split(x)
        return arr.sum(axis=ax) if self.op == "sum" else arr.mean(axis=ax)

    def bind(self, specs, bits, edge):
        in_spec, fan = specs[self.src], self.fan_in
        lo, hi = in_spec.bounds
        scale = in_spec.scale / fan if self.op == "mean" else in_spec.scale
        return self._copy(in_spec=in_spec,
                          out_spec=RawSpec(scale=scale, v_lo=fan * lo, v_hi=fan * hi))

    def run_int(self, v: np.ndarray) -> np.ndarray:
        arr, ax = self._split(v)
        _check_fan_in(self, arr.shape[ax], "frames" if self.axis == "time" else self.axis)
        return arr.sum(axis=ax)

    step = _accumulate

    def budget_entry(self, observed_bits=None):
        return BudgetEntry(self.name, "reduce", self.out_spec.width,
                           self.fan_in, observed_bits)

    def describe(self) -> dict:
        return {**super().describe(), "op": self.op, "axis": self.axis}


class StdNode(Node):
    """Population standard deviation over time, via exact integer moments.

    Keeps two accumulators (sum and sum of squares); the variance uses the
    exact integer L*S2 - S1^2 so no cancellation occurs before the sqrt.
    """

    def __init__(self, name: str, src: str, fan_in: int):
        self.name = name
        self.src = src
        self.fan_in = fan_in

    def clear(self, x: np.ndarray) -> np.ndarray:
        return x.std(axis=1)

    def acc_worst(self) -> tuple[int, int]:
        t = self.fan_in
        m = self.in_spec.max_abs
        return t * m, t * m * m

    def bind(self, specs, bits, edge):
        return self._copy(in_spec=specs[self.src], out_spec=edge(self.name))

    def run_int(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        _check_fan_in(self, v.shape[1], "frames")
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


class ConcatNode(Node):
    """Stack per-clip scalar heads that share one set of output params
    along the last axis."""

    def __init__(self, name: str, srcs: list):
        self.name = name
        self.srcs = srcs

    @property
    def inputs(self) -> list:
        return self.srcs

    def clear(self, *xs) -> np.ndarray:
        return np.stack(xs, axis=-1)

    def bind(self, specs, bits, edge):
        in_spec = specs[self.srcs[0]]
        if any(specs[s] != in_spec for s in self.srcs):
            raise CircuitError("concat inputs must share output params")
        return self._copy(in_spec=in_spec, out_spec=in_spec)

    def run_int(self, *vs) -> np.ndarray:
        return np.stack(vs, axis=-1)


def _drop_lists(nodes: list) -> list:
    """For each node of `nodes`, the names of the values it is the last
    reader of: what `_forward` drops once the node ran."""
    last_read = {s: k for k, n in enumerate(nodes) for s in n.inputs}
    drops = [[] for _ in nodes]
    for s, k in last_read.items():
        drops[k].append(s)
    return drops


def _forward(nodes: list, drops: list, values: dict, clear: bool):
    """Run each node of `nodes`, in order, on the batch in `values` (name
    -> value: 'input', or what the nodes read from outside `nodes`):
    `clear()` if `clear`, else `step()`.  Yields (name, value, observed)
    for each node and, after running node k, drops from `values` the
    values named by `drops[k]` (`_drop_lists(nodes)`)."""
    for n, dead in zip(nodes, drops):
        args = (values[s] for s in n.inputs)
        values[n.name], obs = (n.clear(*args), None) if clear else n.step(*args)
        for s in dead:
            del values[s]
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

class BudgetEntry(NamedTuple):
    node: str
    kind: str
    worst_case_bits: int
    l_taps: int | None = None
    observed_max_bits: int | None = None

    @property
    def violation(self) -> bool:
        return self.worst_case_bits > BUDGET_BITS


class AccumulatorReport(NamedTuple):
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
            "nodes": [{**e._asdict(), "violation": e.violation} for e in self.entries],
        }


class QuantizedTensor(Record):
    """Exported codes q = v - lift of the output edge `params`."""

    __slots__ = _fields = ("data", "params")

    def __init__(self, data: np.ndarray, params: EdgeSpec):
        lo, hi = (b - params.lift for b in params.bounds)
        if data.min(initial=0) < lo or data.max(initial=0) > hi:
            raise CircuitError("quantized data outside the range of its edge")
        set_field(self, "data", data)
        set_field(self, "params", params)


class ExecutionResult(NamedTuple):
    output: QuantizedTensor
    dequantized: np.ndarray
    observed: dict  # node name -> max abs accumulator / value


class CircuitGraph:
    """Realized integer pipeline; immutable once built, reusable across inputs.
    `execute` and `run_clear` run `_forward` on a batch of one clip.  The
    name index and the drop lists are built on first use, once per graph."""

    def __init__(self, kind: str, approx_label: str, bits: BitWidthConfig,
                 input_spec: EdgeSpec, nodes: list, output_node: str):
        self.kind = kind
        self.approx_label = approx_label
        self.bits = bits
        self.input_spec = input_spec
        self.nodes = nodes
        self.output_node = output_node

    @cached_property
    def _by_name(self) -> dict:
        return {n.name: n for n in self.nodes}

    @cached_property
    def _drops(self) -> list:
        return _drop_lists(self.nodes)

    def node(self, name: str):
        return self._by_name[name]

    def execute(self, buf: AudioBuffer) -> ExecutionResult:
        """Integer forward of one clip: a batch of one, returned without
        the clip axis."""
        values = {"input": self.input_spec.to_v(buf.samples[None])}
        observed = {name: obs for name, _, obs
                    in _forward(self.nodes, self._drops, values, clear=False)
                    if obs is not None}
        spec, v = self.node(self.output_node).out_spec, values[self.output_node][0]
        return ExecutionResult(output=QuantizedTensor(data=v - spec.lift, params=spec),
                               dequantized=spec.to_float(v), observed=observed)

    def run_clear(self, buf: AudioBuffer) -> dict:
        """Float forward of the same structure (no quantization anywhere) on
        one clip: every value by name, 'input' included, without the clip axis."""
        values = _forward(self.nodes, self._drops, {"input": buf.samples[None]}, clear=True)
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

class PipelinePlan:
    """Structure plus calibration statistics; realize() binds bit widths.

    Calibration runs the clear pipeline once; realizing different bit-width
    configurations afterwards is cheap, which is what the grid search needs.
    """

    def __init__(self, kind: str, approx: ApproxSpec, sample_rate_hz: int, nodes: list,
                 output_node: str):
        self.kind = kind
        self.approx = approx
        self.sample_rate_hz = sample_rate_hz
        self.nodes = nodes
        self.output_node = output_node
        self.ranges: dict | None = None  # node name (and 'input') -> (lo, hi), calibrated

    def calibrate(self, calibration: list) -> "PipelinePlan":
        """Set `ranges` and each `normalize` head's z-score constants from a
        clear forward of `calibration` on identity copies of the heads.
        Nothing is written before the whole forward succeeded, so a failed
        calibration leaves the plan as it was and a repeated one gives the
        same plan."""
        if not calibration:
            raise CircuitError("calibration set is empty")
        heads = {n.name: n for n in self.nodes
                 if isinstance(n, LutNode) and n.semantic == "normalize"}
        nodes = [n._copy(norm_center=0.0, norm_scale=1.0) if n.name in heads else n
                 for n in self.nodes]
        ranges: dict = {}

        def widen(name, arr):
            lo, hi = ranges.get(name, (math.inf, -math.inf))
            ranges[name] = (min(float(arr.min()), lo), max(float(arr.max()), hi))

        collected: dict = {name: [] for name in heads}
        drops = _drop_lists(nodes)
        for buf in calibration:
            if buf.sample_rate_hz != self.sample_rate_hz:
                raise CircuitError("calibration buffer sample rate mismatch")
            widen("input", buf.samples)
            values = {"input": buf.samples[None]}
            for name, v, _ in _forward(nodes, drops, values, clear=True):
                widen(name, v)
                if name in collected:
                    collected[name].append(v.ravel())
        for name, head in heads.items():
            flat = np.concatenate(collected[name])
            center, scale = float(flat.mean()), float(flat.std()) or 1.0
            head.norm_center, head.norm_scale = center, scale
            lo, hi = ranges[name]
            ranges[name] = ((lo - center) / scale, (hi - center) / scale)
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
_sweep_key = attrgetter(*SWEEP_ORDER)


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


class _Slot:
    """What a sweep keeps of one node: its depth, what it bound and what it
    ran.  Everything but the name and the plan node is None until learned,
    bound or run."""

    __slots__ = ("name", "plan_node", "depth", "keep", "node", "entry", "value")

    def __init__(self, name: str, plan_node):
        self.name = name
        self.plan_node = plan_node  # the plan's node; None for 'input'
        self.depth = None  # the SWEEP_ORDER prefix length holding every width the node reads
        self.keep = None  # whether `execute` keeps the value
        self.node = None  # the bound node; for 'input', the input edge
        self.entry = None  # the bound node's budget entry
        self.value = None  # the kept value over the sweep's clips


class _RunList(NamedTuple):
    """The slots deeper than a prefix length k, which `Sweep.realize`
    rebinds and `Sweep.execute` reruns, and what their rerun needs."""

    slots: list  # the slots deeper than k, in plan order, 'input' first
    drops: list  # `_drop_lists` of their plan nodes ('input' has none)
    reads: list  # the names of the kept values those nodes read, no deeper than k


class Sweep:
    """Realizes and executes one calibrated plan at many configurations,
    rebinding and rerunning only the nodes whose widths changed.

    The clips must have equal lengths: `execute` runs the nodes realized
    last once over all of them, stacked into one (B, L) batch, and
    `clear_output` so runs the plan's own nodes, before or after any realize.

    A node's depth is the deepest `SWEEP_ORDER` position (from 1) that its
    `bind` reads, through `bits` or the plan's `edge(name)`, or that its
    inputs have, whichever is deeper.  Which widths a bind reads is a
    property of the plan, so the sweep learns every depth once, from the
    first realize whose binds all complete, through a recording `_ReadLog`,
    and from the depths the keep flags and, for each prefix length, the
    one `_RunList` of the slots deeper than it (`runs`).  Each node has one
    slot: its depth, the bound node, its budget entry and, once executed,
    its batched value if it is kept.  The sweep keeps no graph: the slots
    hold everything a config leaves behind.

    One rule decides reuse: `realize` keeps a slot iff its depth is at
    most the length of the `SWEEP_ORDER` prefix the config shares with
    `realized`, the last config whose binds all completed, and rebinds the
    node in place, dropping its value, otherwise; after a failed bind every
    node rebinds.  A kept node was bound at the same first `depth` widths,
    so a reused value was range-checked by the same bound node on the same
    input.  A config costs what its changed nodes cost: `realize` rebinds
    the run list of the shared prefix, the verdict is the set of slots
    whose entry violates the budget (the report is built only for a
    refusal), `execute` reruns the run list of `pending`, and each
    quantized edge is computed once per range and width.  `pending` is
    the shortest prefix shared by a realize since the last execution; the
    run lists are nested, so its list holds every slot rebound since then,
    those of refused configs and failed binds included.

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
        self.slots = {"input": _Slot("input", None),
                      **{n.name: _Slot(n.name, n) for n in plan.nodes}}
        self.node_slots = [self.slots[n.name] for n in plan.nodes]
        self.runs: list | None = None  # prefix length -> its `_RunList`
        self.pending = 0  # the shortest prefix shared by a realize since the last execute
        self.violating: set = set()  # names of the slots whose entry violates the budget
        self.specs: dict = {}  # name -> the output edge of the node in its slot
        self.edges: dict = {}  # (group of node names, width) -> EdgeSpec
        self.realized: tuple | None = None  # the last config whose binds all completed
        self.label = approx_label(plan.approx)
        # Heads feeding a multi-input node (the descriptor concat) must land
        # on one shared quantized edge, so their ranges are pooled.
        self.pooled = frozenset(s for n in plan.nodes if len(n.inputs) > 1
                                for s in n.inputs)

    def _edge(self, widths, name: str) -> EdgeSpec:
        """The plan's quantized edge for node `name`, at the width read
        from `widths`."""
        plan = self.plan
        pooled = name in self.pooled
        b = widths.output_bits if pooled or name == plan.output_node else widths.mid_bits
        group = self.pooled if pooled else (name,)
        spec = self.edges.get((group, b))
        if spec is None:
            lo = min(plan.ranges[s][0] for s in group)
            hi = max(plan.ranges[s][1] for s in group)
            spec = self.edges[group, b] = EdgeSpec.from_range(lo, hi, bits=b,
                                                              signed=lo < 0.0)
        return spec

    def _learn(self) -> None:
        """With every depth known: the run list of each prefix length, and
        each slot's keep flag.  A slot keeps its value for the output, and
        for a node with a deeper reader, since only such a reader can run
        again while the node is reused; so what a run list reads from
        outside it is kept."""
        slots = self.slots
        self.runs = []
        for k in range(len(SWEEP_ORDER) + 1):
            deeper = [s for s in slots.values() if s.depth > k]
            nodes = [s.plan_node for s in deeper if s.plan_node is not None]
            reads = dict.fromkeys(s for n in nodes for s in n.inputs
                                  if slots[s].depth <= k)
            self.runs.append(_RunList(deeper, _drop_lists(nodes), list(reads)))
        for slot in slots.values():
            slot.keep = slot.name == self.plan.output_node
        for n in self.plan.nodes:
            for s in n.inputs:
                slots[s].keep = slots[s].keep or slots[n.name].depth > slots[s].depth

    def realize(self, bits: BitWidthConfig) -> CircuitGraph:
        """Bind `bits`, reusing every node whose depth lies in the prefix it
        shares with the last realized config; raises `BudgetViolation` for
        an over-budget configuration."""
        plan = self.plan
        if plan.ranges is None:
            raise CircuitError("plan must be calibrated before realization")
        config = _sweep_key(bits)
        last, self.realized = self.realized, None  # None stays if a bind raises
        shared = 0 if last is None else next(
            (i for i, (a, b) in enumerate(zip(config, last)) if a != b), len(config))
        self.pending = min(self.pending, shared)
        learning = self.runs is None
        widths = _ReadLog(bits) if learning else bits
        edge = partial(self._edge, widths)
        slots, specs, violating = self.slots, self.specs, self.violating
        for slot in slots.values() if learning else self.runs[shared].slots:
            n = slot.plan_node
            if learning:
                widths.depth = 0
            if n is None:
                slot.node = spec = EdgeSpec.from_range(*plan.ranges["input"],
                                                       bits=widths.input_bits, signed=False)
                inputs = ()
            else:
                slot.node = node = n.bind(specs, widths, edge)
                spec, slot.entry, inputs = node.out_spec, node.budget_entry(), n.inputs
            if learning:
                slot.depth = max([widths.depth, *(slots[s].depth for s in inputs)])
            slot.value = None
            specs[slot.name] = spec
            if slot.entry is not None and slot.entry.violation:
                violating.add(slot.name)
            else:
                violating.discard(slot.name)
        if learning:
            self._learn()
        self.realized = config

        if violating:
            raise BudgetViolation(AccumulatorReport(
                entries=[s.entry for s in self.node_slots if s.entry is not None]))
        return CircuitGraph(
            kind=plan.kind,
            approx_label=self.label,
            bits=bits,
            input_spec=slots["input"].node,
            nodes=[s.node for s in self.node_slots],
            output_node=plan.output_node,
        )

    def _samples(self) -> np.ndarray:
        if self.samples is None:
            raise CircuitError("the sweep has no clips to execute on")
        return self.samples

    def execute(self) -> np.ndarray:
        """The dequantized output of the config realized last over all
        clips, leading with the clip axis; refused unless that realize
        completed within the budget.  The forward reruns the run list of
        `pending`, the slots rebound since the last execution, on the kept
        values it reads.  The values a run computes and keeps are stored
        once the whole run succeeded, so a failed run leaves every slot and
        `pending` as they were."""
        slots = self.slots
        if self.realized is None or self.violating:
            raise CircuitError("the sweep has no realized graph to execute")
        run = self.runs[self.pending]
        values = {s: slots[s].value for s in run.reads}
        kept: dict = {}  # name -> its value in this run, for the slots that keep it
        source = slots["input"]
        if source.depth > self.pending:  # the input edge leads the run list
            values["input"] = kept["input"] = source.node.to_v(self._samples())
        nodes = [s.node for s in run.slots if s is not source]
        for name, v, _ in _forward(nodes, run.drops, values, clear=False):
            if slots[name].keep:
                kept[name] = v
        for name, v in kept.items():
            slots[name].value = v
        self.pending = len(SWEEP_ORDER)
        out = slots[self.plan.output_node]
        return out.node.out_spec.to_float(out.value)

    def clear_output(self) -> np.ndarray:
        """The clear output of the calibrated plan over all clips, leading
        with the clip axis: row b is `run_clear` of clip b on any graph the
        plan realizes."""
        plan = self.plan
        if plan.ranges is None:
            raise CircuitError("plan must be calibrated before its clear output")
        values, drops = {"input": self._samples()}, _drop_lists(plan.nodes)
        for name, v, _ in _forward(plan.nodes, drops, values, clear=True):
            if name == plan.output_node:
                return v

    def visit(self, configs: list):
        """Realize the distinct configs of `configs` sorted by the fields in
        `SWEEP_ORDER`, yielding (bits, graph, None), or (bits, None,
        violation) for one over budget."""
        for bits in sorted(set(configs), key=_sweep_key):
            try:
                graph, violation = self.realize(bits), None
            except BudgetViolation as exc:
                graph, violation = None, exc
            yield bits, graph, violation


def _energy_head(nodes: list, src: str, approx: ApproxSpec, prefix: str,
                 paired: bool) -> str:
    """The energy lookup `approx` names over conv outputs, summed over re/im."""
    nodes.append(LutNode(name=f"{prefix}_energy", src=src, semantic=approx.energy))
    head = f"{prefix}_energy"
    if paired:
        nodes.append(ReduceNode(name=f"{prefix}_energy_sum", src=head,
                                op="sum", axis="pair"))
        head = f"{prefix}_energy_sum"
    return head


def _stft_power_nodes(approx: ApproxSpec, cfg: StftConfig, sample_rate_hz: int) -> list:
    """The STFT's power spectrogram, ending in the node `stft_power`."""
    bank = approx_kernels(approx, cfg, sample_rate_hz)
    nodes = [
        ConvNode(name="stft_conv", src="input", weights_f=bank.kernels,
                 stride=cfg.hop),
        LutNode(name="stft_conv_requant", src="stft_conv", semantic="requant"),
    ]
    head = _energy_head(nodes, "stft_conv_requant", approx, "stft", paired=True)
    nodes.append(LutNode(name="stft_power", src=head, semantic="requant"))
    return nodes


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


def _mel_nodes(mel: MelSpec, cfg: StftConfig, sample_rate_hz: int) -> list:
    """Mel filterbank over the power spectrogram `stft_power`, requantized."""
    matrix = mel_filterbank_matrix(mel, cfg, sample_rate_hz)
    return [MatmulNode(name="mel_matmul", src="stft_power", weights_f=matrix),
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
        nodes = _stft_power_nodes(approx, cfg, sample_rate_hz)
        output = "stft_power"
        if kind in ("mel", "mfcc"):
            mspec = mel or MelSpec()
            nodes += _mel_nodes(mspec, cfg, sample_rate_hz)
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

    nodes = _stft_power_nodes(approx, cfg, sample_rate_hz)

    # mean/std over time of per-frame RMS of the STFT power spectrogram
    nodes.append(ReduceNode(name="rms_mean_power", src="stft_power", op="mean",
                            axis="channels", fan_in=cfg.bins))
    nodes.append(LutNode(name="rms", src="rms_mean_power", semantic="sqrt"))
    nodes.append(ReduceNode(name="mean_rms_sum", src="rms", op="mean", axis="time",
                            fan_in=n_frames))
    nodes.append(LutNode(name="mean_rms", src="mean_rms_sum", semantic="normalize"))
    nodes.append(StdNode(name="std_rms_val", src="rms", fan_in=n_frames))
    nodes.append(LutNode(name="std_rms", src="std_rms_val", semantic="normalize"))

    # mean over Mel channels of the per-channel std over time
    nodes += _mel_nodes(mspec, cfg, sample_rate_hz)
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
                        output_node="descriptor_vector")
