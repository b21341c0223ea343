"""Integer dataflow circuits standing in for compiled FHE execution.

A pipeline is a DAG of quantized convolutions, elementwise lookup tables and
reductions.  Nonlinearities are single-input tables keyed on the incoming
integer, mirroring a lookup-table FHE backend without any cryptography.
Every accumulator gets a worst-case bit width; anything above the 16-bit
budget refuses to build, and execution asserts observed values against the
declared ranges instead of ever wrapping silently.

This module holds the package's only quantizers.  A quantized edge
(`EdgeSpec`) is zero-aligned: it represents scale * v, with v an integer in
a B-bit range [v_min, v_max] that contains 0 and covers the calibrated
range; floats round half away from zero and clamp to it.  Weights quantize
symmetrically (`quantize_weights`).  Outputs export the codes q = v - lift,
in [0, 2^B - 1], or [-2^(B-1), 2^(B-1) - 1] on a signed edge.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

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
)

BUDGET_BITS = 16

# Integers below this are exact in float64, so is any sum of them that
# stays below it: the integer dot products run in float64 BLAS.
EXACT_FLOAT_BOUND = 1 << 53

TRANSFORMS = ("stft", "mel", "mfcc", "gammatone")


class CircuitError(RuntimeError):
    pass


class BudgetViolation(CircuitError):
    """Raised at build time when a node's worst-case width exceeds the budget."""

    def __init__(self, violations):
        self.violations = list(violations)
        names = ", ".join(f"{n}({b} bits)" for n, b in self.violations)
        super().__init__(f"{BUDGET_BITS}-bit accumulator budget exceeded at: {names}")


class CircuitOverflow(CircuitError):
    """Raised at execution time when an observed value leaves its declared range."""


# Edges -----------------------------------------------------------------------

def _round_half_away(t: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (np.round is half-even)."""
    return np.sign(t) * np.floor(np.abs(t) + 0.5)


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
        m = int(np.clip(_round_half_away(np.float64(-lo / scale)), 0, levels))
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
        v = _round_half_away(np.asarray(x, dtype=np.float64) / self.scale)
        return np.clip(v, self.v_min, self.v_max).astype(np.int64)

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
    `normalization` the plan's z-score constants.  `clear()` never touches
    quantization and is what calibration runs.  On a bound node, `step()`
    runs `run_int`, checks any accumulator against its declared range and
    returns the value with its observed magnitude (None when nothing
    accumulates); `budget_entry()` and `describe()` feed the budget report
    and the JSON serialization.
    """

    @property
    def inputs(self) -> list:
        return [self.src]

    def step(self, *vs):
        return self.run_int(*vs), None

    def materialize(self) -> None:
        """Build whatever binding deferred until the budget holds."""

    def budget_entry(self, observed_bits: int | None = None):
        return None

    def describe(self) -> dict:
        return {"name": self.name, "type": type(self).__name__,
                "inputs": self.inputs, "out_edge": self.out_spec.describe()}


def _check_range(name, arr, lo, hi):
    if arr.size and (arr.min() < lo or arr.max() > hi):
        raise CircuitOverflow(f"node {name}: observed value outside declared range "
                              f"[{lo}, {hi}]")


def _max_abs(arr) -> int:
    return int(np.abs(arr).max(initial=0))


def _accumulate(node, v):
    """Step of a node whose output is a raw accumulator."""
    acc = node.run_int(v)
    _check_range(node.name, acc, node.out_spec.v_lo, node.out_spec.v_hi)
    return acc, _max_abs(acc)


def _describe_weights(w: np.ndarray) -> dict:
    return {"shape": list(w.shape), "nonzero": int(np.count_nonzero(w)),
            "sha256": hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest()}


class WeightBank:
    """A kernel bank quantized at one weight width.

    Holds the int64 codes `q`, their float64 copy `f` that the BLAS kernel
    multiplies with, the positive and negative row sums `acc_range` reads
    and the largest row sum of |q|.  Everything but `q` is derived once, here.
    """

    def __init__(self, q: np.ndarray):
        self.q = q
        self.f = q.astype(np.float64)
        self.pos = np.maximum(q, 0).sum(axis=1)
        self.neg = np.minimum(q, 0).sum(axis=1)
        self.max_row_l1 = int((self.pos - self.neg).max(initial=0))


@dataclass
class ConvNode(Node):
    """Strided 1-D convolution of the signal with a fixed kernel bank.

    The integer dot products run in float64 BLAS and are cast back to
    int64.  That is exact: inputs and weights are integers, and every
    partial sum is bounded by max_row(sum |w_q|) * max |v|, which `bind`
    refuses at 2^53 or above, so no summation order can round.

    `banks` maps a weight width to its `(WeightBank, w_scale)`; it is
    filled lazily by `bind` and shared with every bound copy, so each
    width quantizes the float kernel once.  Setting `weights_q` by hand
    builds a fresh bank for it.
    """

    name: str
    src: str
    weights_f: np.ndarray  # (C, N)
    stride: int
    bank: WeightBank | None = None
    w_scale: float | None = None
    in_spec: EdgeSpec | None = None
    out_spec: RawSpec | None = None
    banks: dict = field(default_factory=dict, repr=False)

    @property
    def weights_q(self) -> np.ndarray | None:
        return None if self.bank is None else self.bank.q

    @weights_q.setter
    def weights_q(self, q: np.ndarray) -> None:
        self.bank = WeightBank(q)

    def clear(self, x: np.ndarray) -> np.ndarray:
        return frame_signal(x, self.weights_f.shape[1], self.stride) @ self.weights_f.T

    def nonzero_taps(self) -> int:
        w = self.weights_f if self.weights_q is None else self.weights_q
        return int(np.max(np.count_nonzero(w, axis=1)))

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
        in_spec = specs[self.src]
        bound = bank.max_row_l1 * in_spec.max_abs
        if bound >= EXACT_FLOAT_BOUND:
            raise CircuitError(f"node {self.name}: partial sums may reach {bound}, "
                               f"which float64 does not hold exactly (limit 2^53)")
        node = replace(self, bank=bank, w_scale=w_scale, in_spec=in_spec)
        lo, hi = node.acc_range()
        node.out_spec = RawSpec(scale=in_spec.scale * w_scale, v_lo=lo, v_hi=hi)
        return node

    def run_int(self, v: np.ndarray) -> np.ndarray:
        frames = frame_signal(v.astype(np.float64), self.bank.f.shape[1], self.stride)
        return (frames @ self.bank.f.T).astype(np.int64)  # (T, C)

    step = _accumulate

    def budget_entry(self, observed_bits=None):
        return BudgetEntry(self.name, "conv", self.out_spec.width,
                           self.nonzero_taps(), observed_bits)

    def describe(self) -> dict:
        return {**super().describe(), "weights": _describe_weights(self.weights_q),
                "weight_scale": self.w_scale, "stride": self.stride}


@dataclass
class MatmulNode(Node):
    """Channel-mixing matrix applied per frame (mel filterbank, DCT).

    Runs in float64 BLAS and caches one bank per weight width, as `ConvNode`.
    """

    name: str
    src: str
    weights_f: np.ndarray  # (C_out, C_in)
    bank: WeightBank | None = None
    w_scale: float | None = None
    in_spec: EdgeSpec | None = None
    out_spec: RawSpec | None = None
    banks: dict = field(default_factory=dict, repr=False)

    weights_q = ConvNode.weights_q

    def clear(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights_f.T

    nonzero_taps = ConvNode.nonzero_taps
    acc_range = ConvNode.acc_range
    bind = ConvNode.bind

    def run_int(self, v: np.ndarray) -> np.ndarray:
        return (v.astype(np.float64) @ self.bank.f.T).astype(np.int64)

    step = _accumulate
    budget_entry = ConvNode.budget_entry

    def describe(self) -> dict:
        return {**super().describe(), "weights": _describe_weights(self.weights_q),
                "weight_scale": self.w_scale}


@dataclass
class LutNode(Node):
    """Elementwise lookup table keyed on the incoming integer value.

    Semantics: 'square' and 'abs' emit raw (un-requantized) integers so the
    cost contrast between l1 and squared energy is visible in the budget
    report; 'requant', 'log', 'sqrt' and 'normalize' emit values on a
    quantized edge.
    """

    name: str
    src: str
    semantic: str
    norm_center: float | None = None
    norm_scale: float | None = None
    in_spec: EdgeSpec | RawSpec | None = None
    out_spec: EdgeSpec | RawSpec | None = None
    table: np.ndarray | None = None

    def semantic_fn(self, x: np.ndarray) -> np.ndarray:
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

    def clear(self, x: np.ndarray) -> np.ndarray:
        if self.semantic == "normalize" and self.norm_center is None:
            return x  # calibration pass collects un-normalized values
        return self.semantic_fn(x)

    def bind(self, specs, bits, edge, normalization):
        node = replace(self, in_spec=specs[self.src])
        if self.semantic in ("square", "abs"):
            node.build_table()  # raw output: its spec comes with the table
            return node
        if self.semantic == "normalize":
            node.norm_center, node.norm_scale = normalization[self.name]
        node.out_spec = edge(self.name)
        return node

    def build_table(self):
        lo, hi = self.in_spec.bounds
        v_in = np.arange(lo, hi + 1, dtype=np.int64)
        if self.semantic == "square":
            self.table = v_in * v_in
            self.out_spec = RawSpec(scale=self.in_spec.scale**2, v_lo=0,
                                    v_hi=int(self.table.max(initial=0)))
        elif self.semantic == "abs":
            self.table = np.abs(v_in)
            self.out_spec = RawSpec(scale=self.in_spec.scale, v_lo=0,
                                    v_hi=int(self.table.max(initial=0)))
        else:
            y = self.semantic_fn(self.in_spec.to_float(v_in))
            self.table = self.out_spec.to_v(y)

    def materialize(self) -> None:
        if self.table is None:
            self.build_table()

    def run_int(self, v: np.ndarray) -> np.ndarray:
        if self.table is None:
            raise CircuitError(f"node {self.name}: the graph is over budget, so its "
                               f"lookup tables were not built; it cannot execute")
        return self.table[v - self.in_spec.bounds[0]]

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
            t, c2 = x.shape
            return x.reshape(t, 2, c2 // 2), 1
        if self.axis == "channels":
            return x, x.ndim - 1
        if self.axis == "time":
            return x, 0
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
        return x.std(axis=0)

    def acc_worst(self) -> tuple[int, int]:
        t = self.fan_in
        m = self.in_spec.max_abs
        return t * m, t * m * m

    def bind(self, specs, bits, edge, normalization):
        return replace(self, in_spec=specs[self.src], out_spec=edge(self.name))

    def run_int(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = v.shape[0]
        s1 = v.sum(axis=0)
        s2 = (v * v).sum(axis=0)
        m2 = t * s2 - s1 * s1  # exact: t^2 * variance in integer units
        std = self.in_spec.scale * np.sqrt(m2.astype(np.float64)) / t
        return self.out_spec.to_v(std), s1, s2

    def step(self, v):
        out, s1, s2 = self.run_int(v)
        w1, w2 = self.acc_worst()
        _check_range(self.name, s1, -w1, w1)
        _check_range(self.name, s2, 0, w2)
        return out, max(_max_abs(s1), _max_abs(s2))

    def budget_entry(self, observed_bits=None):
        w1, w2 = self.acc_worst()
        return BudgetEntry(self.name, "std", max(width_of(w1), width_of(w2)),
                           self.fan_in, observed_bits)


@dataclass
class ConcatNode(Node):
    """Concatenate scalar heads that share one set of output params."""

    name: str
    srcs: list
    in_spec: EdgeSpec | None = None
    out_spec: EdgeSpec | None = None

    @property
    def inputs(self) -> list:
        return self.srcs

    def clear(self, *xs) -> np.ndarray:
        return np.array([float(np.asarray(x)) for x in xs])

    def bind(self, specs, bits, edge, normalization):
        in_spec = specs[self.srcs[0]]
        if any(specs[s] != in_spec for s in self.srcs):
            raise CircuitError("concat inputs must share output params")
        return replace(self, in_spec=in_spec, out_spec=in_spec)

    def run_int(self, *vs) -> np.ndarray:
        return np.array([int(np.asarray(v)) for v in vs], dtype=np.int64)


def _clear_forward(nodes: list, samples: np.ndarray) -> dict:
    """Float forward of a node list: every node's value, keyed by name."""
    values = {"input": samples}
    for n in nodes:
        values[n.name] = n.clear(*(values[s] for s in n.inputs))
    return values


# Weight quantization ---------------------------------------------------------

def quantize_weights(w: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Per-tensor symmetric quantization: exact integer zeros for sparse taps."""
    if bits < 2:
        raise CircuitError("weight quantization needs at least 2 bits")
    q_max = (1 << (bits - 1)) - 1
    max_abs = float(np.abs(w).max())
    if max_abs == 0.0:
        return np.zeros_like(w, dtype=np.int64), 1.0
    scale = max_abs / q_max
    q = np.clip(_round_half_away(w / scale), -q_max, q_max).astype(np.int64)
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
    """Realized integer pipeline; immutable once built, reusable across inputs."""

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
        values = {"input": self.input_spec.to_v(buf.samples)}
        observed: dict = {}
        for n in self.nodes:
            values[n.name], obs = n.step(*(values[s] for s in n.inputs))
            if obs is not None:
                observed[n.name] = obs
        v = values[self.output_node]
        spec = self.node(self.output_node).out_spec
        q = v - spec.lift
        return ExecutionResult(
            output=QuantizedTensor(data=q, params=spec),
            dequantized=spec.to_float(v),
            observed=observed,
        )

    def run_clear(self, buf: AudioBuffer) -> dict:
        """Float forward of the same structure (no quantization anywhere)."""
        return _clear_forward(self.nodes, buf.samples)

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
    cfg: StftConfig
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
            arr = np.asarray(arr, dtype=np.float64)
            lo, hi = float(arr.min()), float(arr.max())
            if name in ranges:
                lo = min(lo, ranges[name][0])
                hi = max(hi, ranges[name][1])
            ranges[name] = (lo, hi)

        collected: dict = {name: [] for name in (self.normalization or {})}
        for buf in calibration:
            if buf.sample_rate_hz != self.sample_rate_hz:
                raise CircuitError("calibration buffer sample rate mismatch")
            values = _clear_forward(self.nodes, buf.samples)
            widen("input", buf.samples)
            for n in self.nodes:
                widen(n.name, values[n.name])
                if n.name in collected:
                    collected[n.name].append(np.asarray(values[n.name], dtype=np.float64))
        if self.normalization is not None:
            norm = {}
            for name, vals in collected.items():
                flat = np.concatenate([v.ravel() for v in vals])
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

    def realize(self, bits: BitWidthConfig, enforce_budget: bool = True) -> CircuitGraph:
        """Bind one bit-width configuration.

        An over-budget configuration raises `BudgetViolation`, or with
        `enforce_budget=False` returns a graph for its budget report and
        JSON only: its deferred lookup tables are not built, so it cannot
        execute.
        """
        if self.ranges is None:
            raise CircuitError("plan must be calibrated before realization")
        input_spec = EdgeSpec.from_range(*self.ranges["input"], bits=bits.input_bits,
                                         signed=False)
        specs: dict = {"input": input_spec}

        # Heads feeding a multi-input node (the descriptor concat) must land
        # on one shared quantized edge, so their ranges are pooled before any
        # of them is realized.
        pooled = {s for n in self.nodes if len(n.inputs) > 1 for s in n.inputs}
        shared_edge = None
        if pooled:
            lo = min(self.ranges[s][0] for s in pooled)
            hi = max(self.ranges[s][1] for s in pooled)
            shared_edge = EdgeSpec.from_range(lo, hi, bits=bits.output_bits,
                                              signed=lo < 0.0)

        def edge(name: str) -> EdgeSpec:
            if name in pooled:
                return shared_edge
            lo, hi = self.ranges[name]
            b = bits.output_bits if name == self.output_node else bits.mid_bits
            return EdgeSpec.from_range(lo, hi, bits=b, signed=lo < 0.0)

        nodes = []
        for n in self.nodes:
            bound = n.bind(specs, bits, edge, self.normalization)
            specs[n.name] = bound.out_spec
            nodes.append(bound)

        graph = CircuitGraph(
            kind=self.kind,
            approx_label=approx_label(self.approx),
            bits=bits,
            input_spec=input_spec,
            nodes=nodes,
            output_node=self.output_node,
        )
        report = graph.check_budget()
        if not report.feasible:
            if enforce_budget:
                raise BudgetViolation([(e.node, e.worst_case_bits)
                                       for e in report.violations])
            return graph
        # remaining tables are only materialized once the budget holds: an
        # over-budget input edge can make a lookup table huge
        for n in nodes:
            n.materialize()
        return graph


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
        ConvNode(name="stft_conv", src="input", weights_f=bank.stacked(),
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


def build_transform_plan(kind: str, approx: ApproxSpec, cfg: StftConfig,
                         sample_rate_hz: int,
                         mel: MelSpec | None = None,
                         gamma: GammatoneSpec | None = None,
                         n_mfcc: int = 13) -> PipelinePlan:
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
            matrix = mel_filterbank_matrix(mspec, cfg, sample_rate_hz)
            nodes.append(MatmulNode(name="mel_matmul", src=power, weights_f=matrix))
            nodes.append(LutNode(name="mel_spec", src="mel_matmul", semantic="requant"))
            output = "mel_spec"
            if kind == "mfcc":
                d = dct_matrix(matrix.shape[0])[:n_mfcc]
                nodes.append(LutNode(name="log_lut", src="mel_spec", semantic="log"))
                nodes.append(MatmulNode(name="dct_matmul", src="log_lut", weights_f=d))
                nodes.append(LutNode(name="mfcc_out", src="dct_matmul",
                                     semantic="requant"))
                output = "mfcc_out"
    return PipelinePlan(kind=kind, approx=approx, cfg=cfg,
                        sample_rate_hz=sample_rate_hz, nodes=nodes,
                        output_node=output)


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
    matrix = mel_filterbank_matrix(mspec, cfg, sample_rate_hz)
    nodes.append(MatmulNode(name="mel_matmul", src=power, weights_f=matrix))
    nodes.append(LutNode(name="mel_spec", src="mel_matmul", semantic="requant"))
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
    return PipelinePlan(kind="descriptors", approx=approx, cfg=cfg,
                        sample_rate_hz=sample_rate_hz, nodes=nodes,
                        output_node="descriptor_vector",
                        normalization={name: None for name in DESCRIPTOR_NAMES})
