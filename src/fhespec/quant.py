"""Range-based affine uniform quantization with calibration and bit accounting.

Quantization maps floats in a calibrated range [alpha, beta] onto B-bit
integers; the signed variant shifts the unsigned code by 2^(B-1).  Rounding
is half-away-from-zero throughout so that results are reproducible bit for
bit.  Out-of-range inputs clamp to the range ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

MAX_BITS = 16


class QuantError(ValueError):
    pass


def _round_half_away(t: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves away from zero (np.round is half-even)."""
    return np.sign(t) * np.floor(np.abs(t) + 0.5)


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters over the real range [alpha, beta]."""

    alpha: float
    beta: float
    bits: int
    signed: bool = False

    def __post_init__(self):
        if not (1 <= self.bits <= MAX_BITS):
            raise QuantError(f"bits must be in [1, {MAX_BITS}], got {self.bits}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise QuantError("quantization range must be finite")
        if not self.alpha < self.beta:
            raise QuantError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")

    @property
    def levels(self) -> int:
        return (1 << self.bits) - 1

    @property
    def scale(self) -> float:
        return (self.beta - self.alpha) / self.levels

    @property
    def offset(self) -> int:
        return (1 << (self.bits - 1)) if self.signed else 0

    @property
    def q_min(self) -> int:
        return -self.offset

    @property
    def q_max(self) -> int:
        return self.levels - self.offset


@dataclass(frozen=True)
class QuantizedTensor:
    data: np.ndarray
    params: QuantParams

    def __post_init__(self):
        if self.data.min(initial=0) < self.params.q_min or self.data.max(initial=0) > self.params.q_max:
            raise QuantError("quantized data outside the range of its params")

    def dequantized(self) -> np.ndarray:
        return dequantize(self.data, self.params)


@dataclass(frozen=True, order=True)
class BitWidthConfig:
    """Bit widths for input, output, convolution weights and intermediates."""

    input_bits: int
    output_bits: int
    weight_bits: int
    mid_bits: int

    def __post_init__(self):
        for name, b in self.as_dict().items():
            if not (1 <= b <= MAX_BITS):
                raise QuantError(f"{name} must be in [1, {MAX_BITS}], got {b}")

    def as_dict(self) -> dict:
        return {
            "input_bits": self.input_bits,
            "output_bits": self.output_bits,
            "weight_bits": self.weight_bits,
            "mid_bits": self.mid_bits,
        }

    def as_tuple(self) -> tuple:
        return (self.input_bits, self.output_bits, self.weight_bits, self.mid_bits)


def calibrate(data, bits: int, signed: bool = False) -> QuantParams:
    """Pick [alpha, beta] as the global min/max of the calibration data.

    `data` may be an array or an iterable of arrays.  A degenerate range
    (alpha == beta) is widened to [alpha, alpha + 1].
    """
    if isinstance(data, np.ndarray):
        arrays = [data]
    else:
        arrays = [np.asarray(a, dtype=np.float64) for a in data]
    if not arrays or all(a.size == 0 for a in arrays):
        raise QuantError("calibration data is empty")
    lo = min(float(a.min()) for a in arrays if a.size)
    hi = max(float(a.max()) for a in arrays if a.size)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise QuantError("calibration data contains non-finite values")
    if lo == hi:
        hi = lo + 1.0
    return QuantParams(alpha=lo, beta=hi, bits=bits, signed=signed)


def quantize(x, params: QuantParams):
    """Affine quantization; inputs outside [alpha, beta] clamp to the range ends."""
    t = (np.asarray(x, dtype=np.float64) - params.alpha) * (params.levels / (params.beta - params.alpha))
    q = _round_half_away(t) - params.offset
    q = np.clip(q, params.q_min, params.q_max).astype(np.int64)
    return q if q.ndim else int(q)


def dequantize(q, params: QuantParams):
    q = np.asarray(q)
    if q.min(initial=0) < params.q_min or q.max(initial=0) > params.q_max:
        raise QuantError("quantized value out of range for dequantize")
    x = params.alpha + (q.astype(np.float64) + params.offset) * params.scale
    return x if x.ndim else float(x)


def requantize(t: QuantizedTensor, new_bits: int) -> QuantizedTensor:
    """Change bit width keeping the same real range (dequantize then quantize)."""
    if t.params.bits == new_bits:
        return t
    new_params = replace(t.params, bits=new_bits)
    return QuantizedTensor(data=np.asarray(quantize(t.dequantized(), new_params)), params=new_params)


def accumulator_bits(l_taps: int, in_bits: int, w_bits: int) -> int:
    """Worst-case unsigned accumulator width for an L-tap dot product.

    All inputs at 2^N - 1 and all weights at 2^M - 1 give the accumulator
    value L * (2^N - 1) * (2^M - 1); this returns ceil(log2) of that.
    """
    if l_taps < 1 or in_bits < 1 or w_bits < 1:
        raise QuantError("accumulator_bits arguments must be >= 1")
    worst = l_taps * ((1 << in_bits) - 1) * ((1 << w_bits) - 1)
    return width_of(worst)


def width_of(magnitude) -> int:
    """Bits needed for a nonnegative magnitude, in the ceil(log2(v)) convention.

    Matches the accumulator formula: width_of(1) == 0, width_of(2) == 1.
    """
    v = int(math.ceil(magnitude))
    if v <= 1:
        return 0
    return (v - 1).bit_length()
