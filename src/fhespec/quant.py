"""Bit accounting: bit-width configurations and accumulator widths.

A `BitWidthConfig` names the four widths a circuit is realized at (input,
output, weights, intermediates), each in 1..MAX_BITS.  `accumulator_bits`
is the closed-form worst-case width of an L-tap dot product, and `width_of`
the ceil(log2) convention every budget figure uses.  The quantizers
themselves live with the circuits that run them, in `fhespec.circuit`:
zero-aligned edges (`EdgeSpec`) and symmetric weights (`quantize_weights`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MAX_BITS = 16


class QuantError(ValueError):
    pass


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
