"""Bit accounting: bit-width configurations and accumulator widths.

A `BitWidthConfig` names the four widths a circuit is realized at (input,
output, weights, intermediates): the weight width in 2..MAX_BITS, since a
symmetric weight code needs a sign bit, and the others in 1..MAX_BITS.
`accumulator_bits` is the closed-form worst-case width of an L-tap dot
product, and `width_of` the ceil(log2) convention every budget figure uses.  The quantizers
themselves live with the circuits that run them, in `fhespec.circuit`:
zero-aligned edges (`EdgeSpec`), whose codes are int64, and symmetric
weights (`quantize_weights`), whose codes come as float32: it holds every
code of up to MAX_BITS bits exactly, and it is what the dot products
multiply.
"""

from __future__ import annotations

import math
from typing import NamedTuple

MAX_BITS = 16


class QuantError(ValueError):
    pass


class _BitWidths(NamedTuple):
    input_bits: int
    output_bits: int
    weight_bits: int
    mid_bits: int


class BitWidthConfig(_BitWidths):
    """Bit widths for input, output, convolution weights and intermediates.

    A named tuple: configs compare, order and hash as their four widths.
    Construction validates them, `_replace` included."""

    __slots__ = ()

    def __new__(cls, input_bits: int, output_bits: int, weight_bits: int, mid_bits: int):
        widths = (input_bits, output_bits, weight_bits, mid_bits)
        # a symmetric weight code needs a sign bit
        if not (1 <= input_bits <= MAX_BITS and 1 <= output_bits <= MAX_BITS
                and 2 <= weight_bits <= MAX_BITS and 1 <= mid_bits <= MAX_BITS):
            for name, b in zip(cls._fields, widths):
                low = 2 if name == "weight_bits" else 1
                if not (low <= b <= MAX_BITS):
                    raise QuantError(f"{name} must be in [{low}, {MAX_BITS}], got {b}")
        return tuple.__new__(cls, widths)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def as_dict(self) -> dict:
        return self._asdict()

    def as_tuple(self) -> tuple:
        return tuple(self)


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
