"""Quantizer and bit-accounting unit tests.

The quantizer is the circuit's zero-aligned edge (`EdgeSpec`) and the
exported output codes (`QuantizedTensor`); the bit accounting is
`fhespec.quant`.
"""

import numpy as np
import pytest

from fhespec.circuit import CircuitError, EdgeSpec, QuantizedTensor
from fhespec.quant import BitWidthConfig, QuantError, accumulator_bits, width_of


def test_unsigned_range():
    e = EdgeSpec.from_range(0.0, 1.0, bits=4, signed=False)
    assert (e.v_min, e.v_max, e.lift) == (0, 15, 0)
    assert e.to_v(0.0) == 0
    assert e.to_v(1.0) == 15
    assert e.to_v(-5.0) == 0  # clamp
    assert e.to_v(5.0) == 15  # clamp


def test_signed_range():
    e = EdgeSpec.from_range(-1.0, 1.0, bits=4, signed=True)
    assert (e.v_min, e.v_max, e.lift) == (-8, 7, 0)
    assert e.to_v(-1.0) == -8
    assert e.to_v(1.0) == 7  # 7.5 rounds to 8 and clamps
    # an off-centre range keeps zero exact and shifts the exported codes
    e = EdgeSpec.from_range(-1.0, 3.0, bits=4, signed=True)
    assert (e.v_min, e.v_max, e.lift) == (-4, 11, 4)
    assert (e.v_min - e.lift, e.v_max - e.lift) == (-8, 7)


def test_round_half_away_from_zero():
    # scale is exactly 1, so half-integers are exact midpoints
    e = EdgeSpec.from_range(-8.0, 7.0, bits=4, signed=True)
    assert e.scale == 1.0
    assert e.to_v(0.5) == 1 and e.to_v(-0.5) == -1
    assert e.to_v(1.5) == 2 and e.to_v(-1.5) == -2
    assert e.to_v(2.5) == 3  # half-even would give 2


def test_round_trip_error_half_step():
    rng = np.random.default_rng(42)
    for bits in range(1, 17):
        for signed in (False, True):
            e = EdgeSpec.from_range(-3.0, 5.0, bits=bits, signed=signed)
            x = rng.uniform(-3.0, 5.0, size=2000)
            back = e.to_float(e.to_v(x))
            assert np.max(np.abs(back - x)) <= e.scale / 2 + 1e-12


def test_quantize_monotone():
    rng = np.random.default_rng(7)
    e = EdgeSpec.from_range(-1.0, 1.0, bits=6, signed=True)
    x = np.sort(rng.uniform(-1.5, 1.5, size=5000))
    assert np.all(np.diff(e.to_v(x)) >= 0)


def test_quantized_tensor_range_check():
    e = EdgeSpec.from_range(0.0, 1.0, bits=3, signed=False)
    QuantizedTensor(data=np.array([0, 7]), params=e)
    for bad in (8, -1):
        with pytest.raises(CircuitError):
            QuantizedTensor(data=np.array([bad]), params=e)
    e = EdgeSpec.from_range(-1.0, 3.0, bits=4, signed=True)
    QuantizedTensor(data=np.array([-8, 7]), params=e)
    for bad in (8, -9):
        with pytest.raises(CircuitError):
            QuantizedTensor(data=np.array([bad]), params=e)


def test_width_of_convention():
    assert width_of(0) == 0
    assert width_of(1) == 0
    assert width_of(2) == 1
    assert width_of(3) == 2
    assert width_of(4) == 2
    assert width_of(5) == 3
    assert width_of(65536) == 16


def test_accumulator_bits_formula():
    # independent recomputation via exact log2 on integers
    import math

    rng = np.random.default_rng(0)
    for _ in range(50):
        l = int(rng.integers(1, 65))
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        worst = l * ((1 << n) - 1) * ((1 << m) - 1)
        expected = 0 if worst <= 1 else math.ceil(math.log2(worst))
        assert accumulator_bits(l, n, m) == expected
    with pytest.raises(QuantError):
        accumulator_bits(0, 4, 4)


def test_bit_width_config():
    b = BitWidthConfig(4, 6, 3, 5)
    assert b.as_tuple() == (4, 6, 3, 5)
    assert b.as_dict()["weight_bits"] == 3
    with pytest.raises(QuantError):
        BitWidthConfig(0, 6, 3, 5)
    # a symmetric weight code needs a sign bit: weights start at 2 bits
    with pytest.raises(QuantError, match="weight_bits must be in \\[2, 16\\], got 1"):
        BitWidthConfig(4, 6, 1, 5)
    assert BitWidthConfig(1, 1, 2, 1).as_tuple() == (1, 1, 2, 1)
    assert BitWidthConfig(2, 2, 2, 2) < BitWidthConfig(2, 2, 2, 3)
