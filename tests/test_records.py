"""The package's immutable value records: value equality, hashing, refused
assignment and construction-time validation."""

import numpy as np
import pytest

from fhespec.approx import (
    ApproxError,
    BoundReport,
    Conventional,
    Cropping,
    Dilation,
    FreqAdaptiveWindow,
    L1Energy,
    Poorman,
)
from fhespec.circuit import (
    AccumulatorReport,
    BudgetEntry,
    CircuitError,
    EdgeSpec,
    QuantizedTensor,
    RawSpec,
)
from fhespec.dataset import Clip
from fhespec.evaluate import GridSearchResult, PairTestResult
from fhespec.quant import BitWidthConfig, QuantError
from fhespec.transforms import (
    AudioBuffer,
    GammatoneSpec,
    KernelBank,
    MelSpec,
    SignalError,
    StftConfig,
)

EDGE = EdgeSpec(scale=0.5, v_min=-2, v_max=1, bits=2, signed=True)


def _buffer():
    return AudioBuffer(np.array([0.0, 0.5]), 8000)


# Every record that is frozen: a factory of one instance, whether two
# instances from equal fields compare (and, when its fields hash, hash)
# equal, a construction its validation refuses (None when it validates
# nothing) and the error that raises.  A record holding arrays compares as
# its arrays do, which refuses a truth value, so it is not compared.
RECORDS = {
    "BitWidthConfig": (lambda: BitWidthConfig(5, 8, 4, 5), "hash",
                       lambda: BitWidthConfig(1, 1, 1, 1), QuantError),
    "Conventional": (Conventional, "hash", None, None),
    "Dilation": (lambda: Dilation(rate=4), "hash",
                 lambda: Dilation(rate=0), ApproxError),
    "Dilation-max": (Dilation, "hash", None, None),
    "FreqAdaptiveWindow": (FreqAdaptiveWindow, "hash",
                           lambda: FreqAdaptiveWindow(n_min=1), ApproxError),
    "Poorman": (Poorman, "hash", lambda: Poorman(roots=1), ApproxError),
    "L1Energy": (L1Energy, "hash", None, None),
    "Cropping": (lambda: Cropping(100.0, 2000.0), "hash",
                 lambda: Cropping(f_min_hz=500.0, f_max_hz=100.0), ApproxError),
    "StftConfig": (lambda: StftConfig(256, 64), "hash",
                   lambda: StftConfig(255, 64), SignalError),
    "MelSpec": (MelSpec, "hash", lambda: MelSpec(n_mels=0), SignalError),
    "GammatoneSpec": (GammatoneSpec, "hash", lambda: GammatoneSpec(n_filters=0),
                      SignalError),
    "AudioBuffer": (_buffer, "arrays",
                    lambda: AudioBuffer(np.array([0.0, np.nan]), 8000), SignalError),
    "EdgeSpec": (lambda: EdgeSpec.from_range(-1.0, 0.5, bits=2, signed=True), "hash",
                 lambda: EdgeSpec.from_range(0.0, np.inf, bits=2, signed=False),
                 CircuitError),
    "RawSpec": (lambda: RawSpec(scale=0.25, v_lo=-3, v_hi=7), "hash", None, None),
    "BudgetEntry": (lambda: BudgetEntry("conv", "conv", 12, 64), "hash", None, None),
    "AccumulatorReport": (lambda: AccumulatorReport([BudgetEntry("r", "reduce", 3)]),
                          "equal", None, None),
    "QuantizedTensor": (lambda: QuantizedTensor(np.array([-2, 1]), EDGE), "arrays",
                        lambda: QuantizedTensor(np.array([2]), EDGE), CircuitError),
    "KernelBank": (lambda: KernelBank(StftConfig(4, 2), np.zeros((6, 4))),
                   "arrays", None, None),
    "BoundReport": (lambda: BoundReport(np.ones(2), np.zeros(2)), "arrays", None, None),
    "Clip": (lambda: Clip("a", "tone", _buffer()), "arrays", None, None),
    "PairTestResult": (lambda: PairTestResult(("a/x", "b/x"), 0.01, 0.2), "hash",
                       None, None),
    "GridSearchResult": (lambda: GridSearchResult(BitWidthConfig(2, 2, 2, 2),
                                                  {"mean_rms": 0.5, "std_rms": 0.25}),
                         "equal", None, None),
    "GridSearchResult-refused": (lambda: GridSearchResult(BitWidthConfig(2, 2, 2, 2),
                                                          reason="accumulator bound"),
                                 "hash", None, None),
}


@pytest.mark.parametrize("make, compares, invalid, error", RECORDS.values(), ids=RECORDS)
def test_records_compare_by_value_refuse_assignment_and_validate(make, compares,
                                                                 invalid, error):
    a, b = make(), make()
    assert a is not b
    if compares != "arrays":
        assert a == b and not a != b
    if compares == "hash":
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    if invalid is not None:
        with pytest.raises(error):
            invalid()


def test_records_of_different_kinds_never_compare_equal():
    """Specs with equal fields but different kinds stay distinct, as the
    approximation label and the plan they build differ."""
    assert Conventional() != L1Energy()
    assert FreqAdaptiveWindow(n_min=4) != Poorman(roots=4)
    assert MelSpec(n_mels=16) != GammatoneSpec(n_filters=16)
    assert len({Conventional(), L1Energy()}) == 2
    assert repr(Dilation(rate=4)) == "Dilation(rate=4)"
    assert repr(L1Energy()) == "L1Energy()"


def test_bit_width_configs_order_and_replace_with_validation():
    assert BitWidthConfig(2, 3, 4, 5) < BitWidthConfig(2, 3, 5, 2)
    assert BitWidthConfig(2, 3, 4, 5)._replace(mid_bits=6) == BitWidthConfig(2, 3, 4, 6)
    with pytest.raises(QuantError, match="weight_bits must be in"):
        BitWidthConfig(2, 3, 4, 5)._replace(weight_bits=1)


def test_grid_search_result_mean_r_is_the_mean_of_its_r_values():
    assert GridSearchResult(BitWidthConfig(2, 2, 2, 2), {"a": 0.5, "b": 0.0}).mean_r == 0.25
    assert GridSearchResult(BitWidthConfig(2, 2, 2, 2), reason="refused").mean_r is None
