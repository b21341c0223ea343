"""Quantized approximate time-frequency transforms for simulated encrypted inference.

STFT, Mel, MFCC and gammatone spectrograms expressed as integer circuits with
a 16-bit accumulator budget, five kernel-level STFT approximations with
verifiable error bounds, scalar audio descriptors, and a statistical
replication harness with bit-width grid search.
"""

from .approx import (
    ApproxError,
    ApproxSpec,
    Conventional,
    Cropping,
    Dilation,
    FreqAdaptiveWindow,
    L1Energy,
    Poorman,
)
from .circuit import (
    BUDGET_BITS,
    BudgetViolation,
    CircuitError,
    CircuitGraph,
    CircuitOverflow,
    QuantizedTensor,
    build_descriptor_plan,
    build_transform_plan,
)
from .evaluate import (
    GridSearchResult,
    PairTestResult,
    discovery_errors,
    grid_search,
    mann_whitney_u,
    normalized_euclidean,
    pearson,
)
from .quant import BitWidthConfig, QuantError, accumulator_bits, width_of
from .transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    SignalError,
    StftConfig,
    hann_window,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
