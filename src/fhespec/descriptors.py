"""Per-clip descriptor vectors and their CSV form.

Four per-clip descriptors summarize a recording: mean and standard deviation
over time of the per-frame RMS of the STFT power spectrogram, the mean over
channels of the per-channel std over time of the Mel spectrogram, and the
same statistic on the gammatone spectrogram.  One graph,
`circuit.build_descriptor_plan`, computes both arms: `run_clear` is the float
forward pass and `execute` the integer circuit.  Both z-score with the
constants the plan froze from its calibration clips, so the clear and the
simulated encrypted descriptors normalize identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import DESCRIPTOR_NAMES
from .evaluate import write_csv

CSV_FIELDS = ("file_id", "class", *DESCRIPTOR_NAMES, "path")


@dataclass(frozen=True)
class DescriptorVector:
    file_id: str
    label: str
    values: dict  # descriptor name -> float
    path: str  # 'clear' | 'fhe'

    def as_row(self) -> list:
        return [self.file_id, self.label,
                *(repr(self.values[n]) for n in DESCRIPTOR_NAMES), self.path]


def write_descriptor_csv(path, vectors: list) -> None:
    """Write descriptor vectors in a fixed column order (deterministic bytes)."""
    write_csv(path, CSV_FIELDS, (v.as_row() for v in vectors))
