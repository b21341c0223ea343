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

import csv
from dataclasses import dataclass

from .circuit import DESCRIPTOR_NAMES

CSV_FIELDS = ("file_id", "class", "m_gstds", "m_mstds", "mean_rms", "std_rms", "path")


@dataclass(frozen=True)
class DescriptorVector:
    file_id: str
    label: str
    values: dict  # descriptor name -> float
    path: str  # 'clear' | 'fhe'

    def as_row(self) -> dict:
        row = {"file_id": self.file_id, "class": self.label, "path": self.path}
        row.update({n: repr(self.values[n]) for n in DESCRIPTOR_NAMES})
        return row


def write_descriptor_csv(path, vectors: list) -> None:
    """Write descriptor vectors in a fixed column order (deterministic bytes)."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for v in vectors:
            writer.writerow(v.as_row())


def read_descriptor_csv(path) -> list:
    vectors = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            vectors.append(DescriptorVector(
                file_id=row["file_id"], label=row["class"],
                values={n: float(row[n]) for n in DESCRIPTOR_NAMES},
                path=row["path"]))
    return vectors
