"""The descriptor CSV.

Four per-clip descriptors summarize a recording: mean and standard deviation
over time of the per-frame RMS of the STFT power spectrogram, the mean over
channels of the per-channel std over time of the Mel spectrogram, and the
same statistic on the gammatone spectrogram.  One graph,
`circuit.build_descriptor_plan`, computes both arms: `run_clear` is the float
forward pass and `execute` the integer circuit.  Both z-score with the
constants calibration froze into the plan's `normalize` lookups, so the
clear and the simulated encrypted descriptors normalize identically.  Each arm is an
(n, 4) float array, one row per clip, columns in `DESCRIPTOR_NAMES` order.
"""

from __future__ import annotations

from .circuit import DESCRIPTOR_NAMES
from .evaluate import write_csv

CSV_FIELDS = ("file_id", "class", *DESCRIPTOR_NAMES, "path")


def write_descriptor_csv(path, clips: list, clear, fhe) -> None:
    """Per clip, its clear row and then its fhe row; each value is written
    as `repr(float)`, which parses back to the same float (deterministic
    bytes)."""
    def rows():
        for clip, c, f in zip(clips, clear, fhe):
            for arm, values in (("clear", c), ("fhe", f)):
                yield [clip.file_id, clip.label, *(repr(float(x)) for x in values), arm]
    write_csv(path, CSV_FIELDS, rows())
