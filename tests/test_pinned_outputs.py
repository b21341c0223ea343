"""The benchmark workloads' outputs equal their pinned digests.

Each of the three `perfbench` workloads runs once, at seed 3 with one BLAS
thread, as its own CLI process; the SHA-256 over its output files must equal
the digest `perfbench/digests.json` pins for it.  `grid` also runs at seed 4,
the seed whose output depends on the BLAS thread count, and `spectrogram` at
seed 11, so its CSVs are also checked on a seed other than the benchmark's.
An unintended change to any output then fails here rather than only in the
benchmark.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """perfbench/workloads.py, imported without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name,seed", [
    *(pytest.param(name, 3, id=name) for name in sorted(WORKLOADS.WORKLOADS)),
    pytest.param("grid", 4, id="grid-seed4"),
    pytest.param("spectrogram", 11, id="spectrogram-seed11"),
])
def test_workload_output_equals_its_pin(tmp_path, name, seed):
    workload = WORKLOADS.WORKLOADS[name]
    pinned = WORKLOADS.pinned_digest(name, 1, seed)
    assert pinned is not None, f"no digest pinned for {name} at seed {seed}"
    out = tmp_path / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "fhespec.cli", *WORKLOADS.cli_args(workload, seed, out)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert WORKLOADS.output_digest(out) == pinned
