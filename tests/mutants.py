"""Mutants of `src/fhespec` that the test suite must kill, and their runner.

Each mutant is a small textual patch: one exact snippet of one source file
and its replacement, which breaks a behaviour some test pins, together with
the test files that should catch it.  The runner copies the checkout into a
temporary directory, checks that the named test files pass there
unchanged, and then, for each mutant, applies its patch to a fresh copy,
runs only the test files named for it and prints whether it was killed (a
test failed) or survived (every test passed).  A mutant whose snippet no
longer occurs exactly once, or whose run ends in a pytest error rather
than a test failure, is reported as stale.  Hypothesis runs at one fixed
seed, so a verdict does not depend on the draw.

The file has no `test_` prefix, so the suite itself never collects it.
Run it from the checkout:

    python tests/mutants.py                 # every mutant
    python tests/mutants.py no-mallopt      # the named ones

It exits 0 when every mutant run was killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                     ".pytest_cache", ".perfbench_work", "out")
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    path: str  # the source file, relative to the checkout
    old: str  # occurs exactly once in it
    new: str
    tests: tuple  # the test files that should kill it


MUTANTS = [
    Mutant("sweep-pending-shared",  # a refused config's rebinds never rerun
           "src/fhespec/circuit.py",
           "self.pending = min(self.pending, shared)",
           "self.pending = shared",
           ("tests/test_evaluate.py",)),
    Mutant("sweep-run-lists-at-depth",  # run list k also holds the slots of depth k
           "src/fhespec/circuit.py",
           "deeper = [s for s in slots.values() if s.depth > k]",
           "deeper = [s for s in slots.values() if s.depth >= k]",
           ("tests/test_evaluate.py",)),
    Mutant("no-mallopt",  # the CLI leaves glibc's moving thresholds on
           "src/fhespec/cli.py",
           "    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)\n"
           "    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)\n",
           "",
           ("tests/test_evaluate.py",)),
    Mutant("no-exit-freeze",  # the final collection walks the whole heap again
           "src/fhespec/cli.py",
           "    atexit.unregister(gc.freeze)\n"
           "    atexit.register(gc.freeze)\n",
           "",
           ("tests/test_dataset_cli.py",)),
    Mutant("output-left-open",  # a report file is closed only when collected
           "src/fhespec/evaluate.py",
           "    with open(path, \"w\") as fh:\n"
           "        json.dump(doc, fh, indent=2, sort_keys=True)\n"
           "        fh.write(\"\\n\")\n",
           "    fh = open(path, \"w\")\n"
           "    json.dump(doc, fh, indent=2, sort_keys=True)\n"
           "    fh.write(\"\\n\")\n",
           ("tests/test_dataset_cli.py",)),
    Mutant("reduce-any-op",  # an unknown op sums in one arm, averages in the other
           "src/fhespec/circuit.py",
           "        if op not in (\"sum\", \"mean\"):\n"
           "            raise CircuitError(f\"unknown reduce op {op!r}\")\n",
           "",
           ("tests/test_circuit.py",)),
    Mutant("reduce-fan-in-time-only",  # a channel mean divides by the wrong count
           "src/fhespec/circuit.py",
           "        _check_fan_in(self, arr.shape[ax], "
           "\"frames\" if self.axis == \"time\" else self.axis)\n",
           "        if self.axis == \"time\":\n"
           "            _check_fan_in(self, arr.shape[ax], \"frames\")\n",
           ("tests/test_circuit.py",)),
    Mutant("input-range-shifted",  # the input edge no longer fits the calibration
           "src/fhespec/circuit.py",
           "        self.ranges = ranges\n",
           "        self.ranges = ranges\n"
           "        ranges[\"input\"] = tuple(b + 0.05 for b in ranges[\"input\"])\n",
           ("tests/test_circuit.py",)),
    Mutant("conv-frame-offset",  # frame t of every conv output gains t % 2
           "src/fhespec/circuit.py",
           "        return self._dot(frames)  # (B, T, C)\n",
           "        return self._dot(frames) + np.arange(frames.shape[-2])[:, None] % 2\n",
           ("tests/test_circuit.py",)),
]


def apply(mutant: Mutant, root: Path) -> bool:
    """Patch the copy at `root`; False when the snippet is not there once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def run_tests(root: Path, tests) -> tuple[int, str]:
    """pytest's exit code for `tests` in the copy at `root`, and the first
    test that failed ('' if none did)."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(root / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests]
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith("FAILED ")]
    return done.returncode, failed[0] if failed else ""


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] or MUTANTS
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="fhespec-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(ROOT, clean, ignore=COPY_IGNORE)
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        code, failed = run_tests(clean, tests)
        if code != 0:
            print(f"the unmutated copy fails {failed or ' '.join(tests)}; no verdicts")
            return 1
        verdicts = []
        for m in chosen:
            copy = Path(tmp) / m.name
            shutil.copytree(clean, copy)
            t0 = time.perf_counter()
            code, failed = run_tests(copy, m.tests) if apply(m, copy) else (-1, "")
            verdict = {0: "survived", 1: "killed"}.get(code, "stale")
            verdicts.append(verdict)
            print(f"{verdict:8} {m.name} ({time.perf_counter() - t0:.1f} s) {failed}",
                  flush=True)
            shutil.rmtree(copy)
    killed = verdicts.count("killed")
    print(f"{killed} of {len(verdicts)} killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
