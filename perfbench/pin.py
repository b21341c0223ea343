"""Pin the output digests that run.py compares every repetition against.

Usage (from the repository root):

    python3 perfbench/pin.py --workloads grid,stattest,spectrogram --seeds 0-19

Runs each workload's CLI command once per seed, keeps the digest only if the
outputs pass the structural check and the oracle spot-check, and writes
perfbench/digests.json, under the BLAS thread count the CLI ran at.  Re-pinning is a visible change to that file: do it
only when a change to the program is meant to change its outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import WORK, check_outputs, child_blas_threads, cli_rep, single_thread_blas
from spread import seeds_of
from workloads import DIGESTS, WORKLOADS, digest_key


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="grid,stattest,spectrogram")
    parser.add_argument("--seeds", default="0-19")
    args = parser.parse_args()
    single_thread_blas()
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for name in args.workloads.split(","):
        workload = WORKLOADS[name]
        key = digest_key(child_blas_threads(workload))
        for seed in seeds_of(args.seeds):
            work = WORK / f"pin-{name}-{seed}-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                rep = cli_rep(workload, seed, work, 0, traced=False)
                problems, _info = check_outputs(workload, seed, work, [rep])
                problems += [rep.problem] if rep.problem else []
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if problems:
                print(f"{name} seed {seed}: not pinned: {problems}", file=sys.stderr)
                return 1
            digests.setdefault(name, {}).setdefault(key, {})[str(seed)] = rep.digest
            print(f"{name} {key} seed {seed}: {rep.digest}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    if WORK.exists() and not any(WORK.iterdir()):
        WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
