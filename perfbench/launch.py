"""Run one `fhespec` CLI command and note when its set-up ends.

Usage: python3 perfbench/launch.py MARK_FILE full|setup CLI_ARG...

Set-up ends when the first `PipelinePlan.calibrate` call returns.  By then
the interpreter has started, `fhespec` is imported, and the CLI has made
the one-off calls that come before its per-item loop: `synthetic_clips`,
`split_clips`, `build_*_plan` and `calibrate`.  (On `gridsearch` the last
two run inside `evaluate.grid_search`.)  That moment is written to
MARK_FILE as `time.perf_counter()`, which on Linux reads CLOCK_MONOTONIC,
the clock the parent process times the spawn with.

With `full` the command then runs to its end, so the caller times the whole
command and its set-up in one process.  With `setup` the process ends right
there, without running the per-item loop.  Only the one call is wrapped; no
other part of the program is touched, and nothing else is imported, so the
process does what `python3 -m fhespec.cli` does.  `fhespec` comes from the
PYTHONPATH that run.py sets to the checkout's `src/`.
"""

import os
import sys
import time


def main(argv: list) -> int:
    mark, mode, cli_argv = argv[0], argv[1], argv[2:]
    from fhespec import cli
    from fhespec.circuit import PipelinePlan

    calibrate = PipelinePlan.calibrate

    def calibrate_then_mark(self, *args, **kwargs):
        result = calibrate(self, *args, **kwargs)
        done = time.perf_counter()
        PipelinePlan.calibrate = calibrate
        with open(mark, "w") as fh:
            fh.write(repr(done))
        if mode == "setup":
            sys.stdout.flush()
            os._exit(0)
        return result

    PipelinePlan.calibrate = calibrate_then_mark
    return cli.main(cli_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
