"""fhespec benchmark: end-to-end and per-layer metrics of three CLI workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload grid|stattest|spectrogram \
        --seed N --seconds S --trace 0|1

--trace 0 times untraced CLI processes, one per repetition, until they add
up to S seconds (at least MIN_REPS of them), alternating with set-up probes
(the same command, ended where its set-up ends; see launch.py) until there
are SETUP_SAMPLES set-up times.  After each process it times the reference
computation of hostspeed.py, by which it scales the times it reports.  It
prints the end-to-end metrics of BENCHMARK.json.
--trace 1 alternates untraced and traced repetitions (at least two traced)
and prints the per-layer metrics.  Every repetition's output files are digested and
checked (see workloads.py); a repetition whose outputs fail the check counts
as failed.  The last stdout line is the result object; the line before it
records the environment, the fidelity figure and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import (  # noqa: E402
    CHECKS, ORACLES, ROOT, SRC, WORKLOADS, cli_args, digest_key, oracle_check,
    output_bytes, output_digest, pinned_digest, prepare)

HERE = Path(__file__).resolve().parent
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
# The environment run.py was started with, before single_thread_blas()
USER_ENV = dict(os.environ)
SETUP_SAMPLES = 8
MIN_REPS = 3
MIN_TRACED = 2
REFS_PER_GAP = 2  # hostspeed reference times after each untraced process
# No repetition starts after MAX_WALL_S and none runs past CHILD_TIMEOUT_S,
# so a run ends within 180 s.
MAX_WALL_S = 110.0
CHILD_TIMEOUT_S = 45.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    start: float  # time.perf_counter() at spawn
    digest: str | None = None
    traced: bool = False
    spans: list | None = None
    setup_s: float | None = None  # spawn to the end of set-up (launch.py)
    problem: str | None = None


def single_thread_blas() -> None:
    """Run BLAS on one thread in this process, before numpy loads.

    The outputs depend on the BLAS thread count (grid seed 4 gives another
    gridsearch.json at 1 and 2 threads), and the oracle check of a
    spectrogram run compares the CLI's files with a plan calibrated here, so
    this process runs at the thread count of the grid and spectrogram
    processes.  The CLI processes get theirs from child_env().
    """
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})


def child_env(workload) -> dict:
    """The user's environment, with the workload's BLAS thread count."""
    env = dict(USER_ENV)
    if workload.blas_threads is not None:
        env.update({var: str(workload.blas_threads) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list, log: Path, workload) -> Rep:
    """Run one process; wall time from spawn to reap, rusage from wait4."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(workload), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Rep(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode, t0)


def read_mark(mark: Path, rep: Rep) -> float:
    """Seconds from the process's spawn to the end of its set-up."""
    return float(mark.read_text()) - rep.start


def cli_rep(workload, seed: int, work: Path, index: int, traced: bool) -> Rep:
    """One whole CLI command: traced, or untraced with its set-up time."""
    out = work / f"rep{index}"
    log = work / f"rep{index}.log"
    spans_file = work / f"spans{index}.json"
    mark = work / f"mark{index}"
    if traced:
        cmd = [sys.executable, str(HERE / "trace_cli.py"), str(spans_file)]
    else:
        cmd = [sys.executable, str(HERE / "launch.py"), str(mark), "full"]
    rep = run_child(cmd + cli_args(workload, seed, out), log, workload)
    rep.traced = traced
    if rep.code == 0:
        rep.digest = output_digest(out)
        try:
            if traced:
                rep.spans = json.loads(spans_file.read_text())
                spans_file.unlink()
            else:
                rep.setup_s = read_mark(mark, rep)
        except (OSError, ValueError) as exc:
            rep.problem = f"repetition {index}: {type(exc).__name__}: {exc}"
    else:
        rep.problem = f"repetition {index} exited with {rep.code}"
        sys.stderr.write(log.read_text(errors="replace")[-2000:])
    if index > 0:
        shutil.rmtree(out, ignore_errors=True)  # rep0 is the checked copy
    return rep


def setup_probe(workload, seed: int, work: Path, index: int) -> Rep:
    """The CLI command ended where its set-up ends (launch.py `setup`)."""
    out = work / f"setup{index}"
    mark = work / f"setupmark{index}"
    rep = run_child([sys.executable, str(HERE / "launch.py"), str(mark), "setup",
                     *cli_args(workload, seed, out)],
                    work / f"setup{index}.log", workload)
    try:
        if rep.code != 0:
            raise OSError(f"exited with {rep.code}")
        rep.setup_s = read_mark(mark, rep)
    except (OSError, ValueError) as exc:
        rep.problem = f"set-up probe {index}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return rep


def environment(threads) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "fhespec").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def blas_threads() -> int | None:
    """Thread count OpenBLAS starts with in this environment, if it says."""
    import ctypes
    import glob
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def child_blas_threads(workload) -> int | None:
    """blas_threads() as seen by the workload's CLI processes."""
    proc = subprocess.run([sys.executable, "-c", "import run; print(run.blas_threads())"],
                          cwd=HERE, env=child_env(workload), capture_output=True,
                          text=True, timeout=60)
    text = proc.stdout.strip()
    return int(text) if text.isdigit() else None


def check_outputs(workload, seed: int, work: Path, reps: list) -> tuple[list, dict]:
    """Structural check and oracle spot-check of the first repetition."""
    problems, info = [], {}
    ref = work / "rep0"
    if reps[0].code != 0:
        return ["first repetition failed"], info
    try:
        _settings, plan, _calib, evalu = prepare(workload, seed)
        structural, fidelity = CHECKS[workload.name](ref, len(evalu))
        oracle, pairs = oracle_check(workload, plan, evalu, ref)
    except Exception as exc:  # a missing or malformed output file
        return [f"output check raised {type(exc).__name__}: {exc}"], info
    problems += structural + oracle
    info.update(items=7 ** 4 if workload.name == "grid" else len(evalu),
                fidelity={workload.fidelity: fidelity}, oracle_pairs=pairs,
                digest=reps[0].digest, io_bytes=output_bytes(ref))
    return problems, info


def metric_specs(group: str) -> list:
    return json.loads(BENCHMARK.read_text())[group]


def emit(values: dict, group: str, problems: list) -> dict:
    out = {}
    for spec in metric_specs(group):
        if spec["name"] in values:
            out[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        else:
            problems.append(f"metric {spec['name']} was not measured")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    single_thread_blas()
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "fhespec" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"error: no fhespec sources under {SRC} or no {ORACLES}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if workload.blas_threads == 1:
        # The CLI processes (which inherit this) and the reference on one CPU:
        # the host's CPUs slow down and speed up independently of each other.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(workload, args, work: Path) -> int:
    from hostspeed import NOMINAL_S, reference_s  # numpy, after single_thread_blas()
    begin = time.perf_counter()
    setup: list = []
    reps: list = []
    refs: list = []  # hostspeed reference times, taken between the processes
    cpus = sorted(os.sched_getaffinity(0))

    def gauge_host() -> None:
        """Reference times on each CPU the CLI may use, in turn."""
        for _ in range(REFS_PER_GAP):
            os.sched_setaffinity(0, {cpus[len(refs) % len(cpus)]})
            refs.append(reference_s())
        os.sched_setaffinity(0, cpus)

    def setup_samples() -> int:
        return sum(r.setup_s is not None for r in reps + setup)

    if not args.trace:
        reference_s()  # the first call also pays for its page faults
        gauge_host()
    # The set-up probes alternate with the repetitions, so that both sample
    # the whole run rather than one stretch of it.
    while time.perf_counter() - begin < MAX_WALL_S:
        rep_time = sum(r.wall_s for r in reps)
        if args.trace:
            if sum(r.traced for r in reps) >= MIN_TRACED and rep_time >= args.seconds:
                break
            reps.append(cli_rep(workload, args.seed, work, len(reps), False))
            reps.append(cli_rep(workload, args.seed, work, len(reps), True))
            continue
        reps_done = len(reps) >= MIN_REPS and rep_time >= args.seconds
        probes_done = setup_samples() >= SETUP_SAMPLES or len(setup) >= 2 * SETUP_SAMPLES
        if reps_done and probes_done:
            break
        if not reps_done:
            reps.append(cli_rep(workload, args.seed, work, len(reps), False))
            gauge_host()
        if not probes_done:
            setup.append(setup_probe(workload, args.seed, work, len(setup)))
            gauge_host()

    problems, info = check_outputs(workload, args.seed, work, reps)
    threads = child_blas_threads(workload)
    pinned = pinned_digest(workload.name, threads, args.seed)
    info["digest_pinned"] = None if pinned is None else digest_key(threads)
    if pinned is not None and pinned != reps[0].digest:
        problems.append(f"output digest {reps[0].digest} != pinned {pinned}")
    problems += [r.problem for r in reps + setup if r.problem]
    expected = pinned or reps[0].digest
    failed = sum(1 for r in reps
                 if r.code != 0 or r.problem or r.digest != expected or problems)
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    meta = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cli": ["fhespec", *workload.argv, "--seed",
                                         str(args.seed)],
            "reps": len(untraced), "rep_wall_s": [r.wall_s for r in untraced],
            "rep_cpu_s": [r.cpu_s for r in untraced],
            "problems": problems, **info,
            "env": environment(threads)}
    values: dict = {}
    if args.trace:
        import layers
        per_run = [layers.aggregate(r.spans) for r in traced if r.spans is not None]
        counts = [layers.computed_counts(m) for m in per_run]
        if len(per_run) < MIN_TRACED:
            problems.append(f"{len(per_run)} traced repetitions succeeded, "
                            f"want {MIN_TRACED}")
            failed = len(reps)
        elif any(c != counts[0] for c in counts):
            problems.append("traced runs disagree on computed counts")
            failed = len(reps)
        else:
            values = {k: v if k in counts[0] else statistics.median(m[k] for m in per_run)
                      for k, v in per_run[0].items()}
            values["io.bytes"] = info.get("io_bytes", 0)
            # Noise where the tracing adds little (see NOTES.md), so not below 0
            values["trace.overhead_s"] = max(0.0, min(r.wall_s for r in traced)
                                             - min(r.wall_s for r in untraced))
            meta["zero_metrics"] = sorted(k for k, v in values.items() if v == 0)
        meta["traced_wall_s"] = [r.wall_s for r in traced]
        meta["computed_from_shapes"] = sorted(
            k for k in values if k.startswith(("node.conv.", "node.matmul."))
            and k.endswith(("macs", "bytes")))
        metrics = emit(values, "per_layer", problems)
    else:
        # Each time is the mean over the run, in seconds on a host where the
        # hostspeed reference takes NOMINAL_S: the host's slow phases can
        # outlast a run, and they slow the reference too.
        scale = NOMINAL_S / statistics.mean(refs)
        wall = statistics.mean(r.wall_s for r in untraced) * scale
        values = {
            "wall_s": wall,
            "items_per_s": info.get("items", 0) / wall,
            "cpu_s": statistics.mean(r.cpu_s for r in untraced) * scale,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
        }
        samples = [r.setup_s for r in reps + setup if r.setup_s is not None]
        if samples:
            values["setup_s"] = statistics.mean(samples) * scale
        meta["setup_s_samples"] = samples
        meta["host_ref_s"] = refs
        meta["host_scale"] = scale
        metrics = emit(values, "end_to_end", problems)
    meta["fail_ratio"] = failed / len(reps)
    print(json.dumps({"perfbench": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
