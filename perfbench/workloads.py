"""Workload definitions, output checks and the oracle spot-check.

Each workload is one `fhespec` CLI command with explicit flags that realize
under the 16-bit budget (the CLI defaults do not).  The benchmark seed is
passed as `--seed`, which drives the synthetic corpus and the split.  Why
each workload is there: BENCHMARK.json and NOTES.md.

The checks here read the program's output files and, for the oracle
spot-check, import the checkout's `fhespec` and `tests/oracles.py`; they
never run inside a timed region.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple  # CLI arguments after `fhespec`, without --seed/--out
    fidelity: str  # name of the deterministic fidelity figure
    oracle_bits: tuple  # fixed configs for the oracle spot-check
    # BLAS threads of the CLI processes: 1, or None for the program's default
    # (one per CPU unless the environment says otherwise)
    blas_threads: int | None = 1


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="grid",
            argv=("gridsearch", "--grid", "full", "--synthetic", "tones,noise",
                  "--clips", "4", "--duration", "0.25", "--window", "256",
                  "--hop", "128", "--n-mels", "32", "--n-gammatone", "32"),
            fidelity="best_mean_r",
            # realizable on every seed tried (0..39)
            oracle_bits=((2, 2, 2, 2), (3, 2, 3, 5), (4, 4, 2, 4)),
        ),
        Workload(
            name="stattest",
            argv=("stattest", "--synthetic", "tones,noise,chirps",
                  "--clips", "12", "--window", "1024", "--hop", "256",
                  "--n-mels", "64", "--n-gammatone", "64", "--bits", "5,8,4,5"),
            fidelity="discovery_error_rate",
            oracle_bits=((5, 8, 4, 5),),
            # at the default, cpu_s shows the BLAS threads spinning
            blas_threads=None,
        ),
        Workload(
            name="spectrogram",
            argv=("spectrogram", "--transform", "mfcc", "--approx", "dilation:4",
                  "--synthetic", "tones,noise,chirps", "--clips", "12",
                  "--window", "512", "--hop", "128", "--n-mels", "40",
                  "--bits", "6,8,4,8"),
            fidelity="mean_distance",
            oracle_bits=((6, 8, 4, 8),),
        ),
    )
}


def cli_args(workload: Workload, seed: int, out: Path) -> list:
    return [*workload.argv, "--seed", str(seed), "--out", str(out)]


def import_checkout_fhespec():
    """Import `fhespec` from the checkout's src/, refusing any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fhespec
    if Path(fhespec.__file__).resolve().parent != SRC / "fhespec":
        raise RuntimeError(f"fhespec imported from {fhespec.__file__}, not {SRC}")
    return fhespec


def prepare(workload: Workload, seed: int):
    """The CLI's one-off calls before its per-item loop, for the output checks.

    The clips come from the CLI's own `gather_clips` and
    `truncate_to_common_length`; the plan is built and calibrated with the
    arguments the CLI passes (on `grid`, `evaluate.grid_search` makes these
    two calls with the same arguments).  Returns (settings, calibrated plan,
    calibration clips, evaluation clips).
    """
    import_checkout_fhespec()
    from fhespec import cli
    from fhespec.circuit import build_descriptor_plan, build_transform_plan

    args = cli.build_parser().parse_args(cli_args(workload, seed, Path("unused")))
    s = cli.resolve_settings(args)
    calib, evalu, _skips = cli.gather_clips(s)
    cfg = s["stft_config"]
    if args.command == "spectrogram":
        plan = build_transform_plan(s["transform"], s["approx_spec"], cfg,
                                    s["sample_rate"], mel=s["mel_spec"],
                                    gamma=s["gamma_spec"], n_mfcc=s["n_mfcc"])
    else:
        clips = cli.truncate_to_common_length(calib + evalu)
        calib, evalu = clips[: len(calib)], clips[len(calib):]
        n_frames = cfg.frame_count(len(calib[0].buffer))
        plan = build_descriptor_plan(s["approx_spec"], cfg, s["sample_rate"],
                                     n_frames, mel=s["mel_spec"],
                                     gamma=s["gamma_spec"])
    plan.calibrate([c.buffer for c in calib])
    return s, plan, calib, evalu


# Digests ----------------------------------------------------------------------

def output_digest(out: Path) -> str:
    """SHA-256 over every output file's relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def digest_key(threads: int | None) -> str:
    """Key of the pinned digests for a BLAS thread count (see NOTES.md)."""
    return f"blas_threads={threads}"


def pinned_digest(workload: str, threads: int | None, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    pins = json.loads(DIGESTS.read_text()).get(workload, {})
    return pins.get(digest_key(threads), {}).get(str(seed))


# Structural checks and fidelity ----------------------------------------------

def check_grid(out: Path, n_eval: int) -> tuple[list, float]:
    problems = []
    doc = json.loads((out / "gridsearch.json").read_text())
    results = doc["results"]
    configs = [tuple(r["config"][k] for k in ("input_bits", "output_bits",
                                               "weight_bits", "mid_bits"))
               for r in results]
    if len(results) != 7 ** 4 or len(set(configs)) != 7 ** 4:
        problems.append(f"gridsearch.json has {len(results)} results, "
                        f"{len(set(configs))} distinct; want 2401")
    feasible = [r for r in results if r["feasible"]]
    if not feasible:
        return problems + ["no feasible config"], math.nan
    if any(not r["feasible"] for r in results[: len(feasible)]):
        problems.append("feasible results are not listed first")
    keys = [(-r["mean_r"], c) for r, c in zip(feasible, configs)]  # feasible first
    if keys != sorted(keys):
        problems.append("feasible results are not ranked by (-mean_r, config)")
    for r in feasible:
        rs = list(r["per_descriptor_r"].values())
        if len(rs) != 4 or abs(sum(rs) / 4 - r["mean_r"]) > 1e-12:
            problems.append(f"mean_r of {r['config']} is not the mean of its r")
            break
    return problems, feasible[0]["mean_r"]


def check_stattest(out: Path, n_eval: int) -> tuple[list, float]:
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    alpha = summary["alpha"]
    with open(out / "pairs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    n_classes = len(summary["classes"])
    want_rows = n_classes * (n_classes - 1) // 2 * 4
    if len(rows) != want_rows:
        problems.append(f"pairs.csv has {len(rows)} rows, want {want_rows}")
    counts = {"TP": 0, "FP": 0, "TN": 0, "FN": 0}
    for row in rows:
        clear_sig = float(row["p_clear"]) < alpha
        fhe_sig = float(row["p_fhe"]) < alpha
        outcome = {(True, True): "TP", (True, False): "FN",
                   (False, True): "FP", (False, False): "TN"}[clear_sig, fhe_sig]
        if outcome != row["outcome"]:
            problems.append(f"pairs.csv outcome {row['outcome']} != {outcome}")
            break
        counts[outcome] += 1
    disc = summary["discovery"]
    if any(disc[k] != v for k, v in counts.items()):
        problems.append(f"summary.json counts {disc} disagree with pairs.csv")
    return problems, disc["error_rate"]


def check_spectrogram(out: Path, n_eval: int) -> tuple[list, float]:
    import numpy as np
    problems = []
    with open(out / "distances.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_eval:
        problems.append(f"distances.csv has {len(rows)} rows, want {n_eval}")
    if len(list(out.glob("*_clear.csv"))) != n_eval or \
            len(list(out.glob("*_fhe.csv"))) != n_eval:
        problems.append("want one clear and one fhe CSV per evaluation clip")
    for row in rows:
        clear = np.loadtxt(out / f"{row['file_id']}_clear.csv", delimiter=",")
        fhe = np.loadtxt(out / f"{row['file_id']}_fhe.csv", delimiter=",")
        d = np.linalg.norm(clear / np.linalg.norm(clear) - fhe / np.linalg.norm(fhe))
        if abs(d - float(row["distance"])) > 1e-6:
            problems.append(f"distance of {row['file_id']} does not match its CSVs")
            break
    axes = json.loads((out / "axes.json").read_text())
    mean = float(np.mean([float(r["distance"]) for r in rows]))
    if axes["mean_distance"] != mean:
        problems.append("axes.json mean_distance is not the mean of distances.csv")
    return problems, axes["mean_distance"]


CHECKS = {"grid": check_grid, "stattest": check_stattest,
          "spectrogram": check_spectrogram}


# Oracle spot-check -----------------------------------------------------------

def load_oracle():
    """tests/oracles.py, imported read-only (no bytecode written)."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fake_quant_reference


def oracle_check(workload: Workload, plan, evalu: list, out: Path) -> tuple[list, int]:
    """Execute a fixed sample of (config, clip) pairs against the oracle.

    `plan` and `evalu` are what `prepare` returns for the run's seed.

    Returns (problems, pairs checked).  For `spectrogram` the sampled clips'
    `_fhe.csv` files must also equal the oracle's integers written the way the
    CLI writes them; for `grid` the sampled configs' reported correlations
    must match the oracle's.
    """
    import numpy as np
    from fhespec.quant import BitWidthConfig

    fake_quant_reference = load_oracle()
    picks = sorted({0, len(evalu) // 2, len(evalu) - 1})
    grid = (json.loads((out / "gridsearch.json").read_text())["results"]
            if workload.name == "grid" else None)
    problems, pairs = [], 0
    for bits_t in workload.oracle_bits:
        bits = BitWidthConfig(*bits_t)
        graph = plan.realize(bits)
        spec = graph.node(graph.output_node).out_spec
        deq = {}
        for i in picks:
            buf = evalu[i].buffer
            got = graph.execute(buf).output.data
            want = fake_quant_reference(graph, buf)
            pairs += 1
            if got.shape != want.shape or not np.array_equal(got, want):
                problems.append(f"execute != fake_quant_reference at bits={bits_t}, "
                                f"clip {evalu[i].file_id}")
                continue
            deq[i] = (want + spec.lift).astype(np.float64) * spec.scale
            if workload.name == "spectrogram":
                text = io.BytesIO()
                np.savetxt(text, deq[i], fmt="%.9e", delimiter=",")
                if (out / f"{evalu[i].file_id}_fhe.csv").read_bytes() != text.getvalue():
                    problems.append(f"{evalu[i].file_id}_fhe.csv differs from the oracle")
        if grid is not None and len(deq) == len(picks):
            problems += _grid_r_check(grid, bits, graph, evalu, fake_quant_reference)
    return problems, pairs


def _grid_r_check(results, bits, graph, evalu, fake_quant_reference) -> list:
    """The reported per-descriptor r of one scored config, from the oracle.

    A config the search reports infeasible is not compared: whether the
    pre-prune may drop a realizable config is the tests' concern, not the
    benchmark's.
    """
    import numpy as np
    from fhespec.circuit import DESCRIPTOR_NAMES
    entry = next(r for r in results if r["config"] == bits.as_dict())
    if not entry["feasible"]:
        return []
    spec = graph.node(graph.output_node).out_spec
    clear = np.array([graph.run_clear(c.buffer)["descriptor_vector"] for c in evalu])
    fhe = np.array([(fake_quant_reference(graph, c.buffer) + spec.lift) * spec.scale
                    for c in evalu])
    for j, name in enumerate(DESCRIPTOR_NAMES):
        r = entry["per_descriptor_r"][name]
        a, b = clear[:, j], fhe[:, j]
        want = 0.0 if np.ptp(a) == 0 or np.ptp(b) == 0 else np.corrcoef(a, b)[0, 1]
        if abs(want - r) > 1e-9:
            return [f"r[{name}] of {bits.as_tuple()} is {r}, oracle gives {want}"]
    return []
