"""Command-line front end.

Subcommands: spectrogram (clear + simulated-encrypted spectrograms and their
distances), descriptors (per-clip descriptor CSV for both paths), stattest
(class-pair Mann-Whitney replication report), gridsearch (bit-width ranking),
validate-bounds (approximation bound/identity checks on audio), budget
(worst-case accumulator report of the transform circuit spectrogram
realizes, without executing it).

Outputs carry no timestamps, so repeated runs with identical inputs and seed
produce byte-identical files.  Exit codes: 0 success, 3 completed with
skipped files, 1 failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from pathlib import Path

import numpy as np

from .approx import (
    ApproxError,
    Conventional,
    Cropping,
    Dilation,
    dilation_aliasing_residual,
    FreqAdaptiveWindow,
    L1Energy,
    Poorman,
    poorman_bound_report,
)
from .circuit import (
    BudgetViolation,
    CircuitError,
    build_descriptor_plan,
    build_transform_plan,
    TRANSFORMS,
)
from .dataset import (
    DatasetError,
    SYNTHETIC_KINDS,
    ingest,
    split_clips,
    synthetic_clips,
)
from .descriptors import CSV_FIELDS, write_descriptor_csv
from .evaluate import (
    SIGNIFICANCE_LEVEL,
    EvalError,
    default_grid,
    discovery_errors,
    grid_search,
    normalized_euclidean,
    pair_tests,
    write_csv,
    write_grid_json,
    write_json,
    write_matrix_csv,
    write_pair_csv,
    write_scatter_csv,
    write_summary_json,
)
from .quant import BitWidthConfig, QuantError
from .transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    N_GAMMATONE,
    N_MELS,
    N_MFCC,
    SignalError,
    StftConfig,
    gammatone_center_freqs,
    hann_window,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SKIPS = 3

# Every setting: name -> (type, default, help).  A flag, then the config
# file's [run] section, then the default decides each one.
SETTINGS = {
    "transform": (str, "stft", None),
    "approx": (str, "conventional", "conventional | dilation:d | dilation:max | "
                                    "fdwindow:Nmin | poorman:L | l1 | crop:fmin:fmax"),
    "bits": (str, "5,8,4,5", "Bi,Bo,Bw,Bm"),
    "calib_fraction": (float, 0.10, None),
    "seed": (int, 0, None),
    "out": (Path, "out", "output directory"),
    "dataset": (Path, None, "directory-per-class WAV root"),
    "synthetic": (str, None, "|".join(SYNTHETIC_KINDS) + " (comma-combinable)"),
    "clips": (int, 30, "synthetic clips per kind"),
    "duration": (float, 1.0, "synthetic clip seconds"),
    "sample_rate": (int, 16000, None),
    "window": (int, 1024, "STFT window length N"),
    "hop": (int, 256, "STFT hop length"),
    "n_mels": (int, N_MELS, None),
    "n_mfcc": (int, N_MFCC, None),
    "n_gammatone": (int, N_GAMMATONE, None),
    "alpha": (float, SIGNIFICANCE_LEVEL, "significance level"),
    "grid": (str, "full", "semicolon-separated Bi,Bo,Bw,Bm configs, or 'full'"),
}

# The commands that score clips of the evaluation split.
EVALUATING = ("spectrogram", "descriptors", "stattest", "gridsearch")
# The commands whose descriptors take statistics over time, which need two
# frames of each clip (see `build_descriptor_plan`); the others need one.
DESCRIBING = ("descriptors", "stattest", "gridsearch")


# glibc's malloc serves a request at or above its mmap threshold with a
# fresh mapping, and gives the freed top of its heap back to the kernel once
# it exceeds the trim threshold.  By default both move: freeing a mapped
# chunk raises the mmap threshold to that chunk's size and sets the trim
# threshold to twice it.  A sweep step frees several same-size arrays at
# once (on `grid`, (5, 30, 258) int64 arrays, 309,600 B), which crosses the
# moving trim threshold, so the heap shrinks and the next step faults the
# same pages in again.  Fixed thresholds keep the heap between steps;
# setting either one alone turns off the adjustment of both, and each alone
# faults more than the defaults.
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 256 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def fix_allocator_thresholds() -> None:
    """Set the C allocator's mmap and trim thresholds to the fixed values
    above, through glibc's `mallopt`; where the C library has none, do
    nothing.  Only the CLI process calls it: it owns its allocator, and a
    program importing `fhespec` keeps its own."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


class CliError(ValueError):
    pass


def parse_approx(text: str):
    """Parse an approximation spec like 'dilation:4' or 'crop:0:1000'."""
    parts = text.split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "conventional" and not args:
            return Conventional()
        if name == "dilation" and len(args) == 1:
            return Dilation(rate=None if args[0] == "max" else int(args[0]))
        if name == "fdwindow" and len(args) == 1:
            return FreqAdaptiveWindow(n_min=int(args[0]))
        if name == "poorman" and len(args) == 1:
            return Poorman(roots=int(args[0]))
        if name == "l1" and not args:
            return L1Energy()
        if name == "crop":
            if not args:
                return Cropping()
            if len(args) == 2:
                return Cropping(f_min_hz=float(args[0]), f_max_hz=float(args[1]))
    except (ValueError, ApproxError) as exc:
        raise CliError(f"bad approximation spec {text!r}: {exc}") from exc
    raise CliError(f"bad approximation spec {text!r}")


def parse_bits(text: str, flag: str = "--bits") -> BitWidthConfig:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"{flag} wants 4 comma-separated widths, got {text!r}")
    try:
        return BitWidthConfig(*(int(p) for p in parts))
    except (ValueError, QuantError) as exc:
        raise CliError(f"bad {flag} {text!r}: {exc}") from exc


def parse_grid(text: str) -> list:
    """Semicolon-separated bit configs, or 'full' for the whole {2..8}^4 grid."""
    if text == "full":
        return default_grid()
    configs = [parse_bits(chunk, "--grid") for chunk in text.split(";") if chunk]
    if not configs:
        raise CliError(f"--grid names no config: {text!r}")
    return configs


def _add_settings(parser, names) -> None:
    for name in names:
        convert, _, help_text = SETTINGS[name]
        parser.add_argument("--" + name.replace("_", "-"), type=convert, help=help_text,
                            choices=TRANSFORMS if name == "transform" else None)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="INI config file ([run] section)")
    _add_settings(common, [n for n in SETTINGS if n != "grid"])  # --grid: gridsearch only

    parser = argparse.ArgumentParser(
        prog="fhespec",
        description="Quantized approximate time-frequency transforms under "
                    "simulated encrypted-inference constraints.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, parents=[common])
        if command == "gridsearch":
            _add_settings(p, ["grid"])
    return parser


def resolve_settings(args) -> dict:
    """Merge built-in defaults, the optional config file, and flags (flags win)."""
    settings = {name: default for name, (_, default, _) in SETTINGS.items()}
    if args.config is not None:
        import configparser  # on first use: most runs read no config file

        cp = configparser.ConfigParser()
        if not cp.read(args.config):
            raise CliError(f"cannot read config file {args.config}")
        for key, value in cp.items("run") if cp.has_section("run") else []:
            key = key.replace("-", "_")
            if key not in SETTINGS:
                raise CliError(f"unknown config key {key!r}")
            settings[key] = value
    for name, (convert, _, _) in SETTINGS.items():
        value = getattr(args, name, None)
        value = settings[name] if value is None else value
        try:
            settings[name] = None if value is None else convert(value)
        except ValueError:
            raise CliError(f"bad {name} value {value!r}: "
                           f"want {convert.__name__}") from None
    settings["approx_spec"] = parse_approx(settings["approx"])
    settings["bits_config"] = parse_bits(settings["bits"])
    if args.command == "gridsearch":  # the only command that reads the grid
        settings["grid_configs"] = parse_grid(settings["grid"])
    cfg = settings["stft_config"] = StftConfig(window_length=settings["window"],
                                               hop=settings["hop"])
    # a dataset file shorter than this is skipped
    settings["min_samples"] = cfg.window_length + (
        cfg.hop if args.command in DESCRIBING else 0)
    settings["mel_spec"] = MelSpec(n_mels=settings["n_mels"])
    settings["gamma_spec"] = GammatoneSpec(n_filters=settings["n_gammatone"])
    return settings


def gather_clips(settings) -> tuple[list, list, list]:
    """Return (calibration clips, evaluation clips, skip messages).

    A dataset file shorter than the command can use (`min_samples`) is
    skipped.  Single-file-class warnings from the split are printed to
    stderr.
    """
    if settings.get("synthetic"):
        items = synthetic_clips(str(settings["synthetic"]), settings["clips"],
                                settings["seed"], settings["sample_rate"],
                                settings["duration"])
        skips = []
    elif settings.get("dataset"):
        items, skips = ingest(settings["dataset"], settings["sample_rate"],
                              settings["min_samples"])
    else:
        raise CliError("need either --dataset or --synthetic")
    # the split refuses a bad fraction or seed first, even with no clips
    calib, evalu, warnings = split_clips(items, settings["calib_fraction"],
                                         settings["seed"])
    if not items:
        raise CliError("all dataset files were skipped")
    for msg in warnings:
        print(f"warning: {msg}", file=sys.stderr)
    return calib, evalu, skips


def truncate_to_common_length(clips: list) -> list:
    """Trim all clips to the shortest so every clip yields the same frames.

    Trimming any clip prints one warning to stderr, naming how many clips
    were trimmed and to how many samples."""
    n = min(len(c.buffer) for c in clips)
    trimmed = sum(len(c.buffer) > n for c in clips)
    if trimmed:
        print(f"warning: trimmed {trimmed} of {len(clips)} clips to {n} samples, "
              f"the length of the shortest", file=sys.stderr)
    return [c._replace(buffer=AudioBuffer(c.buffer.samples[:n],
                                          c.buffer.sample_rate_hz))
            if len(c.buffer) > n else c
            for c in clips]


def _descriptor_plan(settings, calib, evalu):
    """Calibrated descriptor plan and the evaluation clips it expects.

    The descriptor reductions have a fixed time fan-in, so every clip is
    first trimmed to the common length.
    """
    cfg = settings["stft_config"]
    all_clips = truncate_to_common_length(calib + evalu)
    calib, evalu = all_clips[: len(calib)], all_clips[len(calib):]
    n_frames = cfg.frame_count(len(calib[0].buffer))
    plan = build_descriptor_plan(settings["approx_spec"], cfg,
                                 settings["sample_rate"], n_frames,
                                 mel=settings["mel_spec"],
                                 gamma=settings["gamma_spec"])
    return plan.calibrate([c.buffer for c in calib]), evalu


def _descriptor_arms(settings, calib, evalu):
    """(evaluation clips, clear, fhe): the two arms are (n, 4) arrays, one
    row per clip, of the realized descriptor graph."""
    plan, evalu = _descriptor_plan(settings, calib, evalu)
    graph = plan.realize(settings["bits_config"])
    clear = np.array([graph.run_clear(c.buffer)["descriptor_vector"] for c in evalu])
    fhe = np.array([graph.execute(c.buffer).dequantized for c in evalu])
    return evalu, clear, fhe


def _transform_plan(settings, calib):
    """Transform plan calibrated on the calibration clips."""
    plan = build_transform_plan(settings["transform"], settings["approx_spec"],
                                settings["stft_config"], settings["sample_rate"],
                                mel=settings["mel_spec"], gamma=settings["gamma_spec"],
                                n_mfcc=settings["n_mfcc"])
    return plan.calibrate([c.buffer for c in calib])


def cmd_spectrogram(settings, calib, evalu, out: Path) -> None:
    cfg = settings["stft_config"]
    kind = settings["transform"]
    graph = _transform_plan(settings, calib).realize(settings["bits_config"])
    distances = []
    for clip in evalu:
        clear = np.asarray(graph.run_clear(clip.buffer)[graph.output_node])
        fhe = graph.execute(clip.buffer).dequantized
        write_matrix_csv(out / f"{clip.file_id}_clear.csv", clear)
        write_matrix_csv(out / f"{clip.file_id}_fhe.csv", fhe)
        distances.append((clip.file_id, normalized_euclidean(clear, fhe)))
    write_csv(out / "distances.csv", ["file_id", "distance"],
              ([fid, repr(d)] for fid, d in distances))
    if kind == "stft":
        channels = cfg.bin_freqs(settings["sample_rate"]).tolist()
    elif kind == "gammatone":
        channels = gammatone_center_freqs(settings["gamma_spec"],
                                          settings["sample_rate"]).tolist()
    else:
        channels = None
    axes = {"format_version": 1, "rows": "frame_index",
            "hop": cfg.hop, "window_length": cfg.window_length,
            "sample_rate_hz": settings["sample_rate"],
            "transform": kind, "channel_freqs_hz": channels,
            "mean_distance": float(np.mean([d for _, d in distances]))}
    write_json(out / "axes.json", axes)
    print(f"spectrogram: {len(evalu)} clips, "
          f"mean distance {axes['mean_distance']:.6f}")


def cmd_descriptors(settings, calib, evalu, out: Path) -> None:
    clips, clear, fhe = _descriptor_arms(settings, calib, evalu)
    write_descriptor_csv(out / "descriptors.csv", clips, clear, fhe)
    print(f"descriptors: wrote {2 * len(clips)} rows "
          f"({', '.join(CSV_FIELDS)})")


def cmd_stattest(settings, calib, evalu, out: Path) -> None:
    classes = sorted({c.label for c in evalu})
    if len(classes) < 2:
        raise CliError("stattest needs at least two classes")
    clips, clear, fhe = _descriptor_arms(settings, calib, evalu)
    results = pair_tests([c.label for c in clips], clear, fhe, alpha=settings["alpha"])
    d = discovery_errors(results)  # the "discovery" dict of summary.json
    write_pair_csv(out / "pairs.csv", results)
    write_scatter_csv(out / "pvalue_scatter.csv", results)
    write_summary_json(out / "summary.json", d,
                       extra={"alpha": settings["alpha"], "classes": classes})
    print(f"stattest: n={d['n']} TP={d['TP']} FP={d['FP']} TN={d['TN']} "
          f"FN={d['FN']} error_rate={d['error_rate']:.4f}")


def cmd_gridsearch(settings, calib, evalu, out: Path) -> None:
    plan, evalu = _descriptor_plan(settings, calib, evalu)
    results = grid_search(settings["grid_configs"], plan, [c.buffer for c in evalu])
    write_grid_json(out / "gridsearch.json", results)
    feasible = [r for r in results if r.feasible]
    if feasible:
        best = feasible[0]
        print(f"gridsearch: {len(feasible)}/{len(results)} feasible, best "
              f"bits={best.config.as_tuple()} mean_r={best.mean_r:.4f}")
    else:
        print(f"gridsearch: no feasible configuration out of {len(results)}")


def cmd_validate_bounds(settings, calib, evalu, out: Path) -> None:
    cfg = settings["stft_config"]
    window = hann_window(cfg.window_length)
    clips = (calib + evalu)[:20]
    poorman_ok = {}
    for roots in (2, 4, 6, 8, 16):
        reports = [poorman_bound_report(c.buffer, cfg, window, roots)
                   for c in clips]
        poorman_ok[str(roots)] = {
            "all_satisfied": bool(all(r.all_satisfied for r in reports)),
            "max_ratio": float(max(np.max(r.empirical / np.maximum(r.bound, 1e-300))
                                   for r in reports)),
        }
    aliasing = {}
    for rate in (2, 4, 8):
        if cfg.window_length % rate:
            continue
        residual = max(dilation_aliasing_residual(c.buffer, cfg, window, rate)
                       for c in clips)
        aliasing[str(rate)] = {"max_residual": residual,
                               "satisfied": bool(residual < 1e-9)}
    doc = {"format_version": 1, "clips": len(clips),
           "poorman_bound": poorman_ok, "dilation_aliasing": aliasing}
    write_json(out / "bounds.json", doc)
    ok = (all(v["all_satisfied"] for v in poorman_ok.values())
          and all(v["satisfied"] for v in aliasing.values()))
    print(f"validate-bounds: {'all checks satisfied' if ok else 'VIOLATIONS found'}")
    if not ok:
        raise CliError("bound or identity violations; see bounds.json")


def cmd_budget(settings, calib, evalu, out: Path) -> None:
    plan = _transform_plan(settings, calib)
    try:
        report = plan.realize(settings["bits_config"]).check_budget()
    except BudgetViolation as exc:
        report = exc.report
    doc = {"format_version": 1, "transform": settings["transform"],
           "bits": settings["bits_config"].as_dict()}
    doc.update(report.as_dict())
    write_json(out / "budget.json", doc)
    print(json.dumps(doc, indent=2, sort_keys=True))


COMMANDS = {
    "spectrogram": cmd_spectrogram,
    "descriptors": cmd_descriptors,
    "stattest": cmd_stattest,
    "gridsearch": cmd_gridsearch,
    "validate-bounds": cmd_validate_bounds,
    "budget": cmd_budget,
}


def main(argv=None) -> int:
    fix_allocator_thresholds()
    args = build_parser().parse_args(argv)
    try:
        settings = resolve_settings(args)
        calib, evalu, skips = gather_clips(settings)
        if args.command in EVALUATING and not evalu:
            raise CliError("no evaluation clips: every class has a single file, "
                           "which goes to calibration")
        out = settings["out"]
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](settings, calib, evalu, out)
        for msg in skips:
            print(f"skipped: {msg}", file=sys.stderr)
        return EXIT_SKIPS if skips else EXIT_OK
    except (CliError, DatasetError, SignalError, QuantError, CircuitError,
            ApproxError, EvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
