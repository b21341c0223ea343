"""Command-line front end.

Subcommands: spectrogram (clear + simulated-encrypted spectrograms and their
distances), descriptors (per-clip descriptor CSV for both paths), stattest
(class-pair Mann-Whitney replication report), gridsearch (bit-width ranking),
validate-bounds (approximation bound/identity checks on audio), budget
(worst-case accumulator report without executing).

Outputs carry no timestamps, so repeated runs with identical inputs and seed
produce byte-identical files.  Exit codes: 0 success, 3 completed with
skipped files, 1 failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import replace
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
    DESCRIPTOR_NAMES,
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
from .descriptors import CSV_FIELDS, DescriptorVector, write_descriptor_csv
from .evaluate import (
    EvalError,
    default_grid,
    discovery_errors,
    grid_search,
    normalized_euclidean,
    pair_tests,
    write_grid_json,
    write_pair_csv,
    write_scatter_csv,
    write_summary_json,
)
from .quant import BitWidthConfig, QuantError
from .transforms import (
    AudioBuffer,
    GammatoneSpec,
    MelSpec,
    SignalError,
    StftConfig,
    gammatone_center_freqs,
    hann_window,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SKIPS = 3

DEFAULTS = {
    "transform": "stft",
    "approx": "conventional",
    "bits": "5,8,4,5",
    "calib_fraction": 0.10,
    "seed": 0,
    "out": "out",
    "sample_rate": 16000,
    "window": 1024,
    "hop": 256,
    "n_mels": 64,
    "n_mfcc": 13,
    "n_gammatone": 64,
    "clips": 30,
    "duration": 1.0,
    "alpha": 0.05,
}


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


def parse_bits(text: str) -> BitWidthConfig:
    parts = text.split(",")
    if len(parts) != 4:
        raise CliError(f"--bits wants 4 comma-separated widths, got {text!r}")
    try:
        return BitWidthConfig(*(int(p) for p in parts))
    except (ValueError, QuantError) as exc:
        raise CliError(f"bad --bits {text!r}: {exc}") from exc


def parse_grid(text: str) -> list:
    """Semicolon-separated bit configs, or 'full' for the whole {2..8}^4 grid."""
    if text == "full":
        return default_grid()
    return [parse_bits(chunk) for chunk in text.split(";") if chunk]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="INI config file ([run] section)")
    common.add_argument("--transform", choices=TRANSFORMS)
    common.add_argument("--approx", help="conventional | dilation:d | dilation:max | "
                                         "fdwindow:Nmin | poorman:L | l1 | crop:fmin:fmax")
    common.add_argument("--bits", help="Bi,Bo,Bw,Bm")
    common.add_argument("--calib-fraction", type=float, dest="calib_fraction")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", type=Path, help="output directory")
    common.add_argument("--dataset", type=Path, help="directory-per-class WAV root")
    common.add_argument("--synthetic", help="|".join(SYNTHETIC_KINDS) + " (comma-combinable)")
    common.add_argument("--clips", type=int, help="synthetic clips per kind")
    common.add_argument("--duration", type=float, help="synthetic clip seconds")
    common.add_argument("--sample-rate", type=int, dest="sample_rate")
    common.add_argument("--window", type=int, help="STFT window length N")
    common.add_argument("--hop", type=int, help="STFT hop length")
    common.add_argument("--n-mels", type=int, dest="n_mels")
    common.add_argument("--n-mfcc", type=int, dest="n_mfcc")
    common.add_argument("--n-gammatone", type=int, dest="n_gammatone")
    common.add_argument("--alpha", type=float, help="significance level")

    parser = argparse.ArgumentParser(
        prog="fhespec",
        description="Quantized approximate time-frequency transforms under "
                    "simulated encrypted-inference constraints.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrogram", parents=[common])
    sub.add_parser("descriptors", parents=[common])
    sub.add_parser("stattest", parents=[common])
    p_grid = sub.add_parser("gridsearch", parents=[common])
    p_grid.add_argument("--grid", default="full",
                        help="semicolon-separated Bi,Bo,Bw,Bm configs, or 'full'")
    sub.add_parser("validate-bounds", parents=[common])
    sub.add_parser("budget", parents=[common])
    return parser


def resolve_settings(args) -> dict:
    """Merge built-in defaults, the optional config file, and flags (flags win)."""
    settings = dict(DEFAULTS)
    if args.config is not None:
        cp = configparser.ConfigParser()
        if not cp.read(args.config):
            raise CliError(f"cannot read config file {args.config}")
        for key, value in cp.items("run") if cp.has_section("run") else []:
            key = key.replace("-", "_")
            if key not in DEFAULTS and key not in ("dataset", "synthetic", "grid"):
                raise CliError(f"unknown config key {key!r}")
            settings[key] = value
    for key in list(DEFAULTS) + ["dataset", "synthetic", "grid"]:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    for convert, keys in ((int, ("seed", "sample_rate", "window", "hop", "n_mels",
                                 "n_mfcc", "n_gammatone", "clips")),
                          (float, ("calib_fraction", "duration", "alpha"))):
        for key in keys:
            try:
                settings[key] = convert(settings[key])
            except ValueError:
                raise CliError(f"bad {key} value {settings[key]!r}: "
                               f"want {convert.__name__}") from None
    settings["out"] = Path(settings["out"])
    settings["approx_spec"] = parse_approx(str(settings["approx"]))
    settings["bits_config"] = parse_bits(str(settings["bits"]))
    settings["stft_config"] = StftConfig(window_length=settings["window"],
                                         hop=settings["hop"])
    settings["mel_spec"] = MelSpec(n_mels=settings["n_mels"])
    settings["gamma_spec"] = GammatoneSpec(n_filters=settings["n_gammatone"])
    return settings


def gather_clips(settings) -> tuple[list, list, list]:
    """Return (calibration clips, evaluation clips, skip messages).

    Single-file-class warnings from the split are printed to stderr.
    """
    if settings.get("synthetic"):
        items = synthetic_clips(str(settings["synthetic"]), settings["clips"],
                                settings["seed"], settings["sample_rate"],
                                settings["duration"])
        skips = []
    elif settings.get("dataset"):
        manifest = ingest(settings["dataset"], settings["sample_rate"])
        skips = [f"{s.path}: {s.reason}" for s in manifest.skipped]
        if not manifest.entries:
            raise CliError("all dataset files were skipped")
        items = manifest.entries
    else:
        raise CliError("need either --dataset or --synthetic")
    calib, evalu, warnings = split_clips(items, settings["calib_fraction"],
                                         settings["seed"])
    for msg in warnings:
        print(f"warning: {msg}", file=sys.stderr)
    return calib, evalu, skips


def truncate_to_common_length(clips: list) -> list:
    """Trim all clips to the shortest so every clip yields the same frames."""
    n = min(len(c.buffer) for c in clips)
    return [replace(c, buffer=AudioBuffer(c.buffer.samples[:n],
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


def _descriptor_vectors(settings, calib, evalu):
    plan, evalu = _descriptor_plan(settings, calib, evalu)
    graph = plan.realize(settings["bits_config"])
    vectors = []
    for clip in evalu:
        clear = graph.run_clear(clip.buffer)["descriptor_vector"]
        fhe = graph.execute(clip.buffer).dequantized
        for path, vec in (("clear", clear), ("fhe", fhe)):
            vectors.append(DescriptorVector(
                file_id=clip.file_id, label=clip.label,
                values=dict(zip(DESCRIPTOR_NAMES, (float(x) for x in vec))),
                path=path))
    return vectors


def _transform_plan(settings):
    return build_transform_plan(settings["transform"], settings["approx_spec"],
                                settings["stft_config"], settings["sample_rate"],
                                mel=settings["mel_spec"], gamma=settings["gamma_spec"],
                                n_mfcc=settings["n_mfcc"])


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_spectrogram(settings, calib, evalu, out: Path) -> None:
    cfg = settings["stft_config"]
    kind = settings["transform"]
    plan = _transform_plan(settings)
    plan.calibrate([c.buffer for c in calib])
    graph = plan.realize(settings["bits_config"])
    distances = []
    for clip in evalu:
        clear = np.asarray(graph.run_clear(clip.buffer)[graph.output_node])
        fhe = graph.execute(clip.buffer).dequantized
        np.savetxt(out / f"{clip.file_id}_clear.csv", clear,
                   fmt="%.9e", delimiter=",")
        np.savetxt(out / f"{clip.file_id}_fhe.csv", fhe,
                   fmt="%.9e", delimiter=",")
        distances.append((clip.file_id, normalized_euclidean(clear, fhe)))
    with open(out / "distances.csv", "w", newline="") as fh:
        fh.write("file_id,distance\n")
        for fid, d in distances:
            fh.write(f"{fid},{d!r}\n")
    if kind == "stft":
        channels = cfg.bin_upper_freqs(settings["sample_rate"]).tolist()
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
    _write_json(out / "axes.json", axes)
    print(f"spectrogram: {len(evalu)} clips, "
          f"mean distance {axes['mean_distance']:.6f}")


def cmd_descriptors(settings, calib, evalu, out: Path) -> None:
    vectors = _descriptor_vectors(settings, calib, evalu)
    write_descriptor_csv(out / "descriptors.csv", vectors)
    print(f"descriptors: wrote {len(vectors)} rows "
          f"({', '.join(CSV_FIELDS)})")


def cmd_stattest(settings, calib, evalu, out: Path) -> None:
    vectors = _descriptor_vectors(settings, calib, evalu)
    clear_by, fhe_by = {}, {}
    for v in vectors:
        target = clear_by if v.path == "clear" else fhe_by
        target.setdefault(v.label, []).append(v.values)
    if len(clear_by) < 2:
        raise CliError("stattest needs at least two classes")
    results = pair_tests(clear_by, fhe_by, alpha=settings["alpha"])
    report = discovery_errors(results)
    write_pair_csv(out / "pairs.csv", results)
    write_scatter_csv(out / "pvalue_scatter.csv", results)
    write_summary_json(out / "summary.json", report,
                       extra={"alpha": settings["alpha"],
                              "classes": sorted(clear_by)})
    d = report.as_dict()
    print(f"stattest: n={d['n']} TP={d['TP']} FP={d['FP']} TN={d['TN']} "
          f"FN={d['FN']} error_rate={d['error_rate']:.4f}")


def cmd_gridsearch(settings, calib, evalu, out: Path) -> None:
    space = parse_grid(str(settings.get("grid", "full")))
    plan, evalu = _descriptor_plan(settings, calib, evalu)
    results = grid_search(space, plan, [c.buffer for c in evalu])
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
    _write_json(out / "bounds.json", doc)
    ok = (all(v["all_satisfied"] for v in poorman_ok.values())
          and all(v["satisfied"] for v in aliasing.values()))
    print(f"validate-bounds: {'all checks satisfied' if ok else 'VIOLATIONS found'}")
    if not ok:
        raise CliError("bound or identity violations; see bounds.json")


def cmd_budget(settings, calib, evalu, out: Path) -> None:
    plan = _transform_plan(settings)
    plan.calibrate([c.buffer for c in calib + evalu])
    graph = plan.realize(settings["bits_config"], enforce_budget=False)
    report = graph.check_budget()
    doc = {"format_version": 1, "transform": settings["transform"],
           "bits": settings["bits_config"].as_dict()}
    doc.update(report.as_dict())
    _write_json(out / "budget.json", doc)
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
    args = build_parser().parse_args(argv)
    try:
        settings = resolve_settings(args)
        calib, evalu, skips = gather_clips(settings)
        out = settings["out"]
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](settings, calib, evalu, out)
        for msg in skips:
            print(f"skipped: {msg}", file=sys.stderr)
        return EXIT_SKIPS if skips else EXIT_OK
    except (CliError, DatasetError, SignalError, QuantError, CircuitError,
            ApproxError, EvalError, BudgetViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
