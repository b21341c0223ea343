"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads grid,stattest,spectrogram \
        --seeds 1-10 [--trace 0] [--out perfbench/baseline/FILE.json]

For every workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
next to the metric's bound and a third of it.  With --out, every run's
environment line and result line are saved with that summary, which is how
baselines are recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"env": json.loads(lines[-2])["perfbench"], "result": json.loads(lines[-1])}


def summarize(runs: list, specs: list) -> dict:
    summary = {}
    for spec in specs:
        values = [r["result"]["metrics"][spec["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[spec["name"]] = {"median": median, "q1": q1, "q3": q3,
                                 "spread": (q3 - q1) / median if median else None,
                                 "bound": spec.get("bound")}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="grid,stattest,spectrogram")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    doc = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            runs.append(run_once(workload, seed, bench["run_seconds"], args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", flush=True)
        summary = summarize(runs, specs) if len(runs) >= 2 else {}
        for name, s in summary.items():
            bound = s["bound"]
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            limit = "" if bound is None else f"  bound {bound}  third {bound / 3:.4f}"
            print(f"  {name:28s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {spread}{limit}", flush=True)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
