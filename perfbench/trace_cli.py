"""Run one `fhespec` CLI command with spans around each layer's public calls.

Usage: python3 perfbench/trace_cli.py SPANS_JSON CLI_ARG...

The wrappers are installed from here, around module functions, the circuit
classes' public methods and every node class's `run_int`/`clear`; the
program itself is not edited.  Spans are kept in memory and written to
SPANS_JSON when the command ends, as rows of
[name, start_ns, end_ns, parent_index, extra].  `extra` is the node name for
node spans (plus computed MACs and bytes for conv/matmul), the table size
for `circuit.tables`, the clip count for `dataset.synthetic_clips`, the
verdict for `evaluate.prune` and the exception name when a call raised.
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from pathlib import Path
from time import perf_counter_ns as clock

from workloads import import_checkout_fhespec

SPANS: list = []
STACK: list = []


def wrap(name: str, fn, extra=None):
    """`fn` with a span per call; `extra(args, result)` adds detail."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        row = [name, 0, 0, STACK[-1] if STACK else -1, None]
        STACK.append(len(SPANS))
        SPANS.append(row)
        row[1] = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            row[2] = clock()
            row[4] = {"raised": type(exc).__name__}
            raise
        finally:
            STACK.pop()
        row[2] = clock()
        if extra is not None:
            row[4] = extra(args, result)
        return result
    return traced


def patch_function(modules: list, module, attr: str, name: str, extra=None):
    """Replace a function everywhere a module of the package binds it."""
    fn = getattr(module, attr, None)
    if fn is None:
        return
    traced = wrap(name, fn, extra)
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is fn:
                setattr(m, key, traced)


def patch_method(cls, attr: str, name: str, extra=None):
    fn = cls.__dict__.get(attr)
    if fn is not None:
        setattr(cls, attr, wrap(name, fn, extra))


_NONZERO: dict = {}  # id(weights) -> (weakref, nonzero count)


def _nonzero(w) -> int:
    import numpy as np
    hit = _NONZERO.get(id(w))
    if hit is None or hit[0]() is not w:
        hit = (weakref.ref(w), int(np.count_nonzero(w)))
        _NONZERO[id(w)] = hit
    return hit[1]


def _kernel_counts(args, out):
    """MACs, nonzero MACs and bytes of `out = rows(v) @ W.T`, from shapes."""
    node, v = args[0], args[1]
    w = node.weights_q
    rows = out.shape[0]
    c_out, c_in = w.shape
    moved = (rows * c_in * v.itemsize + w.size * w.itemsize
             + out.size * out.itemsize)
    return {"node": node.name, "macs": rows * c_out * c_in,
            "nonzero_macs": rows * _nonzero(w), "bytes": moved}


def install() -> None:
    import numpy as np
    fhespec = import_checkout_fhespec()
    from fhespec import (approx, circuit, cli, dataset, descriptors, evaluate,
                         quant, transforms)
    modules = [fhespec, approx, circuit, cli, dataset, descriptors, evaluate,
               quant, transforms]

    def fn(module, attr, name, extra=None):
        patch_function(modules, module, attr, name, extra)

    fn(dataset, "synthetic_clips", "dataset.synthetic_clips",
       lambda a, out: {"clips": len(out)})
    fn(dataset, "split_clips", "dataset.split_clips")
    for attr in ("hann_window", "stft_kernels", "gammatone_kernels",
                 "mel_filterbank_matrix", "dct_matrix"):
        fn(transforms, attr, "transforms.kernels")
    fn(approx, "approx_kernels", "approx.kernels")
    fn(circuit, "build_descriptor_plan", "circuit.plan_build")
    fn(circuit, "build_transform_plan", "circuit.plan_build")
    fn(circuit, "quantize_weights", "quant.weights")
    patch_method(circuit.PipelinePlan, "calibrate", "circuit.calibrate")
    patch_method(circuit.PipelinePlan, "realize", "circuit.realize")
    patch_method(circuit.CircuitGraph, "execute", "circuit.execute")
    patch_method(circuit.CircuitGraph, "run_clear", "circuit.run_clear")
    patch_method(circuit.EdgeSpec, "to_v", "quant.to_v")
    patch_method(circuit.LutNode, "build_table", "circuit.tables",
                 lambda a, out: {"entries": int(a[0].table.size)})
    for cls, kind in ((circuit.ConvNode, "conv"), (circuit.MatmulNode, "matmul"),
                      (circuit.LutNode, "lut"), (circuit.ReduceNode, "reduce"),
                      (circuit.StdNode, "std"), (circuit.ConcatNode, "concat")):
        counts = _kernel_counts if kind in ("conv", "matmul") else \
            (lambda a, out: {"node": a[0].name})
        patch_method(cls, "run_int", f"node.{kind}", counts)
        patch_method(cls, "clear", f"clear.{kind}")
    fn(evaluate, "grid_search", "evaluate.grid_search")
    fn(evaluate, "conv_feasible", "evaluate.prune", lambda a, out: {"kept": bool(out)})
    fn(evaluate, "pearson", "evaluate.pearson")
    fn(evaluate, "mann_whitney_u", "evaluate.mann_whitney")
    fn(evaluate, "normalized_euclidean", "evaluate.distance")
    fn(evaluate, "pair_tests", "evaluate.pair_tests")
    fn(evaluate, "discovery_errors", "evaluate.discovery_errors")
    for attr in ("write_grid_json", "write_pair_csv", "write_scatter_csv",
                 "write_summary_json"):
        fn(evaluate, attr, "io.write")
    fn(descriptors, "write_descriptor_csv", "io.write")
    np.savetxt = wrap("io.write", np.savetxt)


def main(argv: list) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    install()
    from fhespec import cli
    code = wrap("cli.main", cli.main)(cli_argv)
    spans_path.write_text(json.dumps(SPANS, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
