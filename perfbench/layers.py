"""Per-layer metrics from the spans a traced run wrote.

A span's self time is its duration minus the durations of its direct
children; spans are properly nested because the program is single-threaded.
A span nested inside another of the same name (one kernel helper calling
another) is not counted again in that name's total.  No layer waits on a
queue or a lock, so there is no waiting time to record.
"""

from __future__ import annotations

NODE_KINDS = ("conv", "matmul", "lut", "reduce", "std", "concat")
S = 1e-9  # ns -> s


def _quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def aggregate(spans: list) -> dict:
    """Metric name -> value, for every per-layer metric except the two that
    need more than one run (`io.bytes`, `trace.overhead_s`)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_sum = [0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_sum[s[3]] += dur[i]

    def has_same_name_ancestor(i: int) -> bool:
        name, p = spans[i][0], spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False

    total: dict = {}
    calls: dict = {}
    self_time: dict = {}
    for i, (name, _start, _end, _parent, _extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0) + dur[i] - child_sum[i]
        if not has_same_name_ancestor(i):
            total[name] = total.get(name, 0) + dur[i]

    def rows(name: str) -> list:
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    m: dict = {}
    for kind in NODE_KINDS:
        m[f"node.{kind}.calls"] = calls.get(f"node.{kind}", 0)
        if kind not in ("std", "concat"):
            m[f"node.{kind}.s"] = total.get(f"node.{kind}", 0) * S
    per_node: dict = {}
    for name in ("node.conv", "node.matmul"):
        for i, s in rows(name):
            per_node[s[4]["node"]] = per_node.get(s[4]["node"], 0) + dur[i]
    m["node.stft_conv.s"] = per_node.get("stft_conv", 0) * S
    m["node.mel_matmul.s"] = per_node.get("mel_matmul", 0) * S
    for kind in ("conv", "matmul"):
        extras = [s[4] for _, s in rows(f"node.{kind}")]
        for key in ("macs", "nonzero_macs", "bytes"):
            m[f"node.{kind}.{key}"] = sum(e[key] for e in extras)
        seconds = m[f"node.{kind}.s"]
        m[f"node.{kind}.gmacs_per_s"] = (m[f"node.{kind}.macs"] / seconds / 1e9
                                         if seconds else 0.0)

    realize = rows("circuit.realize")
    realize_ms = [dur[i] * 1e-6 for i, _ in realize]
    raised = [s for _, s in realize if s[4] and "raised" in s[4]]
    m["circuit.realize.s"] = total.get("circuit.realize", 0) * S
    m["circuit.realize.calls"] = len(realize)
    m["circuit.realize.p50_ms"] = _quantile(realize_ms, 0.5)
    m["circuit.realize.budget_violations"] = sum(
        s[4]["raised"] == "BudgetViolation" for s in raised)
    m["circuit.realize.ok_ratio"] = (len(realize) - len(raised)) / len(realize) \
        if realize else 0.0
    m["circuit.tables.s"] = total.get("circuit.tables", 0) * S
    m["circuit.tables.entries"] = sum(s[4]["entries"] for _, s in rows("circuit.tables"))
    m["quant.weights.s"] = total.get("quant.weights", 0) * S

    execute_ms = [dur[i] * 1e-6 for i, _ in rows("circuit.execute")]
    m["circuit.execute.s"] = total.get("circuit.execute", 0) * S
    m["circuit.execute.calls"] = len(execute_ms)
    m["circuit.execute.p50_ms"] = _quantile(execute_ms, 0.5)
    m["circuit.execute.p90_ms"] = _quantile(execute_ms, 0.9)
    m["circuit.execute.self.s"] = self_time.get("circuit.execute", 0) * S
    m["quant.to_v.s"] = total.get("quant.to_v", 0) * S
    m["quant.to_v.calls"] = calls.get("quant.to_v", 0)
    m["circuit.run_clear.s"] = total.get("circuit.run_clear", 0) * S
    m["circuit.run_clear.calls"] = calls.get("circuit.run_clear", 0)

    for name in ("circuit.calibrate", "circuit.plan_build", "transforms.kernels",
                 "approx.kernels", "dataset.synthetic_clips", "dataset.split_clips"):
        m[f"{name}.s"] = total.get(name, 0) * S
    m["dataset.clips"] = sum(s[4]["clips"] for _, s in rows("dataset.synthetic_clips"))

    grid = [i for i, _ in rows("evaluate.grid_search")]

    def inside_grid(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if p in grid:
                return True
            p = spans[p][3]
        return False

    grid_realize = [s for i, s in realize if inside_grid(i)]
    m["evaluate.grid.pruned"] = sum(not s[4]["kept"] for _, s in rows("evaluate.prune"))
    m["evaluate.grid.infeasible"] = sum(bool(s[4]) for s in grid_realize)
    m["evaluate.grid.scored"] = sum(not s[4] for s in grid_realize)
    m["evaluate.stats.s"] = sum(total.get(f"evaluate.{k}", 0)
                                for k in ("pearson", "mann_whitney", "distance")) * S
    m["evaluate.self.s"] = sum(v for k, v in self_time.items()
                               if k.startswith("evaluate.")) * S
    for key in ("pearson", "mann_whitney", "distance"):
        m[f"evaluate.{key}.calls"] = calls.get(f"evaluate.{key}", 0)

    m["io.write.s"] = total.get("io.write", 0) * S
    m["cli.main.s"] = total.get("cli.main", 0) * S
    m["cli.self.s"] = self_time.get("cli.main", 0) * S
    return m


def computed_counts(metrics: dict) -> dict:
    """The metrics that must repeat exactly between traced runs."""
    return {k: v for k, v in metrics.items()
            if not k.endswith((".s", "_ms", "gmacs_per_s"))}
