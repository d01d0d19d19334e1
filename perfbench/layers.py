"""The fold from spans to the per-layer metrics that BENCHMARK.json declares.

The metric list lives only in BENCHMARK.json; ``value`` reads a metric's
name to know how to fold it.  Self and busy times are reported as shares (%)
of the traced ops' wall time, ``trace.ops_s`` gives that wall time in
seconds: a function a workload never calls then reads 0 %, not a time of 0 s.
"""

from __future__ import annotations

import statistics

from tracing import GROUPS, WORK

LAYERS = ("specfun", "kernels", "exact_law", "scheme", "moments", "analysis", "cli")

# "<function>.<counter>" names that tracing.WORK counts at the boundary.
WORK_COUNTS = {f"{GROUPS.get(name, name)}.{counter}" for name, (counter, _) in WORK.items()}


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _layer_times(tracer) -> tuple:
    """Per module: busy seconds (outermost spans of it) and self seconds."""
    selfs = tracer.self_times()
    mods = [_module(n) for n in tracer.names]
    busy = dict.fromkeys(LAYERS, 0.0)
    own = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(selfs):
        mod = mods[tracer.name_id[i]]
        own[mod] = own.get(mod, 0.0) + s
        p = tracer.parent[i]
        while p >= 0 and mods[tracer.name_id[p]] != mod:
            p = tracer.parent[p]
        if p < 0:
            busy[mod] = busy.get(mod, 0.0) + tracer.end[i] - tracer.start[i]
    return busy, own


def per_layer(declared, tracer, records, plain, traced, studies, driver_misses) -> dict:
    """The ``declared`` per-layer metrics of a traced replay, and its attribution.

    ``declared`` is BENCHMARK.json's ``per_layer`` list.  ``plain`` and
    ``traced`` are the untraced and traced replays of ``records``, in order;
    ``studies`` groups ``records`` into studies.
    """
    ops_s = sum(r.seconds for r in traced)
    grouped = {}
    for name, (calls, _busy, own) in tracer.by_name().items():
        row = grouped.setdefault(GROUPS.get(name, name), [0, 0.0])
        row[0] += calls
        row[1] += own
    busy, own = _layer_times(tracer)
    position = {r.index: i for i, r in enumerate(records)}

    def study_median(replayed):
        return statistics.median(sum(replayed[position[r.index]].seconds for r in s) for s in studies)

    def value(name: str):
        fn, suffix = name.rsplit(".", 1)
        if fn.startswith("layer."):
            return 100.0 * {"busy_pct": busy, "self_pct": own}[suffix][fn[len("layer."):]] / ops_s
        if name == "cli.artifact_bytes":
            return sum(len(b) for r in traced for b in r.files.values())
        if name == "trace.ops_s":
            return ops_s
        if name == "trace.overhead":
            return study_median(traced) / study_median(plain) - 1.0
        if name == "scheme.driver_factor.misses":
            return driver_misses
        if suffix == "calls":
            return tracer.counts.get(name, grouped.get(fn, (0, 0.0))[0])
        if suffix == "self_pct":
            return 100.0 * grouped.get(fn, (0, 0.0))[1] / ops_s
        if name in WORK_COUNTS:
            return tracer.counts.get(name, 0)
        raise KeyError(f"no fold for per-layer metric {name!r}")

    by_index = {r.index: traced[position[r.index]] for r in records}
    return {
        "per_layer": {m["name"]: (value(m["name"]), m["unit"], 1) for m in declared},
        "attribution": attribution(tracer, records, by_index),
    }


def attribution(tracer, records, by_index, top: int = 4) -> list:
    """Per op kind: the spans with the most self time, as % of that kind's time."""
    lines = []
    for kind in dict.fromkeys(r.op.kind for r in records):
        ids = {r.index for r in records if r.op.kind == kind}
        total = sum(by_index[i].seconds for i in ids)
        table = tracer.by_name(ops=ids)
        best = sorted(table.items(), key=lambda kv: -kv[1][2])[:top]
        parts = ", ".join(f"{name} {100.0 * row[2] / total:.1f}%" for name, row in best)
        lines.append(f"attribution cmd.{kind} ({total:.2f} s traced): {parts}")
    return lines
