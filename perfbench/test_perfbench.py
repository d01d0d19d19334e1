"""The benchmark's own tests: ``python -m pytest -q perfbench``."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

import checks
import layers
import run
from tracing import Tracer, patch_points
from workloads import OP_KINDS, WORKLOADS, Op, OpSource

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

cli = run.import_roughvol()
SPEC = json.loads(run.SPEC_FILE.read_text(encoding="utf-8"))

# Small ops that cross every layer boundary the workloads cross.
SMALL = [
    Op("scheme-law", ("scheme-law", "--alpha", "0.75", "--n", "16"), {}),
    Op("exact-law", ("exact-law", "--alpha", "0.75", "--n", "8"), {}),
    Op("weak-rate", ("weak-rate", "--alpha", "0.75", "--quantity", "var_X", "--n", "8,16,32,64"), {}),
    Op("strong-rate", ("strong-rate", "--alpha", "0.75", "--n", "8,16"), {}),
    Op("moment-scheme", ("moment", "--alpha", "0.75", "--order", "3", "--which", "scheme",
                         "--n", "8", "--b", "poly:0.1,0,0.3"), {}),
    Op("sample", ("sample", "--alpha", "0.75", "--n", "16", "--paths", "256", "--seed", "3"), {}),
    Op("mc", ("mc", "--alpha", "0.75", "--n", "4,16", "--paths", "256", "--seed", "4"), {}),
]


def test_metric_names_are_well_formed():
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(declared)) == len(declared)
    printed = [f"cmd.{k}.s_p50" for kinds in OP_KINDS.values() for k in kinds]
    for name in declared + printed + ["failed_ratio", "paths_per_s"]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_same_seed_same_argv_and_seeds_share_the_work():
    def ops(workload, seed, cycles):
        src = OpSource(workload, seed)
        return [op for _ in range(cycles) for op in src.next_cycle()]

    def shape(op):  # the argv with the drawn values blanked out
        drawn = {"--x0", "--kappa1", "--sigma", "--rho", "--seed"}
        return tuple("*" if i and op.argv[i - 1] in drawn else a for i, a in enumerate(op.argv))

    for workload in WORKLOADS:
        a, b, c = ops(workload, 7, 4), ops(workload, 7, 4), ops(workload, 8, 4)
        assert [op.argv for op in a] == [op.argv for op in b]
        assert [op.argv for op in a] != [op.argv for op in c]
        assert [shape(op) for op in a] == [shape(op) for op in c]
        assert ops(workload, 7, 2) == a[: len(ops(workload, 7, 2))]


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    points = patch_points()
    originals = {k: getattr(importlib.import_module(k[0]), k[1]) for k in points}
    with Tracer() as tracer:
        assert all(getattr(importlib.import_module(m), a) is not originals[(m, a)]
                   for m, a in points)
        run.run_op(cli, SMALL[0], 0, tmp_path / "op")
    assert len(tracer.start) > 0
    for (modname, attr), original in originals.items():
        assert getattr(importlib.import_module(modname), attr) is original, (modname, attr)


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path):
    records = [run.run_op(cli, op, i, tmp_path / f"op{i}") for i, op in enumerate(SMALL)]
    assert not any(r.failed for r in records), [r.failures for r in records]
    points = patch_points()
    before = {k: getattr(importlib.import_module(k[0]), k[1]) for k in points}
    tracer = Tracer()
    plain, traced, misses = run.traced_replay(cli, records, tracer)
    assert all(getattr(importlib.import_module(m), a) is before[(m, a)] for m, a in points)
    assert not any(r.failed for r in plain + traced), [r.failures for r in plain + traced]
    assert [r.files for r in traced] == [r.files for r in records]
    assert misses == 2  # sample and mc, one driver law each
    spanned = set(tracer.names)
    assert {"cli.run", "scheme.build_scheme_law", "kernels.cross_kernel_table",
            "scheme.sample_scheme_paths", "analysis.mc_weak_error"} <= spanned
    by_op = {tracer.op[i] for i in range(len(tracer.op))}
    assert by_op == set(range(len(SMALL)))
    folded = layers.per_layer(SPEC["per_layer"], tracer, records, plain, traced, [records], misses)
    assert list(folded["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]


def test_self_time_excludes_child_spans(tmp_path):
    with Tracer() as tracer:
        run.run_op(cli, SMALL[0], 0, tmp_path / "op")
    table = tracer.by_name()
    calls, busy, own = table["cli.run"]
    assert calls == 1 and 0.0 < own < busy
    assert sum(row[2] for row in table.values()) == pytest.approx(busy, rel=1e-9)


def test_wrong_pinned_value_raises_failed_ratio():
    values = checks.compute_pinned()
    assert checks.pinned_failures(values) == []
    wrong = dict(checks.PINNED, cubic_scheme_n256=(0.5404579124986337 * (1 + 1e-9), 1e-12))
    fails = checks.pinned_failures(values, wrong)
    assert len(fails) == 1
    good, bad = run.tally([], []), run.tally([], fails)
    assert good["failed"] / good["attempted"] == 0.0
    assert bad["failed"] / bad["attempted"] > 0.0


def test_pinned_cubic_exact_is_read_from_the_base_cubic_rate_op(tmp_path):
    op = next(op for op in OpSource("exact-refs", 1).next_cycle() if op.pinned)
    assert op.params == checks.BASE
    scheme = checks.compute_pinned()["cubic_scheme_n256"]
    csv = b"n,error,v_n,ratio\n128,0.01,0.1,0.1\n256,%r,0.1,0.1\n"
    gap = 5.457041241199e-01 - scheme
    right = checks.cubic_exact_from_rate({"cubic-rate.csv": csv % gap}, scheme)
    wrong = checks.cubic_exact_from_rate({"cubic-rate.csv": csv % (gap * 1.001)}, scheme)
    assert checks.pinned_failures({"cubic_exact": right}) == []
    assert len(checks.pinned_failures({"cubic_exact": wrong})) == 1


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    with pytest.raises(SystemExit) as info:
        run.import_roughvol()
    assert info.value.code not in (0, None)
