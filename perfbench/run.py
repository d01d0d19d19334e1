"""roughvol benchmark: one workload, one process, a closed loop of CLI calls.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload law-sweep --seed 1 --seconds 20 --trace 0

Each op is an in-process ``roughvol.cli.run(argv)`` call on the argv the seed
generated (see workloads.py), the next op starting when the previous one
returned.  The run measures whole studies until --seconds of op time have
passed, checks every output (checks.py), prints each metric by name with its
unit and ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the same ops are replayed under boundary wrappers (tracing.py) and
the metrics are the per-layer ones.  Full records go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Single-threaded baseline: pin BLAS before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import OP_KINDS, WORKLOADS, OpSource  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Fresh interpreters timed per study at least, spread between its ops: a
# shared host's speed shifts by tens of percent for seconds at a time, so
# samples taken back to back see one speed and samples spread over the study
# see the mix the study itself sees.
SETUP_SAMPLES = 11
# The metrics the result line reports: BENCHMARK.json is their one list.
SPEC_FILE = ROOT / "BENCHMARK.json"


class OpRecord:
    """What one op did: its timing, exit code and every check failure."""

    def __init__(self, op, index: int, out_dir: Path):
        self.op = op
        self.index = index
        self.out_dir = out_dir
        self.seconds = 0.0
        self.cpu_seconds = 0.0
        self.code = None
        self.files: dict = {}
        self.failures: list = []

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def import_roughvol():
    """Import the checkout's own roughvol (never an installed copy)."""
    if not (SRC / "roughvol" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no roughvol sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import roughvol.cli

    if Path(roughvol.cli.__file__).resolve().parent != (SRC / "roughvol").resolve():
        raise SystemExit(f"perfbench: imported roughvol from {roughvol.cli.__file__}, not {SRC}")
    return roughvol.cli


def measure_setup() -> float:
    """Seconds from a fresh interpreter's start until ``import roughvol.cli`` ends."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import roughvol.cli, time; print(repr(time.monotonic()))"
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def run_op(cli, op, index: int, out_dir: Path) -> OpRecord:
    """One timed CLI call plus its untimed flag check."""
    rec = OpRecord(op, index, out_dir)
    out_dir.mkdir(parents=True)
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rec.code = cli.run(list(op.argv) + ["--out", str(rec.out_dir)])
        except Exception:  # an op boundary: record the crash, keep the loop going
            rec.code = -1
            sink.write(traceback.format_exc())
        rec.seconds = time.perf_counter() - t0
        rec.cpu_seconds = time.process_time() - c0
    if rec.code != 0:
        rec.failures.append(f"exit code {rec.code}: {sink.getvalue().strip()[-400:]}")
        return rec
    rec.files = checks.read_artifacts(str(rec.out_dir))
    rec.failures += checks.flag_failures(checks.summary(rec.files, op.command))
    return rec


def run_window(cli, source: OpSource, seconds: float, work: Path):
    """Whole studies until ``seconds`` of op time have passed.

    Between ops, outside the op times, it takes the set-up samples: enough
    after each op that every study yields at least SETUP_SAMPLES.
    """
    per_study = WORKLOADS[source.workload]["cycles_per_study"]
    ops_per_study = per_study * len(OP_KINDS[source.workload])
    setup_per_op = -(-SETUP_SAMPLES // ops_per_study)
    records, studies, setup = [], [], []
    elapsed = 0.0
    while True:
        study = []
        for _ in range(per_study):
            for op in source.next_cycle():
                rec = run_op(cli, op, len(records), work / f"op{len(records):04d}")
                records.append(rec)
                study.append(rec)
                elapsed += rec.seconds
                setup += [measure_setup() for _ in range(setup_per_op)]
        studies.append(study)
        if elapsed >= seconds:
            return records, studies, setup


def rerun(cli, rec: OpRecord) -> OpRecord:
    """Run an op's argv (same --out) again; a differing artifact is a failure."""
    shutil.rmtree(rec.out_dir)
    new = run_op(cli, rec.op, rec.index, rec.out_dir)
    if not new.failed and new.files != rec.files:
        new.failures.append(f"artifacts of op {rec.index} ({rec.op.kind}) differ on rerun")
    return new


def traced_replay(cli, records, tracer):
    """Replay every op twice, untraced then traced, each from an empty driver cache.

    In the window every op draws new parameters, so the lru-cached driver
    factor misses on every op; clearing it before each replayed op keeps
    that true here.  The untraced twin is the base of the tracing overhead.
    Returns both replays and the driver-factor misses of the traced one.
    """
    import roughvol.scheme

    cache = getattr(roughvol.scheme, "_driver_factor", None)
    plain, traced, misses = [], [], 0
    for rec in records:
        for out, ctx in ((plain, contextlib.nullcontext()), (traced, tracer)):
            if cache is not None:
                cache.cache_clear()
            tracer.op_id = rec.index
            with ctx:
                out.append(rerun(cli, rec))
        if cache is not None:
            misses += cache.cache_info().misses
    return plain, traced, misses


def end_to_end(workload: str, records, studies, setup) -> dict:
    """Every end-to-end metric of the run: {name: (value, unit, samples)}."""
    wall = [sum(r.seconds for r in s) for s in studies]
    cpu = [sum(r.cpu_seconds for r in s) for s in studies]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "study_s_p50": (statistics.median(wall), "s", len(wall)),
        "study_cpu_s_p50": (statistics.median(cpu), "s", len(cpu)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    for kind in OP_KINDS[workload]:
        times = [r.seconds for r in records if r.op.kind == kind]
        metrics[f"cmd.{kind}.s_p50"] = (statistics.median(times), "s", len(times))
    if workload == "mc-paths":
        sample = [r for r in records if r.op.kind == "sample"]
        paths = sum(int(r.op.option("paths")) for r in sample)
        metrics["paths_per_s"] = (paths / sum(r.seconds for r in sample), "1/s", len(sample))
    return metrics


def machine(seed: int) -> dict:
    """Where and on what the run ran; read-only probes."""
    import mpmath
    import numpy
    import scipy

    record = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read_first(["/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "seed": seed,
        "git_commit": _git_commit(),
    }
    record.update(_blas())
    return record


def _read_first(paths):
    for path in paths:
        try:
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        except OSError:
            continue
    return None


def _blas() -> dict:
    """BLAS vendor and the thread count actually in effect (OpenBLAS query)."""
    import ctypes

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    out = {"blas": blas.get("name"), "blas_version": blas.get("version"),
           "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]), "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and "/" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out["blas_threads"] = fn()
                return out
    return out


def _git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_roughvol()
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = bench(cli, args, work, spec["per_layer"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(results / f"{stem}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    for message in record["failures"]:
        print(f"FAILED: {message}")
    for name, (value, unit, samples) in record["end_to_end"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    for line in record.get("attribution", []):
        print(line)
    reported = record["per_layer"] if args.trace else record["end_to_end"]
    final = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": reported[m["name"]][0], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    if args.trace:
        for name, (value, unit, _) in record["per_layer"].items():
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(final))
    return 0


def bench(cli, args, work: Path, per_layer_spec) -> dict:
    """Checks, the timed window and (for --trace 1) the replays."""
    pinned = checks.compute_pinned()
    pin_failures = checks.pinned_failures(pinned)

    source = OpSource(args.workload, args.seed)
    records, studies, setup = run_window(cli, source, args.seconds, work)
    e2e = end_to_end(args.workload, records, studies, setup)

    for rec in records:
        if rec.failed:
            continue
        if rec.op.kind in checks.CLOSED_FORM_CHECKS:
            doc = checks.summary(rec.files, rec.op.command)
            rec.failures += checks.CLOSED_FORM_CHECKS[rec.op.kind](rec.op, doc)
        if rec.op.pinned:
            value = checks.cubic_exact_from_rate(rec.files, pinned["cubic_scheme_n256"])
            rec.failures += checks.pinned_failures({"cubic_exact": value})
    extra = [rerun(cli, records[0])]

    record = {"machine": machine(args.seed), "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "end_to_end": e2e,
              "ops": [{"kind": r.op.kind, "argv": list(r.op.argv), "s": r.seconds,
                      "cpu_s": r.cpu_seconds} for r in records]}
    if args.trace:
        tracer = Tracer()
        plain, traced, misses = traced_replay(cli, records, tracer)
        extra += plain + traced
        record.update(layers.per_layer(per_layer_spec, tracer, records, plain, traced, studies, misses))
        record["spans"] = tracer.spans()

    record.update(tally(records + extra, pin_failures))
    e2e["failed_ratio"] = (record["failed"] / record["attempted"], "ratio", record["attempted"])
    return record


def tally(records, pin_failures) -> dict:
    """Attempted and failed ops; the pinned-value step counts as one op."""
    failures = [f"pinned check: {m}" for m in pin_failures]
    failures += [f"op {r.index} {r.op.kind}: {m}" for r in records for m in r.failures]
    return {
        "attempted": len(records) + 1,
        "failed": sum(r.failed for r in records) + bool(pin_failures),
        "failures": failures,
    }


if __name__ == "__main__":
    sys.exit(main())
