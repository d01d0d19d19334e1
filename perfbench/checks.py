"""Output checks.  Each returns a list of failure messages (empty = pass).

Closed forms and reproductions here run untimed, through the library API.
"""

from __future__ import annotations

import json
import math
import os

from workloads import BASE

# ROADMAP invariants at BASE: (value, relative tolerance).
PINNED = {
    "cubic_exact": (5.457041241199e-01, 1e-9),
    "cubic_scheme_n256": (0.5404579124986337, 1e-12),
}
MC_Z = 4.5  # standard errors a Monte-Carlo estimate may sit from its closed form


def _model(params: dict):
    from roughvol.exact_law import ModelParams

    p = dict(params)
    if "horizon" in p:
        p["T"] = p.pop("horizon")
    return ModelParams(**p)


def _f_id():
    from roughvol.scheme import FunctionSpec

    return FunctionSpec("affine", (0.0, 1.0), role="diffusion")


def cubic_scheme_at(params: dict, n: int) -> float:
    """E[(Lc_T)^3] of the scheme at grid size n, b = 0, f(x) = x (closed form)."""
    from roughvol.kernels import TimeGrid
    from roughvol.moments import cubic_scheme
    from roughvol.scheme import build_scheme_law

    p = _model(params)
    return cubic_scheme(build_scheme_law(TimeGrid(n, p.T), p), p, _f_id())


def compute_pinned() -> dict:
    """cubic_scheme at n = 256 and BASE, computed through the library."""
    return {"cubic_scheme_n256": cubic_scheme_at(BASE, 256)}


def cubic_exact_from_rate(files: dict, cubic_scheme_n256: float) -> float:
    """cubic_exact at BASE, read from a cubic-rate run at BASE.

    Its n = 256 error is |cubic_exact - cubic_scheme(256)|, and at BASE
    cubic_exact lies above cubic_scheme(256).
    """
    rows = [line.split(",") for line in files["cubic-rate.csv"].decode().splitlines()[1:]]
    errors = {int(row[0]): float(row[1]) for row in rows}
    return cubic_scheme_n256 + errors[256]


def pinned_failures(values: dict, pinned: dict = PINNED) -> list:
    fails = []
    for name, value in values.items():
        want, rel = pinned[name]
        if not abs(value - want) <= rel * abs(want):
            fails.append(f"pinned {name} = {value!r}, want {want!r} at rel {rel:g}")
    return fails


def read_artifacts(out_dir: str) -> dict:
    """{file name: bytes} of everything an op wrote."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def summary(files: dict, command: str) -> dict:
    return json.loads(files[f"{command}.json"])


def flag_failures(doc: dict) -> list:
    """Every CLI pass flag (rate_within_band, variance_settled, ...) must hold."""
    return [f"pass flag {k} = FAIL" for k, v in doc.get("pass", {}).items() if not v]


def sample_failures(op, doc: dict) -> list:
    """The sampled E[L_T^3] sits within MC_Z standard errors of cubic_scheme.

    The artifact carries mean, variance (ddof=1) and third central moment of
    L_T, which give the sample mean of L_T^3 exactly.  Its standard error
    needs the spread of L_T^3, which the artifact lacks: the first block of
    the same sample (bit-reproducible in seed and block layout) is redrawn
    and its L_T^3 spread stands in for the whole sample's.
    """
    import numpy as np

    from roughvol.kernels import TimeGrid
    from roughvol.scheme import FunctionSpec, sample_scheme_paths

    stats = doc["results"]["statistics"]["L_T"]
    count = int(doc["results"]["paths"])
    n = int(doc["results"]["n"])
    mean, var, third = stats["mean"], stats["var"], stats["third_central"]
    estimate = third + 3.0 * mean * var * (count - 1) / count + mean**3
    p = _model(op.params)
    block = min(count, 8192)
    _, lt = sample_scheme_paths(
        TimeGrid(n, p.T), p, FunctionSpec("constant", (0.0,), role="drift"), _f_id(),
        block, int(op.option("seed")), keep="terminal",
    )
    se = float(np.std(lt**3, ddof=1)) / math.sqrt(count)
    want = cubic_scheme_at(op.params, n)
    if abs(estimate - want) > MC_Z * se:
        return [f"sample E[L^3] = {estimate!r}, closed form {want!r}, se {se:.3g}"]
    return []


def mc_failures(op, doc: dict) -> list:
    """The paired mc difference sits within MC_Z of its closed form."""
    res = doc["results"]
    want = cubic_scheme_at(op.params, res["n_coarse"]) - cubic_scheme_at(op.params, res["n_fine"])
    if abs(res["difference"] - want) > MC_Z * res["difference_se"]:
        return [
            f"mc difference = {res['difference']!r}, closed form {want!r}, "
            f"se {res['difference_se']:.3g}"
        ]
    return []


CLOSED_FORM_CHECKS = {"sample": sample_failures, "mc": mc_failures}
