"""Command-line front end: parse a run config, dispatch, write CSV/JSON.

Grammar::

    roughvol <subcommand> [--config FILE] [--out DIR] [flags]

Subcommands: exact-law, scheme-law, sample, weak-rate, cubic-rate,
strong-rate, moment, stationary, freeze-gap, mc.  Options resolve in three
layers -- built-in defaults, then ``key = value`` lines from ``--config``,
then explicit flags -- and the JSON summary echoes the fully resolved
config so a run is reproducible from its own artifact.  CSV cells use
shortest round-trip decimals, so identical config + seed gives
byte-identical files.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .analysis import (
    fit_loglog,
    fit_rate,
    kernel_freeze_gap,
    mc_weak_error,
    strong_error_exact,
    theoretical_rate,
    weak_error_curve,
    zeta_alternating,
)
from .errors import ConvergenceError, ValidationError
from .exact_law import (
    ModelParams,
    cov_exact,
    grid_law_exact,
    mean_exact,
    stationary_variance,
)
from .kernels import TimeGrid
from .moments import moment_via_words
from .scheme import FunctionSpec, build_scheme_law, sample_scheme_paths

_COMMANDS = (
    "exact-law",
    "scheme-law",
    "sample",
    "weak-rate",
    "cubic-rate",
    "strong-rate",
    "moment",
    "stationary",
    "freeze-gap",
    "mc",
)

# One table drives flag registration, config-file parsing, and the JSON
# echo: key -> (converter, default, help).  alpha has no default on purpose.
_OPTIONS: dict = {
    "alpha": (float, None, "kernel roughness exponent in (1/2, 1]; required"),
    "kappa1": (float, 0.3, "constant drift level"),
    "kappa2": (float, -1.0, "mean-reversion slope (negative reverts)"),
    "sigma": (float, 1.0, "volatility-of-volatility"),
    "rho": (float, 0.7, "leverage correlation in [-1, 1]"),
    "x0": (float, 0.2, "initial factor value"),
    "l0": (float, 0.0, "initial log-price"),
    "horizon": (float, 1.0, "terminal time T"),
    "n": (str, "64,128,256,512,1024", "comma list of grid sizes"),
    "paths": (int, 10000, "Monte Carlo path count"),
    "seed": (int, 1234, "RNG seed"),
    "b": (str, "constant:0", "drift coefficient of L, KIND:c0,c1,..."),
    "f": (str, "affine:0,1", "diffusion coefficient of L, KIND:c0,c1,..."),
    "phi": (str, "poly:0,0,0,1", "test function for mc, poly:c0,c1,..."),
    "tol": (float, 0.15, "acceptance band for rate fits"),
    "quantity": (str, "mean_X", "weak-rate target: mean_X|var_X|cov_X|cubic_L"),
    "order": (int, 3, "moment order for the word expansion (1..4)"),
    "which": (str, "exact", "moment branch: exact|scheme"),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved options for one run: model, grid list, command extras,
    and the merged option values they were built from."""

    params: ModelParams
    n_list: tuple
    paths: int
    seed: int
    b: FunctionSpec
    f: FunctionSpec
    phi: FunctionSpec
    tol: float
    quantity: str
    order: int
    which: str
    out: str
    options: dict


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ValidationError (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="roughvol", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="key = value options file")
        sp.add_argument("--out", default=".", help="output directory")
        for key, (conv, _default, help_text) in _OPTIONS.items():
            sp.add_argument(f"--{key}", type=conv, default=None, help=help_text)
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _OPTIONS:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        conv = _OPTIONS[key][0]
        try:
            raw[key] = conv(value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return raw


def _parse_n_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in str(text).split(","))
    except ValueError as exc:
        raise ValidationError(f"--n must be a comma list of integers, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ValidationError(f"--n entries must be positive, got {text!r}")
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    merged = {key: default for key, (_conv, default, _help) in _OPTIONS.items()}
    if args.config is not None:
        merged.update(_read_config_file(args.config))
    for key in _OPTIONS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    if merged["alpha"] is None:
        raise ValidationError("missing required --alpha")
    params = ModelParams(
        x0=merged["x0"],
        kappa1=merged["kappa1"],
        kappa2=merged["kappa2"],
        sigma=merged["sigma"],
        rho=merged["rho"],
        alpha=merged["alpha"],
        T=merged["horizon"],
        L0=merged["l0"],
    )
    if merged["tol"] <= 0.0:
        raise ValidationError(f"--tol must be positive, got {merged['tol']}")
    return RunConfig(
        params=params,
        n_list=_parse_n_list(merged["n"]),
        paths=int(merged["paths"]),
        seed=int(merged["seed"]),
        b=FunctionSpec.parse(merged["b"], role="drift"),
        f=FunctionSpec.parse(merged["f"], role="diffusion"),
        phi=FunctionSpec.parse(merged["phi"], role="test"),
        tol=float(merged["tol"]),
        quantity=str(merged["quantity"]),
        order=int(merged["order"]),
        which=str(merged["which"]),
        out=str(args.out),
        options=merged,
    )


def _spec_string(fs: FunctionSpec) -> str:
    return fs.kind + ":" + ",".join(repr(c) for c in fs.coefficients)


def _config_echo(cfg: RunConfig) -> dict:
    """Every _OPTIONS key as resolved, the grid list parsed, the function
    specs in canonical form, plus the output directory."""
    echo = dict(cfg.options, n=list(cfg.n_list), out=cfg.out)
    echo.update((key, _spec_string(getattr(cfg, key))) for key in ("b", "f", "phi"))
    return echo


def _fmt_cell(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_artifacts(cfg: RunConfig, command: str, csv_spec, payload: dict) -> list:
    from . import __version__

    os.makedirs(cfg.out, exist_ok=True)
    written = []
    if csv_spec is not None:
        header, rows = csv_spec
        csv_path = os.path.join(cfg.out, f"{command}.csv")
        lines = [",".join(header)]
        lines += [",".join(_fmt_cell(cell) for cell in row) for row in rows]
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(csv_path)
    json_path = os.path.join(cfg.out, f"{command}.json")
    document = {
        "tool": {"name": "roughvol", "version": __version__, "command": command},
        "config": _config_echo(cfg),
    }
    document.update(payload)
    with open(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(json_path)
    return written


# --- one runner per subcommand; each returns (csv_spec or None, payload) ---


def _marginal_rows(times: np.ndarray, mean, var, x0: float):
    rows = [[0.0, x0, 0.0]]
    rows += [[times[k], mean[k - 1], var[k - 1]] for k in range(1, len(times))]
    return rows


def _run_exact_law(cfg: RunConfig):
    p = cfg.params
    grid = TimeGrid(cfg.n_list[0], p.T)
    law = grid_law_exact(p, grid)
    rows = _marginal_rows(grid.times, law.mean, np.diag(law.cov), p.x0)
    results = {
        "n": grid.n,
        "terminal_mean": float(law.mean[-1]),
        "terminal_var": float(law.cov[-1, -1]),
    }
    return (["t", "mean", "var"], rows), {"results": results, "pass": {}}


def _run_scheme_law(cfg: RunConfig):
    p = cfg.params
    grid = TimeGrid(cfg.n_list[0], p.T)
    law = build_scheme_law(grid, p)
    rows = _marginal_rows(grid.times, law.mean[1:], np.diag(law.cov)[1:], p.x0)
    results = {
        "n": grid.n,
        "terminal_mean": float(law.mean[-1]),
        "terminal_var": float(law.cov[-1, -1]),
        "exact_terminal_mean": mean_exact(p, p.T),
        "exact_terminal_var": cov_exact(p, p.T, p.T),
    }
    return (["t", "mean", "var"], rows), {"results": results, "pass": {}}


def _run_sample(cfg: RunConfig):
    p = cfg.params
    grid = TimeGrid(cfg.n_list[0], p.T)
    x_term, l_term = sample_scheme_paths(
        grid, p, cfg.b, cfg.f, cfg.paths, cfg.seed, keep="terminal"
    )
    rows = []
    stats = {}
    for name, data in (("X_T", x_term), ("L_T", l_term)):
        mean = float(np.mean(data))
        var = float(np.var(data, ddof=1))
        third = float(np.mean((data - mean) ** 3))
        rows.append([name, mean, var, third])
        stats[name] = {"mean": mean, "var": var, "third_central": third}
    results = {"n": grid.n, "paths": cfg.paths, "seed": cfg.seed, "statistics": stats}
    return (["variable", "mean", "var", "third_central"], rows), {
        "results": results,
        "pass": {},
    }


def _rate_payload(cfg: RunConfig, quantity: str):
    p = cfg.params
    curve = weak_error_curve(quantity, p.alpha, p, cfg.n_list)
    fit = fit_rate(curve, p.alpha, band=cfg.tol)
    rows = []
    for n, err in zip(curve.n_values, curve.errors):
        v_n = theoretical_rate(p.alpha, n)
        rows.append([n, err, v_n, err / v_n])
    results = {
        "quantity": quantity,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "theoretical": fit.theoretical,
    }
    passes = {"rate_within_band": bool(fit.passed)}
    return (["n", "error", "v_n", "ratio"], rows), {"results": results, "pass": passes}


def _run_weak_rate(cfg: RunConfig):
    return _rate_payload(cfg, cfg.quantity)


def _run_cubic_rate(cfg: RunConfig):
    return _rate_payload(cfg, "cubic_L")


def _run_strong_rate(cfg: RunConfig):
    p = cfg.params
    errors = [strong_error_exact(TimeGrid(n, p.T), p) for n in cfg.n_list]
    rows = [[n, err] for n, err in zip(cfg.n_list, errors)]
    results = {"errors": errors}
    if len(cfg.n_list) >= 2 and all(e > 0.0 for e in errors):
        slope, intercept, r_squared = fit_loglog(cfg.n_list, errors)
        results.update(slope=slope, intercept=intercept, r_squared=r_squared)
    else:
        results.update(slope=None, intercept=None, r_squared=None)
    return (["n", "error"], rows), {"results": results, "pass": {}}


def _run_moment(cfg: RunConfig):
    p = cfg.params
    grid = TimeGrid(cfg.n_list[0], p.T) if cfg.which == "scheme" else None
    if grid is None:
        total, detail = moment_via_words(cfg.order, p, cfg.b, which=cfg.which, detail=True)
    else:  # one quadratic form: the scheme has no per-word view
        total, detail = moment_via_words(cfg.order, p, cfg.b, which="scheme", grid=grid), {}
    rows = [[word, value] for word, value in detail.items()]
    rows.append(["total", total])
    results = {"order": cfg.order, "which": cfg.which, "total": total}
    if grid is not None:
        results["n"] = grid.n
    return (["word", "contribution"], rows), {"results": results, "pass": {}}


def _run_stationary(cfg: RunConfig):
    p = cfg.params
    sigma_inf_sq = stationary_variance(p)
    cov_at_t40 = cov_exact(p, 40.0, 40.0)
    mean_at_t40 = mean_exact(p, 40.0)
    mean_limit = -p.kappa1 / p.kappa2
    rel_gap = abs(cov_at_t40 - sigma_inf_sq) / sigma_inf_sq
    results = {
        "sigma_inf_sq": sigma_inf_sq,
        "cov_at_t40": cov_at_t40,
        "rel_gap": rel_gap,
        "mean_at_t40": mean_at_t40,
        "mean_limit": mean_limit,
    }
    passes = {"variance_settled": bool(rel_gap < 0.01)}
    return None, {"results": results, "pass": passes}


def _run_freeze_gap(cfg: RunConfig):
    p = cfg.params
    rows = []
    ratio = None
    for n in cfg.n_list:
        gap, asymptote = kernel_freeze_gap(TimeGrid(n, p.T), p.alpha)
        ratio = gap / asymptote
        rows.append([n, gap, asymptote, ratio])
    results = {
        "zeta_argument": 2.0 * (1.0 - p.alpha),
        "zeta_value": zeta_alternating(2.0 * (1.0 - p.alpha)),
        "final_ratio": ratio,
    }
    passes = {"asymptote_band": bool(0.95 <= ratio <= 1.05)}
    return (["n", "gap", "asymptote", "ratio"], rows), {
        "results": results,
        "pass": passes,
    }


def _run_mc(cfg: RunConfig):
    p = cfg.params
    if len(cfg.n_list) < 2:
        raise ValidationError("mc needs --n with at least two entries (coarse, fine)")
    n_coarse, n_fine = cfg.n_list[0], cfg.n_list[-1]
    comparison = mc_weak_error(
        cfg.phi, cfg.b, cfg.f, p, n_coarse, n_fine, cfg.paths, cfg.seed
    )
    rows = [
        [n_coarse, comparison.coarse.estimate, comparison.coarse.std_error],
        [n_fine, comparison.fine.estimate, comparison.fine.std_error],
    ]
    z = 0.0
    if comparison.difference_se > 0.0:
        z = comparison.difference / comparison.difference_se
    results = {
        "n_coarse": n_coarse,
        "n_fine": n_fine,
        "paths": cfg.paths,
        "seed": cfg.seed,
        "coarse": {
            "estimate": comparison.coarse.estimate,
            "std_error": comparison.coarse.std_error,
        },
        "fine": {
            "estimate": comparison.fine.estimate,
            "std_error": comparison.fine.std_error,
        },
        "difference": comparison.difference,
        "difference_se": comparison.difference_se,
        "z": z,
    }
    return (["grid_n", "estimate", "std_error"], rows), {"results": results, "pass": {}}


_RUNNERS = {
    "exact-law": _run_exact_law,
    "scheme-law": _run_scheme_law,
    "sample": _run_sample,
    "weak-rate": _run_weak_rate,
    "cubic-rate": _run_cubic_rate,
    "strong-rate": _run_strong_rate,
    "moment": _run_moment,
    "stationary": _run_stationary,
    "freeze-gap": _run_freeze_gap,
    "mc": _run_mc,
}


def run(argv=None) -> int:
    """Parse argv, run one subcommand, write artifacts; return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ValidationError(f"missing subcommand; choose from {', '.join(_COMMANDS)}")
        cfg = _resolve(args)
        csv_spec, payload = _RUNNERS[args.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    written = _write_artifacts(cfg, args.command, csv_spec, payload)
    flags = payload.get("pass", {})
    note = ""
    if flags:
        note = "; " + ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in flags.items())
    print(f"wrote {', '.join(written)}{note}")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
