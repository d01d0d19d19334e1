"""Monte Carlo cross-check of the deterministic scheme moments.

Samples the discretised log-price at the terminal time and compares the
empirical second, third and fourth moments with the deterministic scheme
values for the same grid (``moment_via_words(..., which="scheme")``, the
cumulants of the scheme log-price as a Gaussian quadratic form);
disagreements beyond a few standard errors would flag a bug in either
engine.

Run from the repo root:  python3 scripts/mc_vs_words.py [--paths N] [--seed S]
"""

import argparse

import numpy as np

from roughvol import FunctionSpec, ModelParams, TimeGrid, moment_via_words, sample_scheme_paths


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    p = ModelParams(x0=0.2, kappa1=0.3, kappa2=-1.0, sigma=1.0, rho=0.7, alpha=0.75, T=1.0)
    grid = TimeGrid(128, p.T)
    f = FunctionSpec("affine", (0.0, 1.0), role="diffusion")

    for b in (FunctionSpec("constant", (0.0,), role="drift"),
              FunctionSpec("polynomial", (0.1, 0.0, 0.3), role="drift")):
        _, l_term = sample_scheme_paths(grid, p, b, f, args.paths, args.seed, keep="terminal")
        print(f"b = {b.kind}:{b.coefficients}  n = {grid.n}  paths = {args.paths}")
        for order in (2, 3, 4):
            exact_value = moment_via_words(order, p, b, which="scheme", grid=grid)
            mc = float(np.mean(l_term**order))
            se = float(np.std(l_term**order, ddof=1) / np.sqrt(args.paths))
            pull = (mc - exact_value) / se
            print(
                f"  E[L^{order}]  scheme {exact_value:+.6f}   mc {mc:+.6f} +- {se:.6f}"
                f"   pull {pull:+.2f}"
            )
        print()


if __name__ == "__main__":
    main()
