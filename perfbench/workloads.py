"""The benchmark's workloads: seeded argv lists for in-process CLI calls.

A workload is a closed loop of one client: ops run one after another and
each op is one ``roughvol.cli.run(argv)`` call.  A *cycle* is one pass over
the workload's op kinds; every op gets its own draw of the parameters that
do not change the cost (x0, kappa1, sigma, rho and the Monte-Carlo
seeds), so the lru-cached driver factor misses as it does for a one-shot CLI
user.  Every op rebuilds its (n, alpha) tables: besides the driver factor,
roughvol caches across calls only the combinatorial term lists of
``moments``.  Every size, order, path count and alpha is fixed per op kind,
so every seed does the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Draw ranges of the cost-neutral parameters (uniform, one draw per op).
DRAW_RANGES = {
    "x0": (0.1, 0.3),
    "kappa1": (0.2, 0.5),
    "sigma": (0.8, 1.2),
    "rho": (0.5, 0.9),
}
KAPPA2 = -1.0
HORIZON = 1.0
LAW_SWEEP_ALPHAS = (0.6, 0.75, 0.8)
# The ROADMAP's workhorse parameters, at which the pinned values hold.
BASE = {"x0": 0.2, "kappa1": 0.3, "sigma": 1.0, "rho": 0.7,
        "alpha": 0.75, "kappa2": KAPPA2, "horizon": HORIZON}


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind label, its argv (without --out) and its model.

    ``pinned`` marks an op run at BASE, whose output carries a pinned value.
    """

    kind: str
    argv: tuple
    params: dict
    pinned: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, name: str) -> str:
        return self.argv[self.argv.index(f"--{name}") + 1]


class OpSource:
    """Generates the ops of consecutive cycles of one workload from a seed.

    Cycle i's ops depend only on the seed and i, never on how many cycles a
    run gets through, so two runs with one seed replay the same argv list.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        self._rng = random.Random(seed)
        self._cycle = 0

    def _op(self, kind: str, command: str, alpha: float, extra: dict,
            kappa2: float = KAPPA2, mc_seed: bool = False, pinned: bool = False) -> Op:
        params = {k: round(self._rng.uniform(lo, hi), 6) for k, (lo, hi) in DRAW_RANGES.items()}
        params.update(alpha=alpha, kappa2=kappa2, horizon=HORIZON)
        if pinned:  # drawn all the same, so the ops after it keep their draws
            params = dict(BASE)
        options = dict(params, **extra)
        if mc_seed:
            options["seed"] = self._rng.randrange(2**31)
        argv = [command]
        for key, value in options.items():
            argv += [f"--{key}", str(value)]
        return Op(kind, tuple(argv), params, pinned)

    def next_cycle(self) -> list:
        i = self._cycle
        self._cycle += 1
        return WORKLOADS[self.workload]["cycle"](self, i)

    def _law_sweep(self, i: int) -> list:
        alpha = LAW_SWEEP_ALPHAS[i % len(LAW_SWEEP_ALPHAS)]
        return [
            self._op("weak-rate", "weak-rate", alpha,
                     {"quantity": "var_X", "n": "256,512,1024,2048"}),
            self._op("scheme-law", "scheme-law", alpha, {"n": "2048"}),
            self._op("strong-rate", "strong-rate", 0.75, {"n": "128,256,512"}),
            self._op("moment-scheme", "moment", 0.75,
                     {"order": 3, "which": "scheme", "n": "128", "b": "poly:0.1,0,0.3"}),
        ]

    def _mc_paths(self, i: int) -> list:
        return [
            self._op("sample", "sample", 0.75, {"n": "256", "paths": 32768}, mc_seed=True),
            self._op("mc", "mc", 0.75,
                     {"n": "32,256", "paths": 16384, "phi": "poly:0,0,0,1"}, mc_seed=True),
        ]

    def _exact_refs(self, i: int) -> list:
        return [
            self._op("moment-exact", "moment", 0.75,
                     {"order": 2, "which": "exact", "b": "poly:0.1,0,0.3"}),
            self._op("exact-law", "exact-law", 0.75, {"n": "256"}),
            # kappa2 = -0.5 keeps stationary near 5 s instead of 20 s and still
            # fires both mpmath re-runs (_cov_exact_mp and _ml_series_mp)
            self._op("stationary", "stationary", 0.75, {}, kappa2=-0.5),
            # the first runs at BASE: its n = 256 error checks the pinned
            # cubic_exact without a 9 s untimed recomputation per run
            self._op("cubic-rate", "cubic-rate", 0.75, {"n": "32,64,128,256"}, pinned=i == 0),
        ]


# A study is what a run times as one sample: whole cycles, about 15-30 s of
# work, so that one study averages over the second-scale swings in speed of
# a shared host.  A law-sweep study is one full alpha rotation, so every
# study does the same work and sees each alpha once.
WORKLOADS = {
    "law-sweep": {"cycle": OpSource._law_sweep, "cycles_per_study": len(LAW_SWEEP_ALPHAS)},
    "mc-paths": {"cycle": OpSource._mc_paths, "cycles_per_study": 3},
    "exact-refs": {"cycle": OpSource._exact_refs, "cycles_per_study": 2},
}

# The subcommand medians each workload reports (ROADMAP aim 1).
OP_KINDS = {
    "law-sweep": ("weak-rate", "scheme-law", "strong-rate", "moment-scheme"),
    "mc-paths": ("sample", "mc"),
    "exact-refs": ("moment-exact", "exact-law", "stationary", "cubic-rate"),
}
