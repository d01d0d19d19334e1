"""Boundary tracing from outside the package: wrap, record spans, restore.

Wrappers go on the module attributes through which roughvol's modules call
each other -- every function named in a ``from .x import ...`` line, patched
both where it is imported and where it is defined, so same-module lookups
through that attribute (``cov_exact -> _cov_pairs``) are caught too -- plus
``cli.run``, the entry point of every op.  Each call records a span (name,
start, end, parent span, op id) in memory; ``layers.per_layer`` folds the
spans into per-layer counts and self times after the run.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict

PACKAGE = "roughvol"

# Functions counted but given no span: called ~1e5 times per op, a span each
# would cost more than the function.
COUNT_ONLY = {"specfun.gamma"}

# Metric prefixes that sum several span names.
GROUPS = {
    "kernels.jacobi_rule": "kernels.gauss_rule",
    "kernels.legendre_rule": "kernels.gauss_rule",
    "exact_law.ml_entire_array": "exact_law.ml_array",
    "exact_law.mean_many": "exact_law.ml_array",
    "exact_law.malliavin_kernel_array": "exact_law.ml_array",
}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counts taken at the boundary: span name -> (counter, f(args, kwargs)).
WORK = {
    "specfun.hyp2f1_b1": ("points", lambda a, k: _size(_arg(a, k, 2, "z"))),
    "kernels.cross_kernel_table": ("entries", lambda a, k: (_arg(a, k, 0, "grid").n + 1) ** 2),
    "exact_law.cov_pairs": ("pairs", lambda a, k: _size(_arg(a, k, 1, "t_small"))),
    "exact_law.ml_entire_array": ("points", lambda a, k: _size(_arg(a, k, 2, "v"))),
    "scheme.build_scheme_law": ("n_cubed", lambda a, k: _arg(a, k, 0, "grid").n ** 3),
    "scheme.sample_scheme_paths": (
        "path_steps", lambda a, k: _arg(a, k, 4, "count") * _arg(a, k, 0, "grid").n),
    "analysis.mc_weak_error": (
        "path_steps",
        lambda a, k: _arg(a, k, 6, "paths") * (_arg(a, k, 4, "n_coarse") + _arg(a, k, 5, "n_fine"))),
}


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


def _words_name(args, kwargs) -> str:
    which = args[3] if len(args) > 3 else kwargs.get("which", "exact")
    return f"moments.words.N{_arg(args, kwargs, 0, 'N')}.{which}"


def patch_points() -> dict:
    """{(module name, attribute): span name} for every cross-module call site.

    Read from the package's own ``from .x import ...`` lines, so a function
    imported by a new module is traced without editing this file.
    """
    pkg = importlib.import_module(PACKAGE)
    points = {}
    modules = [PACKAGE] + [f"{PACKAGE}.{m.name}" for m in pkgutil.iter_modules(pkg.__path__)]
    for modname in modules:
        module = importlib.import_module(modname)
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            source = importlib.import_module(f"{PACKAGE}.{node.module}")
            for alias in node.names:
                obj = getattr(source, alias.name)
                if not (inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)):
                    continue  # classes, constants: not call boundaries
                name = _span_name(node.module, alias.name)
                points[(modname, alias.asname or alias.name)] = name
                points[(f"{PACKAGE}.{node.module}", alias.name)] = name
    points[(f"{PACKAGE}.cli", "run")] = "cli.run"
    return points


class Tracer:
    """Installs boundary wrappers, keeps spans in memory, restores on exit."""

    def __init__(self):
        self._points = patch_points()
        self._originals = {}
        self.names: list = []
        self._name_ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.name_id = array("l")
        self.counts = defaultdict(int)
        self._stack: list = []
        self.op_id = -1

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        counts = self.counts
        if name in COUNT_ONLY:
            calls_key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        work = WORK.get(name)
        work_key = work and f"{GROUPS.get(name, name)}.{work[0]}"
        fixed_id = None if name == "moments.moment_via_words" else self._id(name)
        stack, perf = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._id(_words_name(args, kwargs))
            if work is not None:
                counts[work_key] += work[1](args, kwargs)
            idx = len(self.start)
            self.start.append(perf())
            self.end.append(0.0)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.name_id.append(nid)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self.end[idx] = perf()

        return traced

    def install(self) -> None:
        wrappers = {}
        for (modname, attr), name in self._points.items():
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._originals[(modname, attr)] = original
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name)
            setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for (modname, attr), original in self._originals.items():
            setattr(importlib.import_module(modname), attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(n)]

    def by_name(self, ops=None) -> dict:
        """{span name: [calls, busy seconds, self seconds]}, optionally for some op ids."""
        selfs = self.self_times()
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, s in enumerate(selfs):
            if ops is not None and self.op[i] not in ops:
                continue
            row = table[self.names[self.name_id[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += s
        return dict(table)

    def spans(self) -> dict:
        """Column-wise dump of every span, for writing out after the run."""
        return {
            "names": list(self.names),
            "name": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "op": list(self.op),
        }
