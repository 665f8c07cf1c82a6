"""Per-layer spans and counts for muntzlab, taken from outside the program.

While a Tracer is active, each traced function is replaced by a wrapper in
every namespace that binds it: its defining module, every loaded muntzlab
module that imported it by name, and the CLI's runner table.  A span
records calls (keyed by the innermost enclosing span), total time, self
time (total minus the time of traced spans inside it) and the exceptions
it raised.  A counter records calls only.  A traced name that no longer
exists is listed in `missing`, and the metrics built on it are left out.

Run as a script, it traces one CLI invocation and writes the counts:

    python perfbench/tracer.py --stats OUT.json -- <subcommand> --config ...
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# span name -> (module that defines the function, attribute)
SPANS = {
    "sets.discretize": ("muntzlab.sets", "discretize"),
    "muntzeval.basis_matrix": ("muntzlab.muntzeval", "basis_matrix"),
    "minimax.orthonormalize": ("muntzlab.minimax", "orthonormalize"),
    "minimax.best_uniform_approx": ("muntzlab.minimax", "best_uniform_approx"),
    "minimax.set_chebyshev": ("muntzlab.minimax", "_set_chebyshev"),
    "minimax.set_chebyshev_mp": ("muntzlab.minimax", "_set_chebyshev_mp"),
    "minimax.growth_sweep": ("muntzlab.minimax", "growth_sweep"),
    "minimax.growth_lp": ("muntzlab.minimax", "_growth_lp"),
    "minimax.discrete_minimax_lp": ("muntzlab.minimax", "discrete_minimax_lp"),
    # scipy's linprog as the program calls it, and the HiGHS entry point
    # inside it: linprog's self time is the scipy wrapper
    "minimax.linprog": ("scipy.optimize", "linprog"),
    "minimax.highs_core": ("scipy.optimize._linprog_highs", "_highs_wrapper"),
    "remezlab.remez_constant_estimate": ("muntzlab.remezlab",
                                         "remez_constant_estimate"),
    "remezlab.density_probe": ("muntzlab.remezlab", "density_probe"),
    "products.product_approx_search": ("muntzlab.products",
                                       "product_approx_search"),
    "cli.write_csv": ("muntzlab.cli", "write_csv"),
}
COUNTERS = {
    "numpy.solve": ("numpy.linalg", "solve"),
    "mpmath.lu_solve": ("mpmath", "lu_solve"),
    "mpmath.fsum": ("mpmath", "fsum"),
}
RUNNER = "cli.runner"  # every function in muntzlab.cli.RUNNERS

EXCHANGE_FRAMES = ("minimax.best_uniform_approx", "minimax.set_chebyshev")

# metric -> (span or counter, field[, enclosing spans that count])
LAYERS = {
    "cli.runner_s": (RUNNER, "total"),
    "cli.write_csv_s": ("cli.write_csv", "total"),
    "sets.discretize_s": ("sets.discretize", "total"),
    "sets.discretize_calls": ("sets.discretize", "calls"),
    "muntzeval.basis_matrix_s": ("muntzeval.basis_matrix", "total"),
    "muntzeval.basis_matrix_calls": ("muntzeval.basis_matrix", "calls"),
    "minimax.orthonormalize_s": ("minimax.orthonormalize", "total"),
    "minimax.orthonormalize_calls": ("minimax.orthonormalize", "calls"),
    "minimax.best_uniform_approx_self_s": ("minimax.best_uniform_approx",
                                           "self"),
    "minimax.best_uniform_approx_calls": ("minimax.best_uniform_approx",
                                          "calls"),
    "minimax.exchange_solves": ("numpy.solve", "calls", EXCHANGE_FRAMES),
    "minimax.lp_fallbacks": ("minimax.discrete_minimax_lp", "calls",
                             ("minimax.best_uniform_approx",)),
    "minimax.set_chebyshev_s": ("minimax.set_chebyshev", "total"),
    "minimax.set_chebyshev_calls": ("minimax.set_chebyshev", "calls"),
    "minimax.set_chebyshev_failures": ("minimax.set_chebyshev", "failures"),
    "minimax.set_chebyshev_mp_s": ("minimax.set_chebyshev_mp", "total"),
    "minimax.set_chebyshev_mp_calls": ("minimax.set_chebyshev_mp", "calls"),
    "minimax.mp_exchange_steps": ("mpmath.lu_solve", "calls"),
    "minimax.mp_dot_products": ("mpmath.fsum", "calls"),
    "minimax.growth_sweep_self_s": ("minimax.growth_sweep", "self"),
    "minimax.growth_lp_s": ("minimax.growth_lp", "total"),
    "minimax.growth_lp_calls": ("minimax.growth_lp", "calls"),
    "minimax.discrete_minimax_lp_self_s": ("minimax.discrete_minimax_lp",
                                           "self"),
    "minimax.discrete_minimax_lp_calls": ("minimax.discrete_minimax_lp",
                                          "calls"),
    "minimax.linprog_wrapper_self_s": ("minimax.linprog", "self"),
    "minimax.highs_core_s": ("minimax.highs_core", "total"),
    "minimax.lp_solves": ("minimax.linprog", "calls"),
    "remezlab.remez_constant_estimate_self_s": (
        "remezlab.remez_constant_estimate", "self"),
    "remezlab.density_probe_self_s": ("remezlab.density_probe", "self"),
    "products.product_approx_search_self_s": (
        "products.product_approx_search", "self"),
}
COUNT_FIELDS = ("calls", "failures")

# metric -> module whose cumulative import time `python -X importtime` gives
IMPORTS = {
    "cli.import_s": "muntzlab.cli",
    "cli.import_scipy_optimize_s": "scipy.optimize",
}


def unit(metric: str) -> str:
    if metric in LAYERS:
        return "count" if LAYERS[metric][1] in COUNT_FIELDS else "s"
    return "s"


class Tracer:
    """Wraps the traced functions while `active()`; `stats` accumulates
    until `stats.clear()`."""

    def __init__(self):
        self.stats: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[list] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        for name, (modname, attr) in {**SPANS, **COUNTERS}.items():
            try:
                fn = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                continue
            self._add(name, fn, counter=name in COUNTERS)
        runners = getattr(sys.modules.get("muntzlab.cli"), "RUNNERS", None)
        if isinstance(runners, dict):
            for fn in runners.values():
                self._add(RUNNER, fn, counter=False)
        else:
            self.missing.add(RUNNER)
        self._homes = sorted({m for m, _ in {**SPANS, **COUNTERS}.values()})

    def _add(self, name, fn, counter):
        self._wrappers[id(fn)] = (fn, self._count(name, fn) if counter
                                  else self._span(name, fn))

    def _span(self, name, fn):
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                stats["raised", name, type(exc).__name__] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats["calls", name, parent[0] if parent else ""] += 1
                stats["total", name] += dt
                stats["self", name] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt

        return wrapper

    def _count(self, name, fn):
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls", name, stack[-1][0] if stack else ""] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _namespaces(self):
        for modname, mod in list(sys.modules.items()):
            if modname == "muntzlab" or modname.startswith("muntzlab."):
                yield vars(mod)
        for modname in self._homes:
            if modname in sys.modules:
                yield vars(sys.modules[modname])
        runners = getattr(sys.modules.get("muntzlab.cli"), "RUNNERS", None)
        if isinstance(runners, dict):
            yield runners

    @contextmanager
    def active(self):
        patched = []
        try:
            for ns in self._namespaces():
                for key, value in list(ns.items()):
                    hit = self._wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        ns[key] = hit[1]
                        patched.append((ns, key, value))
            yield self
        finally:
            for ns, key, value in reversed(patched):
                ns[key] = value


def layer_values(stats: Counter, missing) -> dict[str, float]:
    """Per-layer metrics from one pass's stats; metrics on a missing name
    are left out."""
    out = {}
    for metric, (name, field, *frames) in LAYERS.items():
        if name in missing:
            continue
        if field == "calls":
            out[metric] = sum(
                n for key, n in stats.items()
                if key[:2] == ("calls", name)
                and (not frames or key[2] in frames[0]))
        elif field == "failures":
            out[metric] = stats["raised", name, "ConvergenceError"]
        else:
            out[metric] = stats[field, name]
    return out


def median_values(per_pass: list[dict]) -> dict[str, float]:
    """Median over passes; counts take the lower median, so they stay whole."""
    keys = set().union(*per_pass) if per_pass else set()
    return {
        k: (statistics.median_low if unit(k) == "count" else statistics.median)(
            [p[k] for p in per_pass if k in p])
        for k in sorted(keys)
    }


def import_times(report: str) -> dict[str, float]:
    """Cumulative seconds of the IMPORTS modules in `-X importtime` output."""
    cumulative = {}
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            try:
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
            except ValueError:
                continue  # the column header line
    return {metric: cumulative[mod] for metric, mod in IMPORTS.items()
            if mod in cumulative}


def dump(stats: Counter) -> list:
    return [[list(key), value] for key, value in stats.items()]


def load(rows) -> Counter:
    return Counter({tuple(key): value for key, value in rows})


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--stats" or argv[2] != "--":
        print("usage: tracer.py --stats OUT.json -- <cli arguments>",
              file=sys.stderr)
        return 2
    import muntzlab.cli

    tracer = Tracer()
    with tracer.active():
        code = muntzlab.cli.main(argv[3:])
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump({"stats": dump(tracer.stats),
                   "missing": sorted(tracer.missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
