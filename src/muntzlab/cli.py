"""Experiment runner: JSON config in, deterministic CSV out.

Usage: muntzlab <subcommand> --config <file.json> [--out <file.csv>] [--seed N]

Subcommands: classical, remez-constant, density, products (whose "task" is
alpha, verify, search or h4), cantor.  Before any work, a config is checked
once against its SCHEMAS entry: each field has a type, a range and a size
cap (the MAX_* constants), and the runner gets typed values.
Exit codes: 0 ok, 2 config error (one line on stderr), 3 numeric/solver
failure, 4 I/O failure."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from muntzlab import products, remezlab
from muntzlab.errors import ConfigError, MuntzlabError, finite_number
from muntzlab.exponents import sequence_from_json
from muntzlab.sets import (MAX_CANTOR_LEVEL, MAX_GRID_POINTS,
                           check_interval_total, discretize,
                           essential_supremum, fat_cantor, normalize,
                           union_from_json)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

MAX_DIM = 64  # dimension index n; squares already fail to condition at 35
MAX_DEGREE = 10_000  # h4 monomial degrees; criterion 7 runs four squares to 1e4
MAX_COUNT = 10_000  # rounds, restarts, budgets, k: each sizes a list or a loop
MAX_LIST = 256  # entries of a list field
MAX_FACTORS = 8  # product factors; the search holds a grid x dimension basis each


class Field(NamedTuple):
    """One config field: `kind` is int, float, str or a nested descriptor's
    parser.  Numbers lie in [lo, hi]; a bool is no number, an int is a float
    and a float is finite.  With `many` > 0 the field is a list of 1 to
    `many` such values; a list of sets holds at most MAX_GRID_POINTS
    intervals in all.  A field with a default other than None is optional."""

    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    many: int = 0
    default: object = None


DIM = Field(int, 0, MAX_DIM)
DIMS = DIM._replace(many=MAX_LIST)
COUNT = Field(int, 1, MAX_COUNT)
UNIT = Field(float, 0.0, 1.0)
MESH = Field(float, 0.0)  # discretize refuses 0 and a grid beyond its cap
SEQUENCE = Field(sequence_from_json)
SEQUENCES = Field(sequence_from_json, many=MAX_FACTORS)
TASK = Field(str)  # main picks the products schema by it

SCHEMAS = {
    "classical": {"n_list": DIMS, "s_list": UNIT._replace(many=MAX_LIST),
                  "mesh": MESH},
    "remez-constant": {"sequence": SEQUENCE, "n_max": DIM, "s": UNIT,
                       "rho": UNIT, "mesh": MESH,
                       "family": Field(union_from_json, many=MAX_LIST, default=())},
    "density": {"target": Field(str), "sequence": SEQUENCE,
                "set": Field(union_from_json), "n_list": DIMS, "mesh": MESH},
    "cantor": {"level": Field(int, 0, MAX_CANTOR_LEVEL),
               "carrier": Field(float, 0.0, many=2, default=(0.0, 1.0))},
    "products.alpha": {"task": TASK, "sequences": SEQUENCES, "n": DIM,
                       "s": UNIT, "k": COUNT, "budget": COUNT, "mesh": MESH},
    "products.verify": {"task": TASK, "sequences": SEQUENCES, "n": DIM,
                        "s": UNIT, "rho": UNIT, "budget": COUNT, "mesh": MESH,
                        "alpha_budget": COUNT._replace(default=25)},
    "products.search": {"task": TASK, "sequences": SEQUENCES, "n": DIM,
                        "target": Field(str), "rounds": COUNT,
                        "restarts": COUNT._replace(default=1), "mesh": MESH},
    "products.h4": {"task": TASK,
                    "n_list": Field(int, 0, MAX_DEGREE, many=MAX_LIST),
                    "grid_points": Field(int, 2, MAX_GRID_POINTS)},
}


def _value(name: str, v, f: Field):
    if f.many:
        if not isinstance(v, list) or not 1 <= len(v) <= f.many:
            raise ConfigError(f"{name} must be a list of 1 to {f.many} entries")
        if f.kind is union_from_json:
            check_interval_total(v, name)
        return [_value(f"{name}[{i}]", x, f._replace(many=0))
                for i, x in enumerate(v)]
    if f.kind not in (int, float, str):  # the parser of a nested descriptor
        try:
            return f.kind(v)
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from None
    if f.kind is float:
        v = finite_number(v, name)
    elif isinstance(v, bool) or not isinstance(v, f.kind):
        raise ConfigError(f"{name} must be of type {f.kind.__name__}, not {v!r}")
    if f.kind is not str and not f.lo <= v <= f.hi:
        raise ConfigError(f"{name} must lie in [{f.lo}, {f.hi}], not {v!r}")
    return v


def _parse(cfg: dict, schema: dict) -> SimpleNamespace:
    """The typed values of a loaded config, checked against one schema."""
    missing = {k for k, f in schema.items() if f.default is None} - set(cfg)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return SimpleNamespace(**{k: _value(k, cfg[k], f) if k in cfg else f.default
                              for k, f in schema.items()})


def _fmt(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def run_classical(c, seed: int):
    rows = []
    for n in c.n_list:
        for s in c.s_list:
            rep = remezlab.verify_classical_extremal(n, s, c.mesh)
            rows.append([n, s, c.mesh, rep.computed, rep.predicted, rep.relative_error])
    return rows


def run_remez_constant(c, seed: int):
    family = c.family or remezlab.default_set_family(c.s, c.rho)
    trend = remezlab.remez_trend(c.sequence, c.n_max, c.s, c.rho, family, c.mesh)
    return [[n, c.s, c.rho, e.attaining_set, e.attaining_query, c.mesh,
             e.c_value] for n, e in enumerate(trend)]


def run_density(c, seed: int):
    res = remezlab.density_probe(c.target, c.sequence, c.set, c.n_list, c.mesh)
    return [[c.target, n, c.mesh, e] for n, e in res.errors_by_n]


def run_cantor(c, seed: int):
    A = fat_cantor(c.level, c.carrier)
    return [[c.level, len(A.intervals), A.measure(), essential_supremum(A)]]


def run_products_alpha(c, seed: int):
    rows = []
    for j, seq in enumerate(c.sequences):
        est = products.estimate_alpha(seq, c.n, c.s, c.k, c.budget, seed,
                                      c.mesh, j=j)
        rows.append([j, c.n, c.s, c.k, est.alpha, est.sample_count])
    return rows


def run_products_verify(c, seed: int):
    spec = products.ProductSpaceSpec(tuple(c.sequences))
    alphas = [products.estimate_alpha(seq, c.n, c.s, spec.k, c.alpha_budget,
                                      seed, c.mesh, j=j)
              for j, seq in enumerate(c.sequences)]
    rep = products.verify_product_remez(spec, c.n, c.s, c.rho, alphas,
                                        c.budget, seed, c.mesh)
    return [[i, r, rep.c, int(products.violates_product_bound(r, 1.0, rep.c))]
            for i, r in enumerate(rep.ratios)]


def run_products_search(c, seed: int):
    spec = products.ProductSpaceSpec(tuple(c.sequences))
    grid = discretize(normalize([[0.0, 1.0]]), c.mesh)
    f = remezlab.named_target(c.target)(grid.as_array())
    rep = products.product_approx_search(f, grid, spec, c.n, c.rounds, seed,
                                         restarts=c.restarts)
    return [[t, e] for t, e in enumerate(rep.best_error_by_round)]


def run_products_h4(c, seed: int):
    grid = discretize(normalize([[0.0, 1.0]]), 1.0 / (c.grid_points - 1))
    rows = []
    for n in c.n_list:
        w = products.monomial_in_H4(n, grid)
        rows.append([n, *w.decomposition, w.max_abs_deviation])
    return rows


RUNNERS = {"classical": run_classical, "remez-constant": run_remez_constant,
           "density": run_density, "cantor": run_cantor,
           "products.alpha": run_products_alpha, "products.verify": run_products_verify,
           "products.search": run_products_search, "products.h4": run_products_h4}

# each runner's CSV columns, and what a row holds; --help prints them
COLUMNS = {
    "classical": "n,s,mesh,computed,predicted,relative_error: growth value "
                 "(set-Chebyshev exchange) on [1-s,1] at query 0 vs the "
                 "Chebyshev closed form",
    "remez-constant": "n,s,rho,set_id,y,mesh,value: empirical Remez constant "
                      "per dimension with its attaining set index and query",
    "density": "target,n,mesh,error: best-approximation error per truncation",
    "products.alpha": "j,n,s,k,alpha,samples",
    "products.verify": "sample,ratio,c,violation",
    "products.search": "round,best_error",
    "products.h4": "n,a,b,c,d,deviation",
    "cantor": "level,intervals,measure,essential_supremum",
}


def write_csv(path: str | None, header, rows, cfg: dict, seed: int, mesh):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    rows = sorted(rows)  # on the values: n = 2 comes before n = 10
    lines = [f"# config_hash={digest} seed={seed} mesh={_fmt(mesh) if mesh is not None else 'na'}"]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muntzlab", description="Muntz-space / Remez-inequality experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    docs: dict[str, list[str]] = {}
    for name, doc in COLUMNS.items():
        command, _, task = name.partition(".")
        docs.setdefault(command, []).append(f"task {task}: {doc}" if task else doc)
    for command, parts in docs.items():
        doc = " | ".join(parts)
        p = sub.add_parser(command, description=f"CSV columns: {doc}",
                           help=" | ".join(d.split(":")[0] for d in parts))
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"muntzlab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or digits
        print(f"muntzlab: invalid JSON config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        name = args.command
        if name == "products":  # the task picks the schema and the runner
            name = f"products.{cfg.get('task')}"
            if name not in SCHEMAS:
                raise ConfigError(f"unknown products task {cfg.get('task')!r}")
        typed = _parse(cfg, SCHEMAS[name])
        rows = RUNNERS[name](typed, args.seed)
    except ConfigError as exc:
        print(f"muntzlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MuntzlabError, np.linalg.LinAlgError) as exc:
        print(f"muntzlab: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        write_csv(args.out, COLUMNS[name].split(":")[0].split(","), rows, cfg,
                  args.seed, getattr(typed, "mesh", None))
    except OSError as exc:
        print(f"muntzlab: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
