"""Experiment runner: JSON config in, deterministic CSV out.

Usage: muntzlab <subcommand> --config <file.json> [--out <file.csv>] [--seed N]

Subcommands: classical, remez-constant, density, products, cantor.
Exit codes: 0 ok, 2 config error, 3 numeric/solver failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from muntzlab import products, remezlab
from muntzlab.errors import ConfigError, MuntzlabError
from muntzlab.exponents import sequence_from_json
from muntzlab.sets import discretize, fat_cantor, union_from_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _require(cfg: dict, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")
    unknown = set(cfg) - required - set(optional)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def run_classical(cfg: dict, seed: int):
    _require(cfg, {"n_list", "s_list", "mesh"})
    mesh = float(cfg["mesh"])
    header = ["n", "s", "mesh", "computed", "predicted", "relative_error"]
    jobs = [(int(n), float(s)) for n in cfg["n_list"] for s in cfg["s_list"]]

    def one(n, s):
        rep = remezlab.verify_classical_extremal(n, s, mesh)
        return [n, s, mesh, rep.computed, rep.predicted, rep.relative_error]

    return header, [one(n, s) for n, s in jobs], mesh


def run_remez_constant(cfg: dict, seed: int):
    _require(cfg, {"sequence", "n_max", "s", "rho", "mesh"}, {"family"})
    seq = sequence_from_json(cfg["sequence"])
    s, rho, mesh = float(cfg["s"]), float(cfg["rho"]), float(cfg["mesh"])
    if "family" in cfg:
        family = [union_from_json(d) for d in cfg["family"]]
    else:
        family = remezlab.default_set_family(s, rho)
    header = ["n", "s", "rho", "set_id", "y", "mesh", "value"]

    def one(n):
        est = remezlab.remez_constant_estimate(seq, n, s, rho, family, mesh)
        return [n, s, rho, est.attaining_set, est.attaining_query, mesh,
                est.c_value]

    return header, [one(n) for n in range(int(cfg["n_max"]) + 1)], mesh


def run_density(cfg: dict, seed: int):
    _require(cfg, {"target", "sequence", "set", "n_list", "mesh"})
    seq = sequence_from_json(cfg["sequence"])
    A = union_from_json(cfg["set"])
    mesh = float(cfg["mesh"])
    res = remezlab.density_probe(cfg["target"], seq, A, list(cfg["n_list"]), mesh)
    header = ["target", "n", "mesh", "error"]
    rows = [[cfg["target"], n, mesh, e] for n, e in res.errors_by_n]
    return header, rows, mesh


def run_cantor(cfg: dict, seed: int):
    _require(cfg, {"level"}, {"carrier"})
    K = int(cfg["level"])
    A = fat_cantor(K, cfg.get("carrier", (0.0, 1.0)))
    header = ["level", "intervals", "measure", "essential_supremum"]
    from muntzlab.sets import essential_supremum

    return header, [[K, len(A.intervals), A.measure(), essential_supremum(A)]], None


def run_products(cfg: dict, seed: int):
    if not isinstance(cfg, dict) or "task" not in cfg:
        raise ConfigError("products config needs a 'task' field")
    task = cfg["task"]
    if task == "alpha":
        _require(cfg, {"task", "sequences", "n", "s", "k", "budget", "mesh"})
        seqs = [sequence_from_json(d) for d in cfg["sequences"]]
        rows = []
        for j, seq in enumerate(seqs):
            est = products.estimate_alpha(
                seq, int(cfg["n"]), float(cfg["s"]), int(cfg["k"]),
                int(cfg["budget"]), seed, float(cfg["mesh"]), j=j,
            )
            rows.append([est.j, est.n, est.s, est.k, est.alpha,
                         est.sample_count])
        return ["j", "n", "s", "k", "alpha", "samples"], rows, float(cfg["mesh"])
    if task == "verify":
        _require(cfg, {"task", "sequences", "n", "s", "rho", "budget", "mesh"},
                 {"alpha_budget"})
        seqs = [sequence_from_json(d) for d in cfg["sequences"]]
        spec = products.ProductSpaceSpec(tuple(seqs))
        mesh = float(cfg["mesh"])
        n, s = int(cfg["n"]), float(cfg["s"])
        ab = int(cfg.get("alpha_budget", 25))
        alphas = [
            products.estimate_alpha(seq, n, s, spec.k, ab, seed, mesh, j=j)
            for j, seq in enumerate(seqs)
        ]
        rep = products.verify_product_remez(
            spec, n, s, float(cfg["rho"]), alphas, int(cfg["budget"]),
            seed, mesh,
        )
        rows = [
            [i, r, rep.c, int(r > rep.c * (1.0 + 1e-9))]
            for i, r in enumerate(rep.ratios)
        ]
        return ["sample", "ratio", "c", "violation"], rows, mesh
    if task == "search":
        _require(cfg, {"task", "sequences", "n", "target", "rounds", "mesh"},
                 {"restarts"})
        seqs = [sequence_from_json(d) for d in cfg["sequences"]]
        spec = products.ProductSpaceSpec(tuple(seqs))
        from muntzlab.sets import normalize

        grid = discretize(normalize([[0.0, 1.0]]), float(cfg["mesh"]))
        f = remezlab.named_target(cfg["target"])(grid.as_array())
        rep = products.product_approx_search(
            f, grid, spec, int(cfg["n"]), int(cfg["rounds"]), seed,
            restarts=int(cfg.get("restarts", 1)),
        )
        rows = [[t, e] for t, e in enumerate(rep.best_error_by_round)]
        return ["round", "best_error"], rows, float(cfg["mesh"])
    if task == "h4":
        _require(cfg, {"task", "n_list", "grid_points"})
        from muntzlab.sets import normalize

        npts = int(cfg["grid_points"])
        if npts < 2:
            raise ConfigError("grid_points must be >= 2")
        grid = discretize(normalize([[0.0, 1.0]]), 1.0 / (npts - 1))
        rows = []
        for n in cfg["n_list"]:
            w = products.monomial_in_H4(int(n), grid)
            a, b, c, d = w.decomposition
            rows.append([int(n), a, b, c, d, w.max_abs_deviation])
        return ["n", "a", "b", "c", "d", "deviation"], rows, None
    raise ConfigError(f"unknown products task {task!r}")


RUNNERS = {
    "classical": run_classical,
    "remez-constant": run_remez_constant,
    "density": run_density,
    "products": run_products,
    "cantor": run_cantor,
}

COLUMN_DOCS = {
    "classical": "n,s,mesh,computed,predicted,relative_error: growth "
                 "value (set-Chebyshev exchange) on [1-s,1] at query 0 vs "
                 "the Chebyshev closed form",
    "remez-constant": "n,s,rho,set_id,y,mesh,value: empirical Remez constant "
                      "per dimension with its attaining set index and query",
    "density": "target,n,mesh,error: best-approximation error per truncation",
    "products": "task alpha: j,n,s,k,alpha,samples | task verify: "
                "sample,ratio,c,violation | task search: round,best_error | "
                "task h4: n,a,b,c,d,deviation",
    "cantor": "level,intervals,measure,essential_supremum",
}


def write_csv(path: str | None, header, rows, cfg: dict, seed: int, mesh):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    rows = sorted(rows, key=lambda r: [_fmt(v) for v in r])
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
        prog="muntzlab",
        description="Muntz-space / Remez-inequality experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in COLUMN_DOCS.items():
        p = sub.add_parser(name, description=f"CSV columns: {doc}",
                           help=doc.split(":")[0])
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
    except json.JSONDecodeError as exc:
        print(f"muntzlab: invalid JSON config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        header, rows, mesh = RUNNERS[args.command](cfg, args.seed)
    except ConfigError as exc:
        print(f"muntzlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MuntzlabError, np.linalg.LinAlgError) as exc:
        print(f"muntzlab: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        write_csv(args.out, header, rows, cfg, args.seed, mesh)
    except OSError as exc:
        print(f"muntzlab: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
