"""The cli_readme workload: the five CLI examples of README.md, each run as
`python -m muntzlab.cli` in its own process, and the checks on their CSVs.
Standard library only.

    python perfbench/cli_readme.py setup WORKDIR

times this fresh interpreter from its first statement through
`import muntzlab.cli` and the writing of the five configs into WORKDIR,
and prints the seconds with the machine record as one JSON line.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import chebyshev_t  # noqa: E402

# name -> (subcommand, config), in README order
EXAMPLES = {
    "classical": ("classical", {"n_list": [1, 2, 3], "s_list": [0.25, 0.5],
                                "mesh": 1e-3}),
    "remez-constant": ("remez-constant", {
        "sequence": {"kind": "squares"}, "n_max": 8, "s": 0.25, "rho": 0.5,
        "mesh": 1e-3}),
    "density": ("density", {
        "target": "abs2x1", "sequence": {"kind": {"arithmetic": 1.0}},
        "set": {"fat_cantor": {"level": 4}}, "n_list": [2, 4, 8],
        "mesh": 1e-3}),
    "products": ("products", {
        "task": "alpha", "sequences": [{"kind": "squares"}], "n": 4,
        "s": 0.25, "k": 1, "budget": 25, "mesh": 1e-3}),
    "cantor": ("cantor", {"level": 6}),
}
README_PRODUCTS_SEED = 42

# documented columns (README.md, `muntzlab <subcommand> --help`) and rows
HEADERS = {
    "classical": "n,s,mesh,computed,predicted,relative_error",
    "remez-constant": "n,s,rho,set_id,y,mesh,value",
    "density": "target,n,mesh,error",
    "products": "j,n,s,k,alpha,samples",
    "cantor": "level,intervals,measure,essential_supremum",
}
ROWS = {"classical": 6, "remez-constant": 9, "density": 3, "products": 1,
        "cantor": 1}


def cli_seed(name: str, seed: int) -> int:
    """The README runs the products example with --seed 42 and the others
    with the default 0; the benchmark seed shifts the products seed."""
    return README_PRODUCTS_SEED + seed if name == "products" else 0


def cli_args(name: str, config: Path, out: Path, seed: int) -> list[str]:
    cmd, _ = EXAMPLES[name]
    args = [cmd, "--config", str(config), "--out", str(out)]
    if name == "products":
        args += ["--seed", str(cli_seed(name, seed))]
    return args


def write_configs(workdir: Path) -> dict[str, Path]:
    paths = {}
    for name, (_, cfg) in EXAMPLES.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(cfg), encoding="utf-8")
    return paths


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def check_csv(name: str, data: bytes | None, seed: int) -> bool:
    """The CSV of one example: comment line, header, row count, and the
    values that have an independent closed form."""
    if data is None:
        return False
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    if not text.endswith("\n"):
        return False
    lines = text[:-1].split("\n")
    _, cfg = EXAMPLES[name]
    mesh = "na" if name == "cantor" else repr(cfg["mesh"])
    comment = f"# config_hash={config_hash(cfg)} seed={cli_seed(name, seed)} mesh={mesh}"
    if len(lines) != 2 + ROWS[name] or lines[0] != comment or lines[1] != HEADERS[name]:
        return False
    width = HEADERS[name].count(",") + 1
    rows = [line.split(",") for line in lines[2:]]
    if any(len(row) != width for row in rows):
        return False
    try:
        if name == "classical":
            for n, s, _, computed, *_ in rows:
                want = chebyshev_t(int(n), (2.0 - float(s)) / float(s))
                if not abs(float(computed) - want) <= 0.01 * want:
                    return False
        if name == "cantor":
            level, intervals, measure, _ = rows[0]
            if (level, intervals) != ("6", "64") or \
                    not abs(float(measure) - (0.5 + 2.0 ** -7)) <= 1e-12:
                return False
    except ValueError:
        return False
    return True


def example_ok(name: str, data: bytes | None, reference: bytes | None,
               seed: int) -> bool:
    """check_csv, and the bytes equal the run's first pass."""
    return check_csv(name, data, seed) and data == reference


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] != "setup":
        print(__doc__, file=sys.stderr)
        return 2
    import muntzlab.cli  # noqa: F401  (what every example imports)

    write_configs(Path(argv[1]))
    elapsed = time.perf_counter() - _T0
    from common import machine_record

    print(json.dumps({"setup_s": elapsed, "machine": machine_record()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
