"""Benchmark of muntzlab on two fixed workloads, with every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --short [--workload NAME]

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are setup_s,
pass_s and peak_rss_mb; with --trace 1 they are the per-layer metrics of a
traced run.  --short runs one set-up and one pass of each workload (or of
the one named), with all checks.  perfbench/README.md describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import cli_readme
import tracer
from common import BENCH, ROOT, SWEEPS, run_child, source_present

WORKLOADS = ("acceptance_sweeps", "cli_readme")
SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
IMPORT_RUNS = 3  # `-X importtime` interpreters per traced run
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORK = ROOT / ".perfbench_work"
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


class Run:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def child(self, argv, **kwargs):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"out of time before {argv[1:3]}")
        return run_child([str(a) for a in argv], timeout=left, **kwargs)

    def setup_s(self, argv, runs: int) -> float:
        times = []
        for _ in range(runs):
            code, out, _ = self.child(argv)
            if code != 0:
                raise BenchError(f"set-up probe exited with {code}")
            rec = json.loads(out.decode().splitlines()[-1])
            times.append(rec["setup_s"])
        print("# machine " + json.dumps(rec["machine"]))
        print(f"# setup_s runs {times}", file=sys.stderr)
        return statistics.median(times)

    def import_metrics(self) -> dict:
        runs = []
        for _ in range(IMPORT_RUNS):
            code, out, _ = self.child(
                [sys.executable, "-X", "importtime", "-c", "import muntzlab.cli"],
                stderr=subprocess.STDOUT)
            if code != 0:
                raise BenchError(f"import probe exited with {code}")
            runs.append(tracer.import_times(out.decode()))
        return tracer.median_values(runs)


def library(run: Run) -> tuple[int, int, dict]:
    a = run.args
    setup = None
    if not a.trace:
        setup = run.setup_s([sys.executable, BENCH / "library.py", "setup",
                             a.seed], 1 if a.short else SETUP_RUNS)
    code, out, rss_kib = run.child(
        [sys.executable, BENCH / "library.py", "passes", a.seed, a.seconds,
         int(a.trace), int(a.short)])
    if code != 0:
        raise BenchError(f"pass worker exited with {code}")
    rep = json.loads(out.decode().splitlines()[-1])
    print(f"# pass_s runs {rep['pass_s']}", file=sys.stderr)
    if a.trace:
        metrics = {**rep["layers"], **run.import_metrics(),
                   "trace.pass_s": statistics.mean(rep["pass_s"])}
        for name in rep["missing"]:
            print(f"# traced name missing: {name}", file=sys.stderr)
    else:
        metrics = {"setup_s": setup, "pass_s": statistics.mean(rep["pass_s"]),
                   "peak_rss_mb": rss_kib / 1024.0}
    return rep["attempted"], rep["failed"], metrics


def cli(run: Run) -> tuple[int, int, dict]:
    a = run.args
    configs = cli_readme.write_configs(run.workdir)
    order = list(cli_readme.EXAMPLES)
    random.Random(a.seed).shuffle(order)
    setup = None
    if not a.trace:
        probe_dir = run.workdir / "setup"
        probe_dir.mkdir()
        setup = run.setup_s([sys.executable, BENCH / "cli_readme.py", "setup",
                             probe_dir], 1 if a.short else SETUP_RUNS)
    csv = {name: run.workdir / f"{name}.csv" for name in order}
    stats_file = {name: run.workdir / f"{name}.stats.json" for name in order}
    missing: set[str] = set()

    def one_pass():
        for path in (*csv.values(), *stats_file.values()):
            path.unlink(missing_ok=True)
        codes, peak = {}, 0
        t0 = time.perf_counter()
        for name in order:
            args = cli_readme.cli_args(name, configs[name], csv[name], a.seed)
            if a.trace:
                argv = [sys.executable, BENCH / "tracer.py", "--stats",
                        stats_file[name], "--", *args]
            else:
                argv = [sys.executable, "-m", "muntzlab.cli", *args]
            codes[name], _, rss = run.child(argv, stdout=subprocess.DEVNULL)
            peak = max(peak, rss)
        elapsed = time.perf_counter() - t0
        outputs = {name: csv[name].read_bytes()
                   if codes[name] == 0 and csv[name].exists() else None
                   for name in order}
        layers = None
        if a.trace:
            stats = Counter()
            for name in order:
                if stats_file[name].exists():
                    rec = json.loads(stats_file[name].read_text())
                    stats.update(tracer.load(rec["stats"]))
                    missing.update(rec["missing"])
            layers = tracer.layer_values(stats, missing)
        return elapsed, outputs, peak, layers

    reference = None
    failed = checked = peak = 0
    times, layers = [], []

    def check(outputs):
        nonlocal failed, reference
        reference = reference or outputs
        for name in order:
            if not cli_readme.example_ok(name, outputs[name], reference[name],
                                         a.seed):
                failed += 1
                print(f"perfbench: example {name} failed its checks",
                      file=sys.stderr)

    if not a.short:
        _, outputs, peak, _ = one_pass()  # warm-up: file cache and imports
        check(outputs)
        checked += 1
    start = time.perf_counter()
    while True:
        elapsed, outputs, rss, pass_layers = one_pass()
        times.append(elapsed)
        if a.trace:
            layers.append(pass_layers)
        peak = max(peak, rss)
        check(outputs)
        checked += 1
        if a.short or time.perf_counter() - start >= a.seconds:
            break
    print(f"# pass_s runs {times}", file=sys.stderr)
    if a.trace:
        metrics = {**tracer.median_values(layers), **run.import_metrics(),
                   **{f"{name}.pass_s": 0.0 for name in SWEEPS},
                   "trace.pass_s": statistics.mean(times)}
        for name in sorted(missing):
            print(f"# traced name missing: {name}", file=sys.stderr)
    else:
        metrics = {"setup_s": setup, "pass_s": statistics.mean(times),
                   "peak_rss_mb": peak / 1024.0}
    return len(order) * checked, failed, metrics


def measure(args) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = Run(args, workdir)
        attempted, failed, metrics = (cli if args.workload == "cli_readme"
                                      else library)(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    return {
        # every check is charged to an operation, so a run that ends has
        # checked every output; failed says how many did not pass
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": tracer.unit(name)
                           if args.trace else E2E_UNITS[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)
    if not source_present():
        print(f"perfbench: no muntzlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None and not args.short:
        parser.error("--workload is required without --short")
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        for name in names:
            args.workload = name
            result = measure(args)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
