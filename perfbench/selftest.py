"""Tests of the benchmark itself: the short mode on every workload, a short
traced run, and the checkers on corrupted outputs.

    python3 perfbench/selftest.py

The file name keeps pytest from collecting it with the program's tests.
"""

import dataclasses
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from common import BENCH, ROOT, SRC, child_env

sys.path.insert(0, str(SRC))

import cli_readme  # noqa: E402
import library  # noqa: E402

OPS_PER_PASS = {"acceptance_sweeps": 26 + 64 + 1, "cli_readme": 5}


def bench(*args) -> list[dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


class ShortMode(unittest.TestCase):
    def test_every_workload_passes_its_checks(self):
        results = bench("--short")
        self.assertEqual(len(results), len(OPS_PER_PASS))
        for result, ops in zip(results, OPS_PER_PASS.values()):
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual((result["attempted"], result["failed"]), (ops, 0))
            self.assertEqual(set(result["metrics"]),
                             {"setup_s", "pass_s", "peak_rss_mb"})
            self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_counts(self):
        (result,) = bench("--short", "--workload", "acceptance_sweeps", "--trace", "1")
        counts = {k: v["value"] for k, v in result["metrics"].items()
                  if v["unit"] == "count"}
        # remez_trend + density_probe + newman_search per pass
        self.assertEqual(counts["muntzeval.basis_matrix_calls"], 435 + 64 + 4)
        self.assertEqual(counts["minimax.growth_lp_calls"], 52)
        self.assertEqual(counts["minimax.set_chebyshev_calls"], 78)
        self.assertEqual(counts["minimax.lp_fallbacks"], 4)
        self.assertEqual(counts["minimax.lp_solves"], 52 + 4 + 400)
        self.assertGreater(result["metrics"]["cli.import_s"]["value"], 0)


class Checkers(unittest.TestCase):
    def test_remez_rejects_scaled_constant(self):
        out = library.RemezTrend(0).run_pass()
        self.assertEqual(library.check_remez(out), set())
        for op in (("arithmetic", 5), ("squares", 1)):
            bad = dict(out)
            bad[op] *= 1.02
            self.assertIn(op, library.check_remez(bad))

    def test_certificate_rejects_flipped_sign(self):
        grid = library.discretize(library.fat_cantor(4), library.MESH)
        f = library.TARGETS["abs2x1"]
        lam = library.exponents("arithmetic", 6)
        res = library.minimax.best_uniform_approx(f(grid.as_array()), grid, lam)
        self.assertTrue(library.check_certificate(res, f, lam))
        ref = list(res.reference_points)
        ref[1] = ref[0]  # the second point now carries the first one's sign
        flipped = dataclasses.replace(res, reference_points=tuple(ref))
        self.assertFalse(library.check_certificate(flipped, f, lam))

    def test_cli_rejects_edited_byte(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            work = Path(tmp)
            configs = cli_readme.write_configs(work)
            out = work / "cantor.csv"
            subprocess.run(
                [sys.executable, "-m", "muntzlab.cli",
                 *cli_readme.cli_args("cantor", configs["cantor"], out, 0)],
                check=True, env=child_env(), cwd=ROOT, timeout=120)
            data = out.read_bytes()
        self.assertTrue(cli_readme.example_ok("cantor", data, data, 0))
        for i in range(len(data)):
            edited = bytearray(data)
            edited[i] = ord("7") if data[i] != ord("7") else ord("8")
            self.assertFalse(cli_readme.example_ok("cantor", bytes(edited), data, 0))


if __name__ == "__main__":
    unittest.main()
