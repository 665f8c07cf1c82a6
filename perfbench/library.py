"""The acceptance_sweeps workload: the remez_trend, density_probe and
newman_search sweeps, run one after another in every pass.

    python perfbench/library.py setup  SEED
    python perfbench/library.py passes SEED SECONDS TRACE SHORT

`setup` times this fresh interpreter from its first statement through the
imports and the building of the workload's inputs, and prints the seconds
with the machine record as one JSON line.  `passes` runs one untimed
warm-up pass, then timed passes until SECONDS have gone, checks every pass,
and prints one JSON line; with TRACE 1 the timed passes run under the
tracer.  SHORT 1 skips the warm-up and stops after one timed pass.
run.py drives both and expects the checkout's src/ on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

from muntzlab import minimax, products, remezlab  # noqa: E402
from muntzlab.exponents import arithmetic, squares  # noqa: E402
from muntzlab.sets import discretize, fat_cantor, normalize  # noqa: E402

from common import SWEEPS, chebyshev_t  # noqa: E402

# Criterion 5: s = 0.25, rho = 0.5, default family, mesh 1e-3, n = 0..12.
S, RHO, MESH, N_MAX = 0.25, 0.5, 1e-3, 12
SEQUENCES = {"squares": squares(), "arithmetic": arithmetic(1.0)}
SQUARES_FINAL_RATIO_CEIL = 1.6

# Criterion 4, widened to two targets, two levels and n = 2, 4, ..., 16.
LEVELS = (4, 6)
N_LIST = tuple(range(2, 17, 2))
TARGETS = {
    "abs2x1": lambda x: np.abs(2.0 * x - 1.0),
    "runge": lambda x: 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2),
}
# frozen oracle of tests/test_acceptance.py: abs2x1 on fat_cantor(6)
DENSITY_ORACLE = {("arithmetic", 8): 2.85943e-3, ("arithmetic", 16): 1.42207e-4,
                  ("squares", 8): 1.84501e-2, ("squares", 16): 1.23180e-2}
ORACLE_REL = 1e-5  # the oracle values carry six digits

# Criterion 8: |2x-1| on 257 points, 4 squares factors, n = 6.
NEWMAN = {"n": 6, "rounds": 20, "seed": 0, "restarts": 5}
NEWMAN_FLOOR = 0.05


def exponents(label: str, n: int) -> np.ndarray:
    return np.array([float(i * i if label == "squares" else i)
                     for i in range(n + 1)])


def powers(x, lam) -> np.ndarray:
    """x^lambda columns by numpy alone (0^0 = 1)."""
    return np.power(np.asarray(x, float)[:, None], np.asarray(lam)[None, :])


def _failed(op, exc) -> None:
    print(f"perfbench: {op} raised {type(exc).__name__}: {exc}",
          file=sys.stderr)


def check_remez(c: dict) -> set:
    """Failed (sequence, n) operations of one remez_trend pass; c maps each
    operation to its c_n, and an operation that raised is absent."""
    bad = {(label, n) for label in SEQUENCES for n in range(N_MAX + 1)
           if not math.isfinite(c.get((label, n), math.nan))}
    for n in range(N_MAX + 1):
        t = chebyshev_t(n, 7.0)
        if ("arithmetic", n) in c and abs(c["arithmetic", n] - t) > 0.01 * t:
            bad.add(("arithmetic", n))
        if ("squares", n) in c and c["squares", n] > 1.01 * chebyshev_t(n * n, 7.0):
            bad.add(("squares", n))
    for label in SEQUENCES:
        if (label, 1) in c and abs(c[label, 1] - 7.0) > 1e-6 * 7.0:
            bad.add((label, 1))
        for n in range(1, N_MAX + 1):
            lo, hi = c.get((label, n - 1)), c.get((label, n))
            if lo is not None and hi is not None and hi < lo * (1.0 - 1e-9):
                bad.add((label, n))
    ratio = {n: c["squares", n + 1] / c["squares", n] for n in range(N_MAX)
             if ("squares", n) in c and ("squares", n + 1) in c}
    for n in range(2, N_MAX):
        if n in ratio and n - 1 in ratio and ratio[n] > ratio[n - 1] * (1 + 1e-9):
            bad.add(("squares", n + 1))
    if N_MAX - 1 in ratio and not ratio[N_MAX - 1] < SQUARES_FINAL_RATIO_CEIL:
        bad.add(("squares", N_MAX))
    return bad


class RemezTrend:
    """remez_constant_estimate for both sequences, n = 0..12, in an order
    drawn from the seed."""

    OPS = 2 * (N_MAX + 1)

    def __init__(self, seed: int):
        self.family = remezlab.default_set_family(S, RHO)
        self.ops = [(label, n) for label in SEQUENCES for n in range(N_MAX + 1)]
        random.Random(seed).shuffle(self.ops)

    def run_pass(self) -> dict:
        out = {}
        for label, n in self.ops:
            try:
                out[label, n] = remezlab.remez_constant_estimate(
                    SEQUENCES[label], n, S, RHO, self.family, MESH).c_value
            except Exception as exc:  # counted as a failed operation
                _failed((label, n), exc)
        return out

    def certify(self) -> None:
        pass

    def failures(self, out: dict) -> set:
        return check_remez(out)


def check_certificate(res, f, lam) -> bool:
    """dim+1 reference points on which the residual, evaluated here with
    numpy powers, alternates in sign; lower bound <= error; gap <= 1e-6."""
    ref = np.asarray(res.reference_points, float)
    if len(ref) != len(lam) + 1 or tuple(res.approximant.exponents) != tuple(lam):
        return False
    r = f(ref) - powers(ref, lam) @ np.asarray(res.approximant.coefficients)
    alternates = bool(np.all(r != 0.0) and np.all(np.sign(r[1:]) == -np.sign(r[:-1])))
    return (alternates and res.certified_lower_bound <= res.error * (1 + 1e-12)
            and res.relative_gap <= 1e-6)


def minimax_lp(x, f, lam) -> float:
    """min_c max |f - V c| on the grid, as an LP in the coordinates of a
    numpy QR of the column-scaled monomial matrix V.  HiGHS's default
    feasibility tolerance of 1e-7 is absolute, and errors reach 1e-4 here,
    so both tolerances are tightened to 1e-10."""
    from scipy.optimize import linprog

    V = powers(x, lam)
    Q, _ = np.linalg.qr(V / np.max(np.abs(V), axis=0))
    N, m = Q.shape
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    ones = np.ones((N, 1))
    res = linprog(cost, A_ub=np.block([[Q, -ones], [-Q, -ones]]),
                  b_ub=np.concatenate([f, -f]),
                  bounds=[(None, None)] * m + [(0.0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    return float(res.fun) if res.status == 0 else math.nan


class DensityProbe:
    """density_probe for 2 targets x 2 fat Cantor levels x 2 sequences,
    n_list 2..16, in an order drawn from the seed: 64 best approximations."""

    OPS = 8 * len(N_LIST)

    def __init__(self, seed: int):
        self.sets = {K: fat_cantor(K) for K in LEVELS}
        self.calls = [(t, K, label) for t in TARGETS for K in LEVELS
                      for label in SEQUENCES]
        random.Random(seed).shuffle(self.calls)
        self.certified: dict = {}

    def run_pass(self) -> dict:
        out = {}
        for t, K, label in self.calls:
            try:
                res = remezlab.density_probe(t, SEQUENCES[label], self.sets[K],
                                             list(N_LIST), MESH)
            except Exception as exc:  # its 8 operations count as failed
                _failed((t, K, label), exc)
                continue
            for n, err in res.errors_by_n:
                out[t, K, label, n] = err
        return out

    def certify(self) -> None:
        """Once per run, outside the timed passes: solve every case with
        best_uniform_approx, check its certificate, and compare the error
        with an LP built here."""
        for t, K, label in sorted(self.calls):
            grid = discretize(self.sets[K], MESH)
            x = grid.as_array()
            f = TARGETS[t](x)
            for n in N_LIST:
                lam = exponents(label, n)
                try:
                    res = minimax.best_uniform_approx(f, grid, lam, tol=1e-10)
                except Exception as exc:
                    _failed((t, K, label, n), exc)
                    continue
                lp = minimax_lp(x, f, lam)
                if check_certificate(res, TARGETS[t], lam) and \
                        abs(res.error - lp) <= 1e-6 * res.error:
                    self.certified[t, K, label, n] = res.error
                else:
                    print(f"perfbench: certificate check failed for "
                          f"{(t, K, label, n)} (error {res.error!r}, LP {lp!r})",
                          file=sys.stderr)

    def failures(self, out: dict) -> set:
        return check_density(out, self.certified)


def check_density(out: dict, certified: dict) -> set:
    """Failed (target, level, sequence, n) operations of one pass."""
    bad = set()
    for t in TARGETS:
        for K in LEVELS:
            for label in SEQUENCES:
                prev = None
                for n in N_LIST:
                    op = (t, K, label, n)
                    e, ok = out.get(op), certified.get(op)
                    if e is None or ok is None or abs(e - ok) > 1e-9 * ok:
                        bad.add(op)
                    if e is not None and prev is not None and e > prev * (1 + 1e-9):
                        bad.add(op)
                    prev = e
    for (label, n), want in DENSITY_ORACLE.items():
        e = out.get(("abs2x1", 6, label, n))
        if e is None or abs(e - want) > ORACLE_REL * want:
            bad.add(("abs2x1", 6, label, n))
    return bad


def check_newman(rep, x, f) -> bool:
    trace = rep.best_error_by_round
    if any(e1 > e0 for e0, e1 in zip(trace, trace[1:])):
        return False
    if not trace[-1] >= NEWMAN_FLOOR:
        return False
    lam = exponents("squares", NEWMAN["n"])
    prod = np.ones_like(x)
    for p in rep.best.factors:
        if tuple(p.exponents) != tuple(lam):
            return False
        prod = prod * (powers(x, lam) @ np.asarray(p.coefficients))
    err = float(np.max(np.abs(f - prod)))
    return abs(err - trace[-1]) <= 1e-8 * trace[-1]


class NewmanSearch:
    """product_approx_search on the criterion-8 problem.  Its search seed
    stays 0: the frozen floor holds for that seed only (seed 4 reaches
    0.0479), so the benchmark seed does not change this sweep."""

    OPS = 1

    def __init__(self, seed: int):
        self.grid = discretize(normalize([[0.0, 1.0]]), 1.0 / 256)
        self.x = self.grid.as_array()
        self.f = np.abs(2.0 * self.x - 1.0)
        self.spec = products.ProductSpaceSpec(tuple(squares() for _ in range(4)))

    def run_pass(self):
        try:
            return products.product_approx_search(self.f, self.grid, self.spec,
                                                  **NEWMAN)
        except Exception as exc:  # counted as a failed operation
            _failed("search", exc)
            return None

    def certify(self) -> None:
        pass

    def failures(self, rep) -> set:
        return set() if rep is not None and check_newman(rep, self.x, self.f) \
            else {"search"}


class AcceptanceSweeps:
    """The three sweeps, in an order drawn from the seed.  One workload,
    so that each run measures all of them for the whole run length."""

    PARTS = dict(zip(SWEEPS, (RemezTrend, DensityProbe, NewmanSearch)))
    OPS = sum(cls.OPS for cls in PARTS.values())

    def __init__(self, seed: int):
        self.parts = {name: cls(seed) for name, cls in self.PARTS.items()}
        self.order = list(self.parts)
        random.Random(seed).shuffle(self.order)
        self.part_s: dict[str, float] = {}

    def run_pass(self) -> dict:
        out = {}
        for name in self.order:
            t0 = time.perf_counter()
            out[name] = self.parts[name].run_pass()
            self.part_s[name] = time.perf_counter() - t0
        return out

    def certify(self) -> None:
        for part in self.parts.values():
            part.certify()

    def failures(self, out: dict) -> set:
        return {(name, op) for name, part in self.parts.items()
                for op in part.failures(out[name])}


def run_passes(seed: int, seconds: float, trace: bool, short: bool) -> dict:
    workload = AcceptanceSweeps(seed)
    tracer = None
    if trace:
        from tracer import Tracer, layer_values, median_values

        tracer = Tracer()
    outputs = [] if short else [workload.run_pass()]  # lazy set-up lands here
    workload.certify()
    failed = sum(len(workload.failures(out)) for out in outputs)
    checked = len(outputs)
    times, layers = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.stats.clear()
        with tracer.active() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            out = workload.run_pass()
            times.append(time.perf_counter() - t0)
        if tracer is not None:
            layers.append({**layer_values(tracer.stats, tracer.missing),
                           **{f"{name}.pass_s": t
                              for name, t in workload.part_s.items()}})
        failed += len(workload.failures(out))
        checked += 1
        if short or time.perf_counter() - start >= seconds:
            break
    report = {"attempted": workload.OPS * checked, "failed": failed,
              "pass_s": times}
    if tracer is not None:
        report["layers"] = median_values(layers)
        report["missing"] = sorted(tracer.missing)
    return report


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        AcceptanceSweeps(int(argv[1]))
        elapsed = time.perf_counter() - _T0
        from common import machine_record

        print(json.dumps({"setup_s": elapsed, "machine": machine_record()}))
        return 0
    if argv[:1] == ["passes"] and len(argv) == 5:
        print(json.dumps(run_passes(int(argv[1]), float(argv[2]),
                                    argv[3] == "1", argv[4] == "1")))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
