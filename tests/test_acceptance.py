"""Acceptance suite: one test per criterion, each printing a PASS line.

Frozen [DERIVED] constants below were produced by independent oracle runs
(closed forms, brute-force enumeration, or pre-build calibration sweeps)
and must not be edited to make a failing build pass.
"""

import filecmp
import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from muntzlab.exponents import arithmetic, squares, truncate
from muntzlab.minimax import best_uniform_approx, chebyshev_T, growth_sweep
from muntzlab.muntzeval import basis_matrix
from muntzlab.products import (
    ProductSpaceSpec,
    estimate_alpha,
    four_squares,
    inequality_chain_report,
    monomial_in_H4,
    product_approx_search,
    verify_product_remez,
)
from muntzlab.remezlab import (
    default_set_family,
    density_probe,
    growth_ratios,
    named_target,
    remez_trend,
)
from muntzlab.sets import Grid, discretize, essential_supremum, fat_cantor, normalize


def report(k, msg):
    print(f"ACCEPTANCE {k}: PASS — {msg}")


# shared approximation corpus for criteria 2 and 3
def small_corpus():
    """(points, f, exponents) cases on grids of <= 12 points, dim <= 3."""
    rng = np.random.default_rng(2024)
    cases = []
    for exps, npts in [([0.0, 1.0], 8), ([0.0, 1.0, 2.0], 9),
                       ([0.0, 0.5, 3.0], 10), ([0.0, 2.0, 5.0], 12),
                       ([0.0, 1.0, 4.0], 11)]:
        pts = np.sort(rng.uniform(0.0, 1.0, npts))
        for _ in range(4):
            cases.append((pts, rng.standard_normal(npts), exps))
    return cases


def large_corpus():
    """Dense-grid cases exercising realistic targets and spans."""
    g = discretize(normalize([[0.0, 1.0]]), 1e-3)
    x = g.as_array()
    cases = []
    for name in ("abs2x1", "runge", "monomial(2.5)"):
        f = named_target(name)(x)
        for exps in ([0.0, 1.0], [0.0, 1.0, 4.0, 9.0],
                     [0.0, 0.5, 2.0, 4.5, 8.0]):
            cases.append((g, f, exps))
    gc = discretize(fat_cantor(4), 1e-3)
    cases.append((gc, named_target("abs2x1")(gc.as_array()), [0.0, 1.0, 4.0]))
    return cases


def brute_force_minimax(x, f, exps):
    m = len(exps)
    V = basis_matrix(np.asarray(x, float), exps)
    sigma = np.array([(-1.0) ** i for i in range(m + 1)])
    best = 0.0
    for S in itertools.combinations(range(len(x)), m + 1):
        A = np.column_stack([V[list(S)], sigma])
        try:
            sol = np.linalg.solve(A, np.asarray(f, float)[list(S)])
        except np.linalg.LinAlgError:
            continue
        best = max(best, abs(sol[m]))
    return best


def test_criterion_1_classical_remez():
    # [DERIVED] closed form T_n((2-s)/s); pinned values 3 and 17
    worst = 0.0
    for n in range(1, 6):
        for s in (0.25, 0.5, 0.75):
            grid = discretize(normalize([[1.0 - s, 1.0]]), 1e-3)
            t0 = time.perf_counter()
            got = growth_sweep(list(range(n + 1)), grid, [0.0])[0].value
            dt = time.perf_counter() - t0
            assert dt < 10.0, f"solve took {dt:.1f} s at n={n}, s={s}"
            want = chebyshev_T(n, (2.0 - s) / s)
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel < 0.01, f"n={n} s={s}: {got} vs {want}"
            if (n, s) == (1, 0.5):
                assert got == pytest.approx(3.0, rel=1e-6)
            if (n, s) == (2, 0.5):
                assert got == pytest.approx(17.0, rel=1e-6)
    report(1, f"15 (n, s) cases within 1% of T_n((2-s)/s); "
              f"worst relative error {worst:.2e}")


def test_criterion_2_equioscillation_certificates():
    checked = 0
    for pts, f, exps in small_corpus():
        grid = Grid(tuple(float(t) for t in pts))
        res = best_uniform_approx(f, grid, exps)
        _check_certificate(res, f, pts, exps)
        checked += 1
    for grid, f, exps in large_corpus():
        res = best_uniform_approx(f, grid, exps)
        _check_certificate(res, f, grid.as_array(), exps)
        checked += 1
    report(2, f"{checked}/{checked} corpus results carry dim+1 alternating "
              "references with relative_gap <= 1e-6")


def _check_certificate(res, f, x, exps):
    m = len(exps)
    assert len(res.reference_points) == m + 1
    assert res.relative_gap <= 1e-6
    # alternating residual signs along the reference
    f = np.asarray(f, float)
    idx = [int(np.argmin(np.abs(x - t))) for t in res.reference_points]
    r = f[idx] - np.asarray(res.approximant(np.asarray(x)[idx]))
    signs = np.sign(r)
    assert all(s != 0 for s in signs)
    assert all(a * b < 0 for a, b in zip(signs, signs[1:]))


def test_criterion_3_oracle_equivalence():
    checked = 0
    for pts, f, exps in small_corpus():
        grid = Grid(tuple(float(t) for t in pts))
        got = best_uniform_approx(f, grid, exps).error
        want = brute_force_minimax(pts, f, exps)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-12)
        checked += 1
    report(3, f"{checked} small-grid cases match the brute-force "
              "reference-enumeration oracle within 1e-6 relative")


# [DERIVED] pre-build oracle run, fat_cantor(6), target |2x-1|, mesh 1e-3:
#   arithmetic(1): E_8 = 2.85943e-3, E_16 = 1.42207e-4  (95.0% decrease)
#   squares:       E_8 = 1.84501e-2, E_16 = 1.23180e-2  (33.2% decrease)
# frozen thresholds: separation factor >= 70 at n=16 (observed 86.6),
# squares decrease < 36%, arithmetic decrease > 90%.  The criterion's
# illustrative 10%/50% figures predate the oracle and were re-calibrated
# once against it, then frozen.
DICHOTOMY_SEPARATION_FLOOR = 70.0
SQUARES_DECREASE_CEIL = 0.36
ARITH_DECREASE_FLOOR = 0.90


def test_criterion_4_muntz_dichotomy_probe():
    A = fat_cantor(6)
    assert A.measure() == pytest.approx(0.5078125, abs=1e-15)
    probes = {
        "arith": density_probe("abs2x1", arithmetic(1.0), A, [8, 16], 1e-3),
        "squares": density_probe("abs2x1", squares(), A, [8, 16], 1e-3),
    }
    e = {k: dict(v.errors_by_n) for k, v in probes.items()}
    separation = e["squares"][16] / e["arith"][16]
    sq_dec = 1.0 - e["squares"][16] / e["squares"][8]
    ar_dec = 1.0 - e["arith"][16] / e["arith"][8]
    assert separation >= DICHOTOMY_SEPARATION_FLOOR
    assert sq_dec < SQUARES_DECREASE_CEIL
    assert ar_dec > ARITH_DECREASE_FLOOR
    report(4, f"separation {separation:.1f} >= {DICHOTOMY_SEPARATION_FLOOR}; "
              f"squares decrease {sq_dec:.1%} < {SQUARES_DECREASE_CEIL:.0%}, "
              f"arithmetic decrease {ar_dec:.1%} > {ARITH_DECREASE_FLOOR:.0%}")


# [DERIVED] pre-build oracle, s = 0.25, rho = 0.5, default family, mesh 1e-3:
# squares ratios c_{n+1}/c_n = 7.000, 7.008, 4.76, 3.64, 2.98, 2.56, 2.26,
# 2.04, 1.88, 1.75, 1.65, 1.57 -> strictly decreasing from n >= 1 onward
# and below 1.6 at the end; arithmetic(1) ratios hover near 7 + sqrt(48).
SQUARES_FINAL_RATIO_CEIL = 1.6
ARITH_RATIO_FLOOR = 5.0


def test_criterion_5_remez_constant_trend():
    t0 = time.perf_counter()
    s, rho, mesh = 0.25, 0.5, 1e-3
    fam = default_set_family(s, rho)
    sq = remez_trend(squares(), 12, s, rho, fam, mesh)
    ar = remez_trend(arithmetic(1.0), 12, s, rho, fam, mesh)
    rs = [r for _, r in growth_ratios(sq)]
    ra = [r for _, r in growth_ratios(ar)]
    # squares: ratios decrease monotonically toward 1 (allow the initial
    # step, where c_0 = c_1 = trivial constants dominate)
    for r0, r1 in zip(rs[1:], rs[2:]):
        assert r1 <= r0 * (1 + 1e-9), f"squares ratios not decreasing: {rs}"
    assert all(r >= 1.0 - 1e-9 for r in rs)
    assert rs[-1] < SQUARES_FINAL_RATIO_CEIL
    # arithmetic: ratios stay high (the space keeps its full Remez growth)
    assert all(r >= ARITH_RATIO_FLOOR for r in ra[1:]), ra
    dt = time.perf_counter() - t0
    assert dt < 300.0
    report(5, f"squares ratios decrease 7.00 -> {rs[-1]:.3f} (< "
              f"{SQUARES_FINAL_RATIO_CEIL}); arithmetic ratios stay >= "
              f"{ARITH_RATIO_FLOOR} (min {min(ra[1:]):.2f}); sweep {dt:.0f} s")


def test_criterion_6_product_chain():
    n, s, rho, k = 6, 0.25, 0.5, 2
    spec = ProductSpaceSpec((squares(), squares()))
    alphas = [
        estimate_alpha(seq, n, s, k, budget=25, seed=42, mesh=1e-3, j=j)
        for j, seq in enumerate(spec.sequences)
    ]
    chain = inequality_chain_report(spec, n, s, rho, alphas, budget=25,
                                    seed=42, mesh=1e-3)
    assert chain.measure_violations == 0
    assert chain.norm_violations == 0
    out = verify_product_remez(spec, n, s, rho, alphas, budget=200,
                               seed=43, mesh=1e-3)
    assert out.samples >= 190
    assert out.violations <= 2
    report(6, f"in-sample chain: 0/{chain.checks} violations; out-of-sample: "
              f"{out.violations}/{out.samples} (<= 2) at c = {out.c:.3e}")


def test_criterion_7_h4_monomials():
    grid = discretize(normalize([[0.0, 1.0]]), 1e-3)  # 1001 points
    assert len(grid) == 1001
    worst = 0.0
    for n in range(0, 101):
        w = monomial_in_H4(n, grid)
        a, b, c, d = w.decomposition
        assert a * a + b * b + c * c + d * d == n
        worst = max(worst, w.max_abs_deviation)
        assert w.max_abs_deviation <= 1e-12
    for n in range(0, 10_001):
        a, b, c, d = four_squares(n)
        assert a * a + b * b + c * c + d * d == n
        assert a >= b >= c >= d >= 0
    report(7, f"monomials n <= 100 in H4 with max deviation {worst:.2e} "
              "(<= 1e-12); four-square identity exhaustive for n <= 10^4")


# [DERIVED] pre-build oracle: |2x-1| vs H4 products, n = 6, 20 rounds,
# 5 restarts, seed 0, 257-point grid -> search stalls at 5.6349e-2; the
# floor is frozen slightly below it.
NEWMAN_FLOOR = 0.05


def test_criterion_8_newman_floor():
    t0 = time.perf_counter()
    grid = discretize(normalize([[0.0, 1.0]]), 1.0 / 256)
    x = grid.as_array()
    f = named_target("abs2x1")(x)
    spec = ProductSpaceSpec(tuple(squares() for _ in range(4)))
    rep = product_approx_search(f, grid, spec, n=6, rounds=20, seed=0,
                                restarts=5)
    trace = rep.best_error_by_round
    for e0, e1 in zip(trace, trace[1:]):
        assert e1 <= e0 + 1e-15
    assert trace[-1] >= NEWMAN_FLOOR
    dt = time.perf_counter() - t0
    assert dt < 600.0
    report(8, f"search floor {trace[-1]:.4e} >= {NEWMAN_FLOOR} after 20 "
              f"rounds x 5 restarts; trace nonincreasing; {dt:.0f} s")


def test_criterion_9_set_arithmetic():
    for K in range(0, 11):
        m = fat_cantor(K).measure()
        assert abs(m - (0.5 + 2.0 ** (-(K + 1)))) <= 1e-12
    rng = np.random.default_rng(99)
    cases = 0
    while cases < 50:
        raw = [sorted(rng.uniform(0, 1, 2)) for _ in range(rng.integers(1, 5))]
        fat = [p for p in raw if p[1] > p[0]]
        if not fat:
            continue
        base = essential_supremum(normalize(fat))
        singletons = [[t, t] for t in rng.uniform(0, 1, 3)]
        assert essential_supremum(normalize(fat + singletons)) == base
        cases += 1
    report(9, "fat Cantor measures exact to 1e-12 for K <= 10; essential "
              f"supremum ignored singletons in {cases}/50 random cases")


def test_criterion_10_cli_determinism(tmp_path):
    configs = {
        "classical": {"n_list": [1, 2], "s_list": [0.5], "mesh": 1e-3},
        "products": {"task": "alpha", "sequences": [{"kind": "squares"}],
                     "n": 2, "s": 0.25, "k": 1, "budget": 5, "mesh": 1e-2},
    }
    for cmd, cfg in configs.items():
        cfg_path = tmp_path / f"{cmd}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}_{tag}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "muntzlab.cli", cmd,
                 "--config", str(cfg_path), "--out", str(out), "--seed", "7"],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(str(out))
        assert filecmp.cmp(*outs, shallow=False)
    report(10, "repeated CLI runs (classical, products alpha) produced "
               "byte-identical CSVs")
