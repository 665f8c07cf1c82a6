import math
import sys

import numpy as np
import pytest

import muntzlab.products as products
from muntzlab.errors import ConfigError, UnboundedGrowthError
from muntzlab.exponents import arithmetic, explicit, squares, truncate
from muntzlab.minimax import best_uniform_approx, discrete_minimax_lp
from muntzlab.muntzeval import MuntzPolynomial, basis_matrix
from muntzlab.products import (
    ProductPolynomial,
    ProductSpaceSpec,
    draw_alpha_samples,
    estimate_alpha,
    eval_product,
    four_squares,
    inequality_chain_report,
    monomial_in_H4,
    product_approx_search,
    verify_product_remez,
    violates_product_bound,
)
from muntzlab.sets import discretize, normalize


def test_eval_product():
    # (x)(x^2) = x^3
    P = ProductPolynomial((
        MuntzPolynomial((1.0,), (1.0,)),
        MuntzPolynomial((2.0,), (1.0,)),
    ))
    x = np.linspace(0, 1, 11)
    assert eval_product(P, x) == pytest.approx(x ** 3)
    assert P(0.5) == pytest.approx(0.125)


def test_eval_product_is_the_product_of_the_factors():
    # four squares factors of n = 6 on 257 points: the bits of the loop that
    # multiplied basis_matrix columns into a vector of ones
    rng = np.random.default_rng(0)
    exps = tuple(float(i * i) for i in range(7))
    P = ProductPolynomial(tuple(
        MuntzPolynomial(exps, tuple(rng.standard_normal(7).tolist()))
        for _ in range(4)))
    def loop(x):
        vals = np.ones_like(x)
        for p in P.factors:
            vals = vals * (basis_matrix(x, p.exponents) @ np.asarray(p.coefficients))
        return vals

    x = np.linspace(0.0, 1.0, 257)
    assert eval_product(P, x).tobytes() == loop(x).tobytes()
    assert P(0.5) == float(loop(np.array([0.5]))[0])


def test_draw_alpha_samples_deterministic():
    seq = squares()
    a = draw_alpha_samples(seq, 3, 0.25, 5, seed=11, mesh=1e-2)
    b = draw_alpha_samples(seq, 3, 0.25, 5, seed=11, mesh=1e-2)
    assert len(a) == len(b) >= 5
    for p, q in zip(a, b):
        assert p.coefficients == q.coefficients
    c = draw_alpha_samples(seq, 3, 0.25, 5, seed=12, mesh=1e-2)
    assert any(p.coefficients != q.coefficients for p, q in zip(a, c))
    with pytest.raises(ConfigError):
        draw_alpha_samples(seq, 3, 0.25, 0, seed=1, mesh=1e-2)


def test_estimate_alpha_basic_properties():
    est = estimate_alpha(squares(), 3, 0.25, 2, budget=10, seed=5, mesh=1e-2)
    assert est.alpha >= 1.0
    assert est.k == 2 and est.s == 0.25
    assert est.sample_count >= 10
    with pytest.raises(ConfigError):
        estimate_alpha(squares(), 3, 1.5, 2, budget=5, seed=5, mesh=1e-2)
    for k in (0, -1):
        with pytest.raises(ConfigError, match="k must be >= 1"):
            estimate_alpha(squares(), 3, 0.25, k, budget=5, seed=5, mesh=1e-2)


def test_estimate_alpha_monotone_in_budget():
    # a superset of samples can only raise the required alpha
    lo = estimate_alpha(squares(), 3, 0.25, 2, budget=5, seed=5, mesh=1e-2)
    hi = estimate_alpha(squares(), 3, 0.25, 2, budget=15, seed=5, mesh=1e-2)
    # different budgets draw different streams, so compare loosely: both
    # must cover their own samples
    assert lo.alpha >= 1.0 and hi.alpha >= 1.0


def uncovered(samples, alpha, s, k, mesh):
    """The (sample, y) pairs whose superlevel set at threshold
    |p(y)| / alpha, tested as inequality_chain_report tests it, falls short
    of the measure 1 - y - s/(2k) on the cells of [y, 1]."""
    bad = []
    for y in products.alpha_y_grid(s):
        mids, w = products._cells(y, mesh)
        target = 1.0 - y - s / (2 * k)
        for i, p in enumerate(samples):
            pv = np.abs(np.asarray(p(mids)))
            py = abs(float(p(y)))
            if w * int(np.count_nonzero(pv > py / alpha)) < target - 1e-12:
                bad.append((i, float(y)))
    return bad


def assert_smallest_alpha(est, samples, mesh):
    """Defining property, with no slack: every sample satisfies the
    superlevel bound at every y of the estimation grid at alpha, and some
    sample fails it at the next float below."""
    assert len(samples) == est.sample_count
    assert type(est.alpha) is float and est.alpha > 1.0
    assert uncovered(samples, est.alpha, est.s, est.k, mesh) == []
    assert uncovered(samples, math.nextafter(est.alpha, 0.0), est.s, est.k,
                     mesh)


def test_alpha_covers_its_own_samples():
    est = estimate_alpha(squares(), 3, 0.25, 2, budget=8, seed=3, mesh=1e-2)
    samples = draw_alpha_samples(squares(), 3, 0.25, 8, seed=3, mesh=1e-2)
    assert_smallest_alpha(est, samples, 1e-2)


@pytest.mark.parametrize("j", [0, 1])
def test_criterion_6_alphas_are_the_smallest(j):
    # both factors of the criterion-6 chain share the extremal that sets
    # their alpha
    est = estimate_alpha(squares(), 6, 0.25, 2, 25, 42, 1e-3, j=j)
    assert est.alpha == 17090.79100928129
    samples = draw_alpha_samples(squares(), 6, 0.25, 25, 42, 1e-3, j=j)
    assert_smallest_alpha(est, samples, 1e-3)


def test_needed_alpha_is_exact_or_refused():
    w, target = 0.25, 0.75  # three of the four cells are needed
    # the third largest value is 0: no finite alpha, whether p(y) is 0 or not
    for py in (0.0, 1.0):
        with pytest.raises(UnboundedGrowthError, match="no finite alpha"):
            products._needed_alpha(np.array([0.0, 0.0, 1.0, 2.0]), w, py,
                                   target)
    # a finite alpha far above 1e15 is returned, and it is the smallest
    pv = np.array([0.0, 3e-17, 1.0, 2.0])
    alpha = products._needed_alpha(pv, w, 1.0, target)
    assert alpha > 1e16
    assert np.count_nonzero(pv > 1.0 / alpha) == 3
    assert np.count_nonzero(pv > 1.0 / math.nextafter(alpha, 0.0)) == 2
    # a target of 0 needs no cell, so alpha is 1
    assert products._needed_alpha(pv, w, 1.0, 0.0) == 1.0


def test_verify_product_remez_no_violations():
    s, rho, n = 0.25, 0.5, 3
    spec = ProductSpaceSpec((squares(), arithmetic(1.0)))
    alphas = [
        estimate_alpha(seq, n, s, spec.k, budget=10, seed=21, mesh=1e-2, j=j)
        for j, seq in enumerate(spec.sequences)
    ]
    rep = verify_product_remez(spec, n, s, rho, alphas, budget=40,
                               seed=22, mesh=1e-2)
    assert rep.samples > 0
    assert rep.violations == 0
    assert rep.c == pytest.approx(alphas[0].alpha * alphas[1].alpha)
    assert all(r <= rep.c * (1 + 1e-9) for r in rep.ratios)


def test_violation_rule_reads_two_norms_or_their_ratio():
    # a ratio r is (r, 1.0, c); two norms need no division, so a product
    # that vanishes on A violates unless it vanishes on [0, rho] as well
    c = 3.0
    edge = c * (1.0 + 1e-9)
    assert not violates_product_bound(edge, 1.0, c)
    assert violates_product_bound(np.nextafter(edge, np.inf), 1.0, c)
    assert not violates_product_bound(2.0 * edge, 2.0, c)
    assert violates_product_bound(1e-300, 0.0, c)
    assert not violates_product_bound(0.0, 0.0, c)


def test_verify_product_remez_validation():
    # both consumers of alpha estimates refuse the same bad inputs
    spec = ProductSpaceSpec((squares(), arithmetic(1.0)))
    a = estimate_alpha(squares(), 2, 0.25, 2, budget=3, seed=1, mesh=1e-2)
    # estimates made for another s, or for another k
    b = estimate_alpha(squares(), 2, 0.5, 2, budget=3, seed=1, mesh=1e-2)
    c = estimate_alpha(squares(), 2, 0.25, 1, budget=3, seed=1, mesh=1e-2)
    for check in (verify_product_remez, inequality_chain_report):
        with pytest.raises(ConfigError, match="one alpha estimate per factor"):
            check(spec, 2, 0.25, 0.5, [a], 5, 1, 1e-2)
        for bad in ([a, b], [a, c]):
            with pytest.raises(ConfigError, match="do not match"):
                check(spec, 2, 0.25, 0.5, bad, 5, 1, 1e-2)


def test_verify_product_remez_refuses_a_set_past_1():
    # a set of measure s inside [rho, 1] needs rho + s <= 1; past it the
    # sampled sets would reach beyond 1, where the products are unchecked
    spec = ProductSpaceSpec((squares(),))
    a = estimate_alpha(squares(), 3, 0.25, 1, budget=3, seed=1, mesh=1e-2)
    with pytest.raises(ConfigError, match=r"fits in \[rho, 1\]"):
        verify_product_remez(spec, 3, 0.25, 0.9, [a], 5, 1, 1e-2)


def test_inequality_chain_in_sample():
    # in-sample products must satisfy the derivation step-by-step
    s, rho, n = 0.25, 0.5, 3
    spec = ProductSpaceSpec((squares(), arithmetic(1.0)))
    alphas = [
        estimate_alpha(seq, n, s, spec.k, budget=8, seed=9, mesh=1e-2, j=j)
        for j, seq in enumerate(spec.sequences)
    ]
    rep = inequality_chain_report(spec, n, s, rho, alphas, budget=8,
                                  seed=9, mesh=1e-2)
    assert rep.checks > 0
    assert rep.measure_violations == 0
    assert rep.norm_violations == 0


def test_four_squares_known_values():
    assert four_squares(0) == (0, 0, 0, 0)
    assert four_squares(1) == (1, 0, 0, 0)
    assert four_squares(5) == (2, 1, 0, 0)
    assert four_squares(7) == (2, 1, 1, 1)
    assert four_squares(12) == (3, 1, 1, 1)
    with pytest.raises(ConfigError):
        four_squares(-1)


def test_four_squares_exhaustive():
    for n in range(0, 2000):
        a, b, c, d = four_squares(n)
        assert a >= b >= c >= d >= 0
        assert a * a + b * b + c * c + d * d == n


def test_monomial_in_h4():
    g = discretize(normalize([[0.0, 1.0]]), 1e-2)
    for n in (1, 5, 12, 30, 100):
        w = monomial_in_H4(n, g)
        a, b, c, d = w.decomposition
        assert a * a + b * b + c * c + d * d == n
        assert w.max_abs_deviation <= 1e-12
        assert len(w.factors.factors) == 4
        for p in w.factors.factors:
            lam = int(p.exponents[0])
            assert int(round(lam ** 0.5)) ** 2 == lam  # square exponent


def test_search_k1_matches_linear_minimax():
    # with one factor the product search is an ordinary linear minimax
    g = discretize(normalize([[0.0, 1.0]]), 1e-2)
    x = g.as_array()
    f = np.abs(2 * x - 1)
    spec = ProductSpaceSpec((arithmetic(1.0),))
    rep = product_approx_search(f, g, spec, n=3, rounds=3, seed=0)
    want = best_uniform_approx(f, g, truncate(arithmetic(1.0), 3)).error
    assert rep.best_error_by_round[-1] == pytest.approx(want, rel=1e-6)


def test_search_trace_nonincreasing_and_deterministic():
    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 64)
    x = g.as_array()
    f = x ** 4
    spec = ProductSpaceSpec((squares(), squares()))
    rep1 = product_approx_search(f, g, spec, n=2, rounds=5, seed=3, restarts=2)
    rep2 = product_approx_search(f, g, spec, n=2, rounds=5, seed=3, restarts=2)
    assert rep1.best_error_by_round == rep2.best_error_by_round
    trace = rep1.best_error_by_round
    for e0, e1 in zip(trace, trace[1:]):
        assert e1 <= e0 + 1e-15
    # x^4 = (x^1)(x^... ) wait: squares truncated at n=2 is {1, x, x^4};
    # x^4 * 1 lies in the product space, so the search can reach ~0
    assert trace[-1] <= 1e-8
    # reported best factors reproduce the reported error
    got = np.max(np.abs(f - eval_product(rep1.best, x)))
    assert got == pytest.approx(trace[-1], abs=1e-12)


def test_search_validation():
    g = discretize(normalize([[0.0, 1.0]]), 0.25)
    spec = ProductSpaceSpec((squares(),))
    with pytest.raises(ConfigError):
        product_approx_search(np.zeros(3), g, spec, 1, 2, 0)
    with pytest.raises(ConfigError):
        product_approx_search(np.zeros(len(g)), g, spec, 1, 0, 0)
    with pytest.raises(ConfigError):
        ProductSpaceSpec(())


def test_spec_k():
    assert ProductSpaceSpec((squares(), squares(), explicit([0.0, 2.0]))).k == 3


# ------------------------------------------ search without the fixed point


def plain_coordinate_descent(f, x, spec, n, rounds, seed, restarts):
    """The search loop with every LP solved afresh in every round, each
    from the reference of its factor's last answer as the search starts
    it: the oracle for the fixed-point stop in product_approx_search."""
    V = [basis_matrix(x, truncate(seq, n)) for seq in spec.sequences]
    dims = [v.shape[1] for v in V]
    rng = np.random.default_rng([seed, 777])

    best_by_round = [math.inf] * rounds
    best_err = math.inf
    best_coeffs = None
    starts = [None] * spec.k
    for restart in range(restarts):
        coeffs = []
        for j in range(spec.k):
            c = np.zeros(dims[j])
            c[0] = 1.0
            if restart > 0:
                c = c + 0.5 * rng.standard_normal(dims[j])
            coeffs.append(c)
        F = [V[j] @ coeffs[j] for j in range(spec.k)]
        cur = float(np.max(np.abs(f - np.prod(F, axis=0))))
        for t in range(rounds):
            for j in range(spec.k):
                g = np.prod([F[i] for i in range(spec.k) if i != j], axis=0) \
                    if spec.k > 1 else np.ones_like(x)
                if not np.any(g):
                    # dead product: perturb this factor's complement
                    for i in range(spec.k):
                        if i != j:
                            coeffs[i] = coeffs[i] + 0.1 * rng.standard_normal(dims[i])
                            F[i] = V[i] @ coeffs[i]
                    cur = float(np.max(np.abs(f - np.prod(F, axis=0))))
                    continue
                B = g[:, None] * V[j]
                c_new, err, starts[j] = discrete_minimax_lp(B, f, starts[j])
                if err <= cur:
                    coeffs[j] = c_new
                    F[j] = V[j] @ c_new
                    cur = err
            now = float(np.max(np.abs(f - np.prod(F, axis=0))))
            if now < best_by_round[t]:
                best_by_round[t] = now
            if now < best_err:
                best_err = now
                best_coeffs = [c.copy() for c in coeffs]
        # a later restart must not raise the recorded floor of earlier rounds
        for t in range(1, rounds):
            best_by_round[t] = min(best_by_round[t], best_by_round[t - 1])
    return best_by_round, best_coeffs


def assert_same_bits(rep, oracle):
    best_by_round, best_coeffs = oracle
    assert np.array(rep.best_error_by_round).tobytes() == \
        np.array(best_by_round).tobytes()
    assert len(rep.best.factors) == len(best_coeffs)
    for p, c in zip(rep.best.factors, best_coeffs):
        assert np.array(p.coefficients).tobytes() == c.tobytes()


def counting_lp(monkeypatch, module):
    """Record the (B, f) bytes of every LP that `module` solves."""
    calls = []
    real = module.discrete_minimax_lp

    def lp(B, f, start=None):
        calls.append(B.tobytes() + f.tobytes())
        return real(B, f, start)

    monkeypatch.setattr(module, "discrete_minimax_lp", lp)
    return calls


# searches on criterion 8's grid and target, 20 rounds and 5 restarts:
# (factors, n, LPs the search poses, its last entry).  The first is
# criterion 8; the mixed one alternates squares and arithmetic(1).
FIXED_POINT_SEARCHES = {
    "criterion 8": ((squares(),) * 4, 6, 137, 5.634587149095405e-2),
    "arithmetic(1) x 4": ((arithmetic(1.0),) * 4, 10, 164,
                          2.7835565781444416e-2),
    "mixed k = 3": ((squares(), arithmetic(1.0), squares()), 8, 102,
                    6.0610302733894006e-2),
}


@pytest.mark.parametrize("search", FIXED_POINT_SEARCHES)
def test_search_stops_each_restart_at_its_fixed_point(monkeypatch, search):
    sequences, n, posed_lps, last = FIXED_POINT_SEARCHES[search]
    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 256)
    x = g.as_array()
    f = np.abs(2 * x - 1)
    spec = ProductSpaceSpec(sequences)
    args = dict(n=n, rounds=20, seed=0, restarts=5)
    calls = counting_lp(monkeypatch, products)
    rep = product_approx_search(f, g, spec, **args)
    oracle_calls = counting_lp(monkeypatch, sys.modules[__name__])
    oracle = plain_coordinate_descent(f, x, spec, **args)
    assert_same_bits(rep, oracle)
    # the reported error is the residual of the factors that are returned,
    # to the bit
    assert rep.best_error_by_round[-1] == last
    assert rep.best_error_by_round[-1] == np.max(
        np.abs(f - eval_product(rep.best, x)))
    # no dead product here, so oracle LP i is restart i // per_restart.
    # Each restart of the search poses the first LPs of the oracle's same
    # restart, and stops where every later oracle input repeats the one k
    # LPs before it
    per_restart = spec.k * args["rounds"]
    assert len(oracle_calls) == per_restart * args["restarts"]
    pos = 0
    for r in range(args["restarts"]):
        restart = oracle_calls[per_restart * r:per_restart * (r + 1)]
        posed = 0
        while pos + posed < len(calls) and posed < per_restart and \
                calls[pos + posed] == restart[posed]:
            posed += 1
        pos += posed
        assert posed >= spec.k
        assert all(restart[i] == restart[i - spec.k]
                   for i in range(posed, per_restart))
    assert pos == len(calls) == posed_lps


def test_search_k1_matches_plain_descent_with_one_lp_per_restart(monkeypatch):
    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 64)
    x = g.as_array()
    f = np.abs(2 * x - 1)
    spec = ProductSpaceSpec((arithmetic(1.0),))
    args = dict(n=3, rounds=4, seed=0, restarts=3)
    calls = counting_lp(monkeypatch, products)
    rep = product_approx_search(f, g, spec, **args)
    assert len(calls) == 3
    assert_same_bits(rep, plain_coordinate_descent(f, x, spec, **args))


@pytest.mark.parametrize("k, target, n", [
    (2, "zero", 3),
    (3, "zero", 3),
    (3, "cheb3", 2),
])
def test_search_matches_plain_descent_through_dead_products(monkeypatch, k,
                                                            target, n):
    # f = 0 drives factors to 0, and so does T_3(2x - 1), whose best
    # approximation from span{1, x, x^4} is 0; products of the others then
    # vanish and the dead-product perturbation fires.  The T_3 case also
    # needs the perturbed factors' versions to rise.
    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 64)
    x = g.as_array()
    f = np.zeros_like(x) if target == "zero" else np.cos(3 * np.arccos(2 * x - 1))
    spec = ProductSpaceSpec(tuple(squares() for _ in range(k)))
    args = dict(n=n, rounds=6, seed=0, restarts=3)
    rep = product_approx_search(f, g, spec, **args)
    oracle_calls = counting_lp(monkeypatch, sys.modules[__name__])
    oracle = plain_coordinate_descent(f, x, spec, **args)
    assert len(oracle_calls) < k * args["rounds"] * args["restarts"]
    assert_same_bits(rep, oracle)


@pytest.mark.parametrize("k, target, seed, n", [
    (2, "zero", 0, 2), (2, "zero", 0, 3), (3, "zero", 7, 2), (4, "zero", 3, 3),
    (2, "cheb3", 3, 2), (4, "cheb3", 7, 3),
])
def test_search_reports_the_residual_of_its_factors(k, target, seed, n):
    # a dead-product perturbation moves the factors, and the error is
    # measured again there: the last entry is the residual of `best` (it
    # once read 0.0 for a residual of 0.2368 at the first case), and each
    # entry is the best over the rounds so far.  Both residuals multiply
    # the factors' values in one order, so they agree to the bit
    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 64)
    x = g.as_array()
    f = np.zeros_like(x) if target == "zero" else np.cos(3 * np.arccos(2 * x - 1))
    spec = ProductSpaceSpec(tuple(squares() for _ in range(k)))
    rep = product_approx_search(f, g, spec, n, rounds=6, seed=seed, restarts=3)
    trace = rep.best_error_by_round
    assert trace[-1] == np.max(np.abs(f - eval_product(rep.best, x)))
    assert all(b <= a for a, b in zip(trace, trace[1:]))


@pytest.mark.parametrize("k, target, seed, space, n", [
    (2, "x4", 3, "mixed", 3),
    (4, "x4", 7, "mixed", 3),
    (2, "cheb3", 7, "mixed", 2),
    (3, "cheb3", 3, "mixed", 2),
    (4, "cheb3", 7, "squares", 2),
])
def test_search_matches_plain_descent(monkeypatch, k, target, seed, space, n):
    # more factors, seeds and spaces; mixed alternates squares and
    # arithmetic(1).  T_3(2x - 1) at n = 2 makes dead products here too.
    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 64)
    x = g.as_array()
    f = x ** 4 if target == "x4" else np.cos(3 * np.arccos(2 * x - 1))
    spec = ProductSpaceSpec(tuple(
        arithmetic(1.0) if space == "mixed" and j % 2 else squares()
        for j in range(k)))
    args = dict(n=n, rounds=8, seed=seed, restarts=3)
    rep = product_approx_search(f, g, spec, **args)
    oracle_calls = counting_lp(monkeypatch, sys.modules[__name__])
    oracle = plain_coordinate_descent(f, x, spec, **args)
    full = k * args["rounds"] * args["restarts"]
    assert (len(oracle_calls) < full) == (target == "cheb3")
    assert_same_bits(rep, oracle)


def test_alpha_samples_hold_one_extremal_and_keep_alpha():
    # the README products example: budget 25 random samples plus the one
    # set-Chebyshev extremal that every query in [0, 1 - s) shares
    samples = draw_alpha_samples(squares(), 4, 0.25, 25, seed=42, mesh=1e-3)
    assert len(samples) == 26
    assert len({p.coefficients for p in samples}) == len(samples)
    est = estimate_alpha(squares(), 4, 0.25, 1, 25, 42, 1e-3)
    assert est.alpha == 1217.1235377985952
    assert_smallest_alpha(est, samples, 1e-3)
