import itertools
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muntzlab.minimax as minimax
from muntzlab.errors import (
    ConditioningError,
    ConfigError,
    ConvergenceError,
    UnboundedGrowthError,
)
from muntzlab.minimax import (
    best_uniform_approx,
    chebyshev_T,
    discrete_minimax_lp,
    growth_functional,
    growth_sweep,
    orthonormalize,
)
from muntzlab.exponents import arithmetic, squares, truncate
from muntzlab.muntzeval import basis_matrix
from muntzlab.sets import Grid, discretize, fat_cantor, normalize


def unit_grid(mesh=1e-3):
    return discretize(normalize([[0.0, 1.0]]), mesh)


def brute_force_minimax(x, f, exps):
    """Independent oracle: on a finite grid the minimax error from a
    Chebyshev system of dimension m equals the largest leveled error over
    all (m+1)-point sub-grids (solve the alternation system on each)."""
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


def loop_alternating_extrema(r):
    """Reference for minimax._alternating_extrema: the per-point loop it
    replaced."""
    out = []
    cur_sign = 0.0
    cur_best = -1
    for i, ri in enumerate(r):
        s = math.copysign(1.0, ri) if ri != 0.0 else 0.0
        if s == 0.0:
            continue
        if s != cur_sign:
            if cur_best >= 0:
                out.append(cur_best)
            cur_sign = s
            cur_best = i
        elif abs(ri) > abs(r[cur_best]):
            cur_best = i
    if cur_best >= 0:
        out.append(cur_best)
    return out


def loop_trim_reference(ext, r, size):
    """Reference for minimax._trim_reference: the loop it replaced."""
    ext = list(ext)
    while len(ext) > size:
        if len(ext) - size == 1:
            # drop the weaker endpoint
            if abs(r[ext[0]]) <= abs(r[ext[-1]]):
                ext.pop(0)
            else:
                ext.pop()
        else:
            # drop the adjacent pair with the smallest peak
            pair = min(
                range(len(ext) - 1),
                key=lambda i: max(abs(r[ext[i]]), abs(r[ext[i + 1]])),
            )
            del ext[pair:pair + 2]
    return ext


# ---------------------------------------------------------------- chebyshev


def test_chebyshev_closed_forms():
    assert chebyshev_T(0, 0.37) == 1.0
    assert chebyshev_T(1, 0.37) == pytest.approx(0.37)
    # T_2(x) = 2x^2 - 1, T_3(x) = 4x^3 - 3x, inside and outside [-1, 1]
    for x in (-2.0, -0.3, 0.0, 0.9, 1.0, 3.0, 7.0):
        assert chebyshev_T(2, x) == pytest.approx(2 * x * x - 1, rel=1e-12)
        assert chebyshev_T(3, x) == pytest.approx(4 * x ** 3 - 3 * x, rel=1e-12)
    assert chebyshev_T(5, 1.0) == pytest.approx(1.0)
    assert chebyshev_T(4, 7.0) == pytest.approx(18817.0)  # 8*7^4 - 8*7^2 + 1
    with pytest.raises(ConfigError):
        chebyshev_T(-1, 0.5)


# ----------------------------------------------------------- orthonormalize


def test_orthonormalize_reconstructs():
    x = unit_grid(0.01).as_array()
    V = basis_matrix(x, [0.0, 1.0, 4.0, 9.0])
    Q, R = orthonormalize(V)
    assert np.allclose(Q @ R, V, atol=1e-12)
    assert np.allclose(Q.T @ Q, np.eye(4), atol=1e-12)


def test_orthonormalize_rejects_degenerate():
    with pytest.raises(ConditioningError):
        orthonormalize(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ConditioningError):
        orthonormalize(np.ones((2, 3)))  # fewer rows than columns
    with pytest.raises(ConditioningError):
        # duplicated column: genuinely rank-deficient
        orthonormalize(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))


def test_orthonormalize_survives_extreme_column_scales():
    # x^169 has sup ~ 8e-22 on [0.5, 0.75]; prescaling must keep this full rank
    x = discretize(normalize([[0.5, 0.75]]), 1e-3).as_array()
    V = basis_matrix(x, [0.0, 1.0, 169.0])
    Q, R = orthonormalize(V)
    assert np.allclose(Q @ R, V, rtol=1e-10, atol=1e-30)


# ----------------------------------------------------------- exchange steps

# few distinct magnitudes, so ties, zeros and signed zeros are common
residual_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(residual_entries, min_size=1, max_size=40))
def test_exchange_helpers_match_the_loops(values):
    r = np.array(values)
    ext = minimax._alternating_extrema(r)
    assert ext == loop_alternating_extrema(r)
    assert all(type(i) is int for i in ext)
    for size in range(1, len(ext) + 2):
        assert minimax._trim_reference(ext, r, size) == \
            loop_trim_reference(ext, r, size)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_alternating_extrema_rejects_a_residual_that_is_not_finite(bad):
    with pytest.raises(ConditioningError, match="not finite"):
        minimax._alternating_extrema(np.array([1.0, -2.0, bad, 3.0]))


# ------------------------------------------------------- best approximation


def test_linear_fit_to_square():
    # [DERIVED] closed form: best {1, x} approx to x^2 on [0,1] is
    # x - 1/8 with error 1/8
    g = unit_grid()
    x = g.as_array()
    res = best_uniform_approx(x ** 2, g, [0.0, 1.0])
    assert res.error == pytest.approx(0.125, abs=1e-6)
    assert res.approximant.coefficients[0] == pytest.approx(-0.125, abs=1e-6)
    assert res.approximant.coefficients[1] == pytest.approx(1.0, abs=1e-6)
    assert len(res.reference_points) == 3
    assert res.relative_gap <= 1e-6


def test_linear_fit_to_kink():
    # [DERIVED] |2x-1| vs {1, x}: the constant 1/2 equioscillates at
    # 0, 1/2, 1 with error 1/2
    g = unit_grid()
    x = g.as_array()
    res = best_uniform_approx(np.abs(2 * x - 1), g, [0.0, 1.0])
    assert res.error == pytest.approx(0.5, abs=1e-6)


def test_target_in_span_is_exact():
    g = unit_grid()
    x = g.as_array()
    res = best_uniform_approx(3.0 * x - 1.0, g, [0.0, 1.0, 2.0])
    assert res.error <= 1e-10
    assert res.relative_gap == 0.0


def test_zero_target():
    g = unit_grid(0.1)
    res = best_uniform_approx(np.zeros(len(g)), g, [0.0, 1.0])
    assert res.error == 0.0
    assert res.reference_points == ()
    assert res.approximant.coefficients == (0.0, 0.0)


def test_certificate_soundness():
    g = unit_grid()
    x = g.as_array()
    for exps in ([0.0, 1.0], [0.0, 1.0, 4.0], [0.0, 0.5, 2.0, 4.5]):
        res = best_uniform_approx(np.abs(2 * x - 1), g, exps)
        m = len(exps)
        assert len(res.reference_points) == m + 1
        assert res.certified_lower_bound <= res.error + 1e-15
        assert res.relative_gap <= 1e-6
        # residual alternates in sign along the reference
        p = res.approximant
        r_ref = [np.abs(2 * t - 1) - p(t) for t in res.reference_points]
        signs = np.sign(r_ref)
        assert all(s1 * s2 < 0 for s1, s2 in zip(signs, signs[1:]))
        # every reference residual nearly attains the error
        assert min(abs(v) for v in r_ref) >= res.error * (1 - 1e-6)


def test_matches_brute_force_oracle():
    # [DERIVED] exhaustive reference-subset enumeration on small grids
    rng = np.random.default_rng(7)
    cases = [
        ([0.0, 1.0], 8),
        ([0.0, 1.0, 2.0], 9),
        ([0.0, 0.5, 3.0], 10),
        ([0.0, 2.0, 5.0], 12),
    ]
    for exps, npts in cases:
        pts = np.sort(rng.uniform(0.0, 1.0, npts))
        grid = Grid(tuple(float(t) for t in pts),
                    normalize([[0.0, 1.0]]), 1.0)
        for _ in range(3):
            f = rng.standard_normal(npts)
            res = best_uniform_approx(f, grid, exps)
            want = brute_force_minimax(pts, f, exps)
            assert res.error == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_error_nonincreasing_in_dimension():
    g = unit_grid()
    x = g.as_array()
    f = 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2)
    chains = [[0.0], [0.0, 1.0], [0.0, 1.0, 4.0], [0.0, 1.0, 4.0, 9.0]]
    errs = [best_uniform_approx(f, g, e).error for e in chains]
    for e0, e1 in zip(errs, errs[1:]):
        assert e1 <= e0 + 1e-9


def test_exchange_cycle_falls_back_to_certified_lp():
    # Squares at n = 16 on fat_cantor(6): the reference matrices reach
    # condition numbers of 1e11..1e17 and the floating-point exchange falls
    # into a 2-cycle.  The result must be the discrete minimax optimum (the
    # LP, independently solved in the raw monomial basis) and still carry a
    # checked alternation certificate.
    solid = [[a, b] for a, b in fat_cantor(6).intervals if b > a]
    g = discretize(normalize(solid), 1e-3)
    x = g.as_array()
    f = np.abs(2 * x - 1)
    exps = truncate(squares(), 16)
    res = best_uniform_approx(f, g, exps)
    _, want = discrete_minimax_lp(basis_matrix(x, exps), f)
    assert res.error == pytest.approx(want, rel=1e-9)
    assert len(res.reference_points) == len(exps) + 1
    assert res.relative_gap <= 1e-6
    r_ref = [abs(2 * t - 1) - res.approximant(t) for t in res.reference_points]
    signs = np.sign(r_ref)
    assert all(s1 * s2 < 0 for s1, s2 in zip(signs, signs[1:]))


def test_iteration_cap_falls_back_to_lp_and_checks_it(monkeypatch):
    g = unit_grid()
    x = g.as_array()
    f = 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2)
    exps = [0.0, 1.0, 4.0, 9.0]
    full = best_uniform_approx(f, g, exps)
    monkeypatch.setattr(minimax, "MAX_EXCHANGES", 1)
    capped = best_uniform_approx(f, g, exps)
    assert capped.error == pytest.approx(full.error, rel=1e-9)
    assert len(capped.reference_points) == len(exps) + 1
    assert capped.relative_gap <= 1e-6
    # an LP answer that carries no certificate is an error, not a result
    monkeypatch.setattr(minimax, "discrete_minimax_lp",
                        lambda B, f: (np.zeros(B.shape[1]), 0.0))
    with pytest.raises(ConvergenceError, match="no convergence within 1"):
        best_uniform_approx(f, g, exps)


def test_best_approx_input_validation():
    g = unit_grid(0.5)
    with pytest.raises(ConfigError):
        best_uniform_approx(np.zeros(5), g, [0.0, 1.0])  # shape mismatch
    with pytest.raises(ConfigError):
        best_uniform_approx(np.zeros(3), g, [0.0, 1.0, 2.0])  # grid too small


# ------------------------------------------------------------------ growth


def test_growth_linear_case():
    # [DERIVED] span{1, x}, constraint [0.5, 1], query 0: extremal is
    # 4x - 3 (the rescaled T_1), value T_1(3) = 3
    g = discretize(normalize([[0.5, 1.0]]), 1e-3)
    res = growth_functional([0.0, 1.0], g, 0.0)
    assert res.value == pytest.approx(3.0, rel=1e-9)
    c0, c1 = res.extremal.coefficients
    assert abs(c0) == pytest.approx(3.0, rel=1e-6)
    assert abs(c1) == pytest.approx(4.0, rel=1e-6)
    assert 0.5 in res.constraint_active_points
    assert 1.0 in res.constraint_active_points


def test_growth_quadratic_case():
    # [DERIVED] full quadratics, s = 0.5: value T_2(3) = 17
    g = discretize(normalize([[0.5, 1.0]]), 1e-3)
    res = growth_functional([0.0, 1.0, 2.0], g, 0.0)
    assert res.value == pytest.approx(17.0, rel=1e-9)


def test_growth_at_constraint_point_is_one():
    g = discretize(normalize([[0.0, 1.0]]), 0.25)
    res = growth_functional([0.0, 1.0], g, 0.5)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_growth_extremal_is_feasible_and_attains():
    g = discretize(normalize([[0.5, 1.0]]), 1e-2)
    for exps in ([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], [0.0, 0.5, 2.0]):
        res = growth_functional(exps, g, 0.0)
        p = res.extremal
        feas = np.max(np.abs(p(g.as_array())))
        assert feas <= 1.0 + 1e-7
        assert abs(p(0.0)) == pytest.approx(res.value, rel=1e-6)


def test_growth_monotone_in_dimension():
    g = discretize(normalize([[0.5, 1.0]]), 1e-2)
    v1 = growth_functional([0.0, 1.0], g, 0.0).value
    v2 = growth_functional([0.0, 1.0, 2.0], g, 0.0).value
    v3 = growth_functional([0.0, 1.0, 2.0, 3.0], g, 0.0).value
    assert v1 <= v2 <= v3


def test_growth_antitone_in_constraint_set():
    # more constraint points can only shrink the feasible set
    A = normalize([[0.5, 1.0]])
    full = discretize(A, 0.05)
    sub = Grid(full.points[::2], A, 0.1)
    v_sub = growth_functional([0.0, 1.0, 2.0], sub, 0.0).value
    v_full = growth_functional([0.0, 1.0, 2.0], full, 0.0).value
    assert v_full <= v_sub * (1 + 1e-9)


def test_growth_scale_invariant_under_column_rescaling():
    # the growth value depends on the span, not on the basis scaling
    from muntzlab.minimax import _growth_lp

    x = discretize(normalize([[0.5, 1.0]]), 1e-2).as_array()
    all_pts = np.concatenate([x, [0.3]])
    V = basis_matrix(all_pts, [0.0, 1.0, 2.0])
    D = np.diag([3.0, 1e-6, 40.0])
    vals = []
    for W in (V, V @ D):
        Q, _ = orthonormalize(W)
        b = _growth_lp(Q[:-1], Q[-1])
        vals.append(abs(float(Q[-1] @ b)))
    assert vals[0] == pytest.approx(vals[1], rel=1e-8)


def test_growth_gap_query_swept_equals_alone():
    # A gap query (0.75 lies between the two pieces) in a sweep with a far
    # query: its LP runs on the QR of the grid rows alone, so the far query
    # changes no bit of its answer.
    exps = truncate(arithmetic(0.5), 9)
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    swept = growth_sweep(exps, g, [0.75, 0.0])[0]
    alone = growth_functional(exps, g, 0.75)
    assert swept.value == alone.value
    assert swept.extremal == alone.extremal


def test_growth_gap_query_is_not_distorted_by_far_queries():
    # With far queries 0 and 0.25 in one QR with the grid, the grid rows
    # are no longer orthonormal and the gap LP once returned 136.77.  The
    # extremal, evaluated in 50 digits, shows the value is at least 295.65.
    exps = truncate(arithmetic(0.5), 10)
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    swept = growth_sweep(exps, g, [0.75, 0.0, 0.25])[0]
    alone = growth_functional(exps, g, 0.75)
    assert swept.value == alone.value
    assert swept.value >= 295.0


def test_growth_at_a_grid_point_solves_no_lp(monkeypatch):
    # [DERIVED] y = 0.5 starts the set and is a grid point, and 0 is an
    # exponent: the constant 1 is extremal and the value is exactly 1
    calls = []
    real = minimax._highs_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(minimax, "_highs_lp", counted)
    g = discretize(fat_cantor(3, (0.5, 1)), 1e-3)
    res = growth_functional(range(13), g, 0.5)
    assert res.value == 1.0
    assert res.extremal.coefficients == (1.0,) + (0.0,) * 12
    assert res.constraint_active_points == g.points
    assert calls == []


def test_growth_lp_checks_its_dual_bound(monkeypatch):
    # multipliers that disagree with the primal answer are an error
    x = discretize(normalize([[0.5, 1.0]]), 1e-2).as_array()
    exps = [0.0, 1.0, 2.0]
    Q, R = orthonormalize(basis_matrix(x, exps))
    q = np.linalg.solve(R.T, basis_matrix(np.array([0.3]), exps)[0])
    b = minimax._growth_lp(Q, q)
    assert abs(float(q @ b)) == pytest.approx(5.48, rel=1e-9)  # T_2(-1.8)
    real = minimax._highs_lp

    def doubled_duals(*args, **kwargs):
        x, duals = real(*args, **kwargs)
        return x, 2.0 * duals

    monkeypatch.setattr(minimax, "_highs_lp", doubled_duals)
    with pytest.raises(ConvergenceError,
                       match=r"primal bound 5\.48\d*, dual bound 10\.96"):
        minimax._growth_lp(Q, q)


def test_growth_underdetermined_raises():
    A = normalize([[0.5, 1.0]])
    tiny = Grid((0.5, 1.0), A, 0.5)
    with pytest.raises(UnboundedGrowthError):
        growth_functional([0.0, 1.0, 2.0], tiny, 0.0)


def test_growth_query_validation():
    g = discretize(normalize([[0.5, 1.0]]), 0.1)
    with pytest.raises(ConfigError):
        growth_functional([0.0, 1.0], g, 1.5)


def test_growth_sweep_matches_single_queries():
    g = discretize(normalize([[0.5, 1.0]]), 1e-2)
    ys = [0.0, 0.1, 0.25, 0.6]
    sweep = growth_sweep([0.0, 1.0, 2.0], g, ys)
    assert [r.query for r in sweep] == ys
    for r in sweep:
        single = growth_functional([0.0, 1.0, 2.0], g, r.query)
        assert r.value == pytest.approx(single.value, rel=1e-9)


def test_growth_large_values_match_chebyshev():
    # [DERIVED] deep in the high-growth regime the mpmath path must still
    # track the closed form T_n((2-s)/s)
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    n = 11
    res = growth_functional(list(range(n + 1)), g, 0.0)
    assert res.value > 1e8  # exercises the high-precision branch
    assert res.value == pytest.approx(chebyshev_T(n, 7.0), rel=1e-3)


def test_growth_sweep_survives_cycling_double_exchange():
    # [DERIVED] T_12(7): the double-precision set-Chebyshev exchange cycles
    # on this 33-query sweep (a single query builds a different Q and does
    # not), so the value must come from the 60-digit route
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    sweep = growth_sweep(range(13), g, np.linspace(0.0, 0.5, 33))
    assert sweep[0].query == 0.0
    assert sweep[0].value == pytest.approx(chebyshev_T(12, 7.0), rel=1e-2)


def test_set_chebyshev_names_its_cycle_early(monkeypatch):
    # The same sweep's double exchange enters a 4-cycle of references; it
    # must be caught on its first repeat, not after MAX_EXCHANGES steps.
    x = discretize(normalize([[0.75, 1.0]]), 1e-3).as_array()
    ys = np.linspace(0.0, 0.5, 33)
    Qall, _ = orthonormalize(basis_matrix(np.concatenate([x, ys]), range(13)))
    Q = Qall[: len(x)]
    solves = []
    real_solve = np.linalg.solve

    def counted(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    with pytest.raises(ConvergenceError, match=r"4-cycle of references"):
        minimax._set_chebyshev(Q)
    assert len(solves) < 25


def counting_decimal_solves(monkeypatch):
    calls = []
    real = minimax._decimal_solve

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(minimax, "_decimal_solve", counted)
    return calls


def test_set_chebyshev_mp_warm_start_gives_the_cold_bits():
    # the criterion-5 case: the 33-query sweep cycles in double precision,
    # a single query does not and gives a reference to start from
    x = discretize(normalize([[0.75, 1.0]]), 1e-3).as_array()
    exps = [float(e) for e in range(13)]
    ys = np.linspace(0.0, 0.5, 33)
    Qall, _ = orthonormalize(basis_matrix(np.append(x, 0.0), exps))
    _, ref = minimax._set_chebyshev(Qall[: len(x)])
    cold = minimax._set_chebyshev_mp(x, exps, ys)
    warm = minimax._set_chebyshev_mp(x, exps, ys, start=ref)
    assert repr(warm) == repr(cold)


def test_growth_sweep_starts_the_60_digit_route_where_double_stopped(
        monkeypatch):
    # the double exchange converges here, and the values exceed
    # MP_VALUE_THRESHOLD: the 60-digit route starts from its reference
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    x = g.as_array()
    exps = [float(e) for e in truncate(arithmetic(0.5), 10)]
    ys = np.linspace(0.0, 0.5, 33)
    out_ys = [float(y) for y in ys if y < x.min()]
    calls = counting_decimal_solves(monkeypatch)
    cold_values, cold_coeffs = minimax._set_chebyshev_mp(x, exps, out_ys)
    cold_solves = len(calls)
    calls.clear()
    sweep = growth_sweep(exps, g, ys)
    assert 0 < len(calls) < cold_solves
    assert repr([r.value for r in sweep[: len(out_ys)]]) == repr(cold_values)
    assert repr(sweep[0].extremal.coefficients) == repr(tuple(cold_coeffs))


def test_growth_sweep_serves_every_route_in_query_order():
    # one sweep over every route: outside the hull (twice the same query,
    # above MP_VALUE_THRESHOLD, so the 60-digit route), at a grid point, in
    # the gap between the two intervals (a growth LP), and outside again
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    exps = truncate(arithmetic(0.5), 10)
    ys = [0.0, 0.75, 0.5, 0.0, 0.3]
    sweep = growth_sweep(exps, g, ys)
    assert [r.query for r in sweep] == ys
    first, gap, grid_point, again, _ = sweep
    assert repr(again.value) == repr(first.value)
    assert again.extremal == first.extremal
    assert first.value > minimax.MP_VALUE_THRESHOLD
    assert grid_point.value == 1.0
    assert repr(gap.value) == repr(growth_functional(exps, g, 0.75).value)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: a sweep sends every outside query down the route its "
    "largest value picks, and below MP_VALUE_THRESHOLD the double route "
    "is 1.3% off here"))
def test_growth_value_does_not_depend_on_the_other_queries():
    # With 0.0 in the sweep, 0.3 takes the 60-digit route and gets
    # 2014056.5354002097 (100 digits agree); alone it stays under the
    # threshold and the double route gives 2041235.92.
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    exps = truncate(arithmetic(0.5), 10)
    with_zero = growth_sweep(exps, g, [0.0, 0.3])[1].value
    alone = growth_functional(exps, g, 0.3).value
    assert alone == pytest.approx(with_zero, rel=1e-6)


def test_set_chebyshev_mp_names_the_iteration_cap(monkeypatch):
    # the 60-digit route runs the same exchange loop and its messages
    x = discretize(normalize([[0.75, 1.0]]), 1e-3).as_array()
    monkeypatch.setattr(minimax, "MAX_EXCHANGES", 1)
    with pytest.raises(ConvergenceError,
                       match=re.escape("(mp) no convergence within 1")):
        minimax._set_chebyshev_mp(x, [float(e) for e in range(13)], [0.0])


def test_growth_half_step_exponents_take_the_60_digit_route():
    # [DERIVED] non-integer exponents through the 60-digit route; the value
    # is the one an mpmath (60 dps) implementation of the same route gave
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    res = growth_functional(truncate(arithmetic(0.5), 8), g, 0.0)
    assert res.value > minimax.MP_VALUE_THRESHOLD
    assert res.value == pytest.approx(179474789464.95975, rel=1e-12)


def test_60_digit_route_imports_no_mpmath():
    code = (
        "import sys\n"
        "from muntzlab.minimax import growth_functional\n"
        "from muntzlab.sets import discretize, normalize\n"
        "g = discretize(normalize([[0.75, 1.0]]), 1e-3)\n"
        "assert growth_functional(list(range(12)), g, 0.0).value > 1e8\n"
        "assert 'mpmath' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr


# ------------------------------------------------------- general minimax LP


def test_discrete_minimax_lp_matches_exchange():
    g = unit_grid(1e-2)
    x = g.as_array()
    f = np.abs(2 * x - 1)
    exps = [0.0, 1.0, 4.0]
    B = basis_matrix(x, exps)
    coeffs, err = discrete_minimax_lp(B, f)
    res = best_uniform_approx(f, g, exps)
    assert err == pytest.approx(res.error, rel=1e-6)
    assert np.max(np.abs(f - B @ coeffs)) == pytest.approx(err, rel=1e-6)


def test_discrete_minimax_lp_rank_deficient():
    x = np.linspace(0, 1, 50)
    V = basis_matrix(x, [0.0, 1.0])
    B = np.column_stack([V, V[:, 1]])  # duplicated column
    coeffs, err = discrete_minimax_lp(B, x ** 2)
    _, err_clean = discrete_minimax_lp(V, x ** 2)
    assert err == pytest.approx(err_clean, rel=1e-9)  # duplicate adds nothing
    assert err == pytest.approx(0.125, abs=1e-3)
    assert np.max(np.abs(x ** 2 - B @ coeffs)) == pytest.approx(err, rel=1e-6)


def test_discrete_minimax_lp_zero_basis():
    B = np.zeros((10, 2))
    f = np.linspace(0, 1, 10)
    coeffs, err = discrete_minimax_lp(B, f)
    assert np.all(coeffs == 0)
    assert err == pytest.approx(1.0)


# ------------------------------------------------------------- the LP door


def minimax_lp_input(seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, 40 + 10 * seed))
    B = basis_matrix(x, sorted(rng.choice(9, size=2 + seed % 4, replace=False)))
    return B, np.abs(2 * x - 1) + 0.1 * rng.standard_normal(x.size)


def growth_lp_input(seed):
    rng = np.random.default_rng(seed)
    x = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-2 * (1 + seed % 3)).as_array()
    exps = [0.0] + sorted(rng.uniform(0.5, 8.0, size=2 + seed % 4))
    Q, R = orthonormalize(basis_matrix(x, exps))
    y = rng.uniform(0.0, 1.0)
    return Q, np.linalg.solve(R.T, basis_matrix(np.array([y]), exps)[0])


def solve_both(monkeypatch, seed):
    """Every door call of one seeded minimax LP and one growth LP."""
    calls = []
    real = minimax._highs_lp

    def recorded(c, A, b, lo, hi, presolve, what):
        args = (c, A, b, lo, hi, presolve, what)
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(minimax, "_highs_lp", recorded)
    discrete_minimax_lp(*minimax_lp_input(seed))
    minimax._growth_lp(*growth_lp_input(seed))
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_lp_door_gives_scipy_linprog_bits(monkeypatch, seed):
    from scipy.optimize import linprog as scipy_linprog  # the oracle

    calls = solve_both(monkeypatch, seed)
    assert [args[5:] for args, _ in calls] == [(False, "minimax LP"),
                                               (True, "growth LP")]
    for (c, A, b, lo, hi, presolve, _), (x, duals) in calls:
        want = scipy_linprog(c, A_ub=A, b_ub=b,
                             bounds=np.column_stack([lo, hi]), method="highs",
                             options={"presolve": presolve})
        assert want.status == 0
        assert np.array_equal(x, want.x)
        assert np.array_equal(duals, want.ineqlin.marginals)


def test_lp_door_raises_no_warning(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(solve_both(monkeypatch, 0)) == 2


def free(lo, hi):
    return np.full_like(lo, -np.inf), np.full_like(hi, np.inf)


# each turns the door's LP (c, A, b, lo, hi) into one that HiGHS cannot solve
BROKEN_LPS = {
    "Infeasible": lambda c, A, b, lo, hi: (c, 0 * A, -np.ones_like(b), lo, hi),
    "Unbounded":
        lambda c, A, b, lo, hi: (c, 0 * A, np.ones_like(b), *free(lo, hi)),
    # HiGHS refuses matrix entries from 1e15 on, and a cost of 1e300 on
    # free columns fails the solve
    r"Model error \(passModel failed\)":
        lambda c, A, b, lo, hi: (c, 1e16 * A, b, lo, hi),
    r"[A-Za-z ]+ \(run failed\)":
        lambda c, A, b, lo, hi: (1e300 * c, A, b, *free(lo, hi)),
}


@pytest.mark.parametrize("status", BROKEN_LPS)
@pytest.mark.parametrize("solver", ["minimax", "growth"])
def test_lp_door_failures_raise_convergence_error(monkeypatch, status, solver):
    real = minimax._highs_lp
    monkeypatch.setattr(
        minimax, "_highs_lp",
        lambda c, A, b, lo, hi, presolve, what:
            real(*BROKEN_LPS[status](c, A, b, lo, hi), presolve, what))
    with pytest.raises(ConvergenceError,
                       match=f"^{solver} LP failed: HiGHS model status {status}$"):
        if solver == "minimax":
            discrete_minimax_lp(*minimax_lp_input(0))
        else:
            minimax._growth_lp(*growth_lp_input(0))


# each gives the door LP data of the wrong shape; HiGHS reads the bounds
# and right-hand side from the buffers it gets without checking their length
WRONG_SHAPES = {
    "lo one entry short": lambda c, A, b, lo, hi: (c, A, b, lo[:-1], hi),
    "b one entry short": lambda c, A, b, lo, hi: (c, A, b[:-1], lo, hi),
    "scalar bounds": lambda c, A, b, lo, hi: (c, A, b, -np.inf, np.inf),
}


@pytest.mark.parametrize("edit", WRONG_SHAPES)
@pytest.mark.parametrize("solver", ["minimax", "growth"])
def test_lp_door_refuses_data_of_the_wrong_shape(monkeypatch, edit, solver):
    real = minimax._highs_lp
    monkeypatch.setattr(
        minimax, "_highs_lp",
        lambda c, A, b, lo, hi, presolve, what:
            real(*WRONG_SHAPES[edit](c, A, b, lo, hi), presolve, what))
    with pytest.raises(ConvergenceError,
                       match=f"^{solver} LP failed: LP data has the wrong shape$"):
        if solver == "minimax":
            discrete_minimax_lp(*minimax_lp_input(0))
        else:
            minimax._growth_lp(*growth_lp_input(0))


def test_lp_door_names_an_option_highs_refuses(monkeypatch):
    class Refusing(minimax._core._Highs):
        def setOptionValue(self, key, value):
            if key == "simplex_strategy":
                return minimax._core.HighsStatus.kError
            return super().setOptionValue(key, value)

    monkeypatch.setattr(minimax._core, "_Highs", Refusing)
    with pytest.raises(ConvergenceError, match="^minimax LP failed: HiGHS "
                       "refused the option simplex_strategy=1$"):
        discrete_minimax_lp(*minimax_lp_input(0))


def test_lp_door_refuses_data_that_is_not_finite():
    B, f = minimax_lp_input(0)
    f[3] = np.nan
    with pytest.raises(ConvergenceError,
                       match="^minimax LP failed: LP data not finite$"):
        discrete_minimax_lp(B, f)
    Q, q = growth_lp_input(0)
    q[1] = np.inf
    with pytest.raises(ConvergenceError,
                       match="^growth LP failed: LP data not finite$"):
        minimax._growth_lp(Q, q)
