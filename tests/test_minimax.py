import functools
import inspect
import itertools
import math
import re
import subprocess
import sys
import warnings
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muntzlab.minimax as minimax
import muntzlab.products as products
from muntzlab.errors import (
    ConditioningError,
    ConfigError,
    ConvergenceError,
    MuntzlabError,
)
from muntzlab.minimax import (
    best_uniform_approx,
    chebyshev_T,
    discrete_minimax_lp,
    growth_sweep,
    orthonormalize,
)
from muntzlab.exponents import arithmetic, squares, truncate
from muntzlab.muntzeval import basis_matrix
from muntzlab.remezlab import default_set_family
from muntzlab.sets import Grid, discretize, fat_cantor, normalize
from test_acceptance import _check_certificate as check_certificate
from test_acceptance import large_corpus, small_corpus


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


def best_alternating_level(v, size):
    """Reference for minimax._trim_reference: the largest smallest |v| over
    all choices of `size` entries of v whose signs alternate, i.e. the
    largest tau such that the entries with |v| >= tau form at least `size`
    sign runs.  v has no zeros."""
    best = 0.0
    for tau in set(np.abs(v).tolist()):
        signs = [t > 0 for t in v if abs(t) >= tau]
        runs = 1 + sum(s != t for s, t in zip(signs, signs[1:]))
        if runs >= size:
            best = max(best, tau)
    return best


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
    with pytest.raises(ConfigError, match="too small for dimension 3"):
        orthonormalize(np.ones((2, 3)))  # fewer rows than columns: a mesh
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
        ref = minimax._trim_reference(ext, r, size)
        if size > len(ext):
            assert ref == ext
            continue
        # `size` of the extrema, alternating, with the best smallest |r|
        # that any alternating choice of `size` extrema has, and the global
        # maximum among them
        assert len(ref) == size and set(ref) <= set(ext)
        assert ref == sorted(ref)
        v = r[ref]
        assert all(s * t < 0 for s, t in zip(np.sign(v), np.sign(v[1:])))
        assert np.min(np.abs(v)) == best_alternating_level(r[ext], size)
        assert np.max(np.abs(v)) == np.max(np.abs(r))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_alternating_extrema_rejects_a_residual_that_is_not_finite(bad):
    with pytest.raises(ConditioningError, match="not finite"):
        minimax._alternating_extrema(np.array([1.0, -2.0, bad, 3.0]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 300_001).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(1, N))))
def test_even_spread_is_strictly_increasing(case):
    # the default start of every exchange: `size` distinct grid indices
    # from 0 to N - 1, for any 1 <= size <= N
    N, size = case
    ref = minimax._even_spread(N, size)
    assert len(ref) == size and type(ref[0]) is int
    assert ref[0] == 0 and ref[-1] == (N - 1 if size > 1 else 0)
    assert np.all(np.diff(ref) > 0)


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
        grid = Grid(tuple(float(t) for t in pts))
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
    # condition numbers of 1e11..1e17, where a floating-point exchange can
    # cycle into the LP fallback (a trim that dropped adjacent pairs did;
    # the best-alternating-set trim certifies here).  Either way the result
    # must be the discrete minimax optimum (the LP, independently solved in
    # the raw monomial basis) and carry a checked alternation certificate.
    solid = [[a, b] for a, b in fat_cantor(6).intervals if b > a]
    g = discretize(normalize(solid), 1e-3)
    x = g.as_array()
    f = np.abs(2 * x - 1)
    exps = truncate(squares(), 16)
    res = best_uniform_approx(f, g, exps)
    _, want, _ = discrete_minimax_lp(basis_matrix(x, exps), f)
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
                        lambda B, f: (np.zeros(B.shape[1]), 0.0, None))
    with pytest.raises(ConvergenceError, match="no convergence within 1"):
        best_uniform_approx(f, g, exps)


def test_stalled_exchange_falls_back_to_lp(monkeypatch):
    # a first residual without alternating extrema stalls the exchange on
    # its first reference, far from optimal; that is a failure like a
    # cycle, and the certified LP answers instead
    solid = [[a, b] for a, b in fat_cantor(4).intervals if b > a]
    g = discretize(normalize(solid), 1e-3)
    x = g.as_array()
    f = np.abs(2 * x - 1)
    exps = truncate(squares(), 10)
    want = best_uniform_approx(f, g, exps).error
    real_extrema = minimax._alternating_extrema
    extrema_calls = []

    def none_at_first(r):
        # the exchange's residual shows none; the LP's shows its own
        extrema_calls.append(1)
        return [] if len(extrema_calls) == 1 else real_extrema(r)

    monkeypatch.setattr(minimax, "_alternating_extrema", none_at_first)
    lps = []
    real_lp = minimax.discrete_minimax_lp
    monkeypatch.setattr(minimax, "discrete_minimax_lp",
                        lambda B, f: lps.append(1) or real_lp(B, f))
    res = best_uniform_approx(f, g, exps)
    assert res.error == pytest.approx(want, rel=1e-9)
    assert res.relative_gap <= 1e-6
    assert len(lps) == 1
    assert len(extrema_calls) == 2


def test_lp_fallback_certifies_every_corpus_case(monkeypatch):
    # criteria 2 and 3 with the exchange cut after one solve: the LP answers
    # every case the exchange does not certify at once, and its certificate
    # must hold on an exact optimum too (small-corpus case 3, where a trim
    # that dropped adjacent pairs kept a point below the peak of |r|)
    cases = [(Grid(tuple(float(t) for t in pts)), f, exps)
             for pts, f, exps in small_corpus()] + large_corpus()
    want = [best_uniform_approx(f, g, exps).error for g, f, exps in cases]
    monkeypatch.setattr(minimax, "MAX_EXCHANGES", 1)
    for (g, f, exps), err in zip(cases, want):
        res = best_uniform_approx(f, g, exps)
        check_certificate(res, f, g.as_array(), exps)
        assert res.error == pytest.approx(err, rel=1e-9)


def squares_on_solid_fat_cantor_4(n):
    # fat_cantor(4) without its singletons at mesh 1e-2: 80 points
    solid = [[a, b] for a, b in fat_cantor(4).intervals if b > a]
    g = discretize(normalize(solid), 1e-2)
    assert len(g) == 80
    return np.abs(2 * g.as_array() - 1), g, truncate(squares(), n)


def test_stalled_exchange_on_a_real_input_is_answered_by_one_lp(monkeypatch):
    # with nothing patched, the double exchange stalls here ("13 of 18
    # alternating extrema"), and the LP fallback certifies the optimum to a
    # relative gap of 1.2e-13, within 2.2e-16 of the LP on the raw basis
    f, g, exps = squares_on_solid_fat_cantor_4(16)
    failures, lps = [], []
    real_exchange, real_lp = minimax._exchange, minimax.discrete_minimax_lp

    def exchange(*args, **kwargs):
        out = real_exchange(*args, **kwargs)
        failures.append(out[2])
        return out

    monkeypatch.setattr(minimax, "_exchange", exchange)
    monkeypatch.setattr(minimax, "discrete_minimax_lp",
                        lambda B, f: lps.append(1) or real_lp(B, f))
    res = best_uniform_approx(f, g, exps)
    assert len(failures) == 1 and "13 of 18 alternating extrema" in failures[0]
    assert len(lps) == 1
    assert len(res.reference_points) == len(exps) + 1
    assert res.relative_gap <= minimax.DEFAULT_TOL
    _, want, _ = discrete_minimax_lp(basis_matrix(g.as_array(), exps), f)
    assert res.error == pytest.approx(want, rel=1e-12)


@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason=(
    "ROADMAP item 14: the exchange stalls with 19 of 21 alternating extrema "
    "and the LP's residual has 20, at a relative gap of 9.88e-09"))
def test_lp_fallback_certifies_squares_at_n_19_on_a_real_input():
    f, g, exps = squares_on_solid_fat_cantor_4(19)
    res = best_uniform_approx(f, g, exps)
    assert len(res.reference_points) == len(exps) + 1
    assert res.relative_gap <= minimax.DEFAULT_TOL


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
    res = growth_sweep([0.0, 1.0], g, [0.0])[0]
    assert res.value == pytest.approx(3.0, rel=1e-9)
    c0, c1 = res.extremal.coefficients
    assert abs(c0) == pytest.approx(3.0, rel=1e-6)
    assert abs(c1) == pytest.approx(4.0, rel=1e-6)


def test_growth_quadratic_case():
    # [DERIVED] full quadratics, s = 0.5: value T_2(3) = 17
    g = discretize(normalize([[0.5, 1.0]]), 1e-3)
    res = growth_sweep([0.0, 1.0, 2.0], g, [0.0])[0]
    assert res.value == pytest.approx(17.0, rel=1e-9)


def test_growth_at_constraint_point_is_one():
    g = discretize(normalize([[0.0, 1.0]]), 0.25)
    res = growth_sweep([0.0, 1.0], g, [0.5])[0]
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_growth_extremal_is_feasible_and_attains():
    g = discretize(normalize([[0.5, 1.0]]), 1e-2)
    for exps in ([0.0, 1.0, 2.0], [0.0, 1.0, 4.0], [0.0, 0.5, 2.0]):
        res = growth_sweep(exps, g, [0.0])[0]
        p = res.extremal
        feas = np.max(np.abs(p(g.as_array())))
        assert feas <= 1.0 + 1e-7
        assert abs(p(0.0)) == pytest.approx(res.value, rel=1e-6)


def test_growth_monotone_in_dimension():
    g = discretize(normalize([[0.5, 1.0]]), 1e-2)
    v1 = growth_sweep([0.0, 1.0], g, [0.0])[0].value
    v2 = growth_sweep([0.0, 1.0, 2.0], g, [0.0])[0].value
    v3 = growth_sweep([0.0, 1.0, 2.0, 3.0], g, [0.0])[0].value
    assert v1 <= v2 <= v3


def test_growth_antitone_in_constraint_set():
    # more constraint points can only shrink the feasible set
    A = normalize([[0.5, 1.0]])
    full = discretize(A, 0.05)
    sub = Grid(full.points[::2])
    v_sub = growth_sweep([0.0, 1.0, 2.0], sub, [0.0])[0].value
    v_full = growth_sweep([0.0, 1.0, 2.0], full, [0.0])[0].value
    assert v_full <= v_sub * (1 + 1e-9)


def test_growth_scale_invariant_under_column_rescaling():
    # the growth value depends on the span, not on the basis scaling; the
    # double exchange answers an outside and a gap query
    for pieces, y in (([[0.5, 1.0]], 0.3), ([[0.5, 0.6], [0.9, 1.0]], 0.75)):
        x = discretize(normalize(pieces), 1e-2).as_array()
        V = basis_matrix(np.append(x, y), [0.0, 1.0, 2.0])
        t = np.where(x < y, 1.0, -1.0) if y > x[0] else np.ones(len(x))
        vals = []
        for W in (V, V @ np.diag([3.0, 1e-6, 40.0])):
            Q, _ = orthonormalize(W)
            # the double exchange alone: inside the hull (the gap query)
            # _growth_lp would finish in 60 digits
            b, _, failure = minimax._set_chebyshev(Q[:-1], t)
            assert failure is None
            vals.append(abs(float(Q[-1] @ b)))
        assert vals[0] == pytest.approx(vals[1], rel=1e-8)


def test_growth_gap_query_swept_equals_alone():
    # A gap query (0.75 lies between the two pieces) in a sweep with a far
    # query: its 60-digit exchange certifies on the same reference either
    # way, so the far query changes no bit of its answer.
    exps = truncate(arithmetic(0.5), 9)
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    swept = growth_sweep(exps, g, [0.75, 0.0])[0]
    alone = growth_sweep(exps, g, [0.75])[0]
    assert swept.value == alone.value
    assert swept.extremal == alone.extremal


def test_growth_gap_query_is_not_distorted_by_far_queries():
    # With far queries 0 and 0.25 in one QR with the grid, the grid rows
    # are no longer orthonormal and a growth LP once returned 136.77 here
    # (299.555 alone); 60 and 100 digits give 299.6131910585781.
    exps = truncate(arithmetic(0.5), 10)
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    swept = growth_sweep(exps, g, [0.75, 0.0, 0.25])[0]
    alone = growth_sweep(exps, g, [0.75])[0]
    assert swept.value == alone.value
    assert swept.value == pytest.approx(299.6131910585781, rel=1e-12)


@pytest.mark.parametrize("n, y, value", [
    (10, 0.75, 299.6131910585781),  # a growth LP gave 299.5553
    (10, 0.62, 16.463017372300207),  # 16.4478
    (8, 0.75, 82.37836136315188),  # 82.37887
])
def test_growth_gap_values_are_exact(n, y, value):
    # [DERIVED] 60 and 100 digits give these values
    g = discretize(normalize([[0.5, 0.6], [0.9, 1.0]]), 1e-3)
    res = growth_sweep(truncate(arithmetic(0.5), n), g, [y])[0]
    assert res.value == pytest.approx(value, rel=1e-12)


def test_growth_at_a_grid_point_solves_no_lp(monkeypatch):
    # [DERIVED] y = 0.5 starts the set and is a grid point, and 0 is an
    # exponent: the constant 1 is extremal and the value is exactly 1
    calls = []
    real = minimax.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(minimax, "linprog", counted)
    g = discretize(fat_cantor(3, (0.5, 1)), 1e-3)
    res = growth_sweep(range(13), g, [0.5])[0]
    assert res.value == 1.0
    assert res.extremal.coefficients == (1.0,) + (0.0,) * 12
    assert calls == []


def test_growth_without_exponent_0_is_config_error(monkeypatch):
    # growth is defined on spans that contain the constant; the refusal
    # comes before any basis is built, on the grid and off it
    calls = []
    monkeypatch.setattr(minimax, "basis_matrix",
                        lambda *args: calls.append(1) or basis_matrix(*args))
    g = discretize(normalize([[0.5, 1.0]]), 0.05)
    for y in (0.5, 0.3):
        with pytest.raises(ConfigError, match="exponent 0"):
            growth_sweep([2.0, 5.0], g, [y])
    assert calls == []


@pytest.mark.parametrize("exps, message", [
    ([0.0, math.inf], "finite"), ([0.0, math.nan], "strictly increasing"),
    ([0.0, -1.0], "strictly increasing"), ([], "at least one term"),
    (["0", 1.0], "must be a number")])
def test_both_solvers_refuse_bad_exponents_before_any_solve(monkeypatch, exps,
                                                            message):
    calls = []
    monkeypatch.setattr(minimax, "basis_matrix",
                        lambda *args: calls.append(1) or basis_matrix(*args))
    g = discretize(normalize([[0.0, 1.0]]), 0.05)
    with pytest.raises(ConfigError, match=message):
        growth_sweep(exps, g, [0.5, 0.525])
    with pytest.raises(ConfigError, match=message):
        best_uniform_approx(np.sqrt(g.as_array()), g, exps)
    assert calls == []


def test_growth_underdetermined_raises():
    # a grid of fewer points than the dimension is a mesh too coarse for it,
    # in the words of orthonormalize and best_uniform_approx
    tiny = Grid((0.5, 1.0))
    with pytest.raises(ConfigError,
                       match=r"^grid of 2 points too small for dimension 3$"):
        growth_sweep([0.0, 1.0, 2.0], tiny, [0.0])


def test_solvers_never_see_an_unsorted_grid():
    # [DERIVED] each solver assumes sorted points: on these unsorted grids
    # best_uniform_approx returned error 0.8 with a certificate, and
    # growth_sweep 8.0; the sorted grids give 0.4 and 53/3
    with pytest.raises(ConfigError, match="strictly increasing"):
        Grid((0.9, 0.1, 0.5, 0.7, 0.3))
    g = Grid((0.1, 0.3, 0.5, 0.7, 0.9))
    res = best_uniform_approx(np.abs(2.0 * g.as_array() - 1.0), g, [0.0, 1.0])
    assert res.error == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(ConfigError, match="strictly increasing"):
        Grid((1.0, 0.5, 0.7, 0.9))
    g = Grid((0.5, 0.7, 0.9, 1.0))
    value = growth_sweep([0.0, 1.0, 2.0], g, [0.0])[0].value
    assert value == pytest.approx(53.0 / 3.0, rel=1e-12)


def test_growth_query_validation():
    g = discretize(normalize([[0.5, 1.0]]), 0.1)
    with pytest.raises(ConfigError):
        growth_sweep([0.0, 1.0], g, [1.5])


def test_growth_sweep_matches_single_queries():
    g = discretize(normalize([[0.5, 1.0]]), 1e-2)
    ys = [0.0, 0.1, 0.25, 0.6]
    sweep = growth_sweep([0.0, 1.0, 2.0], g, ys)
    assert len(sweep) == len(ys)
    for y, r in zip(ys, sweep):
        single = growth_sweep([0.0, 1.0, 2.0], g, [y])[0]
        assert r.value == pytest.approx(single.value, rel=1e-9)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_arithmetic_growth_beyond_the_threshold_takes_the_60_digit_route(n):
    # arithmetic(1) on [0.75, 1] at query 0 takes the 60-digit route from
    # n = 7 on, where the exchange on its alternating reference certifies
    # the value
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    res = growth_sweep(truncate(arithmetic(1.0), n), g, [0.0])[0]
    assert res.value > minimax.MP_VALUE_THRESHOLD


def test_values_agree_between_the_double_and_60_digit_routes(monkeypatch):
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    exps = truncate(arithmetic(1.0), 6)
    double = growth_sweep(exps, g, [0.0])[0]
    assert double.value < minimax.MP_VALUE_THRESHOLD
    monkeypatch.setattr(minimax, "MP_VALUE_THRESHOLD", 0.0)
    exact = growth_sweep(exps, g, [0.0])[0]
    assert exact.value == pytest.approx(double.value, rel=1e-6)


def test_growth_large_values_match_chebyshev():
    # [DERIVED] deep in the high-growth regime the 60-digit route must still
    # track the closed form T_n((2-s)/s)
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    n = 11
    res = growth_sweep(list(range(n + 1)), g, [0.0])[0]
    assert res.value > 1e8  # exercises the high-precision branch
    assert res.value == pytest.approx(chebyshev_T(n, 7.0), rel=1e-3)


# the excess bounds sit above the largest relative excess measured over
# these cases: 1.77e-3 at mesh 1e-3 (arithmetic(0.5)) and 2.57e-5 at mesh
# 1e-4 (arithmetic(2)); the lowest ratio measured is 1 - 1.24e-13 (mesh
# 1e-4, arithmetic(0.5), n = 1)
@pytest.mark.parametrize("mesh, excess", [(1e-3, 2e-3), (1e-4, 3e-5)])
def test_arithmetic_growth_on_the_end_interval_matches_chebyshev(mesh, excess):
    # span{x^(k alpha) : k <= n} is the polynomials of degree n in
    # u = x^alpha, and [0.75, 1] maps onto [a, 1] with a = 0.75^alpha, so
    # the growth at 0 is T_n((1 + a) / (1 - a)); a grid constrains less than
    # the interval, so its value is at least that.  arithmetic(0.5) at
    # n = 12 raises ConditioningError on both grids (ROADMAP items 5, 19).
    g = discretize(normalize([[0.75, 1.0]]), mesh)
    for alpha, top in ((0.5, 11), (2.0, 12), (3.0, 12)):
        a = 0.75 ** alpha
        for n in range(1, top + 1):
            value = growth_sweep(truncate(arithmetic(alpha), n), g, [0.0])[0].value
            closed = chebyshev_T(n, (1 + a) / (1 - a))
            assert closed * (1 - 1e-12) <= value <= closed * (1 + excess)


def test_growth_sweep_survives_cycling_double_exchange():
    # [DERIVED] T_12(7): the double-precision set-Chebyshev exchange stops
    # moving (a 1-cycle) at M = 1.00003 on this 33-query sweep, short of a
    # certificate, so the value must come from the 60-digit route
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    sweep = growth_sweep(range(13), g, np.linspace(0.0, 0.5, 33))
    assert sweep[0].value == pytest.approx(chebyshev_T(12, 7.0), rel=1e-2)


def test_exchange_names_each_stop_at_once(monkeypatch):
    # A synthetic solve on 6 points: its residual is +-1 at the pair of
    # indices `step` gives for the reference and 0 elsewhere, so the next
    # reference is exactly that pair; the level is the solve count.
    def run(step):
        solved = []

        def solve(ref):
            solved.append(tuple(ref))
            nxt = list(step(tuple(ref)))
            r = np.zeros(6)
            r[nxt] = [1.0, -1.0][: len(nxt)]
            return r, float(len(solved)), False, len(solved)

        ref, state, failure = minimax._exchange(6, 2, solve, "M",
                                                start=[0, 1])
        assert state == len(solved)  # the state of the last solve
        return solved, ref, failure

    # (0,1) -> (2,3) -> (4,5) -> (2,3): a 2-cycle, named before the
    # repeated reference is solved again
    chain = {(0, 1): (2, 3), (2, 3): (4, 5), (4, 5): (2, 3)}
    solved, ref, failure = run(chain.get)
    assert solved == [(0, 1), (2, 3), (4, 5)] and ref == [4, 5]
    assert failure == ("exchange fell into a 2-cycle of references at step 1 "
                       "(M between 2 and 3)")
    # a reference that does not move is a 1-cycle, named at once
    solved, ref, failure = run(lambda ref: ref)
    assert solved == [(0, 1)] and ref == [0, 1]
    assert failure == ("exchange fell into a 1-cycle of references at step 0 "
                       "(M between 1 and 1)")
    # a residual with too few alternating extrema stops at once
    solved, _, failure = run(lambda ref: (3,))
    assert solved == [(0, 1)]
    assert failure == "exchange stopped with 1 of 2 alternating extrema (M 1)"
    # and the cap stops a chain that never repeats
    monkeypatch.setattr(minimax, "MAX_EXCHANGES", 2)
    solved, _, failure = run(lambda ref: (ref[1], ref[1] + 1))
    assert solved == [(0, 1), (1, 2)]
    assert failure == "no convergence within 2 exchanges"


def counting_decimal_solves(monkeypatch):
    calls = []
    real = minimax._decimal_solve

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(minimax, "_decimal_solve", counted)
    return calls


def set_chebyshev_mp(x, exps, queries, start=None):
    """The 60-digit exchange for queries outside the hull of the grid x."""
    rows = minimax._decimal_rows(np.append(x, queries), exps)
    return minimax._set_chebyshev_mp(rows[: len(x)], rows[len(x):],
                                     np.ones(len(x)), start)


@pytest.mark.parametrize("exps", [
    truncate(squares(), 12),
    truncate(arithmetic(1.0), 12),
    truncate(arithmetic(0.5), 12),
    [0.0, 0.3, 1.7, 2.0],
    [2.0, 5.0],  # no exponent 0: the first column is a power too
])
def test_decimal_rows_match_direct_powers(exps):
    # the column products x^e_{j-1} * x^(e_j - e_{j-1}) against one direct
    # power per entry; Decimal raises on 0 ** 0, so x = 0 is set apart
    x = np.append(0.0, discretize(normalize([[0.75, 1.0]]), 1e-3).as_array())
    assert x[-1] == 1.0
    rows = minimax._decimal_rows(x, exps)
    assert rows.shape == (len(x), len(exps))
    with localcontext(Context(prec=minimax.MP_DIGITS)):
        for xi, row in zip(x.tolist(), rows):
            for e, got in zip(exps, row):
                want = (Decimal(xi) ** Decimal(e) if xi > 0.0
                        else Decimal(int(e == 0)))
                assert isinstance(got, Decimal)
                assert abs(got - want) <= Decimal("1e-55") * want


# The criterion-5 sweeps that the 60-digit route answers (arithmetic(1),
# n = 7...12, the default family at mesh 1e-3, 33 queries on [0, 0.5]), in
# call order: the values at the first and the last query of each group.
CRITERION_5_MP_VALUES = [
    ("50862365.38873943", "114286.4332584789"),
    ("708843189.582616", "666518.0119160744"),
    ("46143997.327688634", "26.256674501385874"),
    ("9876691075.936615", "3886258.05388744"),
    ("456953783.1753089", "43.08287272759472"),
    ("137439998614.61392", "22629473.848896764"),
    ("4519247696.372389", "70.5695622221326"),
    ("32803090.30728739", "19.495554961620055"),
    ("1913744339061.5886", "131857032.39649716"),
    ("44723173608.045715", "115.73340905468757"),
    ("148648557.53182903", "25.205632139625617"),
    ("26692490308128.21", "769620313.4123322"),
    ("443338618817.6259", "190.1881981761216"),
    ("1108028586.88285", "38.89548701270851"),
]


def test_60_digit_route_keeps_its_bits(monkeypatch):
    calls = []
    real = minimax._set_chebyshev_mp

    def recorded(*args):
        values, coeffs = real(*args)
        calls.append((repr(values[0]), repr(values[-1])))
        return values, coeffs

    monkeypatch.setattr(minimax, "_set_chebyshev_mp", recorded)
    for n in range(7, 13):
        for A in default_set_family(0.25, 0.5):
            growth_sweep(truncate(arithmetic(1.0), n), discretize(A, 1e-3),
                         np.linspace(0.0, 0.5, 33))
    assert calls == CRITERION_5_MP_VALUES


def test_set_chebyshev_mp_warm_start_gives_the_cold_bits():
    # the criterion-5 case: the double exchange of a single query (its own
    # Q) stops moving at M = 1.00001, uncertified, and gives a reference to
    # start from
    x = discretize(normalize([[0.75, 1.0]]), 1e-3).as_array()
    exps = [float(e) for e in range(13)]
    ys = np.linspace(0.0, 0.5, 33)
    Qall, _ = orthonormalize(basis_matrix(np.append(x, 0.0), exps))
    _, ref, failure = minimax._set_chebyshev(Qall[: len(x)], np.ones(len(x)))
    # the cycle's levels are printed in full, not rounded to "1"
    levels = re.search(r"M between (\S+) and (\S+)\)", failure).groups()
    assert all(1.0 < float(v) < 1.001 for v in levels)
    cold = set_chebyshev_mp(x, exps, ys)
    warm = set_chebyshev_mp(x, exps, ys, start=ref)
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
    cold_values, cold_coeffs = set_chebyshev_mp(x, exps, out_ys)
    cold_solves = len(calls)
    calls.clear()
    sweep = growth_sweep(exps, g, ys)
    assert 0 < len(calls) < cold_solves
    assert repr([r.value for r in sweep[: len(out_ys)]]) == repr(cold_values)
    assert repr(sweep[0].extremal.coefficients) == repr(tuple(cold_coeffs))


EVERY_ROUTE_SET = [[0.5, 0.6], [0.9, 1.0]]
# outside the hull (twice the same query, above MP_VALUE_THRESHOLD, so the
# 60-digit route), in the gap between the two intervals (a gap group), at a
# grid point, and outside again
EVERY_ROUTE_QUERIES = [0.0, 0.75, 0.5, 0.0, 0.3]


def test_growth_sweep_serves_every_route_in_query_order():
    g = discretize(normalize(EVERY_ROUTE_SET), 1e-3)
    exps = truncate(arithmetic(0.5), 10)
    ys = EVERY_ROUTE_QUERIES
    sweep = growth_sweep(exps, g, ys)
    assert len(sweep) == len(ys)
    first, gap, grid_point, again, _ = sweep
    assert repr(again.value) == repr(first.value)
    assert again.extremal == first.extremal
    assert first.value > minimax.MP_VALUE_THRESHOLD
    assert grid_point.value == 1.0
    assert repr(gap.value) == repr(growth_sweep(exps, g, [0.75])[0].value)


def test_growth_sweep_evaluates_its_basis_once(monkeypatch):
    # in double, and in 60 digits for both the outside and the gap group
    g = discretize(normalize(EVERY_ROUTE_SET), 1e-3)
    calls = {"basis_matrix": [], "_decimal_rows": []}
    for name in calls:
        real = getattr(minimax, name)
        monkeypatch.setattr(minimax, name, lambda *args, name=name, real=real:
                            calls[name].append(1) or real(*args))
    mp = counting_decimal_solves(monkeypatch)
    growth_sweep(truncate(arithmetic(0.5), 10), g, EVERY_ROUTE_QUERIES)
    assert len(calls["basis_matrix"]) == len(calls["_decimal_rows"]) == 1
    assert mp  # the 60-digit route ran


def test_growth_sweep_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("growth_sweep solved an LP")

    monkeypatch.setattr(minimax, "linprog", no_lp)
    g = discretize(normalize(EVERY_ROUTE_SET), 1e-3)
    sweep = growth_sweep(truncate(arithmetic(0.5), 10), g,
                         EVERY_ROUTE_QUERIES)
    assert sweep[1].value == pytest.approx(299.6131910585781, rel=1e-12)
    # fat_cantor(2, (0.5, 1)) has three gaps, and a query in each
    A = fat_cantor(2, (0.5, 1.0))
    g = discretize(A, 1e-3)
    ys = [0.0, 0.5, 0.6, 0.62, 0.75, 0.85, 0.9, 1.0]
    assert [y for y in ys if not any(a <= y <= b for a, b in A.intervals)] == [
        0.0, 0.6, 0.75, 0.9]
    for y, r in zip(ys, growth_sweep(truncate(arithmetic(1.0), 6), g, ys)):
        assert r.value >= 1.0
        assert abs(r.extremal(y)) == pytest.approx(r.value, rel=1e-9)
        assert np.max(np.abs(r.extremal(g.as_array()))) <= 1.0 + 1e-9


def test_growth_sweep_hands_an_uncertified_exchange_to_60_digits():
    # criterion 5, arithmetic(1), n = 10, fat_cantor(3, (0.5, 1)): the
    # double exchange stalls at M - 1 above SET_CHEBYSHEV_TOL with values
    # under MP_VALUE_THRESHOLD; the 60-digit route answers, and 100 digits
    # give the same bits.  The rescaled double answer was 32803229.9116202.
    g = discretize(fat_cantor(3, carrier=(0.5, 1.0)), 1e-3)
    sweep = growth_sweep(truncate(arithmetic(1.0), 10), g,
                         np.linspace(0.0, 0.5, 33))
    assert sweep[0].value == pytest.approx(32803090.30728739, rel=1e-12)


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
    alone = growth_sweep(exps, g, [0.3])[0].value
    assert alone == pytest.approx(with_zero, rel=1e-6)


def test_set_chebyshev_mp_names_the_iteration_cap(monkeypatch):
    # the 60-digit route runs the same exchange loop and its messages
    x = discretize(normalize([[0.75, 1.0]]), 1e-3).as_array()
    monkeypatch.setattr(minimax, "MAX_EXCHANGES", 1)
    with pytest.raises(ConvergenceError,
                       match=re.escape("(mp) no convergence within 1")):
        set_chebyshev_mp(x, [float(e) for e in range(13)], [0.0])


def test_set_chebyshev_mp_names_a_stall(monkeypatch):
    # a residual without alternating extrema stops the exchange on its first
    # reference (M = 87.8): an uncertified answer is an error, not a value
    x = discretize(normalize([[0.75, 1.0]]), 1e-3).as_array()
    monkeypatch.setattr(minimax, "_alternating_extrema", lambda r: [])
    with pytest.raises(ConvergenceError,
                       match="stopped with 0 of 13 alternating extrema"):
        set_chebyshev_mp(x, [float(e) for e in range(13)], [0.0])


def test_growth_half_step_exponents_take_the_60_digit_route():
    # [DERIVED] non-integer exponents through the 60-digit route; the value
    # is the one an mpmath (60 dps) implementation of the same route gave
    g = discretize(normalize([[0.75, 1.0]]), 1e-3)
    res = growth_sweep(truncate(arithmetic(0.5), 8), g, [0.0])[0]
    assert res.value > minimax.MP_VALUE_THRESHOLD
    assert res.value == pytest.approx(179474789464.95975, rel=1e-12)


def test_60_digit_route_imports_no_mpmath():
    code = (
        "import sys\n"
        "from muntzlab.minimax import growth_sweep\n"
        "from muntzlab.sets import discretize, normalize\n"
        "g = discretize(normalize([[0.75, 1.0]]), 1e-3)\n"
        "assert growth_sweep(list(range(12)), g, [0.0])[0].value > 1e8\n"
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
    coeffs, err, _ = discrete_minimax_lp(B, f)
    res = best_uniform_approx(f, g, exps)
    assert err == pytest.approx(res.error, rel=1e-6)
    assert np.max(np.abs(f - B @ coeffs)) == pytest.approx(err, rel=1e-6)


def test_discrete_minimax_lp_rank_deficient():
    x = np.linspace(0, 1, 50)
    V = basis_matrix(x, [0.0, 1.0])
    B = np.column_stack([V, V[:, 1]])  # duplicated column
    coeffs, err, _ = discrete_minimax_lp(B, x ** 2)
    _, err_clean, _ = discrete_minimax_lp(V, x ** 2)
    assert err == pytest.approx(err_clean, rel=1e-9)  # duplicate adds nothing
    assert err == pytest.approx(0.125, abs=1e-3)
    assert np.max(np.abs(x ** 2 - B @ coeffs)) == pytest.approx(err, rel=1e-6)


def test_discrete_minimax_lp_on_a_basis_wider_than_its_grid():
    # 5 columns on 3 points: the pivoted QR keeps 3 of them, which
    # interpolate f, so the error is 0 up to rounding
    x = np.array([0.0, 0.5, 1.0])
    B = basis_matrix(x, [0.0, 1.0, 4.0, 9.0, 16.0])
    f = np.abs(2.0 * x - 1.0)
    coeffs, err, _ = discrete_minimax_lp(B, f)
    assert coeffs.shape == (5,)
    assert np.count_nonzero(coeffs) <= 3
    assert err <= 1e-14
    assert np.max(np.abs(f - B @ coeffs)) <= 1e-14


def test_discrete_minimax_lp_zero_basis():
    # a zero basis keeps no column, and a basis without columns has none:
    # the exchange answers the empty basis on the row where |f| peaks
    f = np.linspace(0, 1, 10)
    for B in (np.zeros((10, 2)), np.zeros((10, 0))):
        coeffs, err, ref = discrete_minimax_lp(B, f)
        assert coeffs.shape == (B.shape[1],)
        assert np.all(coeffs == 0)
        assert ref == (9,)
        assert err == pytest.approx(1.0)


def test_discrete_minimax_lp_refuses_a_grid_of_no_points():
    with pytest.raises(ConfigError, match="grid of 0 points"):
        discrete_minimax_lp(np.zeros((0, 2)), np.zeros(0))


# entries with repeats, so that equal rows and exact fits are common, and
# at most 1e15 in magnitude, where answers stay in range; the test over all
# finite floats below reaches the overflows
lp_entries = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                       st.floats(-1e15, 1e15))


@st.composite
def small_minimax_lps(draw, entries=lp_entries):
    """(B, f) of a minimax LP on N <= 30 grid points with m <= 10
    columns, each drawn afresh, zero, or a copy of an earlier one; m > N
    makes a basis wider than its grid.  At times one entry of B or f is
    not finite."""
    N, m = draw(st.integers(1, 30)), draw(st.integers(0, 10))
    column = st.lists(entries, min_size=N, max_size=N)
    cols = []
    for j in range(m):
        kind = draw(st.sampled_from(["new", "zero", "copy"][:3 if j else 2]))
        cols.append(draw(column) if kind == "new" else
                    [0.0] * N if kind == "zero" else
                    cols[draw(st.integers(0, j - 1))])
    B = np.array(cols, dtype=float).reshape(m, N).T.copy()
    f = np.array(draw(column))
    bad = draw(st.none() | st.sampled_from([math.nan, math.inf, -math.inf]))
    if bad is not None:
        data = draw(st.sampled_from([B, f] if m else [f]))
        data.flat[draw(st.integers(0, data.size - 1))] = bad
    return B, f


def answers_or_raises_a_muntzlab_error(B, f):
    # any other exception, or an answer that is not finite, fails the test
    try:
        coeffs, err, ref = discrete_minimax_lp(B, f)
    except MuntzlabError:
        return
    assert np.isfinite(B).all() and np.isfinite(f).all()
    assert coeffs.shape == (B.shape[1],)
    assert np.isfinite(coeffs).all() and math.isfinite(err)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_minimax_lps())
def test_minimax_lp_answers_or_raises_a_muntzlab_error(lp):
    answers_or_raises_a_muntzlab_error(*lp)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(small_minimax_lps(st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False))))
def test_minimax_lp_on_all_finite_floats_answers_or_raises_a_muntzlab_error(lp):
    # entries up to 1.7e308 overflow in the QR or in the exchange's
    # residual: a typed error, or HiGHS's answer, never a RuntimeWarning or
    # linprog's ValueError
    answers_or_raises_a_muntzlab_error(*lp)


def test_minimax_lp_refuses_f_of_another_shape():
    # before any QR: f of length 1, of length 25, or a column on 20 rows
    B = basis_matrix(np.linspace(0.0, 1.0, 20), [0.0, 1.0])
    for f in (np.ones(1), np.ones(25), np.ones((20, 1))):
        with pytest.raises(ConfigError,
                           match="^target samples must match the grid$"):
            discrete_minimax_lp(B, f)


# ---------------------------------------------- Stiefel's exchange on the LP


@functools.cache
def search_lps(n):
    """(B, f, start) of every LP that the squares x 4 search at dimension
    n solves with criterion 8's grid and settings, start being the
    reference the search hands it."""
    lps = []
    real = products.discrete_minimax_lp

    def recorded(B, f, start=None):
        lps.append((B, f, start))
        return real(B, f, start)

    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 256)
    x = g.as_array()
    spec = products.ProductSpaceSpec(tuple(squares() for _ in range(4)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(products, "discrete_minimax_lp", recorded)
        products.product_approx_search(np.abs(2 * x - 1), g, spec, n=n,
                                       rounds=20, seed=0, restarts=5)
    return lps


@pytest.fixture(scope="module")
def criterion_8_lps():
    return search_lps(6)


def weighted_lp_input(seed):
    """A minimax LP on a basis g x^lambda whose weight g changes sign
    inside the grid: no Haar system."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, 60 + 40 * (seed % 5)))
    exps = sorted(rng.choice(12, size=3 + seed % 5, replace=False))
    roots = rng.uniform(0.1, 0.9, 1 + seed % 3)
    g = np.prod(x[:, None] - roots, axis=1)
    return g[:, None] * basis_matrix(x, exps), np.sin(3 * x) + x ** 0.5


def highs_answer(B, f):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(minimax, "_stiefel", lambda Q, f, start=None: None)
        return discrete_minimax_lp(B, f)


def dual_bound(B, f, coeffs, ref):
    """The dual weights mu and value h of the reference ref with the signs
    of the residual there, from a fresh solve in the QR coordinates of B:
    sum mu_i s_i q_i = 0, sum mu_i = 1, h = sum mu_i s_i f_i."""
    ref = list(ref)
    Q, _ = np.linalg.qr(B)
    s = np.sign((f - B @ coeffs)[ref])
    w = np.linalg.solve(np.column_stack([Q[ref], s]).T,
                        np.eye(len(ref))[-1])
    return s * w, float(w @ f[ref])


def check_answer(B, f, start=None, answer=None, want=None):
    """discrete_minimax_lp's error is never above the HiGHS residual `want`
    by more than 1e-12 relative, and an exchange answer carries its
    certificate: dual weights >= 0 from a fresh solve on its reference,
    and a dual value h with (E - h) / E <= 1e-12.  The answer is that of
    the LP from `start` and the residual that of highs_answer, unless
    given.  Returns the reference."""
    if answer is None:
        answer = discrete_minimax_lp(B, f, start)
    if want is None:
        want = highs_answer(B, f)[1]
    coeffs, err, ref = answer
    assert err <= want * (1.0 + 1e-12)
    if ref is not None:
        mu, h = dual_bound(B, f, coeffs, ref)
        assert np.all(mu >= 0.0)
        assert (err - h) / err <= 1e-12
    return ref


def test_minimax_exchange_answers_criterion_8(criterion_8_lps):
    for B, f, start in criterion_8_lps:
        assert check_answer(B, f, start) is not None  # HiGHS answers none


@pytest.mark.parametrize("seed", range(20))
def test_minimax_exchange_answers_a_sign_changing_weight(seed):
    assert check_answer(*weighted_lp_input(seed)) is not None


def test_minimax_exchange_hands_a_zero_weight_to_highs():
    # g vanishes where f peaks, so that row alone bounds the error: the
    # optimal dual weight is 0 on every other row, and many b are optimal
    x = np.linspace(0.0, 1.0, 101)
    B = (x - 0.5)[:, None] * basis_matrix(x, [0.0, 1.0, 2.0])
    f = 1.0 - np.abs(2 * x - 1)
    coeffs, err, ref = discrete_minimax_lp(B, f)
    assert ref is None
    assert err == pytest.approx(1.0, rel=1e-9)
    assert np.max(np.abs(f - B @ coeffs)) == pytest.approx(err, rel=1e-9)


def test_minimax_exchange_stops_when_h_falls(monkeypatch):
    # squares n = 64 on a 1e-3 grid keep 35 columns, and there a re-signing
    # lowers the dual value h: the exchange would cycle up to MAX_EXCHANGES
    # steps.  It hands over to HiGHS at the first fall of h instead.
    x = unit_grid(1e-3).as_array()
    B, f = basis_matrix(x, truncate(squares(), 64)), np.abs(2 * x - 1)
    steps = []
    real = np.linalg.solve

    def counted(A, b):
        steps.append(A.shape)
        return real(A, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    coeffs, err, ref = discrete_minimax_lp(B, f)
    monkeypatch.undo()
    assert ref is None
    assert len(steps) < 20 < minimax.MAX_EXCHANGES
    _, want, _ = highs_answer(B, f)
    assert err == want


def test_minimax_exchange_keeps_its_steps_on_criterion_8(monkeypatch):
    # the search's LPs take 1384 LU solves in _stiefel and end on the floor
    # 0.05634587149095405: a change to how a step is computed moves no step
    steps = []
    real = np.linalg.solve

    def counted(A, b):
        if sys._getframe(1).f_code is minimax._stiefel.__code__:
            steps.append(A.shape)
        return real(A, b)

    g = discretize(normalize([[0.0, 1.0]]), 1.0 / 256)
    spec = products.ProductSpaceSpec(tuple(squares() for _ in range(4)))
    monkeypatch.setattr(np.linalg, "solve", counted)
    rep = products.product_approx_search(np.abs(2 * g.as_array() - 1), g, spec,
                                         n=6, rounds=20, seed=0, restarts=5)
    monkeypatch.undo()
    assert len(steps) == 1384
    assert repr(rep.best_error_by_round[-1]) == "0.05634587149095405"


@pytest.mark.parametrize("n", [6, 10, 12])
def test_minimax_exchange_started_from_its_answer_returns_it(n):
    # the product search's fixed-point stop rests on this: an LP started
    # from the reference of its own exchange answer returns that answer
    answered = 0
    for B, f, start in search_lps(n):
        coeffs, err, ref = discrete_minimax_lp(B, f, start)
        if ref is None:
            continue
        again = discrete_minimax_lp(B, f, ref)
        assert again[0].tobytes() == coeffs.tobytes()
        assert again[1:] == (err, ref)
        answered += 1
    assert answered > 0


@pytest.mark.parametrize("n", [6, 10, 12])
def test_minimax_exchange_cold_and_warm_starts_agree_on_the_error(n):
    # the search's start and an even spread can stop on different optimal
    # references, whose bits differ; where both certify, both answers
    # carry their certificate and their errors agree to rounding.  On the
    # n = 10 and 12 searches the even spread fails on some LPs where the
    # search's start certifies, and HiGHS answers those.
    cold_to_highs = 0
    for B, f, start in search_lps(n):
        warm = discrete_minimax_lp(B, f, start)
        cold = discrete_minimax_lp(B, f)
        if cold[2] is None:
            cold_to_highs += 1
        elif warm[2] is not None:
            want = highs_answer(B, f)[1]
            check_answer(B, f, answer=warm, want=want)
            check_answer(B, f, answer=cold, want=want)
            assert cold[1] == pytest.approx(warm[1], rel=1e-12)
    assert (cold_to_highs > 0) == (n > 6)


def test_failed_minimax_exchange_hands_over_to_highs(monkeypatch,
                                                      criterion_8_lps):
    cases = criterion_8_lps + [weighted_lp_input(s) + (None,)
                               for s in range(5)]
    want = [discrete_minimax_lp(B, f, start)[1] for B, f, start in cases]
    monkeypatch.setattr(minimax, "MAX_EXCHANGES", 1)  # the cap stops it
    for (B, f, start), err in zip(cases, want):
        coeffs, got, ref = discrete_minimax_lp(B, f)
        assert ref is None
        # HiGHS stops at its feasibility tolerance, up to 1.3e-6 relative
        # above the optimum on these LPs, never below it
        assert err * (1.0 - 1e-12) <= got <= err * (1.0 + 1.5e-6)
        assert np.max(np.abs(f - B @ coeffs)) == pytest.approx(got, rel=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 10: HiGHS stops at its absolute feasibility tolerance, "
    "4.89e-6 relative above the optimum on this LP"))
def test_highs_fallback_meets_the_handover_bound_on_weighted_seed_5():
    # the weighted seeds 0-4, 6-9 stay within 2.5e-9 of the exchange's
    # certified optimum; seed 5 is the one beyond the 1.5e-6 bound above
    B, f = weighted_lp_input(5)
    _, err, ref = discrete_minimax_lp(B, f)
    assert ref is not None  # the exchange certified this optimum
    _, got, _ = highs_answer(B, f)
    assert err * (1.0 - 1e-12) <= got <= err * (1.0 + 1.5e-6)


def statements_run(code, run):
    """run() and the line numbers of the function `code` that it ran,
    recorded by sys.settrace."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        return run(), seen
    finally:
        sys.settrace(old)


def line_after(func, text, occurrence=0):
    """The line number of the statement after the `occurrence`-th line of
    func's source that reads `text`."""
    lines, first = inspect.getsourcelines(func)
    return [first + i for i, line in enumerate(lines)
            if line.strip() == text][occurrence] + 1


def edit_stiefel_solves(edit):
    """A patch of np.linalg.solve that passes each solution X of a _stiefel
    step through edit(A, X)."""
    def patch(monkeypatch):
        real, code = np.linalg.solve, minimax._stiefel.__code__

        def solve(A, b):
            X = real(A, b)
            return edit(A, X) if sys._getframe(1).f_code is code else X

        monkeypatch.setattr(np.linalg, "solve", solve)
    return patch


def singular(*args):
    raise np.linalg.LinAlgError("Singular matrix")


def not_finite(A, X):
    X[0, 0] = np.nan  # as an overflow in the LU solve leaves it
    return X


def mixed_weights(A, X):
    X[-1, 1] = -A[0, -1]  # mu_0 = -1 whatever the signs
    return X


def no_ratio(A, X):
    X[:, 1:] = 0.0  # mu = 0 and every ratio direction d = 0
    return X


# each exchange failure that no LP of the lab meets: the patch that brings
# it about, and the function, text and occurrence of the line whose
# `return None` it reaches
EXCHANGE_FAILURES = {
    "singular reference": (edit_stiefel_solves(singular), minimax._stiefel,
                           "except np.linalg.LinAlgError:", 0),
    "solution not finite": (edit_stiefel_solves(not_finite),
                            minimax._stiefel,
                            "if not np.isfinite(X).all():", 0),
    "signs stay inconsistent": (edit_stiefel_solves(mixed_weights),
                                minimax._stiefel, "if resigned:", 0),
    "no positive ratio": (edit_stiefel_solves(no_ratio), minimax._stiefel,
                          "if pos.size == 0:", 0),
}


@pytest.mark.parametrize("failure", EXCHANGE_FAILURES)
def test_each_exchange_failure_hands_the_lp_to_highs(monkeypatch, failure):
    patch, func, text, occurrence = EXCHANGE_FAILURES[failure]
    B, f = weighted_lp_input(0)  # which the exchange answers unpatched
    want_coeffs, want_err, _ = highs_answer(B, f)
    patch(monkeypatch)
    (coeffs, err, ref), seen = statements_run(
        func.__code__, lambda: discrete_minimax_lp(B, f))
    assert line_after(func, text, occurrence) in seen
    assert ref is None
    assert coeffs.tobytes() == want_coeffs.tobytes() and err == want_err


@pytest.mark.parametrize("solver", ["best_uniform_approx", "_set_chebyshev"])
def test_a_singular_reference_system_is_a_conditioning_error(monkeypatch,
                                                             solver):
    g = discretize(normalize([[0.5, 1.0]]), 1e-2)
    x = g.as_array()
    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ConditioningError, match="^singular reference system$"):
        if solver == "best_uniform_approx":
            best_uniform_approx(x ** 2, g, [0.0, 1.0])
        else:  # a query outside the hull: the double exchange
            growth_sweep([0.0, 1.0], g, [0.0])


# ------------------------------- the LP door: linprog after a failed exchange


@pytest.fixture
def exchange_fails(monkeypatch):
    """discrete_minimax_lp with its exchange reporting failure, so that
    linprog answers."""
    monkeypatch.setattr(minimax, "_stiefel", lambda Q, f, start=None: None)


def minimax_lp_input(seed):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, 40 + 10 * seed))
    B = basis_matrix(x, sorted(rng.choice(9, size=2 + seed % 4, replace=False)))
    return B, np.abs(2 * x - 1) + 0.1 * rng.standard_normal(x.size)


def solve_minimax(monkeypatch, seed):
    """The answer of one seeded minimax LP, and its number of linprog
    calls."""
    calls = []
    real = minimax.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(minimax, "linprog", counted)
    return discrete_minimax_lp(*minimax_lp_input(seed)), len(calls)


@pytest.mark.usefixtures("exchange_fails")
@pytest.mark.parametrize("seed", range(6))
def test_lp_door_gives_scipy_linprog_bits(monkeypatch, seed):
    # the fallback answers with the bits of HiGHS dual simplex, presolve
    # off, on the LP in (b, t) built here, in the QR coordinates of B
    from scipy.optimize import linprog as scipy_linprog  # the oracle

    (coeffs, err, ref), calls = solve_minimax(monkeypatch, seed)
    B, f = minimax_lp_input(seed)
    Q, R = np.linalg.qr(B)
    N, k = Q.shape
    ones = np.ones((N, 1))
    want = scipy_linprog(
        np.append(np.zeros(k), 1.0), A_ub=np.block([[Q, -ones], [-Q, -ones]]),
        b_ub=np.concatenate([f, -f]),
        bounds=np.column_stack([np.append(np.full(k, -np.inf), 0.0),
                                np.full(k + 1, np.inf)]),
        method="highs", options={"presolve": False})
    assert want.status == 0
    assert (calls, ref) == (1, None)
    b = want.x[:k]
    assert coeffs.tobytes() == np.linalg.solve(R, b).tobytes()
    assert err == float(np.max(np.abs(f - Q @ b)))


@pytest.mark.usefixtures("exchange_fails")
def test_lp_door_raises_no_warning(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_minimax(monkeypatch, 0)[1] == 1


# each turns the fallback's LP (c, A_ub, b_ub, bounds) into one that HiGHS
# cannot solve
BROKEN_LPS = {
    "Infeasible": lambda c, A, b, bounds: (c, 0 * A, -np.ones_like(b), bounds),
    "Unbounded": lambda c, A, b, bounds:
        (c, 0 * A, np.ones_like(b), [(None, None)] * len(bounds)),
}


# the one LP that falls back to linprog, which names itself in messages
DOOR_CALLERS = ["minimax"]


@pytest.mark.usefixtures("exchange_fails")
@pytest.mark.parametrize("status", BROKEN_LPS)
@pytest.mark.parametrize("solver", DOOR_CALLERS)
def test_lp_door_failures_raise_convergence_error(monkeypatch, status, solver):
    real = minimax.linprog

    def broken(c, A_ub, b_ub, bounds, **kwargs):
        c, A_ub, b_ub, bounds = BROKEN_LPS[status](c, A_ub, b_ub, bounds)
        return real(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, **kwargs)

    monkeypatch.setattr(minimax, "linprog", broken)
    with pytest.raises(ConvergenceError, match=(
            f"^{solver} LP failed: The problem is {status.lower()}\\. "
            f"\\(HiGHS Status \\d+: model_status is {status}; ")):
        discrete_minimax_lp(*minimax_lp_input(0))


def test_lp_door_refuses_data_that_is_not_finite():
    # before any factorization, whether or not the exchange would answer,
    # and on a basis of zeros too
    B, f = minimax_lp_input(0)
    for data, i, bad in [("f", 3, np.nan), ("B", (5, 1), np.nan),
                         ("B", (5, 1), np.inf), ("B", (0, 0), -np.inf),
                         ("f", 0, np.inf)]:
        for basis in (B, 0.0 * B):
            lp = {"B": basis.copy(), "f": f.copy()}
            lp[data][i] = bad
            with pytest.raises(ConvergenceError, match=(
                    "^minimax LP failed: LP data not finite$")):
                discrete_minimax_lp(lp["B"], lp["f"])
