"""Discrete minimax engine for finite Muntz systems.

Two solvers share one orthonormalization front end:

* best_uniform_approx - discrete Remez exchange on a grid, returning an
  equioscillation certificate (alternating reference points plus a
  de-la-Vallee-Poussin lower bound).
* growth_functional   - the extremal growth
  sup { |p(y)| : |p| <= 1 on the constraint grid }: 1 at a grid point
  when 0 is an exponent; otherwise one exchange per sign pattern of the
  extremal on the grid (_growth_lp), which finishes in 60 digits for
  every query inside the constraint hull.

The discrete minimax LP (min over b of max |f - Q b|, on which the
exchange falls back and which the product search solves) is answered by
Stiefel's exchange (_stiefel): the simplex method on its dual, whose
bases are references of k + 1 grid points, valid without a Haar
condition.  When that exchange fails, one call to scipy's linprog answers
the LP by HiGHS dual simplex.

Every exchange on alternating references (best approximation,
set-Chebyshev in double and in 60-digit decimal arithmetic) runs in the one
loop _exchange, which returns its last solve; the solvers supply only a
solve.  Each step moves to the strongest alternating set of the residual's
extrema (_trim_reference), the one exchange rule.  An exchange either
certifies its answer or fails (a cycle, the cap or a stall), and a failure
goes to the exact fallback: the LP, or 60 digits.  The LP's exchange keeps
its own loop, as its references need not alternate: it drops the point
that the ratio test on the dual weights picks, and every step refills the
same few arrays.

The 60-digit route works on one basis per growth sweep, grid and query
points together: _decimal_rows builds it as an object array of Decimal, a
whole column at a time, and each exchange step evaluates the grid by one
object-array product, so no step loops over points in Python.

Raw monomial columns x^lambda are numerically collinear well before
dimension 10, so every solve runs in coordinates of the QR-orthonormalized
evaluated basis and maps coefficients back at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from operator import mul

import numpy as np
from scipy.optimize import linprog

from muntzlab.errors import ConditioningError, ConfigError, ConvergenceError
from muntzlab.muntzeval import MuntzPolynomial, basis_matrix
from muntzlab.sets import Grid

DEFAULT_TOL = 1e-8
MAX_EXCHANGES = 200
RANK_TOL = 1e-14
SET_CHEBYSHEV_TOL = 1e-10  # slack on sup-norm 1 that ends the exchange
SET_CHEBYSHEV_MP_TOL = 1e-12  # the same at MP_DIGITS digits


@dataclass(frozen=True)
class EquioscillationResult:
    approximant: MuntzPolynomial
    error: float
    reference_points: tuple[float, ...]
    certified_lower_bound: float
    relative_gap: float


@dataclass(frozen=True)
class GrowthResult:
    value: float
    extremal: MuntzPolynomial
    query: float
    constraint_active_points: tuple[float, ...]


def chebyshev_T(n: int, x: float) -> float:
    """Degree-n Chebyshev polynomial: cos form on [-1,1], three-term
    recurrence outside (stable there, unlike acos continuation)."""
    if n < 0:
        raise ConfigError("degree must be nonnegative")
    if abs(x) <= 1.0:
        return float(math.cos(n * math.acos(x)))
    t_prev, t_cur = 1.0, float(x)
    if n == 0:
        return t_prev
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def orthonormalize(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economic QR of the evaluated basis with a rank sanity check.

    Columns are rescaled to unit sup-norm on the grid first (x^lambda for
    large lambda underflows to near zero away from 1, which would trip the
    rank check without being a genuine dependency); the scaling is folded
    back into R, so V = Q R still holds.  A grid of fewer points than the
    dimension is a mesh too coarse for it: ConfigError.
    """
    if V.shape[0] < V.shape[1]:
        raise ConfigError(
            f"grid of {V.shape[0]} points too small for dimension {V.shape[1]}")
    scale = np.max(np.abs(V), axis=0)
    if np.any(scale == 0.0):
        raise ConditioningError("basis column vanishes identically on the grid")
    Q, R = np.linalg.qr(V / scale)
    d = np.abs(np.diag(R))
    if d.min() <= RANK_TOL * d.max():
        raise ConditioningError(
            "evaluated basis is numerically rank-deficient on this grid "
            f"(diagonal ratio {d.min() / d.max():.2e})"
        )
    return Q, R * scale


def _alternating_extrema(r: np.ndarray) -> list[int]:
    """Indices of per-sign-run maxima of |r|: an alternating extremum
    sequence containing the global argmax (smallest-index tie-break).
    Zeros belong to no run and do not end one.  A residual that is not
    finite has no sign runs: ConditioningError."""
    if not np.all(np.isfinite(r)):
        raise ConditioningError("residual is not finite")
    nz = np.flatnonzero(r)
    if nz.size == 0:
        return []
    v = r[nz]
    a = np.abs(v)
    neg = np.signbit(v)
    new_run = np.concatenate(([True], neg[1:] != neg[:-1]))
    run = np.cumsum(new_run) - 1
    peak = np.maximum.reduceat(a, np.flatnonzero(new_run))
    at_peak = np.flatnonzero(a == peak[run])
    first = np.concatenate(([True], run[at_peak[1:]] != run[at_peak[:-1]]))
    return nz[at_peak[first]].tolist()


def _trim_reference(ext: list[int], r: np.ndarray, size: int) -> list[int]:
    """Shrink an alternating extremum list to the `size` points that
    alternate with the largest smallest |r|, keeping the global maximum.
    While two or more points too many remain, drop the point of smallest
    |r| (the first on a tie): alone at either end; inside, together with
    its smaller neighbour (the left one on a tie), so that the larger
    neighbour stands for both.  With one too many, drop the weaker endpoint
    (the first on a tie)."""
    ext = list(ext)
    a = np.abs(r[ext]).tolist()
    while len(ext) > size + 1:
        i = a.index(min(a))
        if 0 < i < len(a) - 1:
            j = i - 1 if a[i - 1] <= a[i + 1] else i
            del ext[j:j + 2], a[j:j + 2]
        else:
            del ext[i], a[i]
    if len(ext) > size:
        ext = ext[1:] if a[0] <= a[-1] else ext[:-1]
    return ext


def _even_spread(N: int, size: int) -> list[int]:
    """`size` grid indices spread evenly over 0 ... N - 1: the rounded
    linspace, strictly increasing whenever 1 <= size <= N."""
    return np.linspace(0, N - 1, size).round().astype(int).tolist()


def _exchange(N: int, size: int, solve, what: str,
              start: list[int] | None = None):
    """The one reference-exchange loop on an N-point grid.  The exchange
    solvers differ only in the solve they pass:
    solve(ref) -> (residual, level, done, state) solves on the reference
    `ref`, a sorted list of `size` grid indices; `level` is the scalar the
    exchange drives (`what` names it in messages), `state` what the solver
    wants back from its last solve.  The residual is not read when done.

    Starts from the reference `start`, or by default from `size` evenly
    spread indices.  The next reference is _trim_reference of the
    residual's alternating extrema: the `size` of them that alternate with
    the largest smallest |r|, global maximum included (Stiefel 1960).  It
    is a function of the current reference alone, so a repeated reference
    means a cycle for good.  Returns (ref, state, failure) of the last
    solve.  failure is None exactly when that solve was done; otherwise it
    names the stop and the last level: a cycle (a reference that does not
    move is a 1-cycle), the MAX_EXCHANGES cap, or a stall (r has fewer
    than `size` alternating extrema).
    """
    ref = list(start) if start is not None else _even_spread(N, size)
    seen: dict[tuple[int, ...], int] = {}
    levels: list[float] = []
    while True:
        seen[tuple(ref)] = len(levels)
        r, level, done, state = solve(ref)
        levels.append(level)
        if done:
            return ref, state, None
        ext = _alternating_extrema(r)
        if len(ext) < size:
            return ref, state, (f"exchange stopped with {len(ext)} of {size} "
                                f"alternating extrema ({what} {level:.15g})")
        new_ref = _trim_reference(ext, r, size)
        first = seen.get(tuple(new_ref))
        if first is not None:
            cyc = levels[first:]
            return ref, state, (
                f"exchange fell into a {len(cyc)}-cycle of references at step "
                f"{first} ({what} between {min(cyc):.15g} and {max(cyc):.15g})")
        if len(levels) >= MAX_EXCHANGES:
            return ref, state, f"no convergence within {MAX_EXCHANGES} exchanges"
        ref = new_ref


def best_uniform_approx(
    f_values,
    grid: Grid,
    exponents,
    tol: float = DEFAULT_TOL,
) -> EquioscillationResult:
    """Best uniform approximation to samples f on the grid from
    span{x^lambda_j}, by discrete Remez exchange: every step moves the
    whole reference of dimension+1 points to the strongest alternating set
    of the residual's extrema (_trim_reference).

    Finite Muntz systems are Chebyshev systems on [0,1], so the optimum
    carries an alternating reference of dimension+1 points; the minimum
    absolute residual there is a certified lower bound on the error.

    Whenever the exchange stops without a certificate (a cycle, possible in
    floating point, the MAX_EXCHANGES cap, or a stall), the same problem is
    solved exactly by discrete_minimax_lp and the certificate is rebuilt
    from the LP residual; ConvergenceError is raised if that certificate
    lacks dimension+1 alternating points or its relative gap exceeds tol.
    """
    x = grid.as_array()
    f = np.asarray(f_values, dtype=float)
    exps = tuple(float(e) for e in exponents)
    m = len(exps)
    if f.shape != x.shape:
        raise ConfigError("target samples must match the grid")
    if len(x) <= m:
        raise ConfigError(f"grid of {len(x)} points too small for dimension {m}")

    scale = float(np.max(np.abs(f))) if f.size else 0.0
    gap_floor = 1e-9 * max(1.0, scale)
    if scale == 0.0:
        zero = MuntzPolynomial(exps, (0.0,) * m)
        return EquioscillationResult(zero, 0.0, (), 0.0, 0.0)

    V = basis_matrix(x, exps)
    Q, R = orthonormalize(V)

    sigma = np.array([(-1.0) ** i for i in range(m + 1)])

    def solve(ref):
        try:
            sol = np.linalg.solve(np.column_stack([Q[ref], sigma]), f[ref])
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular reference system") from exc
        b, E = sol[:m], sol[m]
        r = f - Q @ b
        err = float(np.max(np.abs(r)))
        # an error at the noise floor means f is numerically in the span
        done = (err - abs(E) <= tol * max(err, gap_floor)
                or err <= 1e-12 * scale)
        return r, abs(float(E)), done, (b, r, err)

    ref, (b, r, err), failure = _exchange(len(x), m + 1, solve,
                                          "leveled error")
    if failure is not None:
        # Exchange is the dual simplex method on the discrete Chebyshev LP
        # (Stiefel 1960), so the LP solves the same problem exactly; its
        # residual supplies the alternating reference for the certificate.
        b, _, _ = discrete_minimax_lp(Q, f)
        r = f - Q @ b
        err = float(np.max(np.abs(r)))
        ref = _trim_reference(_alternating_extrema(r), r, m + 1)

    coeffs = np.linalg.solve(R, b)
    approx = MuntzPolynomial(exps, tuple(float(c) for c in coeffs))
    lower = float(np.min(np.abs(r[ref]))) if ref else 0.0
    # An error at the noise floor is an exact fit; the de la Vallee Poussin
    # certificate carries no information there, so the gap is reported as 0.
    gap = 0.0 if err <= gap_floor else (err - lower) / err
    if failure is not None and (len(ref) < m + 1 or gap > tol):
        raise ConvergenceError(
            f"{failure}; the LP fallback found no certificate ({len(ref)} of "
            f"{m + 1} alternating points, relative gap {gap:.2e})"
        )
    return EquioscillationResult(
        approximant=approx,
        error=err,
        reference_points=tuple(float(x[i]) for i in ref),
        certified_lower_bound=lower,
        relative_gap=gap,
    )


def growth_functional(exponents, constraint: Grid, query: float) -> GrowthResult:
    """sup { |p(query)| : p in span, |p| <= 1 on the constraint grid }."""
    return growth_sweep(exponents, constraint, [query])[0]


def _set_chebyshev(Q: np.ndarray, t: np.ndarray):
    """The element of sup-norm 1 on the grid whose values times the sign
    pattern t (+-1 per grid row of Q) alternate between +-1 at dimension
    many grid points; with t = 1, the generalized Chebyshev polynomial of
    the span on the grid.  Found by Remez-style exchange in Q coordinates.

    Returns (b, ref, failure) of the exchange's last solve: coordinates b
    with Q b = +-t alternating on the reference ref, and failure None
    exactly when max |Q b| <= 1 + SET_CHEBYSHEV_TOL certifies b, else the
    exchange's message (a cycle, the MAX_EXCHANGES cap or a stall).
    """
    N, m = Q.shape
    sigma = np.array([(-1.0) ** i for i in range(m)])

    def solve(ref):
        try:
            b = np.linalg.solve(Q[ref], sigma * t[ref])
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular reference system") from exc
        vals = Q @ b
        M = float(np.max(np.abs(vals)))
        return vals * t, M, M <= 1.0 + SET_CHEBYSHEV_TOL, b

    ref, b, failure = _exchange(N, m, solve, "M")
    return b, ref, failure


MP_VALUE_THRESHOLD = 1e8  # growth values above this take the 60-digit route
MP_DIGITS = 60


def _decimal_rows(x: np.ndarray, exps) -> np.ndarray:
    """The basis x^e of the points x at MP_DIGITS digits: an N x m object
    array of Decimal, with 0^0 = 1 and 0^e = 0.

    It is built a whole column at a time, the exponents taken in increasing
    order: x^e_j = x^e_{j-1} * x^(e_j - e_{j-1}).  A gap of 1 costs one
    multiply per point, an integer gap k one x ** k, and a non-integer gap
    one power through exp and ln per point; a gap equal to the one before
    reuses its powers.
    """
    ds = np.array([Decimal(v) for v in np.asarray(x, dtype=float).tolist()],
                  dtype=object)
    rows = np.empty((len(ds), len(exps)), dtype=object)
    with localcontext(Context(prec=MP_DIGITS)):
        col = np.full(len(ds), Decimal(1), dtype=object)
        last, gap_before = Decimal(0), None
        for j in sorted(range(len(exps)), key=lambda j: exps[j]):
            gap = Decimal(exps[j]) - last
            if gap:  # 0^0 = 1: a repeated exponent repeats its column
                if gap != gap_before:
                    k = int(gap) if gap == gap.to_integral_value() else gap
                    step, gap_before = ds if k == 1 else np.power(ds, k), gap
                col = col * step
            rows[:, j], last = col, Decimal(exps[j])
    return rows


def _decimal_solve(A: list[list[Decimal]], b: list[Decimal]) -> list[Decimal]:
    """A a = b by Gaussian elimination with partial pivoting at the current
    decimal precision.  A pivot of at most 10^-MP_DIGITS ||A||_1 means A is
    singular to working precision: ConditioningError."""
    n = len(b)
    tol = max(sum(abs(row[j]) for row in A) for j in range(n)).scaleb(-MP_DIGITS)
    M = [row + [bi] for row, bi in zip(A, b)]
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(M[i][j]))
        if abs(M[p][j]) <= tol:
            raise ConditioningError("singular reference system (mp)")
        M[j], M[p] = M[p], M[j]
        for i in range(j + 1, n):
            f = M[i][j] / M[j][j]
            M[i][j + 1:] = [u - f * v for u, v in zip(M[i][j + 1:], M[j][j + 1:])]
    a = [Decimal(0)] * n
    for j in reversed(range(n)):
        a[j] = (M[j][n] - sum(map(mul, M[j][j + 1:n], a[j + 1:]))) / M[j][j]
    return a


def _set_chebyshev_mp(rows: np.ndarray, qrows: np.ndarray, t: np.ndarray,
                      start: list[int] | None = None):
    """High-precision variant of _set_chebyshev working directly in the
    monomial basis: `rows` are the grid rows and `qrows` the query rows of
    _decimal_rows.

    Growth values of ~1e10 and beyond span more decades between grid and
    query than a double-precision basis can carry (any eps-level basis
    perturbation wrecks the query value), so the alternation solve and the
    query evaluation run in MP_DIGITS-digit decimal arithmetic and only the
    final scalars come back as floats.  Each step evaluates the grid by one
    object-array product rows.dot(a): per row, the products summed in
    column order, as sum(map(mul, row, a)) would.

    The exchange starts from the reference `start` (the one the double
    exchange stopped on), or by default from an even spread.  Returns
    (values at queries, extremal coefficients, peaks), peaks the
    extremal's |values| at the grid rows, in 60 digits from the certifying
    step; ConvergenceError when the exchange stops without a certificate.
    """
    with localcontext(Context(prec=MP_DIGITS)):
        bound = 1 + Decimal(SET_CHEBYSHEV_MP_TOL)

        def solve(ref):
            sign = [Decimal((-1) ** k * int(t[i])) for k, i in enumerate(ref)]
            a = np.array(_decimal_solve(rows[ref].tolist(), sign), dtype=object)
            vals = rows.dot(a)
            M = np.abs(vals).max()
            r = None if M <= bound else vals.astype(float) * t  # None: done
            return r, float(M), r is None, (a, vals, M)

        _, (a, vals, M), failure = _exchange(len(rows), rows.shape[1], solve,
                                             "M", start=start)
        if failure is not None:
            raise ConvergenceError(f"set-Chebyshev (mp) {failure}")
        values = [float(abs(v) / M) for v in qrows.dot(a)]
        coeffs = [float(aj / M) for aj in a]
        peaks = np.abs(vals) / M
    return values, coeffs, peaks


def _growth_lp(Q: np.ndarray, R: np.ndarray, q, t: np.ndarray, exact: bool, finish):
    """The growth LP, max q . b subject to -1 <= Q b <= 1, for each query
    row q of one group, by exchange (Stiefel 1960: the simplex method on
    this LP).  The Lagrange functions of a Chebyshev system change sign at
    the other reference points only, so the extremal for y alternates on
    the grid but for one repeated sign across y (Borwein & Erdelyi 1995):
    the group shares the sign pattern t, 1 outside the constraint hull and
    +1 below y, -1 above it inside.  After _set_chebyshev(Q, t),
    finish(t, start), the 60-digit exchange from its reference, answers
    when `exact` or when the double exchange fails or a value exceeds
    MP_VALUE_THRESHOLD.  Returns (values, coefficients, peaks) on either
    route: the double answer b is mapped back through R, V = Q R, and its
    peaks are |Q b|; the 60-digit peaks are Decimal.
    """
    b, ref, failure = _set_chebyshev(Q, t)
    values = [abs(float(row @ b)) for row in q]
    if exact or failure is not None or max(values) > MP_VALUE_THRESHOLD:
        return finish(t, ref)
    return values, np.linalg.solve(R, b), np.abs(Q @ b)


def growth_sweep(exponents, constraint: Grid, queries) -> list[GrowthResult]:
    """growth_functional over many query points.

    A grid point has value 1, attained by the constant, when 0 is an
    exponent.  Other queries are grouped by the sign pattern of their
    extremal, and one _growth_lp answers each group: in double outside the
    constraint hull (60 digits only on a failure or a value beyond
    MP_VALUE_THRESHOLD), in 60 digits inside it, on decimal grid rows built
    once per sweep.  The query points join the grid rows in one QR, so a
    query value is a plain row of Q.  A grid point y without the constant
    has the value min(1, G) and the extremal p_G / max(1, G), from the
    group answer G, p_G on the grid without y; 1 if that grid has fewer
    points than the dimension, as it cannot bound p(y) then.  A constraint
    grid of fewer points than the dimension is a mesh too coarse for it:
    ConfigError.

    An extremal's active points, where |p| >= 1 - 1e-7 on the grid, are
    read off the values that certified it (in 60 digits on the exact
    route), not off its rounded coefficients, which cancel by more.
    """
    exps = tuple(float(e) for e in exponents)
    x = constraint.as_array()
    ys = [float(y) for y in queries]
    if any(not 0.0 <= y <= 1.0 for y in ys):
        raise ConfigError("query must lie in [0, 1]")
    N, m = len(x), len(exps)
    if N < m:
        raise ConfigError(f"grid of {N} points too small for dimension {m}")
    points = np.concatenate([x, np.asarray(ys)])
    V = basis_matrix(points, exps)
    Qall, R = orthonormalize(V)
    decimal_rows = functools.cache(lambda: _decimal_rows(points, exps))

    def extremal(coeffs, active):
        p = MuntzPolynomial(exps, tuple(float(c) for c in coeffs))
        return p, tuple(x[active].tolist())

    # a group is keyed by (skip, split): the grid point left out (or None)
    # and the number of remaining grid points below y, where t turns from
    # +1 to -1 (all of them when none lies above, or none below)
    answers, groups = [None] * len(ys), {}
    for i, (y, k) in enumerate(zip(ys, np.searchsorted(x, ys).tolist())):
        on_grid = k < N and x[k] == y
        if on_grid and 0.0 in exps:
            answers[i] = (1.0, extremal([float(e == 0.0) for e in exps],
                                        np.ones(N, dtype=bool)))
            continue
        skip = k if on_grid else None
        groups.setdefault((skip, k or N - (skip is not None)), []).append(i)

    for (skip, split), group in groups.items():
        keep = np.arange(N) if skip is None else np.delete(np.arange(N), skip)
        if len(keep) < m:
            values = [1.0] * len(group)
            coeffs = np.linalg.solve(V[:N], np.eye(N)[skip])  # 1 at y only
            peaks = np.zeros(len(keep))
        else:
            def finish(t, start):
                rows = decimal_rows()
                return _set_chebyshev_mp(rows[keep], rows[N + np.array(group)],
                                         t, start)

            Q = Qall[:N] if skip is None else Qall[keep]
            t = np.where(np.arange(len(keep)) < split, 1.0, -1.0)
            values, coeffs, peaks = _growth_lp(Q, R, Qall[N:][group], t,
                                               (skip, split) != (None, N), finish)
        scale = 1.0
        if skip is not None:  # y itself bounds p(y) by 1
            peaks, scale = np.insert(peaks, skip, values[0]), max(1.0, values[0])
            values = [min(1.0, v) for v in values]
        level = (1.0 - 1e-7) * scale  # |p| >= 1 - 1e-7 once divided by scale
        p = extremal(np.divide(coeffs, scale),
                     peaks >= (Decimal(level) if peaks.dtype == object else level))
        for i, v in zip(group, values):
            answers[i] = (v, p)
    return [GrowthResult(v, p, y, active)
            for y, (v, (p, active)) in zip(ys, answers)]


MINIMAX_CERT_RTOL = 1e-12  # max |r| over the dual bound h that certifies
MINIMAX_WEIGHT_TOL = 1e-12  # dual weights (of sum 1) at most this are 0
NEAR_LEVEL_RTOL = 1e-6  # |r| this close to max |r| may be on an optimal reference


def _stiefel(Q: np.ndarray, f: np.ndarray, start=None):
    """Stiefel's exchange for min over b of max |f - Q b|: the simplex
    method on the dual LP

        max sum mu_i s_i f_i  s.t.  sum mu_i s_i q_i = 0,  sum mu_i = 1,
                                    mu >= 0,

    whose k + 1 rows make every basis a reference of k + 1 rows i with
    signs s_i (Stiefel 1960; Barrodale & Phillips 1975).  The leveled
    system [Q_ref | s] (b, h) = f_ref gives the point b and the dual value
    h, the last row of its inverse the weights s mu.  Each step brings in
    the row of largest |r| with the sign of r and drops the one that the
    ratio test on mu picks, so mu stays >= 0: no Haar condition is needed.
    Signs that do not make mu >= 0 (at the start, or after rounding) are
    replaced by those of the weights, once in a row.  That re-signing is
    not a simplex step and can lower h, which a ratio-test step never
    does; so h below that of the last step with mu >= 0 ends the exchange
    as a cycle.

    Starts from the reference `start` (row indices), or from k + 1 evenly
    spread rows, and stops when max |r| <= h (1 + MINIMAX_CERT_RTOL): h is
    a lower bound on the optimum by weak duality, so b is optimal to that
    tolerance.  Every step factors its matrix afresh: one LU solve gives
    (b, h) and the inverse.  Returns (ref, b, h, r) of that step, or None
    when the exchange fails: a singular reference, signs that stay
    inconsistent, an entering row already in the reference, no positive
    ratio, a fall of h, the MAX_EXCHANGES cap, or a dual weight of at most
    MINIMAX_WEIGHT_TOL at the end (the optimal b may then not be unique).
    """
    N, k = Q.shape
    if start is None or len(start) != k + 1 or max(start) >= N:
        start = _even_spread(N, k + 1)
    ref = [int(i) for i in start]
    if len(set(ref)) != k + 1 or not np.isfinite(f).all():
        return None
    resigned, h_last = False, 0.0
    # what every step fills in place: [Q_ref | s] and (f_ref, I), whose
    # solution holds (b, h) and the inverse; the entering row (q_p, s); r
    # and |r|.  The signs s stay an array of their own, copied into A: an
    # in-place np.negative on the strided column A[:, k] came out wrong
    # (numpy 2.4.6, k = 7).
    sigma = np.array([(-1.0) ** i for i in range(k + 1)])
    A, rhs = np.empty((k + 1, k + 1)), np.eye(k + 1, k + 2, 1)
    entering = np.empty(k + 1)
    r, abs_r = np.empty(N), np.empty(N)
    for _ in range(MAX_EXCHANGES):
        rows = np.array(ref)
        A[:, :k], A[:, k], rhs[:, 0] = Q.take(rows, axis=0), sigma, f.take(rows)
        try:
            X = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return None
        b, h, Ainv = X[:k, 0], float(X[k, 0]), X[:, 1:]
        if h < 0.0:  # the opposite signs make the same mu, with -h
            sigma, h, Ainv[k] = -sigma, -h, -Ainv[k]
        mu = sigma * Ainv[k]
        if (mu < 0.0).any():
            if resigned:
                return None
            sigma, resigned = np.where(Ainv[k] < 0.0, -1.0, 1.0), True
            continue
        if h < h_last:
            return None
        resigned, h_last = False, h
        np.subtract(f, np.matmul(Q, b, out=r), out=r)
        p = int(np.abs(r, out=abs_r).argmax())
        if abs_r[p] <= h * (1.0 + MINIMAX_CERT_RTOL):
            # with a weight of 0 the optimal b need not be unique, and which
            # one the exchange reaches would depend on where it started
            return (ref, b, h, r) if mu.min() > MINIMAX_WEIGHT_TOL else None
        if p in ref:
            return None
        s = 1.0 if r[p] > 0.0 else -1.0
        entering[:k], entering[k] = Q[p], s
        d = sigma * (s * (Ainv.T @ entering))
        pos = (d > 0.0).nonzero()[0]
        if pos.size == 0:
            return None
        j = int(pos[(mu[pos] / d[pos]).argmin()])
        ref[j], sigma[j] = p, s
    return None


def _minimax_exchange(Q: np.ndarray, f: np.ndarray, start=None):
    """min over b of max |f - Q b| by Stiefel's exchange, from the
    reference `start` or from an even spread.  Returns (b, ref), ref the
    sorted optimal reference, or None when the exchange fails.

    Rows can share the level to rounding (coordinate descent makes them),
    and then several references are optimal.  So b is that of a second
    exchange on the rows within NEAR_LEVEL_RTOL of the level, from their
    even spread: a function of the data alone, not of `start`.  It is
    checked on every row: max |f - Q b| <= h (1 + MINIMAX_CERT_RTOL).
    """
    answer = _stiefel(Q, f, start)
    if answer is None:
        return None
    r = np.abs(answer[3])
    near = np.flatnonzero(r >= (1.0 - NEAR_LEVEL_RTOL) * r.max())
    answer = _stiefel(Q[near], f[near])
    if answer is None:
        return None
    ref, b, h, _ = answer
    if np.max(np.abs(f - Q @ b)) > h * (1.0 + MINIMAX_CERT_RTOL):
        return None
    return b, tuple(sorted(near[ref].tolist()))


def discrete_minimax_lp(B: np.ndarray, f: np.ndarray, start=None):
    """min over c of max_i |f_i - (B c)_i| for an arbitrary basis matrix B
    (no Chebyshev-system assumption).

    Numerically dependent columns are projected out via column-pivoted QR,
    as are the columns past N of a basis wider than its N grid points;
    their coefficients come back as 0.  In the QR coordinates Q b, Stiefel's
    exchange (_minimax_exchange) answers from the reference `start`, or
    from an even spread; when it fails, scipy's linprog answers the dense
    LP in (b, t) by HiGHS dual simplex, presolve off.  Returns (coeffs,
    err, ref): err is the residual max |f - Q b| of the point b returned,
    not a level, and ref the sorted optimal reference of the exchange (a
    `start` for a similar problem), or None when HiGHS answered.  Data that
    is not finite, or an LP that HiGHS does not solve to optimality, raises
    ConvergenceError.
    """
    N, m = B.shape
    col_scale = np.max(np.abs(B), axis=0)
    keep = np.flatnonzero(col_scale > 0)
    if keep.size == 0:
        # basis vanishes identically: best approximant is 0
        return np.zeros(m), float(np.max(np.abs(f))) if f.size else 0.0, None
    Bk = B[:, keep]
    Q, R = np.linalg.qr(Bk)
    d = np.abs(np.diag(R))
    rank_ok = d > RANK_TOL * d.max()
    if len(d) < keep.size or not rank_ok.all():
        # a basis wider than its grid, or numerically dependent columns:
        # fall back to a well-conditioned column subset
        from scipy.linalg import qr as sqr

        Qp, Rp, piv = sqr(Bk, mode="economic", pivoting=True)
        dd = np.abs(np.diag(Rp))
        r = int(np.sum(dd > RANK_TOL * dd.max()))
        keep = keep[piv[:r]]
        Bk = B[:, keep]
        Q, R = np.linalg.qr(Bk)
    k = Q.shape[1]
    answer = _minimax_exchange(Q, f, start)
    if answer is not None:
        b, ref = answer
    else:
        # linprog raises ValueError on data that is not finite
        if not (np.isfinite(Q).all() and np.isfinite(f).all()):
            raise ConvergenceError("minimax LP failed: LP data not finite")
        # variables (b, t), b free and t >= 0: minimize t s.t.
        # -t <= f - Q b <= t.  Presolve removes nothing from this dense LP
        # and only costs time.
        ones = np.ones((N, 1))
        res = linprog(np.append(np.zeros(k), 1.0),
                      A_ub=np.block([[Q, -ones], [-Q, -ones]]),
                      b_ub=np.concatenate([f, -f]),
                      bounds=[(None, None)] * k + [(0.0, None)],
                      method="highs", options={"presolve": False})
        if res.status != 0:
            raise ConvergenceError(f"minimax LP failed: {res.message}")
        b, ref = res.x[:k], None
    coeffs = np.zeros(m)
    coeffs[keep] = np.linalg.solve(R, b)
    return coeffs, float(np.max(np.abs(f - Q @ b))), ref
