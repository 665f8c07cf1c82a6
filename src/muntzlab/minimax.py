"""Discrete minimax engine for finite Muntz systems.

Two solvers share one orthonormalization front end:

* best_uniform_approx - discrete Remez exchange on a grid, returning an
  equioscillation certificate (alternating reference points plus a
  de-la-Vallee-Poussin lower bound).
* growth_sweep        - the extremal growth
  sup { |p(y)| : |p| <= 1 on the constraint grid } of a span with
  exponent 0, for each query y: 1 at a grid point; otherwise one exchange
  per sign pattern of the extremal on the grid (_growth_lp), which
  finishes in 60 digits for every query inside the constraint hull.

The discrete minimax LP (min over b of max |f - Q b|, on which the
exchange falls back and which the product search solves) is answered by
one run of Stiefel's exchange (_stiefel): the simplex method on its dual,
whose bases are references of k + 1 grid points, valid without a Haar
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
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from operator import mul

import numpy as np
from scipy.optimize import linprog

from muntzlab.errors import ConditioningError, ConfigError, ConvergenceError
from muntzlab.muntzeval import MuntzPolynomial, basis_matrix, check_exponents
from muntzlab.sets import Grid

DEFAULT_TOL = 1e-10  # relative certificate gap of a best approximation
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


def chebyshev_T(n: int, x: float) -> float:
    """Degree-n Chebyshev polynomial by the three-term recurrence, which
    is stable for the x >= 1 that the classical bound takes (unlike acos
    continuation)."""
    if n < 0:
        raise ConfigError("degree must be nonnegative")
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
    The package always takes the default tol; it stays a parameter for
    the certify step of perfbench/library.py, which passes it explicitly.
    """
    exps = check_exponents(exponents)
    x = grid.as_array()
    f = np.asarray(f_values, dtype=float)
    m = len(exps)
    if f.shape != x.shape:
        raise ConfigError("target samples must match the grid")
    if len(x) <= m:
        raise ConfigError(f"grid of {len(x)} points too small for dimension {m}")

    scale = float(np.max(np.abs(f)))
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

    It is built a whole column at a time, the exponents taken in their
    order, which check_exponents makes increasing:
    x^e_j = x^e_{j-1} * x^(e_j - e_{j-1}).  A gap of 1 costs one
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
        for j, e in enumerate(exps):
            gap = Decimal(e) - last
            if gap:  # zero only at the leading exponent 0: 0^0 = 1
                if gap != gap_before:
                    k = int(gap) if gap == gap.to_integral_value() else gap
                    step, gap_before = ds if k == 1 else np.power(ds, k), gap
                col = col * step
            rows[:, j], last = col, Decimal(e)
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
                      start: list[int] | None):
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
    exchange stopped on), or from an even spread when it is None.  Returns
    (values at queries, extremal coefficients); ConvergenceError when the
    exchange stops without a certificate.
    """
    with localcontext(Context(prec=MP_DIGITS)):
        bound = 1 + Decimal(SET_CHEBYSHEV_MP_TOL)

        def solve(ref):
            sign = [Decimal((-1) ** k * int(t[i])) for k, i in enumerate(ref)]
            a = np.array(_decimal_solve(rows[ref].tolist(), sign), dtype=object)
            vals = rows.dot(a)
            M = np.abs(vals).max()
            r = None if M <= bound else vals.astype(float) * t  # None: done
            return r, float(M), r is None, (a, M)

        _, (a, M), failure = _exchange(len(rows), rows.shape[1], solve, "M",
                                       start=start)
        if failure is not None:
            raise ConvergenceError(f"set-Chebyshev (mp) {failure}")
        values = [float(abs(v) / M) for v in qrows.dot(a)]
        coeffs = [float(aj / M) for aj in a]
    return values, coeffs


def _growth_lp(Q: np.ndarray, R: np.ndarray, q, t: np.ndarray, finish):
    """The growth LP, max q . b subject to -1 <= Q b <= 1, for each query
    row q of one group, by exchange (Stiefel 1960: the simplex method on
    this LP).  The Lagrange functions of a Chebyshev system change sign at
    the other reference points only, so the extremal for y alternates on
    the grid but for one repeated sign across y (Borwein & Erdelyi 1995):
    the group shares the sign pattern t, 1 outside the constraint hull and
    +1 below y, -1 above it inside.  After _set_chebyshev(Q, t),
    finish(t, start), the 60-digit exchange from its reference, answers
    inside the hull (t ends on -1), or when the double exchange fails or a
    value exceeds MP_VALUE_THRESHOLD.  Returns (values, coefficients) on
    either route: the double answer b is mapped back through R, V = Q R.
    """
    b, ref, failure = _set_chebyshev(Q, t)
    values = [abs(float(row @ b)) for row in q]
    if t[-1] < 0 or failure is not None or max(values) > MP_VALUE_THRESHOLD:
        return finish(t, ref)
    return values, np.linalg.solve(R, b)


def growth_sweep(exponents, constraint: Grid, queries) -> list[GrowthResult]:
    """sup { |p(y)| : p in span, |p| <= 1 on the constraint grid } for
    each query y.  Growth is defined on spans that contain the constant,
    as the Muntz spaces 0 = lambda_0 < lambda_1 < ... do: exponents
    without 0 are a ConfigError, raised before any basis is built.

    A grid point has value 1, attained by the constant.  Other queries are
    grouped by the sign pattern of their extremal, and one _growth_lp
    answers each group: in double outside the constraint hull (60 digits
    only on a failure or a value beyond MP_VALUE_THRESHOLD), in 60 digits
    inside it, on decimal grid rows built once per sweep.  The query points
    join the grid rows in one QR, so a query value is a plain row of Q.  A
    constraint grid of fewer points than the dimension is a mesh too
    coarse for it: ConfigError.
    """
    exps = check_exponents(exponents)
    if exps[0] != 0.0:
        raise ConfigError("growth needs exponent 0 (the constant) in the span")
    x = constraint.as_array()
    ys = [float(y) for y in queries]
    if any(not 0.0 <= y <= 1.0 for y in ys):
        raise ConfigError("query must lie in [0, 1]")
    N, m = len(x), len(exps)
    if N < m:
        raise ConfigError(f"grid of {N} points too small for dimension {m}")
    points = np.concatenate([x, np.asarray(ys)])
    Qall, R = orthonormalize(basis_matrix(points, exps))
    Q = Qall[:N]
    decimal_rows = functools.cache(lambda: _decimal_rows(points, exps))

    def extremal(coeffs):
        return MuntzPolynomial(exps, tuple(float(c) for c in coeffs))

    # a group is keyed by its split: the number of grid points below y,
    # where t turns from +1 to -1 (all of them when none lies above, or
    # none below)
    answers, groups = [None] * len(ys), {}
    for i, (y, k) in enumerate(zip(ys, np.searchsorted(x, ys).tolist())):
        if k < N and x[k] == y:
            answers[i] = (1.0, extremal([1.0] + [0.0] * (m - 1)))
        else:
            groups.setdefault(k or N, []).append(i)

    for split, group in groups.items():
        def finish(t, start):
            rows = decimal_rows()
            return _set_chebyshev_mp(rows[:N], rows[N + np.array(group)], t,
                                     start)

        t = np.where(np.arange(N) < split, 1.0, -1.0)
        values, coeffs = _growth_lp(Q, R, Qall[N:][group], t, finish)
        p = extremal(coeffs)
        for i, v in zip(group, values):
            answers[i] = (v, p)
    return [GrowthResult(v, p) for v, p in answers]


MINIMAX_CERT_RTOL = 1e-12  # max |r| over the dual bound h that certifies
MINIMAX_WEIGHT_TOL = 1e-12  # dual weights (of sum 1) at most this are 0


def _stiefel(Q: np.ndarray, f: np.ndarray, start):
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
    spread rows when it is None or does not fit Q.  The reference is kept
    sorted, the signs permuted along, so a step's system depends on its
    set of rows and their signs alone: started from the reference of its
    own answer, the exchange solves that answer's system again and
    returns the same bits.  It stops when max |r| <= h (1 +
    MINIMAX_CERT_RTOL) on every row: h is a lower bound on the optimum by
    weak duality, so b is optimal to that tolerance.
    Every step factors its matrix afresh: one LU solve gives (b, h) and
    the inverse.  Returns (ref, b) of that step, ref a sorted tuple, or
    None when the exchange fails: a singular reference, a solution that is
    not finite, signs that stay inconsistent, an entering row already in
    the reference, no positive ratio, a fall of h, the MAX_EXCHANGES cap,
    or a dual weight of at most MINIMAX_WEIGHT_TOL at the end (the optimal
    b may then not be unique).
    """
    N, k = Q.shape
    if start is None or len(start) != k + 1 or max(start) >= N:
        start = _even_spread(N, k + 1)
    ref = sorted(int(i) for i in start)
    if len(set(ref)) != k + 1:
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
        A[:, :k], A[:, k], rhs[:, 0] = Q.take(ref, axis=0), sigma, f.take(ref)
        try:
            X = np.linalg.solve(A, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(X).all():
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
            return (tuple(ref), b) if mu.min() > MINIMAX_WEIGHT_TOL else None
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
        order = sorted(range(k + 1), key=ref.__getitem__)
        ref, sigma = [ref[i] for i in order], sigma[order]
    return None


def discrete_minimax_lp(B: np.ndarray, f: np.ndarray, start=None):
    """min over c of max_i |f_i - (B c)_i| for an arbitrary basis matrix B
    (no Chebyshev-system assumption).

    A grid of no points, or f whose shape is not (N,) for the N rows of B,
    raises ConfigError, and data that is not finite ConvergenceError, all
    before any factorization.  B is factored by numpy's QR, or, when B is
    wider than its N grid points or fails the RANK_TOL test, by one
    column-pivoted QR, whose leading columns that pass the test are kept
    with that QR's own factors; the other columns, zero ones among them,
    get the coefficient 0.  Factors that are not finite (B too large for
    the QR) raise ConvergenceError.  With no column kept, the exchange
    answers the empty basis on one row: err = max |f|.  In the QR
    coordinates Q b, one run of Stiefel's exchange (_stiefel) answers from
    the reference `start`, or from an even spread; when it fails, scipy's
    linprog answers the dense LP in (b, t) by HiGHS dual simplex, presolve
    off, and an LP that HiGHS does not solve to optimality raises
    ConvergenceError.  Returns (coeffs, err, ref): err is the residual
    max |f - Q b| of the point b returned, not a level, and ref the sorted
    optimal reference of the exchange, or None when HiGHS answered.
    Started from its own answer's ref, the LP returns that answer again,
    to the bit; two starts that both certify agree in err to rounding, not
    always in their bits.
    """
    N, m = B.shape
    if not N:
        raise ConfigError("minimax LP on a grid of 0 points")
    if np.shape(f) != (N,):
        raise ConfigError("target samples must match the grid")
    if not (np.isfinite(B).all() and np.isfinite(f).all()):
        raise ConvergenceError("minimax LP failed: LP data not finite")
    Q, R = np.linalg.qr(B)
    keep = np.arange(m)
    d = np.abs(np.diag(R))
    if len(d) < m or (d <= RANK_TOL * d.max(initial=0.0)).any():
        from scipy.linalg import qr

        Q, R, piv = qr(B, mode="economic", pivoting=True)
        d = np.abs(np.diag(R))
        k = int(np.sum(d > RANK_TOL * d.max()))
        Q, R, keep = Q[:, :k], R[:k, :k], piv[:k]
    if not (np.isfinite(Q).all() and np.isfinite(R).all()):
        raise ConvergenceError("minimax LP failed: QR factors not finite")
    k = Q.shape[1]
    answer = _stiefel(Q, f, start)
    if answer is not None:
        ref, b = answer
    else:
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
