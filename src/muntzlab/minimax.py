"""Discrete minimax engine for finite Muntz systems.

Two solvers share one orthonormalization front end:

* best_uniform_approx - discrete Remez exchange on a grid, returning an
  equioscillation certificate (alternating reference points plus a
  de-la-Vallee-Poussin lower bound).
* growth_functional   - the extremal growth
  sup { |p(y)| : |p| <= 1 on the constraint grid }: exchange for the
  set-Chebyshev element outside the constraint hull; inside it, 1 at a
  grid point and one LP with a checked duality certificate elsewhere.

Both LPs (that growth LP, and the discrete minimax LP on which the
exchange falls back) run HiGHS dual simplex through one door, _highs_lp, a
direct call into the HiGHS bindings that scipy ships; it returns the
optimal point and the row duals, or raises ConvergenceError.

Every exchange (best approximation, set-Chebyshev in double and in 60-digit
decimal arithmetic) runs in the one loop _exchange, which returns its last
solve; the solvers supply only a solve.  Each step moves to the strongest
alternating set of the residual's extrema (_trim_reference), the one
exchange rule.  An exchange either certifies its answer or fails (a cycle,
the cap or a stall), and a failure goes to the exact fallback: the LP, or
60 digits.

Raw monomial columns x^lambda are numerically collinear well before
dimension 10, so every solve runs in coordinates of the QR-orthonormalized
evaluated basis and maps coefficients back at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from operator import mul

import numpy as np
from scipy.optimize._highspy import _core

from muntzlab.errors import (
    ConditioningError,
    ConfigError,
    ConvergenceError,
    UnboundedGrowthError,
)
from muntzlab.muntzeval import MuntzPolynomial, basis_matrix
from muntzlab.sets import Grid

DEFAULT_TOL = 1e-8
MAX_EXCHANGES = 200
RANK_TOL = 1e-14
GROWTH_CERT_RTOL = 1e-6  # 10x the default HiGHS feasibility tolerance
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
    back into R, so V = Q R still holds.
    """
    if V.shape[0] < V.shape[1]:
        raise ConditioningError(
            f"grid of {V.shape[0]} points cannot support dimension {V.shape[1]}"
        )
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


def _exchange(N: int, size: int, solve, what: str,
              start: list[int] | None = None):
    """The one reference-exchange loop on an N-point grid.  The exchange
    solvers differ only in the solve they pass:
    solve(ref) -> (residual, level, done, state) solves on the reference
    `ref`, a sorted list of `size` grid indices; `level` is the scalar the
    exchange drives (`what` names it in messages), `state` what the solver
    wants back from its last solve.

    Starts from the reference `start`, or by default from `size` evenly
    spread indices.  The next reference is _trim_reference of the
    residual's alternating extrema: the `size` of them that alternate with
    the largest smallest |r|, global maximum included (Stiefel 1960).  It
    is a function of the current reference alone, so a repeated reference
    means a cycle for good.  Returns (ref, state, failure) of the last
    solve.  failure is None exactly when that solve was done; otherwise it
    names the stop and the last level: a cycle, the MAX_EXCHANGES cap, or
    a stall (r has fewer than `size` alternating extrema, or the reference
    does not move).
    """
    if start is not None:
        ref = list(start)
    else:
        ref = sorted(set(np.linspace(0, N - 1, size).round().astype(int)))
        if len(ref) < size:  # collisions only on near-minimal grids
            pool = [i for i in range(N) if i not in ref]
            ref = sorted(ref + pool[: size - len(ref)])
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
        if new_ref == ref:
            return ref, state, f"exchange stopped moving ({what} {level:.15g})"
        first = seen.get(tuple(new_ref))
        if first is not None:
            cyc = levels[first:]
            return ref, state, (
                f"exchange fell into a {len(cyc)}-cycle of references at step "
                f"{first} ({what} between {min(cyc):.3g} and {max(cyc):.3g})")
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
        b, _ = discrete_minimax_lp(Q, f)
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


def _highs_lp(c, A, b, lo, hi, presolve: bool, what: str):
    """min c . x subject to A x <= b and lo <= x <= hi (np.inf for no
    bound), by HiGHS dual simplex through the HiGHS bindings that scipy
    ships.  Returns (x, row_duals): the optimal point and the row duals
    d(objective)/d(b), as float arrays.

    HiGHS gets the model and the options that scipy's
    linprog(method="highs") would give it (column-wise matrix without exact
    zeros; output off, dual simplex, presolve on or off), so both arrays
    are the same bits as scipy's x and ineqlin.marginals.  Data of the
    wrong shape or not finite, an option HiGHS refuses, a failed passModel
    or run, and every model status but optimal raise ConvergenceError, whose
    message begins "`what` failed:".
    """
    c, A, b, lo, hi = (np.asarray(v, dtype=float) for v in (c, A, b, lo, hi))
    if A.ndim != 2 or not (c.shape == lo.shape == hi.shape == (A.shape[1],)
                           and b.shape == (A.shape[0],)):
        raise ConvergenceError(f"{what} failed: LP data has the wrong shape")
    if not (np.isfinite(c).all() and np.isfinite(A).all()
            and np.isfinite(b).all()):
        raise ConvergenceError(f"{what} failed: LP data not finite")
    nrow, ncol = A.shape
    At = A.T  # row j of At is column j of A
    nz = At != 0.0
    index = np.nonzero(nz)[1].astype(np.int32)
    start = np.zeros(ncol, dtype=np.int32)
    np.cumsum(np.count_nonzero(nz, axis=1)[:-1], out=start[1:])

    h = _core._Highs()
    for key, value in (("output_flag", False), ("simplex_strategy", 1),
                       ("presolve", "on" if presolve else "off")):
        if h.setOptionValue(key, value) == _core.HighsStatus.kError:
            raise ConvergenceError(
                f"{what} failed: HiGHS refused the option {key}={value!r}")
    # 1, 1: column-wise matrix, minimize; integrality 0: every column is
    # continuous (an empty integrality array makes passModel fail)
    loaded = h.passModel(
        ncol, nrow, index.size, 1, 1, 0.0, c, lo, hi, np.full(nrow, -np.inf),
        b, start, index, At[nz], np.zeros(ncol, dtype=np.int32),
    ) != _core.HighsStatus.kError
    ran = loaded and h.run() != _core.HighsStatus.kError
    status = h.getModelStatus() if loaded else _core.HighsModelStatus.kModelError
    if not ran or status != _core.HighsModelStatus.kOptimal:
        why = "" if ran else " (run failed)" if loaded else " (passModel failed)"
        raise ConvergenceError(f"{what} failed: HiGHS model status "
                               f"{h.modelStatusToString(status)}{why}")
    sol = h.getSolution()
    return np.array(sol.col_value), np.array(sol.row_dual)


def _growth_lp(Q: np.ndarray, q: np.ndarray) -> np.ndarray:
    """maximize q . b subject to -1 <= Q b <= 1; returns the optimal b.

    Q has orthonormal columns, so every feasible b has
    ||b||_2 = ||Q b||_2 <= sqrt(N): the box |b_i| <= sqrt(N) + 1 never binds
    and only keeps HiGHS off free variables.  The answer is checked by LP
    duality (Cheney 1966, ch. 2): |q . b| / max |Q b| is attained by a
    feasible point, and the l1 norm of the constraint multipliers bounds
    every feasible value from above.  ConvergenceError names both bounds
    when they differ by more than GROWTH_CERT_RTOL relative.
    """
    N, m = Q.shape
    box = math.sqrt(N) + 1.0
    b, duals = _highs_lp(-q, np.vstack([Q, -Q]), np.ones(2 * N),
                         np.full(m, -box), np.full(m, box), presolve=True,
                         what="growth LP")
    peak = float(np.max(np.abs(Q @ b)))
    lower = abs(float(q @ b)) / peak if peak > 0.0 else 0.0
    upper = float(np.sum(np.abs(duals)))
    if abs(upper - lower) > GROWTH_CERT_RTOL * max(upper, lower):
        raise ConvergenceError(
            f"growth LP certificate failed: primal bound {lower:.9g}, "
            f"dual bound {upper:.9g}")
    return b


def growth_functional(exponents, constraint: Grid, query: float) -> GrowthResult:
    """sup { |p(query)| : p in span, |p| <= 1 on the constraint grid }."""
    return growth_sweep(exponents, constraint, [query])[0]


def _set_chebyshev(Q: np.ndarray):
    """Extremal element for queries outside the constraint hull: the
    generalized Chebyshev polynomial of the span on the grid, i.e. the
    element alternating between +-1 at dimension many grid points with
    sup-norm 1.  Found by Remez-style exchange in Q coordinates.

    Returns (b, ref, failure) of the exchange's last solve: coordinates b
    with Q b = +-1 alternating on the reference ref, and failure None
    exactly when max |Q b| <= 1 + SET_CHEBYSHEV_TOL certifies b, else the
    exchange's message (a cycle, the MAX_EXCHANGES cap or a stall).
    """
    N, m = Q.shape
    sigma = np.array([(-1.0) ** i for i in range(m)])

    def solve(ref):
        try:
            b = np.linalg.solve(Q[ref], sigma)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular reference system") from exc
        vals = Q @ b
        M = float(np.max(np.abs(vals)))
        return vals, M, M <= 1.0 + SET_CHEBYSHEV_TOL, b

    ref, b, failure = _exchange(N, m, solve, "M")
    return b, ref, failure


MP_VALUE_THRESHOLD = 1e8  # growth values above this take the 60-digit route
MP_DIGITS = 60


def _decimal_powers(x: float, exps) -> list[Decimal]:
    """x^e for every exponent e at the current decimal precision, with
    0^0 = 1.  A non-integer Decimal power goes through exp and ln, so it is
    taken once per distinct fractional part of the exponents and multiplied
    by an integer power."""
    if not x > 0:
        return [Decimal(int(e == 0)) for e in exps]
    d = Decimal(x)
    roots = {f: d ** Decimal(f) for f in {e - math.floor(e) for e in exps}}
    return [roots[e - math.floor(e)] * d ** math.floor(e) for e in exps]


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


def _set_chebyshev_mp(x: np.ndarray, exps, queries,
                      start: list[int] | None = None):
    """High-precision variant of _set_chebyshev working directly in the
    monomial basis.

    Growth values of ~1e10 and beyond span more decades between grid and
    query than a double-precision basis can carry (any eps-level basis
    perturbation wrecks the query value), so the alternation solve and the
    query evaluation run in MP_DIGITS-digit decimal arithmetic and only the
    final scalars come back as floats.

    The exchange starts from the reference `start` (the one the double
    exchange stopped on), or by default from an even spread.  Returns
    (values at queries, extremal coefficients); ConvergenceError when the
    exchange stops without a certificate.
    """
    m = len(exps)
    with localcontext(Context(prec=MP_DIGITS)):
        B = [_decimal_powers(float(xi), exps) for xi in x]
        sigma = [Decimal((-1) ** i) for i in range(m)]
        bound = 1 + Decimal(SET_CHEBYSHEV_MP_TOL)

        def solve(ref):
            a = _decimal_solve([B[i] for i in ref], sigma)
            vals = [sum(map(mul, row, a)) for row in B]
            M = max(map(abs, vals))
            return np.array(vals, dtype=float), float(M), M <= bound, (a, M)

        _, (a, M), failure = _exchange(len(x), m, solve, "M", start=start)
        if failure is not None:
            raise ConvergenceError(f"set-Chebyshev (mp) {failure}")
        values = [float(abs(sum(map(mul, _decimal_powers(float(y), exps), a))) / M)
                  for y in queries]
        coeffs = [float(aj / M) for aj in a]
    return values, coeffs


def growth_sweep(exponents, constraint: Grid, queries) -> list[GrowthResult]:
    """growth_functional over many query points.

    Queries outside the constraint hull share one extremal, the generalized
    Chebyshev element of the span on the grid.  For its exchange the query
    points join the grid rows in one QR, so a query value is a plain row of
    Q and never passes through an ill-conditioned triangular solve.

    Inside the hull, a query at a grid point has value 1, attained by the
    constant when 0 is an exponent, and solves no LP.  Every other query
    inside the hull runs one _growth_lp on a QR of the grid rows alone
    (made once per sweep), where the box is exact; its query row is
    R^-T v(y).
    """
    exps = tuple(float(e) for e in exponents)
    x = constraint.as_array()
    ys = [float(y) for y in queries]
    if any(not 0.0 <= y <= 1.0 for y in ys):
        raise ConfigError("query must lie in [0, 1]")
    if len(x) < len(exps):
        raise UnboundedGrowthError(
            f"constraint grid of {len(x)} points cannot pin down dimension "
            f"{len(exps)}"
        )
    V = basis_matrix(np.concatenate([x, np.asarray(ys)]), exps)
    Qall, R = orthonormalize(V)
    Q = Qall[: len(x)]
    lo, hi = float(x.min()), float(x.max())

    def extremal(coeffs, on_grid):
        p = MuntzPolynomial(exps, tuple(float(c) for c in coeffs))
        return p, tuple(x[np.abs(on_grid) >= 1.0 - 1e-7].tolist())

    # One shared extremal serves every query outside the constraint hull:
    # the generalized Chebyshev element of the span on the grid.  `outside`
    # maps each such query's index to its point, `values` to its value.
    outside = {i: y for i, y in enumerate(ys) if y < lo or y > hi}
    if outside:
        b, ref, failure = _set_chebyshev(Q)
        values = {i: abs(float(Qall[len(x) + i] @ b)) for i in outside}
        if failure is not None or max(values.values()) > MP_VALUE_THRESHOLD:
            # uncertified (a cycle or stall on ill-conditioned references)
            # or beyond double-precision reach: redo in 60-digit arithmetic
            # from where the exchange stopped
            vals, coeffs = _set_chebyshev_mp(x, exps, list(outside.values()),
                                             start=ref)
            values = dict(zip(outside, vals))
            shared = extremal(coeffs, V[: len(x)] @ np.asarray(coeffs))
        else:
            shared = extremal(np.linalg.solve(R, b), Q @ b)

    grid_points = set(x.tolist())
    grid_qr = None  # (Q, R) of the grid rows alone, for the growth LPs
    out = []
    for i, y in enumerate(ys):
        if i in outside:
            p, active = shared
            value = values[i]
        elif 0.0 in exps and y in grid_points:
            p = MuntzPolynomial(exps, tuple(float(e == 0.0) for e in exps))
            active, value = tuple(x.tolist()), 1.0
        else:
            if grid_qr is None:
                grid_qr = orthonormalize(V[: len(x)])
            Qg, Rg = grid_qr
            q = np.linalg.solve(Rg.T, V[len(x) + i])
            b = _growth_lp(Qg, q)
            p, active = extremal(np.linalg.solve(Rg, b), Qg @ b)
            value = abs(float(q @ b))
        out.append(GrowthResult(value=value, extremal=p, query=float(y),
                                constraint_active_points=active))
    return out


def discrete_minimax_lp(B: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, float]:
    """min over c of max_i |f_i - (B c)_i| for an arbitrary basis matrix B
    (no Chebyshev-system assumption), as a dense LP.

    Numerically dependent columns are projected out via column-pivoted QR;
    their coefficients come back as 0.
    """
    N, m = B.shape
    col_scale = np.max(np.abs(B), axis=0)
    keep = np.flatnonzero(col_scale > 0)
    if keep.size == 0:
        # basis vanishes identically: best approximant is 0
        return np.zeros(m), float(np.max(np.abs(f))) if f.size else 0.0
    Bk = B[:, keep]
    Q, R = np.linalg.qr(Bk)
    d = np.abs(np.diag(R))
    rank_ok = d > RANK_TOL * d.max()
    if not rank_ok.all():
        # fall back to a well-conditioned column subset
        from scipy.linalg import qr as sqr

        Qp, Rp, piv = sqr(Bk, mode="economic", pivoting=True)
        dd = np.abs(np.diag(Rp))
        r = int(np.sum(dd > RANK_TOL * dd.max()))
        keep = keep[piv[:r]]
        Bk = B[:, keep]
        Q, R = np.linalg.qr(Bk)
    k = Q.shape[1]
    # variables: (b, t); minimize t s.t. -t <= f - Q b <= t
    c = np.zeros(k + 1)
    c[-1] = 1.0
    A_ub = np.block([
        [Q, -np.ones((N, 1))],
        [-Q, -np.ones((N, 1))],
    ])
    b_ub = np.concatenate([f, -f])
    # b is free and t >= 0; presolve removes nothing from this dense LP and
    # only costs time
    x, _ = _highs_lp(c, A_ub, b_ub, np.append(np.full(k, -np.inf), 0.0),
                     np.full(k + 1, np.inf), presolve=False, what="minimax LP")
    b = x[:k]
    coeffs = np.zeros(m)
    coeffs[keep] = np.linalg.solve(R, b)
    return coeffs, float(x[-1])
