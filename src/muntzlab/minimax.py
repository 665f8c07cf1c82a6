"""Discrete minimax engine for finite Muntz systems.

Two solvers share one orthonormalization front end:

* best_uniform_approx - discrete Remez exchange on a grid, returning an
  equioscillation certificate (alternating reference points plus a
  de-la-Vallee-Poussin lower bound).
* growth_functional   - the extremal growth
  sup { |p(y)| : |p| <= 1 on the constraint grid }: exchange for the
  set-Chebyshev element outside the constraint hull; inside it, 1 at a
  grid point and one LP with a checked duality certificate elsewhere.

Every exchange (best approximation, set-Chebyshev in double and in 60-digit
arithmetic) runs in the one loop _exchange; the solvers supply only the
reference solve and the choice of the next reference.

Raw monomial columns x^lambda are numerically collinear well before
dimension 10, so every solve runs in coordinates of the QR-orthonormalized
evaluated basis and maps coefficients back at the end.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

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
    sequence containing the global argmax (smallest-index tie-break)."""
    out: list[int] = []
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


def _trim_reference(ext: list[int], r: np.ndarray, size: int) -> list[int]:
    """Shrink an alternating extremum list to `size` points, preserving
    alternation and the global maximum."""
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


def _exchange(N: int, size: int, solve, propose, max_iter: int, what: str):
    """The one reference-exchange loop on an N-point grid.  The exchange
    solvers differ only in the two functions they pass:

    * solve(ref) -> (residual, level, done) solves on the reference `ref`,
      a sorted list of `size` grid indices; `level` is the scalar that the
      exchange drives (`what` names it in messages);
    * propose(ref, ext, r, level) -> the next reference, given the
      alternating extrema `ext` (at least `size` of them) of the residual r.

    Starts from `size` evenly spread indices and stops when solve is done,
    when r has fewer than `size` alternating extrema, or when the reference
    does not move.  The next reference is a function of the current one
    alone, so a repeated reference means a cycle for good.  Returns (last
    solved reference, failure): failure is None, or a message naming the
    cycle or the max_iter cap.
    """
    ref = sorted(set(np.linspace(0, N - 1, size).round().astype(int)))
    if len(ref) < size:  # collisions only on near-minimal grids
        pool = [i for i in range(N) if i not in ref]
        ref = sorted(ref + pool[: size - len(ref)])
    seen: dict[tuple[int, ...], int] = {}
    levels: list[float] = []
    for step in range(max_iter):
        seen[tuple(ref)] = step
        r, level, done = solve(ref)
        levels.append(level)
        if done:
            return ref, None
        ext = _alternating_extrema(r)
        if len(ext) < size:
            return ref, None  # residual too flat to exchange further
        new_ref = propose(ref, ext, r, level)
        if new_ref == ref:
            return ref, None
        start = seen.get(tuple(new_ref))
        if start is not None:
            cyc = levels[start:]
            return ref, (
                f"exchange fell into a {len(cyc)}-cycle of references at step "
                f"{start} ({what} between {min(cyc):.3g} and {max(cyc):.3g})")
        ref = new_ref
    return ref, f"no convergence within {max_iter} exchanges"


def _single_exchange(ref: list[int], r: np.ndarray) -> list[int]:
    """Classical one-point exchange: swap the global argmax of |r| into the
    reference so that residual signs keep alternating.  In exact arithmetic
    this strictly increases the leveled error, which rules out cycling; in
    floating point, on ill-conditioned reference systems, it need not, and
    _exchange catches the revisited reference."""
    z = int(np.argmax(np.abs(r)))
    if z in ref:
        return list(ref)
    s = math.copysign(1.0, r[z])
    out = list(ref)
    i = bisect.bisect_left(out, z)
    if i == 0:
        if math.copysign(1.0, r[out[0]]) == s:
            out[0] = z
        else:
            out.insert(0, z)
            out.pop()
    elif i == len(out):
        if math.copysign(1.0, r[out[-1]]) == s:
            out[-1] = z
        else:
            out.append(z)
            out.pop(0)
    else:
        if math.copysign(1.0, r[out[i - 1]]) == s:
            out[i - 1] = z
        else:
            out[i] = z
    return sorted(out)


def best_uniform_approx(
    f_values,
    grid: Grid,
    exponents,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_EXCHANGES,
) -> EquioscillationResult:
    """Best uniform approximation to samples f on the grid from
    span{x^lambda_j}, by discrete Remez exchange.

    Finite Muntz systems are Chebyshev systems on [0,1], so the optimum
    carries an alternating reference of dimension+1 points; the minimum
    absolute residual there is a certified lower bound on the error.

    If the exchange revisits a reference (a cycle, possible in floating
    point) or reaches max_iter, the same problem is solved exactly by
    discrete_minimax_lp and the certificate is rebuilt from the LP residual;
    ConvergenceError is raised if that certificate lacks dimension+1
    alternating points or its relative gap exceeds tol.
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
    last = {}

    def solve(ref):
        A = np.column_stack([Q[ref], sigma])
        try:
            sol = np.linalg.solve(A, f[ref])
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular reference system") from exc
        b, E = sol[:m], sol[m]
        r = f - Q @ b
        err = float(np.max(np.abs(r)))
        last.update(b=b, r=r, err=err)
        # an error at the noise floor means f is numerically in the span
        done = (err - abs(E) <= tol * max(err, gap_floor)
                or err <= 1e-12 * scale)
        return r, abs(float(E)), done

    def propose(ref, ext, r, E):
        # Accept the multi-point exchange only if the leveled error strictly
        # grows; otherwise fall back to the one-point exchange.  Without this
        # guard the multi-exchange can cycle; in floating point the one-point
        # exchange can too, which _exchange catches.
        new_ref = _trim_reference(ext, r, m + 1)
        if new_ref != ref:
            try:
                E_new = np.linalg.solve(np.column_stack([Q[new_ref], sigma]),
                                        f[new_ref])[m]
            except np.linalg.LinAlgError:
                E_new = 0.0
            if abs(E_new) <= E * (1.0 + 1e-13):
                new_ref = _single_exchange(ref, r)
            return new_ref
        return _single_exchange(ref, r)

    ref, failure = _exchange(len(x), m + 1, solve, propose, max_iter,
                             "leveled error")
    if failure is not None:
        # Exchange is the dual simplex method on the discrete Chebyshev LP
        # (Stiefel 1960), so the LP solves the same problem exactly; its
        # residual supplies the alternating reference for the certificate.
        b, _ = discrete_minimax_lp(Q, f)
        r = f - Q @ b
        err = float(np.max(np.abs(r)))
        ref = _trim_reference(_alternating_extrema(r), r, m + 1)
    else:
        b, r, err = last["b"], last["r"], last["err"]

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
    res = linprog(-q, A_ub=np.vstack([Q, -Q]), b_ub=np.ones(2 * N),
                  bounds=[(-box, box)] * m, method="highs")
    if res.status != 0:
        raise ConvergenceError(f"growth LP failed: {res.message}")
    b = res.x
    peak = float(np.max(np.abs(Q @ b)))
    lower = abs(float(q @ b)) / peak if peak > 0.0 else 0.0
    upper = float(np.sum(np.abs(res.ineqlin.marginals)))
    if abs(upper - lower) > GROWTH_CERT_RTOL * max(upper, lower):
        raise ConvergenceError(
            f"growth LP certificate failed: primal bound {lower:.9g}, "
            f"dual bound {upper:.9g}")
    return b


def growth_functional(exponents, constraint: Grid, query: float) -> GrowthResult:
    """sup { |p(query)| : p in span, |p| <= 1 on the constraint grid }."""
    return growth_sweep(exponents, constraint, [query])[0]


def _set_chebyshev(Q: np.ndarray, tol: float, max_iter: int = MAX_EXCHANGES):
    """Extremal element for queries outside the constraint hull: the
    generalized Chebyshev polynomial of the span on the grid, i.e. the
    element alternating between +-1 at dimension many grid points with
    sup-norm 1.  Found by Remez-style exchange in Q coordinates.

    Returns (b, ref): coordinates with max |Q b| = 1 (within tol) and the
    alternation indices.  Raises ConvergenceError when a reference repeats
    or after max_iter steps.
    """
    N, m = Q.shape
    sigma = np.array([(-1.0) ** i for i in range(m)])
    last = {}

    def solve(ref):
        try:
            b = np.linalg.solve(Q[ref], sigma)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("singular reference system") from exc
        vals = Q @ b
        M = float(np.max(np.abs(vals)))
        last.update(b=b, M=M)
        return vals, M, M <= 1.0 + tol

    ref, failure = _exchange(N, m, solve, lambda ref, ext, vals, M:
                             _trim_reference(ext, vals, m), max_iter, "M")
    if failure is not None:
        raise ConvergenceError(f"set-Chebyshev {failure}")
    b, M = last["b"], last["M"]
    if M > 1.0 + tol:
        b = b / M  # stationary without certifying M = 1: rescale to feasible
    return b, ref


MP_VALUE_THRESHOLD = 1e8  # route growth values above this through mpmath


def _set_chebyshev_mp(x: np.ndarray, exps, queries, tol: float = 1e-12,
                      max_iter: int = MAX_EXCHANGES):
    """High-precision variant of _set_chebyshev working directly in the
    monomial basis.

    Growth values of ~1e10 and beyond span more decades between grid and
    query than a double-precision basis can carry (any eps-level basis
    perturbation wrecks the query value), so the alternation solve and the
    query evaluation run in 60-digit arithmetic and only the final scalars
    come back as floats.

    Returns (values at queries, extremal coefficients, reference indices).
    """
    import mpmath as mp

    m = len(exps)
    N = len(x)
    with mp.workdps(60):
        B = [[mp.power(mp.mpf(float(xi)), mp.mpf(float(e))) if xi > 0
              else (mp.mpf(1) if e == 0 else mp.mpf(0))
              for e in exps] for xi in x]
        sigma = mp.matrix([mp.mpf((-1.0) ** i) for i in range(m)])
        last = {}

        def solve(ref):
            a = mp.lu_solve(mp.matrix([B[i] for i in ref]), sigma)
            vals = [mp.fsum(B[i][j] * a[j] for j in range(m)) for i in range(N)]
            M = max(abs(v) for v in vals)
            last.update(a=a, M=M)
            return (np.array([float(v) for v in vals]), float(M),
                    M <= 1 + mp.mpf(tol))

        ref, failure = _exchange(N, m, solve, lambda ref, ext, vals, M:
                                 _trim_reference(ext, vals, m), max_iter, "M")
        if failure is not None:
            raise ConvergenceError(f"set-Chebyshev (mp) {failure}")
        a, M = last["a"], last["M"]
        values = []
        for y in queries:
            ym = mp.mpf(float(y))
            py = mp.fsum(
                (mp.power(ym, mp.mpf(float(e))) if y > 0
                 else (mp.mpf(1) if e == 0 else mp.mpf(0))) * a[j]
                for j, e in enumerate(exps)
            )
            values.append(float(abs(py) / M))
        coeffs = [float(a[j] / M) for j in range(m)]
    return values, coeffs, ref


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

    # One shared extremal serves every query outside the constraint hull:
    # the generalized Chebyshev element of the span on the grid.
    outside = [y < lo or y > hi for y in ys]
    cheb_b = None
    mp_results = None
    if any(outside):
        try:
            cheb_b, _ = _set_chebyshev(Q, tol=1e-10)
        except ConvergenceError:
            # the double-precision exchange can cycle on ill-conditioned
            # references; the 60-digit route solves the same problem
            cheb_b = None
        peak = math.inf if cheb_b is None else max(
            abs(float(Qall[len(x) + i] @ cheb_b))
            for i, y in enumerate(ys) if outside[i])
        if peak > MP_VALUE_THRESHOLD:
            # beyond double-precision reach: redo in 60-digit arithmetic
            out_ys = [y for y, o in zip(ys, outside) if o]
            vals, mp_coeffs, _ = _set_chebyshev_mp(x, exps, out_ys)
            mp_results = dict(zip(out_ys, vals))

    def extremal(coeffs, on_grid):
        p = MuntzPolynomial(exps, tuple(float(c) for c in coeffs))
        return p, tuple(x[np.abs(on_grid) >= 1.0 - 1e-7].tolist())

    if mp_results is not None:
        shared = extremal(mp_coeffs, basis_matrix(x, exps) @ np.asarray(mp_coeffs))
    elif cheb_b is not None:
        shared = extremal(np.linalg.solve(R, cheb_b), Q @ cheb_b)

    grid_points = set(x.tolist())
    grid_qr = None  # (Q, R) of the grid rows alone, for the growth LPs
    out = []
    for i, y in enumerate(ys):
        if outside[i]:
            p, active = shared
            value = mp_results[y] if mp_results is not None \
                else abs(float(Qall[len(x) + i] @ cheb_b))
        elif 0.0 in exps and y in grid_points:
            p = MuntzPolynomial(exps, tuple(float(e == 0.0) for e in exps))
            active, value = tuple(x.tolist()), 1.0
        else:
            if grid_qr is None:
                grid_qr = orthonormalize(basis_matrix(x, exps))
            Qg, Rg = grid_qr
            q = np.linalg.solve(Rg.T, basis_matrix(np.array([y]), exps)[0])
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
    res = linprog(c, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * k + [(0, None)], method="highs")
    if res.status != 0:
        raise ConvergenceError(f"minimax LP failed: {res.message}")
    b = res.x[:k]
    coeffs = np.zeros(m)
    coeffs[keep] = np.linalg.solve(R, b)
    return coeffs, float(res.x[-1])
