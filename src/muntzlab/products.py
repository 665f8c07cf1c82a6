"""Products of Muntz spaces: empirical alpha constants (each the exact
smallest value that its samples need on the cell grid), the product Remez
bound c = alpha_1 ... alpha_k, four-square monomial witnesses, and a
coordinate-descent non-density search."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from muntzlab.errors import ConfigError, UnboundedGrowthError
from muntzlab.exponents import ExponentSequence, truncate
from muntzlab.minimax import discrete_minimax_lp, growth_sweep, orthonormalize
from muntzlab.muntzeval import MuntzPolynomial, basis_matrix
from muntzlab.remezlab import default_set_family, query_grid
from muntzlab.sets import Grid, discretize, fat_cantor, normalize

ALPHA_Y_POINTS = 16  # y grid on [0, 1 - s] for alpha estimation


@dataclass(frozen=True)
class ProductSpaceSpec:
    sequences: tuple[ExponentSequence, ...]

    def __post_init__(self):
        if not self.sequences:
            raise ConfigError("need k >= 1 sequences")

    @property
    def k(self) -> int:
        return len(self.sequences)


@dataclass(frozen=True)
class ProductPolynomial:
    factors: tuple[MuntzPolynomial, ...]

    def __call__(self, x):
        """The product of the factors' values at scalar or array x in [0, 1]."""
        return math.prod(p(x) for p in self.factors)


@dataclass(frozen=True)
class AlphaEstimate:
    s: float
    k: int
    alpha: float
    sample_count: int


@dataclass(frozen=True)
class ProductCheckReport:
    samples: int
    violations: int
    c: float
    ratios: tuple[float, ...]


@dataclass(frozen=True)
class ChainReport:
    checks: int
    measure_violations: int
    norm_violations: int


@dataclass(frozen=True)
class MonomialWitness:
    decomposition: tuple[int, int, int, int]
    max_abs_deviation: float


@dataclass(frozen=True)
class SearchReport:
    best_error_by_round: tuple[float, ...]
    best: ProductPolynomial


def _cells(y: float, mesh: float) -> tuple[np.ndarray, float]:
    """Midpoints and width of a uniform cell partition of [y, 1]."""
    ncells = max(1, math.ceil((1.0 - y) / mesh - 1e-12))
    w = (1.0 - y) / ncells
    mids = y + w * (np.arange(ncells) + 0.5)
    return mids, w


def sample_factors(exponents, budget: int, rng, mesh: float) -> list[MuntzPolynomial]:
    """Random span elements with standard-normal coefficients in the basis
    orthonormalized over a grid of [0, 1] (scale-invariant statistics; the
    raw monomial basis would concentrate samples pathologically)."""
    exps = tuple(float(e) for e in exponents)
    grid = discretize(normalize([[0.0, 1.0]]), mesh)
    V = basis_matrix(grid.as_array(), exps)
    _, R = orthonormalize(V)
    out = []
    for _ in range(budget):
        b = rng.standard_normal(len(exps))
        coeffs = np.linalg.solve(R, b)
        out.append(MuntzPolynomial(exps, tuple(float(c) for c in coeffs)))
    return out


def draw_alpha_samples(
    seq_j: ExponentSequence,
    n: int,
    s: float,
    budget: int,
    seed: int,
    mesh: float,
    j: int,
) -> list[MuntzPolynomial]:
    """The deterministic sample family behind estimate_alpha: `budget`
    random span elements plus the growth extremal at the query 0 for the
    endpoint constraint interval [1-s, 1].  Every query in [0, 1-s) lies
    outside that interval and shares this one set-Chebyshev extremal."""
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    exps = truncate(seq_j, n)
    rng = np.random.default_rng([seed, j])
    samples = sample_factors(exps, budget, rng, mesh)
    grid = discretize(normalize([[1.0 - s, 1.0]]), mesh)
    samples.append(growth_sweep(exps, grid, [0.0])[0].extremal)
    return samples


def _cell_values(exps, y: float, mesh: float):
    """(w, values) for the cells of _cells(y, mesh): their width, and
    values(p) = (|p| at the cell midpoints, |p(y)|) for p in
    span{x^e : e in exps}.  The basis at the midpoints and at y is built
    once, and p is evaluated on it by the product that p(mids) and p(y)
    take, so the values are the same bits."""
    mids, w = _cells(y, mesh)
    Vm, vy = basis_matrix(mids, exps), basis_matrix(np.array([y]), exps)

    def values(p):
        c = np.asarray(p.coefficients)
        return np.abs(Vm @ c), abs(float((vy @ c)[0]))

    return w, values


def _needed_alpha(pv: np.ndarray, w: float, py: float, target: float) -> float:
    """Smallest float alpha >= 1 with w * #{pv > py/alpha} >= target - 1e-12.

    With K the fewest cells that reach the target and v the K-th largest
    entry of pv, the count holds exactly when py / alpha < v, so alpha is
    py / v, raised to the next float while the rounded quotient misses.
    UnboundedGrowthError when no finite alpha exists (v = 0)."""
    K = int(np.searchsorted(w * np.arange(len(pv) + 1), target - 1e-12))
    if K == 0:
        return 1.0
    v = float(np.partition(pv, -K)[-K])
    alpha = max(1.0, py / v) if v > 0.0 else math.inf
    while alpha < math.inf and not py / alpha < v:
        alpha = math.nextafter(alpha, math.inf)
    if alpha == math.inf:
        raise UnboundedGrowthError(
            f"no finite alpha: fewer than {K} cells of [y, 1] have "
            f"|p| > |p(y)| / alpha for any alpha (|p(y)| = {py:.3e})")
    return alpha


def alpha_y_grid(s: float) -> np.ndarray:
    return np.linspace(0.0, 1.0 - s, ALPHA_Y_POINTS)


def estimate_alpha(
    seq_j: ExponentSequence,
    n: int,
    s: float,
    k: int,
    budget: int,
    seed: int,
    mesh: float,
    j: int,
) -> AlphaEstimate:
    """Empirical per-factor constant: the smallest float alpha >= 1 such
    that every sampled span element p and every y on a grid of [0, 1-s]
    satisfies m({x in [y,1] : |p(x)| > |p(y)|/alpha}) >= 1 - y - s/(2k),
    exactly, with the measure counted on the cells of _cells(y, mesh) and
    p evaluated as inequality_chain_report evaluates it."""
    if not 0.0 < s < 1.0:
        raise ConfigError("s must lie in (0, 1)")
    if k < 1:
        raise ConfigError("k must be >= 1")
    samples = draw_alpha_samples(seq_j, n, s, budget, seed, mesh, j=j)
    alpha = 1.0
    for y in alpha_y_grid(s):
        w, values = _cell_values(truncate(seq_j, n), y, mesh)
        target = 1.0 - y - s / (2.0 * k)
        for p in samples:
            pv, py = values(p)
            alpha = max(alpha, _needed_alpha(pv, w, py, target))
    return AlphaEstimate(s=s, k=k, alpha=alpha, sample_count=len(samples))


def _random_admissible_set(rng, s: float, rho: float, idx: int):
    """Rotating templates of sets inside [rho, 1] with measure >= s."""
    span = 1.0 - rho
    kind = idx % 3
    if kind == 2 and 0.625 * span >= s:
        return fat_cantor(2, carrier=(rho, 1.0))
    if kind == 1 and span >= s + 0.02:
        half = s / 2.0
        gap = span - s
        a = rho + rng.uniform(0.0, gap / 2.0)
        b = a + half + rng.uniform(gap / 4.0, gap / 2.0)
        b = min(b, 1.0 - half)
        return normalize([[a, a + half], [b, b + half]])
    a = rho + rng.uniform(0.0, max(span - s, 0.0))
    return normalize([[a, a + s]])


def _product_constant(spec: ProductSpaceSpec, s: float, alphas) -> float:
    """c = alpha_1 ... alpha_k, once there is one alpha estimate per factor
    space and each was made for this s and k; ConfigError otherwise."""
    alphas = list(alphas)
    if len(alphas) != spec.k:
        raise ConfigError("need one alpha estimate per factor space")
    for a in alphas:
        if abs(a.s - s) > 1e-12 or a.k != spec.k:
            raise ConfigError("alpha estimates do not match (s, k)")
    return math.prod(a.alpha for a in alphas)


def violates_product_bound(pq: float, pa: float, c: float) -> bool:
    """The violation rule: ||p||_[0,rho] = pq above c(1 + 1e-9) times
    ||p||_A = pa.  A ratio r = pq / pa is checked as (r, 1.0, c)."""
    return pq > c * pa * (1.0 + 1e-9)


def verify_product_remez(
    spec: ProductSpaceSpec,
    n: int,
    s: float,
    rho: float,
    alphas,
    budget: int,
    seed: int,
    mesh: float,
) -> ProductCheckReport:
    """Sample fresh product polynomials and admissible sets A in [rho, 1]
    of measure >= s and check ||p||_[0,rho] <= c ||p||_A on grids, with
    c = alpha_1 ... alpha_k.  The alphas are empirical, so rare
    out-of-sample violations are possible and merely counted."""
    if rho + s > 1.0 + 1e-12:
        raise ConfigError("no set of measure s fits in [rho, 1]")
    c = _product_constant(spec, s, alphas)
    rng = np.random.default_rng([seed, 9000 + spec.k])
    per_factor = [
        sample_factors(truncate(seq, n), budget, np.random.default_rng([seed, 100 + j]), mesh)
        for j, seq in enumerate(spec.sequences)
    ]
    ys = query_grid(rho)
    violations = 0
    ratios = []
    for i in range(budget):
        P = ProductPolynomial(tuple(per_factor[j][i] for j in range(spec.k)))
        A = _random_admissible_set(rng, s, rho, i)
        gridA = discretize(A, mesh)
        pa = float(np.max(np.abs(P(gridA.as_array()))))
        pq = float(np.max(np.abs(P(ys))))
        if pa == 0.0:
            continue
        ratio = pq / pa
        ratios.append(ratio)
        violations += violates_product_bound(ratio, 1.0, c)
    return ProductCheckReport(samples=len(ratios), violations=violations,
                              c=c, ratios=tuple(ratios))


def inequality_chain_report(
    spec: ProductSpaceSpec,
    n: int,
    s: float,
    rho: float,
    alphas,
    budget: int,
    seed: int,
    mesh: float,
) -> ChainReport:
    """Transcribe the product-bound derivation on the grid for in-sample
    products (elementwise pairing of the alpha sample families): the
    intersection of the k per-factor superlevel sets on [y, 1] must have
    measure >= 1 - y - s/2, and the resulting norm bound
    ||p||_[0,rho] <= (alpha_1...alpha_k) ||p||_A must hold for the default
    admissible family."""
    alphas = list(alphas)
    c = _product_constant(spec, s, alphas)
    families = [
        draw_alpha_samples(seq, n, s, budget, seed, mesh, j=j)
        for j, seq in enumerate(spec.sequences)
    ]
    n_products = min(len(f) for f in families)
    ys = [y for y in alpha_y_grid(s) if y <= rho + 1e-12]
    cells = [[_cell_values(truncate(seq, n), y, mesh) for seq in spec.sequences]
             for y in ys]
    sets = default_set_family(s, rho)
    set_grids = [discretize(A, mesh) for A in sets]
    checks = 0
    measure_bad = 0
    norm_bad = 0
    queries = query_grid(rho)
    for i in range(n_products):
        factors = tuple(families[j][i] for j in range(spec.k))
        P = ProductPolynomial(factors)
        for y, per_factor in zip(ys, cells):
            inside = True
            for p, a, (w, values) in zip(factors, alphas, per_factor):
                pv, py = values(p)
                inside = inside & (pv > py / a.alpha)
            inter = w * int(np.count_nonzero(inside))
            checks += 1
            if inter < 1.0 - y - s / 2.0 - 1e-12:
                measure_bad += 1
        pq = float(np.max(np.abs(P(queries))))
        for g in set_grids:
            pa = float(np.max(np.abs(P(g.as_array()))))
            checks += 1
            norm_bad += violates_product_bound(pq, pa, c)
    return ChainReport(checks=checks, measure_violations=measure_bad,
                       norm_violations=norm_bad)


def four_squares(n: int) -> tuple[int, int, int, int]:
    """Lexicographically largest (a, b, c, d) with a >= b >= c >= d >= 0
    and a^2 + b^2 + c^2 + d^2 = n (exists for every n by Lagrange)."""
    if n < 0:
        raise ConfigError("n must be nonnegative")
    for a in range(math.isqrt(n), -1, -1):
        r1 = n - a * a
        if r1 > 3 * a * a:
            break  # b, c, d <= a cannot cover the remainder
        for b in range(min(a, math.isqrt(r1)), -1, -1):
            r2 = r1 - b * b
            if r2 > 2 * b * b:
                break
            for cc in range(min(b, math.isqrt(r2)), -1, -1):
                r3 = r2 - cc * cc
                if r3 > cc * cc:
                    break
                d = math.isqrt(r3)
                if d * d == r3:
                    return (a, b, cc, d)
    raise AssertionError(f"no four-square decomposition found for {n}")


def monomial_in_H4(n: int, grid: Grid) -> MonomialWitness:
    """x^n as a product of four square-exponent monomials, with the
    floating-point deviation of the evaluated product from x^n."""
    a, b, c, d = four_squares(n)
    product = ProductPolynomial(tuple(
        MuntzPolynomial((float(t * t),), (1.0,)) for t in (a, b, c, d)
    ))
    x = grid.as_array()
    direct = basis_matrix(x, [float(n)])[:, 0]
    dev = float(np.max(np.abs(product(x) - direct)))
    return MonomialWitness(decomposition=(a, b, c, d), max_abs_deviation=dev)


def product_approx_search(
    target_samples,
    grid: Grid,
    spec: ProductSpaceSpec,
    n: int,
    rounds: int,
    seed: int,
    restarts: int,
) -> SearchReport:
    """Coordinate descent for min over products of max_grid |f - prod p_j|.

    Each inner subproblem fixes all factors but one; with g the product of
    the fixed factors, min over p_j of max |f - g * p_j| is a linear
    minimax in p_j's coefficients (weighted basis g(x) x^lambda) and is
    solved by LP.  Points where g vanishes stay in as constraints bounding
    |f| there; no division by g ever happens.  An LP answer is kept when
    the LP's error does not rise (if equal, only with new coefficients); a
    dead-product perturbation can raise the error.  Each round reports the
    residual max |f - prod p_j| of its factors, multiplied as a
    ProductPolynomial multiplies them, not the LP's error.
    best_error_by_round is the running best over all rounds so far of all
    restarts, so it is nonincreasing, and its last entry is the residual
    of `best`, bit for bit.

    A restart stops at its fixed point.  Factor j's LP input depends only on
    the other k - 1 factors (f is fixed).  Once the k - 1 subproblems before
    j's changed nothing, neither coefficient bytes nor the error, j's LP
    would return its last answer, and so would every later subproblem; the
    remaining rounds only carry the error.  The count of such subproblems
    starts at -1, at the start of a restart and after a dead-product
    perturbation, so that it reaches k - 1 only at a factor whose last LP
    saw its current partners.  Each LP starts its exchange from the
    reference ref of this factor's last answer, which saves exchange
    steps; an LP started from its own answer's ref returns that answer to
    the bit, so a repeated LP would repeat its answer, and the stop skips
    only what solving every LP would give.
    """
    if rounds < 1:
        raise ConfigError("rounds must be >= 1")
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    x = grid.as_array()
    f = np.asarray(target_samples, dtype=float)
    if f.shape != x.shape:
        raise ConfigError("target samples must match the grid")
    V = [basis_matrix(x, truncate(seq, n)) for seq in spec.sequences]
    dims = [v.shape[1] for v in V]
    rng = np.random.default_rng([seed, 777])

    def residual():
        return float(np.max(np.abs(f - np.prod(F, axis=0))))

    best_by_round = [math.inf] * rounds
    best_err = math.inf
    best_coeffs = None
    starts = [None] * spec.k  # each factor's last LP reference
    for restart in range(restarts):
        coeffs = []
        for j in range(spec.k):
            c = np.zeros(dims[j])
            c[0] = 1.0
            if restart > 0:
                c = c + 0.5 * rng.standard_normal(dims[j])
            coeffs.append(c)
        F = [V[j] @ coeffs[j] for j in range(spec.k)]
        cur, low = residual(), math.inf  # low: the restart's best round
        idle = -1  # subproblems in a row that changed nothing
        for t in range(rounds):
            for j in range(spec.k):
                if idle >= spec.k - 1:
                    break  # fixed point: every later subproblem repeats
                g = np.prod([F[i] for i in range(spec.k) if i != j], axis=0) \
                    if spec.k > 1 else np.ones_like(x)
                if not np.any(g):
                    # dead product: perturb this factor's complement
                    for i in range(spec.k):
                        if i != j:
                            coeffs[i] = coeffs[i] + 0.1 * rng.standard_normal(dims[i])
                            F[i] = V[i] @ coeffs[i]
                    cur = residual()
                    idle = -1
                    continue
                B = g[:, None] * V[j]
                c_new, err, starts[j] = discrete_minimax_lp(B, f, start=starts[j])
                idle += 1
                if err < cur or (err == cur and c_new.tobytes() != coeffs[j].tobytes()):
                    coeffs[j] = c_new
                    F[j] = V[j] @ c_new
                    cur = err
                    idle = 0
            now = residual()
            low = min(low, now)
            best_by_round[t] = min(best_by_round[t], low)
            if now < best_err:
                best_err = now
                best_coeffs = [c.copy() for c in coeffs]

    factors = tuple(
        MuntzPolynomial(tuple(truncate(seq, n)), tuple(float(v) for v in c))
        for seq, c in zip(spec.sequences, best_coeffs)
    )
    return SearchReport(best_error_by_round=tuple(best_by_round),
                        best=ProductPolynomial(factors))
