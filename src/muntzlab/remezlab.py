"""Experiments around the classical Remez inequality, the empirical
Remez constant c(sequence, s) and its trend in the dimension, and
density probes on compact sets of positive measure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from muntzlab.errors import ConfigError
from muntzlab.exponents import ExponentSequence, truncate
from muntzlab.minimax import (
    EquioscillationResult,
    best_uniform_approx,
    chebyshev_T,
    growth_sweep,
)
from muntzlab.sets import IntervalUnion, discretize, fat_cantor, normalize

QUERY_POINTS = 33  # uniform query grid on [0, rho], 0 always included
DENSITY_TOL = 1e-10  # relative certificate gap of each best approximation


@dataclass(frozen=True)
class RemezConstantEstimate:
    c_value: float
    attaining_query: float
    attaining_set: int  # index into the set family


@dataclass(frozen=True)
class DensityProbeResult:
    errors_by_n: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class ClassicalReport:
    computed: float
    predicted: float
    relative_error: float


def classical_remez_bound(n: int, s: float) -> float:
    """Sharp classical bound T_n((2-s)/s) on ||p||_[0,1] for degree-n
    polynomials bounded by 1 on a subset of measure >= s; the extremals
    are Chebyshev polynomials rescaled from [1-s, 1]."""
    if not 0.0 < s <= 1.0:
        raise ConfigError("s must lie in (0, 1]")
    return chebyshev_T(n, (2.0 - s) / s)


def verify_classical_extremal(n: int, s: float, mesh: float) -> ClassicalReport:
    """Compare the growth functional on a grid of [1-s, 1] at query 0 (outside
    the grid's hull, so solved by set-Chebyshev exchange) against the
    closed-form Chebyshev value."""
    predicted = classical_remez_bound(n, s)
    grid = discretize(normalize([[1.0 - s, 1.0]]), mesh)
    computed = growth_sweep(range(n + 1), grid, [0.0])[0].value
    rel = abs(computed - predicted) / predicted
    return ClassicalReport(computed, predicted, rel)


def default_set_family(s: float, rho: float) -> tuple[IntervalUnion, ...]:
    """Endpoint intervals of [rho, 1] plus a level-3 fat Cantor set mapped
    into [rho, 1]; ConfigError unless each lies in [rho, 1] with measure
    >= s."""
    family = (
        normalize([[1.0 - s, 1.0]]),
        normalize([[rho, rho + s]]),
        fat_cantor(3, carrier=(rho, 1.0)),
    )
    _check_family(family, s, rho)
    return family


def _check_family(family, s: float, rho: float) -> None:
    if not family:
        raise ConfigError("set family must be non-empty")
    for A in family:
        if not A.intervals:
            raise ConfigError("empty set in family")
        if A.lo() < rho - 1e-12 or A.hi() > 1.0 + 1e-12:
            raise ConfigError("family sets must lie in [rho, 1]")
        if A.measure() < s - 1e-12:
            raise ConfigError(f"family set has measure {A.measure()} < s")


def remez_constant_estimate(
    seq: ExponentSequence,
    n: int,
    s: float,
    rho: float,
    family,
    mesh: float,
) -> RemezConstantEstimate:
    """Empirical Remez constant: max over the set family and over a query
    grid of [0, rho] of the growth functional.  A lower envelope of the
    true constant (finite family, finite dimension, discretized norms)."""
    family = tuple(family)
    _check_family(family, s, rho)
    exps = truncate(seq, n)
    ys = np.linspace(0.0, rho, QUERY_POINTS)
    best = (-np.inf, 0.0, 0)
    for idx, A in enumerate(family):
        for y, res in zip(ys, growth_sweep(exps, discretize(A, mesh), ys)):
            # ties: the first maximizing set in family order, then its
            # smallest query (the loop is family-major, and strict > keeps
            # the earliest maximizer)
            if res.value > best[0]:
                best = (res.value, float(y), idx)
    return RemezConstantEstimate(*best)


def remez_trend(
    seq: ExponentSequence,
    n_max: int,
    s: float,
    rho: float,
    family,
    mesh: float,
) -> list[RemezConstantEstimate]:
    """The estimate for each n = 0..n_max; c_value is nondecreasing in n."""
    return [remez_constant_estimate(seq, n, s, rho, family, mesh)
            for n in range(n_max + 1)]


def growth_ratios(trend) -> list[tuple[int, float]]:
    """(n, c_{n+1}/c_n) pairs from a remez_trend output, whose entry n is
    the estimate for dimension index n."""
    return [(n, e1.c_value / e0.c_value)
            for n, (e0, e1) in enumerate(zip(trend, trend[1:]))]


TARGETS = {
    "abs2x1": lambda x: np.abs(2.0 * x - 1.0),
    "runge": lambda x: 1.0 / (1.0 + 25.0 * (x - 0.5) ** 2),
}


def named_target(name: str):
    """Built-in targets: abs2x1, runge, monomial(m)."""
    if name in TARGETS:
        return TARGETS[name]
    if name.startswith("monomial(") and name.endswith(")"):
        try:
            m = float(name[len("monomial("):-1])
        except ValueError:
            raise ConfigError(
                f"monomial exponent must be a number: {name!r}") from None
        if not m >= 0:
            raise ConfigError("monomial exponent must be >= 0")
        return lambda x: np.asarray(x, dtype=float) ** m
    raise ConfigError(f"unknown target {name!r}")


def density_probe(
    target,
    seq: ExponentSequence,
    A: IntervalUnion,
    n_list,
    mesh: float,
) -> DensityProbeResult:
    """Best-approximation errors E_n(f) on A for nested truncations of the
    sequence; the decay/plateau of the curve probes density in C[A].

    `target` is a callable on [0,1] or a built-in target name.
    """
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("n_list must be strictly increasing")
    fn = named_target(target) if isinstance(target, str) else target
    # Measure-zero components are irrelevant to the density question, so
    # degenerate singletons are dropped before discretizing.
    solid = [[a, b] for a, b in A.intervals if b > a]
    if not solid:
        raise ConfigError("set has measure zero; density probe undefined")
    grid = discretize(normalize(solid), mesh)
    f = np.asarray(fn(grid.as_array()), dtype=float)
    errors = []
    for n in n_list:
        res: EquioscillationResult = best_uniform_approx(
            f, grid, truncate(seq, n), tol=DENSITY_TOL
        )
        errors.append((int(n), res.error))
    return DensityProbeResult(errors_by_n=tuple(errors))
