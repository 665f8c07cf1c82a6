"""Evaluation of Muntz monomials x^lambda and their linear combinations
on [0, 1], plus grid sup-norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from muntzlab.errors import ConfigError
from muntzlab.sets import Grid


@dataclass(frozen=True)
class MuntzPolynomial:
    """p(x) = sum_i coefficients[i] * x^exponents[i], exponents strictly
    increasing and >= 0."""

    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.coefficients):
            raise ConfigError("exponents and coefficients must match in length")
        if not self.exponents:
            raise ConfigError("need at least one term")
        if self.exponents[0] < 0:
            raise ConfigError("exponents must be >= 0")
        if any(b <= a for a, b in zip(self.exponents, self.exponents[1:])):
            raise ConfigError("exponents must be strictly increasing")

    def __call__(self, x):
        return evaluate(self, x)


def power_eval(x: float, lam: float) -> float:
    """x^lam on [0,1] with the convention 0^0 = 1 (the constant basis
    function).  Underflow to 0 for tiny x and large lam is accepted."""
    if not 0.0 <= x <= 1.0:
        raise ConfigError(f"x = {x} outside [0, 1]")
    if x == 0.0:
        return 1.0 if lam == 0.0 else 0.0
    return float(x ** lam)


def basis_matrix(x, exponents) -> np.ndarray:
    """Columns x^lambda_j evaluated at the points x (vectorized power_eval):
    np.power gives 0^0 = 1 and 0^lam = 0 for lam > 0."""
    return np.power(np.asarray(x, dtype=float)[:, None],
                    np.asarray(exponents, dtype=float)[None, :])


def evaluate(p: MuntzPolynomial, x):
    """Value(s) of p at scalar or array x in [0, 1]."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ConfigError("evaluation points must lie in [0, 1]")
    vals = basis_matrix(arr, p.exponents) @ np.asarray(p.coefficients)
    return float(vals[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else vals


def sup_norm(p: MuntzPolynomial, g: Grid) -> tuple[float, float]:
    """(max |p| over grid points, smallest attaining point)."""
    if len(g) == 0:
        raise ConfigError("empty grid")
    vals = np.abs(evaluate(p, g.as_array()))
    best = float(vals.max())
    argmax = float(g.points[int(np.argmax(vals >= best))])
    return best, argmax
