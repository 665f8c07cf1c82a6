"""Evaluation of Muntz monomials x^lambda and their linear combinations
on [0, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from muntzlab.errors import ConfigError, finite_number


@dataclass(frozen=True)
class MuntzPolynomial:
    """p(x) = sum_i coefficients[i] * x^exponents[i], exponents as
    check_exponents asks and coefficients finite."""

    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if len(self.exponents) != len(self.coefficients):
            raise ConfigError("exponents and coefficients must match in length")
        check_exponents(self.exponents)
        for c in self.coefficients:
            finite_number(c, "coefficient")

    def __call__(self, x):
        return evaluate(self, x)


def check_exponents(exponents) -> tuple[float, ...]:
    """The exponents as floats: at least one, each a finite number, the
    first >= 0 and strictly increasing, or ConfigError.  The types come
    first ('0' >= 0 is a TypeError); a NaN is left to the order tests,
    whose messages name it."""
    exps = tuple(exponents)
    if not exps:
        raise ConfigError("need at least one term")
    exps = tuple(e if e != e else finite_number(e, "exponent")  # e != e: NaN
                 for e in exps)
    if not exps[0] >= 0:  # NaN too
        raise ConfigError("exponents must be >= 0")
    if not all(a < b for a, b in zip(exps, exps[1:])):  # NaN too
        raise ConfigError("exponents must be strictly increasing")
    return exps


def basis_matrix(x, exponents) -> np.ndarray:
    """Columns x^lambda_j evaluated at the points x: np.power gives
    0^0 = 1 (the constant basis function) and 0^lam = 0 for lam > 0."""
    return np.power(np.asarray(x, dtype=float)[:, None],
                    np.asarray(exponents, dtype=float)[None, :])


def evaluate(p: MuntzPolynomial, x):
    """Value(s) of p at scalar or array x in [0, 1]."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN too
        raise ConfigError("evaluation points must lie in [0, 1]")
    vals = basis_matrix(arr, p.exponents) @ np.asarray(p.coefficients)
    return float(vals[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else vals
