import math

import numpy as np
import pytest

from muntzlab.errors import ConfigError
from muntzlab.muntzeval import MuntzPolynomial, basis_matrix


@pytest.mark.parametrize("exps", [
    [float(i * i) for i in range(65)],  # squares to n = 64
    [0.5 * i for i in range(31)],  # arithmetic(0.5) to n = 30
    [0.0, 1e-300, 0.5],
])
def test_basis_matrix_is_np_power_with_0_to_the_0_one(exps):
    x = np.array([0.0, 5e-324, 1e-300, 1e-10, 0.25, 0.5, 1.0])
    V = basis_matrix(x, exps)
    want = np.power(x[:, None], np.array(exps)[None, :])
    assert V.tobytes() == want.tobytes()
    assert V[0].tolist() == [float(e == 0.0) for e in exps]
    assert np.isfinite(V).all()


def test_polynomial_validation():
    with pytest.raises(ConfigError):
        MuntzPolynomial((0.0, 1.0), (1.0,))
    with pytest.raises(ConfigError):
        MuntzPolynomial((), ())
    with pytest.raises(ConfigError):
        MuntzPolynomial((1.0, 1.0), (1.0, 2.0))
    with pytest.raises(ConfigError):
        MuntzPolynomial((-0.5, 1.0), (1.0, 2.0))
    with pytest.raises(ConfigError, match=">= 0"):
        MuntzPolynomial((math.nan, 1.0), (1.0, 1.0))
    with pytest.raises(ConfigError, match="strictly increasing"):
        MuntzPolynomial((0.0, math.nan), (1.0, 1.0))
    with pytest.raises(ConfigError, match="exponent must be finite"):
        MuntzPolynomial((0.0, math.inf), (1.0, 1.0))
    with pytest.raises(ConfigError, match="coefficient must be finite"):
        MuntzPolynomial((0.0, 1.0), (math.nan, 1.0))
    with pytest.raises(ConfigError, match="coefficient must be finite"):
        MuntzPolynomial((0.0, 1.0), (1.0, -math.inf))


def test_polynomial_evaluation():
    p = MuntzPolynomial((0.0, 1.0, 2.0), (1.0, -2.0, 1.0))  # (1-x)^2
    assert p(0.0) == pytest.approx(1.0)
    assert p(1.0) == pytest.approx(0.0)
    assert p(0.5) == pytest.approx(0.25)
    vals = p(np.array([0.0, 0.5, 1.0]))
    assert vals == pytest.approx([1.0, 0.25, 0.0])
    for x in (1.5, -0.5, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ConfigError, match=r"lie in \[0, 1\]"):
            p(x)
