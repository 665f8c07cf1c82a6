import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muntzlab.errors import ConfigError
from muntzlab.muntzeval import MuntzPolynomial, basis_matrix, power_eval, sup_norm
from muntzlab.sets import discretize, normalize


def test_power_eval_conventions():
    assert power_eval(0.0, 0.0) == 1.0  # constant basis function
    assert power_eval(0.0, 2.5) == 0.0
    assert power_eval(1.0, 7.0) == 1.0
    assert power_eval(0.25, 0.5) == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        power_eval(-0.1, 1.0)
    with pytest.raises(ConfigError):
        power_eval(1.1, 1.0)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_power_eval_range(x, lam):
    v = power_eval(x, lam)
    assert 0.0 <= v <= 1.0


@given(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
       st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.01, max_value=5.0))
def test_power_eval_decreasing_in_exponent(x, lam, delta):
    # for fixed x in (0,1), x^lam decreases as lam grows
    assert power_eval(x, lam + delta) <= power_eval(x, lam) + 1e-15


def test_basis_matrix_matches_power_eval():
    x = np.array([0.0, 0.1, 0.5, 1.0])
    exps = [0.0, 0.5, 2.0]
    V = basis_matrix(x, exps)
    for i, xi in enumerate(x):
        for j, e in enumerate(exps):
            assert V[i, j] == pytest.approx(power_eval(float(xi), e))


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


def test_polynomial_evaluation():
    p = MuntzPolynomial((0.0, 1.0, 2.0), (1.0, -2.0, 1.0))  # (1-x)^2
    assert p(0.0) == pytest.approx(1.0)
    assert p(1.0) == pytest.approx(0.0)
    assert p(0.5) == pytest.approx(0.25)
    vals = p(np.array([0.0, 0.5, 1.0]))
    assert vals == pytest.approx([1.0, 0.25, 0.0])
    with pytest.raises(ConfigError):
        p(1.5)


def test_sup_norm_value_and_argmax():
    g = discretize(normalize([[0.0, 1.0]]), 0.25)
    p = MuntzPolynomial((0.0, 1.0), (1.0, -2.0))  # 1 - 2x
    val, arg = sup_norm(p, g)
    assert val == pytest.approx(1.0)
    # |p| = 1 at both x=0 and x=1; smallest attaining point wins
    assert arg == 0.0


@given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                min_size=2, max_size=4),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=50)
def test_sup_norm_homogeneous(coeffs, c):
    exps = tuple(float(i) for i in range(len(coeffs)))
    g = discretize(normalize([[0.0, 1.0]]), 0.05)
    p = MuntzPolynomial(exps, tuple(coeffs))
    q = MuntzPolynomial(exps, tuple(c * v for v in coeffs))
    vp, _ = sup_norm(p, g)
    vq, _ = sup_norm(q, g)
    assert vq == pytest.approx(c * vp, rel=1e-12, abs=1e-12)


def test_sup_norm_refinement_monotone():
    # refining the grid (superset of points) never decreases the sup-norm
    A = normalize([[0.0, 1.0]])
    p = MuntzPolynomial((0.0, 1.0, 4.0), (0.2, -1.0, 3.0))
    coarse, _ = sup_norm(p, discretize(A, 0.25))
    fine, _ = sup_norm(p, discretize(A, 0.125))  # refines the 0.25 grid
    finest, _ = sup_norm(p, discretize(A, 0.015625))
    assert coarse <= fine + 1e-15
    assert fine <= finest + 1e-15
