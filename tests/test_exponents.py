import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from muntzlab.errors import ConfigError
from muntzlab.exponents import (
    DENSITY_CONVERGES,
    DENSITY_DIVERGES,
    DENSITY_UNDETERMINED,
    arithmetic,
    classify_density,
    explicit,
    reciprocal_partial_sum,
    sequence_from_json,
    sequence_to_json,
    squares,
    truncate,
)


def test_truncate_basic():
    assert truncate(arithmetic(1.0), 3) == [0.0, 1.0, 2.0, 3.0]
    assert truncate(arithmetic(0.5), 4) == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert truncate(squares(), 4) == [0.0, 1.0, 4.0, 9.0, 16.0]
    assert truncate(explicit([0, 0.5, 3]), 2) == [0.0, 0.5, 3.0]


def test_truncate_rejects_negative_n():
    with pytest.raises(ConfigError):
        truncate(squares(), -1)


def test_explicit_validation():
    with pytest.raises(ConfigError):
        explicit([1.0, 2.0])  # must start at 0
    with pytest.raises(ConfigError):
        explicit([0.0, 2.0, 2.0])  # strictly increasing
    with pytest.raises(ConfigError):
        explicit([])
    with pytest.raises(ConfigError):
        arithmetic(0.0)
    with pytest.raises(ConfigError):
        arithmetic(-1.0)


def test_explicit_out_of_range_index():
    seq = explicit([0.0, 1.0])
    with pytest.raises(ConfigError):
        seq.exponent(2)


def test_reciprocal_partial_sums():
    # squares: sum_{i=1..n} 1/i^2
    assert reciprocal_partial_sum(squares(), 1) == pytest.approx(1.0)
    assert reciprocal_partial_sum(squares(), 3) == pytest.approx(1 + 0.25 + 1 / 9)
    # arithmetic(1): harmonic numbers
    assert reciprocal_partial_sum(arithmetic(1.0), 3) == pytest.approx(11 / 6)
    with pytest.raises(ConfigError):
        reciprocal_partial_sum(squares(), 0)


@given(st.integers(min_value=1, max_value=50))
def test_partial_sums_increasing(n):
    seq = squares()
    assert reciprocal_partial_sum(seq, n + 1) > reciprocal_partial_sum(seq, n)
    # squares partial sums stay below pi^2/6
    assert reciprocal_partial_sum(seq, n) < math.pi ** 2 / 6


@given(st.floats(min_value=0.1, max_value=5.0), st.integers(1, 30))
def test_arithmetic_partial_sum_formula(step, n):
    got = reciprocal_partial_sum(arithmetic(step), n)
    want = sum(1.0 / (step * i) for i in range(1, n + 1))
    assert got == pytest.approx(want, rel=1e-12)


def test_classify_density():
    assert classify_density(arithmetic(2.0)) == DENSITY_DIVERGES
    assert classify_density(squares()) == DENSITY_CONVERGES
    assert classify_density(explicit([0.0, 1.0, 2.0])) == DENSITY_UNDETERMINED


@pytest.mark.parametrize(
    "seq",
    [arithmetic(0.5, "half-steps"), squares("sq"), explicit([0, 1, 4.5], "e")],
)
def test_json_roundtrip(seq):
    back = sequence_from_json(sequence_to_json(seq))
    assert back == seq


def test_json_rejects_garbage():
    with pytest.raises(ConfigError):
        sequence_from_json({"kind": "cubes"})
    with pytest.raises(ConfigError):
        sequence_from_json({"kind": "squares", "extra": 1})
    with pytest.raises(ConfigError):
        sequence_from_json([1, 2, 3])
    with pytest.raises(ConfigError):
        sequence_from_json({"kind": {"arithmetic": 1.0, "explicit": [0]}})
    for kind in ({"arithmetic": "x"}, {"arithmetic": True},
                 {"arithmetic": float("nan")}, {"explicit": ["a"]},
                 {"explicit": [0, True]}, {"explicit": 5}):
        with pytest.raises(ConfigError):
            sequence_from_json({"kind": kind})
