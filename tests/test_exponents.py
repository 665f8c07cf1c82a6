import pytest

from muntzlab.errors import ConfigError
from muntzlab.exponents import (
    arithmetic,
    explicit,
    sequence_from_json,
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


SEQUENCES = [arithmetic(0.5), squares(), explicit([0, 1, 4.5])]
# the literal descriptor that parses to each of SEQUENCES, in its position
DESCRIPTORS = [
    {"kind": {"arithmetic": 0.5}, "label": "half-steps"},
    {"kind": "squares", "label": "sq"},
    {"kind": {"explicit": [0, 1, 4.5]}},
]


@pytest.mark.parametrize("seq", SEQUENCES)
def test_json_roundtrip(seq):
    descriptor = DESCRIPTORS[SEQUENCES.index(seq)]
    assert sequence_from_json(descriptor) == seq


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
