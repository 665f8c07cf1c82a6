import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muntzlab.errors import ConfigError
from muntzlab.sets import (
    MAX_GRID_POINTS,
    Grid,
    check_interval_total,
    discretize,
    essential_supremum,
    fat_cantor,
    normalize,
    union_from_json,
)


def intervals_strategy():
    endpoint = st.floats(min_value=0.0, max_value=2.0,
                         allow_nan=False, allow_infinity=False)
    pair = st.tuples(endpoint, endpoint).map(sorted)
    return st.lists(pair, min_size=0, max_size=8)


def test_normalize_merges_overlaps():
    A = normalize([[0.0, 0.5], [0.25, 0.75], [0.9, 1.0]])
    assert A.intervals == ((0.0, 0.75), (0.9, 1.0))
    assert A.measure() == pytest.approx(0.85)


def test_normalize_merges_adjacent():
    A = normalize([[0.0, 0.5], [0.5, 1.0]])
    assert A.intervals == ((0.0, 1.0),)


def test_normalize_rejects_bad_input():
    with pytest.raises(ConfigError):
        normalize([[-0.1, 0.5]])
    with pytest.raises(ConfigError):
        normalize([[0.5, 0.2]])
    with pytest.raises(ConfigError):
        normalize([[0.0, float("inf")]])
    for raw in ([[0, "a"]], [0.5], [[0.0]], [[0.0, 1.0, 2.0]], [[False, 1]], 5):
        with pytest.raises(ConfigError):
            normalize(raw)


@given(intervals_strategy())
@settings(derandomize=True)
def test_normalize_canonical_and_subadditive(raw):
    A = normalize(raw)
    # sorted, disjoint, non-adjacent
    for (a1, b1), (a2, b2) in zip(A.intervals, A.intervals[1:]):
        assert b1 < a2
    # idempotent
    assert normalize(A.intervals).intervals == A.intervals
    # measure never exceeds the raw total length
    assert A.measure() <= sum(b - a for a, b in raw) + 1e-12
    # every raw interval lies in one interval of the union
    for a, b in raw:
        assert any(lo <= a and b <= hi for lo, hi in A.intervals)


@given(intervals_strategy(), intervals_strategy())
@settings(derandomize=True)
def test_measure_subadditive_under_union(raw1, raw2):
    m_union = normalize(list(raw1) + list(raw2)).measure()
    assert m_union <= normalize(raw1).measure() + normalize(raw2).measure() + 1e-12


def test_essential_supremum_ignores_singletons():
    A = normalize([[0.0, 0.5], [0.9, 0.9]])
    assert essential_supremum(A) == 0.5
    with pytest.raises(ConfigError):
        essential_supremum(normalize([[0.3, 0.3]]))


@given(intervals_strategy(),
       st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
@settings(max_examples=60, derandomize=True)
def test_essential_supremum_unchanged_by_singletons(raw, point):
    fat = [p for p in raw if p[1] > p[0]]
    if not fat:
        return
    base = essential_supremum(normalize(fat))
    with_singleton = essential_supremum(normalize(fat + [[point, point]]))
    assert with_singleton == base


def test_fat_cantor_structure():
    for K in range(0, 7):
        A = fat_cantor(K)
        assert len(A.intervals) == 2 ** K
        assert A.measure() == pytest.approx(0.5 + 2.0 ** (-(K + 1)), abs=1e-14)
    assert fat_cantor(0).intervals == ((0.0, 1.0),)


def test_fat_cantor_level_one():
    # remove the centered open middle of length 1/4 from [0, 1]
    A = fat_cantor(1)
    assert A.intervals == ((0.0, 0.375), (0.625, 1.0))


@given(st.integers(min_value=0, max_value=6))
@settings(derandomize=True)
def test_fat_cantor_nesting(K):
    coarse = fat_cantor(K)
    fine = fat_cantor(K + 1)
    # every interval of the finer level lies in some interval of the coarser
    for a, b in fine.intervals:
        assert any(c - 1e-12 <= a and b <= d + 1e-12 for c, d in coarse.intervals)
    assert fine.measure() < coarse.measure()


def test_fat_cantor_carrier():
    A = fat_cantor(3, carrier=(0.5, 1.0))
    assert A.lo() == pytest.approx(0.5)
    assert A.hi() == pytest.approx(1.0)
    assert A.measure() == pytest.approx(0.5 * (0.5 + 2.0 ** -4))


def test_discretize_spacing_and_endpoints():
    A = normalize([[0.0, 0.3], [0.7, 1.0]])
    g = discretize(A, 0.1)
    pts = g.as_array()
    for a, b in A.intervals:
        assert a in g.points and b in g.points
    # spacing within each interval is at most mesh
    for a, b in A.intervals:
        seg = pts[(pts >= a) & (pts <= b)]
        assert np.max(np.diff(seg)) <= 0.1 + 1e-12


def test_discretize_singleton_and_errors():
    g = discretize(normalize([[0.5, 0.5]]), 0.1)
    assert g.points == (0.5,)
    with pytest.raises(ConfigError):
        discretize(normalize([[0.0, 1.0]]), 0.0)
    with pytest.raises(ConfigError, match="positive"):
        discretize(normalize([[0.0, 1.0]]), float("nan"))


@pytest.mark.parametrize("mesh", [1.0 / (MAX_GRID_POINTS + 1), 1e-300, 5e-324])
def test_discretize_refuses_a_grid_beyond_the_cap(mesh):
    # refused before any point is built; 5e-324 makes (b - a) / mesh = inf
    with pytest.raises(ConfigError, match="grid points"):
        discretize(normalize([[0.0, 1.0]]), mesh)


def test_discretize_counts_every_interval_toward_the_cap():
    # each singleton is a grid point, though it spans no cell: 150,000 of
    # them plus [0.8, 1] would build 150,021 points
    dust = [[i * 1e-6, i * 1e-6] for i in range(150_000)]
    with pytest.raises(ConfigError, match="grid points"):
        discretize(normalize(dust + [[0.8, 1.0]]), 0.01)
    assert len(discretize(normalize([[0.0, 1.0]]), 1e-5)) == MAX_GRID_POINTS + 1


@given(intervals_strategy(),
       st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
@settings(max_examples=60, derandomize=True)
def test_discretize_points_lie_in_parent(raw, mesh):
    A = normalize(raw)
    g = discretize(A, mesh)
    for p in g.points:
        assert any(a <= p <= b for a, b in A.intervals)
    assert len(g) >= len(A.intervals)


def loop_points(A, mesh):
    """discretize's points one at a time by the formula
    a + (b - a) * i / nseg: the reference for its array arithmetic."""
    pts = []
    for a, b in A.intervals:
        if a == b:
            pts.append(a)
            continue
        nseg = max(1, math.ceil((b - a) / mesh - 1e-12))
        pts.extend(a + (b - a) * i / nseg for i in range(nseg))
        pts.append(b)
    return pts


def assert_same_bits(A, mesh):
    got = discretize(A, mesh).points
    assert all(type(p) is float for p in got)
    assert np.array(got).tobytes() == np.array(loop_points(A, mesh)).tobytes()


@pytest.mark.parametrize("carrier", [(0.0, 1.0), (0.5, 1.0), (0.1, 0.7)])
@pytest.mark.parametrize("mesh", [1e-3, 1.0 / 256, 0.013])
def test_discretize_keeps_the_bits_of_the_loop_on_fat_cantor(carrier, mesh):
    for level in range(8):
        assert_same_bits(fat_cantor(level, carrier), mesh)


@given(intervals_strategy(),
       st.floats(min_value=1e-4, max_value=0.5, allow_nan=False))
@settings(max_examples=60, derandomize=True)
def test_discretize_keeps_the_bits_of_the_loop(raw, mesh):
    assert_same_bits(normalize(raw), mesh)


def test_union_json_roundtrip():
    A = union_from_json({"intervals": [[0.6, 0.9], [0.1, 0.4], [0.3, 0.35]]})
    assert A == normalize([[0.1, 0.4], [0.6, 0.9]])
    B = union_from_json({"fat_cantor": {"level": 2, "carrier": [0.5, 1.0]}})
    assert B == fat_cantor(2, carrier=(0.5, 1.0))
    with pytest.raises(ConfigError):
        union_from_json({"intervals": [[0, 1]], "extra": 1})
    with pytest.raises(ConfigError):
        union_from_json({"fat_cantor": {"level": 2, "bogus": 0}})
    for level in ("x", 2.5, True, None):
        with pytest.raises(ConfigError):
            union_from_json({"fat_cantor": {"level": level}})
    with pytest.raises(ConfigError):
        union_from_json({"fat_cantor": {"level": 2, "carrier": [0, "b"]}})


@pytest.mark.parametrize("points", [(0.1, 0.5, 0.5), (0.1, math.nan)])
def test_grid_refuses_points_that_are_not_strictly_increasing(points):
    with pytest.raises(ConfigError, match="strictly increasing"):
        Grid(points)


def test_union_from_json_refuses_a_fat_cantor_beyond_the_grid_cap():
    # 2^16 intervals fit under MAX_GRID_POINTS; 2^17 do not, and no mesh
    # could discretize them, so they are refused before any is built
    assert len(union_from_json({"fat_cantor": {"level": 16}}).intervals) == 2**16
    for level in (17, 20):
        with pytest.raises(ConfigError,
                           match=f"set holds {2**level} intervals in all"):
            union_from_json({"fat_cantor": {"level": level}})
    with pytest.raises(ConfigError, match="level must be an integer in \\[0, 20\\]"):
        union_from_json({"fat_cantor": {"level": 10**18}})


def test_union_from_json_refuses_an_interval_list_beyond_the_grid_cap():
    # counted on the JSON like a family, so before normalize merges them
    pairs = [[0.0, 0.5]] * (MAX_GRID_POINTS + 1)
    with pytest.raises(ConfigError, match=f"set holds {MAX_GRID_POINTS + 1} "
                                          "intervals in all"):
        union_from_json({"intervals": pairs})
    assert union_from_json({"intervals": pairs[1:]}).intervals == ((0.0, 0.5),)


@pytest.mark.parametrize("level", [3.0, 2.5, True, "3", None, -1, 21])
def test_fat_cantor_refuses_a_level_that_is_not_an_integer_in_range(level):
    with pytest.raises(ConfigError, match="level must be an integer in"):
        fat_cantor(level)


@pytest.mark.parametrize("level, carrier, pieces", [
    (4, (0.5, 0.5 + 1e-15), 4), (16, (0.5, 0.5 + 1e-8), 13012), (3, (0.5, 0.5), 1)])
def test_fat_cantor_merges_pieces_that_touch_on_a_narrow_carrier(
        level, carrier, pieces):
    # gaps below the carrier's float spacing close once mapped; the pieces
    # on either side merge, and the grid stays strictly increasing
    A = fat_cantor(level, carrier)
    assert len(A.intervals) == pieces
    assert A == normalize(A.intervals)
    assert all(b < c for (_, b), (c, _) in zip(A.intervals, A.intervals[1:]))
    discretize(A, 1e-3)


def test_check_interval_total_counts_the_json():
    # the pairs of an interval list, overlapping or not, and 2^K per fat
    # Cantor set: 80000 + 16384 intervals fit, 120000 do not
    pairs = {"intervals": [[0.0, 0.1]] * 40_000}
    check_interval_total([pairs, pairs, {"fat_cantor": {"level": 14}}], "family")
    with pytest.raises(ConfigError, match="family holds 120000 intervals in all"):
        check_interval_total([pairs] * 3, "family")
    # a malformed descriptor counts 0 and is left to union_from_json
    check_interval_total([None, {"intervals": 3}, {"fat_cantor": {"level": 10**18}},
                          {"fat_cantor": {"level": -1}}], "family")
