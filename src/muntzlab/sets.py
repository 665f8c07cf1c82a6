"""Compact subsets of [0, inf) as finite unions of closed intervals:
measure, essential supremum, Smith-Volterra-Cantor construction and
grid discretization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from muntzlab.errors import ConfigError, finite_number

MAX_CANTOR_LEVEL = 20  # 2^20 intervals; a level-60 set would exhaust memory
# Cap on the cells of one discretization, one grid point each: an interval
# counts max(1, (b - a) / mesh) cells, a singleton one, so a grid has fewer
# than 3 * MAX_GRID_POINTS points however many intervals it has.  Memory
# grows with grid x dimension: a density probe on [0, 1] with arithmetic(1)
# peaked at 735 MiB with 1e6 points and 13 columns, and at 144 MiB
# (13 columns) and 382 MiB (65 columns) with 1e5 points.  The tests and the
# benchmark use about 1e3 points.
MAX_GRID_POINTS = 10**5


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted, pairwise-disjoint, non-adjacent closed intervals [a_i, b_i].

    Construct via normalize(); the raw constructor trusts its input.
    """

    intervals: tuple[tuple[float, float], ...]

    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def contains(self, x: float, tol: float = 1e-12) -> bool:
        return any(a - tol <= x <= b + tol for a, b in self.intervals)

    def lo(self) -> float:
        if not self.intervals:
            raise ConfigError("empty union has no lower endpoint")
        return self.intervals[0][0]

    def hi(self) -> float:
        if not self.intervals:
            raise ConfigError("empty union has no upper endpoint")
        return self.intervals[-1][1]


@dataclass(frozen=True)
class Grid:
    """Finite point set discretizing an IntervalUnion; endpoints of every
    interval are included and consecutive points within an interval are
    at most `mesh` apart.  The points are strictly increasing, as every
    solver assumes: ConfigError otherwise."""

    points: tuple[float, ...]
    parent: IntervalUnion
    mesh: float

    def __post_init__(self):
        p = self.points
        if not all(a < b for a, b in zip(p, p[1:])):  # NaN too
            raise ConfigError("grid points must be strictly increasing")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def __len__(self) -> int:
        return len(self.points)


def _pair(p, what: str) -> tuple[float, float]:
    """[a, b] as two finite floats, or ConfigError."""
    try:
        a, b = p
    except (TypeError, ValueError):
        raise ConfigError(
            f"{what} must be a pair [a, b] of numbers, not {p!r}") from None
    return finite_number(a, what), finite_number(b, what)


def normalize(raw) -> IntervalUnion:
    """Merge overlapping/adjacent closed intervals into a canonical union."""
    try:
        pairs = list(raw)
    except TypeError:
        raise ConfigError(
            f"intervals must be a list of pairs [a, b], not {raw!r}") from None
    cleaned = []
    for pair in pairs:
        a, b = _pair(pair, "interval")
        if a < 0:
            raise ConfigError("intervals must lie in [0, inf)")
        if a > b:
            raise ConfigError(f"interval [{a}, {b}] has a > b")
        cleaned.append((a, b))
    cleaned.sort()
    merged: list[list[float]] = []
    for a, b in cleaned:
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalUnion(tuple((a, b) for a, b in merged))


def essential_supremum(A: IntervalUnion) -> float:
    """Largest right endpoint among non-degenerate intervals; singletons
    carry no measure and are ignored."""
    fat = [b for a, b in A.intervals if a < b]
    if not fat:
        raise ConfigError("essential supremum needs positive measure")
    return max(fat)


def fat_cantor(K: int, carrier: tuple[float, float] = (0.0, 1.0)) -> IntervalUnion:
    """Level-K Smith-Volterra-Cantor set, affinely mapped onto `carrier`.

    At step k, each of the 2^(k-1) surviving intervals loses its centered
    open middle of length 4^(-k); the level-K set on [0,1] consists of 2^K
    closed intervals of total measure 1/2 + 2^(-(K+1)).  Levels above
    MAX_CANTOR_LEVEL are refused before any interval is built.
    """
    if not 0 <= K <= MAX_CANTOR_LEVEL:
        raise ConfigError(f"level must lie in [0, {MAX_CANTOR_LEVEL}]")
    c0, c1 = _pair(carrier, "carrier")
    if c0 < 0 or c1 < c0:
        raise ConfigError("carrier must be a valid interval in [0, inf)")
    pieces = [(0.0, 1.0)]
    for k in range(1, K + 1):
        gap = 4.0 ** (-k)
        nxt = []
        for a, b in pieces:
            mid = 0.5 * (a + b)
            nxt.append((a, mid - gap / 2))
            nxt.append((mid + gap / 2, b))
        pieces = nxt
    w = c1 - c0
    return IntervalUnion(tuple((c0 + w * a, c0 + w * b) for a, b in pieces))


def discretize(A: IntervalUnion, mesh: float) -> Grid:
    """Uniform subdivision of each interval at spacing <= mesh; degenerate
    singletons contribute their single point.  A mesh that would give more
    than MAX_GRID_POINTS cells, each interval counting at least one, is
    refused before any point is built."""
    if not mesh > 0:  # NaN too
        raise ConfigError("mesh must be positive")
    cells = [(b - a) / mesh for a, b in A.intervals]
    if not sum(max(1.0, n) for n in cells) <= MAX_GRID_POINTS:  # inf too
        raise ConfigError(
            f"mesh {mesh!r} gives more than {MAX_GRID_POINTS} grid points")
    pts: list[float] = []
    for (a, b), n in zip(A.intervals, cells):
        if a == b:
            pts.append(a)
            continue
        nseg = max(1, math.ceil(n - 1e-12))
        pts.extend((a + (b - a) * np.arange(nseg) / nseg).tolist())
        pts.append(b)
    return Grid(tuple(pts), A, mesh)


def union_to_json(A: IntervalUnion) -> dict:
    return {"intervals": [[a, b] for a, b in A.intervals]}


def union_from_json(obj: dict) -> IntervalUnion:
    """Parse {"intervals": [[a,b],...]} or
    {"fat_cantor": {"level": K, "carrier": [a,b]}}, a subset of [0, 1].
    A level whose 2^K intervals exceed MAX_GRID_POINTS is refused before
    any interval is built, as discretize refuses every mesh for it."""
    if not isinstance(obj, dict):
        raise ConfigError("set descriptor must be an object")
    if set(obj) == {"intervals"}:
        A = normalize(obj["intervals"])
        top = A.intervals[-1][1] if A.intervals else 0.0
    elif set(obj) == {"fat_cantor"}:
        spec = obj["fat_cantor"]
        if not isinstance(spec, dict) or "level" not in spec:
            raise ConfigError("fat_cantor needs an object with a level")
        unknown = set(spec) - {"level", "carrier"}
        if unknown:
            raise ConfigError(f"unknown fat_cantor fields: {sorted(unknown)}")
        level = spec["level"]
        if isinstance(level, bool) or not isinstance(level, int):
            raise ConfigError(f"fat_cantor level must be an integer, not {level!r}")
        if level > math.log2(MAX_GRID_POINTS):
            raise ConfigError(f"fat_cantor level {level} has 2^{level} "
                              f"intervals, more than {MAX_GRID_POINTS}")
        carrier = spec.get("carrier", (0.0, 1.0))
        A = fat_cantor(level, carrier)
        top = _pair(carrier, "carrier")[1]
    else:
        raise ConfigError(f"unrecognized set descriptor: {sorted(obj)}")
    if top > 1.0:
        raise ConfigError(f"set must lie in [0, 1], not reach {top!r}")
    return A
