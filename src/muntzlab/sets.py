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
    closed intervals of total measure 1/2 + 2^(-(K+1)).  On a carrier too
    narrow for floating point to resolve a gap, the pieces on either side
    of it touch once mapped and are merged into one interval.  A level
    that is not an integer in [0, MAX_CANTOR_LEVEL] is refused before any
    interval is built.
    """
    if isinstance(K, bool) or not isinstance(K, int) or not 0 <= K <= MAX_CANTOR_LEVEL:
        raise ConfigError(f"fat_cantor level must be an integer in "
                          f"[0, {MAX_CANTOR_LEVEL}], not {K!r}")
    c0, c1 = _pair(carrier, "carrier")
    if c0 < 0 or c1 < c0:
        raise ConfigError("carrier must be a valid interval in [0, inf)")
    lo, hi = np.zeros(1), np.ones(1)
    for k in range(1, K + 1):
        half_gap = 4.0 ** (-k) / 2
        mid = 0.5 * (lo + hi)  # each [lo, hi] splits into its two ends
        lo = np.stack([lo, mid + half_gap], axis=1).ravel()
        hi = np.stack([mid - half_gap, hi], axis=1).ravel()
    w = c1 - c0
    lo, hi = c0 + w * lo, c0 + w * hi
    apart = lo[1:] > hi[:-1]
    lo, hi = lo[np.r_[True, apart]], hi[np.r_[apart, True]]
    return IntervalUnion(tuple(zip(lo.tolist(), hi.tolist())))


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


def _json_interval_count(obj) -> int:
    """The intervals that a set descriptor asks for, read off the JSON:
    the pairs of an interval list, 2^K for a level-K fat Cantor set.  A
    descriptor that is not well formed counts 0; union_from_json refuses
    it."""
    if not isinstance(obj, dict):
        return 0
    if isinstance(obj.get("intervals"), list):
        return len(obj["intervals"])
    spec = obj.get("fat_cantor")
    level = spec.get("level") if isinstance(spec, dict) else None
    return 2 ** level if isinstance(level, int) and 0 <= level <= MAX_CANTOR_LEVEL else 0


def check_interval_total(objs: list, what: str) -> None:
    """Refuse set descriptors that together hold more than MAX_GRID_POINTS
    intervals, counted on the JSON, so before any set is built."""
    total = sum(_json_interval_count(obj) for obj in objs)
    if total > MAX_GRID_POINTS:
        raise ConfigError(f"{what} holds {total} intervals in all, more than "
                          f"{MAX_GRID_POINTS}")


def union_from_json(obj: dict) -> IntervalUnion:
    """Parse {"intervals": [[a,b],...]} or
    {"fat_cantor": {"level": K, "carrier": [a,b]}}, a subset of [0, 1].
    A descriptor of more than MAX_GRID_POINTS intervals is refused by
    check_interval_total before any interval is built, as discretize
    refuses every mesh for it."""
    if not isinstance(obj, dict):
        raise ConfigError("set descriptor must be an object")
    check_interval_total([obj], "set")
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
        carrier = spec.get("carrier", (0.0, 1.0))
        A = fat_cantor(spec["level"], carrier)
        top = _pair(carrier, "carrier")[1]
    else:
        raise ConfigError(f"unrecognized set descriptor: {sorted(obj)}")
    if top > 1.0:
        raise ConfigError(f"set must lie in [0, 1], not reach {top!r}")
    return A
