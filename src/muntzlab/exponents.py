"""Exponent sequences 0 = l0 < l1 < l2 < ... and their JSON descriptors."""

from __future__ import annotations

from dataclasses import dataclass

from muntzlab.errors import ConfigError, finite_number
from muntzlab.muntzeval import check_exponents


@dataclass(frozen=True)
class ExponentSequence:
    """An exponent sequence: arithmetic(step), squares (i^2) or an
    explicit finite list.  Always starts at exponent 0.
    """

    kind: str  # "arithmetic" | "squares" | "explicit"
    step: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "arithmetic":
            if self.step is None or not self.step > 0:
                raise ConfigError("arithmetic sequence needs step > 0")
        elif self.kind == "squares":
            pass
        elif self.kind == "explicit":
            if not self.values:
                raise ConfigError("explicit sequence needs a non-empty list")
            vals = check_exponents(self.values)
            if vals[0] != 0.0:
                raise ConfigError("first exponent must be exactly 0")
            object.__setattr__(self, "values", vals)
        else:
            raise ConfigError(f"unknown sequence kind {self.kind!r}")

    def exponent(self, i: int) -> float:
        if i < 0:
            raise ConfigError("index must be nonnegative")
        if self.kind == "arithmetic":
            return self.step * i
        if self.kind == "squares":
            return float(i * i)
        if i >= len(self.values):
            raise ConfigError(
                f"index {i} out of range for explicit sequence of length "
                f"{len(self.values)}"
            )
        return self.values[i]


def arithmetic(step: float) -> ExponentSequence:
    return ExponentSequence("arithmetic",
                            step=finite_number(step, "arithmetic step"))


def squares() -> ExponentSequence:
    return ExponentSequence("squares")


def explicit(values) -> ExponentSequence:
    try:
        values = tuple(values)
    except TypeError:
        raise ConfigError(
            f"explicit exponents must be a list, not {values!r}") from None
    return ExponentSequence("explicit", values=values)


def truncate(seq: ExponentSequence, n: int) -> list[float]:
    """Finite slice [l_0, ..., l_n] of the sequence."""
    if n < 0:
        raise ConfigError("n must be nonnegative")
    return [seq.exponent(i) for i in range(n + 1)]


def sequence_from_json(obj: dict) -> ExponentSequence:
    """Parse {"kind": "squares" | {"arithmetic": a} | {"explicit": [..]},
    "label": "..."}; the label is accepted and names nothing here."""
    if not isinstance(obj, dict):
        raise ConfigError("sequence descriptor must be an object")
    unknown = set(obj) - {"kind", "label"}
    if unknown:
        raise ConfigError(f"unknown sequence fields: {sorted(unknown)}")
    kind = obj.get("kind")
    if kind == "squares":
        return squares()
    if isinstance(kind, dict) and set(kind) == {"arithmetic"}:
        return arithmetic(kind["arithmetic"])
    if isinstance(kind, dict) and set(kind) == {"explicit"}:
        return explicit(kind["explicit"])
    raise ConfigError(f"unrecognized sequence kind: {kind!r}")
