"""Shared domain types: grade scale, indicator hierarchy, weight vectors, membership matrix.

A run's grade order has one home, the membership matrix's `scale`: every row
holds exactly its grades and is stored in its order. Ids and grade labels are
`str`: every type here takes them as given and rejects any other.

Everything here is immutable after construction and safe to share across threads;
each mapping held is a read-only `types.MappingProxyType`, so a write raises.
"""
from __future__ import annotations

import gc
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

# Weight vectors that must sum to 1 may miss it by this much; values combined
# with such weights may exceed 1 by the same slack.
SUM_TOL = 1e-6


class ValidationError(ValueError):
    """Input data violates a structural or numeric contract."""


class error_prefix:
    """Prefix every ValidationError raised in the block with `where: `.

    The new error's cause and context are the original one. A plain class: a
    `contextmanager` generator costs about three times as much to enter and leave.
    """

    __slots__ = ("where",)

    def __init__(self, where: str) -> None:
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, exc_type: object, exc: BaseException | None, tb: object) -> None:
        if isinstance(exc, ValidationError):
            raise ValidationError(f"{self.where}: {exc}") from exc


class gc_paused:
    """Switch the cyclic garbage collector off in the block, if it is on.

    The file readers build many small containers and no cycles, so a collection
    during a parse only re-walks live data. The caller's setting comes back when
    the block exits, by return or by raise; the switch is process-wide.
    """

    __slots__ = ("was_enabled",)

    def __enter__(self) -> None:
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type: object, exc: BaseException | None, tb: object) -> None:
        if self.was_enabled:
            gc.enable()


def parse_float(value: object, where: str, *args: object) -> float:
    """`value` as a float, or a ValidationError at `where.format(*args)`.

    A bool, Python's or numpy's, is not a number here, though Python counts
    it as an int. The location is formatted only on failure, so parsing stays
    cheap.
    """
    if type(value) is float:  # most values; `float` of one returns it unchanged
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            pass
        except OverflowError:
            raise ValidationError(f"{where.format(*args)}: number too large for a float") from None
    raise ValidationError(f"{where.format(*args)}: not a number: {value!r}")


def check_real(value: object, what: str) -> None:
    """Raise `{what} is not a number: ...` unless `value` is a real number.

    A bool, Python's or numpy's, is not one here; a numpy bool is no
    `numbers.Real`, and Python's is excluded by name.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} is not a number: {value!r}")


def float_sum(values: Iterable[float]) -> float:
    """`values` added left to right from 0.0, as `sum` adds floats before Python 3.12.

    From 3.12 the builtin `sum` compensates the rounding of a float sum, so its
    last bit depends on the Python version; this sum is the same on every one.
    """
    total = 0.0
    for value in values:  # a loop costs less than `functools.reduce` calling `operator.add`
        total += value
    return total


def check_same_ids(a: Iterable[str], b: Iterable[str], text: str, *args: object) -> None:
    """Raise `<text.format(*args)>: <sorted symmetric difference>` unless `a` and `b` match.

    The difference is sorted as text, so ids of mixed types are named, not compared.
    """
    a, b = set(a), set(b)
    if a != b:
        raise ValidationError(f"{text.format(*args)}: {sorted(a ^ b, key=str)}")


def require_str_ids(ids: Iterable[object], what: str) -> None:
    """Raise `{what} must be a str, got <id>` at the first of `ids` that is not a `str`.

    Ids are never converted to text here: only the config parser makes text of
    an id that a JSON list holds as a number.
    """
    for k in ids:
        if not isinstance(k, str):
            raise ValidationError(f"{what} must be a str, got {k!r}")


def first_repeat(items: Iterable[Hashable]) -> Hashable:
    """The first of `items` equal to an earlier one; `items` must hold one."""
    seen: set[Hashable] = set()
    return next(x for x in items if x in seen or seen.add(x))  # add returns None


@dataclass(frozen=True)
class GradeScale:
    """Ordered evaluation grades, best grade first."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        require_str_ids(self.labels, "grade label")
        if len(self.labels) < 2:
            raise ValidationError("grade scale needs at least 2 grades")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"duplicate grade label {first_repeat(self.labels)!r}")


@dataclass(frozen=True)
class Indicator:
    id: str
    name: str
    kind: str = "qualitative"

    def __post_init__(self) -> None:
        if self.kind not in ("qualitative", "quantitative"):
            raise ValidationError(
                f"indicator {self.id!r}: kind must be 'qualitative' or 'quantitative'"
            )


@dataclass(frozen=True)
class Criterion:
    """A criterion and its indicators, in order; `children` holds their ids."""

    id: str
    name: str
    indicators: tuple[Indicator, ...]
    children: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "indicators", tuple(self.indicators))
        object.__setattr__(self, "children", tuple(i.id for i in self.indicators))


@dataclass(frozen=True)
class IndicatorHierarchy:
    """Goal / criterion / indicator tree. Criteria partition the indicator set."""

    goal_name: str
    criteria: tuple[Criterion, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "criteria", tuple(self.criteria))

    def criterion_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.criteria)

    def indicator_ids(self) -> tuple[str, ...]:
        """Indicator ids in criterion traversal order."""
        return tuple(i for c in self.criteria for i in c.children)


def validate_hierarchy(h: IndicatorHierarchy) -> list[str]:
    """Check hierarchy invariants. Returns a violation list, empty when the tree is ok.

    Violations are data, not exceptions, so a caller can report them all at once.
    """
    violations: list[str] = []
    if not h.criteria:
        violations.append("hierarchy: empty criteria list")

    seen_crit: set[str] = set()
    for c in h.criteria:
        if c.id in seen_crit:
            violations.append(f"criterion {c.id!r}: duplicate criterion id")
        seen_crit.add(c.id)
        if not c.children:
            violations.append(f"criterion {c.id!r}: empty children list")

    ids = h.indicator_ids()
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        violations.append(f"indicators: duplicate ids {dupes}")

    return violations


@dataclass(frozen=True)
class WeightVector:
    """Finite non-negative weights keyed by id, read-only. Key order is preserved."""

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        weights = self.weights
        if type(weights) is dict:  # the stages' own dicts: str ids, float values
            for k, v in weights.items():
                if type(k) is not str or type(v) is not float or not 0.0 <= v < math.inf:
                    break
            else:
                object.__setattr__(self, "weights", MappingProxyType(dict(weights)))
                return
        require_str_ids(weights, "weight id")
        cleaned = {k: parse_float(v, "weight for {!r}", k) for k, v in weights.items()}
        for k, v in cleaned.items():
            if not 0.0 <= v < math.inf:  # also false for NaN
                kind = "negative" if v < 0 else "non-finite"
                raise ValidationError(f"{kind} weight for {k!r}: {v}")
        object.__setattr__(self, "weights", MappingProxyType(cleaned))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.weights)

    def __getitem__(self, key: str) -> float:
        return self.weights[key]

    __iter__ = None  # `in` and iteration raise TypeError; read `ids` or `weights`

    def total(self) -> float:
        return float_sum(self.weights.values())

    def values(self, order: Sequence[str] | None = None) -> list[float]:
        keys = self.ids if order is None else order
        return [self.weights[k] for k in keys]

    def as_dict(self) -> dict[str, float]:
        return self.weights.copy()  # a plain dict; `dict()` of a proxy reads key by key


@dataclass(frozen=True)
class MembershipMatrix:
    """Read-only indicator rows of membership degrees over one grade scale.

    Each row must hold exactly the scale's grades, given in any order, and is
    stored in the scale's order. Rows are expected to be (close to)
    row-stochastic: `row_sums` holds each row's exact sum (`math.fsum`), so a
    row's cells in any order give one sum, and no sum may exceed 1.
    """

    rows: Mapping[str, Mapping[str, float]]
    scale: GradeScale
    row_sums: Mapping[str, float] = field(init=False)

    def __post_init__(self) -> None:
        grades = self.scale.labels
        grade_set = set(grades)
        require_str_ids(self.rows, "membership row id")
        cleaned: dict[str, Mapping[str, float]] = {}
        sums: dict[str, float] = {}
        for ind, row in self.rows.items():
            if row.keys() != grade_set:  # one compare; the lists are built only to name the fault
                missing = [g for g in grades if g not in row]
                if missing:
                    raise ValidationError(f"membership row {ind!r}: missing grades {missing}")
                unknown = sorted(row.keys() - grade_set, key=str)
                raise ValidationError(f"membership row {ind!r}: unknown grades {unknown}")
            row_f = {
                g: v if type(v := row[g]) is float
                else parse_float(v, "membership row {!r}, grade {!r}", ind, g)
                for g in grades
            }
            for g, v in row_f.items():
                if not 0.0 <= v <= 1.0:
                    raise ValidationError(
                        f"membership row {ind!r}, grade {g!r}: entry {v} outside [0, 1]"
                    )
            total = math.fsum(row_f.values())
            if total > 1.0 + 1e-9:
                raise ValidationError(
                    f"membership row {ind!r}: sum {total} exceeds 1"
                )
            cleaned[ind], sums[ind] = MappingProxyType(row_f), total
        if not cleaned:
            raise ValidationError("membership matrix has no rows")
        object.__setattr__(self, "rows", MappingProxyType(cleaned))
        object.__setattr__(self, "row_sums", MappingProxyType(sums))

    @property
    def indicator_ids(self) -> tuple[str, ...]:
        return tuple(self.rows)

    def to_array(self, indicator_ids: Sequence[str]) -> np.ndarray:
        """Rows of `indicator_ids`, in that order, as an (I, G) float64 array in scale order."""
        rows = self.rows
        try:
            return np.array(
                [list(row.values()) for row in map(rows.__getitem__, indicator_ids)],
                dtype=np.float64,
            )
        except KeyError:
            missing = next(i for i in indicator_ids if i not in rows)
            raise ValidationError(f"missing membership row for indicator {missing!r}") from None
