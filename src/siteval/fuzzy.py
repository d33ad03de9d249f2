"""Two-level fuzzy comprehensive evaluation and the max-membership verdict.

Level one composes each criterion's indicator weights with the membership
matrix rows; level two composes the criterion weights with the level-one
vectors. The default operator is the weighted average, which uses every
membership degree; the max-min composition (each grade is the largest of the
smaller of weight and membership) is available as an alternative and is
selected with the operator token "min-max". Result vectors are reported raw,
without re-normalization, so an input whose membership rows do not sum to 1
stays visible in the output.

Both levels run on a batch of weight vectors at once (`first_level`,
`second_level`, over one composition kernel), and the verdict is read off a
batch of result vectors at once (`verdicts`), so the alpha sweep evaluates its
whole grid in one pass; a single evaluation is a batch of one. The batch
(alpha) axis is last, so each elementwise step runs over the whole contiguous
grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import SUM_TOL, GradeScale, ValidationError, float_sum, parse_float, require_str_ids

WEIGHTED_AVERAGE = "weighted-average"
MIN_MAX = "min-max"
OPERATORS = (WEIGHTED_AVERAGE, MIN_MAX)

TIE_TOL = 1e-12

# A composed membership may stray past [0, 1] by rounding, but no further.
MEMBERSHIP_LO = -1e-12
MEMBERSHIP_HI = 1.0 + SUM_TOL


def _out_of_range(grade: str, value: float) -> ValidationError:
    return ValidationError(f"membership for grade {grade!r} outside [0, 1]: {value}")


@dataclass(frozen=True)
class FuzzyVector:
    """Membership degree per grade, in grade order, read-only."""

    memberships: Mapping[str, float]

    def __post_init__(self) -> None:
        require_str_ids(self.memberships, "grade")
        cleaned = {
            g: v if type(v) is float else parse_float(v, "membership for grade {!r}", g)
            for g, v in self.memberships.items()
        }
        if not cleaned:
            raise ValidationError("empty fuzzy vector")
        for g, v in cleaned.items():
            if not MEMBERSHIP_LO <= v <= MEMBERSHIP_HI:  # also false for NaN
                raise _out_of_range(g, v)
        object.__setattr__(self, "memberships", MappingProxyType(cleaned))

    @property
    def grades(self) -> tuple[str, ...]:
        return tuple(self.memberships)

    def __getitem__(self, grade: str) -> float:
        return self.memberships[grade]

    def total(self) -> float:
        return float_sum(self.memberships.values())

    def as_dict(self) -> dict[str, float]:
        return self.memberships.copy()  # a plain dict; `dict()` of a proxy reads key by key


@dataclass(frozen=True)
class Verdict:
    grade: str
    membership: float
    tied: bool


def _compose(
    weights: np.ndarray, rows: np.ndarray, operator: str, sizes: Sequence[int]
) -> np.ndarray:
    """Compose weights (I, A) with rows (I, G, A or 1), term by term, into vectors (k, G, A).

    Term j takes the next sizes[j] weights and rows and updates the first sizes[j]
    vectors, so sizes never grows and k = sizes[0]. The last axis is the batch:
    column k composes weights[:, k] with rows[:, :, k], or with shared rows whose
    batch axis is 1. Each vector's terms run in index order, so every entry is the
    scalar left-to-right sum (or max of mins), to the bit.

    Max-min relies on numpy's tie rule: `np.minimum(a, b)` and `np.maximum(a, b)`
    return `b` when the operands compare equal. So `np.minimum(r, w)` keeps `w` on a
    tie, as `min(w, r)` does, and `np.maximum(low, acc)` keeps the earlier term, as
    `max()` does; signed zeros come out as the scalar code gives them. Two tests in
    tests/test_fuzzy.py pin this rule against a scalar reference:
    `test_batch_rows_equal_scalar_reference` and
    `test_signed_zero_ties_match_scalar_reference`.
    """
    if not sizes:
        raise ValidationError("nothing to compose: no weights")
    if operator not in OPERATORS:
        raise ValidationError(f"unknown fuzzy operator {operator!r}")
    average = operator == WEIGHTED_AVERAGE
    pair, merge = (np.multiply, np.add) if average else (np.minimum, np.maximum)
    w = weights[:, None, :]  # (I, 1, A): a weight meets every grade of its row
    k = stop = sizes[0]
    # One buffer holds every term's products or minima. It is allocated before the
    # result, so when it is freed on return it lies below an array still in use, not
    # at the heap top, which glibc would trim and fault back in on the next call.
    low = pair(rows[:k], w[:k])
    acc = low + 0.0 if average else low.copy()  # as float_sum starts: 0.0 + -0.0 is 0.0
    for k in sizes[1:]:
        start, stop = stop, stop + k
        term, part = low[:k], acc[:k]
        pair(rows[start:stop], w[start:stop], out=term)
        merge(term, part, out=part)
    return acc


def first_level(
    weights: np.ndarray, rows: np.ndarray, operator: str, sizes: Sequence[int]
) -> np.ndarray:
    """First-level vectors (sizes[0], G, A) of the criteria in size order.

    Weights (I, A) and membership rows (I, G, A or 1) are in `pipeline`'s slot
    layout: term j holds the sizes[j] rows of slot j (see `_compose`).
    """
    return _compose(weights, rows, operator, sizes)


def second_level(weights: np.ndarray, vectors: np.ndarray, operator: str) -> np.ndarray:
    """Second-level vectors (G, A) from criterion weights (C, A) and first-level
    vectors (C, G, A or 1), one term per criterion."""
    return _compose(weights, vectors, operator, (1,) * len(weights))[0]


def check_vectors(vectors: np.ndarray, grades: Sequence[str]) -> None:
    """Apply FuzzyVector's range check to every row of an (A, G) array at once.

    Raises the error FuzzyVector would raise for the first offending row, and
    within it the first offending grade.
    """
    # A min or max with a NaN is NaN, which fails both comparisons, so two
    # reductions catch every bad entry; only then is the first one sought.
    if vectors.size and not (vectors.min() >= MEMBERSHIP_LO and vectors.max() <= MEMBERSHIP_HI):
        ok = (vectors >= MEMBERSHIP_LO) & (vectors <= MEMBERSHIP_HI)
        row, col = np.argwhere(~ok)[0]
        raise _out_of_range(grades[col], float(vectors[row, col]))


def verdicts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-membership verdict of every column of a (G, A) array, rows in scale order.

    Returns, per column, the winner's row index, its membership and whether it
    is tied. Grades within TIE_TOL of the column's peak count as contenders, and
    the winner is the first of them, the best grade, flagged tied=True rather
    than chosen silently. Each step is a pass over whole rows, which are
    contiguous in the sweep's (G, A) layout.
    """
    rows = np.asarray(rows, dtype=np.float64)
    contenders = rows >= np.maximum.reduce(rows, axis=0) - TIE_TOL
    tied = np.add.reduce(contenders, axis=0) > 1
    winner = np.full(rows.shape[1], len(rows) - 1)
    for g in range(len(rows) - 2, -1, -1):  # from the worst grade up, so the best one stays
        np.copyto(winner, g, where=contenders[g])
    membership = rows.take(winner * rows.shape[1] + np.arange(rows.shape[1]))
    return winner, membership, tied


def verdict(b: FuzzyVector, scale: GradeScale) -> Verdict:
    """Grade with the largest membership; ties go to the better grade (see `verdicts`).

    `b` may hold any subset of the scale, in any order: it is read in scale order.
    """
    grades = [g for g in scale.labels if g in b.memberships]
    if len(grades) < len(b.memberships):
        raise ValidationError(
            f"unknown grade {next(g for g in b.grades if g not in scale.labels)!r}"
        )
    winner, membership, tied = verdicts(np.array([b[g] for g in grades])[:, None])
    return Verdict(
        grade=grades[winner[0]], membership=float(membership[0]), tied=bool(tied[0])
    )
