"""Two-level fuzzy comprehensive evaluation and the max-membership verdict.

Level one composes each criterion's indicator weights with the membership
matrix rows; level two composes the criterion weights with the level-one
vectors. The default operator is the weighted average, which uses every
membership degree; the max-min composition (each grade is the largest of the
smaller of weight and membership) is available as an alternative and is
selected with the operator token "min-max". Result vectors are reported raw,
without re-normalization, so an input whose membership rows do not sum to 1
stays visible in the output.

Both operators run on a batch of weight vectors at once (`compose`), and the
verdict is read off a batch of result vectors at once (`verdicts`), so the
alpha sweep evaluates its whole grid in one pass; a single evaluation is a
batch of one. `compose` keeps the batch (alpha) axis last, so each
elementwise step runs over the whole contiguous grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .core import (
    SUM_TOL,
    GradeScale,
    IndicatorHierarchy,
    MembershipMatrix,
    ValidationError,
    WeightVector,
    check_same_ids,
    check_str_ids,
    float_sum,
    parse_float,
)

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
        cleaned = {
            str(g): v if type(v) is float
            else parse_float(v, "membership for grade {!r}", str(g))
            for g, v in self.memberships.items()
        }
        if not cleaned:
            raise ValidationError("empty fuzzy vector")
        if len(cleaned) != len(self.memberships):
            check_str_ids(self.memberships, "grade")
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


def compose(
    weights: np.ndarray, rows: np.ndarray, operator: str, sizes: Sequence[int] | None = None
) -> np.ndarray:
    """Compose weights (I, A) with rows (I, G, A or 1), term by term, into vectors (k, G, A).

    Term j takes the next sizes[j] weights and rows and updates the first sizes[j]
    vectors, so sizes never grows and k = sizes[0] (`pipeline`'s slot layout). With
    no `sizes` each term holds one row and the result is one (G, A) block. The last
    axis is the batch: column k composes weights[:, k] with rows[:, :, k], or with
    shared rows whose batch axis is 1. Each vector's terms run in index order, so
    every entry is the scalar left-to-right sum (or max of mins), to the bit.

    Max-min relies on numpy's tie rule: `np.minimum(a, b)` and `np.maximum(a, b)`
    return `b` when the operands compare equal. So `np.minimum(r, w)` keeps `w` on a
    tie, as `min(w, r)` does, and `np.maximum(low, acc)` keeps the earlier term, as
    `max()` does; signed zeros come out as the scalar code gives them. Two tests in
    tests/test_fuzzy.py pin this rule against a scalar reference:
    `test_batch_rows_equal_scalar_reference` and
    `test_signed_zero_ties_match_scalar_reference`.
    """
    one_row = sizes is None
    sizes = (1,) * len(weights) if one_row else sizes
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
    return acc[0] if one_row else acc


def first_level(
    h: IndicatorHierarchy,
    within_criterion_weights: Mapping[str, WeightVector],
    r: MembershipMatrix,
    operator: str = WEIGHTED_AVERAGE,
) -> dict[str, FuzzyVector]:
    """Per-criterion fuzzy vectors from indicator weights and membership rows."""
    missing = [c.id for c in h.criteria if c.id not in within_criterion_weights]
    if missing:
        raise ValidationError(f"missing within-criterion weights for: {missing}")

    grades = r.grades
    out: dict[str, FuzzyVector] = {}
    for crit in h.criteria:
        weights = within_criterion_weights[crit.id]
        check_same_ids(
            weights.ids, crit.children,
            "weights for criterion {!r} do not match its indicators", crit.id,
        )
        w = np.array([weights.values(crit.children)])
        values = compose(w.T, r.to_array(crit.children)[..., None], operator)[:, 0]
        out[crit.id] = FuzzyVector(dict(zip(grades, values.tolist())))
    return out


def second_level(
    criterion_weights: WeightVector,
    first: Mapping[str, FuzzyVector],
    operator: str = WEIGHTED_AVERAGE,
) -> FuzzyVector:
    """Goal-level fuzzy vector from criterion weights and level-one vectors."""
    check_same_ids(
        criterion_weights.ids, first, "criterion weights do not match first-level vectors"
    )

    crit_ids = list(criterion_weights.ids)
    grades = first[crit_ids[0]].grades
    for cid in crit_ids:
        if first[cid].grades != grades:
            raise ValidationError(
                f"first-level vector for {cid!r} uses a different grade order"
            )
    w = np.array([criterion_weights.values(crit_ids)])
    rows = np.array([[first[cid][g] for g in grades] for cid in crit_ids])
    values = compose(w.T, rows[..., None], operator)[:, 0]
    return FuzzyVector(dict(zip(grades, values.tolist())))


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
    grades = sorted(b.grades, key=scale.rank)
    winner, membership, tied = verdicts(np.array([b[g] for g in grades])[:, None])
    return Verdict(
        grade=grades[winner[0]], membership=float(membership[0]), tied=bool(tied[0])
    )
