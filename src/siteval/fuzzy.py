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
    """Membership degree per grade, in grade order."""

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
        object.__setattr__(self, "memberships", cleaned)

    @property
    def grades(self) -> tuple[str, ...]:
        return tuple(self.memberships)

    def __getitem__(self, grade: str) -> float:
        return self.memberships[grade]

    def total(self) -> float:
        return sum(self.memberships.values())

    def as_dict(self) -> dict[str, float]:
        return dict(self.memberships)


@dataclass(frozen=True)
class Verdict:
    grade: str
    membership: float
    tied: bool


def compose(weights: np.ndarray, rows: np.ndarray, operator: str) -> np.ndarray:
    """Compose weights (..., n, A) with rows (..., n, G, A or 1) into vectors (..., G, A).

    The last axis is the batch: column k composes weights[..., :, k] with
    rows[..., :, :, k], or with the shared rows when their batch axis is 1.
    Leading axes broadcast, so (C, n, A) weights with (C, n, G, 1) rows give
    A vectors per criterion. The reduction over n runs one term at a time, in
    index order, so every entry is the same float as the scalar left-to-right
    sum (or max of mins); only the other axes are vectorised.
    """
    if weights.shape[-2] == 0:
        raise ValidationError("nothing to compose: no weights")
    terms = range(weights.shape[-2])
    if operator == WEIGHTED_AVERAGE:
        acc = 0.0  # as sum() starts from 0, so 0.0 + -0.0 gives 0.0 here too
        for j in terms:
            acc += weights[..., j, None, :] * rows[..., j, :, :]  # in place from j = 1 on
        return acc
    if operator == MIN_MAX:
        acc = None
        for j in terms:
            w, r = weights[..., j, None, :], rows[..., j, :, :]
            low = np.where(r < w, r, w)  # min(w, r)
            if acc is None:
                acc = low
            else:  # max() keeps the first of equal values, as a scalar max does
                np.copyto(acc, low, where=low > acc)
        return acc
    raise ValidationError(f"unknown fuzzy operator {operator!r}")


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
    ok = (vectors >= MEMBERSHIP_LO) & (vectors <= MEMBERSHIP_HI)  # NaN fails both
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        raise _out_of_range(grades[col], float(vectors[row, col]))


def verdicts(
    vectors: np.ndarray, grades: Sequence[str], scale: GradeScale
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-membership verdict of every row of an (A, G) array, grades in `grades` order.

    Returns, per row, the winner's index in `scale.labels`, its membership and
    whether it is tied. Grades within TIE_TOL of the row's peak count as
    contenders, and the winner is the best-ranked of them in scale order,
    flagged tied=True rather than chosen silently.
    """
    ranks = [scale.rank(g) for g in grades]  # raises on unknown grade
    if not ranks:
        raise ValidationError("empty fuzzy vector")
    # Plain-Python sorts: G is small, and numpy's per-call overhead is not.
    order = sorted(range(len(ranks)), key=ranks.__getitem__)  # columns in scale order
    ranked = np.asarray(vectors, dtype=np.float64)[:, order]
    contenders = ranked >= ranked.max(axis=1, keepdims=True) - TIE_TOL
    first = contenders.argmax(axis=1)  # the first contender in scale order
    winner = np.array(sorted(ranks))[first]
    membership = ranked[np.arange(len(ranked)), first]
    return winner, membership, contenders.sum(axis=1) > 1


def verdict(b: FuzzyVector, scale: GradeScale) -> Verdict:
    """Grade with the largest membership; ties go to the better grade (see `verdicts`)."""
    winner, membership, tied = verdicts(
        np.array([list(b.memberships.values())]), b.grades, scale
    )
    return Verdict(
        grade=scale.labels[winner[0]], membership=float(membership[0]), tied=bool(tied[0])
    )
