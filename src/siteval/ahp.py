"""Subjective weights from pairwise-comparison judgment matrices.

Weights are the normalized principal eigenvector of a positive reciprocal
matrix, found by power iteration. Consistency is checked via the standard
CI / RI / CR chain; a matrix passes when CR < 0.10.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from typing import Mapping

import numpy as np

from .core import IndicatorHierarchy, ValidationError, WeightVector, check_same_ids

# Average random index by matrix order.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45}

SCALE_MIN = 1.0 / 9.0
SCALE_MAX = 9.0
RECIPROCITY_TOL = 1e-9
CR_LIMIT = 0.10

POWER_TOL = 1e-10
POWER_MAX_ITER = 1000

# The 17 Saaty-scale tokens, '1'..'9' and '1/2'..'1/9', each parsed once.
SAATY_TOKENS = {
    t: float(Fraction(t)) for t in [*map(str, range(1, 10)), *(f"1/{n}" for n in range(2, 10))]
}


def parse_ratio(value: object) -> float:
    """Parse a comparison entry: a number, or a string like '3', '0.5' or '1/3'.

    Fraction strings are converted exactly before float storage so that
    reciprocal pairs written as '3' and '1/3' survive the reciprocity check.
    A Saaty-scale token, stripped, is read from the `SAATY_TOKENS` table instead.
    """
    if isinstance(value, str) and (ratio := SAATY_TOKENS.get(value.strip())) is not None:
        return ratio
    if isinstance(value, bool) or not isinstance(value, (int, float, str, Integral)):
        raise ValidationError(f"invalid comparison entry {value!r}")
    try:
        return float(Fraction(value.strip()) if isinstance(value, str) else value)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"invalid comparison entry {value!r}") from None
    except OverflowError:
        raise ValidationError("comparison entry too large for a float") from None


@dataclass(frozen=True)
class JudgmentMatrix:
    """Reciprocal pairwise-comparison matrix for one hierarchy node.

    `entries` may be given as numbers or ratio strings like '3' or '1/3'; each
    cell is parsed once with `parse_ratio` and stored as a float. `raw` keeps
    each cell as supplied, `str(cell)`, so a parsed config can be re-emitted
    without rounding drift. `derive_weights` finds its principal eigenvector.
    """

    node: str
    labels: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]
    raw: tuple[tuple[str, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        """Checks the matrix in one row-major walk and raises the first problem.

        The order: the shape must be square; every cell must parse (the first
        that does not raises at once); the labels must be non-empty and
        distinct; every cell must be positive and on the 1/9..9 scale, and
        each row's diagonal 1 (checked after that row's cells); and, failing
        none of those, the first pair (i, j), i < j, in row-major order that
        breaks reciprocity is reported.
        """
        node, labels, rows = self.node, tuple(self.labels), self.entries
        n = len(labels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValidationError(f"matrix {node!r}: not square of order {n}")
        entries: list[tuple[float, ...]] = []
        bad = ""
        broken: tuple[int, int] | None = None
        for i, cells in enumerate(rows):
            row: list[float] = []
            for j, v in enumerate(cells):
                try:
                    a = parse_ratio(v)
                except ValidationError as exc:
                    raise ValidationError(
                        f"matrix {node!r}: entry ({labels[i]}, {labels[j]}): {exc}"
                    ) from None
                if not bad and not (a > 0 and SCALE_MIN - 1e-12 <= a <= SCALE_MAX + 1e-12):
                    where = f"matrix {node!r}: entry ({labels[i]}, {labels[j]})"
                    bad = (f"{where} must be positive, got {a}" if a <= 0
                           else f"{where} = {a:g} outside the 1/9..9 scale")
                # Cell (i, j) below the diagonal closes pair (j, i); keep the smallest.
                if j < i and abs(entries[j][i] * a - 1.0) > RECIPROCITY_TOL:
                    broken = min(broken or (j, i), (j, i))
                row.append(a)
            if not bad and abs(row[i] - 1.0) > RECIPROCITY_TOL:
                bad = f"matrix {node!r}: diagonal ({labels[i]}, {labels[i]}) must be 1"
            entries.append(tuple(row))
        if not labels:
            raise ValidationError(f"matrix {node!r}: empty")
        if len(set(labels)) != n:
            raise ValidationError(f"matrix {node!r}: duplicate labels")
        if bad:
            raise ValidationError(bad)
        if broken:
            raise ValidationError(
                f"matrix {node!r}: reciprocity violated at "
                f"({labels[broken[0]]}, {labels[broken[1]]})"
            )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "raw", tuple(tuple(map(str, cells)) for cells in rows))

    @property
    def order(self) -> int:
        return len(self.labels)

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

@dataclass(frozen=True)
class ConsistencyReport:
    lambda_max: float
    ci: float
    ri: float
    cr: float
    consistent: bool


def ri_lookup(n: int) -> float:
    """Random index for a matrix of order n (1..9)."""
    if n < 1:
        raise ValidationError(f"RI undefined for order {n}")
    if n > 9:
        raise ValidationError("RI undefined for order > 9")
    return RANDOM_INDEX[n]


def _principal_eigenvector(a: np.ndarray) -> np.ndarray:
    """Power iteration from the uniform vector, sum-normalized each step.

    Stops at the first step that moves no entry by POWER_TOL or more; a NaN
    entry never passes. Raises ValidationError when POWER_MAX_ITER steps do
    not converge.
    """
    prev = [1.0 / a.shape[0]] * a.shape[0]
    w = np.array(prev)
    # `a.dot`, bare ufuncs and a test on Python floats: numpy's method wrappers,
    # matmul's gufunc dispatch and a reduction over a temporary cost more than the
    # arithmetic at these orders; `dot` reaches the same BLAS gemv as `matmul`.
    # The test is all(POWER_TOL > abs(x - y)) over the entries, run in C by map.
    dot, total, divide = a.dot, np.add.reduce, np.divide
    close, sub = POWER_TOL.__gt__, operator.sub
    for _ in range(POWER_MAX_ITER):
        w = dot(w)
        divide(w, total(w), w)
        cur = w.tolist()
        if all(map(close, map(abs, map(sub, cur, prev)))):
            return w
        prev = cur
    raise ValidationError(
        f"power iteration did not converge within {POWER_MAX_ITER} iterations"
    )


def derive_weights(m: JudgmentMatrix) -> tuple[WeightVector, ConsistencyReport]:
    """Principal-eigenvector weights plus the consistency report for a matrix.

    Each call runs the power iteration (a config keeps its AHP section, see
    `pipeline`). lambda_max is the Rayleigh-style mean of (A w)_i / w_i at the
    converged eigenvector. CR is 0 for orders 1 and 2, which are always
    consistent. An order above 9 (no random index) raises before the iteration.
    """
    a = m.to_array()
    n = m.order
    try:
        ri = ri_lookup(n)
        w = _principal_eigenvector(a)
    except ValidationError as exc:
        raise ValidationError(f"matrix {m.node!r}: {exc}") from exc
    lambda_max = float(np.add.reduce(a.dot(w) / w)) / n  # the float np.mean gives

    ci = (lambda_max - n) / (n - 1) if n >= 2 else 0.0
    cr = 0.0 if n <= 2 else ci / ri
    report = ConsistencyReport(
        lambda_max=lambda_max, ci=ci, ri=ri, cr=cr, consistent=cr < CR_LIMIT
    )
    return WeightVector(dict(zip(m.labels, w.tolist()))), report


def synthesize_global(
    h: IndicatorHierarchy,
    criterion_weights: WeightVector,
    per_criterion: Mapping[str, WeightVector],
) -> WeightVector:
    """Global indicator weights: criterion weight times within-criterion weight.

    Inputs must cover the hierarchy exactly; with normalized inputs the output
    sums to 1 and the globals under one criterion sum to that criterion's weight.
    """
    crit_ids = h.criterion_ids()
    check_same_ids(criterion_weights.ids, crit_ids, "criterion weights do not match hierarchy")
    check_same_ids(per_criterion, crit_ids, "per-criterion weights do not match hierarchy")

    out: dict[str, float] = {}
    for crit in h.criteria:
        relative = per_criterion[crit.id]
        check_same_ids(
            relative.ids, crit.children,
            "weights for criterion {!r} do not match its indicators", crit.id,
        )
        for ind in crit.children:
            out[ind] = criterion_weights[crit.id] * relative[ind]
    return WeightVector(out)
