"""Subjective weights from pairwise-comparison judgment matrices.

Weights are the normalized principal eigenvector of a positive reciprocal
matrix, found by power iteration. Consistency is checked via the standard
CI / RI / CR chain; a matrix passes when CR < 0.10.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import IndicatorHierarchy, ValidationError, WeightVector

# Average random index by matrix order.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45}

SCALE_MIN = 1.0 / 9.0
SCALE_MAX = 9.0
RECIPROCITY_TOL = 1e-9
CR_LIMIT = 0.10

POWER_TOL = 1e-10
POWER_MAX_ITER = 1000


def parse_ratio(value: object) -> float:
    """Parse a comparison entry: a number, or a string like '3', '0.5' or '1/3'.

    Fraction strings are converted exactly before float storage so that
    reciprocal pairs written as '3' and '1/3' survive the reciprocity check.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
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

    `raw` keeps the entries as supplied (fraction strings intact) so a parsed
    config can be re-emitted without rounding drift.
    """

    node: str
    labels: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]
    raw: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        entries = tuple(tuple(float(v) for v in row) for row in self.entries)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)
        if not self.raw:
            object.__setattr__(
                self, "raw", tuple(tuple(repr(v) for v in row) for row in entries)
            )
        else:
            object.__setattr__(self, "raw", tuple(tuple(row) for row in self.raw))

        n = len(labels)
        if n == 0:
            raise ValidationError(f"matrix {self.node!r}: empty")
        if len(set(labels)) != n:
            raise ValidationError(f"matrix {self.node!r}: duplicate labels")
        if len(entries) != n or any(len(row) != n for row in entries):
            raise ValidationError(f"matrix {self.node!r}: not square of order {n}")
        for i in range(n):
            for j in range(n):
                a = entries[i][j]
                if a <= 0:
                    raise ValidationError(
                        f"matrix {self.node!r}: entry ({labels[i]}, {labels[j]}) "
                        f"must be positive, got {a}"
                    )
                if not SCALE_MIN - 1e-12 <= a <= SCALE_MAX + 1e-12:
                    raise ValidationError(
                        f"matrix {self.node!r}: entry ({labels[i]}, {labels[j]}) = {a:g} "
                        f"outside the 1/9..9 scale"
                    )
            if abs(entries[i][i] - 1.0) > RECIPROCITY_TOL:
                raise ValidationError(
                    f"matrix {self.node!r}: diagonal ({labels[i]}, {labels[i]}) must be 1"
                )
        for i in range(n):
            for j in range(i + 1, n):
                if abs(entries[i][j] * entries[j][i] - 1.0) > RECIPROCITY_TOL:
                    raise ValidationError(
                        f"matrix {self.node!r}: reciprocity violated at "
                        f"({labels[i]}, {labels[j]})"
                    )

    @classmethod
    def from_rows(
        cls, node: str, labels: Sequence[str], rows: Sequence[Sequence[object]]
    ) -> "JudgmentMatrix":
        n = len(labels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValidationError(f"matrix {node!r}: not square of order {n}")

        def entry(i: int, j: int) -> float:
            try:
                return parse_ratio(rows[i][j])
            except ValidationError as exc:
                raise ValidationError(
                    f"matrix {node!r}: entry ({labels[i]}, {labels[j]}): {exc}"
                ) from None

        entries = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
        raw = tuple(tuple(str(v) for v in row) for row in rows)
        return cls(node=node, labels=tuple(labels), entries=entries, raw=raw)

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

    Raises ValidationError when POWER_MAX_ITER steps do not converge.
    """
    n = a.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(POWER_MAX_ITER):
        nxt = a @ w
        nxt /= nxt.sum()
        if abs(nxt - w).max() < POWER_TOL:  # methods skip numpy's Python-level wrappers
            return nxt
        w = nxt
    raise ValidationError(
        f"power iteration did not converge within {POWER_MAX_ITER} iterations"
    )


def derive_weights(m: JudgmentMatrix) -> tuple[WeightVector, ConsistencyReport]:
    """Principal-eigenvector weights plus the consistency report for a matrix.

    lambda_max is the Rayleigh-style mean of (A w)_i / w_i at the converged
    eigenvector. CR is defined as 0 for orders 1 and 2, which are always
    consistent.
    """
    a = m.to_array()
    n = m.order
    try:
        w = _principal_eigenvector(a)
    except ValidationError as exc:
        raise ValidationError(f"matrix {m.node!r}: {exc}") from exc
    lambda_max = float(np.mean((a @ w) / w))

    ri = ri_lookup(n)
    ci = (lambda_max - n) / (n - 1) if n >= 2 else 0.0
    cr = 0.0 if n <= 2 else ci / ri
    report = ConsistencyReport(
        lambda_max=lambda_max, ci=ci, ri=ri, cr=cr, consistent=cr < CR_LIMIT
    )
    weights = WeightVector({label: float(x) for label, x in zip(m.labels, w)})
    return weights, report


def synthesize_global(
    h: IndicatorHierarchy,
    criterion_weights: WeightVector,
    per_criterion: Mapping[str, WeightVector],
) -> WeightVector:
    """Global indicator weights: criterion weight times within-criterion weight.

    Inputs must cover the hierarchy exactly; with normalized inputs the output
    sums to 1 and the globals under one criterion sum to that criterion's weight.
    """
    crit_ids = set(h.criterion_ids())
    if set(criterion_weights.ids) != crit_ids:
        diff = sorted(set(criterion_weights.ids) ^ crit_ids)
        raise ValidationError(f"criterion weights do not match hierarchy: {diff}")
    if set(per_criterion) != crit_ids:
        diff = sorted(set(per_criterion) ^ crit_ids)
        raise ValidationError(f"per-criterion weights do not match hierarchy: {diff}")

    out: dict[str, float] = {}
    for crit in h.criteria:
        relative = per_criterion[crit.id]
        if set(relative.ids) != set(crit.children):
            diff = sorted(set(relative.ids) ^ set(crit.children))
            raise ValidationError(
                f"weights for criterion {crit.id!r} do not match its indicators: {diff}"
            )
        for ind in crit.children:
            out[ind] = criterion_weights[crit.id] * relative[ind]
    return WeightVector(out)
