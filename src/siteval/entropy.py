"""Objective indicator weights from an observation matrix via information entropy.

Indicators whose observed values are more dispersed carry more information
(lower entropy) and receive a larger weight.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError, WeightVector


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Non-negative finite observations: rows are alternatives, columns are indicators.

    `values` is stored as one read-only float64 array of shape
    (alternatives, indicators); any nested sequence of numbers is accepted,
    but not bools.
    """

    alternatives: tuple[str, ...]
    indicators: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        alts = tuple(self.alternatives)
        inds = tuple(self.indicators)
        object.__setattr__(self, "alternatives", alts)
        object.__setattr__(self, "indicators", inds)
        if len(alts) < 2:
            raise ValidationError("decision matrix needs at least 2 alternatives")
        if len(set(alts)) != len(alts) or len(set(inds)) != len(inds):
            raise ValidationError("decision matrix ids must be unique")
        try:
            vals = np.array(self.values, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            vals = None
        if vals is None or vals.shape != (len(alts), len(inds)):
            raise _conversion_error(alts, inds, self.values)
        # NaN fails `>= 0`, so this one pass catches negatives, NaN and +-inf.
        bad = np.flatnonzero(~(vals >= 0) | np.isinf(vals))
        if bad.size:
            i, j = divmod(int(bad[0]), len(inds))
            v = vals[i, j]
            kind = "negative value" if np.isfinite(v) else "non-finite value"
            if self.values[i][j] is None:  # float64 reads None as NaN
                kind, v = "not a number:", None
            raise ValidationError(f"decision matrix ({alts[i]}, {inds[j]}): {kind} {v}")
        # float64 reads True and False as 1.0 and 0.0, so only those cells can be bools.
        for k in np.flatnonzero((vals == 0.0) | (vals == 1.0)).tolist():
            i, j = divmod(k, len(inds))
            cell = self.values[i][j]
            if isinstance(cell, (bool, np.bool_)):
                raise ValidationError(
                    f"decision matrix ({alts[i]}, {inds[j]}): not a number: {cell!r}"
                )
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DecisionMatrix):
            return NotImplemented
        return (
            self.alternatives == other.alternatives
            and self.indicators == other.indicators
            and np.array_equal(self.values, other.values)
        )


def _conversion_error(
    alts: tuple[str, ...], inds: tuple[str, ...], values: object
) -> ValidationError:
    """Why `values` is not an alternatives x indicators array of numbers.

    Only runs on the error path, so it can afford a per-cell Python pass.
    """
    shape_error = ValidationError(
        f"decision matrix shape mismatch: expected {len(alts)}x{len(inds)}"
    )
    try:
        rows = [list(row) for row in values]  # type: ignore[union-attr]
    except TypeError:
        return shape_error
    if len(rows) != len(alts) or any(len(row) != len(inds) for row in rows):
        return shape_error
    for alt, row in zip(alts, rows):
        for ind, v in zip(inds, row):
            try:
                float(v)
            except (TypeError, ValueError):
                return ValidationError(f"decision matrix ({alt}, {ind}): not a number: {v!r}")
            except OverflowError:
                return ValidationError(
                    f"decision matrix ({alt}, {ind}): number too large for a float"
                )
    return shape_error


def column_shares(m: DecisionMatrix) -> np.ndarray:
    """Per-column shares p_ij = x_ij / column sum. Columns sum to 1."""
    x = m.values
    with np.errstate(over="ignore"):  # an overflowing sum is inf, reported below
        sums = x.sum(axis=0)
    for ind, s in zip(m.indicators, sums):
        if s <= 0:
            raise ValidationError(f"degenerate indicator column {ind!r}: sum is zero")
        if s == np.inf:
            raise ValidationError(f"indicator column {ind!r}: sum too large for a float")
    return x / sums


def information_entropy(shares: Sequence[float] | np.ndarray, n: int) -> float:
    """Normalized Shannon entropy of one column of shares, in [0, 1].

    Uses the continuity convention 0 * ln 0 = 0. `n` is the number of
    observations (rows), which fixes the 1 / ln(n) normalization.
    """
    p = np.asarray(shares, dtype=float)
    if np.any(p < 0):
        raise ValidationError("shares must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"shares must sum to 1, got {p.sum()}")
    if n < 2:
        raise ValidationError("entropy needs at least 2 observations")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum() / np.log(n))


def entropy_weights(m: DecisionMatrix) -> WeightVector:
    """Entropy weights over the matrix columns, summing to 1.

    Fails when every column is uniform: then every entropy is 1 and the
    data carries no information to weight by.
    """
    p = column_shares(m)
    n = len(m.alternatives)
    entropies = [information_entropy(p[:, j], n) for j in range(len(m.indicators))]
    # Clamp float noise: e may exceed 1 by ~1e-16 for exactly uniform columns.
    divergences = [max(0.0, 1.0 - e) for e in entropies]
    total = sum(divergences)
    if total <= 1e-12:
        raise ValidationError("no information content: all indicator columns are uniform")
    return WeightVector(
        {ind: d / total for ind, d in zip(m.indicators, divergences)}
    )
