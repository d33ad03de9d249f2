"""Objective indicator weights from an observation matrix via information entropy.

Indicators whose observed values are more dispersed carry more information
(lower entropy) and receive a larger weight.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ValidationError, WeightVector, first_repeat, float_sum, require_str_ids


@dataclass(frozen=True, eq=False)
class DecisionMatrix:
    """Non-negative finite observations: rows are alternatives, columns are indicators.

    `values` is stored as one read-only float64 array of shape
    (alternatives, indicators); any nested sequence of numbers is accepted,
    but not bools. Ids must be `str`, unique and not empty.
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
        for what, ids in (("alternative", alts), ("indicator", inds)):
            require_str_ids(ids, f"decision matrix: {what} id")
            if len(set(ids)) != len(ids):
                raise ValidationError(
                    f"decision matrix: duplicate {what} id {first_repeat(ids)!r}"
                )
            stripped = tuple(map(str.strip, ids))  # as the CSV reader reads ids
            if "" in stripped:
                raise ValidationError(
                    f"decision matrix: empty {what} id at index {stripped.index('')}"
                )
        vals = _packed(self.values, len(alts), len(inds))
        if vals is None:
            try:
                vals = np.array(self.values, dtype=np.float64)
            except (TypeError, ValueError, OverflowError):
                vals = None
        if vals is None or vals.shape != (len(alts), len(inds)):
            raise _conversion_error(alts, inds, self.values)
        # NaN fails `>= 0` and a min or max with a NaN is NaN, so two reductions
        # catch negatives, NaN and +-inf; only then is the first bad cell sought.
        if vals.size and not (vals.min() >= 0 and vals.max() < np.inf):
            bad = np.flatnonzero(~(vals >= 0) | np.isinf(vals))
            i, j = divmod(int(bad[0]), len(inds))
            v = vals[i, j]
            kind = "negative value" if np.isfinite(v) else "non-finite value"
            if self.values[i][j] is None:  # float64 reads None as NaN
                kind, v = "not a number:", None
            raise ValidationError(f"decision matrix ({alts[i]}, {inds[j]}): {kind} {v}")
        # float64 reads True and False as 1.0 and 0.0, so only rows holding one of
        # those can hold a bool; each such row's cell types are read in one C pass.
        if not (isinstance(self.values, np.ndarray) and self.values.dtype.kind == "f"):
            suspects = ((vals == 0.0) | (vals == 1.0)).any(axis=1)
            for i in np.flatnonzero(suspects).tolist():
                row = self.values[i]
                if any(issubclass(t, (bool, np.bool_)) for t in set(map(type, row))):
                    j, cell = next(
                        (j, c) for j, c in enumerate(row) if isinstance(c, (bool, np.bool_))
                    )
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


def _packed(values: object, rows: int, cols: int) -> np.ndarray | None:
    """`values` as a rows x cols float64 array, or None to leave it to `np.array`.

    `np.array` walks a nested list twice, once for the shape and once to copy;
    here each row is read once, by one `struct` call that writes its cells in
    place. Only list or tuple rows of exactly `cols` number cells are taken.
    Anything else (an ndarray, another row type, a str or None cell, a ragged
    row, an int too large for a float, no columns) gives None, so `np.array`
    gives the value or error it always gave.
    """
    if type(values) not in (list, tuple) or len(values) != rows or cols == 0:
        return None
    out = np.empty((rows, cols))
    buf = out.data.cast("B")  # refuses a zero in the shape, hence cols == 0 above
    row_format = struct.Struct(f"{cols}d")  # native order, as `np.empty` lays out float64
    pack_into, step = row_format.pack_into, row_format.size
    try:
        for offset, row in zip(range(0, rows * step, step), values):
            if type(row) is not list and type(row) is not tuple:
                return None
            pack_into(buf, offset, *row)
    except (struct.error, TypeError, ValueError, OverflowError):
        return None
    return out


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


# `entropy_weights` takes columns in blocks of about this many cells, so a
# block's shares stay in cache from the division through the entropy sums.
_BLOCK_CELLS = 1 << 14


def _column_sums(m: DecisionMatrix) -> np.ndarray:
    """The column sums of `m`; raises on the first one that is zero or overflows."""
    with np.errstate(over="ignore"):  # an overflowing sum is inf, reported below
        sums = m.values.sum(axis=0)
    for ind, s in zip(m.indicators, sums):
        if s <= 0:
            raise ValidationError(f"degenerate indicator column {ind!r}: sum is zero")
        if s == np.inf:
            raise ValidationError(f"indicator column {ind!r}: sum too large for a float")
    return sums


def information_entropy(shares: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Normalized Shannon entropy of shares along the last axis, in [0, 1].

    Uses the continuity convention 0 * ln 0 = 0. The last axis's length n, the
    number of observations, fixes the 1 / ln(n) normalization. A 1-D `shares` is
    one distribution and gives a float; an (..., n) array gives an array of
    shape (...), one entropy per row along the last axis, each equal to the
    float its row alone gives. Rows are checked in order: the first row with
    a negative share or a sum off 1 raises.
    """
    p = np.asarray(shares, dtype=float)
    lead = p.shape[:-1]
    rows = p.reshape(math.prod(lead), p.shape[-1]) if p.ndim > 1 else p.reshape(1, -1)
    negative = (rows < 0).any(axis=1)
    totals = rows.sum(axis=1)
    bad = np.flatnonzero(negative | ~(np.abs(totals - 1.0) <= 1e-9))  # a NaN total is bad too
    if bad.size:
        if negative[bad[0]]:
            raise ValidationError("shares must be non-negative")
        raise ValidationError(f"shares must sum to 1, got {totals[bad[0]]}")
    if rows.shape[1] < 2:
        raise ValidationError("entropy needs at least 2 observations")
    positive = rows > 0
    terms = np.log(rows, out=np.zeros_like(rows), where=positive)
    terms *= rows
    sums = terms.sum(axis=1)
    # A zero term changes where the pairwise sum splits, so a row that holds
    # one sums only its positive terms, in order, as the plain 1-D form does.
    for r in np.flatnonzero(~positive.all(axis=1)).tolist():
        sums[r] = terms[r][positive[r]].sum()
    entropies = -sums / np.log(rows.shape[1])
    return entropies.reshape(lead) if p.ndim > 1 else float(entropies[0])


def entropy_weights(m: DecisionMatrix) -> WeightVector:
    """Entropy weights over the matrix columns, summing to 1.

    Fails when every column is uniform: then every entropy is 1 and the
    data carries no information to weight by.
    """
    x = m.values
    sums = _column_sums(m)
    n = len(m.alternatives)
    step = max(1, _BLOCK_CELLS // n)
    entropies: list[float] = []
    for j in range(0, len(m.indicators), step):
        # Copy, then divide: the copy's rows are C-contiguous, so each column
        # sums pairwise as a 1-D column does. `x[:, j:j + step].T / sums` would
        # be F-ordered and sum in another order.
        block = x[:, j:j + step].T.copy()
        block /= sums[j:j + step, None]
        entropies.extend(information_entropy(block).tolist())
    # Clamp float noise: e may exceed 1 by ~1e-16 for exactly uniform columns.
    divergences = [max(0.0, 1.0 - e) for e in entropies]
    total = float_sum(divergences)
    if total <= 1e-12:
        raise ValidationError("no information content: all indicator columns are uniform")
    return WeightVector(
        {ind: d / total for ind, d in zip(m.indicators, divergences)}
    )
