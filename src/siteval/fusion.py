"""Convex blending of subjective and objective weight vectors."""
from __future__ import annotations

import numbers
from typing import Iterable, Sequence

import numpy as np

from .core import SUM_TOL, ValidationError, WeightVector, check_same_ids


def check_pair(subjective: WeightVector, objective: WeightVector) -> None:
    """Raise unless both vectors cover the same ids and each sums to 1 within SUM_TOL."""
    check_same_ids(subjective.weights, objective.weights, "weight vectors cover different ids")
    for name, vec in (("subjective", subjective), ("objective", objective)):
        if abs(vec.total() - 1.0) > SUM_TOL:
            raise ValidationError(f"{name} weights must sum to 1, got {vec.total()}")


def blend(subjective: np.ndarray, objective: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """(n,) weights blended at (A,) alphas, as (n, A): a * subjective + (1 - a) * objective."""
    out = objective[:, None] * (1.0 - alphas)  # (1 - a) * objective: IEEE products commute
    return np.add(out, subjective[:, None] * alphas, out=out)


def alpha_floats(values: Iterable[object], what: str) -> tuple[np.ndarray, Sequence[object]]:
    """The values as a float64 array in input order, and the values it was read from.

    The first value that is a bool or not a real number (a str, bytes, None)
    raises `{what} is not a number: ...`; an int too large for a float raises.
    """
    values = values if isinstance(values, (list, tuple, np.ndarray)) else list(values)
    try:
        inferred = np.array(values)
        numeric = inferred.ndim == 1 and inferred.dtype.kind in "fiu"
    except ValueError:  # ragged, so some value is a sequence
        numeric = False
    # A bool beside numbers also infers a numeric dtype, as 0 or 1, so then
    # only the values equal to 0 or 1 need their type checked.
    suspects = (
        [values[k] for k in np.flatnonzero((inferred == 0) | (inferred == 1)).tolist()]
        if numeric else values
    )
    for v in suspects:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
            raise ValidationError(f"{what} is not a number: {v!r}")
    if numeric:
        return inferred.astype(np.float64, copy=False), values
    try:
        return np.array(values, dtype=np.float64), values
    except OverflowError:  # an int too large for a float lies out of range
        bad = next(v for v in sorted(values) if not 0.0 <= v <= 1.0)  # type: ignore
        raise ValidationError(f"{what} out of [0, 1]: {bad}") from None


def fuse(
    subjective: WeightVector,
    objective: WeightVector,
    alphas: Iterable[float] | np.ndarray,
) -> np.ndarray:
    """Blends at every alpha of a 1-D sequence, as an (A, n) array in `subjective.ids` order.

    Row k is alphas[k] * subjective + (1 - alphas[k]) * objective, entrywise:
    alpha = 1 keeps the subjective weights, 0 the objective. Both inputs must
    cover the same ids and sum to 1 (`check_pair`), and every alpha must be a
    real number (not a bool or a str, see `alpha_floats`) in [0, 1].
    """
    a = alpha_floats(alphas, "alpha")[0]
    bad = a[~((a >= 0.0) & (a <= 1.0))]  # NaN fails both comparisons
    if bad.size:
        raise ValidationError(f"alpha must be in [0, 1], got {float(bad[0])}")
    check_pair(subjective, objective)
    return blend(np.array(subjective.values()), np.array(objective.values(subjective.ids)), a).T
