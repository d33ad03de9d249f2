"""Convex blending of subjective and objective weight vectors."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import SUM_TOL, ValidationError, WeightVector, check_real, check_same_ids


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


def alpha_floats(values: Iterable[object], what: str) -> np.ndarray:
    """The values as a float64 array in input order, each a real number in [0, 1].

    The first value that is a bool or not a real number (a str, bytes, None)
    raises `{what} is not a number: ...`. Then the first value outside [0, 1]
    in input order, NaN and an int too large for a float included, raises
    `{what} must be in [0, 1], got ...`, showing the value as given.
    """
    values = values if isinstance(values, (list, tuple, np.ndarray)) else list(values)
    try:
        a = np.array(values)
        numeric = a.ndim == 1 and a.dtype.kind in "fiu"
    except ValueError:  # ragged, so some value is a sequence
        numeric = False
    if numeric:
        a = a.astype(np.float64, copy=False)
        # A bool beside numbers also infers a numeric dtype, as 0 or 1, so then
        # only the values not strictly inside (0, 1), NaN included, need a look.
        off = a >= 1.0
        off |= ~(a > 0.0)
        suspects = [values[k] for k in np.flatnonzero(off).tolist()]
    else:
        suspects = values
    for v in suspects:
        check_real(v, what)
    for v in suspects:
        if not 0.0 <= v <= 1.0:  # also true for NaN
            raise ValidationError(f"{what} must be in [0, 1], got {v}")
    # Every value now lies in [0, 1], so no int overflows a float.
    return a if numeric else np.array(values, dtype=np.float64)


def fuse(
    subjective: WeightVector,
    objective: WeightVector,
    alphas: Iterable[float] | np.ndarray,
) -> np.ndarray:
    """Blends at every alpha of a 1-D sequence, as an (A, n) array in `subjective.ids` order.

    Row k is alphas[k] * subjective + (1 - alphas[k]) * objective, entrywise:
    alpha = 1 keeps the subjective weights, 0 the objective. Both inputs must
    cover the same ids and sum to 1 (`check_pair`); every alpha must be a real
    number in [0, 1], checked by `alpha_floats` before the pair.
    """
    a = alpha_floats(alphas, "alpha")
    check_pair(subjective, objective)
    return blend(np.array(subjective.values()), np.array(objective.values(subjective.ids)), a).T
