"""Convex blending of subjective and objective weight vectors."""
from __future__ import annotations

from typing import Sequence

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


def fuse(
    subjective: WeightVector,
    objective: WeightVector,
    alphas: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Blends at every alpha of a 1-D sequence, as an (A, n) array in `subjective.ids` order.

    Row k is alphas[k] * subjective + (1 - alphas[k]) * objective, entrywise:
    alpha = 1 keeps the subjective weights, 0 the objective. Both inputs must
    cover the same ids and sum to 1 (`check_pair`), and every alpha must lie in [0, 1].
    """
    a = np.asarray(alphas, dtype=np.float64)
    bad = a[~((a >= 0.0) & (a <= 1.0))]  # NaN fails both comparisons
    if bad.size:
        raise ValidationError(f"alpha must be in [0, 1], got {float(bad[0])}")
    check_pair(subjective, objective)
    return blend(np.array(subjective.values()), np.array(objective.values(subjective.ids)), a).T
