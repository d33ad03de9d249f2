"""Convex blending of subjective and objective weight vectors."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import SUM_TOL, ValidationError, WeightVector, check_same_ids


def fuse(
    subjective: WeightVector,
    objective: WeightVector,
    alphas: Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Blends at every alpha of a 1-D sequence, as an (A, n) array in `subjective.ids` order.

    Row k is alphas[k] * subjective + (1 - alphas[k]) * objective, entrywise:
    alpha = 1 keeps the subjective weights, 0 the objective. Both inputs must
    cover the same ids and sum to 1, and every alpha must lie in [0, 1].
    """
    a = np.asarray(alphas, dtype=np.float64)
    bad = a[~((a >= 0.0) & (a <= 1.0))]  # NaN fails both comparisons
    if bad.size:
        raise ValidationError(f"alpha must be in [0, 1], got {float(bad[0])}")
    check_same_ids(subjective.ids, objective.ids, "weight vectors cover different ids")
    for name, vec in (("subjective", subjective), ("objective", objective)):
        if abs(vec.total() - 1.0) > SUM_TOL:
            raise ValidationError(
                f"{name} weights must sum to 1, got {vec.total()}"
            )
    s = np.array(subjective.values(), dtype=np.float64)
    o = np.array(objective.values(subjective.ids), dtype=np.float64)
    # Built as (n, A) so each blend runs over the contiguous alphas, with one
    # temporary. The (A, n) view holds the floats of a * s + (1 - a) * o, since
    # IEEE products and sums do not depend on the order of their operands.
    blend = np.subtract(1.0, a, out=np.empty((s.size, a.size)))
    blend *= o[:, None]
    blend += s[:, None] * a
    return blend.T
