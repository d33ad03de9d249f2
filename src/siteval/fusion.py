"""Convex blending of subjective and objective weight vectors."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SUM_TOL, ValidationError, WeightVector


@dataclass(frozen=True)
class FusionConfig:
    """Blend parameter: alpha = 1 keeps the subjective weights, 0 the objective."""

    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")


def fuse_grid(
    subjective: WeightVector, objective: WeightVector, alphas: np.ndarray
) -> np.ndarray:
    """Blends at every alpha of a 1-D array, as an (A, n) array in `subjective.ids` order.

    Row k is alphas[k] * subjective + (1 - alphas[k]) * objective, entrywise.
    Both inputs must cover the same ids and sum to 1; alphas are not checked.
    """
    if set(subjective.ids) != set(objective.ids):
        diff = sorted(set(subjective.ids) ^ set(objective.ids))
        raise ValidationError(f"weight vectors cover different ids: {diff}")
    for name, vec in (("subjective", subjective), ("objective", objective)):
        if abs(vec.total() - 1.0) > SUM_TOL:
            raise ValidationError(
                f"{name} weights must sum to 1, got {vec.total()}"
            )
    s = np.array(subjective.values(), dtype=np.float64)
    o = np.array(objective.values(subjective.ids), dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)[:, None]
    return a * s + (1.0 - a) * o


def fuse(
    subjective: WeightVector,
    objective: WeightVector,
    cfg: FusionConfig = FusionConfig(),
) -> WeightVector:
    """Entrywise alpha * subjective + (1 - alpha) * objective over a shared id set."""
    fused = fuse_grid(subjective, objective, np.array([cfg.alpha]))[0]
    return WeightVector(dict(zip(subjective.ids, fused.tolist())))
