"""Generalized Pareto distribution: evaluation, inversion, sampling.

The distribution function used throughout is

    H(x) = 1 - (max{1 + gamma * x / sigma, 0})^(-1/gamma),   x >= 0,

with the exponential limit 1 - exp(-x / sigma) at gamma = 0. For
gamma < 0 the support is the bounded interval [0, sigma / (-gamma)];
otherwise it is [0, inf).

All functions accept scalars or numpy arrays and evaluate through
log1p / expm1 so that small |gamma * x / sigma| does not cancel
catastrophically. Shapes with |gamma| below ``GAMMA_ZERO_TOL`` are routed
to the exponential branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import generator

GAMMA_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class GpdParams:
    """Shape ``gamma`` and scale ``sigma`` of a generalized Pareto law."""

    gamma: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and math.isfinite(self.sigma)):
            raise ValueError("gamma and sigma must be finite")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def _as_nonnegative_array(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite and nonnegative")
    return arr, arr.ndim == 0


def _maybe_scalar(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def gpd_cdf(params: GpdParams, x):
    """Distribution function H at x >= 0.

    Returns 1 exactly at and beyond the upper endpoint when gamma < 0.
    """
    arr, scalar = _as_nonnegative_array(x, "x")
    g, s = params.gamma, params.sigma
    if abs(g) < GAMMA_ZERO_TOL:
        out = -np.expm1(-arr / s)
    else:
        t = g * arr / s
        inside = t > -1.0
        out = np.ones_like(arr)
        out[inside] = -np.expm1(-np.log1p(t[inside]) / g)
    return _maybe_scalar(out, scalar)


def gpd_quantile(params: GpdParams, p):
    """Inverse of the distribution function for p in [0, 1)."""
    arr = np.asarray(p, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("p must lie in [0, 1)")
    g, s = params.gamma, params.sigma
    if abs(g) < GAMMA_ZERO_TOL:
        out = -s * np.log1p(-arr)
    else:
        out = (s / g) * np.expm1(-g * np.log1p(-arr))
    return _maybe_scalar(out, scalar)


def gpd_sample(params: GpdParams, count: int, seed: int) -> np.ndarray:
    """``count`` inverse-transform draws, deterministic given the seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = generator(seed).random(count)
    return gpd_quantile(params, u)
