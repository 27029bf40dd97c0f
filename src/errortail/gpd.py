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
from dataclasses import dataclass, field

import numpy as np

from .rng import check_fields, check_integer, check_nonnegative, generator

GAMMA_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class GpdParams:
    """A generalized Pareto law's shape ``gamma`` and scale ``sigma``, each with a declared rule."""

    gamma: float = field(metadata={"interval": (-math.inf, math.inf)})
    sigma: float = field(metadata={"interval": (0, math.inf)})

    def __post_init__(self) -> None:
        check_fields(self)


def gpd_cdf(params: GpdParams, x):
    """Distribution function H at x >= 0.

    Returns 1 exactly at and beyond the upper endpoint when gamma < 0, and
    where x / sigma leaves the float range, without a warning.
    """
    arr = check_nonnegative("x", x)
    g, s = params.gamma, params.sigma
    with np.errstate(over="ignore"):  # x / sigma = inf gives H = 1
        if abs(g) < GAMMA_ZERO_TOL:
            out = -np.expm1(-arr / s)
        else:
            t = g * arr / s
            inside = t > -1.0
            out = np.ones_like(arr)
            out[inside] = -np.expm1(-np.log1p(t[inside]) / g)
    return float(out) if arr.ndim == 0 else out


def gpd_quantile(params: GpdParams, p):
    """Inverse of the distribution function for p in [0, 1).

    A quantile beyond the float range is inf, and the quantile at 0 is 0,
    without a warning.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr >= 1.0) or not np.all(np.isfinite(arr)):
        raise ValueError("p must lie in [0, 1)")
    g, s = params.gamma, params.sigma
    with np.errstate(over="ignore"):
        if abs(g) < GAMMA_ZERO_TOL:
            out = -s * np.log1p(-arr)
        elif math.isinf(s / g):
            # sigma / gamma overflows, so divide expm1 by gamma first
            out = s * (np.expm1(-g * np.log1p(-arr)) / g)
        else:
            out = (s / g) * np.expm1(-g * np.log1p(-arr))
    return float(out) if arr.ndim == 0 else out


def gpd_sample(params: GpdParams, count: int, seed: int) -> np.ndarray:
    """``count`` inverse-transform draws, deterministic given the seed; a
    law whose draws leave the float range is rejected."""
    count = check_integer("count", count, 1)
    draws = gpd_quantile(params, generator(seed).random(count))
    if not np.isfinite(draws).all():
        raise ValueError(
            f"a draw of the GPD with gamma={params.gamma} and sigma={params.sigma} "
            "exceeds the float range"
        )
    return draws
