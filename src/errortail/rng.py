"""Deterministic random number generation and the package's integer rule.

Every stochastic routine draws from a PCG64 generator seeded explicitly by
the caller, so identical seeds give bit-identical streams. Pipeline stages
derive their own 64-bit seeds from a master seed plus a short text label,
which keeps stages independent: adding test sets, for example, never
disturbs the training draw.

Every count, seed, ``k`` and ``workers`` of the package passes one integer
rule, :func:`check_integer`; :func:`generator` applies it to its seed.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np


def check_integer(name: str, value, minimum: int | None) -> int:
    """The one rule for counts and seeds: ``value`` as an int, if it is an
    integer (a bool is not taken for 0 or 1, nor 2.0 for 2) and at least
    ``minimum`` unless that is None. An error names ``name``."""
    # type() first: the abstract-class check alone costs ~0.4 us a call
    if isinstance(value, bool) or not (type(value) is int or isinstance(value, numbers.Integral)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for an integer seed. The package-wide PRNG."""
    return np.random.Generator(np.random.PCG64(check_integer("seed", seed, None)))


def stage_seed(master_seed: int, label: str) -> int:
    """Derive a stage seed from a master seed and a stage label.

    Uses the first 8 bytes of SHA-256 over ``"{master_seed}:{label}"``, so
    the derivation is stable across platforms and Python versions.
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
