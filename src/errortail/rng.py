"""Deterministic random number generation and the package's value rules.

Every stochastic routine draws from a PCG64 generator seeded explicitly by
the caller, so identical seeds give bit-identical streams. Pipeline stages
derive their own 64-bit seeds from a master seed plus a short text label,
which keeps stages independent: adding test sets, for example, never
disturbs the training draw.

Every count, seed, ``k`` and step count of the package passes one integer
rule, :func:`check_integer`; :func:`generator` applies it to its seed,
with a minimum of 0. A master or training seed may be negative: it reaches
a generator only through :func:`stage_seed`.

Prices, absolute errors and GPD levels, which must be finite and
nonnegative, pass one rule, :func:`check_nonnegative`, and a dataclass field
that declares its rule passes :func:`check_fields`.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import fields

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


def check_nonnegative(name: str, values, row_label=lambda row: f"row {row}") -> np.ndarray:
    """``values`` as a float array, if each is finite and nonnegative. An
    error names ``row_label`` of the first offender, in flat order."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~((values >= 0.0) & (values < math.inf)))
    if bad.size:
        raise ValueError(
            f"{row_label(bad[0])}: {name} must be finite and nonnegative, "
            f"got {float(values.flat[bad[0]])}"
        )
    return values


def check_fields(record) -> None:
    """Apply the rule that each field of a frozen dataclass declares in its
    metadata. A ``minimum`` field is stored as the int :func:`check_integer`
    returns (a seed's minimum is None); an ``interval`` field must be a real,
    not a bool, strictly inside its open interval ``(lower, upper)``, so NaN
    is rejected, and is stored as given."""
    for f in fields(record):
        value, rule = getattr(record, f.name), f.metadata
        if "minimum" in rule:
            object.__setattr__(record, f.name, check_integer(f.name, value, rule["minimum"]))
        elif "interval" in rule:
            lower, upper = rule["interval"]
            if isinstance(value, bool) or not lower < value < upper:
                raise ValueError(f"{f.name} must be in ({lower}, {upper}), got {value}")


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for a nonnegative integer seed. The package-wide PRNG."""
    return np.random.Generator(np.random.PCG64(check_integer("seed", seed, 0)))


def stage_seed(master_seed: int, label: str) -> int:
    """Derive a stage seed from a master seed and a stage label.

    Uses the first 8 bytes of SHA-256 over ``"{master_seed}:{label}"``, so
    the derivation is stable across platforms and Python versions.
    """
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
