"""Reference computations made apart from errortail.

Each function here evaluates a formula from the errortail README (or a
textbook one) directly, in plain Python or plain numpy, without importing
the package. The output checks in ``checks.py`` compare the program's
outputs against these.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np


def tail_estimates(values, k: int) -> tuple[float, float, float]:
    """(u, xstar_hat, gamma_hat) of the README's peaks-over-threshold fit.

    With e_(1) <= ... <= e_(N) and 1-based positions:
    u = e_(N-k), xstar_hat = e_(N) + e_(N-k) - sum_{i<k} w_i e_(N-k-i) with
    w_i = log(1 + 1/(k+i)) / log 2, and gamma_hat the mean over j < k of
    log(1 - (e_(N-j) - u) / (xstar_hat - u)).
    """
    v = sorted(float(x) for x in values)
    n = len(v)
    if not 1 <= k or 2 * k > n:
        raise ValueError(f"need 1 <= k and 2k <= n, got k={k}, n={n}")

    def e(pos: int) -> float:
        return v[pos - 1]

    u = e(n - k)
    weighted = math.fsum(
        math.log(1.0 + 1.0 / (k + i)) / math.log(2.0) * e(n - k - i) for i in range(k)
    )
    xstar = e(n) + u - weighted
    gamma = math.fsum(math.log(1.0 - (e(n - j) - u) / (xstar - u)) for j in range(k)) / k
    return u, xstar, gamma


def moment_bound(values, m: float, x: float) -> float:
    """min(1, mean(e^m) / x^m): Markov's inequality on the empirical law."""
    v = [float(e) for e in values]
    return min(1.0, math.fsum(e**m for e in v) / len(v) / x**m)


def survival_fraction(sorted_values, x: float) -> float:
    """Share of values strictly above x; ``sorted_values`` ascending."""
    lo, hi = 0, len(sorted_values)
    while lo < hi:  # first index whose value exceeds x
        mid = (lo + hi) // 2
        if sorted_values[mid] <= x:
            lo = mid + 1
        else:
            hi = mid
    return (len(sorted_values) - lo) / len(sorted_values)


def crr_american_put(
    strike_pct: float,
    maturity_months: float,
    rate: float,
    dividend_yield: float,
    volatility: float,
    spot: float = 100.0,
    steps: int = 500,
) -> float:
    """Cox-Ross-Rubinstein American put, one node at a time."""
    strike = strike_pct * spot
    dt = maturity_months / 12.0 / steps
    up = math.exp(volatility * math.sqrt(dt))
    down = 1.0 / up
    p = (math.exp((rate - dividend_yield) * dt) - down) / (up - down)
    disc = math.exp(-rate * dt)
    values = [max(strike - spot * up ** (2 * j - steps), 0.0) for j in range(steps + 1)]
    for level in range(steps - 1, -1, -1):
        values = [
            max(
                disc * (p * values[j + 1] + (1.0 - p) * values[j]),
                strike - spot * up ** (2 * j - level),
            )
            for j in range(level + 1)
        ]
    return values[0]


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_european_put(
    strike_pct: float,
    maturity_months: float,
    rate: float,
    dividend_yield: float,
    volatility: float,
    spot: float = 100.0,
) -> float:
    """Black-Scholes-Merton European put with a continuous dividend yield."""
    strike = strike_pct * spot
    t = maturity_months / 12.0
    sd = volatility * math.sqrt(t)
    d1 = (math.log(spot / strike) + (rate - dividend_yield + 0.5 * volatility**2) * t) / sd
    d2 = d1 - sd
    return strike * math.exp(-rate * t) * _norm_cdf(-d2) - spot * math.exp(
        -dividend_yield * t
    ) * _norm_cdf(-d1)


def model_prices(model_path, inputs: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """USD prices of a ``model.json`` network on (n, 5) inputs.

    Reads the documented JSON layout (layers of weights and biases, ReLU on
    hidden layers, inputs mapped onto the unit box, output scaled and
    offset) and evaluates it in row chunks so the check stays small.
    """
    with open(model_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    lower = np.asarray(doc["input_lower"], dtype=float)
    upper = np.asarray(doc["input_upper"], dtype=float)
    layers = [
        (np.asarray(layer["weights"], dtype=float), np.asarray(layer["bias"], dtype=float))
        for layer in doc["layers"]
    ]
    out = np.empty(inputs.shape[0])
    for start in range(0, inputs.shape[0], chunk):
        a = ((inputs[start : start + chunk] - lower) / (upper - lower)).T
        for i, (w, b) in enumerate(layers):
            a = w @ a + b[:, None]
            if i < len(layers) - 1:
                a = np.maximum(a, 0.0)
        out[start : start + chunk] = a[0] * doc["target_scale"] + doc["target_offset"]
    return out


def stage_seed(master_seed: int, label: str) -> int:
    """The README's seed derivation: first 8 bytes of SHA-256, little endian."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def validation_rows(size: int, fraction: float, seed: int) -> np.ndarray:
    """Rows the trainer holds out: the head of a PCG64 permutation seeded
    from ``stage_seed(seed, "shuffle")``, of length round(fraction * size)."""
    rng = np.random.Generator(np.random.PCG64(stage_seed(seed, "shuffle")))
    return rng.permutation(size)[: round(fraction * size)]
