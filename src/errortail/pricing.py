"""American put pricing on a binomial tree, with supporting machinery.

The ground-truth pricer is a Cox-Ross-Rubinstein tree with backward
induction: up factor exp(vol * sqrt(dt)), down factor its reciprocal, and
risk-neutral up-probability (exp((r - q) dt) - d) / (u - d). Maturities are
quoted in months and divided by 12 into years. Strikes are quoted as a
fraction of one initial stock price, 100 USD, so that one U.S. cent is 0.01
in price units.

A closed-form European put serves as an independent validator (with zero
interest early exercise of an American put is never strictly optimal, so
the two prices agree up to discretization error).

The backward induction keeps one tree level in memory and is vectorized
across contracts; each contract occupies one row of the working arrays, so
prices are bit-identical regardless of how contracts are batched or farmed
across worker processes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rng import generator
from .textio import read_table, write_table

SPOT_REFERENCE = 100.0  # USD; makes one U.S. cent = 0.01 price units
DEFAULT_TREE_STEPS = 1000
CHUNK_SIZE = 2048  # contracts per kernel call and per worker task

_FIELDS = ("strike_pct", "maturity_months", "rate", "dividend_yield", "volatility")
_POSITIVE = [0, 1, 4]  # K, T and vol


def contract_terms(contracts, row_label=lambda row: f"row {row}") -> np.ndarray:
    """Contracts as an (n, 5) float array with columns K, T, r, q, vol.

    ``contracts`` is anything numpy reads as rows of five terms, such as a
    list of :class:`OptionContract` or an array. This is the one contract
    rule: every term finite, and K, T and vol positive. An error names the
    field and ``row_label`` of the first offending row.
    """
    terms = np.asarray(contracts, dtype=float)
    if terms.ndim != 2 or terms.shape[1] != 5:
        raise ValueError(f"contracts must have shape (n, 5), got {terms.shape}")
    bad = ~np.isfinite(terms)
    bad[:, _POSITIVE] |= ~(terms[:, _POSITIVE] > 0.0)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value = float(terms[row, col])
        rule = "finite" if not math.isfinite(value) else "positive"
        raise ValueError(f"{row_label(row)}: {_FIELDS[col]} must be {rule}, got {value}")
    return terms


class OptionContract(namedtuple("OptionContract", _FIELDS)):
    """Contract terms (K, T, r, q, vol) of an American put.

    ``strike_pct`` is the strike as a fraction of the initial stock price
    and ``maturity_months`` the time to maturity in months. Construction
    checks the terms with :func:`contract_terms`; ``_make`` skips that check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        contract = super().__new__(cls, *args, **kwargs)
        contract_terms([contract], lambda row: "contract")
        return contract

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)


@dataclass(frozen=True)
class DomainBox:
    """Componentwise bounds on (K, T, r, q, vol)."""

    lower: tuple[float, float, float, float, float]
    upper: tuple[float, float, float, float, float]

    def __post_init__(self) -> None:
        if len(self.lower) != 5 or len(self.upper) != 5:
            raise ValueError("a domain box needs 5 lower and 5 upper bounds")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"need lower < upper, got [{lo}, {hi}]")


# Training and test hyper-rectangles of the pricing experiment. The test
# box sits strictly inside the training box in K and vol because surrogate
# accuracy degrades near the training boundary.
C_TRAIN = DomainBox(
    lower=(0.40, 11.0, 0.015, 0.00, 0.05),
    upper=(1.60, 12.0, 0.025, 0.05, 0.55),
)
C_TEST = DomainBox(
    lower=(0.50, 11.0, 0.015, 0.00, 0.10),
    upper=(1.50, 12.0, 0.025, 0.05, 0.50),
)


def _crr_put_batch(params: np.ndarray, steps: int) -> np.ndarray:
    """Backward induction over one shared step count, one contract per row."""
    strike = params[:, 0] * SPOT_REFERENCE
    dt = (params[:, 1] / 12.0) / steps
    r, q, vol = params[:, 2], params[:, 3], params[:, 4]

    up = np.exp(vol * np.sqrt(dt))
    down = 1.0 / up
    growth = np.exp((r - q) * dt)
    prob_up = (growth - down) / (up - down)
    if np.any(prob_up < 0.0) or np.any(prob_up > 1.0):
        bad = int(np.argmax((prob_up < 0.0) | (prob_up > 1.0)))
        raise ValueError(
            "risk-neutral up-probability outside [0, 1] for contract "
            f"{params[bad].tolist()} at {steps} steps; the discretization "
            "admits arbitrage for these parameters"
        )
    discount = np.exp(-r * dt)
    pu = (discount * prob_up)[:, None]
    pd = (discount * (1.0 - prob_up))[:, None]
    strike_col = strike[:, None]

    # Stock prices at level i, node j are S0 * up^(2j - i). One power
    # table per batch keeps every node exact (no drift from repeated
    # multiplication); level i reads the strided slice below.
    powers = SPOT_REFERENCE * up[:, None] ** np.arange(-steps, steps + 1)[None, :]
    value = np.maximum(strike_col - powers[:, ::2], 0.0)
    for level in range(steps - 1, -1, -1):
        value = pu * value[:, 1 : level + 2] + pd * value[:, : level + 1]
        stock = powers[:, steps - level : steps + level + 1 : 2]
        np.maximum(value, strike_col - stock, out=value)
    return value[:, 0]


def crr_american_put(contract: OptionContract, steps: int = DEFAULT_TREE_STEPS) -> float:
    """Price an American put by backward induction on a binomial tree.

    The result is bounded below by the immediate exercise value and above
    by the dollar strike.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return float(_crr_put_batch(contract_terms([contract]), steps)[0])


def price_contracts(
    contracts, steps: int = DEFAULT_TREE_STEPS, workers: int | None = None
) -> np.ndarray:
    """Price many contracts (see :func:`contract_terms`); results follow input order.

    Pricing is pure, so the work may be farmed across processes in chunks
    of ``CHUNK_SIZE`` contracts; ``workers`` does not affect the returned bits.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    params = contract_terms(contracts)
    chunks = [params[i : i + CHUNK_SIZE] for i in range(0, len(params), CHUNK_SIZE)]
    if workers is None or workers <= 1 or len(chunks) <= 1:
        parts = [_crr_put_batch(chunk, steps) for chunk in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_crr_put_batch, chunks, [steps] * len(chunks)))
    return np.concatenate(parts) if parts else np.empty(0)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_european_put(contract: OptionContract) -> float:
    """Closed-form European put with continuous dividend yield.

    Used as a test oracle and as a lower bound for the American price.
    """
    s0 = SPOT_REFERENCE
    strike_pct, months, r, q, vol = contract_terms([contract])[0].tolist()
    strike = strike_pct * s0
    t = months / 12.0
    sig_sqrt_t = vol * math.sqrt(t)
    d1 = (math.log(s0 / strike) + (r - q + 0.5 * vol * vol) * t) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    return strike * math.exp(-r * t) * _norm_cdf(-d2) - s0 * math.exp(
        -q * t
    ) * _norm_cdf(-d1)


def sample_uniform(box: DomainBox, count: int, seed: int) -> list[OptionContract]:
    """``count`` uniform draws over the box, deterministic given the seed."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    lower = np.asarray(box.lower)
    upper = np.asarray(box.upper)
    u = generator(seed).random((count, 5))
    points = contract_terms(lower + (upper - lower) * u)
    return list(map(OptionContract._make, points.tolist()))


PRICED_CSV_HEADER = "K,T,r,q,sigma,price"


def write_priced_csv(path, contracts, prices, comments: dict | None = None) -> None:
    """Write contracts and prices as CSV with header ``K,T,r,q,sigma,price``."""
    terms = contract_terms(contracts)
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (len(terms),):
        raise ValueError("contracts and prices must have equal length")
    rows = (
        f"{k!r},{t!r},{r!r},{q!r},{vol!r},{p!r}"
        for (k, t, r, q, vol), p in zip(terms.tolist(), prices.tolist())
    )
    write_table(path, PRICED_CSV_HEADER, rows, comments)


def read_priced_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``K,T,r,q,sigma,price`` CSV back into (n, 5) terms and n prices;
    a row that breaks the contract rule is named by its line."""
    linenos, rows = zip(*read_table(path, PRICED_CSV_HEADER))
    table = np.array(rows)
    terms = contract_terms(table[:, :5], lambda row: f"{path}: line {linenos[row]}")
    return terms, table[:, 5]
