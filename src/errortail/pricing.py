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
across contracts. The working arrays are node-major, shape (nodes,
contracts): each contract occupies one column and no operation mixes
columns, so prices are bit-identical regardless of how contracts are
ordered, batched or farmed across worker processes.

Every per-level operation runs on same-shape, C-contiguous operands, because
numpy runs those as one flat loop, while a broadcast or strided operand makes
it run one short inner loop per row (two to three times the cost per node).
So the intrinsic values come as two tables, the even and the odd rows of the
full table, and level i reads one contiguous block of one of them; the two
coefficients are broadcast once per chunk into contiguous (rows, contracts)
arrays; and a chunk holds as many contracts as fit ``CHUNK_NODES`` terminal
nodes (:func:`contracts_per_chunk`). One level's five operands then take
at most 2.6 MB, more than a core's 2 MiB L2 cache: the budget was chosen by
measurement, and budgets of 32,768 and 131,072 nodes priced within noise
of it.

Contracts cross between Python objects and arrays without a Python object
per row beyond the contract itself: :func:`sample_uniform` builds its
contracts from the columns of one block of ``textio.BLOCK_ROWS`` draws at a
time, :func:`contract_terms` reads a list of contracts with one
``np.fromiter`` over their terms, :func:`price_contracts` gathers each chunk
in sorted order only when it prices it, and :func:`write_priced_csv` formats
one block of rows at a time.
"""

from __future__ import annotations

import math
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .rng import check_integer, generator
from .textio import BLOCK_ROWS, block_rows, line_of, read_table, write_table

SPOT_REFERENCE = 100.0  # USD; makes one U.S. cent = 0.01 price units
DEFAULT_TREE_STEPS = 1000
CHUNK_NODES = 65_536  # terminal nodes per kernel call and per worker task

_FIELDS = ("strike_pct", "maturity_months", "rate", "dividend_yield", "volatility")
_POSITIVE = np.array([True, True, False, False, True])  # K, T and vol


def contract_terms(contracts, row_label=lambda row: f"row {row}") -> np.ndarray:
    """Contracts as an (n, 5) float array with columns K, T, r, q, vol.

    ``contracts`` is an array of shape (n, 5), or a sequence of rows of five
    terms such as a list of :class:`OptionContract`. A sequence is read row
    by row into the array, with no Python object per row beyond its own
    terms. This is the one contract rule: every row of five terms, every
    term finite, and K, T and vol positive. An error names the field and
    ``row_label`` of the first offending row.
    """
    if isinstance(contracts, np.ndarray):
        terms = np.asarray(contracts, dtype=float)
    else:
        terms = _rows_as_terms(contracts, row_label)
    if terms.ndim != 2 or terms.shape[1] != 5:
        raise ValueError(f"contracts must have shape (n, 5), got {terms.shape}")
    bad = np.isfinite(terms)
    np.logical_not(bad, out=bad)
    nonpositive = terms <= 0.0  # a NaN is not finite, so is already bad
    nonpositive &= _POSITIVE
    bad |= nonpositive
    if bad.any():
        row, col = np.argwhere(bad)[0]
        value = float(terms[row, col])
        rule = "finite" if not math.isfinite(value) else "positive"
        raise ValueError(f"{row_label(row)}: {_FIELDS[col]} must be {rule}, got {value}")
    return terms


def _rows_as_terms(rows, row_label) -> np.ndarray:
    """A sequence of rows as one (n, 5) array, built by ``np.fromiter`` over
    the terms; a row without five terms is named by ``row_label``."""
    lengths = list(map(len, rows))
    if lengths.count(5) != len(lengths):
        row = next(i for i, size in enumerate(lengths) if size != 5)
        raise ValueError(f"{row_label(row)}: expected 5 terms, got {lengths[row]}")
    if not lengths:
        return np.empty(0)  # rejected by the shape check
    terms = np.fromiter(chain.from_iterable(rows), float, 5 * len(lengths))
    return terms.reshape(len(lengths), 5)


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


def contracts_per_chunk(steps: int) -> int:
    """Contracts per kernel call at ``steps``: as many as fit ``CHUNK_NODES``
    terminal nodes, and at least one."""
    return max(1, CHUNK_NODES // (steps + 1))


def _tree_coefficients(params: np.ndarray, steps: int):
    """Up factor, risk-neutral up-probability and one-step discount per contract."""
    dt = (params[:, 1] / 12.0) / steps
    r, q, vol = params[:, 2], params[:, 3], params[:, 4]
    up = np.exp(vol * np.sqrt(dt))
    down = 1.0 / up
    growth = np.exp((r - q) * dt)
    prob_up = (growth - down) / (up - down)
    return up, prob_up, np.exp(-r * dt)


def _check_no_arbitrage(
    params: np.ndarray, steps: int, row_label=lambda row: f"row {row}"
) -> None:
    """Reject the first contract whose up-probability lies outside [0, 1]."""
    prob_up = _tree_coefficients(params, steps)[1]
    bad = np.flatnonzero(~((prob_up >= 0.0) & (prob_up <= 1.0)))
    if bad.size:
        raise ValueError(
            f"{row_label(bad[0])}: risk-neutral up-probability outside [0, 1] for "
            f"contract {params[bad[0]].tolist()} at {steps} steps; the "
            "discretization admits arbitrage for these parameters"
        )


def _crr_put_batch(params: np.ndarray, steps: int) -> np.ndarray:
    """Backward induction over one shared step count, one contract per column.

    The contracts must pass :func:`_check_no_arbitrage` at ``steps``.
    """
    strike = params[:, 0] * SPOT_REFERENCE
    up, prob_up, discount = _tree_coefficients(params, steps)
    pu = discount * prob_up
    pd = discount * (1.0 - prob_up)

    # Stock prices at level i, node j are S0 * up^(2j - i). Level i reads the
    # intrinsic values strike - S0 * up^(k - steps) of every other k from
    # first = steps - i on, each built in place from one power, so every node
    # is exact (no drift from repeated multiplication). The rows k are kept
    # as two tables, even k and odd k, so that level i reads the contiguous
    # block parity[first % 2][first // 2:] and not a stride-2 slice. The
    # exponents are written into each table and raised in place: numpy's
    # power takes exact shortcuts (1/x, x*x) for an exponent of -1, 1 or 2
    # that is constant along its inner loop, and whether a broadcast exponent
    # is constant there depends on the chunk width, so a broadcast exponent
    # would make the bits of those rows depend on the width.
    offsets = np.arange(-steps, steps + 1)
    parity = []
    for start in (0, 1):
        exponents = offsets[start::2, None]
        table = np.empty((len(exponents), len(up)))
        table[...] = exponents
        np.power(up, table, out=table)
        np.multiply(table, SPOT_REFERENCE, out=table)
        np.subtract(strike, table, out=table)
        parity.append(table)
    value = np.maximum(parity[0], 0.0)

    # Zero trim. Terminal node j is the lowest-stock descendant of node
    # (i, j), so if j is out of the money for a contract, node (i, j) has
    # zero continuation and non-positive intrinsic value: it is exactly 0.0
    # at every level. The stock price rises with j, so each contract's
    # in-the-money terminal rows are a prefix, and so is their union over
    # contracts; rows j >= itm, the length of that union, stay 0.0 and are
    # never updated. Every other node takes the same operations in the same
    # order as without the trim, so the bits do not change.
    itm = int(np.count_nonzero(value.any(axis=1)))
    # No level updates more than min(steps, itm) rows. The coefficients are
    # broadcast once into contiguous arrays of that many rows, so both
    # multiplies run on same-shape operands; a (contracts,) row broadcast
    # over the nodes would again make numpy loop row by row.
    pu_rows, pd_rows, scratch = np.empty((3, min(steps, itm), len(pu)))
    pu_rows[...] = pu
    pd_rows[...] = pd
    for level in range(steps - 1, -1, -1):
        nodes = min(level + 1, itm)
        node_value = value[:nodes]
        np.multiply(pu_rows[:nodes], value[1 : nodes + 1], out=scratch[:nodes])
        np.multiply(pd_rows[:nodes], node_value, out=node_value)
        np.add(scratch[:nodes], node_value, out=node_value)
        first = steps - level
        block = first // 2
        np.maximum(node_value, parity[first % 2][block : block + nodes], out=node_value)
    return value[0].copy()


def crr_american_put(contract: OptionContract, steps: int = DEFAULT_TREE_STEPS) -> float:
    """Price an American put by backward induction on a binomial tree.

    The result is bounded below by the immediate exercise value and above
    by the dollar strike.
    """
    steps = check_integer("steps", steps, 1)
    params = contract_terms([contract])
    _check_no_arbitrage(params, steps, lambda row: "contract")
    return float(_crr_put_batch(params, steps)[0])


def price_contracts(
    contracts, steps: int = DEFAULT_TREE_STEPS, workers: int | None = None
) -> np.ndarray:
    """Price many contracts (see :func:`contract_terms`); results follow input order.

    Every contract is checked for a no-arbitrage tree before any is priced;
    an error names the caller's row. Pricing is pure, so the work may be
    farmed across processes in chunks of :func:`contracts_per_chunk`
    contracts. ``workers`` is None (serial) or an integer >= 1, and a pool
    has at most one process per chunk; it does not affect the returned bits.
    """
    steps = check_integer("steps", steps, 1)
    workers = 1 if workers is None else check_integer("workers", workers, 1)
    params = contract_terms(contracts)
    _check_no_arbitrage(params, steps)
    # Sorting by moneyness log K / (vol sqrt(T)) orders contracts by their
    # count of in-the-money terminal nodes, so each chunk's zero trim is
    # tight. Columns never mix, so the order does not change the bits.
    moneyness = np.log(params[:, 0]) / (params[:, 4] * np.sqrt(params[:, 1]))
    order = np.argsort(moneyness)
    size = contracts_per_chunk(steps)
    starts = range(0, len(params), size)
    # each chunk is gathered when it is priced, and its prices put in place
    chunks = (params[order[i : i + size]] for i in starts)
    prices = np.empty(len(params))

    def place(parts) -> None:
        for i, part in zip(starts, parts):
            prices[order[i : i + size]] = part

    # a pool forks all max_workers processes at its first task: one per chunk at most
    processes = min(workers, len(starts))
    if processes <= 1:
        place(map(_crr_put_batch, chunks, repeat(steps)))
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            place(pool.map(_crr_put_batch, chunks, repeat(steps)))
    return prices


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
    """``count`` uniform draws over the box, deterministic given the seed.

    The draws are scaled in place in one (count, 5) array, and the contracts
    are built from its columns one block of ``BLOCK_ROWS`` rows at a time.
    """
    count = check_integer("count", count, 1)
    lower = np.asarray(box.lower)
    upper = np.asarray(box.upper)
    points = generator(seed).random((count, 5))
    points *= upper - lower
    points += lower
    contract_terms(points)
    contracts = []
    for start in range(0, count, BLOCK_ROWS):
        columns = points[start : start + BLOCK_ROWS].T.tolist()
        contracts.extend(map(OptionContract._make, zip(*columns)))
    return contracts


PRICED_CSV_HEADER = "K,T,r,q,sigma,price"


def check_prices(prices, row_label=lambda row: f"row {row}") -> np.ndarray:
    """Prices as a float array: the price rule of the priced CSV, every
    price finite and nonnegative. An error names ``row_label`` of the first
    offending row."""
    prices = np.asarray(prices, dtype=float)
    bad = np.flatnonzero(~((prices >= 0.0) & (prices < math.inf)))
    if bad.size:
        raise ValueError(
            f"{row_label(bad[0])}: price must be finite and nonnegative, "
            f"got {float(prices[bad[0]])}"
        )
    return prices


def write_priced_csv(path, contracts, prices) -> None:
    """Write contracts and prices as CSV with header ``K,T,r,q,sigma,price``,
    formatting one block of ``BLOCK_ROWS`` rows at a time; the prices pass
    :func:`check_prices`, the rule :func:`read_priced_csv` reads them with."""
    terms = contract_terms(contracts)
    prices = check_prices(prices)
    if prices.shape != (len(terms),):
        raise ValueError("contracts and prices must have equal length")
    rows = (
        f"{k!r},{t!r},{r!r},{q!r},{vol!r},{p!r}"
        for (k, t, r, q, vol), p in zip(block_rows(terms), block_rows(prices))
    )
    write_table(path, PRICED_CSV_HEADER, rows)


def read_priced_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a ``K,T,r,q,sigma,price`` CSV back into (n, 5) terms and n prices;
    a row that breaks the contract rule or has a non-finite or negative price
    is named by its line."""
    table = read_table(path, PRICED_CSV_HEADER)
    line = lambda row: f"{path}: line {line_of(path, row)}"
    return contract_terms(table[:, :5], line), check_prices(table[:, 5], line)
