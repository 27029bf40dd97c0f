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

Each level updates only the rows that can differ from a trivial value. Rows
above the money, where every contract's value is 0.0 at every level, are
never updated (the zero trim). Rows below the early-exercise boundary are
skipped too (the exercise trim): a node whose two children hold exactly
their intrinsic values has continuation disc K - S e^(-q dt), below its own
intrinsic value K - S by K (1 - e^(-r dt)) - S (1 - e^(-q dt)), a margin
that is positive inside the exercise region S <= K min(1, r/q) when r > 0.
So once a level's rows [0, low) are exercised for every contract of a chunk,
the next level's rows [0, low - 1) are too and keep their intrinsic values.
The kernel applies this only to a chunk whose every contract's margin is
far above the rounding of its arithmetic (which needs r > 0), measures
``low`` every 16th level, and in between lets the skipped prefix shrink by
one row a level; the kernel comment gives the argument in full. Both trims
give the same bits as updating every node. The tree coefficients are
computed once per contract, by the no-arbitrage check, and gathered per
chunk with the strikes. :func:`price_contracts` orders the contracts by
their exercise boundary at maturity in tree units, so that the contracts of
one chunk exercise at nearly the same rows.

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

from .rng import check_integer, check_nonnegative, generator
from .textio import BLOCK_ROWS, block_rows, line_of, read_table, write_table

SPOT_REFERENCE = 100.0  # USD; makes one U.S. cent = 0.01 price units
DEFAULT_TREE_STEPS = 1000
CHUNK_NODES = 65_536  # terminal nodes per kernel call and per worker task
_TRIM_MARGIN = 2.0**-40  # least (1 - disc)(1 - 1/up) the exercise trim is exact for
_REMEASURE = 16  # levels between two measurements of the exercised rows

CONTRACT_FIELDS = ("strike_pct", "maturity_months", "rate", "dividend_yield", "volatility")
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
        raise ValueError(f"{row_label(row)}: {CONTRACT_FIELDS[col]} must be {rule}, got {value}")
    return terms


def _rows_as_terms(rows, row_label) -> np.ndarray:
    """A sequence of rows as one (n, 5) array, built by ``np.fromiter`` over
    the terms; a row without five terms is named by ``row_label``."""
    lengths = list(map(len, rows))
    if lengths.count(5) != len(lengths):
        row = next(i for i, size in enumerate(lengths) if size != 5)
        raise ValueError(f"{row_label(row)}: expected 5 terms, got {lengths[row]}")
    terms = np.fromiter(chain.from_iterable(rows), float, 5 * len(lengths))
    return terms.reshape(len(lengths), 5)


class OptionContract(namedtuple("OptionContract", CONTRACT_FIELDS)):
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


def _tree_coefficients(params: np.ndarray, steps: int) -> np.ndarray:
    """Dollar strike, up factor, risk-neutral up-probability and one-step
    discount per contract, as the rows of one (4, n) array.

    The rows are computed in place, with one temporary of n values, since
    this pass sets the peak memory of a large :func:`price_contracts` call:
    the discount row holds dt = T / 12 / steps until the others have read
    it. Each value takes the operations of ``exp(vol * sqrt(dt))``,
    ``(exp((r - q) dt) - down) / (up - down)`` with ``down = 1 / up``, and
    ``exp(-r dt)``, in that order.
    """
    months, r, q, vol = params[:, 1:].T
    tree = np.empty((4, len(params)))
    strike, up, prob_up, discount = tree
    np.multiply(params[:, 0], SPOT_REFERENCE, out=strike)
    dt = discount
    np.divide(months, 12.0, out=dt)
    dt /= steps
    np.sqrt(dt, out=up)
    np.multiply(vol, up, out=up)
    np.exp(up, out=up)
    np.subtract(r, q, out=prob_up)
    prob_up *= dt
    np.exp(prob_up, out=prob_up)
    np.multiply(r, dt, out=discount)  # -(r dt) is (-r) dt exactly
    np.negative(discount, out=discount)
    np.exp(discount, out=discount)
    down = 1.0 / up
    prob_up -= down
    np.subtract(up, down, out=down)
    prob_up /= down
    return tree


def _check_no_arbitrage(
    params: np.ndarray, steps: int, row_label=lambda row: f"row {row}"
) -> np.ndarray:
    """The rows of :func:`_tree_coefficients`, once no contract's
    up-probability lies outside [0, 1]; else reject the first such contract.

    A contract whose up factor rounds to 1 (vol * sqrt(dt) below the float
    resolution) has no up-probability, since up - down is 0: its tree is
    named degenerate.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tree = _tree_coefficients(params, steps)
    up, prob_up = tree[1:3]
    bad = np.flatnonzero(~((prob_up >= 0.0) & (prob_up <= 1.0)))
    if bad.size:
        row = bad[0]
        reason = (
            "the up factor rounds to 1, so the tree is degenerate"
            if up[row] == 1.0
            else "the discretization admits arbitrage for these parameters"
        )
        raise ValueError(
            f"{row_label(row)}: risk-neutral up-probability outside [0, 1] for "
            f"contract {params[row].tolist()} at {steps} steps; {reason}"
        )
    return tree


def _crr_put_batch(tree: np.ndarray, steps: int) -> np.ndarray:
    """Backward induction over one shared step count, one contract per column.

    ``tree`` holds the rows of :func:`_tree_coefficients`, one column per
    contract, for contracts that pass :func:`_check_no_arbitrage` at ``steps``.
    """
    strike, up, prob_up, discount = tree
    pu = discount * prob_up
    pd = discount * (1.0 - prob_up)

    # Stock prices at level i, node j are S0 * up^(2j - i). Level i reads the
    # intrinsic values strike - S0 * up^(k - steps) of every other k from
    # first = steps - i on, each built in place from one power, so every node
    # is exact (no drift from repeated multiplication). The rows k are kept
    # as two tables, even k and odd k, the two blocks of one array, so that
    # level i reads the contiguous block parity[first % 2][first // 2:] and
    # not a stride-2 slice. The exponents are written into the array and
    # raised in place: numpy's power takes exact shortcuts (1/x, x*x) for an
    # exponent of -1, 1 or 2 that is constant along its inner loop, and
    # whether a broadcast exponent is constant there depends on the chunk
    # width, so a broadcast exponent would make the bits of those rows depend
    # on the width.
    offsets = np.arange(-steps, steps + 1)
    table = np.empty((2 * steps + 1, len(up)))
    table[...] = np.concatenate((offsets[0::2], offsets[1::2]))[:, None]
    np.power(up, table, out=table)
    np.multiply(table, SPOT_REFERENCE, out=table)
    np.subtract(strike, table, out=table)
    parity = (table[: steps + 1], table[steps + 1 :])

    # Zero trim. Terminal node j is the lowest-stock descendant of node
    # (i, j), so if j is out of the money for a contract, node (i, j) has
    # zero continuation and non-positive intrinsic value: it is exactly 0.0
    # at every level. The stock price rises with j, so each contract's
    # in-the-money terminal rows are a prefix, and so is their union over
    # contracts; rows j >= itm, the length of that union, stay 0.0 and are
    # never updated. Every other node takes the same operations in the same
    # order as without the trim, so the bits do not change. Only rows up to
    # itm, the first zero row, are ever read, so only they are kept.
    itm = int(np.count_nonzero(parity[0].max(axis=1) > 0.0))
    value = np.maximum(parity[0][: itm + 1], 0.0)
    # No level updates more than min(steps, itm) rows. The coefficients are
    # broadcast once into contiguous arrays of that many rows, so both
    # multiplies run on same-shape operands; a (contracts,) row broadcast
    # over the nodes would again make numpy loop row by row.
    pu_rows, pd_rows, scratch = np.empty((3, min(steps, itm), len(pu)))
    pu_rows[...] = pu
    pd_rows[...] = pd

    # Exercise trim. Let a node at stock price S have both children at their
    # intrinsic values K - S u and K - S / u. Its continuation is
    # pu (K - S u) + pd (K - S / u) = disc K - a S, with disc the one-step
    # discount and a = disc (p u + (1 - p) / u) = e^(-q dt), below its own
    # intrinsic value K - S by the margin m = K (1 - disc) - S (1 - a). So m
    # is positive in the exercise region S <= K min(1, r/q) when r > 0, and
    # if the up child is itself exercised, m >= K (1 - disc) (1 - 1/u): that
    # child's value K - S u is nonnegative and at least its continuation,
    # itself at least disc K - a S u, so S u <= K and S u (1 - a) <=
    # K (1 - disc). Rounding (the four ufuncs, the intrinsic table, the up
    # child's own comparison) moves the two sides by under 24 units of
    # roundoff (2^-53) of K. So where every contract of the chunk has
    # (1 - disc) (1 - 1/u) >= 2^-40, some 300 times that, the maximum returns
    # the intrinsic value bit for bit. The guard needs r > 0; a chunk with a
    # tiny or nonpositive r fails it and runs untrimmed.
    # If rows [0, low) of a level are exercised for every contract, the next
    # level skips rows [0, low - 1) and writes the intrinsic value into row
    # low - 2, the one skipped row the level after it reads. The rows are
    # compared with their intrinsic values every _REMEASURE levels from the
    # level below the terminal one (when q > r, a payoff row above K r/q is
    # not exercised in this sense); in between, the skipped prefix shrinks by
    # one row a level, so the bookkeeping costs O(1) a level.
    trim = steps > 1 and bool(((1.0 - discount) * (1.0 - 1.0 / up) >= _TRIM_MARGIN).all())
    measure = steps - 1 if trim else -1  # the next level to measure
    skip = 0
    for level in range(steps - 1, -1, -1):
        nodes = min(level + 1, itm)
        rows = nodes - skip
        first = steps - level
        half = parity[first % 2]
        start = first // 2 + skip
        intrinsic = half[start : start + rows]
        node_value = value[skip:nodes]
        part = scratch[:rows]
        np.multiply(pu_rows[:rows], value[skip + 1 : nodes + 1], out=part)
        np.multiply(pd_rows[:rows], node_value, out=node_value)
        np.add(part, node_value, out=node_value)
        np.maximum(node_value, intrinsic, out=node_value)
        if skip:
            value[skip - 1] = half[start - 1]
        if level == measure:
            exercised = (node_value == intrinsic).all(axis=1)
            skip += rows if exercised.all() else int(exercised.argmin())
            measure -= _REMEASURE
        skip = max(skip - 1, 0)
    return value[0].copy()


def crr_american_put(contract: OptionContract, steps: int = DEFAULT_TREE_STEPS) -> float:
    """Price an American put by backward induction on a binomial tree.

    The result is bounded below by the immediate exercise value and above
    by the dollar strike.
    """
    steps = check_integer("steps", steps, 1)
    tree = _check_no_arbitrage(contract_terms([contract]), steps, lambda row: "contract")
    return float(_crr_put_batch(tree, steps)[0])


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
    tree = _check_no_arbitrage(params, steps)
    order = _chunk_order(params)
    del params  # the chunks are gathered from the tree alone
    size = contracts_per_chunk(steps)
    starts = range(0, len(order), size)
    # each chunk is gathered when it is priced, and its prices put in place
    chunks = (tree[:, order[i : i + size]] for i in starts)
    prices = np.empty(len(order))

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


def _chunk_order(params: np.ndarray) -> np.ndarray:
    """Contracts sorted by their exercise boundary at maturity in tree units,
    log(K min(1, r/q)) / (vol sqrt(T)), and first where r <= 0.

    Neighbours in this order exercise at nearly the same tree rows, so each
    chunk's exercise trim is tight, and the contracts with r <= 0, which no
    chunk trims for exercise, share chunks. (Moneyness order keeps the zero
    trim tighter, which wins only on shallow trees.) Columns never mix, so
    the order does not change the bits.
    """
    strike, months, r, q, vol = params.T
    positive = r > 0.0
    key = np.ones(len(params))
    np.divide(r, q, out=key, where=positive & (q > r))
    key *= strike
    np.log(key, out=key)
    key /= vol
    key /= np.sqrt(months)
    key[~positive] = -np.inf
    return np.argsort(key)


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


def write_priced_csv(path, contracts, prices) -> None:
    """Write contracts and prices as CSV with header ``K,T,r,q,sigma,price``,
    formatting one block of ``BLOCK_ROWS`` rows at a time. A price or a
    table that :func:`read_priced_csv` would reject, such as one without
    rows, is rejected before the file is opened."""
    terms = contract_terms(contracts)
    prices = check_nonnegative("price", prices)
    if prices.shape != (len(terms),):
        raise ValueError("contracts and prices must have equal length")
    if not len(terms):
        raise ValueError(f"no rows to write below the {PRICED_CSV_HEADER!r} header")
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
    return contract_terms(table[:, :5], line), check_nonnegative("price", table[:, 5], line)
