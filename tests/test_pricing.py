import itertools
import math
import multiprocessing
import re

import numpy as np
import pytest

from errortail import pricing
from errortail.pricing import (
    CHUNK_NODES,
    C_TEST,
    C_TRAIN,
    DomainBox,
    OptionContract,
    bs_european_put,
    contract_terms,
    contracts_per_chunk,
    crr_american_put,
    price_contracts,
    read_priced_csv,
    sample_uniform,
    write_priced_csv,
)
from errortail.rng import generator

TREE_TOL = 0.02  # USD, discretization error budget at 1000 steps
VALID_TERMS = (1.0, 12.0, 0.02, 0.0, 0.2)
# terms that break the contract rule, and the message naming the field
RULE_BREAKS = [
    pytest.param((1.0, 12.0, math.nan, 0.0, 0.2), "rate must be finite", id="nan-rate"),
    pytest.param((1.0, 12.0, -math.inf, 0.0, 0.2), "rate must be finite", id="inf-rate"),
    pytest.param((0.0, 12.0, 0.02, 0.0, 0.2), "strike_pct must be positive", id="zero-K"),
    pytest.param((-1.0, 12.0, 0.02, 0.0, 0.2), "strike_pct must be positive", id="negative-K"),
    pytest.param((1.0, 0.0, 0.02, 0.0, 0.2), "maturity_months must be positive", id="zero-T"),
    pytest.param((1.0, -3.0, 0.02, 0.0, 0.2), "maturity_months must be positive", id="negative-T"),
    pytest.param((1.0, 12.0, 0.02, 0.0, 0.0), "volatility must be positive", id="zero-vol"),
    pytest.param((1.0, 12.0, 0.02, 0.0, math.nan), "volatility must be finite", id="nan-vol"),
]


def random_contracts(box: DomainBox, count: int, seed: int) -> list[OptionContract]:
    return sample_uniform(box, count, seed)


def row_major_oracle(params: np.ndarray, steps: int) -> np.ndarray:
    """The tree kernel as first written: one contract per row, every node
    updated at every level. Kept frozen as the bit-identity reference."""
    strike = params[:, 0] * 100.0
    dt = (params[:, 1] / 12.0) / steps
    r, q, vol = params[:, 2], params[:, 3], params[:, 4]
    up = np.exp(vol * np.sqrt(dt))
    down = 1.0 / up
    growth = np.exp((r - q) * dt)
    prob_up = (growth - down) / (up - down)
    discount = np.exp(-r * dt)
    pu = (discount * prob_up)[:, None]
    pd = (discount * (1.0 - prob_up))[:, None]
    strike_col = strike[:, None]
    powers = 100.0 * up[:, None] ** np.arange(-steps, steps + 1)[None, :]
    value = np.maximum(strike_col - powers[:, ::2], 0.0)
    for level in range(steps - 1, -1, -1):
        value = pu * value[:, 1 : level + 2] + pd * value[:, : level + 1]
        stock = powers[:, steps - level : steps + level + 1 : 2]
        np.maximum(value, strike_col - stock, out=value)
    return value[:, 0]


def mixed_moneyness_contracts(steps: int) -> np.ndarray:
    """More than two chunks at ``steps`` in shuffled order:

    - the training box, and deep in-the-money puts;
    - enough deep out-of-the-money puts (price exactly 0.0) that one chunk
      has no node in the money;
    - the exercise trim's thinnest margins: deep in-the-money puts with
      q > r whose exercise boundary K r/q lies near the spot, at vol 0.01
      and four- to five-year maturities, and deep in-the-money puts with
      q = 0 whose rate puts the trim's guard just above its bound;
    - more than a chunk of puts with r <= 0, deep in-the-money ones among
      them, which sort first and are never trimmed for exercise, and beside
      them puts with r from 1e-300 to 1e-8.
    """
    g = generator(17)
    chunk = contracts_per_chunk(steps)
    box = contract_terms(sample_uniform(C_TRAIN, chunk, seed=18))
    deep_out = contract_terms(sample_uniform(C_TRAIN, chunk + 3, seed=19))
    deep_out[:, 0] = g.uniform(0.02, 0.05, len(deep_out))
    deep_out[:, 4] = g.uniform(0.05, 0.1, len(deep_out))
    deep_in = contract_terms(sample_uniform(C_TRAIN, 40, seed=20))
    deep_in[:, 0] = g.uniform(2.0, 4.0, len(deep_in))
    # q - r stays below vol / sqrt(T), so even a one-step tree admits no arbitrage
    thin = np.empty((60, 5))
    thin[:, 2] = g.uniform(0.001, 0.0015, len(thin))
    thin[:, 3] = thin[:, 2] * g.uniform(2.0, 3.5, len(thin))
    thin[:, 0] = thin[:, 3] / thin[:, 2] * g.uniform(0.97, 1.03, len(thin))
    thin[:, 1] = g.uniform(48.0, 60.0, len(thin))
    thin[:, 4] = 0.01
    # q = 0, so every deep in-the-money node is exercised, by the margin
    # K (1 - disc) ~ K r dt: r puts the trim's guard (1 - disc)(1 - 1/up),
    # about r dt vol sqrt(dt), just above its bound of 2^-40
    edge = np.empty((40, 5))
    edge[:, 0] = g.uniform(2.0, 4.0, len(edge))
    edge[:, 1] = g.uniform(48.0, 60.0, len(edge))
    edge[:, 3] = 0.0
    edge[:, 4] = 0.01
    dt = edge[:, 1] / 12.0 / steps
    edge[:, 2] = 2.0 ** g.uniform(-39.0, -36.0, len(edge)) / (dt * 0.01 * np.sqrt(dt))
    tiny_rate = contract_terms(sample_uniform(C_TRAIN, 40, seed=21))
    tiny_rate[:, 2] = 10.0 ** g.uniform(-300.0, -8.0, len(tiny_rate))
    no_rate = contract_terms(sample_uniform(C_TRAIN, chunk + 3, seed=22))
    no_rate[:, 2] = g.uniform(-0.02, 0.0, len(no_rate))
    no_rate[::2, 2] = 0.0
    no_rate[:, 3] = g.uniform(0.0, 0.02, len(no_rate))
    # with r = q = 0 a deep in-the-money node's continuation equals its
    # intrinsic value up to rounding, so trimming these would change bits
    flat = contract_terms(sample_uniform(C_TRAIN, 40, seed=23))
    flat[:, 0] = g.uniform(2.5, 4.0, len(flat))
    flat[:, 2:4] = 0.0
    contracts = np.concatenate([box, deep_out, deep_in, thin, edge, tiny_rate, no_rate, flat])
    return contracts[g.permutation(len(contracts))]


def peizer_pratt(z: np.ndarray, steps: int) -> np.ndarray:
    """Peizer-Pratt method 2 inversion: the probability h(z) of a binomial
    law of ``steps`` trials that matches the normal law at z."""
    t = z / (steps + 1.0 / 3.0 + 0.1 / (steps + 1.0))
    return 0.5 + np.sign(z) * 0.5 * np.sqrt(-np.expm1(-t * t * (steps + 1.0 / 6.0)))


def leisen_reimer_put(terms: np.ndarray, steps: int) -> np.ndarray:
    """American puts on a Leisen-Reimer tree of an odd number of steps, one
    contract per column: up-probability h(d2), up factor e^((r-q) dt) h(d1) /
    h(d2) and the down factor that keeps the drift. An independent reference
    for the CRR kernel (Leisen & Reimer 1996, Applied Mathematical Finance
    3(4))."""
    strike = terms[:, 0] * 100.0
    years = terms[:, 1] / 12.0
    r, q, vol = terms[:, 2], terms[:, 3], terms[:, 4]
    dt = years / steps
    spread = vol * np.sqrt(years)
    d1 = (np.log(100.0 / strike) + (r - q + 0.5 * vol * vol) * years) / spread
    p = peizer_pratt(d1 - spread, steps)
    growth = np.exp((r - q) * dt)
    up = growth * peizer_pratt(d1, steps) / p
    down = (growth - p * up) / (1.0 - p)
    j = np.arange(steps + 1)[:, None]
    stock = 100.0 * np.exp(j * np.log(up) + (steps - j) * np.log(down))
    value = np.maximum(strike - stock, 0.0)
    # same-shape operands, so each numpy call runs one flat loop
    pu, pd, strikes, shrink, scratch = np.empty((5, *value.shape))
    pu[...] = np.exp(-r * dt) * p
    pd[...] = np.exp(-r * dt) * (1.0 - p)
    strikes[...] = strike
    shrink[...] = 1.0 / down
    for level in range(steps - 1, -1, -1):
        n = level + 1
        v, part = value[:n], scratch[:n]
        np.multiply(pu[:n], value[1 : n + 1], out=part)
        np.multiply(pd[:n], v, out=v)
        v += part
        np.multiply(stock[:n], shrink[:n], out=stock[:n])  # S u^j d^(level - j)
        np.subtract(strikes[:n], stock[:n], out=part)
        np.maximum(v, part, out=v)
    return value[0].copy()


class TestContractValidation:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="strike_pct"):
            OptionContract(0.0, 12.0, 0.02, 0.0, 0.2)
        with pytest.raises(ValueError, match="maturity"):
            OptionContract(1.0, 0.0, 0.02, 0.0, 0.2)
        with pytest.raises(ValueError, match="volatility"):
            OptionContract(1.0, 12.0, 0.02, 0.0, 0.0)

    @pytest.mark.parametrize("terms, message", RULE_BREAKS)
    def test_one_rule_for_a_contract_and_an_array(self, terms, message):
        with pytest.raises(ValueError, match=message):
            OptionContract(*terms)
        with pytest.raises(ValueError, match=f"row 1: {message}"):
            contract_terms(np.array([VALID_TERMS, terms]))

    def test_rejects_four_terms(self):
        with pytest.raises(TypeError, match="volatility"):
            OptionContract(*VALID_TERMS[:4])
        with pytest.raises(ValueError, match=r"shape \(n, 5\), got \(2, 4\)"):
            contract_terms(np.array([VALID_TERMS[:4]] * 2))

    def test_box_bounds(self):
        with pytest.raises(ValueError, match="lower < upper"):
            DomainBox(lower=(1, 11, 0, 0, 0.1), upper=(1, 12, 1, 1, 0.5))

    def test_test_box_inside_train_box(self):
        assert all(l1 <= l2 for l1, l2 in zip(C_TRAIN.lower, C_TEST.lower))
        assert all(u1 >= u2 for u1, u2 in zip(C_TRAIN.upper, C_TEST.upper))


class TestTreePricer:
    def test_zero_rate_matches_european_closed_form(self):
        contract = OptionContract(1.0, 12.0, 0.0, 0.0, 0.2)
        tree = crr_american_put(contract, steps=1000)
        closed = bs_european_put(contract)
        assert abs(tree - closed) <= TREE_TOL

    def test_zero_rate_with_dividends_matches_european(self):
        g = generator(21)
        for _ in range(20):
            contract = OptionContract(
                strike_pct=float(g.uniform(0.4, 1.6)),
                maturity_months=float(g.uniform(11, 12)),
                rate=0.0,
                dividend_yield=float(g.uniform(0.0, 0.05)),
                volatility=float(g.uniform(0.05, 0.55)),
            )
            tree = crr_american_put(contract, steps=1000)
            closed = bs_european_put(contract)
            assert abs(tree - closed) <= TREE_TOL

    def test_intrinsic_lower_bound_deep_in_the_money(self):
        contract = OptionContract(1.6, 12.0, 0.02, 0.0, 0.05)
        assert crr_american_put(contract, steps=1000) >= 60.0

    def test_price_within_strike_bound(self):
        for contract in random_contracts(C_TRAIN, 50, seed=3):
            price = crr_american_put(contract, steps=200)
            assert 0.0 <= price <= contract.strike_pct * 100.0

    def test_self_convergence(self):
        contract = OptionContract(1.0, 12.0, 0.05, 0.0, 0.2)
        prices = [crr_american_put(contract, s) for s in (500, 1000, 2000)]
        assert abs(prices[1] - prices[0]) < TREE_TOL
        assert abs(prices[2] - prices[1]) < TREE_TOL

    def test_american_dominates_european(self):
        contracts = random_contracts(C_TRAIN, 60, seed=4)
        tree = price_contracts(contracts, steps=1000)
        for contract, amer in zip(contracts, tree):
            eur = bs_european_put(contract)
            assert eur >= 0.0
            assert amer >= eur - TREE_TOL

    def test_monotone_in_strike(self):
        g = generator(5)
        for _ in range(40):
            base = random_contracts(C_TRAIN, 1, seed=int(g.integers(1 << 30)))[0]
            bump = min(1.6 - base.strike_pct, 0.1) or 0.05
            higher = OptionContract(
                base.strike_pct + bump,
                base.maturity_months,
                base.rate,
                base.dividend_yield,
                base.volatility,
            )
            assert crr_american_put(higher, 500) >= crr_american_put(base, 500) - 1e-9

    def test_monotone_in_volatility(self):
        g = generator(6)
        for _ in range(40):
            base = random_contracts(C_TRAIN, 1, seed=int(g.integers(1 << 30)))[0]
            bump = 0.02 + float(g.uniform(0.0, 0.05))
            higher = OptionContract(
                base.strike_pct,
                base.maturity_months,
                base.rate,
                base.dividend_yield,
                base.volatility + bump,
            )
            assert crr_american_put(higher, 500) >= crr_american_put(base, 500) - 1e-9

    def test_batch_matches_scalar_bitwise(self):
        contracts = random_contracts(C_TRAIN, 30, seed=7)
        batch = price_contracts(contracts, steps=100)
        scalar = np.array([crr_american_put(c, 100) for c in contracts])
        assert np.array_equal(batch, scalar)

    def test_workers_do_not_change_bits(self, force_pool):
        # more than two chunks, the last one short, so the pool path runs
        steps = 100
        contracts = random_contracts(C_TRAIN, 2 * contracts_per_chunk(steps) + 5, seed=9)
        serial = price_contracts(contracts, steps)
        scalar = np.array([crr_american_put(c, steps) for c in contracts])
        assert np.array_equal(serial, scalar)
        force_pool()
        assert np.array_equal(price_contracts(contracts, steps), serial)

    @pytest.mark.parametrize("steps", [1, 2, 20, 37, 500, 1000])
    def test_matches_row_major_oracle_bitwise(self, steps, force_pool):
        contracts = mixed_moneyness_contracts(steps)
        oracle = row_major_oracle(contracts, steps)
        chunk = contracts_per_chunk(steps)
        assert len(contracts) > 2 * chunk
        deep_out = contracts[:, 0] <= 0.05
        assert np.count_nonzero(deep_out) > chunk and np.all(oracle[deep_out] == 0.0)
        assert np.all(oracle[contracts[:, 0] >= 2.0] > 0.0)
        assert np.array_equal(price_contracts(contracts, steps), oracle)
        scalar = [crr_american_put(OptionContract._make(t), steps) for t in contracts.tolist()]
        assert np.array_equal(scalar, oracle)
        force_pool()
        assert np.array_equal(price_contracts(contracts, steps), oracle)

    def test_deterministic(self):
        contract = OptionContract(0.9, 11.5, 0.02, 0.01, 0.3)
        assert crr_american_put(contract, 777) == crr_american_put(contract, 777)

    def test_rejects_arbitrage_discretization(self):
        # a huge dividend yield pushes the up-probability below zero
        contract = OptionContract(1.0, 12.0, 0.0, 10.0, 0.05)
        with pytest.raises(ValueError, match="probability"):
            crr_american_put(contract, 12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("terms", [
        pytest.param((1.0, 12.0, 0.02, 0.0, 1e-20), id="tiny-vol"),
        pytest.param((1.0, 1e-300, 0.02, 0.0, 0.2), id="tiny-maturity"),
    ])
    def test_rejects_degenerate_tree_by_row_without_warning(self, terms):
        # vol * sqrt(dt) below the float resolution: the up factor rounds to
        # 1, up - down is 0 and the up-probability is undefined
        degenerate = "the up factor rounds to 1, so the tree is degenerate$"
        named = rf"^row 1: .*{re.escape(str(list(terms)))} at 12 steps; {degenerate}"
        with pytest.raises(ValueError, match=named):
            price_contracts([VALID_TERMS, terms, VALID_TERMS], steps=12)
        with pytest.raises(ValueError, match=f"^contract: .*{degenerate}"):
            crr_american_put(OptionContract(*terms), 12)

    def test_train_box_corners_admit_no_arbitrage(self):
        # every corner of the training box keeps the up-probability in [0, 1]
        # once the tree has at least monthly steps
        corners = [
            OptionContract(*point)
            for point in itertools.product(*zip(C_TRAIN.lower, C_TRAIN.upper))
        ]
        prices = price_contracts(corners, steps=12)
        assert prices.shape == (32,)
        assert np.all(prices >= 0.0)

    def test_arbitrage_is_checked_in_caller_order_before_any_pricing(
        self, monkeypatch, force_pool
    ):
        # two bad rows in different chunks; the later row (r = 0) sorts
        # first, so a per-chunk check would name it
        steps = 500
        chunk = contracts_per_chunk(steps)
        terms = contract_terms(random_contracts(C_TEST, 3 * chunk, seed=12))
        early, late = 5, len(terms) - 5
        terms[early] = (1.4, 12.0, 50.0, 0.0, 0.1)
        terms[late] = (0.6, 12.0, 0.0, 50.0, 0.1)
        rank = np.argsort(pricing._chunk_order(terms))
        assert rank[late] // chunk < rank[early] // chunk

        def fail(*args, **kwargs):
            raise AssertionError("pricing started before the check")

        monkeypatch.setattr(pricing, "ProcessPoolExecutor", fail)
        monkeypatch.setattr(pricing, "_crr_put_batch", fail)
        message = rf"^row {early}: .*probability .*\[1\.4, 12\.0, 50\.0, 0\.0, 0\.1\]"
        with pytest.raises(ValueError, match=message):
            price_contracts(terms, steps)
        force_pool()
        with pytest.raises(ValueError, match=message):
            price_contracts(terms, steps)

    def test_rejects_bad_steps(self):
        contract = OptionContract(1.0, 12.0, 0.02, 0.0, 0.2)
        for steps, error in [
            (True, TypeError), (2.5, TypeError), (2.0, TypeError), (0, ValueError), (-1, ValueError)
        ]:
            with pytest.raises(error, match="steps"):
                crr_american_put(contract, steps)
            with pytest.raises(error, match="steps"):
                price_contracts([contract], steps=steps)

    def test_pool_has_at_most_one_process_per_chunk(self, monkeypatch, force_pool, pools):
        # a real pool forks every process at once
        monkeypatch.setattr(pricing, "CHUNK_NODES", 3 * 21)  # 3 contracts at 20 steps
        terms = contract_terms(random_contracts(C_TEST, 7, seed=13))  # 3 chunks
        serial = price_contracts(terms, 20)
        force_pool()
        for cores in (8, 2, 1):
            monkeypatch.setattr(pricing, "usable_cores", lambda: cores)
            assert np.array_equal(price_contracts(terms, 20), serial)
        assert pools == [3, 2]

    @pytest.mark.parametrize("contracts, steps, pool", [
        pytest.param(1_800, 500, [], id="experiment-ksweep-run"),
        pytest.param(100_000, 20, [], id="surrogate-cli-test-set"),
        pytest.param(1_500, 20, [], id="surrogate-cli-training-set"),
        pytest.param(60_000, 500, [2], id="desk-run-group"),
    ])
    def test_only_a_large_call_takes_the_pool(self, contracts, steps, pool, monkeypatch, pools):
        # the benchmark's calls stay in-process; a desk run's groups do not
        monkeypatch.setattr(pricing, "usable_cores", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: "fork")
        monkeypatch.setattr(pricing, "_crr_put_batch", lambda tree, steps: tree[0])
        price_contracts(np.tile(VALID_TERMS, (contracts, 1)), steps)
        assert pools == pool

    @pytest.mark.parametrize("blocker", ["daemonic", "spawn", "one-core"])
    def test_prices_serially_where_it_may_not_fork(self, blocker, monkeypatch, force_pool):
        # a daemonic process may not have children, spawn would re-import the
        # caller's main module, and one core gains nothing
        monkeypatch.setattr(pricing, "CHUNK_NODES", 3 * 21)  # 3 contracts at 20 steps
        terms = contract_terms(random_contracts(C_TEST, 7, seed=13))  # 3 chunks
        serial = price_contracts(terms, 20)
        force_pool()
        method = "spawn" if blocker == "spawn" else "fork"
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: method)
        if blocker == "daemonic":
            monkeypatch.setitem(multiprocessing.current_process()._config, "daemon", True)
        if blocker == "one-core":
            monkeypatch.setattr(pricing, "usable_cores", lambda: 1)

        def fail(*args, **kwargs):
            raise AssertionError("a pool was opened")

        monkeypatch.setattr(pricing, "ProcessPoolExecutor", fail)
        assert np.array_equal(price_contracts(terms, 20), serial)

    @pytest.mark.parametrize("steps", [1, 2, 20, 500, 1000, 65_535, 10**6])
    def test_chunk_rule_fits_the_node_budget(self, steps):
        chunk = contracts_per_chunk(steps)
        assert chunk >= 1
        if chunk > 1:
            assert (steps + 1) * chunk <= CHUNK_NODES


class TestOracleError:
    """The CRR oracle's own error on test-box contracts, against a Leisen-Reimer
    reference extrapolated as 2 P(3201) - P(1601)."""

    def test_within_its_stated_error_at_the_desk_and_paper_steps(self):
        terms = contract_terms(sample_uniform(C_TEST, 50, seed=21))
        coarse, fine = leisen_reimer_put(terms, 1601), leisen_reimer_put(terms, 3201)
        assert np.abs(fine - coarse).max() <= 5e-4
        reference = 2.0 * fine - coarse
        for steps, bound in ((500, 1.5e-2), (1000, 6e-3)):
            error = np.abs(price_contracts(terms, steps) - reference)
            assert error.max() <= bound, steps


class TestEuropeanClosedForm:
    def test_nonnegative_and_below_discounted_strike(self):
        for contract in random_contracts(C_TRAIN, 50, seed=10):
            price = bs_european_put(contract)
            strike = contract.strike_pct * 100.0
            t = contract.maturity_months / 12.0
            assert 0.0 <= price <= strike * np.exp(-contract.rate * t)

    def test_large_volatility_approaches_discounted_strike(self):
        strike_now = 100.0 * np.exp(-0.02)
        price = bs_european_put(OptionContract(1.0, 12.0, 0.02, 0.0, 40.0))
        assert price <= strike_now
        assert price >= strike_now - 1e-6


class TestSampleUniform:
    def test_containment(self):
        contracts = sample_uniform(C_TEST, 5000, seed=1)
        matrix = contract_terms(contracts)
        assert np.all(matrix >= np.asarray(C_TEST.lower))
        assert np.all(matrix <= np.asarray(C_TEST.upper))

    def test_deterministic(self):
        a = contract_terms(sample_uniform(C_TEST, 100, seed=5))
        b = contract_terms(sample_uniform(C_TEST, 100, seed=5))
        assert np.array_equal(a, b)

    def test_component_means_near_midpoints(self):
        n = 20_000
        matrix = contract_terms(sample_uniform(C_TRAIN, n, seed=2))
        lower = np.asarray(C_TRAIN.lower)
        upper = np.asarray(C_TRAIN.upper)
        mid = (lower + upper) / 2.0
        stderr = (upper - lower) / np.sqrt(12.0 * n)
        assert np.all(np.abs(matrix.mean(axis=0) - mid) <= 3.0 * stderr)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            sample_uniform(C_TEST, 0, seed=1)

    @pytest.mark.parametrize("name", ["count", "seed"])
    @pytest.mark.parametrize("value", [True, 3.0])
    def test_count_and_seed_must_be_integers(self, name, value):
        # a bool is not taken for 1, nor 3.0 for 3
        args = {"count": 3, "seed": 1, name: value}
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            sample_uniform(C_TEST, **args)


class TestPricedCsv:
    def test_round_trip(self, tmp_path):
        contracts = sample_uniform(C_TRAIN, 20, seed=11)
        prices = price_contracts(contracts, steps=50)
        path = tmp_path / "priced.csv"
        write_priced_csv(path, contracts, prices)
        back_terms, back_prices = read_priced_csv(path)
        assert np.array_equal(back_terms, contract_terms(contracts))
        assert np.array_equal(back_prices, prices)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_priced_csv(path)

    def test_names_offending_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("K,T,r,q,sigma,price\n1.0,12.0,0.02,0.0,0.2,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            read_priced_csv(path)

    def test_reports_invalid_contract_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("K,T,r,q,sigma,price\n-1.0,12.0,0.02,0.0,0.2,3.5\n")
        with pytest.raises(ValueError, match="line 2"):
            read_priced_csv(path)

    def test_names_line_of_invalid_contract_below_comments(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = "1.0,12.0,0.02,0.0,0.2,3.5\n"
        path.write_text(
            f"# steps=50\n# seed=1\nK,T,r,q,sigma,price\n{good}\n{good}"
            "1.0,12.0,0.02,0.0,0.0,3.5\n"
        )
        with pytest.raises(ValueError, match="line 7: volatility must be positive"):
            read_priced_csv(path)


# inputs rejected before any contract is priced or any row written: prices
# that do not match the contracts, and a table the reader rejects
REJECTED_BEFORE_WORK = [
    pytest.param(
        lambda path: write_priced_csv(path, [VALID_TERMS] * 2, [1.0, math.nan]), ValueError,
        "row 1: price must be finite and nonnegative, got nan", id="write-nan-price",
    ),
    pytest.param(
        lambda path: write_priced_csv(path, [VALID_TERMS] * 2, [math.inf, 1.0]), ValueError,
        "row 0: price must be finite and nonnegative, got inf", id="write-inf-price",
    ),
    pytest.param(
        lambda path: write_priced_csv(path, [VALID_TERMS] * 2, [1.0]), ValueError,
        "contracts and prices must have equal length", id="write-short-prices",
    ),
    # read_priced_csv rejects a file without rows, so none is written
    pytest.param(
        lambda path: write_priced_csv(path, np.empty((0, 5)), []), ValueError,
        "no rows to write below the 'K,T,r,q,sigma,price' header", id="write-no-rows",
    ),
]


@pytest.mark.parametrize("call, error, message", REJECTED_BEFORE_WORK)
def test_rejected_before_any_work(call, error, message, monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the check")

    monkeypatch.setattr(pricing, "ProcessPoolExecutor", fail)
    monkeypatch.setattr(pricing, "_crr_put_batch", fail)
    path = tmp_path / "priced.csv"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(path)
    assert not path.exists()
