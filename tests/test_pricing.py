import itertools
import math

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
    """More than two chunks at ``steps`` in shuffled order: the training box,
    deep in-the-money puts, and enough deep out-of-the-money puts (price
    exactly 0.0) that one chunk sorted by moneyness has no node in the money."""
    g = generator(17)
    chunk = contracts_per_chunk(steps)
    box = contract_terms(sample_uniform(C_TRAIN, chunk, seed=18))
    deep_out = contract_terms(sample_uniform(C_TRAIN, chunk + 3, seed=19))
    deep_out[:, 0] = g.uniform(0.02, 0.05, len(deep_out))
    deep_out[:, 4] = g.uniform(0.05, 0.1, len(deep_out))
    deep_in = contract_terms(sample_uniform(C_TRAIN, 40, seed=20))
    deep_in[:, 0] = g.uniform(2.0, 4.0, len(deep_in))
    contracts = np.concatenate([box, deep_out, deep_in])
    return contracts[g.permutation(len(contracts))]


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

    def test_workers_do_not_change_bits(self):
        # more than two chunks, the last one short, so the pool path runs
        steps = 100
        contracts = random_contracts(C_TRAIN, 2 * contracts_per_chunk(steps) + 5, seed=9)
        serial = price_contracts(contracts, steps)
        scalar = np.array([crr_american_put(c, steps) for c in contracts])
        assert np.array_equal(serial, scalar)
        assert np.array_equal(price_contracts(contracts, steps, workers=2), serial)

    @pytest.mark.parametrize("steps", [1, 2, 20, 37, 500, 1000])
    def test_matches_row_major_oracle_bitwise(self, steps):
        contracts = mixed_moneyness_contracts(steps)
        oracle = row_major_oracle(contracts, steps)
        chunk = contracts_per_chunk(steps)
        assert len(contracts) > 2 * chunk
        deep_out = contracts[:, 0] <= 0.05
        assert np.count_nonzero(deep_out) > chunk and np.all(oracle[deep_out] == 0.0)
        assert np.all(oracle[contracts[:, 0] >= 2.0] > 0.0)
        assert np.array_equal(price_contracts(contracts, steps), oracle)
        assert np.array_equal(price_contracts(contracts, steps, workers=2), oracle)
        scalar = [crr_american_put(OptionContract._make(t), steps) for t in contracts.tolist()]
        assert np.array_equal(scalar, oracle)

    def test_deterministic(self):
        contract = OptionContract(0.9, 11.5, 0.02, 0.01, 0.3)
        assert crr_american_put(contract, 777) == crr_american_put(contract, 777)

    def test_rejects_arbitrage_discretization(self):
        # a huge dividend yield pushes the up-probability below zero
        contract = OptionContract(1.0, 12.0, 0.0, 10.0, 0.05)
        with pytest.raises(ValueError, match="probability"):
            crr_american_put(contract, 12)

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

    def test_arbitrage_is_checked_in_caller_order_before_any_pricing(self, monkeypatch):
        # two bad rows in different chunks; the later row sorts first by
        # moneyness (lower strike), so a per-chunk check would name it
        steps = 500
        chunk = contracts_per_chunk(steps)
        terms = contract_terms(random_contracts(C_TEST, 3 * chunk, seed=12))
        early, late = 5, len(terms) - 5
        terms[early] = (1.4, 12.0, 0.0, 50.0, 0.1)
        terms[late] = (0.6, 12.0, 0.0, 50.0, 0.1)
        order = np.argsort(np.log(terms[:, 0]) / (terms[:, 4] * np.sqrt(terms[:, 1])))
        rank = np.argsort(order)
        assert rank[late] // chunk < rank[early] // chunk

        def fail(*args, **kwargs):
            raise AssertionError("pricing started before the check")

        monkeypatch.setattr(pricing, "ProcessPoolExecutor", fail)
        monkeypatch.setattr(pricing, "_crr_put_batch", fail)
        message = rf"^row {early}: .*probability .*\[1\.4, 12\.0, 0\.0, 50\.0, 0\.1\]"
        for workers in (None, 2):
            with pytest.raises(ValueError, match=message):
                price_contracts(terms, steps, workers=workers)

    def test_rejects_bad_steps(self):
        contract = OptionContract(1.0, 12.0, 0.02, 0.0, 0.2)
        for steps, error in [
            (True, TypeError), (2.5, TypeError), (2.0, TypeError), (0, ValueError), (-1, ValueError)
        ]:
            with pytest.raises(error, match="steps"):
                crr_american_put(contract, steps)
            with pytest.raises(error, match="steps"):
                price_contracts([contract], steps=steps)

    @pytest.mark.parametrize("steps", [1, 2, 20, 500, 1000, 65_535, 10**6])
    def test_chunk_rule_fits_the_node_budget(self, steps):
        chunk = contracts_per_chunk(steps)
        assert chunk >= 1
        if chunk > 1:
            assert (steps + 1) * chunk <= CHUNK_NODES


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
