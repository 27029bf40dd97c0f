import itertools
import math

import numpy as np
import pytest

from errortail.pricing import (
    CHUNK_SIZE,
    C_TEST,
    C_TRAIN,
    DomainBox,
    OptionContract,
    bs_european_put,
    contract_terms,
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
        contracts = random_contracts(C_TRAIN, 2 * CHUNK_SIZE + 5, seed=9)
        serial = price_contracts(contracts, steps=4)
        scalar = np.array([crr_american_put(c, 4) for c in contracts])
        assert np.array_equal(serial, scalar)
        assert np.array_equal(price_contracts(contracts, steps=4, workers=2), serial)

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

    def test_rejects_bad_steps(self):
        contract = OptionContract(1.0, 12.0, 0.02, 0.0, 0.2)
        with pytest.raises(ValueError, match="steps"):
            crr_american_put(contract, 0)
        with pytest.raises(ValueError, match="steps"):
            price_contracts([contract], steps=0)


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


class TestPricedCsv:
    def test_round_trip(self, tmp_path):
        contracts = sample_uniform(C_TRAIN, 20, seed=11)
        prices = price_contracts(contracts, steps=50)
        path = tmp_path / "priced.csv"
        write_priced_csv(path, contracts, prices, comments={"steps": 50})
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
