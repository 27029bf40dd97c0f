import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from errortail import tail
from errortail.rng import generator
from errortail.tail import (
    LN2,
    DegenerateSampleError,
    ErrorSample,
    TailFit,
    cent_threshold_k,
    endpoint_estimate,
    exceedance_probability,
    exceeds_max_probability,
    markov_bound,
    mean_excess,
    read_error_csv,
    shape_estimate_known_endpoint,
    tail_fit,
    write_error_csv,
)


# Pure-python transcriptions of the estimator formulas, kept independent of
# the vectorized implementations. Order statistics are 1-based here.
def endpoint_reference(values, k):
    v = sorted(values)
    n = len(v)

    def e(pos):
        return v[pos - 1]

    weighted = sum(math.log(1.0 + 1.0 / (k + i)) * e(n - k - i) for i in range(k))
    return e(n) + e(n - k) - weighted / math.log(2.0)


def shape_reference(values, k, xstar):
    v = sorted(values)
    n = len(v)

    def e(pos):
        return v[pos - 1]

    u = e(n - k)
    return sum(math.log(1.0 - (e(n - j) - u) / (xstar - u)) for j in range(k)) / k


def hill_reference(values, k):
    """Classical log-spacing tail-index estimator on the top k values."""
    v = sorted(values)
    n = len(v)
    anchor = math.log(v[n - 1 - k])
    return sum(math.log(v[n - 1 - j]) - anchor for j in range(k)) / k


class TestErrorSample:
    def test_sorts_input(self):
        s = ErrorSample([3.0, 1.0, 2.0])
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.n == 3
        assert len(s) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ErrorSample([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ErrorSample([1.0, -0.5])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            ErrorSample([1.0, math.nan])

    def test_values_are_read_only(self):
        s = ErrorSample([3.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            s.values[0] = 0.0

    def test_csv_round_trip(self, tmp_path):
        sample = ErrorSample(generator(3).random(200) * 1e-3)
        path = tmp_path / "errors.csv"
        write_error_csv(path, sample, comments={"origin": "unit-test"})
        back = read_error_csv(path)
        assert np.array_equal(back.values, sample.values)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("mistake\n1.0\n")
        with pytest.raises(ValueError, match="header 'error'"):
            read_error_csv(path)

    def test_csv_names_offending_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("error\n1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="line 3"):
            read_error_csv(path)

    def test_csv_rejects_negative_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("error\n-1.0\n")
        with pytest.raises(ValueError, match="line 2"):
            read_error_csv(path)


class TestExceedsMaxProbability:
    def test_two_draws(self):
        assert exceeds_max_probability(1) == 0.5

    def test_hundred_draws(self):
        assert exceeds_max_probability(99) == pytest.approx(0.01, abs=1e-18)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            exceeds_max_probability(0)


class TestMarkovBound:
    def test_direct_formula(self):
        assert markov_bound(ErrorSample([1.0, 1.0, 1.0, 1.0]), 2.0, 2.0) == 0.25

    def test_zeroth_moment_gives_one(self):
        sample = ErrorSample([0.1, 0.5, 2.0])
        for x in (0.5, 1.0, 7.0):
            assert markov_bound(sample, 0.0, x) == 1.0

    def test_clamps_at_one(self):
        assert markov_bound(ErrorSample([10.0]), 1.0, 1.0) == 1.0

    def test_cent_threshold_worked_example(self):
        # singleton whose second moment is the reported mean square error
        sample = ErrorSample([math.sqrt(1.65e-8)])
        bound = markov_bound(sample, 2.0, 0.0033)
        assert bound == pytest.approx(1.65e-8 / 0.0033**2, rel=1e-12)
        assert bound == pytest.approx(1.515e-3, abs=1e-6)

    def test_rejects_bad_arguments(self):
        sample = ErrorSample([1.0])
        with pytest.raises(ValueError, match="x"):
            markov_bound(sample, 2.0, 0.0)
        with pytest.raises(ValueError, match="m"):
            markov_bound(sample, -1.0, 1.0)
        with pytest.raises(ValueError, match="x must be positive"):
            markov_bound(sample, 2.0, math.nan)
        for m in (math.nan, math.inf):
            with pytest.raises(ValueError, match="m must be finite"):
                markov_bound(sample, m, 1.0)


    def test_cached_moment_equals_the_expression_bitwise(self):
        sample = ErrorSample(generator(4).random(1001))
        for _ in range(3):  # later passes read the cache
            for m in (0, 0.5, 1, 2, 2.0, 4.0):
                for x in (0.3, 0.9):
                    want = min(1.0, float(np.mean(sample.values**m)) / x**m)
                    assert markov_bound(sample, m, x) == want

    def test_reassigned_values_give_the_new_moment(self):
        sample = ErrorSample([1.0, 2.0, 3.0])
        assert markov_bound(sample, 2.0, 10.0) == float(np.mean([1.0, 4.0, 9.0])) / 100.0
        sample.values = sample.values.copy()
        sample.values[-1] += 1.0
        assert markov_bound(sample, 2.0, 10.0) == float(np.mean([1.0, 4.0, 16.0])) / 100.0
        sample.values = np.array([5.0])
        assert markov_bound(sample, 2.0, 10.0) == 0.25


class TestEndpointEstimate:
    def test_constant_sample_returns_constant(self):
        for c in (0.0, 1.0, 3.7):
            for n, k in ((2, 1), (10, 5), (100, 7)):
                got = endpoint_estimate(ErrorSample([c] * n), k)
                assert got == pytest.approx(c, abs=1e-12)

    def test_hand_case(self):
        sample = ErrorSample([1.0, 2.0, 3.0, 4.0, 5.0])
        got = endpoint_estimate(sample, 2)
        assert got == pytest.approx(endpoint_reference([1, 2, 3, 4, 5], 2), abs=1e-12)
        assert got == pytest.approx(5.415037499278844, abs=1e-12)

    def test_matches_reference_on_random_samples(self):
        for seed in range(10):
            g = generator(seed)
            n = int(g.integers(10, 200))
            values = g.exponential(1.0, n)
            k = int(g.integers(1, n // 2 + 1))
            got = endpoint_estimate(ErrorSample(values), k)
            assert got == pytest.approx(endpoint_reference(values, k), rel=1e-12)

    def test_rejects_k_too_large(self):
        sample = ErrorSample([1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(ValueError, match="2k"):
            endpoint_estimate(sample, 3)
        with pytest.raises(ValueError):
            endpoint_estimate(sample, 0)

    def test_weight_sum_telescopes_for_every_k(self):
        worst = max(
            abs(float(np.log1p(1.0 / (k + np.arange(k))).sum()) - math.log(2.0))
            for k in range(1, 10_001)
        )
        assert worst <= 1e-12

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    def test_shared_weights_equal_fresh_weights_bitwise(self, monkeypatch, descending):
        # the weight table grows with the largest k seen, so walk k both ways
        monkeypatch.setattr(tail, "_weight_table", np.empty(0))
        sample = ErrorSample(generator(5).exponential(1.0, 2001))
        v, n = sample.values, sample.n
        path = range(n // 2, 0, -1) if descending else range(1, n // 2 + 1)
        for k in path:
            gaps = v[n - 1 - k] - v[n - 2 * k : n - k][::-1]
            want = float(v[-1] + np.log1p(1.0 / (k + np.arange(k))) / LN2 @ gaps)
            assert endpoint_estimate(sample, k) == want, k

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 300))
    def test_never_below_sample_maximum(self, seed, n):
        g = generator(seed)
        values = g.random(n) * 10.0
        k = int(g.integers(1, n // 2 + 1))
        assert endpoint_estimate(ErrorSample(values), k) >= float(np.max(values))

    def test_equality_exactly_when_window_tied(self):
        # positions 3 and 4 of six both equal 5, so the estimate collapses
        tied = ErrorSample([1.0, 2.0, 5.0, 5.0, 7.0, 9.0])
        assert endpoint_estimate(tied, 2) == pytest.approx(9.0, abs=1e-12)
        untied = ErrorSample([1.0, 2.0, 4.0, 5.0, 7.0, 9.0])
        assert endpoint_estimate(untied, 2) > 9.0


class TestShapeEstimate:
    def test_hand_case(self):
        sample = ErrorSample([1.0, 2.0, 3.0, 4.0, 5.0])
        got = shape_estimate_known_endpoint(sample, 2, 6.0)
        assert got == pytest.approx(shape_reference([1, 2, 3, 4, 5], 2, 6.0), abs=1e-12)
        assert got == pytest.approx(-0.7520386983881371, abs=1e-12)

    def test_tied_top_values_give_zero(self):
        sample = ErrorSample([1.0, 2.0, 3.0, 3.0, 3.0])
        assert shape_estimate_known_endpoint(sample, 2, 4.0) == 0.0

    def test_rejects_endpoint_at_or_below_maximum(self):
        sample = ErrorSample([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="exceed"):
            shape_estimate_known_endpoint(sample, 1, 3.0)

    def test_rejects_k_out_of_range(self):
        sample = ErrorSample([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="k"):
            shape_estimate_known_endpoint(sample, 3, 10.0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 400))
    def test_strictly_negative_on_continuous_samples(self, seed, n):
        g = generator(seed)
        values = g.exponential(1.0, n)
        k = int(g.integers(1, n))
        xstar = float(np.max(values)) * (1.0 + float(g.random()) + 1e-6)
        assert shape_estimate_known_endpoint(ErrorSample(values), k, xstar) < 0.0

    @given(seed=st.integers(0, 2**32 - 1))
    def test_negated_log_spacing_duality(self, seed):
        g = generator(seed)
        n = int(g.integers(20, 500))
        values = g.exponential(1.0, n)
        k = int(g.integers(1, max(2, n // 3)))
        xstar = float(np.max(values)) + 0.1 + float(g.random())
        direct = shape_estimate_known_endpoint(ErrorSample(values), k, xstar)
        transformed = 1.0 / (xstar - values)
        assert direct == pytest.approx(-hill_reference(transformed, k), abs=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        a=st.floats(0.1, 10.0),
        b=st.floats(0.0, 10.0),
    )
    def test_scale_and_shift_equivariance(self, seed, a, b):
        g = generator(seed)
        n = int(g.integers(10, 200))
        values = g.random(n)
        k = int(g.integers(1, n // 2 + 1))
        xstar = float(np.max(values)) + 0.5
        base_endpoint = endpoint_estimate(ErrorSample(values), k)
        moved_endpoint = endpoint_estimate(ErrorSample(a * values + b), k)
        assert moved_endpoint == pytest.approx(a * base_endpoint + b, abs=1e-12 * max(1.0, a * 20))
        base_shape = shape_estimate_known_endpoint(ErrorSample(values), k, xstar)
        moved_shape = shape_estimate_known_endpoint(
            ErrorSample(a * values + b), k, a * xstar + b
        )
        assert moved_shape == pytest.approx(base_shape, abs=1e-12)


class TestTailFit:
    def test_hand_case(self):
        fit = tail_fit(ErrorSample([1.0, 2.0, 3.0, 4.0, 5.0]), 2)
        assert fit.u == 3.0
        assert fit.xstar_hat == pytest.approx(5.415037499278844, abs=1e-12)
        ref = shape_reference([1, 2, 3, 4, 5], 2, fit.xstar_hat)
        assert fit.gamma_hat == pytest.approx(ref, abs=1e-12)
        assert fit.sigma_u == pytest.approx(-fit.gamma_hat * (fit.xstar_hat - fit.u), abs=0.0)

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            tail_fit(ErrorSample([2.0] * 20), 5)

    def test_tied_window_rejected(self):
        with pytest.raises(DegenerateSampleError, match="ties") as info:
            tail_fit(ErrorSample([1.0, 2.0, 5.0, 5.0, 7.0, 9.0]), 2)
        assert "maximum 9.0:" in str(info.value)

    def test_k_one_rejected_by_name(self):
        # at k = 1 the endpoint estimate is always the maximum, ties or not
        with pytest.raises(ValueError, match="^k must be >= 2, got 1$") as info:
            tail_fit(ErrorSample([1.0, 2.0, 3.0, 5.0]), 1)
        assert not isinstance(info.value, DegenerateSampleError)
        assert endpoint_estimate(ErrorSample([1.0, 2.0, 3.0, 5.0]), 1) == 5.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("u", math.nan),
            ("u", -math.inf),
            ("xstar_hat", math.inf),
            ("xstar_hat", math.nan),
            ("gamma_hat", -math.inf),
            # 1/gamma_hat overflows to -inf, which collapses the fitted tail to 0
            ("gamma_hat", -1e-320),
            ("gamma_hat", -5e-324),
        ],
    )
    def test_non_finite_fit_rejected_by_name(self, field, value):
        terms = dict(n=100, k=10, u=1.0, xstar_hat=2.0, gamma_hat=-0.5)
        terms[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TailFit(**terms)

    def test_smallest_representable_shape_keeps_a_tail(self):
        fit = TailFit(n=10, k=2, u=1.0, xstar_hat=2.0, gamma_hat=-1e-300)
        assert 0.0 < mean_excess(fit) < fit.xstar_hat - fit.u

    def test_plug_in_composition(self):
        values = generator(11).exponential(1.0, 500)
        fit = tail_fit(ErrorSample(values), 30)
        sample = ErrorSample(values)
        assert fit.xstar_hat == endpoint_estimate(sample, 30)
        assert fit.gamma_hat == shape_estimate_known_endpoint(sample, 30, fit.xstar_hat)

    def test_fit_invariants(self):
        fit = tail_fit(ErrorSample(generator(5).random(1000)), 40)
        assert fit.gamma_hat < 0.0
        assert fit.xstar_hat > fit.u
        assert fit.sigma_u > 0.0


class TestExceedanceProbability:
    def fit(self):
        return TailFit(n=10**4, k=100, u=1.0, xstar_hat=2.0, gamma_hat=-0.5)

    def test_equals_rate_at_threshold(self):
        fit = self.fit()
        assert exceedance_probability(fit, fit.u) == fit.k / fit.n

    def test_direct_evaluation(self):
        # 0.01 * (1 - 0.5)^(1/0.5) evaluated by hand
        assert exceedance_probability(self.fit(), 1.5) == pytest.approx(0.0025, rel=1e-12)

    def test_zero_at_and_beyond_endpoint(self):
        fit = self.fit()
        assert exceedance_probability(fit, 2.0) == 0.0
        assert exceedance_probability(fit, 5.0) == 0.0

    @pytest.mark.parametrize(
        "gamma_hat, expected", [(-1e-308, 0.0), (-1e-300, 0.0), (np.float64(-1e308), 0.2)]
    )
    def test_extreme_shapes_without_overflow_warning(self, gamma_hat, expected):
        # at -1e-308 the unclamped exponent overflows to -inf, at -1e308 the
        # clamp itself does; the suite turns either warning into an error
        fit = TailFit(n=10, k=2, u=1.0, xstar_hat=2.0, gamma_hat=gamma_hat)
        assert exceedance_probability(fit, 1.999999) == expected

    def test_rejects_below_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            exceedance_probability(self.fit(), 0.99)
        with pytest.raises(ValueError, match="threshold"):
            exceedance_probability(self.fit(), math.nan)
        with pytest.raises(ValueError, match="threshold"):
            exceedance_probability(self.fit(), np.array([1.5, math.nan]))

    def test_nonincreasing(self):
        fit = self.fit()
        x = np.linspace(fit.u, 2.5, 300)
        p = exceedance_probability(fit, x)
        assert np.all(np.diff(p) <= 0.0)
        assert np.all(p >= 0.0) and np.all(p <= fit.k / fit.n)


class TestMeanExcess:
    def test_direct_evaluation(self):
        fit = TailFit(n=100, k=10, u=1.0, xstar_hat=2.0, gamma_hat=-1.0)
        assert mean_excess(fit) == 0.5

    def test_strictly_inside_excess_interval(self):
        for seed in range(5):
            fit = tail_fit(ErrorSample(generator(seed).random(500)), 25)
            me = mean_excess(fit)
            assert 0.0 < me < fit.xstar_hat - fit.u

    def test_vanishing_excess_interval(self):
        fit = TailFit(n=100, k=10, u=1.0, xstar_hat=1.0 + 1e-12, gamma_hat=-0.5)
        assert mean_excess(fit) <= 1e-12


class TestKRules:
    def test_cent_threshold_rule(self):
        assert cent_threshold_k(100_000) == 270
        assert cent_threshold_k(20_000) == 54


# counts and k that the tail functions reject by name: a float or a bool is
# not taken for an integer
SIX = ErrorSample([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
INTEGER_BREAKS = [
    pytest.param(cent_threshold_k, (2.5,), "n must be an integer, got 2.5", id="cent-float"),
    pytest.param(cent_threshold_k, (True,), "n must be an integer, got True", id="cent-bool"),
    pytest.param(exceeds_max_probability, (2.5,), "n must be an integer, got 2.5", id="max-float"),
    pytest.param(exceeds_max_probability, (True,), "n must be an integer, got True", id="max-bool"),
    pytest.param(tail_fit, (SIX, 2.0), "k must be an integer, got 2.0", id="tail_fit"),
    pytest.param(endpoint_estimate, (SIX, 2.0), "k must be an integer, got 2.0", id="endpoint"),
    pytest.param(
        shape_estimate_known_endpoint, (SIX, 2.0, 7.0), "k must be an integer, got 2.0",
        id="shape",
    ),
]


@pytest.mark.parametrize("function, args, message", INTEGER_BREAKS)
def test_integer_rule_rejects_by_name(function, args, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        function(*args)
