import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from errortail.gpd import GpdParams, gpd_cdf, gpd_quantile, gpd_sample

PARAM_GRID = [
    GpdParams(gamma, sigma)
    for gamma in (-1.0, -0.5, -0.1, 0.0, 0.1)
    for sigma in (0.5, 1.0, 5.0)
]


def ks_distance(sorted_sample: np.ndarray, params: GpdParams) -> float:
    """Kolmogorov distance between the empirical and the analytic cdf."""
    n = sorted_sample.size
    f = gpd_cdf(params, sorted_sample)
    i = np.arange(1, n + 1)
    return max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))


class TestParams:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            GpdParams(gamma=-0.5, sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            GpdParams(gamma=0.1, sigma=-1.0)


class TestCdf:
    def test_zero_at_origin(self):
        assert gpd_cdf(GpdParams(-0.5, 1.0), 0.0) == 0.0

    def test_one_at_and_beyond_endpoint(self):
        params = GpdParams(-0.5, 1.0)
        assert gpd_cdf(params, 2.0) == 1.0
        assert gpd_cdf(params, 3.0) == 1.0

    def test_mid_support_value(self):
        # 1 - (1 - 0.5 * 1)^(1/0.5) = 1 - 0.25, evaluated by hand
        assert gpd_cdf(GpdParams(-0.5, 1.0), 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_strictly_increasing_inside_support(self):
        params = GpdParams(-0.5, 1.0)
        x = np.linspace(0.0, 2.0, 201)
        f = gpd_cdf(params, x)
        assert np.all(np.diff(f) > 0.0)

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gpd_cdf(GpdParams(-0.5, 1.0), -0.1)

    def test_exponential_branch(self):
        params = GpdParams(0.0, 2.0)
        x = np.array([0.0, 1.0, 5.0])
        np.testing.assert_allclose(gpd_cdf(params, x), 1.0 - np.exp(-x / 2.0), rtol=1e-15)

    def test_continuity_in_gamma_near_zero(self):
        for sigma in (0.5, 1.0, 5.0):
            x = np.linspace(0.0, 10.0 * sigma, 101)
            base = gpd_cdf(GpdParams(0.0, sigma), x)
            for gamma in (1e-9, -1e-9):
                close = gpd_cdf(GpdParams(gamma, sigma), x)
                assert np.max(np.abs(close - base)) <= 1e-7

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [0.0, 0.5, -0.5])
    def test_one_without_warning_where_x_over_sigma_overflows(self, gamma):
        params = GpdParams(gamma, 1e-310)
        assert gpd_cdf(params, 1e10) == 1.0
        assert np.array_equal(gpd_cdf(params, np.array([0.0, 1e10])), [0.0, 1.0])


class TestQuantile:
    def test_zero_at_p_zero(self):
        for params in PARAM_GRID:
            assert gpd_quantile(params, 0.0) == 0.0

    def test_exponential_unit_quantile(self):
        p = 1.0 - math.exp(-1.0)
        assert gpd_quantile(GpdParams(0.0, 1.0), p) == pytest.approx(1.0, abs=1e-15)

    def test_inverts_mid_support_cdf(self):
        assert gpd_quantile(GpdParams(-0.5, 1.0), 0.75) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_p_outside_unit_interval(self):
        params = GpdParams(-0.5, 1.0)
        for p in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                gpd_quantile(params, p)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "params", [GpdParams(5.0, 1e307), GpdParams(1e300, 1.0), GpdParams(0.0, 1e308)]
    )
    def test_quantile_beyond_the_float_range_is_inf_without_warning(self, params):
        p = np.array([0.0, 0.5, 0.99])
        out = gpd_quantile(params, p)
        assert out[0] == 0.0 and np.all(np.isposinf(out[2:]))
        assert gpd_quantile(params, 0.99) == math.inf

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-11, -1e-11])
    def test_zero_at_p_zero_where_sigma_over_gamma_overflows(self, gamma):
        params = GpdParams(gamma, 1e300)
        assert gpd_quantile(params, 0.0) == 0.0
        out = gpd_quantile(params, np.array([0.0, 0.5]))
        assert out[0] == 0.0 and math.isfinite(out[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", [1e-11, -1e-11])
    def test_finite_quantile_where_sigma_over_gamma_overflows(self, gamma):
        # (sigma / gamma) expm1(-gamma L) = -sigma L expm1(y) / y with
        # L = log(1 - p) and y = -gamma L, whose factors stay in range
        params = GpdParams(gamma, 1e300)
        log_q = math.log1p(-0.5)
        y = -gamma * log_q
        want = -params.sigma * log_q * (math.expm1(y) / y)
        assert want == pytest.approx(6.93e299, rel=1e-3)
        assert gpd_quantile(params, 0.5) == pytest.approx(want, rel=1e-12, abs=0.0)
        draws = gpd_sample(params, 1000, seed=4)
        assert np.isfinite(draws).all() and draws.max() > 1e300

    @pytest.mark.filterwarnings("error")
    def test_quantiles_keep_the_bits_of_the_closed_form(self):
        # the closed form as first written, frozen, on every law where
        # sigma / gamma is finite; it gave nan at p = 0 where sigma / gamma
        # overflows, and inf for every p > 0 there (see the test above)
        p = np.random.default_rng(3).random(1000)
        p[0] = 0.0
        for params in PARAM_GRID + [GpdParams(5.0, 1e307), GpdParams(1e-11, 1.0)]:
            g, s = params.gamma, params.sigma
            with np.errstate(over="ignore", invalid="ignore"):
                if g == 0.0:
                    frozen = -s * np.log1p(-p)
                else:
                    frozen = (s / g) * np.expm1(-g * np.log1p(-p))
            out = gpd_quantile(params, p)
            assert out[0] == 0.0 and np.array_equal(out[1:], frozen[1:])

    @pytest.mark.filterwarnings("error")
    def test_sample_beyond_the_float_range_names_the_law(self):
        message = "a draw of the GPD with gamma=5.0 and sigma=1e+307 exceeds the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gpd_sample(GpdParams(5.0, 1e307), 50, seed=1)

    def test_round_trip_on_grid(self):
        p = np.arange(0.0, 1.0, 0.01)
        for params in PARAM_GRID:
            back = gpd_cdf(params, gpd_quantile(params, p))
            assert np.max(np.abs(back - p)) <= 1e-12


@given(
    gamma=st.floats(-3.0, 3.0),
    sigma=st.floats(0.1, 10.0),
    p=st.floats(0.0, 0.99),
)
def test_round_trip_property(gamma, sigma, p):
    params = GpdParams(gamma, sigma)
    assert abs(gpd_cdf(params, gpd_quantile(params, p)) - p) <= 1e-10


class TestSample:
    def test_support_containment(self):
        params = GpdParams(-0.5, 1.0)
        draws = gpd_sample(params, 10**5, seed=1)
        assert draws.shape == (10**5,)
        assert np.all(draws >= 0.0)
        assert np.all(draws <= 2.0)

    def test_deterministic(self):
        params = GpdParams(-0.5, 1.0)
        a = gpd_sample(params, 1000, seed=7)
        b = gpd_sample(params, 1000, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        params = GpdParams(-0.5, 1.0)
        assert not np.array_equal(
            gpd_sample(params, 1000, seed=7), gpd_sample(params, 1000, seed=8)
        )

    def test_kolmogorov_distance(self):
        for params in (GpdParams(-0.5, 1.0), GpdParams(0.0, 1.0), GpdParams(0.1, 2.0)):
            draws = np.sort(gpd_sample(params, 10**5, seed=1))
            assert ks_distance(draws, params) < 0.01

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="count"):
            gpd_sample(GpdParams(-0.5, 1.0), 0, seed=1)

    @pytest.mark.parametrize(
        "count, seed, message",
        [
            # a bool seed is not taken for seed 1
            pytest.param(3, True, "seed must be an integer, got True", id="bool-seed"),
            pytest.param(2.0, 0, "count must be an integer, got 2.0", id="float-count"),
        ],
    )
    def test_integer_rule_rejects_by_name(self, count, seed, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            gpd_sample(GpdParams(-0.5, 1.0), count, seed)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)], ids=["int", "numpy-int"])
    def test_negative_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
            gpd_sample(GpdParams(-0.5, 1.0), 3, seed)
