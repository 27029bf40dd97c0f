"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. The two
heaviest criteria share one desk-scale experiment run; the determinism
criterion repeats it with an identical configuration.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from errortail.experiment import FIGURE_HEADER, desk_scale_config, run_experiment
from errortail.gpd import GpdParams, gpd_cdf, gpd_quantile, gpd_sample
from errortail.mlp import gradient, init_model, scale_targets, _forward_raw
from errortail.pricing import (
    C_TRAIN,
    DomainBox,
    OptionContract,
    bs_european_put,
    price_contracts,
    sample_uniform,
)
from errortail.rng import generator
from errortail.tail import (
    ErrorSample,
    endpoint_estimate,
    exceedance_probability,
    markov_bound,
    shape_estimate_known_endpoint,
    tail_fit,
)
from errortail.textio import read_table

TREE_TOL = 0.02  # USD


def _verdict(num: int, label: str, ok: bool, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({time.perf_counter() - started:.1f}s) {label}")
    assert ok, f"criterion {num:02d} failed: {label}"


# --- independent oracles -------------------------------------------------
# Pure-python, 1-based transcriptions of the closed-form estimators, kept
# structurally separate from the vectorized library code.


def endpoint_script(values, k):
    v = sorted(values)
    n = len(v)

    def e(pos):
        return v[pos - 1]

    weighted = sum(math.log(1.0 + 1.0 / (k + i)) * e(n - k - i) for i in range(k))
    return e(n) + e(n - k) - weighted / math.log(2.0)


def shape_script(values, k, xstar):
    v = sorted(values)
    n = len(v)

    def e(pos):
        return v[pos - 1]

    u = e(n - k)
    return sum(math.log(1.0 - (e(n - j) - u) / (xstar - u)) for j in range(k)) / k


def hill_script(values, k):
    v = sorted(values)
    n = len(v)
    anchor = math.log(v[n - 1 - k])
    return sum(math.log(v[n - 1 - j]) - anchor for j in range(k)) / k


def random_tail_cases(count: int = 200):
    """Varied continuous samples with admissible (k, endpoint) choices."""
    g = generator(2024)
    cases = []
    for _ in range(count):
        n = int(g.integers(50, 5001))
        kind = int(g.integers(3))
        if kind == 0:
            values = g.random(n) * 10.0
        elif kind == 1:
            values = g.exponential(1.0, n)
        else:
            values = g.lognormal(0.0, 0.75, n)
        k = int(g.integers(5, n // 3 + 1))
        xstar = float(np.max(values)) + 0.1 + float(g.random()) * 5.0
        cases.append((values, k, xstar))
    return cases


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("desk") / "run"
    config = desk_scale_config(master_seed=0, output_dir=str(out_dir))
    report = run_experiment(config)
    return config, report


def test_criterion_01_endpoint_identity_on_constant_samples():
    t0 = time.perf_counter()
    ok = True
    for c in (0.0, 1.0, 3.7, 1e-3, 250.0):
        for n in (2, 5, 64, 999):
            for k in sorted({1, 2, n // 4, n // 2} & set(range(1, n // 2 + 1))):
                got = endpoint_estimate(ErrorSample([c] * n), k)
                ok = ok and abs(got - c) <= 1e-12
    _verdict(1, "constant samples return the constant (weights telescope)", ok, t0)


def test_criterion_02_hand_cases():
    t0 = time.perf_counter()
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    sample = ErrorSample(values)
    k = 2

    xstar = endpoint_estimate(sample, k)
    xstar_ref = endpoint_script(values, k)
    ok = abs(xstar - xstar_ref) <= 1e-9 and abs(xstar - 5.41504) <= 1e-4

    gamma_known = shape_estimate_known_endpoint(sample, k, 6.0)
    ok = ok and abs(gamma_known - shape_script(values, k, 6.0)) <= 1e-9
    ok = ok and abs(gamma_known - (-0.752039)) <= 1e-6

    fit = tail_fit(sample, k)
    gamma_plug_ref = shape_script(values, k, xstar_ref)
    ok = ok and abs(fit.gamma_hat - gamma_plug_ref) <= 1e-6
    _verdict(2, "five-point hand cases match the independent script", ok, t0)


def test_criterion_03_negated_hill_duality():
    t0 = time.perf_counter()
    ok = True
    for values, k, xstar in random_tail_cases(200):
        direct = shape_estimate_known_endpoint(ErrorSample(values), k, xstar)
        dual = -hill_script(1.0 / (xstar - values), k)
        ok = ok and abs(direct - dual) <= 1e-12
    _verdict(3, "shape estimate equals the negated top-k log-spacing mean", ok, t0)


def test_criterion_04_shape_sign_and_consistency():
    t0 = time.perf_counter()
    ok = all(
        shape_estimate_known_endpoint(ErrorSample(values), k, xstar) < 0.0
        for values, k, xstar in random_tail_cases(200)
    )

    n = 10**5
    k = math.ceil(n**0.55)
    gammas, endpoints = [], []
    params = GpdParams(-0.3, 1.0)
    for seed in range(50):
        sample = ErrorSample(gpd_sample(params, n, seed))
        fit = tail_fit(sample, k)
        gammas.append(fit.gamma_hat)
        endpoints.append(fit.xstar_hat)
    ok = ok and abs(float(np.median(gammas)) - (-0.3)) <= 0.1
    ok = ok and abs(float(np.median(endpoints)) - 10.0 / 3.0) <= 0.1

    half = GpdParams(-0.5, 1.0)
    medians = [
        endpoint_estimate(ErrorSample(gpd_sample(half, n, seed)), k)
        for seed in range(50)
    ]
    ok = ok and abs(float(np.median(medians)) - 2.0) <= 0.1
    _verdict(4, "estimates are negative and consistent on synthetic tails", ok, t0)


def test_criterion_05_fresh_draw_exceeds_maximum():
    t0 = time.perf_counter()
    n, trials = 99, 10**5
    draws = generator(99).standard_exponential((trials, n + 1))
    fresh = draws[:, n]
    frequency = float(np.mean(fresh > draws[:, :n].max(axis=1)))
    ok = abs(frequency - 0.01) <= 0.003
    _verdict(5, f"fresh-draw exceedance frequency {frequency:.4f} vs 1/(N+1)", ok, t0)


def test_criterion_06_moment_bound_worked_example():
    t0 = time.perf_counter()
    sample = ErrorSample([math.sqrt(1.65e-8)])  # second moment 1.65e-8
    bound = markov_bound(sample, 2.0, 0.0033)
    ok = abs(bound - 1.515e-3) <= 1e-6
    ok = ok and abs(bound - 1.65e-8 / 0.0033**2) <= 1e-12
    ok = ok and f"{bound:.2%}" == "0.15%"
    _verdict(6, f"second-moment bound {bound:.6f} rounds to 0.15%", ok, t0)


def test_criterion_07_gpd_round_trips_and_sampler():
    t0 = time.perf_counter()
    p = np.arange(0.0, 1.0, 0.01)
    ok = True
    for gamma in (-1.0, -0.5, -0.1, 0.0, 0.1):
        for sigma in (0.5, 1.0, 5.0):
            params = GpdParams(gamma, sigma)
            back = gpd_cdf(params, gpd_quantile(params, p))
            ok = ok and float(np.max(np.abs(back - p))) <= 1e-12

    for params in (GpdParams(-0.5, 1.0), GpdParams(0.0, 1.0), GpdParams(0.1, 2.0)):
        draws = np.sort(gpd_sample(params, 10**5, seed=1))
        f = gpd_cdf(params, draws)
        i = np.arange(1, draws.size + 1)
        ks = max(float(np.max(i / draws.size - f)), float(np.max(f - (i - 1) / draws.size)))
        ok = ok and ks < 0.01
    _verdict(7, "quantile/cdf inverse identity and sampler KS distance", ok, t0)


def test_criterion_08_pricing_oracle_properties():
    t0 = time.perf_counter()
    ok = True

    contracts = sample_uniform(C_TRAIN, 500, seed=801)
    american = price_contracts(contracts, steps=1000)
    for contract, amer in zip(contracts, american):
        eur = bs_european_put(contract)
        ok = ok and eur >= 0.0 and amer >= eur - TREE_TOL

    g = generator(802)
    zero_rate = [OptionContract(1.0, 12.0, 0.0, 0.0, 0.2)] + [
        OptionContract(
            strike_pct=float(g.uniform(0.4, 1.6)),
            maturity_months=float(g.uniform(11.0, 12.0)),
            rate=0.0,
            dividend_yield=float(g.uniform(0.0, 0.05)),
            volatility=float(g.uniform(0.05, 0.55)),
        )
        for _ in range(30)
    ]
    trees = price_contracts(zero_rate, steps=1000)
    for contract, tree in zip(zero_rate, trees):
        ok = ok and abs(tree - bs_european_put(contract)) <= TREE_TOL

    base_k, base_vol = [], []
    bump_k, bump_vol = [], []
    for _ in range(100):
        k_low = float(g.uniform(0.40, 1.50))
        shared = (
            float(g.uniform(11.0, 12.0)),
            float(g.uniform(0.015, 0.025)),
            float(g.uniform(0.0, 0.05)),
            float(g.uniform(0.05, 0.55)),
        )
        base_k.append(OptionContract(k_low, *shared))
        bump_k.append(OptionContract(k_low + float(g.uniform(0.02, 0.10)), *shared))

        vol_low = float(g.uniform(0.05, 0.50))
        lead = (
            float(g.uniform(0.40, 1.60)),
            float(g.uniform(11.0, 12.0)),
            float(g.uniform(0.015, 0.025)),
            float(g.uniform(0.0, 0.05)),
        )
        base_vol.append(OptionContract(*lead, vol_low))
        bump_vol.append(OptionContract(*lead, vol_low + float(g.uniform(0.02, 0.05))))
    lo = price_contracts(base_k + base_vol, steps=1000)
    hi = price_contracts(bump_k + bump_vol, steps=1000)
    ok = ok and bool(np.all(hi >= lo - 1e-9))

    probes = [OptionContract(1.0, 12.0, 0.05, 0.0, 0.2)] + sample_uniform(
        C_TRAIN, 10, seed=803
    )
    ladder = [price_contracts(probes, steps=s) for s in (500, 1000, 2000)]
    ok = ok and bool(np.all(np.abs(ladder[1] - ladder[0]) < TREE_TOL))
    ok = ok and bool(np.all(np.abs(ladder[2] - ladder[1]) < TREE_TOL))
    _verdict(8, "tree dominates closed form, monotone, self-convergent", ok, t0)


def test_criterion_09_gradient_against_finite_differences():
    t0 = time.perf_counter()
    step = 1e-5
    margin = 1e-3  # keep pre-activations clear of the relu kinks

    cases = []
    seed = 0
    while len(cases) < 20:
        g = generator(seed)
        widths = [5, int(g.integers(2, 7)), int(g.integers(2, 7)), 1]
        model = init_model(
            widths,
            seed=seed,
            input_box=DomainBox(lower=(0.01,) * 5, upper=(1.0,) * 5),
            target_scale=1.0,
        )
        gg = generator(seed + 10_000)
        x = 0.01 + 0.99 * gg.random((int(g.integers(2, 9)), 5))
        targets = x.sum(axis=1)
        a = (x - model.input_lower) / (model.input_upper - model.input_lower)
        smallest = np.inf
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = a @ w.T + b
            if i == len(model.weights) - 1:
                break
            smallest = min(smallest, float(np.min(np.abs(z))))
            a = np.maximum(z, 0.0)
        if smallest > margin:
            cases.append((model, x, targets))
        seed += 1

    worst = 0.0
    for model, x, targets in cases:
        grads = gradient(model, x, targets)
        y_scaled = scale_targets(model, targets)

        def loss() -> float:
            raw, _ = _forward_raw(model, x)
            return float(np.mean((raw - y_scaled) ** 2))

        for tensor, grad in zip(model.parameters(), grads):
            flat = tensor.reshape(-1)
            grad_flat = grad.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + step
                up = loss()
                flat[idx] = keep - step
                down = loss()
                flat[idx] = keep
                fd = (up - down) / (2.0 * step)
                denom = max(abs(fd), abs(grad_flat[idx]), 1e-8)
                worst = max(worst, abs(fd - grad_flat[idx]) / denom)
    ok = worst <= 1e-4
    _verdict(9, f"max relative gradient error {worst:.2e} over 20 models", ok, t0)


@pytest.mark.desk
def test_criterion_10_scaled_experiment_band(desk_run):
    t0 = time.perf_counter()
    config, report = desk_run
    rate = config.k / config.test_set_size

    ok = len(report.failures) == 0
    ok = ok and rate == 0.0027  # 54 / 20000 exactly
    for fit in report.fits:
        ok = ok and exceedance_probability(fit, fit.u) == rate

    table = read_table(Path(config.output_dir) / "figure1.csv", FIGURE_HEADER)
    figure = dict(zip(FIGURE_HEADER.split(","), table.T))
    floor = 1.0 / config.test_set_size
    qualifying = [
        (lo, empirical, hi)
        for lo, empirical, hi in zip(figure["evt_lo"], figure["empirical"], figure["evt_hi"])
        if floor <= empirical <= rate
    ]
    inside = [r for r in qualifying if r[0] <= r[1] <= r[2]]
    ok = ok and len(qualifying) > 0
    coverage = len(inside) / max(1, len(qualifying))
    ok = ok and coverage >= 0.80
    _verdict(
        10,
        f"pooled curve inside the 2-sigma band at {coverage:.0%} of "
        f"{len(qualifying)} qualifying levels; boundary value exact",
        ok,
        t0,
    )


@pytest.mark.desk
def test_criterion_11_determinism_of_scaled_run(desk_run):
    t0 = time.perf_counter()
    config, _ = desk_run
    names = ("figure1.csv", "report.txt", "pooled_errors.csv")
    before = {
        name: (Path(config.output_dir) / name).read_bytes() for name in names
    }
    run_experiment(config)
    ok = all(
        (Path(config.output_dir) / name).read_bytes() == before[name]
        for name in names
    )
    _verdict(11, "identical config reproduces byte-identical outputs", ok, t0)
