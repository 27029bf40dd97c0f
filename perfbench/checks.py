"""Output checks for the three workloads.

Every check compares the program's output with a computation from
``reference.py`` or with a property the method must have. None compares
with a stored copy of an earlier output. A failed check raises
:class:`CheckError` naming the output and the value that is wrong.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

import reference

FIGURE_COLUMNS = ("x", "evt_mean", "evt_lo", "evt_hi", "empirical", "markov_m2", "markov_m4")
FIGURE_LEVELS = 40
PRICED_COLUMNS = ("K", "T", "r", "q", "sigma", "price")
# Relative tolerances for reordered floating-point sums. gamma_hat divides by
# xstar_hat - e_(N), which can be small, so it gets the looser one.
REL = 1e-9
REL_GAMMA = 1e-7
# A 500-step CRR price sat at most 0.0071 USD below the closed-form European
# put over 6000 test-box contracts; allow 0.02 USD of tree discretization.
TREE_ALLOWANCE = 0.02


class CheckError(Exception):
    """An output failed a check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-14)


def read_columns(path, columns) -> list[list[float]]:
    """Rows of a CSV with ``#`` comment lines and the given header."""
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = tuple(line.split(","))
                require(header == tuple(columns), f"{path}: header {line!r}")
                continue
            rows.append([float(f) for f in line.split(",")])
    require(header is not None, f"{path}: no header")
    require(all(len(r) == len(columns) for r in rows), f"{path}: ragged rows")
    return rows


def read_column(path, name: str) -> list[float]:
    return [r[0] for r in read_columns(path, (name,))]


def read_key_values(text: str) -> dict[str, str]:
    """``key = value`` lines of a text; other lines are skipped."""
    return {
        key.strip(): value.strip()
        for key, sep, value in (line.partition("=") for line in text.splitlines())
        if sep
    }


def check_fit(label: str, values, k: int, u: float, xstar: float, gamma: float) -> None:
    """A fit against the plain-Python estimator and the signs it must have."""
    ref_u, ref_xstar, ref_gamma = reference.tail_estimates(values, k)
    require(u == ref_u, f"{label}: u {u!r} is not the order statistic {ref_u!r}")
    require(close(xstar, ref_xstar), f"{label}: xstar_hat {xstar!r}, expected {ref_xstar!r}")
    require(close(gamma, ref_gamma, REL_GAMMA), f"{label}: gamma_hat {gamma!r}, expected {ref_gamma!r}")
    require(gamma < 0.0, f"{label}: gamma_hat {gamma!r} is not negative")
    require(xstar > max(values), f"{label}: xstar_hat {xstar!r} is not above the maximum")


def check_ksweep(runs) -> None:
    """``runs``: (k, ExperimentReport, output directory), one per k, same seed."""
    k0, first, _ = runs[0]
    for k, report, out in runs:
        require(
            np.array_equal(report.pooled.values, first.pooled.values),
            f"pooled errors at k={k} differ from those at k={k0}",
        )
        thresholds = []
        for i, (fit, errors) in enumerate(zip(report.fits, report.per_set_errors)):
            if fit is None:  # counted as a failed operation
                continue
            values = errors.values.tolist()
            check_fit(f"k={k} set {i}", values, k, fit.u, fit.xstar_hat, fit.gamma_hat)
            thresholds.append(fit.u)

        pooled = read_column(out / "pooled_errors.csv", "error")
        require(pooled == sorted(pooled), "pooled_errors.csv is not ascending")
        require(
            len(pooled) == sum(e.n for e in report.per_set_errors),
            f"pooled_errors.csv has {len(pooled)} rows",
        )
        rows = read_columns(out / "figure1.csv", FIGURE_COLUMNS)
        require(len(rows) == FIGURE_LEVELS, f"figure1.csv has {len(rows)} levels")
        xs = [r[0] for r in rows]
        require(all(a < b for a, b in zip(xs, xs[1:])), "figure1.csv levels not ascending")
        u_ref = statistics.median(thresholds)
        require(close(xs[0], u_ref), f"figure1.csv starts at {xs[0]!r}, not u_ref {u_ref!r}")
        require(close(xs[-1], pooled[-1]), f"figure1.csv ends at {xs[-1]!r}, not the pooled maximum")
        for x, mean, lo, hi, empirical, m2, m4 in rows:
            require(lo <= mean <= hi, f"figure1.csv x={x!r}: band {lo}, {mean}, {hi}")
            expected = reference.survival_fraction(pooled, x)
            require(close(empirical, expected, 1e-8), f"figure1.csv x={x!r}: empirical {empirical}, count gives {expected}")
            for m, got in ((2, m2), (4, m4)):
                want = reference.moment_bound(pooled, m, x)
                require(close(got, want, 1e-8), f"figure1.csv x={x!r}: markov_m{m} {got}, expected {want}")
        means = [r[1] for r in rows]
        require(all(b <= a for a, b in zip(means, means[1:])), "figure1.csv evt_mean increases")


def check_tree_prices(contracts, prices, steps: int) -> None:
    """Tree prices against a node-by-node CRR loop, the closed-form European
    put and intrinsic value. ``contracts``: (K, T, r, q, vol) tuples."""
    for terms, price in zip(contracts, prices):
        loop = reference.crr_american_put(*terms, steps=steps)
        require(abs(price - loop) <= 1e-9, f"{terms}: tree price {price!r}, loop {loop!r}")
        european = reference.bs_european_put(*terms)
        require(price >= european - TREE_ALLOWANCE, f"{terms}: {price!r} below European {european!r}")
        intrinsic = max(terms[0] * 100.0 - 100.0, 0.0)
        require(price >= intrinsic, f"{terms}: {price!r} below intrinsic {intrinsic!r}")


def check_surrogate(out, train_csv, test_csv, k: int, seed: int, calls) -> None:
    """``calls``: (argv, exit code, stdout) for train, errors, fit-tail,
    tail-query at u, tail-query for the mean excess and markov, in order."""
    for argv, code, _ in calls:
        require(code == 0, f"errortail {' '.join(argv)} exited {code}")
    train_out, _, _, at_u, excess, markov = (stdout for _, _, stdout in calls)

    test = np.asarray(read_columns(test_csv, PRICED_COLUMNS))
    errors = read_column(out / "errors.csv", "error")
    require(len(errors) == len(test), f"errors.csv has {len(errors)} rows for {len(test)} test rows")
    predicted = reference.model_prices(out / "model.json", test[:, :5])
    expected = np.sort(np.abs(test[:, 5] - predicted))
    worst = float(np.max(np.abs(np.asarray(errors) - expected)))
    require(worst <= 1e-9, f"errors.csv is off |price - f(x)| by up to {worst!r}")

    fit = read_key_values((out / "fit.txt").read_text(encoding="utf-8"))
    require(int(fit["n"]) == len(errors) and int(fit["k"]) == k, f"fit.txt n, k = {fit['n']}, {fit['k']}")
    u, xstar, gamma = (float(fit[key]) for key in ("u", "xstar_hat", "gamma_hat"))
    check_fit("fit.txt", errors, k, u, xstar, gamma)

    require(float(at_u) == k / len(errors), f"tail-query at u printed {at_u.strip()}, not k/n")
    _, ref_xstar, ref_gamma = reference.tail_estimates(errors, k)
    want = (ref_xstar - u) / (1.0 - 1.0 / ref_gamma)
    got = float(excess)
    require(close(got, want, REL_GAMMA), f"tail-query mean excess {got!r}, expected {want!r}")
    require(0.0 < got < xstar - u, f"tail-query mean excess {got!r} outside (0, xstar_hat - u)")
    want = reference.moment_bound(errors, 2.0, u)
    require(close(float(markov), want), f"markov printed {markov.strip()}, expected {want!r}")

    mse = float(read_key_values(train_out)["final_validation_mse_usd2"])
    train_prices = np.asarray(read_columns(train_csv, PRICED_COLUMNS))[:, 5]
    held_out = train_prices[reference.validation_rows(len(train_prices), 0.2, seed)]
    require(mse < float(np.var(held_out)), f"validation MSE {mse!r} not below the price variance")


def reference_ks(n: int) -> tuple[int, ...]:
    """The k at which tail-study fits are recomputed in plain Python."""
    return (2, 3, 10, 100, n // 2)


def check_tail_study(specs, draws, results) -> None:
    """``specs``: (gamma, sigma, n, seed); ``draws``: one array per spec;
    ``results``: (spec index, k, u, xstar_hat, gamma_hat, exceedances at
    u and above, mean excess, markov bound at u) per fit."""
    for (gamma, sigma, n, _), sample in zip(specs, draws):
        top = sigma / -gamma
        require(
            len(sample) == n and 0.0 <= float(np.min(sample)) and float(np.max(sample)) <= top,
            f"GPD({gamma}, {sigma}) draws leave [0, {top}]",
        )
    maxima = [float(np.max(d)) for d in draws]
    for index, k, u, xstar, g, probs, excess, markov in results:
        n = specs[index][2]
        label = f"sample {index} k={k}"
        require(g < 0.0, f"{label}: gamma_hat {g!r} is not negative")
        require(xstar > maxima[index], f"{label}: xstar_hat {xstar!r} not above the maximum")
        require(probs[0] == k / n, f"{label}: exceedance at u is {probs[0]!r}, not k/n")
        require(
            all(0.0 <= b <= a for a, b in zip(probs, probs[1:])),
            f"{label}: exceedance {probs} is not nonincreasing",
        )
        require(0.0 < excess < xstar - u, f"{label}: mean excess {excess!r} outside (0, xstar_hat - u)")
        require(k / n <= markov <= 1.0, f"{label}: markov bound {markov!r} below k/n")
    chosen = {(i, k) for i in range(len(specs)) for k in reference_ks(specs[i][2])}
    for index, k, u, xstar, g, probs, excess, markov in results:
        if (index, k) in chosen:
            values = draws[index].tolist()
            check_fit(f"sample {index} k={k}", values, k, u, xstar, g)
            want = reference.moment_bound(values, 2.0, u)
            require(close(markov, want), f"sample {index} k={k}: markov {markov!r}, expected {want!r}")
