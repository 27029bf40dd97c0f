"""Tail analysis of nonnegative error samples.

Given sorted absolute errors e_(1) <= ... <= e_(N), the top k order
statistics drive three closed-form estimators:

* an estimate of the upper endpoint of the error distribution, built from
  a log-weighted combination of the order statistics between positions
  N-2k+1 and N (the weights log(1 + 1/(k+i)) / log 2 sum to one exactly),
* a strictly negative estimate of the extreme value index, obtained as the
  average of log(1 - (e_(N-j) - u) / (x* - u)) over the top k exceedances
  of the threshold u = e_(N-k), and
* plug-in formulas for the exceedance probability P(E > x) above u and the
  mean excess E[E - u | E > u].

Order statistics are written 1-based in the docstrings and indexed 0-based
in the code. Ties inside the top-2k window collapse the endpoint estimate
onto the sample maximum, which leaves the shape estimate undefined; the
fit rejects such samples instead of perturbing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .textio import read_table, write_table

LN2 = math.log(2.0)


class DegenerateSampleError(ValueError):
    """Raised when ties in the upper order statistics make the fit undefined."""


class ErrorSample:
    """A sorted collection of nonnegative absolute errors.

    The constructor sorts its input. Duplicates are allowed here; only the
    tail fit itself rejects ties in the window it touches.
    """

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("an error sample must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("error values must be finite")
        if np.any(arr < 0.0):
            raise ValueError("error values must be nonnegative")
        self.values = np.sort(arr)

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ErrorSample(n={self.n}, max={float(self.values[-1])!r})"


@dataclass(frozen=True)
class ErrorSummary:
    """Mean absolute error, mean squared error, and maximum error."""

    mean_abs: float
    mean_sq: float
    max_err: float


@dataclass(frozen=True)
class TailFit:
    """A fitted error tail.

    ``u`` is the threshold e_(N-k), ``xstar_hat`` the endpoint estimate,
    ``gamma_hat`` the (negative) shape estimate, and ``sigma_u`` the implied
    scale -gamma_hat * (xstar_hat - u), derived rather than supplied.
    """

    n: int
    k: int
    u: float
    xstar_hat: float
    gamma_hat: float
    sigma_u: float = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        for name in ("u", "xstar_hat", "gamma_hat"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {float(getattr(self, name))}")
        if not self.gamma_hat < 0.0:
            raise ValueError(f"gamma_hat must be negative, got {self.gamma_hat}")
        # the tail formulas divide by gamma_hat; an overflow there collapses them to 0
        if not math.isfinite(1.0 / float(self.gamma_hat)):
            raise ValueError(
                f"1/gamma_hat must be finite, got gamma_hat = {float(self.gamma_hat)}"
            )
        if not self.xstar_hat > self.u:
            raise ValueError("xstar_hat must exceed the threshold u")
        object.__setattr__(
            self, "sigma_u", -self.gamma_hat * (self.xstar_hat - self.u)
        )


def summarize(sample: ErrorSample) -> ErrorSummary:
    v = sample.values
    return ErrorSummary(
        mean_abs=float(np.mean(v)),
        mean_sq=float(np.mean(v * v)),
        max_err=float(v[-1]),
    )


def exceeds_max_probability(n: int) -> float:
    """Probability that a fresh independent error exceeds the sample maximum.

    Equals 1/(n+1) for any continuous error distribution, by exchangeability
    of the n+1 draws.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1.0 / (n + 1)


def markov_bound(sample: ErrorSample, m: float, x: float) -> float:
    """Empirical moment bound on P(E > x), clamped at 1.

    Plugs the sample m-th moment into Markov's inequality. A bound above 1
    carries no information, so the result is capped there.
    """
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if not 0.0 <= m < math.inf:
        raise ValueError(f"m must be finite and nonnegative, got {m}")
    moment = float(np.mean(sample.values**m))
    return min(1.0, moment / x**m)


def endpoint_estimate(sample: ErrorSample, k: int) -> float:
    """Order-statistic estimate of the upper endpoint of the error law.

    Computes e_(N) + e_(N-k) - sum_i w_i * e_(N-k-i) with
    w_i = log(1 + 1/(k+i)) / log 2 for i = 0..k-1. The weights sum to one
    (the sum telescopes to log 2), so the expression equals
    e_(N) + sum_i w_i * (e_(N-k) - e_(N-k-i)) and never falls below e_(N),
    with equality exactly when e_(N-2k+1) = ... = e_(N-k). The gap form is
    what the code evaluates: a sum of nonnegative terms keeps the dominance
    and the tie detection exact in floating point.

    Requires 2k <= n: the deepest order statistic touched is e_(N-2k+1).
    """
    v = sample.values
    n = v.size
    if k < 1 or 2 * k > n:
        raise ValueError(f"need 1 <= k and 2k <= n, got k={k}, n={n}")
    w = np.log1p(1.0 / (k + np.arange(k))) / LN2
    # e_(N-k-i) for i = 0..k-1, i.e. positions n-1-k down to n-2k.
    lower = v[n - 2 * k : n - k][::-1]
    gaps = v[n - 1 - k] - lower
    return float(v[-1] + w @ gaps)


def shape_estimate_known_endpoint(sample: ErrorSample, k: int, xstar: float) -> float:
    """Shape estimate from the top k exceedances, given the endpoint.

    Averages log(1 - (e_(N-j) - u) / (xstar - u)) over j = 0..k-1 with
    u = e_(N-k). Never positive; returns 0 only in the degenerate case
    where the top k values all equal the threshold.
    """
    v = sample.values
    n = v.size
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if not xstar > v[-1]:
        raise ValueError(
            f"xstar ({float(xstar)!r}) must strictly exceed the sample maximum "
            f"({float(v[-1])!r}); otherwise a log argument is nonpositive"
        )
    u = v[n - 1 - k]
    top = v[n - k :]
    return float(np.mean(np.log1p(-(top - u) / (xstar - u))))


def tail_fit(sample: ErrorSample, k: int) -> TailFit:
    """Endpoint and shape estimates with the endpoint plugged into the shape.

    Raises :class:`DegenerateSampleError` when ties among the order
    statistics e_(N-2k+1), ..., e_(N-k) pull the endpoint estimate down to
    the sample maximum, where the shape estimate is undefined. Jittering
    the data instead would silently corrupt the estimates. Requires k >= 2:
    at k = 1 the endpoint estimate is always the sample maximum.
    """
    if k < 2:
        raise ValueError(f"a tail fit needs k >= 2, got k={k}")
    v = sample.values
    n = v.size
    xstar = endpoint_estimate(sample, k)
    if not xstar > v[-1]:
        raise DegenerateSampleError(
            f"endpoint estimate {xstar!r} does not exceed the sample maximum "
            f"{float(v[-1])!r}: ties in the top-{2 * k} order statistics make the "
            "shape estimate undefined"
        )
    gamma = shape_estimate_known_endpoint(sample, k, xstar)
    return TailFit(n=n, k=k, u=float(v[n - 1 - k]), xstar_hat=xstar, gamma_hat=gamma)


def exceedance_probability(fit: TailFit, x):
    """Fitted P(E > x) for x at or above the threshold.

    Equals k/N exactly at x = u, decreases monotonically, and is 0 from the
    estimated endpoint on (the fitted law has no mass there). NaN and values
    below the threshold are rejected: the tail approximation does not apply.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(arr >= fit.u):
        raise ValueError(f"x must be >= the threshold u = {float(fit.u)!r}")
    rate = fit.k / fit.n
    span = fit.xstar_hat - fit.u
    inside = arr < fit.xstar_hat
    out = np.zeros_like(arr)
    out[inside] = rate * np.exp(
        np.log1p(-(arr[inside] - fit.u) / span) * (-1.0 / fit.gamma_hat)
    )
    return float(out) if scalar else out


def mean_excess(fit: TailFit) -> float:
    """Fitted E[E - u | E > u]; always strictly between 0 and xstar_hat - u."""
    return (fit.xstar_hat - fit.u) / (1.0 - 1.0 / fit.gamma_hat)


def cent_threshold_k(n: int) -> int:
    """Default k giving an empirical exceedance rate k/n of 0.27%."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return round(0.0027 * n)


def one_percent_k(n: int) -> int:
    """Alternative k rule with k/n of about 1%, a common working choice."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return round(0.01 * n)


def write_error_csv(path, sample: ErrorSample, comments: dict | None = None) -> None:
    """Write a one-column CSV with header ``error``.

    Optional ``comments`` are embedded as leading ``# key=value`` lines so
    the file records how it was produced.
    """
    write_table(path, "error", map(repr, sample.values.tolist()), comments)


def read_error_csv(path) -> ErrorSample:
    """Read a one-column ``error`` CSV, skipping ``#`` comment lines."""
    values = []
    for lineno, (value,) in read_table(path, "error"):
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"{path}: line {lineno}: error values must be finite and "
                f"nonnegative, got {value!r}"
            )
        values.append(value)
    return ErrorSample(values)
