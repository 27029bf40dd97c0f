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
in the code. Two kinds of ties leave the fit undefined, and the fit
rejects both instead of perturbing the sample: ties among e_(N-2k+1), ...,
e_(N-k) collapse the endpoint estimate onto the sample maximum, and top
values e_(N-k) = ... = e_(N) tied at the threshold give a shape estimate
of 0, which is not negative.

The checks live in the public functions, and each runs once per call:
:func:`tail_fit` checks ``k`` (an integer, at least 2, with 2k <= n) and
:class:`TailFit` checks the fit it builds. The arithmetic lives in two
private kernels, ``_endpoint`` and ``_shape``, shared by :func:`tail_fit`,
:func:`endpoint_estimate` and :func:`shape_estimate_known_endpoint`. The
kernels check nothing: they assume sorted values, an int k in range and,
for the shape, an endpoint above the sample maximum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .rng import check_integer, check_nonnegative
from .textio import block_rows, line_of, read_table, write_table

LN2 = math.log(2.0)
_TINY = sys.float_info.min  # the smallest normal float

# log1p(1/j) / LN2 at index j - 1, read-only and shared by every endpoint
# estimate; grown to the next power of two when a larger k needs more
_weight_table = np.empty(0)


def _endpoint_weights(k: int) -> np.ndarray:
    """w_i = log1p(1/(k+i)) / LN2 for i = 0..k-1, a view into the table."""
    global _weight_table
    if _weight_table.size < 2 * k:
        size = 1 << (2 * int(k) - 1).bit_length()
        table = np.log1p(1.0 / np.arange(1, size + 1)) / LN2
        table.flags.writeable = False
        _weight_table = table
    return _weight_table[k - 1 : 2 * k - 1]


class DegenerateSampleError(ValueError):
    """Raised when ties in the upper order statistics make the fit undefined."""


class ErrorSample:
    """A sorted collection of nonnegative absolute errors.

    The constructor checks its input, naming a row in the caller's order,
    and sorts it into a read-only ``values`` array.
    Duplicates are allowed here; only the tail fit itself rejects ties in
    the window it touches.
    """

    __slots__ = ("values", "_moments", "_moments_of")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("an error sample must be a nonempty 1-d sequence")
        check_nonnegative("error values", arr)
        self.values = np.sort(arr)
        self.values.flags.writeable = False
        self._moments_of = None

    @property
    def n(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"ErrorSample(n={self.n}, max={float(self.values[-1])!r})"

    def _moment(self, m) -> float:
        """The sample m-th moment, computed once per exponent for as long as
        ``values`` is the array it was computed from."""
        v = self.values
        if self._moments_of is not v:
            self._moments_of, self._moments = v, {}
        key = float(m)
        if key not in self._moments:
            with np.errstate(over="ignore"):  # an overflow is inf, for markov_bound to see
                self._moments[key] = float(np.mean(v**m))
        return self._moments[key]


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
        n = check_integer("n", self.n, 2)
        k = check_integer("k", self.k, 1)
        if not k < n:
            raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
        u, xstar, gamma = self.u, self.xstar_hat, self.gamma_hat
        for name, value in (("u", u), ("xstar_hat", xstar), ("gamma_hat", gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {float(value)}")
        if not gamma < 0.0:
            raise ValueError(f"gamma_hat must be negative, got {gamma}")
        # the tail formulas divide by gamma_hat; an overflow there collapses them to 0
        if not math.isfinite(1.0 / float(gamma)):
            raise ValueError(f"1/gamma_hat must be finite, got gamma_hat = {float(gamma)}")
        if not xstar > u:
            raise ValueError("xstar_hat must exceed the threshold u")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sigma_u", -gamma * (xstar - u))


def exceeds_max_probability(n: int) -> float:
    """Probability that a fresh independent error exceeds the sample maximum.

    Equals 1/(n+1) for any continuous error distribution, by exchangeability
    of the n+1 draws.
    """
    return 1.0 / (check_integer("n", n, 1) + 1)


def markov_bound(sample: ErrorSample, m: float, x: float) -> float:
    """Empirical moment bound on P(E > x), clamped at 1.

    Plugs the sample m-th moment into Markov's inequality. A bound above 1
    carries no information, so the result is capped there.
    """
    if not x > 0.0:
        raise ValueError(f"x must be positive, got {x}")
    if not 0.0 <= m < math.inf:
        raise ValueError(f"m must be finite and nonnegative, got {m}")
    moment = sample._moment(m)
    try:
        power = float(x) ** float(m)
    except OverflowError:
        power = math.inf
    if _TINY <= moment < math.inf and _TINY <= power < math.inf:
        return min(1.0, moment / power)
    # x**m or the moment left the normal floats: scale each value by x first
    with np.errstate(over="ignore", under="ignore"):
        return min(1.0, float(np.mean((sample.values / x) ** m)))


def _endpoint(v: np.ndarray, k: int) -> float:
    """Endpoint estimate on sorted ``v``, for an int k with 1 <= k and 2k <= n."""
    n = v.size
    # e_(N-k-i) for i = 0..k-1, i.e. positions n-1-k down to n-2k.
    gaps = np.subtract(v.item(n - 1 - k), v[n - 2 * k : n - k][::-1])
    return v.item(-1) + float(_endpoint_weights(k) @ gaps)


def _shape(v: np.ndarray, k: int, xstar) -> float:
    """Shape estimate on sorted ``v``, for an int k with 1 <= k < n and
    xstar > e_(N), evaluated in one scratch array."""
    n = v.size
    u = v[n - 1 - k]
    t = np.subtract(v[n - k :], u)
    t /= xstar - u
    np.negative(t, out=t)
    np.log1p(t, out=t)
    return float(np.add.reduce(t)) / k


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
    k = check_integer("k", k, 1)
    v = sample.values
    if 2 * k > v.size:
        raise ValueError(f"need 2k <= n, got k={k}, n={v.size}")
    return _endpoint(v, k)


def shape_estimate_known_endpoint(sample: ErrorSample, k: int, xstar: float) -> float:
    """Shape estimate from the top k exceedances, given the endpoint.

    Averages log(1 - (e_(N-j) - u) / (xstar - u)) over j = 0..k-1 with
    u = e_(N-k). Never positive; returns 0 only in the degenerate case
    where the top k values all equal the threshold.
    """
    k = check_integer("k", k, 1)
    v = sample.values
    if not k < v.size:
        raise ValueError(f"need k < n, got k={k}, n={v.size}")
    if not xstar > v[-1]:
        raise ValueError(
            f"xstar ({float(xstar)!r}) must strictly exceed the sample maximum "
            f"({float(v[-1])!r}); otherwise a log argument is nonpositive"
        )
    return _shape(v, k, xstar)


def tail_fit(sample: ErrorSample, k: int) -> TailFit:
    """Endpoint and shape estimates with the endpoint plugged into the shape.

    Raises :class:`DegenerateSampleError` when ties among the order
    statistics e_(N-2k+1), ..., e_(N-k) pull the endpoint estimate down to
    the sample maximum, where the shape estimate is undefined, and when the
    top k+1 order statistics tie at the threshold, where the shape estimate
    is 0. Jittering the data instead would silently corrupt the estimates.
    Requires k >= 2: at k = 1 the endpoint estimate is always the sample
    maximum.
    """
    k = check_integer("k", k, 2)
    v = sample.values
    n = v.size
    if 2 * k > n:
        raise ValueError(f"need 2k <= n, got k={k}, n={n}")
    xstar = _endpoint(v, k)
    if not xstar > v[-1]:
        raise DegenerateSampleError(
            f"endpoint estimate {xstar!r} does not exceed the sample maximum "
            f"{float(v[-1])!r}: ties in the top-{2 * k} order statistics make the "
            "shape estimate undefined"
        )
    u = float(v[n - 1 - k])
    gamma = _shape(v, k, xstar)
    if not gamma < 0.0:
        raise DegenerateSampleError(
            f"shape estimate {gamma!r} is not negative: the top {k + 1} order "
            f"statistics are tied at the threshold u = {u!r}, which leaves the fitted "
            "tail undefined"
        )
    return TailFit(n, k, u, xstar, gamma)


def exceedance_probability(fit: TailFit, x):
    """Fitted P(E > x) for x at or above the threshold.

    Equals k/N exactly at x = u, decreases monotonically, and is 0 from the
    estimated endpoint on (the fitted law has no mass there). NaN and values
    below the threshold are rejected: the tail approximation does not apply.
    """
    arr = np.asarray(x, dtype=float)
    u, span = fit.u, fit.xstar_hat - fit.u
    if not np.logical_and.reduce(arr >= u, axis=None):
        raise ValueError(f"x must be >= the threshold u = {float(u)!r}")
    out = np.zeros(arr.shape)
    # x - u < span makes the ratio below round under 1, so log1p never sees -1
    t = arr - u
    inside = t < span
    t = t[inside]
    t /= span
    np.negative(t, out=t)
    np.log1p(t, out=t)
    scale = -1.0 / float(fit.gamma_hat)
    # For gamma_hat near 0 the product below would overflow to -inf. Raising
    # the log to -800 / scale first keeps the product at or above -800, and
    # changes only products below -800, whose exp is already 0.0. (For a
    # very steep tail -800 / scale is -inf in float arithmetic, no clamp.)
    np.maximum(t, -800.0 / scale, out=t)
    t *= scale
    np.exp(t, out=t)
    t *= fit.k / fit.n
    out[inside] = t
    return float(out) if arr.ndim == 0 else out


def mean_excess(fit: TailFit) -> float:
    """Fitted E[E - u | E > u]; always strictly between 0 and xstar_hat - u."""
    return (fit.xstar_hat - fit.u) / (1.0 - 1.0 / fit.gamma_hat)


def cent_threshold_k(n: int) -> int:
    """Default k giving an empirical exceedance rate k/n of 0.27%."""
    return round(0.0027 * check_integer("n", n, 1))


def write_error_csv(path, sample: ErrorSample, comments: dict | None = None) -> None:
    """Write a one-column CSV with header ``error``.

    Optional ``comments`` are embedded as leading ``# key=value`` lines so
    the file records how it was produced.
    """
    write_table(path, "error", map(repr, block_rows(sample.values)), comments)


def read_error_csv(path) -> ErrorSample:
    """Read a one-column ``error`` CSV, skipping ``#`` comment lines."""
    values = read_table(path, "error")[:, 0]
    line = lambda row: f"{path}: line {line_of(path, row)}"
    return ErrorSample(check_nonnegative("error values", values, line))
