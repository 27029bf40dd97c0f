"""End-to-end pipeline: sample, price, train, fit tails, aggregate, report.

One run samples the training box, prices every contract on the binomial
tree, trains the surrogate, then draws a number of independent test sets,
prices them, and fits the error tail of each with a shared k. Aggregates
are taken across test sets at a common reference level ``u_ref`` (the
median of the per-set thresholds): each set's exceedance estimate at a
level x uses its fitted tail for x at or above its own threshold and its
empirical survival fraction below, which keeps every per-set curve
continuous, monotone, and equal to k/N exactly at its own threshold.

Every stochastic stage derives its seed from the master seed plus a fixed
label, so changing the number of test sets never changes the training
data. All output files embed the resolved configuration and contain no
timestamps, which makes reruns byte-identical.

The tree prices consecutive whole sets together: the training set and the
test sets, in run order, are grouped up to ``PRICING_GROUP`` contracts (a
larger set alone), and each group is one ``price_contracts`` call, so its
chunks share one boundary sort and, with workers, one pool. The kernel
never mixes contracts, so every price has the bits of pricing its set
alone.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .mlp import (
    TrainConfig, TrainingReport, check_fields, check_widths, error_sample, split_sizes, train,
)
from .pricing import C_TEST, C_TRAIN, contract_terms, price_contracts, sample_uniform
from .rng import stage_seed
from .tail import (
    DegenerateSampleError,
    ErrorSample,
    TailFit,
    cent_threshold_k,
    exceedance_probability,
    markov_bound,
    mean_excess,
    tail_fit,
    write_error_csv,
)
from .textio import read_key_values, write_table

CONFIG_VERSION = 1
REPORT_VERSION = 1
FIGURE_HEADER = "x,evt_mean,evt_lo,evt_hi,empirical,markov_m2,markov_m4"
FIGURE_POINTS = 40
PRICING_GROUP = 2**16  # contracts per price_contracts call of a run, unless one set is larger


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings of one experiment run. Each count and the seed
    declares its rule (see :func:`~errortail.mlp.check_fields`)."""

    train_samples: int = field(default=20_000, metadata={"minimum": 1})
    test_sets: int = field(default=20, metadata={"minimum": 1})
    test_set_size: int = field(default=20_000, metadata={"minimum": 1})
    k: int = field(default=cent_threshold_k(20_000), metadata={"minimum": 2})
    tree_steps: int = field(default=500, metadata={"minimum": 1})
    widths: tuple[int, ...] = (5, 64, 64, 64, 1)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    master_seed: int = field(default=0, metadata={"minimum": None})
    output_dir: str = "out"

    def __post_init__(self) -> None:
        """Reject settings the run would fail on, before any pricing."""
        check_fields(self)
        if 2 * self.k > self.test_set_size:
            raise ValueError(
                f"need 2k <= test_set_size, got k={self.k}, "
                f"test_set_size={self.test_set_size}"
            )
        object.__setattr__(self, "widths", check_widths(self.widths, len(C_TRAIN.lower)))
        split_sizes(self.train_samples, self.train_config)


def parse_widths(text: str) -> tuple[int, ...]:
    """Layer widths written as comma-separated integers, e.g. ``5,64,1``."""
    return tuple(int(w) for w in text.split(","))


# the parser of a configuration file value, by the annotation of its field
_PARSERS = {"int": int, "float": float, "str": str, "tuple[int, ...]": parse_widths}


def _file_fields():
    """(field, owning dataclass) per config file key, in file order: the
    fields of :class:`ExperimentConfig` with those of ``train_config`` in its
    place, minus the training seed, which derives from ``master_seed``."""
    for f in fields(ExperimentConfig):
        if f.name != "train_config":
            yield f, ExperimentConfig
        else:
            yield from ((t, TrainConfig) for t in fields(TrainConfig) if t.name != "seed")


def desk_scale_config(**overrides) -> ExperimentConfig:
    """Default configuration sized for a minutes-scale run."""
    return replace(ExperimentConfig(), **overrides) if overrides else ExperimentConfig()


def paper_scale_config() -> ExperimentConfig:
    """Full-size configuration (hours of tree pricing and training)."""
    return ExperimentConfig(
        train_samples=100_000,
        test_sets=100,
        test_set_size=100_000,
        k=cent_threshold_k(100_000),
        tree_steps=1000,
        widths=(5, 300, 300, 300, 1),
    )


@dataclass
class ExperimentReport:
    """Everything a run produced, ready for persistence and inspection. The
    figure and the aggregates across the fitted sets are derived on construction."""

    config: ExperimentConfig
    resolved_train_seed: int
    fits: list[TailFit | None]
    failures: list[tuple[int, str]]
    pooled: ErrorSample
    per_set_errors: list[ErrorSample]
    training: TrainingReport
    u_ref: float = field(init=False)
    exceed_at_u_ref: list[float] = field(init=False)
    mean_excesses: list[float] = field(init=False)
    exceed_mean: float = field(init=False)
    exceed_std: float = field(init=False)
    mean_excess_mean: float = field(init=False)
    mean_excess_std: float = field(init=False)
    pooled_exceed_at_u_ref: float = field(init=False)
    pooled_mean_excess_at_u_ref: float = field(init=False)
    figure: np.ndarray = field(init=False, compare=False)  # derived from the fields above

    def __post_init__(self) -> None:
        """The figure's levels x run geometrically from ``u_ref`` to the pooled
        maximum, and the aggregates read its first level, ``u_ref`` itself.
        ``evt_mean`` averages the per-set estimates at x, the band is mean
        -/+ twice their standard deviation (clipped to [0, 1]), and the rest
        are the pooled survival fraction and moment bounds with m = 2 and 4."""
        good = [(f, e) for f, e in zip(self.fits, self.per_set_errors) if f is not None]
        if not good:
            raise DegenerateSampleError("every test set produced a degenerate tail fit")
        self.u_ref = u_ref = float(np.median([f.u for f, _ in good]))
        top = float(self.pooled.values[-1])
        if top <= u_ref:
            raise ValueError("pooled maximum does not exceed the reference threshold")
        grid = np.geomspace(u_ref, top, FIGURE_POINTS)
        per_set = np.vstack([_set_exceedance_estimate(f, e, grid) for f, e in good])
        self.exceed_at_u_ref = exceed = per_set[:, 0].tolist()
        self.mean_excesses = excesses = [mean_excess(f) for f, _ in good]
        pooled_above = self.pooled.values[self.pooled.values > u_ref]
        self.pooled_mean_excess_at_u_ref = (
            float(np.mean(pooled_above - u_ref)) if pooled_above.size else 0.0
        )
        # column 0's 1-D mean and sd can differ in the last bit from the figure's axis-0 ones
        self.exceed_mean = float(np.mean(exceed))
        self.exceed_std = _sample_std(exceed)
        self.mean_excess_mean = float(np.mean(excesses))
        self.mean_excess_std = _sample_std(excesses)
        means = per_set.mean(axis=0)
        stds = per_set.std(axis=0, ddof=1) if per_set.shape[0] > 1 else np.zeros_like(means)
        empirical = pooled_empirical_sf(self.pooled, grid)
        self.pooled_exceed_at_u_ref = float(empirical[0])
        m2 = [markov_bound(self.pooled, 2.0, x) for x in grid]
        m4 = [markov_bound(self.pooled, 4.0, x) for x in grid]
        self.figure = np.column_stack([
            grid,
            means,
            np.maximum(0.0, means - 2.0 * stds),
            np.minimum(1.0, means + 2.0 * stds),
            empirical,
            m2,
            m4,
        ])


def pooled_empirical_sf(all_errors: ErrorSample, x):
    """Fraction of pooled errors strictly exceeding x; rejects negative and NaN x."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(arr >= 0.0):
        raise ValueError("x must be nonnegative")
    above = all_errors.n - np.searchsorted(all_errors.values, arr, side="right")
    out = above / all_errors.n
    return float(out) if scalar else out


def _set_exceedance_estimate(fit: TailFit, errors: ErrorSample, x: np.ndarray) -> np.ndarray:
    """One test set's exceedance estimate at the levels of the array x.

    Fitted tail at and above the set's own threshold, empirical survival
    fraction below it. The two sides meet at k/N when the window holds no
    ties, so the curve is continuous and nonincreasing.
    """
    out = np.empty_like(x)
    above = x >= fit.u
    out[above] = exceedance_probability(fit, x[above])
    out[~above] = pooled_empirical_sf(errors, x[~above])
    return out


def _sample_std(values: Sequence[float]) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(np.std(arr, ddof=1))


def run_experiment(
    config: ExperimentConfig, workers: int | None = None
) -> ExperimentReport:
    """Execute the full pipeline and write report and figure files.

    Per-set fit failures (tied order statistics) are recorded and excluded
    from the aggregates rather than aborting the run. Returns the in-memory
    report; ``report.txt``, ``figure1.csv`` and ``pooled_errors.csv`` land
    in ``config.output_dir``.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    priced = _priced_sets(_sampled_sets(config), config.tree_steps, workers)
    train_x, train_prices = next(priced)
    train_seed = stage_seed(config.master_seed, "train")
    train_cfg = replace(config.train_config, seed=train_seed)
    model, training_report = train(train_x, train_prices, config.widths, train_cfg)

    fits: list[TailFit | None] = []
    failures: list[tuple[int, str]] = []
    per_set_errors: list[ErrorSample] = []
    for i, (x, prices) in enumerate(priced):
        errors = error_sample(model, x, prices)
        per_set_errors.append(errors)
        try:
            fits.append(tail_fit(errors, config.k))
        except DegenerateSampleError as exc:
            fits.append(None)
            failures.append((i, str(exc)))

    pooled = ErrorSample(np.concatenate([e.values for e in per_set_errors]))
    report = ExperimentReport(
        config, train_seed, fits, failures, pooled, per_set_errors, training_report
    )

    write_report(report, out_dir / "report.txt")
    emit_figure_csv(report, out_dir / "figure1.csv")
    write_error_csv(
        out_dir / "pooled_errors.csv", pooled, comments=_config_comments(report)
    )
    return report


def _sampled_sets(config: ExperimentConfig) -> Iterator[np.ndarray]:
    """The training set, then each test set, as (n, 5) terms in run order."""
    draws = [(C_TRAIN, config.train_samples, "train-sample")]
    draws += [(C_TEST, config.test_set_size, f"test-sample-{i}") for i in range(config.test_sets)]
    for box, count, label in draws:
        yield contract_terms(sample_uniform(box, count, stage_seed(config.master_seed, label)))


def _priced_sets(
    sets: Iterable[np.ndarray], steps: int, workers: int | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each set with its prices, in order. Consecutive whole sets are
    gathered up to ``PRICING_GROUP`` contracts, a larger set alone, and each
    group is priced in one ``price_contracts`` call."""
    group: list[np.ndarray] = []
    for terms in sets:
        if group and sum(map(len, group)) + len(terms) > PRICING_GROUP:
            yield from _price_group(group, steps, workers)
            group = []
        group.append(terms)
    yield from _price_group(group, steps, workers)


def _price_group(
    group: list[np.ndarray], steps: int, workers: int | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    prices = price_contracts(np.vstack(group), steps=steps, workers=workers)
    ends = np.cumsum([len(terms) for terms in group[:-1]])
    return zip(group, np.split(prices, ends))


def format_probability(p: float) -> str:
    """Plain decimal for p >= 1e-6, scientific notation only below."""
    if p == 0.0:
        return "0"
    if p >= 1e-6:
        text = f"{p:.15f}".rstrip("0")
        return text + "0" if text.endswith(".") else text
    return f"{p:.9e}"


def _config_comments(report: ExperimentReport) -> dict:
    """The run's configuration fields as text, in file order, without
    ``output_dir`` and with the resolved training seed."""
    config = report.config
    comments = {"config_version": CONFIG_VERSION}
    for f, owner in _file_fields():
        if f.name != "output_dir":
            value = getattr(config.train_config if owner is TrainConfig else config, f.name)
            comments[f.name] = ",".join(map(str, value)) if f.name == "widths" else str(value)
    comments["train_seed"] = report.resolved_train_seed
    return comments


def emit_figure_csv(report: ExperimentReport, path) -> None:
    """Write the figure CSV; the resolved configuration rides along as
    ``#`` comment lines above the fixed header."""
    rows = (
        ",".join([repr(x), *map(format_probability, probabilities)])
        for x, *probabilities in report.figure.tolist()
    )
    write_table(path, FIGURE_HEADER, rows, _config_comments(report))


def write_report(report: ExperimentReport, path) -> None:
    """Persist the run as flat key/value text plus a per-set fit table."""
    buf = io.StringIO()
    buf.write(f"report_version = {REPORT_VERSION}\n")
    buf.write("\n[config]\n")
    for key, value in _config_comments(report).items():
        buf.write(f"{key} = {value}\n")
    buf.write("\n[training]\n")
    buf.write(f"train_size = {report.training.train_size}\n")
    buf.write(f"validation_size = {report.training.validation_size}\n")
    buf.write(f"final_train_mse_usd2 = {report.training.train_mse[-1]!r}\n")
    buf.write(f"final_validation_mse_usd2 = {report.training.validation_mse[-1]!r}\n")
    buf.write("\n[sets]\n")
    buf.write("index,n,k,u,xstar_hat,gamma_hat,sigma_u,exceed_at_u_ref,mean_excess\n")
    good_iter = iter(zip(report.exceed_at_u_ref, report.mean_excesses))
    for i, fit in enumerate(report.fits):
        if fit is None:
            buf.write(f"{i},degenerate,,,,,,,\n")
            continue
        exceed, excess = next(good_iter)
        buf.write(
            f"{i},{fit.n},{fit.k},{fit.u!r},{fit.xstar_hat!r},{fit.gamma_hat!r},"
            f"{fit.sigma_u!r},{exceed!r},{excess!r}\n"
        )
    buf.write("\n[failures]\n")
    buf.write(f"count = {len(report.failures)}\n")
    for i, message in report.failures:
        buf.write(f"set_{i} = {message}\n")
    buf.write("\n[aggregates]\n")
    buf.write(f"u_ref = {report.u_ref!r}\n")
    buf.write(f"fitted_sets = {len(report.exceed_at_u_ref)}\n")
    buf.write(f"exceed_at_u_ref_mean = {report.exceed_mean!r}\n")
    buf.write(f"exceed_at_u_ref_std1 = {report.exceed_std!r}\n")
    buf.write(f"exceed_at_u_ref_std2 = {2.0 * report.exceed_std!r}\n")
    buf.write(f"mean_excess_mean = {report.mean_excess_mean!r}\n")
    buf.write(f"mean_excess_std1 = {report.mean_excess_std!r}\n")
    buf.write(f"mean_excess_std2 = {2.0 * report.mean_excess_std!r}\n")
    buf.write(f"pooled_exceed_at_u_ref = {report.pooled_exceed_at_u_ref!r}\n")
    buf.write(
        f"pooled_mean_excess_at_u_ref = {report.pooled_mean_excess_at_u_ref!r}\n"
    )
    buf.write(f"pooled_n = {report.pooled.n}\n")
    buf.write(f"pooled_max_error = {float(report.pooled.values[-1])!r}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Load a flat key/value config file over a base configuration.

    Lines look like ``key = value``; blank lines and ``#`` comments are
    ignored. ``config_version`` must be present and understood. Each key is
    a field (see :func:`_file_fields`), parsed by its annotated type. Keys
    missing from the file keep the base values; unknown keys are rejected by
    name.
    """
    base = base if base is not None else ExperimentConfig()
    raw = read_key_values(path)
    if "config_version" not in raw:
        raise ValueError(f"{path}: missing required key 'config_version'")
    if raw.pop("config_version") != str(CONFIG_VERSION):
        raise ValueError(f"{path}: unsupported config_version (expected {CONFIG_VERSION})")
    keys = {f.name: (owner, _PARSERS[f.type]) for f, owner in _file_fields()}
    changes: dict = {ExperimentConfig: {}, TrainConfig: {}}
    for key, value in raw.items():
        if key not in keys:
            raise ValueError(f"{path}: unknown config key {key!r}")
        owner, parse = keys[key]
        try:
            changes[owner][key] = parse(value)
        except ValueError:
            raise ValueError(
                f"{path}: field {key!r}: cannot parse value {value!r}"
            ) from None
    try:
        train_config = replace(base.train_config, **changes[TrainConfig])
        return replace(base, train_config=train_config, **changes[ExperimentConfig])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
