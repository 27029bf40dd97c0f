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

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .mlp import TrainConfig, TrainingReport, check_widths, error_sample, split_sizes, train
from .pricing import C_TEST, C_TRAIN, contract_terms, price_contracts, sample_uniform
from .rng import check_fields, check_integer, stage_seed
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
from .textio import PARSERS, key_value_text, read_fields, write_table

CONFIG_VERSION = 1
REPORT_VERSION = 1
FIGURE_HEADER = "x,evt_mean,evt_lo,evt_hi,empirical,markov_m2,markov_m4"
FIGURE_POINTS = 40
PRICING_GROUP = 2**16  # contracts per price_contracts call of a run, unless one set is larger


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings of one experiment run. Each count and the seed
    declares its rule (see :func:`~errortail.rng.check_fields`)."""

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
        """Derive ``train_config.seed``; reject what the run would fail on, before any pricing."""
        check_fields(self)
        train_config = replace(self.train_config, seed=stage_seed(self.master_seed, "train"))
        object.__setattr__(self, "train_config", train_config)
        if 2 * self.k > self.test_set_size:
            raise ValueError(
                f"need 2k <= test_set_size, got k={self.k}, "
                f"test_set_size={self.test_set_size}"
            )
        object.__setattr__(self, "widths", check_widths(self.widths, len(C_TRAIN.lower)))
        split_sizes(self.train_samples, self.train_config)


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
    pooled sample, the figure and the aggregates across the fitted sets are
    derived on construction."""

    config: ExperimentConfig
    fits: list[TailFit | None]
    failures: list[tuple[int, str]]
    per_set_errors: list[ErrorSample]
    training: TrainingReport
    pooled: ErrorSample = field(init=False, compare=False)  # every set's errors, derived from them
    exceed_at_u_ref: list[float] = field(init=False)
    mean_excesses: list[float] = field(init=False)
    aggregates: dict = field(init=False)  # the report's ``[aggregates]`` section, in file order
    figure: np.ndarray = field(init=False, compare=False)  # derived from the fields above

    def __post_init__(self) -> None:
        """The figure's levels x run geometrically from ``u_ref`` to the pooled
        maximum, and the aggregates read its first level, ``u_ref`` itself.
        ``evt_mean`` averages the per-set estimates at x, the band is mean
        -/+ twice their standard deviation (clipped to [0, 1]), and the rest
        are the pooled survival fraction and moment bounds with m = 2 and 4."""
        if len(self.fits) != len(self.per_set_errors):
            raise ValueError(
                f"need one fit per error set, got {len(self.fits)} fits "
                f"and {len(self.per_set_errors)} error sets"
            )
        good = [(f, e) for f, e in zip(self.fits, self.per_set_errors) if f is not None]
        if not good:
            raise DegenerateSampleError("every test set produced a degenerate tail fit")
        self.pooled = pooled = ErrorSample(np.concatenate([e.values for e in self.per_set_errors]))
        u_ref = float(np.median([f.u for f, _ in good]))
        top = float(pooled.values[-1])
        if top <= u_ref:
            raise ValueError("pooled maximum does not exceed the reference threshold")
        grid = np.geomspace(u_ref, top, FIGURE_POINTS)
        per_set = np.vstack([_set_exceedance_estimate(f, e, grid) for f, e in good])
        self.exceed_at_u_ref = exceed = per_set[:, 0].tolist()
        self.mean_excesses = excesses = [mean_excess(f) for f, _ in good]
        means = per_set.mean(axis=0)
        stds = per_set.std(axis=0, ddof=1) if per_set.shape[0] > 1 else np.zeros_like(means)
        empirical = pooled_empirical_sf(pooled, grid)
        pooled_above = pooled.values[pooled.values > u_ref]
        # column 0's 1-D mean and sd can differ in the last bit from the figure's axis-0 ones
        exceed_std, excess_std = _sample_std(exceed), _sample_std(excesses)
        self.aggregates = {
            "u_ref": u_ref,
            "fitted_sets": len(good),
            "exceed_at_u_ref_mean": float(np.mean(exceed)),
            "exceed_at_u_ref_std1": exceed_std,
            "exceed_at_u_ref_std2": 2.0 * exceed_std,
            "mean_excess_mean": float(np.mean(excesses)),
            "mean_excess_std1": excess_std,
            "mean_excess_std2": 2.0 * excess_std,
            "pooled_exceed_at_u_ref": float(empirical[0]),
            "pooled_mean_excess_at_u_ref": float(np.mean(pooled_above - u_ref)),
            "pooled_n": pooled.n,
            "pooled_max_error": top,
        }
        self.figure = np.column_stack([
            grid,
            means,
            np.maximum(0.0, means - 2.0 * stds),
            np.minimum(1.0, means + 2.0 * stds),
            empirical,
            [markov_bound(pooled, 2.0, x) for x in grid],
            [markov_bound(pooled, 4.0, x) for x in grid],
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
    workers = None if workers is None else check_integer("workers", workers, 1)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    priced = _priced_sets(_sampled_sets(config), config.tree_steps, workers)
    train_x, train_prices = next(priced)
    model, training_report = train(train_x, train_prices, config.widths, config.train_config)

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

    report = ExperimentReport(config, fits, failures, per_set_errors, training_report)

    write_report(report, out_dir / "report.txt")
    emit_figure_csv(report, out_dir / "figure1.csv")
    write_error_csv(
        out_dir / "pooled_errors.csv", report.pooled, comments=_config_comments(report)
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
    ``output_dir`` and with the derived training seed."""
    config = report.config
    comments = {"config_version": CONFIG_VERSION}
    for f, owner in _file_fields():
        if f.name != "output_dir":
            value = getattr(config.train_config if owner is TrainConfig else config, f.name)
            comments[f.name] = ",".join(map(str, value)) if f.name == "widths" else str(value)
    comments["train_seed"] = config.train_config.seed
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
    """Persist the run as ``key = value`` sections plus a per-set fit table."""
    names = [f.name for f in fields(TailFit)]
    rows = [",".join(["index", *names, "exceed_at_u_ref", "mean_excess"]) + "\n"]
    good_iter = iter(zip(report.exceed_at_u_ref, report.mean_excesses))
    for i, fit in enumerate(report.fits):
        if fit is None:
            rows.append(f"{i},degenerate" + "," * (len(names) + 1) + "\n")
            continue
        values = [getattr(fit, name) for name in names] + list(next(good_iter))
        rows.append(",".join([str(i), *map(repr, values)]) + "\n")
    sections = {
        "config": key_value_text(_config_comments(report)),
        "training": key_value_text({
            "train_size": report.training.train_size,
            "validation_size": report.training.validation_size,
            "final_train_mse_usd2": report.training.train_mse[-1],
            "final_validation_mse_usd2": report.training.validation_mse[-1],
        }),
        "sets": "".join(rows),
        "failures": key_value_text(
            {"count": len(report.failures), **{f"set_{i}": m for i, m in report.failures}}
        ),
        "aggregates": key_value_text(report.aggregates),
    }
    text = key_value_text({"report_version": REPORT_VERSION}) + "".join(
        f"\n[{name}]\n{body}" for name, body in sections.items()
    )
    Path(path).write_text(text, encoding="utf-8")


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Load a flat key/value config file over a base configuration.

    Lines look like ``key = value``; blank lines and ``#`` comments are
    ignored. ``config_version`` must be present and understood. Each key is
    a field (see :func:`_file_fields`), parsed by its annotated type. Keys
    missing from the file keep the base values; unknown keys are rejected by
    name.
    """
    base = base if base is not None else ExperimentConfig()
    parsers = {"config_version": str, **{f.name: PARSERS[f.type] for f, _ in _file_fields()}}
    values = read_fields(path, parsers, ["config_version"], "config")
    if values.pop("config_version") != str(CONFIG_VERSION):
        raise ValueError(f"{path}: unsupported config_version (expected {CONFIG_VERSION})")
    train_keys = {f.name for f, owner in _file_fields() if owner is TrainConfig}
    train_changes = {key: values.pop(key) for key in train_keys & values.keys()}
    try:
        train_config = replace(base.train_config, **train_changes)
        return replace(base, train_config=train_config, **values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
