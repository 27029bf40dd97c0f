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
"""

from __future__ import annotations

import io
from dataclasses import astuple, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .mlp import TrainConfig, TrainingReport, check_widths, error_sample, split_sizes, train
from .pricing import C_TEST, C_TRAIN, contract_terms, price_contracts, sample_uniform
from .rng import stage_seed
from .tail import (
    DegenerateSampleError,
    ErrorSample,
    TailFit,
    exceedance_probability,
    markov_bound,
    mean_excess,
    tail_fit,
    write_error_csv,
)
from .textio import parse_key_values, read_key_values, read_table, write_table

CONFIG_VERSION = 1
REPORT_VERSION = 1
FIGURE_HEADER = "x,evt_mean,evt_lo,evt_hi,empirical,markov_m2,markov_m4"
FIGURE_POINTS = 40


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings of one experiment run."""

    train_samples: int = 20_000
    test_sets: int = 20
    test_set_size: int = 20_000
    k: int = 54
    tree_steps: int = 500
    widths: tuple[int, ...] = (5, 64, 64, 64, 1)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    master_seed: int = 0
    output_dir: str = "out"

    def __post_init__(self) -> None:
        """Reject settings the run would fail on, before any pricing."""
        for name in ("train_samples", "test_sets", "test_set_size", "tree_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if 2 * self.k > self.test_set_size:
            raise ValueError(
                f"need 2k <= test_set_size, got k={self.k}, "
                f"test_set_size={self.test_set_size}"
            )
        check_widths(self.widths, len(C_TRAIN.lower))
        split_sizes(self.train_samples, self.train_config)


# The configuration file's fields in file order: key, the dataclass holding
# the field, and the parser of its text.
_CONFIG_FIELDS = (
    ("train_samples", ExperimentConfig, int),
    ("test_sets", ExperimentConfig, int),
    ("test_set_size", ExperimentConfig, int),
    ("k", ExperimentConfig, int),
    ("tree_steps", ExperimentConfig, int),
    ("widths", ExperimentConfig, lambda text: tuple(int(w) for w in text.split(","))),
    ("epochs", TrainConfig, int),
    ("batch_size", TrainConfig, int),
    ("validation_fraction", TrainConfig, float),
    ("learning_rate", TrainConfig, float),
    ("adam_beta1", TrainConfig, float),
    ("adam_beta2", TrainConfig, float),
    ("adam_epsilon", TrainConfig, float),
    ("master_seed", ExperimentConfig, int),
    ("output_dir", ExperimentConfig, str),
)


def _config_items(config: ExperimentConfig) -> dict[str, str]:
    """Every configuration file field of ``config`` as text, in file order."""
    items = {}
    for key, owner, _ in _CONFIG_FIELDS:
        value = getattr(config.train_config if owner is TrainConfig else config, key)
        items[key] = ",".join(map(str, value)) if key == "widths" else str(value)
    return items


def desk_scale_config(**overrides) -> ExperimentConfig:
    """Default configuration sized for a minutes-scale run."""
    return replace(ExperimentConfig(), **overrides) if overrides else ExperimentConfig()


def paper_scale_config(**overrides) -> ExperimentConfig:
    """Full-size configuration (hours of tree pricing and training)."""
    cfg = ExperimentConfig(
        train_samples=100_000,
        test_sets=100,
        test_set_size=100_000,
        k=270,
        tree_steps=1000,
        widths=(5, 300, 300, 300, 1),
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass(frozen=True)
class FigureRow:
    """One level x of the exceedance figure.

    ``evt_mean`` averages the per-set exceedance estimates at x, the band
    is mean -/+ twice their standard deviation (clipped to [0, 1]), and the
    remaining columns are the pooled empirical survival fraction and the
    pooled moment bounds with m = 2 and m = 4.
    """

    x: float
    evt_mean: float
    evt_lo: float
    evt_hi: float
    empirical_pooled: float
    markov_m2: float
    markov_m4: float


@dataclass
class ExperimentReport:
    """Everything a run produced, ready for persistence and inspection."""

    config: ExperimentConfig
    resolved_train_seed: int
    fits: list[TailFit | None]
    failures: list[tuple[int, str]]
    u_ref: float
    exceed_at_u_ref: list[float]
    mean_excesses: list[float]
    exceed_mean: float
    exceed_std: float
    mean_excess_mean: float
    mean_excess_std: float
    pooled_exceed_at_u_ref: float
    pooled_mean_excess_at_u_ref: float
    pooled: ErrorSample
    per_set_errors: list[ErrorSample]
    training: TrainingReport | None


def pooled_empirical_sf(all_errors: ErrorSample, x):
    """Fraction of pooled errors strictly exceeding x; rejects negative and NaN x."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if not np.all(arr >= 0.0):
        raise ValueError("x must be nonnegative")
    above = all_errors.n - np.searchsorted(all_errors.values, arr, side="right")
    out = above / all_errors.n
    return float(out) if scalar else out


def _set_exceedance_estimate(fit: TailFit, errors: ErrorSample, x):
    """One test set's exceedance estimate at levels x.

    Fitted tail at and above the set's own threshold, empirical survival
    fraction below it. The two sides meet at k/N when the window holds no
    ties, so the curve is continuous and nonincreasing.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    above = arr >= fit.u
    if np.any(above):
        out[above] = exceedance_probability(fit, arr[above])
    if np.any(~above):
        out[~above] = pooled_empirical_sf(errors, arr[~above])
    return out if np.asarray(x).ndim else float(out[0])


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

    sample_seed = stage_seed(config.master_seed, "train-sample")
    train_x = contract_terms(sample_uniform(C_TRAIN, config.train_samples, sample_seed))
    train_prices = price_contracts(train_x, steps=config.tree_steps, workers=workers)
    train_seed = stage_seed(config.master_seed, "train")
    train_cfg = replace(config.train_config, seed=train_seed)
    model, training_report = train(train_x, train_prices, config.widths, train_cfg)

    fits: list[TailFit | None] = []
    failures: list[tuple[int, str]] = []
    per_set_errors: list[ErrorSample] = []
    for i in range(config.test_sets):
        sample_seed = stage_seed(config.master_seed, f"test-sample-{i}")
        x = contract_terms(sample_uniform(C_TEST, config.test_set_size, sample_seed))
        prices = price_contracts(x, steps=config.tree_steps, workers=workers)
        errors = error_sample(model, x, prices)
        per_set_errors.append(errors)
        try:
            fits.append(tail_fit(errors, config.k))
        except DegenerateSampleError as exc:
            fits.append(None)
            failures.append((i, str(exc)))

    pooled = ErrorSample(np.concatenate([e.values for e in per_set_errors]))
    report = _aggregate(
        config, train_seed, fits, failures, pooled, per_set_errors, training_report
    )

    write_report(report, out_dir / "report.txt")
    grid = default_figure_grid(report)
    emit_figure_csv(report, grid, out_dir / "figure1.csv")
    write_error_csv(
        out_dir / "pooled_errors.csv", pooled, comments=_config_comments(report)
    )
    return report


def _aggregate(
    config: ExperimentConfig,
    train_seed: int,
    fits: list[TailFit | None],
    failures: list[tuple[int, str]],
    pooled: ErrorSample,
    per_set_errors: list[ErrorSample],
    training_report: TrainingReport | None,
) -> ExperimentReport:
    good = [(f, e) for f, e in zip(fits, per_set_errors) if f is not None]
    if not good:
        raise DegenerateSampleError("every test set produced a degenerate tail fit")
    u_ref = float(np.median([f.u for f, _ in good]))
    exceed = [float(_set_exceedance_estimate(f, e, u_ref)) for f, e in good]
    excesses = [mean_excess(f) for f, _ in good]
    pooled_above = pooled.values[pooled.values > u_ref]
    pooled_me = float(np.mean(pooled_above - u_ref)) if pooled_above.size else 0.0
    return ExperimentReport(
        config=config,
        resolved_train_seed=train_seed,
        fits=fits,
        failures=failures,
        u_ref=u_ref,
        exceed_at_u_ref=exceed,
        mean_excesses=excesses,
        exceed_mean=float(np.mean(exceed)),
        exceed_std=_sample_std(exceed),
        mean_excess_mean=float(np.mean(excesses)),
        mean_excess_std=_sample_std(excesses),
        pooled_exceed_at_u_ref=pooled_empirical_sf(pooled, u_ref),
        pooled_mean_excess_at_u_ref=pooled_me,
        pooled=pooled,
        per_set_errors=per_set_errors,
        training=training_report,
    )


def default_figure_grid(report: ExperimentReport) -> np.ndarray:
    """``FIGURE_POINTS`` geometric x levels from the reference threshold to
    the pooled maximum."""
    top = float(report.pooled.values[-1])
    if top <= report.u_ref:
        raise ValueError("pooled maximum does not exceed the reference threshold")
    return np.geomspace(report.u_ref, top, FIGURE_POINTS)


def figure_rows(report: ExperimentReport, grid) -> list[FigureRow]:
    """Evaluate the figure columns on a sorted grid of levels."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) < 0.0):
        raise ValueError("grid must be sorted ascending")
    if grid[0] < report.u_ref:
        raise ValueError(
            f"grid starts at {float(grid[0])!r}, below the reference threshold "
            f"{report.u_ref!r}"
        )
    good = [
        (f, e)
        for f, e in zip(report.fits, report.per_set_errors)
        if f is not None
    ]
    per_set = np.vstack([_set_exceedance_estimate(f, e, grid) for f, e in good])
    means = per_set.mean(axis=0)
    stds = per_set.std(axis=0, ddof=1) if per_set.shape[0] > 1 else np.zeros_like(means)
    empirical = pooled_empirical_sf(report.pooled, grid)
    m2 = np.array([markov_bound(report.pooled, 2.0, x) for x in grid])
    m4 = np.array([markov_bound(report.pooled, 4.0, x) for x in grid])
    rows = []
    for i, x in enumerate(grid):
        rows.append(
            FigureRow(
                x=float(x),
                evt_mean=float(means[i]),
                evt_lo=float(max(0.0, means[i] - 2.0 * stds[i])),
                evt_hi=float(min(1.0, means[i] + 2.0 * stds[i])),
                empirical_pooled=float(empirical[i]),
                markov_m2=float(m2[i]),
                markov_m4=float(m4[i]),
            )
        )
    return rows


def format_probability(p: float) -> str:
    """Plain decimal for p >= 1e-6, scientific notation only below."""
    if p == 0.0:
        return "0"
    if p >= 1e-6:
        text = f"{p:.15f}".rstrip("0")
        return text + "0" if text.endswith(".") else text
    return f"{p:.9e}"


def _config_comments(report: ExperimentReport) -> dict:
    comments = {"config_version": CONFIG_VERSION, **_config_items(report.config)}
    del comments["output_dir"]
    comments["train_seed"] = report.resolved_train_seed
    return comments


def emit_figure_csv(report: ExperimentReport, grid, path) -> Path:
    """Write the figure CSV; the resolved configuration rides along as
    ``#`` comment lines above the fixed header."""
    rows = (
        ",".join([repr(row.x), *map(format_probability, astuple(row)[1:])])
        for row in figure_rows(report, grid)
    )
    write_table(path, FIGURE_HEADER, rows, _config_comments(report))
    return Path(path)


def read_figure_csv(path) -> list[FigureRow]:
    """Read back a figure CSV written by :func:`emit_figure_csv`."""
    return [FigureRow(*values) for _, values in read_table(path, FIGURE_HEADER)]


def write_report(report: ExperimentReport, path) -> Path:
    """Persist the run as flat key/value text plus a per-set fit table."""
    buf = io.StringIO()
    buf.write(f"report_version = {REPORT_VERSION}\n")
    buf.write("\n[config]\n")
    for key, value in _config_comments(report).items():
        buf.write(f"{key} = {value}\n")
    if report.training is not None:
        buf.write("\n[training]\n")
        buf.write(f"train_size = {report.training.train_size}\n")
        buf.write(f"validation_size = {report.training.validation_size}\n")
        buf.write(f"final_train_mse_usd2 = {report.training.train_mse[-1]!r}\n")
        buf.write(
            f"final_validation_mse_usd2 = {report.training.validation_mse[-1]!r}\n"
        )
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
    return Path(path)


def load_report_tables(path) -> tuple[dict, list[dict]]:
    """Parse a report file into (flat key/value dict, per-set fit rows).

    Degenerate sets appear in the fit rows with ``n`` set to None.
    """
    keyval_lines: list[tuple[int, str]] = []
    sets: list[dict] = []
    section = set_header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
            elif section != "sets":
                keyval_lines.append((lineno, line))
            elif line and set_header is None:
                set_header = line.split(",")
            elif line:
                fields = line.split(",")
                if len(fields) != len(set_header):
                    raise ValueError(
                        f"{path}: line {lineno}: expected {len(set_header)} fields"
                    )
                row: dict = {"index": int(fields[0]), "n": None}
                if fields[1] != "degenerate":
                    row.update(zip(set_header[1:3], map(int, fields[1:3])))
                    row.update(zip(set_header[3:], map(float, fields[3:])))
                sets.append(row)
    return parse_key_values(path, keyval_lines), sets


def format_config(config: ExperimentConfig) -> str:
    """Render a config as the flat key/value document :func:`load_config` reads."""
    items = {"config_version": CONFIG_VERSION, **_config_items(config)}
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Load a flat key/value config file over a base configuration.

    Lines look like ``key = value``; blank lines and ``#`` comments are
    ignored. ``config_version`` must be present and understood. Keys missing
    from the file keep the base values; unknown keys are rejected by name.
    """
    base = base if base is not None else ExperimentConfig()
    raw = read_key_values(path)
    if "config_version" not in raw:
        raise ValueError(f"{path}: missing required key 'config_version'")
    if raw.pop("config_version") != str(CONFIG_VERSION):
        raise ValueError(f"{path}: unsupported config_version (expected {CONFIG_VERSION})")
    fields = {key: (owner, parse) for key, owner, parse in _CONFIG_FIELDS}
    changes: dict = {ExperimentConfig: {}, TrainConfig: {}}
    for key, value in raw.items():
        if key not in fields:
            raise ValueError(f"{path}: unknown config key {key!r}")
        owner, parse = fields[key]
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
