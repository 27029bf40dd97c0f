import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from errortail import experiment, pricing
from errortail.experiment import (
    ExperimentConfig,
    ExperimentReport,
    FIGURE_HEADER,
    FIGURE_POINTS,
    _config_comments,
    desk_scale_config,
    emit_figure_csv,
    format_probability,
    load_config,
    paper_scale_config,
    pooled_empirical_sf,
    run_experiment,
    write_report,
)
from errortail.mlp import TrainConfig, TrainingReport, train
from errortail.pricing import C_TEST, C_TRAIN, contract_terms, price_contracts, sample_uniform
from errortail.rng import stage_seed
from errortail.tail import (
    DegenerateSampleError, ErrorSample, TailFit, exceedance_probability, markov_bound, mean_excess, tail_fit,
)
from errortail.textio import read_table


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    defaults = dict(
        train_samples=1500,
        test_sets=3,
        test_set_size=1200,
        k=4,
        tree_steps=40,
        widths=(5, 8, 8, 8, 1),
        train_config=TrainConfig(epochs=2, batch_size=50),
        master_seed=7,
        output_dir=str(tmp_path / "out"),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# stands in for training in reports built from hand-made fits
HAND_TRAINING = TrainingReport(
    train_mse=(1.0,), validation_mse=(1.0,), train_size=1, validation_size=1
)


def read_report(path) -> tuple[dict, list[dict]]:
    """``key = value`` pairs and per-set rows (text, keyed by the header) of a
    report file."""
    lines = Path(path).read_text().splitlines()
    keyvals = dict(line.split(" = ", 1) for line in lines if " = " in line)
    header, *rows = [line.split(",") for line in lines if "," in line and " = " not in line]
    return keyvals, [dict(zip(header, row)) for row in rows]


def read_figure(path) -> dict[str, np.ndarray]:
    """The columns of a figure CSV, keyed by their header names."""
    table = read_table(path, FIGURE_HEADER)
    return dict(zip(FIGURE_HEADER.split(","), table.T))


def synthetic_report(tmp_path, shared_u=True, test_sets=3):
    """Report built from hand-made fits over hand-made error sets."""
    config = tiny_config(
        tmp_path, k=5, test_sets=test_sets, test_set_size=100, train_samples=1500
    )
    rng = np.random.default_rng(0)
    fits, per_set = [], []
    for i in range(config.test_sets):
        base = np.sort(rng.random(100)) * 0.5
        # pin the k-th largest so every set shares the same threshold
        if shared_u:
            base[-config.k - 1] = 0.6
        base[-config.k :] = np.linspace(0.61, 0.7, config.k)
        sample = ErrorSample(base)
        per_set.append(sample)
        fits.append(tail_fit(sample, config.k))
    return ExperimentReport(config, fits, [], per_set, HAND_TRAINING)


def degenerate_report(tmp_path):
    """Report over three hand-made error sets, of which set 1 is all ties
    and has no fit."""
    config = tiny_config(tmp_path, k=5, test_set_size=100, train_samples=1500)
    rng = np.random.default_rng(3)
    per_set, fits, failures = [], [], []
    for i in range(config.test_sets):
        if i == 1:
            sample = ErrorSample([0.3] * 100)  # ties: unfittable
            per_set.append(sample)
            fits.append(None)
            failures.append((i, "tied order statistics"))
        else:
            sample = ErrorSample(rng.random(100))
            per_set.append(sample)
            fits.append(tail_fit(sample, config.k))
    return ExperimentReport(config, fits, failures, per_set, HAND_TRAINING)


def frozen_set_exceedance_estimate(fit, errors, x):
    """A set's exceedance estimate at scalar or array levels x, as it stood
    when the report evaluated each set twice. Frozen as part of the oracles
    below; do not edit."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    above = arr >= fit.u
    if np.any(above):
        out[above] = exceedance_probability(fit, arr[above])
    if np.any(~above):
        out[~above] = pooled_empirical_sf(errors, arr[~above])
    return out if np.asarray(x).ndim else float(out[0])


def frozen_sample_std(values) -> float:
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(np.std(arr, ddof=1))


def frozen_aggregates(report) -> dict:
    """The report's aggregates as they stood when they were derived apart
    from the figure, at the scalar ``u_ref``. Frozen as the oracle for
    ``ExperimentReport``'s derivation; do not edit."""
    good = [(f, e) for f, e in zip(report.fits, report.per_set_errors) if f is not None]
    u_ref = float(np.median([f.u for f, _ in good]))
    exceed = [float(frozen_set_exceedance_estimate(f, e, u_ref)) for f, e in good]
    excesses = [mean_excess(f) for f, _ in good]
    pooled_above = report.pooled.values[report.pooled.values > u_ref]
    return dict(
        u_ref=u_ref,
        exceed_at_u_ref=exceed,
        mean_excesses=excesses,
        pooled_mean_excess_at_u_ref=(
            float(np.mean(pooled_above - u_ref)) if pooled_above.size else 0.0
        ),
        exceed_mean=float(np.mean(exceed)),
        exceed_std=frozen_sample_std(exceed),
        mean_excess_mean=float(np.mean(excesses)),
        mean_excess_std=frozen_sample_std(excesses),
        pooled_exceed_at_u_ref=pooled_empirical_sf(report.pooled, u_ref),
    )


def frozen_figure_rows(report) -> list[tuple[float, ...]]:
    """The figure's arithmetic as it stood before the table was one array:
    per-level Python floats from the per-set stack, its mean and sample
    standard deviation, the 2-sigma band clipped one level at a time, the
    pooled survival fraction and the moment-bound loops. Frozen as the
    oracle for ``ExperimentReport.figure``; do not edit."""
    grid = np.geomspace(report.aggregates["u_ref"], float(report.pooled.values[-1]), 40)
    good = [
        (f, e)
        for f, e in zip(report.fits, report.per_set_errors)
        if f is not None
    ]
    per_set = np.vstack([frozen_set_exceedance_estimate(f, e, grid) for f, e in good])
    means = per_set.mean(axis=0)
    stds = per_set.std(axis=0, ddof=1) if per_set.shape[0] > 1 else np.zeros_like(means)
    empirical = pooled_empirical_sf(report.pooled, grid)
    m2 = np.array([markov_bound(report.pooled, 2.0, x) for x in grid])
    m4 = np.array([markov_bound(report.pooled, 4.0, x) for x in grid])
    rows = []
    for i, x in enumerate(grid):
        rows.append((
            float(x),
            float(means[i]),
            float(max(0.0, means[i] - 2.0 * stds[i])),
            float(min(1.0, means[i] + 2.0 * stds[i])),
            float(empirical[i]),
            float(m2[i]),
            float(m4[i]),
        ))
    return rows


# the frozen oracle's names of the aggregates that the report keeps under another key
AGGREGATE_KEYS = {
    "exceed_mean": "exceed_at_u_ref_mean",
    "exceed_std": "exceed_at_u_ref_std1",
    "mean_excess_std": "mean_excess_std1",
}


REPORT_SHAPES = ["tiny-run", "shared-threshold", "one-set", "degenerate-set", "many-sets"]


def report_of_shape(shape, tiny_run, tmp_path):
    """One report per shape: a real run, hand-made fits on one shared or on
    separate thresholds, a set without a fit, and seventeen sets, where numpy
    sums the 1-D per-set column pairwise and the figure's axis-0 reductions
    of the same column round differently."""
    return {
        "tiny-run": lambda: tiny_run[1],
        "shared-threshold": lambda: synthetic_report(tmp_path),
        "one-set": lambda: synthetic_report(tmp_path, shared_u=False, test_sets=1),
        "degenerate-set": lambda: degenerate_report(tmp_path),
        "many-sets": lambda: synthetic_report(tmp_path, shared_u=False, test_sets=17),
    }[shape]()


def same_bits(a, b) -> bool:
    """Equal as IEEE bit patterns, so 0.0 and -0.0 differ."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    config = tiny_config(tmp)
    report = run_experiment(config)
    return config, report


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError, match="2k"):
            ExperimentConfig(test_set_size=100, k=51)
        with pytest.raises(ValueError, match="test_sets"):
            ExperimentConfig(test_sets=0)
        # rejected at construction, before any contract is priced
        with pytest.raises(ValueError, match="k must be >= 2"):
            ExperimentConfig(k=1)
        with pytest.raises(ValueError, match="input dimension"):
            ExperimentConfig(widths=(4, 8, 1))
        with pytest.raises(ValueError, match="last width"):
            ExperimentConfig(widths=(5, 8, 2))
        with pytest.raises(ValueError, match="training rows"):
            ExperimentConfig(train_samples=120, train_config=TrainConfig(batch_size=100))
        ExperimentConfig(train_samples=125, train_config=TrainConfig(batch_size=100))

    def test_empty_validation_split_rejected(self):
        # round(0.01 * 40) = 0 rows would validate on nothing and report NaN
        with pytest.raises(ValueError, match="^validation_fraction 0.01 .* no validation rows"):
            ExperimentConfig(
                train_samples=40,
                train_config=TrainConfig(batch_size=10, validation_fraction=0.01),
            )
        ExperimentConfig(
            train_samples=60, train_config=TrainConfig(batch_size=10, validation_fraction=0.01)
        )

    @pytest.mark.parametrize("value", [True, 2.5, 2.0])
    @pytest.mark.parametrize(
        "name", ["train_samples", "test_sets", "test_set_size", "k", "tree_steps", "master_seed"]
    )
    def test_counts_and_seed_must_be_integers(self, name, value):
        # rejected at construction: 2.5 steps would fail only after sampling,
        # and master_seed 2.0 would seed every stage unlike master_seed 2
        message = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            desk_scale_config(**{name: value})

    def test_numpy_integers_are_stored_as_int(self):
        config = desk_scale_config(
            train_samples=np.int64(500), test_sets=np.int64(3), test_set_size=np.int64(400),
            k=np.int64(10), tree_steps=np.int64(20), master_seed=np.int64(7),
        )
        values = (config.train_samples, config.test_sets, config.test_set_size,
                  config.k, config.tree_steps, config.master_seed)
        assert values == (500, 3, 400, 10, 20, 7)
        assert {type(v) for v in values} == {int}

    def test_config_is_hashable_with_int_widths(self):
        config = ExperimentConfig(widths=[5, np.int64(64), 64, 64, 1])
        assert config.widths == (5, 64, 64, 64, 1)
        assert {type(w) for w in config.widths} == {int}
        assert hash(config) == hash(ExperimentConfig())

    def test_scale_presets(self):
        desk = desk_scale_config()
        assert (desk.train_samples, desk.test_sets, desk.test_set_size) == (
            20_000,
            20,
            20_000,
        )
        assert desk.k == 54 and desk.tree_steps == 500
        paper = paper_scale_config()
        assert (paper.train_samples, paper.test_sets, paper.test_set_size) == (
            100_000,
            100,
            100_000,
        )
        assert paper.k == 270 and paper.tree_steps == 1000
        assert paper.widths == (5, 300, 300, 300, 1)

    def test_training_seed_derives_from_the_master_seed(self):
        config = desk_scale_config(master_seed=9, train_config=TrainConfig(seed=123))
        assert config.train_config.seed == stage_seed(9, "train")
        assert replace(config, master_seed=-4).train_config.seed == stage_seed(-4, "train")
        assert config == desk_scale_config(master_seed=9)

    def test_run_trains_with_the_config_as_it_stands(self, tmp_path, monkeypatch):
        seen = []

        def recording(x, prices, widths, train_config):
            seen.append(train_config)
            return train(x, prices, widths, train_config)

        monkeypatch.setattr(experiment, "train", recording)
        config = tiny_config(tmp_path, test_sets=1)
        report = run_experiment(config)
        assert len(seen) == 1 and seen[0] is config.train_config
        assert _config_comments(report)["train_seed"] == stage_seed(7, "train")

    def test_config_file_round_trip(self, tmp_path):
        # every key, each set away from its default
        train_config = TrainConfig(
            epochs=2, batch_size=50, validation_fraction=0.25, learning_rate=0.002,
        )
        config = tiny_config(tmp_path, master_seed=42, train_config=train_config)
        path = tmp_path / "config.txt"
        path.write_text(
            "config_version = 1\n"
            "train_samples = 1500\n"
            "test_sets = 3\n"
            "test_set_size = 1200\n"
            "k = 4\n"
            "tree_steps = 40\n"
            "widths = 5,8,8,8,1\n"
            "epochs = 2\n"
            "batch_size = 50\n"
            "validation_fraction = 0.25\n"
            "learning_rate = 0.002\n"
            "master_seed = 42\n"
            f"output_dir = {config.output_dir}\n"
        )
        assert load_config(path) == config

    def test_config_file_partial_overrides_base(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("config_version = 1\nk = 100\nmaster_seed = 9\n")
        config = load_config(path)
        assert config.k == 100
        assert config.master_seed == 9
        assert config.train_samples == ExperimentConfig().train_samples

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("config_version = 1\nmystery = 3\n")
        with pytest.raises(ValueError, match="mystery"):
            load_config(path)

    @pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_epsilon"])
    def test_config_file_rejects_adam_constants(self, tmp_path, key):
        # Adam's constants are mlp.ADAM_*, not config keys
        path = tmp_path / "config.txt"
        path.write_text(f"config_version = 1\n{key} = 0.5\n")
        message = re.escape(f"{path}: unknown config key {key!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_config(path)

    def test_config_file_rejects_bad_value(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("config_version = 1\nk = soon\n")
        with pytest.raises(ValueError, match="'k'"):
            load_config(path)
        path.write_text("config_version = 1\nwidths = 5,8,2\n")
        with pytest.raises(ValueError, match="last width"):
            load_config(path)
        path.write_text("config_version = 1\nepochs = 0\n")
        with pytest.raises(ValueError, match="config.txt: epochs"):
            load_config(path)

    @pytest.mark.parametrize("key", ["learning_rate"])
    @pytest.mark.parametrize("text", ["nan", "inf"])
    def test_config_file_rejects_nan_and_inf_reals(self, tmp_path, key, text):
        # rejected at load, before any pricing: a NaN learning rate trains an
        # all-NaN model
        path = tmp_path / "nan.txt"
        path.write_text(f"config_version = 1\n{key} = {text}\n")
        message = re.escape(f"{path}: {key} must be in (0, inf), got {text}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_config(path)

    def test_config_file_requires_version(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("k = 3\n")
        with pytest.raises(ValueError, match="config_version"):
            load_config(path)


class TestPooledEmpiricalSf:
    def test_full_mass_at_zero(self):
        sample = ErrorSample([0.5, 1.0, 2.0])
        assert pooled_empirical_sf(sample, 0.0) == 1.0

    def test_zero_above_maximum(self):
        sample = ErrorSample([0.5, 1.0, 2.0])
        assert pooled_empirical_sf(sample, 3.0) == 0.0

    def test_counting(self):
        sample = ErrorSample([1.0, 2.0, 3.0, 4.0])
        assert pooled_empirical_sf(sample, 2.5) == 0.5

    def test_strict_exceedance(self):
        sample = ErrorSample([1.0, 2.0, 3.0, 4.0])
        assert pooled_empirical_sf(sample, 2.0) == 0.5

    def test_vectorized(self):
        sample = ErrorSample([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(
            pooled_empirical_sf(sample, np.array([0.0, 2.5, 9.0])),
            [1.0, 0.5, 0.0],
        )

    def test_rejects_negative_and_nan(self):
        sample = ErrorSample([1.0, 2.0])
        for x in (-1.0, np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="nonnegative"):
                pooled_empirical_sf(sample, x)


class TestRunExperiment:
    def test_per_set_boundary_identity(self, tiny_run):
        config, report = tiny_run
        rate = config.k / config.test_set_size
        for fit in report.fits:
            assert fit is not None
            assert exceedance_probability(fit, fit.u) == rate

    def test_aggregates_recomputable_from_lists(self, tiny_run):
        _, report = tiny_run
        aggregates = report.aggregates
        assert aggregates["exceed_at_u_ref_mean"] == pytest.approx(
            float(np.mean(report.exceed_at_u_ref)), abs=1e-15
        )
        assert aggregates["exceed_at_u_ref_std1"] == pytest.approx(
            float(np.std(report.exceed_at_u_ref, ddof=1)), abs=1e-15
        )
        assert aggregates["mean_excess_mean"] == pytest.approx(
            float(np.mean(report.mean_excesses)), abs=1e-15
        )

    def test_u_ref_is_median_threshold(self, tiny_run):
        _, report = tiny_run
        assert report.aggregates["u_ref"] == float(np.median([f.u for f in report.fits]))

    def test_mean_excess_matches_fits(self, tiny_run):
        _, report = tiny_run
        for fit, me in zip(report.fits, report.mean_excesses):
            assert me == mean_excess(fit)

    def test_pooled_concatenates_test_sets(self, tiny_run):
        config, report = tiny_run
        assert report.pooled.n == config.test_sets * config.test_set_size
        stacked = np.sort(
            np.concatenate([e.values for e in report.per_set_errors])
        )
        assert np.array_equal(report.pooled.values, stacked)

    def test_output_files_exist(self, tiny_run):
        config, _ = tiny_run
        for name in ("report.txt", "figure1.csv", "pooled_errors.csv"):
            assert Path(config.output_dir, name).exists()

    def test_report_file_recomputable(self, tiny_run):
        config, report = tiny_run
        keyvals, sets = read_report(Path(config.output_dir, "report.txt"))
        assert keyvals["report_version"] == "1"
        assert int(keyvals["k"]) == config.k
        assert int(keyvals["tree_steps"]) == config.tree_steps
        assert len(sets) == config.test_sets
        fitted = [{key: float(v) for key, v in row.items()} for row in sets]
        exceeds = [row["exceed_at_u_ref"] for row in fitted]
        excesses = [row["mean_excess"] for row in fitted]
        assert abs(float(keyvals["exceed_at_u_ref_mean"]) - np.mean(exceeds)) <= 1e-12
        assert abs(float(keyvals["exceed_at_u_ref_std1"]) - np.std(exceeds, ddof=1)) <= 1e-12
        assert abs(float(keyvals["mean_excess_mean"]) - np.mean(excesses)) <= 1e-12
        assert abs(
            float(keyvals["exceed_at_u_ref_std2"]) - 2 * np.std(exceeds, ddof=1)
        ) <= 1e-12
        # per-set shape and scale re-derivable from the persisted fit fields
        for row in fitted:
            assert row["sigma_u"] == pytest.approx(
                -row["gamma_hat"] * (row["xstar_hat"] - row["u"]), abs=1e-15
            )

    def test_rerun_is_byte_identical(self, tiny_run, tmp_path):
        config, _ = tiny_run
        second = replace(config, output_dir=str(tmp_path / "again"))
        run_experiment(second)
        for name in ("report.txt", "figure1.csv", "pooled_errors.csv"):
            first_bytes = Path(config.output_dir, name).read_bytes()
            second_bytes = Path(second.output_dir, name).read_bytes()
            assert first_bytes == second_bytes, name

    def test_changing_test_sets_preserves_training_and_sets(self, tmp_path):
        # fewer test sets leave the shared stages untouched
        a = run_experiment(tiny_config(tmp_path, output_dir=str(tmp_path / "a")))
        b = run_experiment(
            tiny_config(tmp_path, test_sets=2, output_dir=str(tmp_path / "b"))
        )
        for i in range(2):
            assert np.array_equal(
                a.per_set_errors[i].values, b.per_set_errors[i].values
            )

    def test_workers_do_not_change_outputs(self, tiny_run, tmp_path, force_pool):
        config, _ = tiny_run
        parallel = replace(config, output_dir=str(tmp_path / "parallel"))
        force_pool()
        run_experiment(parallel)
        assert (
            Path(config.output_dir, "figure1.csv").read_bytes()
            == Path(parallel.output_dir, "figure1.csv").read_bytes()
        )

    def test_set_with_tied_top_values_is_recorded(self, tmp_path, monkeypatch):
        # set 1's top k + 1 errors tie at its maximum while the values below
        # do not: the endpoint clears the maximum and the shape estimate is 0
        config = tiny_config(tmp_path)
        real_error_sample, calls = experiment.error_sample, []

        def tie_set_one(*args):
            errors = real_error_sample(*args)
            calls.append(errors)
            if len(calls) != 2:
                return errors
            values = errors.values.copy()
            values[-config.k - 1 :] = values[-1]
            return ErrorSample(values)

        monkeypatch.setattr(experiment, "error_sample", tie_set_one)
        report = run_experiment(config)
        assert report.fits[1] is None and None not in (report.fits[0], report.fits[2])
        [(index, message)] = report.failures
        assert index == 1 and "tied at the threshold" in message
        assert len(report.exceed_at_u_ref) == config.test_sets - 1
        keyvals, sets = read_report(Path(config.output_dir, "report.txt"))
        assert sets[1]["n"] == "degenerate" and keyvals["count"] == "1"

    def test_degenerate_sets_recorded_and_excluded(self, tmp_path):
        report = degenerate_report(tmp_path)
        config = report.config

        assert len(report.exceed_at_u_ref) == config.test_sets - 1
        assert report.failures == [(1, "tied order statistics")]
        assert report.fits[1] is None
        table = report.figure
        assert table[0, 0] == report.aggregates["u_ref"]
        assert 0.0 <= table[0, 1] <= 1.0

        path = tmp_path / "report.txt"
        write_report(report, path)
        keyvals, sets = read_report(path)
        assert keyvals["count"] == "1"
        assert sets[1]["n"] == "degenerate"
        assert int(keyvals["fitted_sets"]) == config.test_sets - 1

        # with every set degenerate there is nothing to aggregate
        with pytest.raises(DegenerateSampleError, match="^every test set produced a degenerate"):
            replace(report, fits=[None] * config.test_sets)


class TestGroupedPricing:
    """A run prices consecutive whole sets in one call per group of at most
    ``PRICING_GROUP`` contracts; a larger set is priced alone."""

    @pytest.mark.parametrize(
        "budget, test_set_size, calls",
        [
            # the 1,500-row training set above the budget is priced alone,
            # and the three 400-row test sets go two, then one
            (1000, 400, [1500, 800, 400]),
            (experiment.PRICING_GROUP, 1200, [1500 + 3 * 1200]),
        ],
    )
    def test_one_call_per_group_and_each_set_keeps_its_bits(
        self, budget, test_set_size, calls, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(experiment, "PRICING_GROUP", budget)
        config = tiny_config(tmp_path, test_set_size=test_set_size)
        rows, priced = [], []

        def counting_price(terms, **kwargs):
            rows.append(len(terms))
            return price_contracts(terms, **kwargs)

        def recording(fn, first):
            # x and prices are the arguments first and first + 1
            def wrapper(*args):
                priced.append(args[first : first + 2])
                return fn(*args)
            return wrapper

        monkeypatch.setattr(experiment, "price_contracts", counting_price)
        monkeypatch.setattr(experiment, "train", recording(experiment.train, 0))
        monkeypatch.setattr(experiment, "error_sample", recording(experiment.error_sample, 1))
        run_experiment(config)
        assert rows == calls

        draws = [(C_TRAIN, config.train_samples, "train-sample")] + [
            (C_TEST, config.test_set_size, f"test-sample-{i}") for i in range(config.test_sets)
        ]
        assert len(priced) == len(draws)
        for (x, prices), (box, count, label) in zip(priced, draws):
            seed = stage_seed(config.master_seed, label)
            alone = contract_terms(sample_uniform(box, count, seed))
            assert same_bits(x, alone), label
            assert same_bits(prices, price_contracts(alone, steps=config.tree_steps)), label

    def test_workers_open_one_pool_per_group(self, tmp_path, monkeypatch, force_pool, pools):
        # 100 contracts a chunk gives every group more than one chunk, so
        # each call opens a pool
        monkeypatch.setattr(experiment, "PRICING_GROUP", 1000)
        monkeypatch.setattr(pricing, "CHUNK_NODES", 100 * 41)  # 100 contracts at 40 steps
        force_pool()
        run_experiment(tiny_config(tmp_path, test_set_size=400))
        assert pools == [2, 2, 2]  # 1,500 rows, then 800, then 400


class TestReportOracle:
    @pytest.mark.parametrize("shape", REPORT_SHAPES)
    def test_aggregates_match_frozen_derivation(self, shape, tiny_run, tmp_path):
        report = report_of_shape(shape, tiny_run, tmp_path)
        want = frozen_aggregates(report)
        assert len(want["exceed_at_u_ref"]) == len(report.exceed_at_u_ref)
        for name, value in want.items():
            key = AGGREGATE_KEYS.get(name, name)
            got = report.aggregates[key] if key in report.aggregates else getattr(report, name)
            assert same_bits(got, value), name
        assert all(type(v) is float for v in report.exceed_at_u_ref)

    def test_many_sets_tell_the_two_reductions_apart(self, tiny_run, tmp_path):
        # the figure's mean at u_ref is not the aggregate's mean in the last
        # bit, so the oracle above sees a merge of the two reductions
        report = report_of_shape("many-sets", tiny_run, tmp_path)
        mean = report.aggregates["exceed_at_u_ref_mean"]
        assert report.figure[0, 0] == report.aggregates["u_ref"]
        assert report.figure[0, 1] != mean
        assert report.figure[0, 1] == pytest.approx(mean, rel=1e-15)

    def test_reports_from_the_same_inputs_are_equal(self, tmp_path):
        report = synthetic_report(tmp_path)
        inputs = [getattr(report, f.name) for f in fields(report) if f.init]
        assert ExperimentReport(*inputs) == report

    def test_pooled_maximum_at_the_reference_threshold_is_rejected(self, tmp_path):
        # a hand-made fit whose threshold sits above every error
        config = tiny_config(tmp_path, test_sets=1, k=5, test_set_size=100)
        errors = ErrorSample(np.linspace(0.0, 1.0, 100))
        fit = TailFit(n=100, k=5, u=1.0, xstar_hat=2.0, gamma_hat=-0.5)
        with pytest.raises(ValueError, match="^pooled maximum does not exceed"):
            ExperimentReport(config, [fit], [], [errors], HAND_TRAINING)

    def test_fits_and_error_sets_must_pair_up(self, tmp_path):
        # two fits over one error set used to read fitted_sets = 1, and
        # write_report then ran out of per-set values
        report = synthetic_report(tmp_path, test_sets=2)
        message = "^need one fit per error set, got 2 fits and 1 error sets$"
        with pytest.raises(ValueError, match=message):
            replace(report, per_set_errors=report.per_set_errors[:1])
        with pytest.raises(ValueError, match="got 1 fits and 2 error sets$"):
            replace(report, fits=report.fits[:1])

    def test_run_without_a_figure_writes_no_output(self, tmp_path, monkeypatch):
        # the report is rejected when it is built, before report.txt is written
        def fit_above_every_error(sample, k):
            top = float(sample.values[-1])
            return TailFit(n=sample.n, k=k, u=top + 1.0, xstar_hat=top + 2.0, gamma_hat=-0.5)

        monkeypatch.setattr(experiment, "tail_fit", fit_above_every_error)
        config = tiny_config(tmp_path, test_sets=1)
        with pytest.raises(ValueError, match="^pooled maximum does not exceed"):
            run_experiment(config)
        assert list(Path(config.output_dir).iterdir()) == []


class TestFigure:
    @pytest.mark.parametrize("shape", REPORT_SHAPES)
    def test_table_and_file_match_frozen_rows(self, shape, tiny_run, tmp_path):
        report = report_of_shape(shape, tiny_run, tmp_path)
        frozen = frozen_figure_rows(report)
        assert np.array_equal(report.figure, np.array(frozen))
        path = tmp_path / "figure1.csv"
        emit_figure_csv(report, path)
        comments = "".join(f"# {k}={v}\n" for k, v in _config_comments(report).items())
        rows = "".join(
            ",".join([repr(x), *map(format_probability, probabilities)]) + "\n"
            for x, *probabilities in frozen
        )
        assert path.read_text() == f"{comments}{FIGURE_HEADER}\n{rows}"

    def test_header_and_round_trip(self, tiny_run):
        config, report = tiny_run
        path = Path(config.output_dir, "figure1.csv")
        lines = [
            line
            for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == FIGURE_HEADER
        table = read_table(path, FIGURE_HEADER)
        assert table.shape == (40, 7)

    def test_config_comments_keep_the_file_order(self, tiny_run):
        # the keys derive from the config dataclasses' fields; files keep this order
        _, report = tiny_run
        assert list(_config_comments(report)) == [
            "config_version", "train_samples", "test_sets", "test_set_size", "k", "tree_steps",
            "widths", "epochs", "batch_size", "validation_fraction", "learning_rate",
            "master_seed", "train_seed",
        ]

    def test_figure_embeds_configuration(self, tiny_run):
        config, _ = tiny_run
        text = Path(config.output_dir, "figure1.csv").read_text()
        assert f"# tree_steps={config.tree_steps}" in text
        assert "# widths=5,8,8,8,1" in text
        assert f"# master_seed={config.master_seed}" in text

    def test_columns_monotone_and_banded(self, tiny_run):
        config, report = tiny_run
        figure = read_figure(Path(config.output_dir, "figure1.csv"))
        evt, emp = figure["evt_mean"], figure["empirical"]
        assert all(a >= b - 1e-15 for a, b in zip(evt, evt[1:]))
        assert all(a >= b for a, b in zip(emp, emp[1:]))
        for lo, mean, hi, empirical in zip(figure["evt_lo"], evt, figure["evt_hi"], emp):
            assert 0.0 <= lo <= mean <= hi <= 1.0
            assert 0.0 <= empirical <= 1.0

    def test_markov_columns_cross_at_moment_ratio(self, tiny_run):
        config, report = tiny_run
        figure = read_figure(Path(config.output_dir, "figure1.csv"))
        m2 = float(np.mean(report.pooled.values**2))
        m4 = float(np.mean(report.pooled.values**4))
        crossover = (m4 / m2) ** 0.5
        for x, markov_m2, markov_m4 in zip(figure["x"], figure["markov_m2"], figure["markov_m4"]):
            if x > crossover:
                assert markov_m4 <= markov_m2 + 1e-15

    def test_shared_threshold_row_equals_rate(self, tmp_path):
        report = synthetic_report(tmp_path)
        rate = report.fits[0].k / report.fits[0].n
        u = report.fits[0].u
        assert all(f.u == u for f in report.fits)
        row = report.figure[0]
        assert row[0] == report.aggregates["u_ref"] == u
        # every set contributes exactly k/N at the shared threshold; the
        # cross-set mean and band collapse onto it up to averaging ulps
        assert row[1] == pytest.approx(rate, abs=1e-15)
        assert row[2] == pytest.approx(rate, abs=1e-15)
        assert row[3] == pytest.approx(rate, abs=1e-15)

    def test_default_grid_spans_threshold_to_max(self, tiny_run):
        _, report = tiny_run
        grid = report.figure[:, 0]
        assert grid[0] == pytest.approx(report.aggregates["u_ref"], rel=1e-12)
        assert grid[-1] == pytest.approx(float(report.pooled.values[-1]), rel=1e-12)
        assert grid.size == FIGURE_POINTS == 40


class TestFormatProbability:
    def test_plain_decimal_above_cutoff(self):
        assert format_probability(0.0025) == "0.0025"
        assert format_probability(5e-5) == "0.00005"
        assert format_probability(1.0) == "1.0"

    def test_scientific_below_cutoff(self):
        assert "e" in format_probability(5e-7)

    def test_zero(self):
        assert format_probability(0.0) == "0"

    def test_round_trips_through_float(self):
        for p in (0.0027, 1e-6, 0.123456789, 0.5):
            assert float(format_probability(p)) == pytest.approx(p, rel=1e-12)
