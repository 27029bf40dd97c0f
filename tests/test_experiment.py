import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from errortail.experiment import (
    ExperimentConfig,
    FIGURE_HEADER,
    FIGURE_POINTS,
    _aggregate,
    _config_comments,
    _figure_table,
    _set_exceedance_estimate,
    desk_scale_config,
    emit_figure_csv,
    format_probability,
    load_config,
    paper_scale_config,
    pooled_empirical_sf,
    run_experiment,
    write_report,
)
from errortail.mlp import TrainConfig, TrainingReport
from errortail.tail import (
    ErrorSample, exceedance_probability, markov_bound, mean_excess, tail_fit,
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
    _, table = read_table(path, FIGURE_HEADER)
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
    pooled = ErrorSample(np.concatenate([s.values for s in per_set]))
    return _aggregate(config, 0, fits, [], pooled, per_set, HAND_TRAINING)


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
    pooled = ErrorSample(np.concatenate([s.values for s in per_set]))
    return _aggregate(config, 0, fits, failures, pooled, per_set, HAND_TRAINING)


def frozen_figure_rows(report) -> list[tuple[float, ...]]:
    """The figure's arithmetic as it stood before the table was one array:
    per-level Python floats from the per-set stack, its mean and sample
    standard deviation, the 2-sigma band clipped one level at a time, the
    pooled survival fraction and the moment-bound loops. Frozen as the
    oracle for ``_figure_table``; do not edit."""
    grid = np.geomspace(report.u_ref, float(report.pooled.values[-1]), 40)
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

    def test_config_file_round_trip(self, tmp_path):
        # every key, each set away from its default
        train_config = TrainConfig(
            epochs=2, batch_size=50, validation_fraction=0.25, learning_rate=0.002,
            adam_beta1=0.8, adam_beta2=0.99, adam_epsilon=1e-07,
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
            "adam_beta1 = 0.8\n"
            "adam_beta2 = 0.99\n"
            "adam_epsilon = 1e-07\n"
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

    @pytest.mark.parametrize("key", ["learning_rate", "adam_epsilon"])
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
        assert report.exceed_mean == pytest.approx(
            float(np.mean(report.exceed_at_u_ref)), abs=1e-15
        )
        assert report.exceed_std == pytest.approx(
            float(np.std(report.exceed_at_u_ref, ddof=1)), abs=1e-15
        )
        assert report.mean_excess_mean == pytest.approx(
            float(np.mean(report.mean_excesses)), abs=1e-15
        )

    def test_u_ref_is_median_threshold(self, tiny_run):
        _, report = tiny_run
        assert report.u_ref == float(np.median([f.u for f in report.fits]))

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

    def test_workers_do_not_change_outputs(self, tiny_run, tmp_path):
        config, _ = tiny_run
        parallel = replace(config, output_dir=str(tmp_path / "parallel"))
        run_experiment(parallel, workers=2)
        assert (
            Path(config.output_dir, "figure1.csv").read_bytes()
            == Path(parallel.output_dir, "figure1.csv").read_bytes()
        )

    def test_degenerate_sets_recorded_and_excluded(self, tmp_path):
        report = degenerate_report(tmp_path)
        config = report.config

        assert len(report.exceed_at_u_ref) == config.test_sets - 1
        assert report.failures == [(1, "tied order statistics")]
        assert report.fits[1] is None
        table = _figure_table(report)
        assert table[0, 0] == report.u_ref
        assert 0.0 <= table[0, 1] <= 1.0

        path = tmp_path / "report.txt"
        write_report(report, path)
        keyvals, sets = read_report(path)
        assert keyvals["count"] == "1"
        assert sets[1]["n"] == "degenerate"
        assert int(keyvals["fitted_sets"]) == config.test_sets - 1


class TestFigure:
    @pytest.mark.parametrize(
        "shape", ["tiny-run", "shared-threshold", "one-set", "degenerate-set"]
    )
    def test_table_and_file_match_frozen_rows(self, shape, tiny_run, tmp_path):
        report = {
            "tiny-run": lambda: tiny_run[1],
            "shared-threshold": lambda: synthetic_report(tmp_path),
            "one-set": lambda: synthetic_report(tmp_path, shared_u=False, test_sets=1),
            "degenerate-set": lambda: degenerate_report(tmp_path),
        }[shape]()
        frozen = frozen_figure_rows(report)
        assert np.array_equal(_figure_table(report), np.array(frozen))
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
        _, table = read_table(path, FIGURE_HEADER)
        assert table.shape == (40, 7)

    def test_config_comments_keep_the_file_order(self, tiny_run):
        # the keys derive from the config dataclasses' fields; files keep this order
        _, report = tiny_run
        assert list(_config_comments(report)) == [
            "config_version", "train_samples", "test_sets", "test_set_size", "k", "tree_steps",
            "widths", "epochs", "batch_size", "validation_fraction", "learning_rate",
            "adam_beta1", "adam_beta2", "adam_epsilon", "master_seed", "train_seed",
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
        row = _figure_table(report)[0]
        assert row[0] == report.u_ref == u
        # every set contributes exactly k/N at the shared threshold; the
        # cross-set mean and band collapse onto it up to averaging ulps
        assert row[1] == pytest.approx(rate, abs=1e-15)
        assert row[2] == pytest.approx(rate, abs=1e-15)
        assert row[3] == pytest.approx(rate, abs=1e-15)

    def test_default_grid_spans_threshold_to_max(self, tiny_run):
        _, report = tiny_run
        grid = _figure_table(report)[:, 0]
        assert grid[0] == pytest.approx(report.u_ref, rel=1e-12)
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
