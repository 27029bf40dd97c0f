import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import errortail
from errortail.cli import build_parser, main
from errortail.experiment import ExperimentConfig
from errortail.gpd import GpdParams, gpd_sample
from errortail.pricing import (
    crr_american_put,
    OptionContract,
    price_contracts,
    sample_uniform,
    C_TEST,
    C_TRAIN,
    write_priced_csv,
)
from errortail.mlp import EVAL_BLOCK_ROWS, TrainConfig, _openblas, init_model, save_model
from errortail.tail import ErrorSample, read_error_csv, write_error_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrice:
    def test_prints_tree_price(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "price",
            "--strike-pct", "1.0",
            "--maturity-months", "12",
            "--rate", "0.02",
            "--dividend-yield", "0.0",
            "--volatility", "0.2",
            "--steps", "200",
        )
        assert code == 0
        expected = crr_american_put(OptionContract(1.0, 12.0, 0.02, 0.0, 0.2), 200)
        assert float(out.strip()) == expected

    def test_spot_is_not_an_option(self, capsys):
        # every price is for an initial stock price of 100 USD
        with pytest.raises(SystemExit) as info:
            main(["price", "-K", "1.0", "-T", "12", "-r", "0.02", "-q", "0.0",
                  "--volatility", "0.2", "--spot", "50"])
        assert info.value.code == 2
        assert "--spot" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_rejects_degenerate_tree(self, capsys):
        code, out, err = run_cli(
            capsys, "price", "-K", "1", "-T", "12", "-r", "0.02", "-q", "0",
            "--volatility", "1e-20",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: contract: risk-neutral up-probability outside [0, 1]")
        assert err.endswith("; the up factor rounds to 1, so the tree is degenerate\n")

    def test_rejects_bad_contract(self, capsys):
        code, _, err = run_cli(
            capsys,
            "price",
            "--strike-pct", "-1.0",
            "--maturity-months", "12",
            "--rate", "0.02",
            "--dividend-yield", "0.0",
            "--volatility", "0.2",
        )
        assert code != 0
        assert "strike_pct" in err


class TestFitAndQuery:
    @pytest.fixture()
    def hand_errors_csv(self, tmp_path):
        path = tmp_path / "errors.csv"
        write_error_csv(path, ErrorSample([1.0, 2.0, 3.0, 4.0, 5.0]))
        return path

    def test_fit_tail_prints_hand_case(self, capsys, hand_errors_csv):
        code, out, _ = run_cli(capsys, "fit-tail", str(hand_errors_csv), "--k", "2")
        assert code == 0
        fields = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert fields["n"] == "5" and fields["k"] == "2"
        assert float(fields["u"]) == 3.0
        assert float(fields["xstar_hat"]) == pytest.approx(5.41504, abs=1e-5)
        assert float(fields["gamma_hat"]) == pytest.approx(-1.14783, abs=1e-5)

    def test_fit_file_round_trip_through_query(self, capsys, hand_errors_csv, tmp_path):
        fit_path = tmp_path / "fit.txt"
        code, out, _ = run_cli(
            capsys, "fit-tail", str(hand_errors_csv), "--k", "2", "--out", str(fit_path)
        )
        assert code == 0 and fit_path.exists()

        code, out, _ = run_cli(capsys, "tail-query", "--fit", str(fit_path), "--x", "3.0")
        assert code == 0
        assert float(out.strip()) == 2.0 / 5.0  # k/N at the threshold

        code, out, _ = run_cli(capsys, "tail-query", "--fit", str(fit_path))
        assert code == 0
        fit_u, fit_xstar, fit_gamma = 3.0, 5.415037499278844, -1.1478300001978743
        expected = (fit_xstar - fit_u) / (1.0 - 1.0 / fit_gamma)
        assert float(out.strip()) == pytest.approx(expected, rel=1e-12)

    def test_query_boundary_rate_large_sample(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.txt"
        fit_path.write_text(
            "n = 100000\nk = 270\nu = 0.0033\nxstar_hat = 0.009\ngamma_hat = -0.4\n"
        )
        code, out, _ = run_cli(capsys, "tail-query", "--fit", str(fit_path), "--x", "0.0033")
        assert code == 0
        assert float(out.strip()) == 270 / 100000

    def test_fit_tail_rejects_undersized_k(self, capsys, hand_errors_csv):
        code, _, err = run_cli(capsys, "fit-tail", str(hand_errors_csv), "--k", "3")
        assert code != 0
        assert "2k" in err

    def test_fit_tail_names_tied_top_order_statistics(self, capsys, tmp_path):
        path = tmp_path / "tied.csv"
        write_error_csv(path, ErrorSample(np.concatenate([np.linspace(0, 1, 50), [2.0] * 6])))
        code, out, err = run_cli(capsys, "fit-tail", str(path), "--k", "5")
        assert code == 1 and out == ""
        assert "the top 6 order statistics are tied at the threshold u = 2.0" in err

    def test_tail_query_rejects_nan_level(self, capsys, hand_errors_csv, tmp_path):
        fit_path = tmp_path / "fit.txt"
        run_cli(capsys, "fit-tail", str(hand_errors_csv), "--k", "2", "--out", str(fit_path))
        code, _, err = run_cli(capsys, "tail-query", "--fit", str(fit_path), "--x", "nan")
        assert code == 1
        assert "threshold" in err

    def test_tail_query_rejects_non_finite_fit(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.txt"
        fit_path.write_text("n = 10\nk = 2\nu = 1.0\nxstar_hat = inf\ngamma_hat = -0.5\n")
        code, out, err = run_cli(capsys, "tail-query", "--fit", str(fit_path))
        assert code == 1 and out == ""
        assert f"{fit_path}: xstar_hat must be finite" in err

    def test_tail_query_rejects_overflowing_shape(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.txt"
        fit_path.write_text("n = 10\nk = 2\nu = 1.0\nxstar_hat = 2.0\ngamma_hat = -1e-320\n")
        for extra in ([], ["--x", "1.5"]):
            code, out, err = run_cli(capsys, "tail-query", "--fit", str(fit_path), *extra)
            assert code == 1 and out == ""
            assert f"{fit_path}: 1/gamma_hat must be finite" in err

    def test_tail_query_rejects_truncated_fit_file(self, capsys, tmp_path):
        fit_path = tmp_path / "fit.txt"
        fit_path.write_text("n = 10\nk = 2\n")
        code, _, err = run_cli(capsys, "tail-query", "--fit", str(fit_path), "--x", "1.0")
        assert code != 0
        assert "missing fit fields" in err


class TestMarkov:
    def test_worked_example(self, capsys, tmp_path):
        path = tmp_path / "errors.csv"
        write_error_csv(path, ErrorSample([math.sqrt(1.65e-8)]))
        code, out, _ = run_cli(capsys, "markov", str(path), "--m", "2", "--x", "0.0033")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.515e-3, abs=1e-6)

    def test_rejects_nonpositive_level(self, capsys, tmp_path):
        path = tmp_path / "errors.csv"
        write_error_csv(path, ErrorSample([1.0]))
        code, _, err = run_cli(capsys, "markov", str(path), "--m", "2", "--x", "0")
        assert code != 0 and "x" in err

    @pytest.mark.parametrize(
        "m, x, expected",
        [("2", "1e-200", "1.0"), ("400", "1e10", "0.0"), ("1e308", "2", "1.0"),
         ("1000", "0.5", "1.0")],
    )
    def test_bound_beyond_the_float_range(self, capsys, tmp_path, m, x, expected):
        path = tmp_path / "errors.csv"
        write_error_csv(path, ErrorSample([0.1, 0.5, 2.0, 3.0]))
        assert run_cli(capsys, "markov", str(path), "--m", m, "--x", x) == (0, f"{expected}\n", "")


class TestGpdSample:
    def test_writes_readable_sample(self, capsys, tmp_path):
        path = tmp_path / "draws.csv"
        code, out, _ = run_cli(
            capsys,
            "gpd-sample",
            "--gamma", "-0.5",
            "--sigma", "1.0",
            "--count", "500",
            "--seed", "3",
            "--out", str(path),
        )
        assert code == 0
        sample = read_error_csv(path)
        expected = np.sort(gpd_sample(GpdParams(-0.5, 1.0), 500, seed=3))
        assert np.array_equal(sample.values, expected)

    def test_feeds_fit_tail(self, capsys, tmp_path):
        path = tmp_path / "draws.csv"
        run_cli(
            capsys,
            "gpd-sample",
            "--gamma", "-0.5",
            "--sigma", "1.0",
            "--count", "2000",
            "--seed", "4",
            "--out", str(path),
        )
        code, out, _ = run_cli(capsys, "fit-tail", str(path), "--k", "80")
        assert code == 0
        fields = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        # endpoint of the sampled law is 2, the estimate should be near it
        assert float(fields["xstar_hat"]) == pytest.approx(2.0, abs=0.3)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma, sigma", [("5", "1e307"), ("0", "1e308")])
    def test_draws_beyond_the_float_range_are_named(self, capsys, tmp_path, gamma, sigma):
        code, out, err = run_cli(
            capsys, "gpd-sample", "--gamma", gamma, "--sigma", sigma, "--count", "50",
            "--seed", "1", "--out", str(tmp_path / "g.csv"),
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: a draw of the GPD with gamma={float(gamma)} and sigma={float(sigma)} "
            "exceeds the float range\n"
        )
        assert not (tmp_path / "g.csv").exists()

    def test_comment_lines_record_the_flags(self, capsys, tmp_path):
        path = tmp_path / "draws.csv"
        code, _, _ = run_cli(
            capsys, "gpd-sample", "--gamma=-5e-1", "--sigma", "1", "--count", "3",
            "--seed", "0", "--out", str(path),
        )
        assert code == 0
        head = path.read_text().splitlines()[:5]
        assert head == ["# gamma=-0.5", "# sigma=1.0", "# count=3", "# seed=0", "error"]

    def test_negative_seed_is_named(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "gpd-sample", "--gamma", "-0.5", "--sigma", "1", "--count", "3",
            "--seed", "-1", "--out", str(tmp_path / "x.csv"),
        )
        assert (code, out) == (1, "")
        assert err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "x.csv").exists()


class TestTrainAndErrors:
    def test_pipeline_round_trip(self, capsys, tmp_path):
        contracts = sample_uniform(C_TRAIN, 300, seed=5)
        prices = price_contracts(contracts, steps=30)
        data_path = tmp_path / "train.csv"
        write_priced_csv(data_path, contracts, prices)
        model_path = tmp_path / "model.json"
        code, out, _ = run_cli(
            capsys,
            "train",
            "--data", str(data_path),
            "--out", str(model_path),
            "--widths", "5,8,1",
            "--epochs", "2",
            "--batch-size", "20",
            "--seed", "1",
        )
        assert code == 0 and model_path.exists()
        assert "final_validation_mse_usd2" in out

        errors_path = tmp_path / "errors.csv"
        code, out, _ = run_cli(
            capsys,
            "errors",
            "--model", str(model_path),
            "--data", str(data_path),
            "--out", str(errors_path),
        )
        assert code == 0
        sample = read_error_csv(errors_path)
        assert sample.n == 300

    @pytest.mark.skipif(
        _openblas() is None,
        reason="numpy's bundled OpenBLAS thread functions are not loaded, so nothing "
        "pins the BLAS thread count and it is part of the reproducibility unit",
    )
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # width 300 makes both BLAS thread counts split the products; the test
        # set is 10 blocks, enough for the threaded evaluation
        for name, box, rows, seed in (("train.csv", C_TRAIN, 200, 1), ("test.csv", C_TEST, 5000, 2)):
            contracts = sample_uniform(box, rows, seed)
            write_priced_csv(tmp_path / name, contracts, price_contracts(contracts, steps=20))
        src = str(Path(errortail.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            run_dir = tmp_path / f"threads-{threads}"
            run_dir.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            # relative paths, because errors.csv records the model and data paths
            for argv in (
                ["train", "--data", "../train.csv", "--out", "model.json",
                 "--widths", "5,300,300,1", "--epochs", "1"],
                ["errors", "--model", "model.json", "--data", "../test.csv", "--out", "errors.csv"],
            ):
                subprocess.run(
                    [sys.executable, "-m", "errortail.cli", *argv],
                    cwd=run_dir, env=env, check=True, capture_output=True,
                )
            outputs.append([(run_dir / f).read_bytes() for f in ("model.json", "errors.csv")])
        assert outputs[0] == outputs[1]

    def test_paper_scale_and_widths_are_exclusive(self, capsys, tmp_path):
        # one of the two would be ignored
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", "d.csv", "--out", str(tmp_path / "m.json"),
                  "--paper-scale", "--widths", "5,8,1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --widths: not allowed with argument --paper-scale" in err
        assert not (tmp_path / "m.json").exists()

    def test_errors_repeats_its_bits_across_blocks(self, capsys, tmp_path):
        # more rows than one evaluation block: the same model file and the
        # same data file give the same errors.csv bytes
        contracts = sample_uniform(C_TRAIN, 2 * EVAL_BLOCK_ROWS + 37, seed=6)
        data_path = tmp_path / "test.csv"
        write_priced_csv(data_path, contracts, price_contracts(contracts, steps=20))
        model_path = tmp_path / "model.json"
        save_model(init_model([5, 16, 16, 1], seed=7), model_path)
        outputs = []
        for name in ("first.csv", "second.csv"):
            code, _, _ = run_cli(
                capsys,
                "errors",
                "--model", str(model_path),
                "--data", str(data_path),
                "--out", str(tmp_path / name),
            )
            assert code == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        assert read_error_csv(tmp_path / "first.csv").n == len(contracts)

    @pytest.mark.parametrize("newline", ["\n", "\r"])
    def test_errors_rejects_a_line_break_in_a_comment(self, capsys, tmp_path, newline):
        # the model's path is a comment of errors.csv: a line break in it
        # would turn its tail into the table's header
        contracts = sample_uniform(C_TRAIN, 4, seed=6)
        data_path = tmp_path / "test.csv"
        write_priced_csv(data_path, contracts, price_contracts(contracts, steps=20))
        model_path = tmp_path / f"m{newline}x.json"
        save_model(init_model([5, 4, 1], seed=7), model_path)
        out_path = tmp_path / "errors.csv"
        code, out, err = run_cli(
            capsys,
            "errors", "--model", str(model_path), "--data", str(data_path),
            "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: a comment must fit on one line, got {f'model={model_path}'!r}\n"
        assert not out_path.exists()

    def test_errors_rejects_non_object_model(self, capsys, tmp_path):
        model_path = tmp_path / "m.json"
        model_path.write_text("[]")
        code, _, err = run_cli(
            capsys,
            "errors",
            "--model", str(model_path),
            "--data", str(tmp_path / "unread.csv"),
            "--out", str(tmp_path / "errors.csv"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: expected a JSON object")

    @pytest.mark.parametrize("field, value, message", [
        ("layer_widths", [5.5, 4, 1], "field 'layer_widths': "),
        ("layer_widths", 5, "field 'layer_widths': "),
        ("layers", 3, "field 'layers': "),
        ("input_lower", None, "field 'input_lower': "),
        # well-formed fields that break the model rule
        ("layers", [{"weights": [[0.5]], "bias": [0.5]}] * 2,
         "layer 0 arrays do not match layer_widths\n"),
        ("input_lower", [0.0] * 4, "a domain box needs 5 lower and 5 upper bounds\n"),
    ], ids=["fractional-width", "int-widths", "int-layers", "null-input-lower",
            "layers-off-the-widths", "four-input-bounds"])
    def test_errors_names_the_bad_model_field(self, capsys, tmp_path, field, value, message):
        model_path = tmp_path / "m.json"
        save_model(init_model([5, 4, 1], seed=0), model_path)
        doc = json.loads(model_path.read_text())
        model_path.write_text(json.dumps({**doc, field: value}))
        code, _, err = run_cli(
            capsys,
            "errors",
            "--model", str(model_path),
            "--data", str(tmp_path / "unread.csv"),
            "--out", str(tmp_path / "errors.csv"),
        )
        assert code == 1
        assert err.startswith(f"error: {model_path}: {message}")
        assert "Traceback" not in err

    def test_train_defaults_follow_configs(self):
        args = build_parser().parse_args(["train", "--data", "d.csv", "--out", "m.json"])
        defaults = TrainConfig()
        for name in ("epochs", "batch_size", "validation_fraction", "learning_rate", "seed"):
            assert getattr(args, name) == getattr(defaults, name), name
        assert args.widths == ExperimentConfig().widths

    def test_train_rejects_malformed_widths(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["train", "--data", "d.csv", "--out", "m.json", "--widths", "5,x,1"])
        assert info.value.code == 2
        assert "--widths" in capsys.readouterr().err

    def test_train_rejects_empty_validation_split(self, capsys, tmp_path):
        contracts = sample_uniform(C_TRAIN, 40, seed=5)
        data_path = tmp_path / "train.csv"
        write_priced_csv(data_path, contracts, price_contracts(contracts, steps=10))
        model_path = tmp_path / "model.json"
        code, out, err = run_cli(
            capsys, "train", "--data", str(data_path), "--out", str(model_path),
            "--widths", "5,4,1", "--batch-size", "10", "--validation-fraction", "0.01",
        )
        assert code == 1 and out == "" and not model_path.exists()
        assert "validation_fraction 0.01 of a dataset of size 40 holds out no validation" in err

    def test_train_rejects_malformed_csv(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("K,T,r,q,sigma,price\n1.0,12.0,0.02,0.0,bad,3.0\n")
        code, _, err = run_cli(
            capsys, "train", "--data", str(bad), "--out", str(tmp_path / "m.json")
        )
        assert code != 0
        assert "line 2" in err


class TestExperimentCommand:
    def test_tiny_run_with_config_file_and_overrides(self, capsys, tmp_path):
        config_path = tmp_path / "config.txt"
        config_path.write_text(
            "config_version = 1\n"
            "train_samples = 1200\n"
            "test_sets = 2\n"
            "test_set_size = 800\n"
            "k = 3\n"
            "tree_steps = 30\n"
            "widths = 5,6,6,6,1\n"
            "epochs = 2\n"
            "batch_size = 40\n"
        )
        out_dir = tmp_path / "results"
        code, out, _ = run_cli(
            capsys,
            "experiment",
            "--config", str(config_path),
            "--seed", "11",
            "--out", str(out_dir),
        )
        assert code == 0
        assert (out_dir / "figure1.csv").exists()
        assert (out_dir / "report.txt").exists()
        assert "exceed_at_u_ref_mean" in out
        report_text = (out_dir / "report.txt").read_text()
        # stdout is the report's [aggregates] section, then the output directory
        aggregates = report_text.split("\n[aggregates]\n")[1]
        assert out == f"{aggregates}outputs in {out_dir}\n"
        assert "master_seed = 11" in report_text
        assert "k = 3" in report_text

    def test_workers_is_not_an_option(self, capsys):
        # pricing picks its own processes
        with pytest.raises(SystemExit) as info:
            main(["experiment", "--workers", "2"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_rejects_malformed_config(self, capsys, tmp_path):
        config_path = tmp_path / "config.txt"
        config_path.write_text("config_version = 1\ntrain_samples = many\n")
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code != 0
        assert "train_samples" in err
