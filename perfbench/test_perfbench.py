"""Tests of the benchmark's reference computations, output checks and tracer.

    python3 -m pytest perfbench -q

Every output check must accept the program's real output and reject a
deliberately perturbed copy; the reference computations must reproduce
hand-worked and closed-form values.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import reference
import tracer
import workloads
from errortail import experiment, mlp

HERE = Path(__file__).resolve().parent


# --- reference computations -------------------------------------------


def test_tail_estimates_hand_case():
    # README hand case: e = (1, 2, 3, 5), k = 2.
    u, xstar, gamma = reference.tail_estimates([5.0, 1.0, 3.0, 2.0], 2)
    span = 3.0 + math.log2(4.0 / 3.0)
    assert u == 2.0
    assert xstar == pytest.approx(5.0 + math.log2(4.0 / 3.0), rel=1e-15)
    assert gamma == pytest.approx(0.5 * (math.log(1 - 1 / span) + math.log(1 - 3 / span)), rel=1e-14)


def test_tail_estimates_rejects_k_beyond_half():
    with pytest.raises(ValueError):
        reference.tail_estimates([1.0, 2.0, 3.0], 2)


@pytest.mark.parametrize("strike", [0.8, 1.0, 1.25])
@pytest.mark.parametrize("vol", [0.15, 0.4])
def test_crr_loop_converges_to_european_at_zero_rates(strike, vol):
    # With r = q = 0 early exercise never pays, so the American put is the
    # European one up to the tree's discretization error.
    tree = reference.crr_american_put(strike, 12.0, 0.0, 0.0, vol, steps=500)
    european = reference.bs_european_put(strike, 12.0, 0.0, 0.0, vol)
    assert tree == pytest.approx(european, abs=checks.TREE_ALLOWANCE)


def test_moment_bound_and_survival_fraction_by_hand():
    values = [1.0, 2.0, 2.0, 4.0]
    assert reference.moment_bound(values, 2.0, 4.0) == pytest.approx(25.0 / 4.0 / 16.0)
    assert reference.moment_bound(values, 1.0, 1.0) == 1.0
    assert [reference.survival_fraction(values, x) for x in (0.5, 2.0, 3.0, 4.0)] == [1.0, 0.25, 0.25, 0.0]


# --- output checks ------------------------------------------------------


def edit_cell(path: Path, row: int, col: int, change) -> None:
    """Apply ``change`` to one field of a CSV data row (comments and header skipped)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[col] = change(fields[col])
    lines[data[row]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def drop_row(path: Path, row: int) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    del lines[data[row]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def scaled(factor: float):
    return lambda text: repr(float(text) * factor)


@pytest.fixture
def ksweep_runs(tmp_path):
    runs = []
    for k in (3, 5):
        config = experiment.desk_scale_config(
            train_samples=200, test_sets=3, test_set_size=60, k=k, tree_steps=20,
            widths=(5, 8, 8, 1), train_config=mlp.TrainConfig(epochs=2),
            output_dir=str(tmp_path / f"k{k}"),
        )
        runs.append((k, experiment.run_experiment(config), tmp_path / f"k{k}"))
    return runs


def _replace_fit(runs, **change):
    report = runs[0][1]
    report.fits[1] = replace(report.fits[1], **{
        key: getattr(report.fits[1], key) * factor for key, factor in change.items()
    })


def _shift_pooled(runs):
    pooled = runs[1][1].pooled
    pooled.values = pooled.values.copy()
    pooled.values[-1] += 1e-9


KSWEEP_PERTURBATIONS = {
    "xstar_hat": lambda runs: _replace_fit(runs, xstar_hat=1 + 1e-6),
    "gamma_hat": lambda runs: _replace_fit(runs, gamma_hat=1 + 1e-5),
    "pooled errors differ across k": _shift_pooled,
    "pooled row missing": lambda runs: drop_row(runs[0][2] / "pooled_errors.csv", 7),
    "figure level missing": lambda runs: drop_row(runs[1][2] / "figure1.csv", 39),
    "empirical": lambda runs: edit_cell(runs[0][2] / "figure1.csv", 3, 4, scaled(1.001)),
    "markov_m2": lambda runs: edit_cell(runs[0][2] / "figure1.csv", 3, 5, scaled(1.001)),
    "markov_m4": lambda runs: edit_cell(runs[1][2] / "figure1.csv", 30, 6, scaled(0.999)),
    "band": lambda runs: edit_cell(runs[0][2] / "figure1.csv", 0, 2, lambda v: "1.5"),
    "evt_mean rises": lambda runs: [
        edit_cell(runs[0][2] / "figure1.csv", 20, col, lambda v: "0.9") for col in (1, 3)
    ],
}


def test_ksweep_check_accepts_real_output(ksweep_runs):
    checks.check_ksweep(ksweep_runs)


@pytest.mark.parametrize("perturb", KSWEEP_PERTURBATIONS.values(), ids=KSWEEP_PERTURBATIONS.keys())
def test_ksweep_check_rejects(ksweep_runs, perturb):
    perturb(ksweep_runs)
    with pytest.raises(checks.CheckError):
        checks.check_ksweep(ksweep_runs)


def test_tree_check():
    terms = [(0.9, 12.0, 0.02, 0.01, 0.3), (1.4, 11.0, 0.015, 0.0, 0.1)]
    prices = [reference.crr_american_put(*t, steps=50) for t in terms]
    checks.check_tree_prices(terms, prices, 50)
    with pytest.raises(checks.CheckError):
        checks.check_tree_prices(terms, [prices[0], prices[1] - 1e-6], 50)


def test_ksweep_final_check_reprices_test_set_0():
    workloads.ExperimentKSweep().final_check(1)


@pytest.fixture
def cli_round(tmp_path):
    workload = workloads.SurrogateCli()
    workload.TRAIN_ROWS, workload.TEST_ROWS, workload.K = 1000, 400, 10
    (tmp_path / "setup").mkdir()
    (tmp_path / "round").mkdir()
    fixture = workload.setup(3, tmp_path / "setup")
    return workload, fixture, workload.run_round(fixture, tmp_path / "round")


def _set_stdout(index, change):
    def perturb(rnd):
        argv, code, text = rnd.state["calls"][index]
        rnd.state["calls"][index] = (argv, code, change(text))
    return perturb


def _set_code(rnd):
    argv, _, text = rnd.state["calls"][1]
    rnd.state["calls"][1] = (argv, 1, text)


def _edit_fit(rnd):
    path = rnd.state["out"] / "fit.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [
        f"xstar_hat = {float(line.split('=')[1]) * (1 + 1e-6)!r}" if line.startswith("xstar_hat") else line
        for line in lines
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


CLI_PERTURBATIONS = {
    "exit code": _set_code,
    "error value": lambda rnd: edit_cell(rnd.state["out"] / "errors.csv", 100, 0, scaled(1 + 1e-6)),
    "error row missing": lambda rnd: drop_row(rnd.state["out"] / "errors.csv", 0),
    "fit.txt": _edit_fit,
    "tail-query at u": _set_stdout(3, lambda text: repr(float(text) * (1 + 1e-15))),
    "mean excess": _set_stdout(4, lambda text: repr(float(text) * 1.001)),
    "markov": _set_stdout(5, lambda text: repr(float(text) * 1.001)),
    "validation mse": _set_stdout(0, lambda text: re.sub(r"(validation_mse_usd2 = )\S+", r"\g<1>1e6", text)),
}


def test_surrogate_check_accepts_real_output(cli_round):
    workload, fixture, rnd = cli_round
    assert rnd.failed == 0
    workload.check(fixture, rnd)


@pytest.mark.parametrize("perturb", CLI_PERTURBATIONS.values(), ids=CLI_PERTURBATIONS.keys())
def test_surrogate_check_rejects(cli_round, perturb):
    workload, fixture, rnd = cli_round
    perturb(rnd)
    with pytest.raises(checks.CheckError):
        workload.check(fixture, rnd)


@pytest.fixture
def tail_round(tmp_path):
    workload = workloads.TailStudy()
    workload.SAMPLE_SIZE = 240
    specs = workload.setup(5, tmp_path)
    return workload, specs, workload.run_round(specs, tmp_path)


def _set_result(position, change, k=None):
    def perturb(rnd):
        i = next(i for i, r in enumerate(rnd.values) if k is None or r[1] == k)
        row = list(rnd.values[i])
        row[position] = change(row)
        rnd.values[i] = tuple(row)
    return perturb


def _escape_support(rnd):
    rnd.state["draws"][2] = rnd.state["draws"][2].copy()
    rnd.state["draws"][2][0] = 1e3


TAIL_PERTURBATIONS = {
    "gamma_hat sign": _set_result(4, lambda row: -row[4]),
    "xstar_hat at a reference k": _set_result(3, lambda row: row[3] * (1 + 1e-6), k=10),
    "xstar_hat below the maximum": _set_result(3, lambda row: row[2]),
    "exceedance at u": _set_result(5, lambda row: (row[5][0] * (1 + 1e-12),) + row[5][1:]),
    "exceedance rises": _set_result(5, lambda row: row[5][:2] + (row[5][1] * 2,) + row[5][3:]),
    "mean excess": _set_result(6, lambda row: row[3] - row[2]),
    "markov": _set_result(7, lambda row: row[7] * 1.001, k=100),
    "draw outside support": _escape_support,
}


def test_tail_check_accepts_real_output(tail_round):
    workload, specs, rnd = tail_round
    assert rnd.failed == 0 and rnd.attempted == len(specs) * 119
    workload.check(specs, rnd)


@pytest.mark.parametrize("perturb", TAIL_PERTURBATIONS.values(), ids=TAIL_PERTURBATIONS.keys())
def test_tail_check_rejects(tail_round, perturb):
    workload, specs, rnd = tail_round
    perturb(rnd)
    with pytest.raises(checks.CheckError):
        workload.check(specs, rnd)


# --- tracer -------------------------------------------------------------


def test_tracer_self_time_and_rates():
    t = tracer.Tracer()
    t.spans = [
        ["cli.main", "round-1", -1, 0.0, 10.0, 0],
        ["mlp.error_sample", "round-1", 0, 2.0, 5.0, 300],
        ["tail.tail_fit", "round-1", 0, 6.0, 6.5, 0],
        ["tail.tail_fit", "round-1", 0, 7.0, 7.5, 0],
        ["cli.main", "round-3", -1, 0.0, 4.0, 0],
    ]
    values = t.metrics()
    assert values["cli.self_s"] == pytest.approx((6.0 + 4.0) / 2)
    assert values["mlp.error_sample.rows_per_s"] == pytest.approx(100.0)
    assert values["tail.tail_fit.us"] == pytest.approx(0.5e6)
    assert values["pricing.price_contracts.s"] == 0.0


def test_tracer_restores_every_wrapped_name():
    from errortail import cli, tail

    before = (cli.main, tail.tail_fit, tail.ErrorSample.__init__)
    t = tracer.Tracer()
    with t.active("round-0"):
        assert cli.main is not before[0]
        tail.ErrorSample([2.0, 1.0])
    assert (cli.main, tail.tail_fit, tail.ErrorSample.__init__) == before
    assert [s[0] for s in t.spans] == ["tail.ErrorSample"]


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [m[:3] for m in tracer.LAYER_METRICS] + [tracer.OVERHEAD_METRIC]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
