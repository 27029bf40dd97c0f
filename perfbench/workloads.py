"""The three workloads: set-up, one round of timed work, and checks.

A workload is a set-up that builds inputs from the seed, a round that is
timed and repeated with identical inputs, a check of the first round's
outputs, and a final check that may run code too slow to time. Rounds call
errortail through module attributes (``experiment.run_experiment``), never
through names bound at import, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from errortail import cli, experiment, gpd, pricing, tail

import checks
import reference


@dataclass
class Round:
    """What one round attempted, how much failed, and values whose digest
    joins those of the files the round wrote."""

    attempted: int
    failed: int
    values: object = None
    state: dict = field(default_factory=dict)


class ExperimentKSweep:
    """The desk oracle and net at reduced counts, run at two k with one seed.

    A k study reprices identical contracts at each k, so a faster tree, a
    leaner data model or a stage cache has to move this workload.
    """

    name = "experiment-ksweep"
    K_VALUES = (6, 15)
    TRAIN_SAMPLES = 600
    TEST_SETS = 4
    TEST_SET_SIZE = 300
    TREE_STEPS = 500
    WIDTHS = (5, 64, 64, 64, 1)
    TREE_CHECK_CONTRACTS = 3

    def setup(self, seed: int, where: Path):
        return seed

    def run_round(self, seed, out: Path) -> Round:
        runs = []
        for k in self.K_VALUES:
            config = experiment.desk_scale_config(
                train_samples=self.TRAIN_SAMPLES,
                test_sets=self.TEST_SETS,
                test_set_size=self.TEST_SET_SIZE,
                k=k,
                tree_steps=self.TREE_STEPS,
                widths=self.WIDTHS,
                master_seed=seed,
                output_dir=str(out / f"k{k}"),
            )
            runs.append((k, experiment.run_experiment(config), out / f"k{k}"))
        failed = sum(fit is None for _, report, _ in runs for fit in report.fits)
        return Round(len(runs) * self.TEST_SETS, failed, state={"runs": runs})

    def check(self, seed, rnd: Round) -> None:
        checks.check_ksweep(rnd.state["runs"])

    def final_check(self, seed) -> None:
        """Reprice test set 0 as ``run_experiment`` samples it, and hold the
        head of it, priced in a batch and one by one, to the CRR loop."""
        contracts = pricing.sample_uniform(
            pricing.C_TEST, self.TEST_SET_SIZE, reference.stage_seed(seed, "test-sample-0")
        )
        head = contracts[: self.TREE_CHECK_CONTRACTS]
        batch = pricing.price_contracts(contracts, steps=self.TREE_STEPS)[: len(head)]
        single = [pricing.crr_american_put(c, steps=self.TREE_STEPS) for c in head]
        terms = [tuple(c.as_array().tolist()) for c in head]
        checks.check_tree_prices(terms, batch.tolist(), self.TREE_STEPS)
        checks.check_tree_prices(terms, single, self.TREE_STEPS)


@dataclass(frozen=True)
class CliFixture:
    seed: int
    train_csv: Path
    test_csv: Path


class SurrogateCli:
    """Paper-width training and evaluation through the CLI, in-process.

    Set-up prices a training file and the paper's 100k-row test file on a
    shallow tree; the rounds never price. Training, evaluation and the CSV
    and JSON readers and writers dominate.
    """

    name = "surrogate-cli"
    TRAIN_ROWS = 1500
    TEST_ROWS = 100_000
    SHALLOW_STEPS = 20
    K = 270

    def setup(self, seed: int, where: Path) -> CliFixture:
        fixture = CliFixture(seed, where / "train.csv", where / "test.csv")
        for box, rows, path, stream in (
            (pricing.C_TRAIN, self.TRAIN_ROWS, fixture.train_csv, 0),
            (pricing.C_TEST, self.TEST_ROWS, fixture.test_csv, 1),
        ):
            contracts = pricing.sample_uniform(box, rows, 2 * seed + stream)
            prices = pricing.price_contracts(contracts, steps=self.SHALLOW_STEPS)
            pricing.write_priced_csv(path, contracts, prices)
        return fixture

    @staticmethod
    def _call(argv: list[str]) -> tuple[list[str], int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects
                code = exc.code
        return argv, code, stdout.getvalue() + stderr.getvalue()

    def run_round(self, fixture: CliFixture, out: Path) -> Round:
        model, errors, fit = (str(out / name) for name in ("model.json", "errors.csv", "fit.txt"))
        calls = [
            self._call(["train", "--paper-scale", "--data", str(fixture.train_csv),
                        "--out", model, "--seed", str(fixture.seed)]),
            self._call(["errors", "--model", model, "--data", str(fixture.test_csv), "--out", errors]),
            self._call(["fit-tail", errors, "--k", str(self.K), "--out", fit]),
        ]
        u = checks.read_key_values(calls[-1][2]).get("u", "nan")
        calls += [
            self._call(["tail-query", "--fit", fit, "--x", u]),
            self._call(["tail-query", "--fit", fit]),
            self._call(["markov", errors, "--m", "2", "--x", u]),
        ]
        failed = sum(code != 0 for _, code, _ in calls)
        printed = [text for _, _, text in calls]
        return Round(len(calls), failed, values=printed, state={"calls": calls, "out": out})

    def check(self, fixture: CliFixture, rnd: Round) -> None:
        checks.check_surrogate(
            rnd.state["out"], fixture.train_csv, fixture.test_csv, self.K, fixture.seed,
            rnd.state["calls"],
        )

    def final_check(self, fixture) -> None:
        pass


class TailStudy:
    """The estimator alone: GPD samples fitted over the whole k path.

    Tens of thousands of small closed-form fits, so per-call overhead is
    the cost. No pricing or training: this is the control for changes to
    those layers. The path starts at k = 2 because a fit at k = 1 always
    raises.
    """

    name = "tail-study"
    SHAPES = (-0.1, -0.25, -0.5, -1.0)
    SAMPLES_PER_SHAPE = 2
    SAMPLE_SIZE = 6000
    SIGMA = 1.0
    LEVELS = np.array([0.0, 0.25, 0.5, 0.75])  # fractions of xstar_hat - u

    def setup(self, seed: int, where: Path):
        return [
            (gamma, self.SIGMA, self.SAMPLE_SIZE, 1000 * seed + i)
            for i, gamma in enumerate(np.repeat(self.SHAPES, self.SAMPLES_PER_SHAPE).tolist())
        ]

    def run_round(self, specs, out: Path) -> Round:
        draws, results = [], []
        attempted = failed = 0
        for index, (gamma, sigma, n, seed) in enumerate(specs):
            values = gpd.gpd_sample(gpd.GpdParams(gamma, sigma), n, seed)
            draws.append(values)
            sample = tail.ErrorSample(values)
            for k in range(2, n // 2 + 1):
                attempted += 1
                try:
                    fit = tail.tail_fit(sample, k)
                except tail.DegenerateSampleError:
                    failed += 1
                    continue
                levels = fit.u + (fit.xstar_hat - fit.u) * self.LEVELS
                results.append((
                    index, k, fit.u, fit.xstar_hat, fit.gamma_hat,
                    tuple(tail.exceedance_probability(fit, levels).tolist()),
                    tail.mean_excess(fit),
                    tail.markov_bound(sample, 2.0, fit.u),
                ))
        return Round(attempted, failed, values=results, state={"draws": draws})

    def check(self, specs, rnd: Round) -> None:
        checks.check_tail_study(specs, rnd.state["draws"], rnd.values)

    def final_check(self, specs) -> None:
        pass


WORKLOADS = {w.name: w for w in (ExperimentKSweep(), SurrogateCli(), TailStudy())}
