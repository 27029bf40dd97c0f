"""Spans around the calls into errortail's layers, recorded from outside.

Each public function is wrapped at the name its caller looks it up by:
``errortail.experiment`` imports ``price_contracts``, ``train`` and the
tail functions by name, while the CLI reaches ``errortail.mlp.train`` and
friends through their modules. ``ErrorSample`` is a class, so its
``__init__`` is wrapped instead, which covers every construction site.
The wrappers exist only while a traced phase runs; ``src/`` is untouched.

A span is ``[name, phase, parent, start, end, count]``. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric, unit, better, aggregate, span). Aggregates, over the traced
# phases (set-up repetitions and rounds) in which the span occurs:
#   time      median per phase of the summed span durations, in s
#   self      the same for durations minus the time child spans cover
#   count     median per phase of the summed work counts
#   rate      all counts over all durations
#   per_call  all durations over all calls, in microseconds
LAYER_METRICS = [
    ("pricing.price_contracts.s", "s", "lower", "time", "pricing.price_contracts"),
    ("pricing.contracts_per_s", "contracts/s", "higher", "rate", "pricing.price_contracts"),
    ("pricing.contracts", "count", "lower", "count", "pricing.price_contracts"),
    ("pricing.sample_uniform.s", "s", "lower", "time", "pricing.sample_uniform"),
    ("pricing.write_priced_csv.s", "s", "lower", "time", "pricing.write_priced_csv"),
    ("pricing.read_priced_csv.rows_per_s", "rows/s", "higher", "rate", "pricing.read_priced_csv"),
    ("mlp.train.s", "s", "lower", "time", "mlp.train"),
    ("mlp.train.rows_per_s", "row-epochs/s", "higher", "rate", "mlp.train"),
    ("mlp.error_sample.s", "s", "lower", "time", "mlp.error_sample"),
    ("mlp.error_sample.rows_per_s", "rows/s", "higher", "rate", "mlp.error_sample"),
    ("mlp.save_model.s", "s", "lower", "time", "mlp.save_model"),
    ("mlp.load_model.s", "s", "lower", "time", "mlp.load_model"),
    ("tail.ErrorSample.s", "s", "lower", "time", "tail.ErrorSample"),
    ("tail.tail_fit.us", "us/call", "lower", "per_call", "tail.tail_fit"),
    ("tail.exceedance_probability.us", "us/call", "lower", "per_call", "tail.exceedance_probability"),
    ("tail.mean_excess.us", "us/call", "lower", "per_call", "tail.mean_excess"),
    ("tail.markov_bound.s", "s", "lower", "time", "tail.markov_bound"),
    ("tail.write_error_csv.rows_per_s", "rows/s", "higher", "rate", "tail.write_error_csv"),
    ("tail.read_error_csv.rows_per_s", "rows/s", "higher", "rate", "tail.read_error_csv"),
    ("gpd.gpd_sample.draws_per_s", "draws/s", "higher", "rate", "gpd.gpd_sample"),
    ("experiment.run_experiment.self_s", "s", "lower", "self", "experiment.run_experiment"),
    ("experiment.write_report.s", "s", "lower", "time", "experiment.write_report"),
    ("experiment.emit_figure_csv.s", "s", "lower", "time", "experiment.emit_figure_csv"),
    ("cli.self_s", "s", "lower", "self", "cli.main"),
]
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower")


def _rows(args, result) -> int:
    return len(result)


def _targets():
    """(owner, attribute, span name, work count) for every wrapped call."""
    from errortail import cli, experiment, gpd, mlp, pricing, tail

    def contracts_read(args, result):
        return len(result[0])

    def row_epochs(args, result):
        report = result[1]
        return report.train_size * len(report.train_mse)

    def sample_size(args, result):
        return result.n

    def rows_written(args, result):
        return args[1].n

    return [
        (experiment, "price_contracts", "pricing.price_contracts", _rows),
        (pricing, "price_contracts", "pricing.price_contracts", _rows),
        (experiment, "sample_uniform", "pricing.sample_uniform", _rows),
        (pricing, "sample_uniform", "pricing.sample_uniform", _rows),
        (pricing, "write_priced_csv", "pricing.write_priced_csv", None),
        (pricing, "read_priced_csv", "pricing.read_priced_csv", contracts_read),
        (experiment, "train", "mlp.train", row_epochs),
        (mlp, "train", "mlp.train", row_epochs),
        (experiment, "error_sample", "mlp.error_sample", sample_size),
        (mlp, "error_sample", "mlp.error_sample", sample_size),
        (mlp, "save_model", "mlp.save_model", None),
        (mlp, "load_model", "mlp.load_model", None),
        (tail.ErrorSample, "__init__", "tail.ErrorSample", None),
        (experiment, "tail_fit", "tail.tail_fit", None),
        (tail, "tail_fit", "tail.tail_fit", None),
        (experiment, "exceedance_probability", "tail.exceedance_probability", None),
        (tail, "exceedance_probability", "tail.exceedance_probability", None),
        (experiment, "mean_excess", "tail.mean_excess", None),
        (tail, "mean_excess", "tail.mean_excess", None),
        (experiment, "markov_bound", "tail.markov_bound", None),
        (tail, "markov_bound", "tail.markov_bound", None),
        (experiment, "write_error_csv", "tail.write_error_csv", rows_written),
        (tail, "write_error_csv", "tail.write_error_csv", rows_written),
        (tail, "read_error_csv", "tail.read_error_csv", sample_size),
        (gpd, "gpd_sample", "gpd.gpd_sample", _rows),
        (cli, "gpd_sample", "gpd.gpd_sample", _rows),
        (experiment, "run_experiment", "experiment.run_experiment", None),
        (experiment, "write_report", "experiment.write_report", None),
        (experiment, "emit_figure_csv", "experiment.emit_figure_csv", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Records spans while a phase is active; see :meth:`active`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._phase: str | None = None

    def _wrap(self, name, fn, count):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._phase, open_[-1] if open_ else -1, 0.0, 0.0, 0]
            open_.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                open_.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    @contextmanager
    def active(self, phase: str):
        """Wrap every target for the duration of one phase, then restore."""
        patched = []
        self._phase = phase
        try:
            for owner, attr, name, count in _targets():
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, count))
                patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
            self._phase = None

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value; 0 for a layer no traced phase called."""
        child = [0.0] * len(self.spans)
        for name, phase, parent, start, end, count in self.spans:
            if parent >= 0:
                child[parent] += end - start
        # per span name, per phase: [duration, self time, count, calls]
        acc: dict[str, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0, 0])
        )
        for i, (name, phase, parent, start, end, count) in enumerate(self.spans):
            a = acc[name][phase]
            a[0] += end - start
            a[1] += end - start - child[i]
            a[2] += count
            a[3] += 1
        out = {}
        for metric, unit, better, how, span in LAYER_METRICS:
            phases = list(acc[span].values()) if span in acc else []
            if not phases:
                out[metric] = 0.0
            elif how == "time":
                out[metric] = statistics.median(p[0] for p in phases)
            elif how == "self":
                out[metric] = statistics.median(p[1] for p in phases)
            elif how == "count":
                out[metric] = statistics.median(p[2] for p in phases)
            elif how == "rate":
                out[metric] = sum(p[2] for p in phases) / sum(p[0] for p in phases)
            else:  # per_call
                out[metric] = 1e6 * sum(p[0] for p in phases) / sum(p[3] for p in phases)
        return out
