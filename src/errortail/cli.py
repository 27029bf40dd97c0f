"""Command-line interface.

Subcommands cover the individual pipeline pieces (price one contract,
train a surrogate, dump its errors, fit and query a tail, evaluate the
moment bound, draw synthetic tail samples) plus ``experiment`` for the
full run. Every rejected precondition exits nonzero with a message naming
the offending input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import experiment as exp
from . import mlp, pricing, tail
from .gpd import GpdParams, gpd_sample
from .textio import PARSERS, key_value_text, parse_widths, read_fields

# ``train`` takes each TrainConfig field from the flag of the same name.
_TRAIN_FLAGS = tuple(f.name for f in fields(mlp.TrainConfig))
# the flags of ``gpd-sample`` and their types; each is also a comment line of its CSV
_GPD_SAMPLE_FLAGS = {"gamma": float, "sigma": float, "count": int, "seed": int}


def _read_fit_file(path) -> tail.TailFit:
    """The fit a file written by ``fit-tail --out`` holds. Each key is a
    field of :class:`~errortail.tail.TailFit`; the derived ``sigma_u`` may be
    left out, and if given must equal the scale the fit derives."""
    parsers = {f.name: PARSERS[f.type] for f in fields(tail.TailFit)}
    required = [f.name for f in fields(tail.TailFit) if f.init]
    values = read_fields(path, parsers, required, "fit")
    sigma_u = values.pop("sigma_u", None)
    try:
        fit = tail.TailFit(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if sigma_u is not None and sigma_u != fit.sigma_u:
        raise ValueError(f"{path}: sigma_u = {sigma_u!r} is not the derived {fit.sigma_u!r}")
    return fit


def _cmd_price(args) -> int:
    contract = pricing.OptionContract(*(getattr(args, name) for name in pricing.CONTRACT_FIELDS))
    price = pricing.crr_american_put(contract, steps=args.steps)
    print(repr(price))
    return 0


def _cmd_train(args) -> int:
    x, prices = pricing.read_priced_csv(args.data)
    widths = exp.paper_scale_config().widths if args.paper_scale else args.widths
    config = mlp.TrainConfig(**{name: getattr(args, name) for name in _TRAIN_FLAGS})
    model, report = mlp.train(x, prices, widths, config)
    mlp.save_model(model, args.out)
    print(f"model written to {args.out}")
    sys.stdout.write(key_value_text({
        "final_train_mse_usd2": report.train_mse[-1],
        "final_validation_mse_usd2": report.validation_mse[-1],
    }))
    return 0


def _cmd_errors(args) -> int:
    model = mlp.load_model(args.model)
    sample = mlp.error_sample(model, *pricing.read_priced_csv(args.data))
    tail.write_error_csv(
        args.out, sample, comments={"model": args.model, "data": args.data}
    )
    print(f"{sample.n} errors written to {args.out}")
    return 0


def _cmd_fit_tail(args) -> int:
    sample = tail.read_error_csv(args.errors)
    fit = tail.tail_fit(sample, args.k)
    text = key_value_text(asdict(fit))
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_tail_query(args) -> int:
    fit = _read_fit_file(args.fit)
    if args.x is not None:
        print(repr(tail.exceedance_probability(fit, args.x)))
    else:
        print(repr(tail.mean_excess(fit)))
    return 0


def _cmd_markov(args) -> int:
    sample = tail.read_error_csv(args.errors)
    print(repr(tail.markov_bound(sample, args.m, args.x)))
    return 0


def _cmd_gpd_sample(args) -> int:
    params = GpdParams(gamma=args.gamma, sigma=args.sigma)
    draws = gpd_sample(params, args.count, args.seed)
    comments = {name: getattr(args, name) for name in _GPD_SAMPLE_FLAGS}
    tail.write_error_csv(args.out, tail.ErrorSample(draws), comments=comments)
    print(f"{args.count} draws written to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    base = exp.paper_scale_config() if args.paper_scale else exp.desk_scale_config()
    config = exp.load_config(args.config, base=base) if args.config else base
    overrides = {"master_seed": args.seed, "k": args.k, "output_dir": args.out}
    config = replace(config, **{key: v for key, v in overrides.items() if v is not None})
    report = exp.run_experiment(config, workers=args.workers)
    sys.stdout.write(key_value_text(report.aggregates))
    print(f"outputs in {Path(config.output_dir)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errortail",
        description="Tail analysis of surrogate pricing errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one American put on the tree, spot 100 USD")
    for name, alias in zip(pricing.CONTRACT_FIELDS, ("-K", "-T", "-r", "-q", None)):
        flags = ("--" + name.replace("_", "-"), alias)
        p.add_argument(*filter(None, flags), type=float, required=True)
    p.add_argument("--steps", type=int, default=pricing.DEFAULT_TREE_STEPS)
    p.set_defaults(func=_cmd_price)

    train_defaults = mlp.TrainConfig()
    p = sub.add_parser("train", help="train a surrogate on a priced CSV")
    p.add_argument("--data", required=True, help="CSV with header K,T,r,q,sigma,price")
    p.add_argument("--out", required=True, help="model file to write")
    widths = p.add_mutually_exclusive_group()
    widths.add_argument("--widths", type=parse_widths, default=exp.ExperimentConfig().widths)
    widths.add_argument("--paper-scale", action="store_true", help="use the paper-scale widths")
    for name in _TRAIN_FLAGS:
        default = getattr(train_defaults, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("errors", help="absolute errors of a model on a priced CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_errors)

    p = sub.add_parser("fit-tail", help="fit the error tail of an error CSV")
    p.add_argument("errors", help="one-column CSV with header 'error'")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="also write the fit to this file")
    p.set_defaults(func=_cmd_fit_tail)

    p = sub.add_parser("tail-query", help="query a fitted tail")
    p.add_argument("--fit", required=True, help="fit file written by fit-tail")
    p.add_argument("--x", type=float, help="level; prints P(E > x). omit for the mean excess")
    p.set_defaults(func=_cmd_tail_query)

    p = sub.add_parser("markov", help="moment bound on P(E > x)")
    p.add_argument("errors", help="one-column CSV with header 'error'")
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("gpd-sample", help="draw synthetic tail samples")
    for name, kind in _GPD_SAMPLE_FLAGS.items():
        p.add_argument("--" + name, type=kind, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gpd_sample)

    p = sub.add_parser("experiment", help="run the full pipeline")
    p.add_argument("--config", help="flat key/value config file")
    p.add_argument("--paper-scale", action="store_true", help="full-size defaults")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--k", type=int, help="override k")
    p.add_argument("--out", help="override output_dir")
    p.add_argument("--workers", type=int, help="parallel pricing processes")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
