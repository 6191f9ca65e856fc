"""Command-line entry point.

Subcommands: generate | run | ablate | splits | stratify | report.
Exit codes: 0 success, 1 usage/config error, 2 partial run failure, 130 interrupted.
Verbosity is controlled by the CARTAL_LOG environment variable
(error | warn | info | debug).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace

from . import artifacts
from . import classifier as clf
from .cartography import ablated_size
from .config import config_to_dict, parse_config
from .errors import CartalError, ConfigError
from .experiment import (
    _sources,
    build_experiment_data,
    check_capacity,
    parallel_error,
    prepare_context,
    run_ablated_suite,
    run_difficulty_split,
    run_stratified,
    run_suite,
    write_manifest,
    write_pool_datamap,
    write_stratified_csv,
    write_suite_artifacts,
    write_summary_csv,
)
from .pool import write_dataset
from .reporting import render_report

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("CARTAL_LOG", "warn").lower()
    if level not in _LOG_LEVELS:
        raise ConfigError(f"unknown level {level!r}; valid: {', '.join(_LOG_LEVELS)}", key="CARTAL_LOG")
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(levelname)s %(name)s: %(message)s")


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "strategies", None):
        updates["strategies"] = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    if getattr(args, "seeds", None):
        try:
            updates["seeds"] = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError(f"expected comma-separated integers, got {args.seeds!r}",
                              key="--seeds") from exc
    return replace(config, **updates) if updates else config


def cmd_generate(args) -> int:
    config = parse_config(args.config)
    if not config.synthetic_sources:
        raise ConfigError("config has no synthetic sources to generate", key="data.synthetic_sources")
    os.makedirs(args.out, exist_ok=True)
    sources = {}
    for ds in _sources(config.synthetic_sources, (), config.data_seed, "source"):
        path = write_dataset(ds, os.path.join(args.out, artifacts.source_file(ds.name)))
        sources[ds.name] = {
            "file": os.path.basename(path),
            "n": len(ds),
            "flipped_ids": ds.ids[ds.flipped].tolist(),
        }
        print(f"wrote {path} ({len(ds)} examples)")
    artifacts.record_command(args.out, "generate", {"sources": sources, "created_unix": time.time()})
    return 0


def _report(summaries, failures, label) -> int:
    """Print each strategy's test accuracies, then any failed runs (exit code 2)."""
    for s in summaries:
        for test_set, (mean, std, n) in s.accuracies.items():
            print(f"{s.strategy:>8s} {test_set:>12s}: {mean:.4f} ± {std:.4f} ({n} {label})")
    for f in failures:
        print(f"FAILED {f.strategy}/seed {f.seed}: {f.error}", file=sys.stderr)
    return 2 if failures else 0


def _run(config, context, args):
    suite = run_suite(config, context, parallel=args.parallel)
    write_suite_artifacts(suite, context, args.out)
    return _report(suite.summaries, suite.failures, "runs"), {}


def _ablate(config, context, args):
    suite, _ = run_ablated_suite(config, context, parallel=args.parallel)
    write_suite_artifacts(suite, context, args.out, prefix=artifacts.ABLATED)
    code = _report(suite.summaries, suite.failures, "runs, ablated")
    return code, {"ablation_fraction": config.ablation_fraction}


def _splits(config, context, args):
    summaries = run_difficulty_split(config, context)
    write_summary_csv(summaries, os.path.join(args.out, artifacts.SPLITS))
    return _report(summaries, [], "seeds"), {}


def cmd_experiment(args) -> int:
    """``run``, ``ablate`` and ``splits``: build the data, check that a suite's
    pool holds its runs, fit cartography over the pool, run the command's
    ``args.step``, which writes its tables and returns its exit code and
    manifest fields, then write the resolved config, the pool's datamap and
    the command's manifest entry."""
    config = _apply_overrides(parse_config(args.config), args)
    os.makedirs(args.out, exist_ok=True)
    data = build_experiment_data(config)
    if args.command in ("run", "ablate"):  # before the cartography fit, which a shortfall would waste
        fraction = config.ablation_fraction if args.command == "ablate" else 0.0
        check_capacity(config, ablated_size(data.pool, fraction))
    context = prepare_context(config, data)
    code, extra = args.step(config, context, args)
    artifacts.write_json(os.path.join(args.out, artifacts.CONFIG), config_to_dict(config),
                         indent=2, sort_keys=True)
    write_pool_datamap(context, args.out)
    write_manifest(args.out, extra, command=args.command)
    return code


def cmd_stratify(args) -> int:
    config = parse_config(args.config or os.path.join(args.exp, artifacts.CONFIG))
    if not config.test_sets:
        raise ConfigError("stratified testing needs at least one test set", key="test_sets")
    paths = artifacts.checkpoints(args.exp)
    models = {key: clf.load_checkpoint(path) for key, path in paths.items()}
    if not models:
        raise FileNotFoundError(f"no model checkpoints under {os.path.join(args.exp, artifacts.MODELS)}")
    data = build_experiment_data(config)
    for key, model in models.items():  # before the cartography fits of the test sets
        shape = (model.config.input_dim, model.config.num_classes)
        if shape != (data.pool.feature_dim, data.pool.num_classes):
            raise ValueError(f"{paths[key]}: checkpoint has input_dim {shape[0]} and num_classes {shape[1]}, "
                             f"the pool {data.pool.feature_dim} and {data.pool.num_classes}")
    rows = run_stratified(config, data, models)
    out_path = os.path.join(args.exp, artifacts.STRATIFIED)
    write_stratified_csv(rows, out_path)
    print(f"wrote {out_path} ({len(rows)} rows, {len(models)} models)")
    return 0


def cmd_report(args) -> int:
    written = render_report(args.exp, args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartal",
        description="Pool-based active-learning simulator with cartography diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic source JSONL files + manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    for name, step, suite, text in (
            ("run", _run, True, "run the AL suite (strategies x seeds)"),
            ("ablate", _ablate, True, "run the suite on the outlier-ablated pool"),
            ("splits", _splits, False, "train on difficulty-split training sets (no AL)")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if suite:
            p.add_argument("--strategies", help="comma-separated override, e.g. random,mcme")
            p.add_argument("--seeds", help="comma-separated override, e.g. 1,2,3")
            p.add_argument("--parallel", type=int, default=1)
        p.set_defaults(func=cmd_experiment, step=step)

    p = sub.add_parser("stratify", help="difficulty-stratified test accuracy for saved models")
    p.add_argument("--exp", required=True, help="experiment dir of a run and/or ablate")
    p.add_argument("--config", help=f"config override (defaults to <exp>/{artifacts.CONFIG})")
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("report", help="render report tables from experiment CSVs")
    p.add_argument("--exp", required=True)
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        _setup_logging()
        if problem := parallel_error(getattr(args, "parallel", 1)):
            raise ConfigError(problem, key="--parallel")
        return args.func(args)
    except (CartalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation that failed
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # a suite's forked workers are gone by now
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
