"""Command-line entry point.

Subcommands: generate | run | ablate | splits | stratify | report.
Exit codes: 0 success, 1 usage/config error, 2 partial run failure.
Verbosity is controlled by the CARTAL_LOG environment variable
(error | warn | info | debug).
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import os
import sys
import time
from dataclasses import replace

from . import classifier as clf
from .config import config_to_dict, parse_config
from .errors import CartalError, ConfigError
from .experiment import (
    build_experiment_data,
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
from .pool import generate_synthetic_source
from .reporting import render_report
from .seeding import derive_seed

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("CARTAL_LOG", "warn").lower()
    if level not in _LOG_LEVELS:
        raise ConfigError(f"unknown level {level!r}; valid: {', '.join(_LOG_LEVELS)}", key="CARTAL_LOG")
    logging.basicConfig(level=_LOG_LEVELS[level], format="%(levelname)s %(name)s: %(message)s")


def _write_config_copy(config, out_dir):
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "strategies", None):
        updates["strategies"] = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    if getattr(args, "seeds", None):
        updates["seeds"] = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    return replace(config, **updates) if updates else config


def cmd_generate(args) -> int:
    config = parse_config(args.config)
    if not config.synthetic_sources:
        raise ConfigError("config has no synthetic sources to generate", key="data.synthetic_sources")
    os.makedirs(args.out, exist_ok=True)
    manifest = {"sources": {}}
    for spec in config.synthetic_sources:
        ds = generate_synthetic_source(spec, derive_seed(config.data_seed, "source", spec.name))
        path = os.path.join(args.out, f"{spec.name}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for e in ds.examples:
                fh.write(json.dumps({
                    "id": e.id,
                    "source": e.source,
                    "features": [float(v) for v in e.features],
                    "tokens": list(e.tokens),
                    "label": e.label,
                }) + "\n")
        manifest["sources"][spec.name] = {
            "file": os.path.basename(path),
            "n": len(ds),
            "flipped_ids": ds.metadata.get("flipped_ids", []),
        }
        print(f"wrote {path} ({len(ds)} examples)")
    manifest["created_unix"] = time.time()
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return 0


def cmd_run(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    os.makedirs(args.out, exist_ok=True)
    context = prepare_context(config)
    scores_dir = os.path.join(args.out, "scores") if config.dump_scores else None
    suite = run_suite(config, context, parallel=args.parallel, scores_dir=scores_dir)
    _write_config_copy(config, args.out)
    write_suite_artifacts(suite, context, args.out)
    write_pool_datamap(context, args.out)
    write_manifest(args.out)
    return _report_suite(suite, "runs")


def _report_suite(suite, label) -> int:
    """Print each strategy's test accuracies, then any failed runs (exit code 2)."""
    for s in suite.summaries:
        for test_set, (mean, std, n) in s.accuracies.items():
            print(f"{s.strategy:>8s} {test_set:>12s}: {mean:.4f} ± {std:.4f} ({n} {label})")
    for f in suite.failures:
        print(f"FAILED {f.strategy}/seed {f.seed}: {f.error}", file=sys.stderr)
    return 2 if suite.failures else 0


def cmd_ablate(args) -> int:
    config = _apply_overrides(parse_config(args.config), args)
    os.makedirs(args.out, exist_ok=True)
    context = prepare_context(config)
    suite, _ = run_ablated_suite(config, context, parallel=args.parallel)
    if not os.path.exists(os.path.join(args.out, "config.json")):
        _write_config_copy(config, args.out)
    write_suite_artifacts(suite, context, args.out, prefix="ablated_")
    write_pool_datamap(context, args.out)
    write_manifest(args.out, {"ablation_fraction": config.ablation_fraction})
    return _report_suite(suite, "runs, ablated")


def cmd_splits(args) -> int:
    config = parse_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    context = prepare_context(config)
    summaries = run_difficulty_split(config, context)
    _write_config_copy(config, args.out)
    write_summary_csv(summaries, os.path.join(args.out, "splits.csv"))
    write_pool_datamap(context, args.out)
    write_manifest(args.out)
    for s in summaries:
        for test_set, (mean, std, n) in s.accuracies.items():
            print(f"{s.strategy:>6s} {test_set:>12s}: {mean:.4f} ± {std:.4f}")
    return 0


def _load_models(exp_dir):
    models = {}
    for path in sorted(glob.glob(os.path.join(exp_dir, "models", "*.json"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        if "_seed" not in stem:
            continue
        strategy, seed_txt = stem.rsplit("_seed", 1)
        models[(strategy, int(seed_txt))] = clf.load_checkpoint(path)
    return models


def cmd_stratify(args) -> int:
    config_path = args.config or os.path.join(args.exp, "config.json")
    config = parse_config(config_path)
    if not config.test_sets:
        raise ConfigError("stratified testing needs at least one test set", key="test_sets")
    models = _load_models(args.exp)
    if not models:
        raise FileNotFoundError(f"no model checkpoints under {os.path.join(args.exp, 'models')}")
    data = build_experiment_data(config)
    rows = run_stratified(config, data, models, carto_seed=args.carto_seed)
    out_path = os.path.join(args.exp, "stratified.csv")
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

    p = sub.add_parser("run", help="run the AL suite (strategies x seeds)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategies", help="comma-separated override, e.g. random,mcme")
    p.add_argument("--seeds", help="comma-separated override, e.g. 1,2,3")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="run the suite on the outlier-ablated pool")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strategies")
    p.add_argument("--seeds")
    p.add_argument("--parallel", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("splits", help="train on difficulty-split training sets (no AL)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_splits)

    p = sub.add_parser("stratify", help="difficulty-stratified test accuracy for saved models")
    p.add_argument("--exp", required=True, help="experiment dir holding models/ and config.json")
    p.add_argument("--config", help="config override (defaults to <exp>/config.json)")
    p.add_argument("--carto-seed", type=int, default=0)
    p.set_defaults(func=cmd_stratify)

    p = sub.add_parser("report", help="render report tables from experiment CSVs")
    p.add_argument("--exp", required=True)
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except (CartalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
