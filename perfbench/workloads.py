"""The three workloads: their configs, made from a seed, and their pipelines.

A pipeline calls the package's public functions in the order the CLI calls
them (``cartal run``, then ``ablate``, ``splits``, ``stratify`` and
``report``), always through the module attribute, so that a traced run sees
every call. It returns the phase times of one repetition.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import resource
import time
from dataclasses import replace

WORKLOADS = ("suite", "suite-par2", "pool54k")


def make_config(base: dict, workload: str, seed: int) -> dict:
    """The workload's config: ``base`` (configs/benchmark.json) with the
    workload seed as data seed and AL seeds (5·seed … 5·seed+4, so no two
    workload seeds share one); pool54k scales every source to 20,000
    examples and runs 7 rounds of k=500 for one seed per strategy."""
    cfg = copy.deepcopy(base)
    cfg["data"]["seed"] = seed
    if workload == "pool54k":
        for src in cfg["data"]["synthetic_sources"]:
            src["n"] = 20000
        cfg["al"].update(seed_size=500, k=500, rounds=7,
                         strategies=["random", "mcme", "bald", "dal"], seeds=[seed])
    else:
        cfg["al"]["seeds"] = [5 * seed + i for i in range(5)]
    return cfg


def _rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _write_run_artifacts(m, suite, ctx, config, exp_dir):
    """What ``cartal run`` writes after its suite."""
    with open(os.path.join(exp_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(m["config"].config_to_dict(config), fh, indent=2, sort_keys=True)
    m["experiment"].write_suite_artifacts(suite, ctx, exp_dir)
    m["experiment"].write_pool_datamap(ctx, exp_dir)
    m["experiment"].write_manifest(exp_dir)


def run_pipeline(m, workload: str, config_path: str, exp_dir: str, suite_only=False) -> dict:
    """One repetition. ``m`` maps cartal module names to modules.

    Returns phase times (seconds), ``peak_rss_mb``, the AL runs attempted and
    failed, and the in-memory objects the checks need. With ``suite_only`` it
    stops once the AL suite has run and writes nothing.
    """
    exp, clf = m["experiment"], m["classifier"]
    clock = time.perf_counter
    t_start = clock()
    config = m["config"].parse_config(config_path)
    t = clock()
    ctx = exp.prepare_context(config)
    times = {"setup_s": clock() - t}
    out = {"config": config, "ctx": ctx}

    t = clock()
    if workload == "pool54k":
        suites = []
        for strategy in config.strategies:
            ts = clock()
            suites.append(exp.run_suite(replace(config, strategies=(strategy,)), ctx))
            times[f"run_s.{strategy}"] = clock() - ts
        suite = exp.SuiteResult(
            summaries=[s for part in suites for s in part.summaries],
            results=[r for part in suites for r in part.results],
            failures=[f for part in suites for f in part.failures],
        )
    else:
        suite = exp.run_suite(config, ctx, parallel=2 if workload == "suite-par2" else 1)
    times["suite_s"] = clock() - t
    out["worker_peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    out["suite"] = suite
    suites_run = [suite]
    if suite_only:
        out["times"] = times
        return _count(out, suites_run)
    os.makedirs(exp_dir, exist_ok=True)
    _write_run_artifacts(m, suite, ctx, config, exp_dir)

    if workload == "suite":
        t = clock()
        ablated, ablated_ctx = exp.run_ablated_suite(config, ctx)
        exp.write_suite_artifacts(ablated, ctx, exp_dir, prefix="ablated_")
        times["ablate_s"] = clock() - t
        out["ablated"], out["ablated_ctx"] = ablated, ablated_ctx
        suites_run.append(ablated)

        t = clock()
        splits = exp.run_difficulty_split(config, ctx)
        exp.write_summary_csv(splits, os.path.join(exp_dir, "splits.csv"))
        times["splits_s"] = clock() - t

        # ``cartal stratify``: every checkpoint under models/, ablated ones too
        t = clock()
        models = {}
        for path in sorted(glob.glob(os.path.join(exp_dir, "models", "*.json"))):
            strategy, seed = os.path.splitext(os.path.basename(path))[0].rsplit("_seed", 1)
            models[(strategy, int(seed))] = clf.load_checkpoint(path)
        rows = exp.run_stratified(config, ctx.data, models)
        exp.write_stratified_csv(rows, os.path.join(exp_dir, "stratified.csv"))
        times["stratify_s"] = clock() - t

    m["reporting"].render_report(exp_dir, "md")
    times["wall_s"] = clock() - t_start
    times["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF)
    out["times"] = times
    return _count(out, suites_run)


def _count(out, suites_run) -> dict:
    out["attempted"] = sum(len(s.results) + len(s.failures) for s in suites_run)
    out["failed"] = sum(len(s.failures) for s in suites_run)
    out["failures"] = [f"{f.strategy}/seed {f.seed}: {f.error}" for s in suites_run for f in s.failures]
    return out


def sequential_reference(m, config, ctx, ref_dir) -> None:
    """The same suite run sequentially, for the byte-equality check of suite-par2."""
    os.makedirs(ref_dir, exist_ok=True)
    suite = m["experiment"].run_suite(config, ctx, parallel=1)
    _write_run_artifacts(m, suite, ctx, config, ref_dir)
