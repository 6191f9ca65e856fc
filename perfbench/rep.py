"""One repetition of a workload, in a process that runs nothing else.

    python3 perfbench/rep.py --workload suite --seed 1 --out DIR --mode plain

Modes: ``plain`` runs the pipeline untraced; ``trace`` runs it with spans
around every layer; ``suite`` stops after the AL suite and checks nothing;
``setup`` runs only ``parse_config`` and ``prepare_context``. The result
goes to DIR/result.json; the exit code is not 0 when the program cannot be
imported or a pipeline step raises.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import time

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTED = ("rounds.csv", "summary.csv", "profile.csv", "datamap.csv")


def import_cartal() -> dict:
    """The package from this checkout's ``src``, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cartal", "__init__.py")):
        sys.exit(f"perfbench: no cartal package under {src}")
    sys.path.insert(0, src)
    import cartal  # noqa: F401
    from cartal import acquisition, cartography, classifier, config, experiment, pool, reporting

    if not os.path.abspath(cartal.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported cartal from {cartal.__file__}, not from {src}")
    return {"acquisition": acquisition, "cartography": cartography, "classifier": classifier,
            "config": config, "experiment": experiment, "pool": pool, "reporting": reporting}


def digests(exp_dir) -> dict[str, str]:
    out = {}
    for name in DIGESTED:
        with open(os.path.join(exp_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def _by_id_cost_s(pool, counted, original, calls) -> float:
    """Cost of the counting wrapper: its extra time per call, times the calls."""
    ids = [e.id for e in pool.examples][:20000]

    def per_call(fn):
        t = time.perf_counter()
        for i in ids:
            fn(pool, i)
        return (time.perf_counter() - t) / len(ids)

    per_call(counted)  # warm
    extra = min(per_call(counted) for _ in range(3)) - min(per_call(original) for _ in range(3))
    return extra * calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "suite", "setup"), default="plain")
    ap.add_argument("--reference", action="store_true",
                    help="also run the suite sequentially and compare its CSVs byte for byte")
    args = ap.parse_args(argv)

    m = import_cartal()
    with open(os.path.join(ROOT, "configs", "benchmark.json"), encoding="utf-8") as fh:
        base = json.load(fh)
    os.makedirs(args.out, exist_ok=True)
    config_path = os.path.join(args.out, "input_config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.make_config(base, args.workload, args.seed), fh, indent=2)

    if args.mode == "setup":
        config = m["config"].parse_config(config_path)
        t = time.perf_counter()
        m["experiment"].prepare_context(config)
        result = {"times": {"setup_s": time.perf_counter() - t}, "attempted": 0, "failed": 0, "failures": []}
    elif args.mode == "suite":
        out = workloads.run_pipeline(m, args.workload, config_path, None, suite_only=True)
        result = {k: out[k] for k in ("times", "attempted", "failed", "failures")}
    else:
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer, m)
            by_id_original = tracing.install_by_id_counter(tracer, m["pool"])
        exp_dir = os.path.join(args.out, "exp")
        out = workloads.run_pipeline(m, args.workload, config_path, exp_dir)
        ref_dir, reference_s = None, 0.0
        if args.reference:
            ref_dir = os.path.join(args.out, "sequential")
            t = time.perf_counter()
            workloads.sequential_reference(m, out["config"], out["ctx"], ref_dir)
            reference_s = time.perf_counter() - t
        result = {
            "reference_s": reference_s,
            "times": out["times"],
            "attempted": out["attempted"],
            "failed": out["failed"],
            "failures": out["failures"],
            "worker_peak_rss_mb": out["worker_peak_rss_mb"],
            "checks": checks.run_checks(args.workload, out, exp_dir, ref_dir),
            "digests": digests(exp_dir),
        }
        if tracer is not None:
            tracer.adopt_worker_spans(out["suite"].results)
            tracer.write(os.path.join(args.out, "spans.jsonl"))
            layer = tracing.layer_metrics(tracer.spans)
            config, ctx = out["config"], out["ctx"]
            layer["experiment.dispatch_bytes"] = sum(
                len(pickle.dumps((config, s, sd, ctx, None)))
                for s in config.strategies for sd in config.seeds
            ) if args.workload == "suite-par2" else 0
            layer["experiment.artifact_bytes"] = _dir_bytes(exp_dir)
            layer["pool.Dataset.by_id.calls"] = tracer.by_id_calls
            layer["trace.by_id_cost_s"] = _by_id_cost_s(
                ctx.data.pool, m["pool"].Dataset.by_id, by_id_original, tracer.by_id_calls)
            result["layer"] = layer

    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
