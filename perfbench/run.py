"""Benchmark runner for cartal: end-to-end metrics, or per-layer ones with --trace 1.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record-digests --seed 1

Every repetition runs in a fresh process (perfbench/rep.py), so first-call
costs and peak RSS are those a user of ``cartal run`` pays. Untraced, the run
repeats whole repetitions while the next one is expected to end within
``--seconds``, fills the time left with processes that stop after the AL
suite and then with set-up-only ones, and reports medians. Traced, it runs
one untraced and one traced repetition, so that the tracing overhead shows.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
# Phase times printed for reading; only the end-to-end metrics of
# BENCHMARK.json go into the result line, because every workload has them.
PHASES = ("run_s.random", "run_s.mcme", "run_s.bald", "run_s.dal",
          "ablate_s", "splits_s", "stratify_s")
REP_TIMEOUT_S = 170
STARTUP_S = 1.0


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
    }


def run_rep(workload, seed, rep_dir, mode, reference=False, deadline=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--out", rep_dir, "--mode", mode]
    if reference:
        cmd.append("--reference")
    timeout = REP_TIMEOUT_S if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"perfbench: {mode} repetition of {workload} timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise SystemExit(f"perfbench: {mode} repetition of {workload} exited with {code}")
    with open(os.path.join(rep_dir, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_program():
    for path in (os.path.join("src", "cartal", "__init__.py"), os.path.join("configs", "benchmark.json")):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise SystemExit(f"perfbench: {path} is missing; run from a checkout of the repository")


def reference_digests(workload, seed):
    if not os.path.isfile(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def repeat(workload, seed, run_dir, mode, seconds, start, deadline, estimate=None) -> list[dict]:
    """Repetitions of one mode while the next is expected to end within
    ``seconds``; with no ``estimate`` the first always runs."""
    results = []
    while estimate is None or time.monotonic() - start + estimate <= seconds:
        t = time.monotonic()
        # the first suite-par2 repetition also runs the suite sequentially
        reference = workload == "suite-par2" and mode == "plain" and not results
        res = run_rep(workload, seed, os.path.join(run_dir, f"{mode}{len(results) + 1}"), mode,
                      reference=reference, deadline=deadline)
        took = time.monotonic() - t - res.get("reference_s", 0.0)
        estimate = took if estimate is None else max(estimate, took)
        results.append(res)
    return results


def summarize_checks(reps) -> tuple[bool, list[str]]:
    lines, ok = [], True
    for k, rep in enumerate(reps, start=1):
        failed = {name: msg for name, msg in rep["checks"].items() if msg is not None}
        ok = ok and not failed
        lines.append(f"checks rep{k}: " + (", ".join(rep["checks"]) + " ok" if not failed
                     else "; ".join(f"{n} FAILED: {msg}" for n, msg in failed.items())))
    if len({json.dumps(rep["digests"], sort_keys=True) for rep in reps}) > 1:
        ok = False
        lines.append("checks: FAILED: repetitions of one seed wrote different artifacts")
    return ok, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="record the artifact digests of every workload at --seed as the reference")
    args = ap.parse_args(argv)
    check_program()
    start = time.monotonic()
    deadline = start + REP_TIMEOUT_S

    if args.record_digests:
        return record_digests(args.seed)
    if args.workload is None:
        ap.error("--workload is required")

    run_dir = os.path.join(OUT, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        plain = run_rep(args.workload, args.seed, os.path.join(run_dir, "plain"), "plain",
                        reference=args.workload == "suite-par2", deadline=deadline)
        traced = run_rep(args.workload, args.seed, os.path.join(run_dir, "trace"), "trace", deadline=deadline)
        reps, probes = [plain, traced], []
    else:
        # Whole repetitions first; the time left goes to processes that stop
        # after the AL suite, then to set-up-only ones. A process costs about
        # its phases plus STARTUP_S.
        reps = repeat(args.workload, args.seed, run_dir, "plain", args.seconds, start, deadline)
        longest = {k: max(rep["times"][k] for rep in reps) for k in ("setup_s", "suite_s")}
        probes = repeat(args.workload, args.seed, run_dir, "suite", args.seconds, start, deadline,
                        STARTUP_S + longest["setup_s"] + longest["suite_s"])
        probes += repeat(args.workload, args.seed, run_dir, "setup", args.seconds, start, deadline,
                         STARTUP_S + longest["setup_s"])

    correct, check_lines = summarize_checks(reps)
    for line in check_lines:
        print(line)
    ref = reference_digests(args.workload, args.seed)
    verdict = "no reference for this seed" if ref is None else (
        "same as reference" if ref == reps[0]["digests"] else "DIFFERENT from reference")
    print(f"digests {args.workload} seed {args.seed} ({verdict}): "
          + " ".join(f"{k}={v}" for k, v in reps[0]["digests"].items()))
    for rep in reps + probes:
        for failure in rep["failures"]:
            print(f"failed AL run: {failure}")

    attempted = sum(rep["attempted"] for rep in reps + probes)
    failed = sum(rep["failed"] for rep in reps + probes)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        values = dict(traced["layer"])
        values["experiment.worker_peak_rss_mb"] = plain["worker_peak_rss_mb"]
        values["trace.wall_s"] = traced["times"]["wall_s"]
        values["trace.untraced_wall_s"] = plain["times"]["wall_s"]
        values["trace.overhead_pct"] = 100.0 * (traced["times"]["wall_s"] / plain["times"]["wall_s"] - 1.0)
        for name in (*units, *sorted(set(values) - set(units))):
            note = "" if name in units else "  (printed only: 0 where a workload never calls it)"
            print(f"{name:42s} {values[name]:14.6g} {units.get(name, 's')}{note}")
    else:
        values = {}
        for name in (*units, *PHASES):
            samples = [rep["times"][name] for rep in reps + probes if name in rep["times"]]
            if samples:
                values[name] = statistics.median(samples)
                print(f"{name:16s} {values[name]:12.4f} {units.get(name, 's'):3s} (median of {len(samples)})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def record_digests(seed) -> int:
    """Write the digests of every workload at ``seed`` to perfbench/digests.json."""
    recorded = {}
    if os.path.isfile(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            recorded = json.load(fh)
    for workload in WORKLOADS:
        rep_dir = os.path.join(OUT, "digests", workload)
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep = run_rep(workload, seed, rep_dir, "plain", reference=workload == "suite-par2")
        bad = {n: msg for n, msg in rep["checks"].items() if msg is not None}
        if bad:
            raise SystemExit(f"perfbench: {workload} failed its checks, not recording: {bad}")
        recorded.setdefault(workload, {})[str(seed)] = rep["digests"]
        print(f"{workload} seed {seed}: " + " ".join(f"{k}={v}" for k, v in rep["digests"].items()))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
