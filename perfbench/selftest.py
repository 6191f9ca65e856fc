"""Show that every correctness check can fail.

    python3 perfbench/selftest.py

Runs the ``suite`` pipeline once on a small config, checks that every check
passes on the true outputs, then feeds each check a deliberately wrong output
and requires it to fail. Exits 1 if a check rejects true output or accepts a
wrong one.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import rep  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(HERE, "out", "selftest")


def small_config(base) -> dict:
    cfg = workloads.make_config(base, "suite", 1)
    for src in cfg["data"]["synthetic_sources"]:
        src["n"] = 400
    for test in cfg["test_sets"]:
        for src in test["synthetic_sources"]:
            src["n"] = 100
    cfg["al"].update(seed_size=30, k=20, rounds=2, strategies=["random", "mcme"], seeds=[1, 2])
    cfg["difficulty_split"]["n"] = 60
    return cfg


def main() -> int:
    m = rep.import_cartal()
    with open(os.path.join(rep.ROOT, "configs", "benchmark.json"), encoding="utf-8") as fh:
        base = json.load(fh)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    config_path = os.path.join(OUT, "input_config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(small_config(base), fh)
    exp_dir, ref_dir = os.path.join(OUT, "exp"), os.path.join(OUT, "sequential")
    out = workloads.run_pipeline(m, "suite", config_path, exp_dir)
    workloads.sequential_reference(m, out["config"], out["ctx"], ref_dir)

    ok = True
    for name, msg in checks.run_checks("suite", out, exp_dir, ref_dir).items():
        print(f"true output     {name:28s} {'passes' if msg is None else 'FAILS: ' + msg}")
        ok = ok and msg is None

    config, ctx = out["config"], out["ctx"]
    pool, data = ctx.data.pool, ctx.data
    results = out["suite"].results
    reference = (ctx.reference_model.weights, config.activation)
    read = lambda name: checks.read_csv(os.path.join(exp_dir, name))  # noqa: E731
    models_dir = os.path.join(exp_dir, "models")

    def duplicated_acquired_id():
        r = results[0]
        logs = list(r.round_logs)
        dup = (logs[0].acquired_ids[0],) + logs[1].acquired_ids[1:]
        logs[1] = replace(logs[1], acquired_ids=dup)
        return [replace(r, round_logs=logs)] + results[1:]

    def rows_with(name, change):
        rows = copy.deepcopy(read(name))
        change(rows)
        return rows

    def permute_class_columns(rows):
        for row in rows:
            row["class_0"], row["class_1"], row["class_2"] = row["class_1"], row["class_2"], row["class_0"]

    def bump(key, delta, index=0):
        def change(rows):
            value = rows[index][key]
            rows[index][key] = str(int(value) + delta) if value.isdigit() else str(float(value) + delta)
        return change

    def set_field(key, value, index=0):
        def change(rows):
            rows[index][key] = value
        return change

    def swap_means(rows):
        rows[0]["mean"], rows[-1]["mean"] = rows[-1]["mean"], rows[0]["mean"]

    def mark_all_easy(rows):
        for row in rows:
            row["difficulty"], row["mean_confidence"] = "easy", "0.9"

    def changed_byte_dir():
        bad = os.path.join(OUT, "changed")
        shutil.copytree(ref_dir, bad, dirs_exist_ok=True)
        path = os.path.join(bad, "summary.csv")
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        raw[-3] = ord("0") if raw[-3] != ord("0") else ord("1")
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        return bad

    cases = [
        ("bookkeeping", "an acquired id duplicated across rounds",
         lambda: checks.bookkeeping(config, pool, duplicated_acquired_id(), read("rounds.csv"))),
        ("bookkeeping", "labelled_size off by one",
         lambda: checks.bookkeeping(config, pool, results, rows_with("rounds.csv", bump("labelled_size", 1)))),
        ("bookkeeping", "per-source counts moved between sources",
         lambda: checks.bookkeeping(config, pool, results, rows_with(
             "rounds.csv", lambda rows: rows[0].update(
                 acquired_alpha=str(int(rows[0]["acquired_alpha"]) + 1),
                 acquired_beta=str(int(rows[0]["acquired_beta"]) - 1))))),
        ("profiling", "class distribution columns permuted",
         lambda: checks.profiling(config, pool, results, rows_with("rounds.csv", permute_class_columns),
                                  read("profile.csv"), reference)),
        ("profiling", "input diversity changed in the 4th digit",
         lambda: checks.profiling(config, pool, results, rows_with("rounds.csv", bump("input_diversity", 1e-3)),
                                  read("profile.csv"), reference)),
        ("profiling", "acquisition factor changed",
         lambda: checks.profiling(config, pool, results, rows_with("rounds.csv", bump("factor_gamma", 0.01)),
                                  read("profile.csv"), reference)),
        ("profiling", "final output uncertainty changed",
         lambda: checks.profiling(config, pool, results, read("rounds.csv"),
                                  rows_with("profile.csv", bump("output_uncertainty", 0.01)), reference)),
        ("accuracy", "summary means permuted between rows",
         lambda: checks.accuracy_check(config, data, results, rows_with("summary.csv", swap_means), models_dir)),
        ("accuracy", "a reported test accuracy changed",
         lambda: checks.accuracy_check(config, data, [replace(results[0], final_val_accuracy=0.5)] + results[1:],
                                       read("summary.csv"), models_dir)),
        ("cartography", "variability above 0.5",
         lambda: checks.cartography(config, pool, rows_with("datamap.csv", set_field("variability", "0.7")))),
        ("cartography", "difficulty band contradicting its confidence",
         lambda: checks.cartography(config, pool, rows_with(
             "datamap.csv", lambda rows: rows[0].update(mean_confidence="0.1", difficulty="easy")))),
        ("cartography", "planted flips not found hard",
         lambda: checks.cartography(config, pool, rows_with("datamap.csv", mark_all_easy))),
        ("ablation", "one example too many removed",
         lambda: checks.ablation(config, pool, pool.subset(
             [e.id for e in out["ablated_ctx"].data.pool.examples][1:]))),
        ("splits", "a splits row missing",
         lambda: checks.splits(config, data, read("splits.csv")[1:])),
        ("stratify", "a stratified count changed",
         lambda: checks.stratify(data, rows_with("stratified.csv", bump("count", 1)), models_dir)),
        ("stratify", "a stratified accuracy changed",
         lambda: checks.stratify(data, rows_with("stratified.csv", bump("accuracy", 0.5)), models_dir)),
        ("parallel_equals_sequential", "one byte of summary.csv changed",
         lambda: checks.same_bytes(exp_dir, changed_byte_dir())),
    ]
    for name, wrong, fn in cases:
        try:
            fn()
            print(f"wrong output    {name:28s} ACCEPTED: {wrong}")
            ok = False
        except checks.CheckFailed as exc:
            print(f"wrong output    {name:28s} rejected: {wrong} ({exc})")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
