"""Correctness checks, computed apart from the program.

Each check recomputes what the method must produce from the pool, the
acquired ids and the written artifacts, with plain Python sets and counts and
a numpy forward pass of its own, and compares it with what the program
reported. None of them compares against a stored copy of earlier output.
Each check returns ``None`` when it holds, or a message saying what is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter

import numpy as np


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _close(reported, mine, what):
    _require(math.isclose(float(reported), mine, rel_tol=1e-5, abs_tol=1e-9),
             f"{what}: reported {reported}, recomputed {mine!r}")


def read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# --- an independent forward pass ------------------------------------------

def load_layers(path):
    """Weights and activation from a checkpoint file, read as plain JSON."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    layers = [(np.array(layer["W"], dtype=float).reshape(layer["shape"]),
               np.array(layer["b"], dtype=float)) for layer in payload["layers"]]
    return layers, payload["config"]["activation"]


def probabilities(layers, activation, X):
    h = X
    for W, b in layers[:-1]:
        z = h @ W + b
        h = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
    W, b = layers[-1]
    logits = h @ W + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    return np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))


def accuracy(layers, activation, examples) -> float:
    X = np.array([e.features for e in examples], dtype=float)
    y = np.array([e.label for e in examples])
    return float((np.argmax(probabilities(layers, activation, X), axis=1) == y).mean())


def mean_entropy(layers, activation, examples) -> float:
    P = probabilities(layers, activation, np.array([e.features for e in examples], dtype=float))
    ent = [-sum(p * math.log(p) for p in row if p > 0) for row in P.tolist()]
    return sum(ent) / len(ent)


# --- AL runs ---------------------------------------------------------------

def _runs(rows):
    by_run: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        by_run.setdefault((row["strategy"], int(row["seed"])), []).append(row)
    return by_run


def bookkeeping(config, pool, results, rounds_rows):
    """Labelled sizes, disjoint acquisitions and per-source counts of every run."""
    source = {e.id: e.source for e in pool.examples}
    sources = sorted(set(source.values()))
    by_run = _runs(rounds_rows)
    _require(len(by_run) == len(results), f"{len(by_run)} runs in rounds CSV, {len(results)} results")
    for r in results:
        rows = sorted(by_run.get((r.strategy, r.seed), []), key=lambda row: int(row["round"]))
        name = f"{r.strategy}/seed {r.seed}"
        _require([int(row["round"]) for row in rows] == list(range(1, config.rounds + 1)),
                 f"{name}: rounds in CSV are not 1..{config.rounds}")
        labelled = set(r.labelled_ids)
        _require(len(labelled) == len(r.labelled_ids), f"{name}: repeated labelled id")
        acquired: set[int] = set()
        for rnd, (row, log) in enumerate(zip(rows, r.round_logs), start=1):
            batch = list(log.acquired_ids)
            _require(len(batch) == config.k and len(set(batch)) == config.k,
                     f"{name} round {rnd}: {len(set(batch))} distinct of {len(batch)} acquired, k={config.k}")
            _require(not acquired & set(batch), f"{name} round {rnd}: id acquired twice")
            acquired |= set(batch)
            _require(int(row["labelled_size"]) == config.seed_size + rnd * config.k,
                     f"{name} round {rnd}: labelled_size {row['labelled_size']}")
            counts = Counter(source[i] for i in batch)
            reported = {s: int(row[f"acquired_{s}"]) for s in sources}
            _require(reported == {s: counts[s] for s in sources},
                     f"{name} round {rnd}: per-source counts {reported}, recomputed {dict(counts)}")
            _require(sum(reported.values()) == config.k, f"{name} round {rnd}: counts do not sum to k")
        _require(acquired <= labelled, f"{name}: acquired ids missing from the labelled set")
        _require(len(labelled - acquired) == config.seed_size,
                 f"{name}: seed set holds {len(labelled - acquired)}, expected {config.seed_size}")


class _Remaining:
    """Token and source counts of the unlabelled pool, updated as ids leave it."""

    def __init__(self, pool, ids):
        self.examples = {e.id: e for e in pool.examples}
        self.tokens = Counter(t for i in ids for t in set(self.examples[i].tokens))
        self.sources = Counter(self.examples[i].source for i in ids)
        self.size = len(ids)

    def remove(self, ids):
        for i in ids:
            e = self.examples[i]
            self.tokens.subtract(set(e.tokens))
            self.sources[e.source] -= 1
        self.size -= len(ids)

    def diversity(self, ids):
        """Jaccard of the token sets of ``ids`` and of the pool left without them."""
        after = Counter(self.tokens)
        for i in ids:
            after.subtract(set(self.examples[i].tokens))
        acquired = {t for i in ids for t in self.examples[i].tokens}
        rest = {t for t, c in after.items() if c > 0}
        union = acquired | rest
        return len(acquired & rest) / len(union) if union else 0.0


def profiling(config, pool, results, rounds_rows, profile_rows, reference):
    """Class distribution, Jaccard input diversity, acquisition factor and
    output uncertainty of every round and of every final labelled set."""
    layers, activation = reference
    examples = {e.id: e for e in pool.examples}
    sources = sorted({e.source for e in pool.examples})
    C = pool.num_classes
    by_run = _runs(rounds_rows)
    profile = {(row["strategy"], int(row["seed"])): row for row in profile_rows}
    for r in results:
        name = f"{r.strategy}/seed {r.seed}"
        acquired_all = {i for log in r.round_logs for i in log.acquired_ids}
        seed_ids = set(r.labelled_ids) - acquired_all
        remaining = _Remaining(pool, [i for i in examples if i not in seed_ids])
        rows = sorted(by_run[(r.strategy, r.seed)], key=lambda row: int(row["round"]))
        for rnd, (row, log) in enumerate(zip(rows, r.round_logs), start=1):
            batch = list(log.acquired_ids)
            labels = Counter(examples[i].label for i in batch)
            for c in range(C):
                _close(row[f"class_{c}"], labels[c] / len(batch), f"{name} round {rnd} class_{c}")
            _close(row["input_diversity"], remaining.diversity(batch), f"{name} round {rnd} input_diversity")
            got = Counter(examples[i].source for i in batch)
            for s in sources:
                share = remaining.sources[s] / remaining.size
                _close(row[f"factor_{s}"], got[s] / (len(batch) * share), f"{name} round {rnd} factor_{s}")
            _close(row["output_uncertainty"], mean_entropy(layers, activation, [examples[i] for i in batch]),
                   f"{name} round {rnd} output_uncertainty")
            remaining.remove(batch)
        row = profile[(r.strategy, r.seed)]
        labelled = sorted(r.labelled_ids)
        labels = Counter(examples[i].label for i in labelled)
        for c in range(C):
            _close(row[f"class_{c}"], labels[c] / len(labelled), f"{name} final class_{c}")
        tokens = {t for i in labelled for t in examples[i].tokens}
        rest = {t for t, c in remaining.tokens.items() if c > 0}
        union = tokens | rest
        _close(row["input_diversity"], len(tokens & rest) / len(union) if union else 0.0,
               f"{name} final input_diversity")
        _close(row["output_uncertainty"], mean_entropy(layers, activation, [examples[i] for i in labelled]),
               f"{name} final output_uncertainty")


def accuracy_check(config, data, results, summary_rows, models_dir, prefix=""):
    """Every final model's accuracies, from its checkpoint, and their aggregates."""
    sets = {"val": data.val.examples, **{name: ds.examples for name, ds in data.tests.items()}}
    per_strategy: dict[tuple[str, str], list[float]] = {}
    for r in results:
        layers, activation = load_layers(os.path.join(models_dir, f"{prefix}{r.strategy}_seed{r.seed}.json"))
        reported = {"val": r.final_val_accuracy, **r.test_accuracies}
        for name, examples in sets.items():
            acc = accuracy(layers, activation, examples)
            _close(reported[name], acc, f"{r.strategy}/seed {r.seed} accuracy on {name}")
            per_strategy.setdefault((r.strategy, name), []).append(acc)
    _require(len(summary_rows) == len(per_strategy),
             f"summary has {len(summary_rows)} rows, expected {len(per_strategy)}")
    for row in summary_rows:
        accs = per_strategy[(row["strategy"], row["test_set"])]
        mean = sum(accs) / len(accs)
        std = math.sqrt(sum((a - mean) ** 2 for a in accs) / len(accs))
        where = f"summary {row['strategy']}/{row['test_set']}"
        _close(row["mean"], mean, f"{where} mean")
        _close(row["std"], std, f"{where} std")
        _require(int(row["runs"]) == len(accs), f"{where} runs")


# --- diagnostics -----------------------------------------------------------

def _band(conf, thr):
    if conf <= thr.impossible_max:
        return "impossible"
    if conf <= thr.hard_max:
        return "hard"
    if conf <= thr.medium_max:
        return "medium"
    return "easy"


def cartography(config, pool, datamap_rows):
    """Datamap ranges and bands, and that planted flips read as hard."""
    thr = config.thresholds
    _require([int(row["id"]) for row in datamap_rows] == [e.id for e in pool.examples],
             "datamap ids differ from the pool ids")
    hard = {}
    for row in datamap_rows:
        conf, var, corr = (float(row[k]) for k in ("mean_confidence", "variability", "correctness"))
        i = int(row["id"])
        _require(0.0 <= conf <= 1.0 and 0.0 <= corr <= 1.0 and 0.0 <= var <= 0.5,
                 f"datamap id {i}: confidence {conf}, variability {var}, correctness {corr}")
        # the CSV keeps 6 digits: a value printed on a threshold may lie on either side
        bands = {_band(conf, thr), _band(conf - 1e-6, thr), _band(conf + 1e-6, thr)}
        _require(row["difficulty"] in bands, f"datamap id {i}: {row['difficulty']} at confidence {conf}")
        hard[i] = row["difficulty"] in ("hard", "impossible")
    flipped = set(pool.metadata.get("flipped_ids", ()))
    _require(flipped, "no planted label flips in the pool")
    rate_flipped = sum(hard[i] for i in flipped) / len(flipped)
    rate_clean = sum(v for i, v in hard.items() if i not in flipped) / (len(hard) - len(flipped))
    _require(rate_flipped >= 0.5 and rate_flipped >= rate_clean + 0.3,
             f"hard/impossible rate: flipped {rate_flipped:.3f}, unflipped {rate_clean:.3f}")


def ablation(config, pool, ablated_pool):
    """Each source keeps exactly n - floor(fraction * n) examples."""
    fraction = 0.25 if config.ablation_fraction is None else config.ablation_fraction
    before = Counter(e.source for e in pool.examples)
    after = Counter(e.source for e in ablated_pool.examples)
    for s, n in before.items():
        _require(after[s] == n - math.floor(fraction * n), f"ablation keeps {after[s]} of {n} in {s}")
    _require({e.id for e in ablated_pool.examples} <= {e.id for e in pool.examples},
             "ablated pool holds ids not in the pool")


def splits(config, data, splits_rows):
    names = ["val", *data.tests]
    _require(len(splits_rows) == len(config.difficulty_combos) * len(names),
             f"splits.csv has {len(splits_rows)} rows")
    for row in splits_rows:
        _require(row["strategy"] in config.difficulty_combos and row["test_set"] in names,
                 f"splits.csv row {row}")
        _require(int(row["runs"]) == len(config.seeds) and 0.0 <= float(row["mean"]) <= 1.0,
                 f"splits.csv row {row}")


def stratify(data, stratified_rows, models_dir):
    """Stratified counts sum to the test set; their weighted accuracy is overall accuracy."""
    groups: dict[tuple[str, int, str], list[dict]] = {}
    for row in stratified_rows:
        groups.setdefault((row["strategy"], int(row["seed"]), row["test_set"]), []).append(row)
    n_models = len([f for f in os.listdir(models_dir) if f.endswith(".json")])
    _require(len(groups) == n_models * len(data.tests),
             f"{len(groups)} stratified groups for {n_models} models x {len(data.tests)} test sets")
    for (strategy, seed, test_set), rows in groups.items():
        examples = data.tests[test_set].examples
        counts = [int(row["count"]) for row in rows]
        _require(sum(counts) == len(examples),
                 f"{strategy}/seed {seed} on {test_set}: counts sum to {sum(counts)} of {len(examples)}")
        weighted = sum(c * float(row["accuracy"]) for c, row in zip(counts, rows)) / len(examples)
        layers, activation = load_layers(os.path.join(models_dir, f"{strategy}_seed{seed}.json"))
        _close(weighted, accuracy(layers, activation, examples),
               f"{strategy}/seed {seed} on {test_set}: count-weighted stratified accuracy")


def same_bytes(dir_a, dir_b, names=("rounds.csv", "summary.csv", "profile.csv")):
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            _require(fa.read() == fb.read(), f"{name} differs from the sequential run")


# --- all checks of one repetition --------------------------------------------

def _attempt(results, name, fn, *args):
    try:
        fn(*args)
        results[name] = None
    except CheckFailed as exc:
        results[name] = str(exc)


def run_checks(workload, out, exp_dir, ref_dir=None) -> dict[str, str | None]:
    config, ctx = out["config"], out["ctx"]
    pool, data = ctx.data.pool, ctx.data
    reference = ([(W, b) for W, b in ctx.reference_model.weights], config.activation)
    models_dir = os.path.join(exp_dir, "models")
    results = out["suite"].results
    rows = read_csv(os.path.join(exp_dir, "rounds.csv"))
    checks: dict[str, str | None] = {}
    _attempt(checks, "bookkeeping", bookkeeping, config, pool, results, rows)
    _attempt(checks, "profiling", profiling, config, pool, results, rows,
             read_csv(os.path.join(exp_dir, "profile.csv")), reference)
    _attempt(checks, "accuracy", accuracy_check, config, data, results,
             read_csv(os.path.join(exp_dir, "summary.csv")), models_dir)
    _attempt(checks, "cartography", cartography, config, pool,
             read_csv(os.path.join(exp_dir, "datamap.csv")))
    if workload == "suite":
        ablated, apool = out["ablated"].results, out["ablated_ctx"].data.pool
        arows = read_csv(os.path.join(exp_dir, "rounds_ablated.csv"))
        _attempt(checks, "ablation", ablation, config, pool, apool)
        _attempt(checks, "ablated.bookkeeping", bookkeeping, config, apool, ablated, arows)
        _attempt(checks, "ablated.profiling", profiling, config, apool, ablated, arows,
                 read_csv(os.path.join(exp_dir, "profile_ablated.csv")), reference)
        _attempt(checks, "ablated.accuracy", accuracy_check, config, data, ablated,
                 read_csv(os.path.join(exp_dir, "summary_ablated.csv")), models_dir, "ablated_")
        _attempt(checks, "splits", splits, config, data, read_csv(os.path.join(exp_dir, "splits.csv")))
        _attempt(checks, "stratify", stratify, data,
                 read_csv(os.path.join(exp_dir, "stratified.csv")), models_dir)
    if ref_dir is not None:
        _attempt(checks, "parallel_equals_sequential", same_bytes, exp_dir, ref_dir)
    return checks
