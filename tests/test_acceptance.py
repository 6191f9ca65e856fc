"""Acceptance suite on the reference planted-outlier benchmark.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. The benchmark (three 2000-example sources, d=10, C=3, one wide
source with 30% label noise) is frozen in configs/benchmark.json and shared
with the CLI.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cartal.classifier as clf
from cartal.acquisition import predictive_entropy, score_bald, score_mcme, score_pool, select_batch
from cartal.cartography import (
    DIFFICULTIES,
    DifficultyThresholds,
    TraceMatrix,
    ablate_hard_to_learn,
    acquisition_by_difficulty,
    build_difficulty_split,
    compute_datamap,
    run_cartography_full,
)
from cartal.classifier import ClassifierConfig, TrainConfig, fit, init_weights, loss_and_gradients
from cartal.cli import main as cli_main
from cartal.config import parse_config
from cartal.errors import CapacityError, ConfigError, SchemaError, StateError
from cartal.experiment import (
    ExperimentConfig,
    prepare_context,
    run_ablated_suite,
    run_al,
    run_suite,
)
from cartal.metrics import acquisition_factor, input_diversity, stratified_accuracy
from cartal.pool import (
    PoolState,
    load_dataset,
    seed_split,
    transfer,
)
from cartal.seeding import derive_seed

from conftest import make_dataset, tiny_config

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"
BENCHMARK = parse_config(BENCHMARK_PATH)

_MODULE_T0 = time.perf_counter()


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def context():
    return prepare_context(BENCHMARK)


@pytest.fixture(scope="module")
def suite(context):
    result = run_suite(BENCHMARK, context)
    assert not result.failures, result.failures
    return result


# -------------------------------------------------------------------------
# criterion 1: formula oracles

def test_criterion_1_formula_oracles():
    rng = np.random.default_rng(321)
    start = time.perf_counter()
    worst = 0.0
    checks = 0

    def entropy_oracle(p):
        return -sum(x * math.log(x) for x in p if x > 0)

    for _ in range(250):
        T = int(rng.integers(1, 9))
        n = int(rng.integers(1, 6))
        C = int(rng.integers(2, 6))
        raw = rng.random((T, n, C)) + 1e-12
        mc = raw / raw.sum(axis=2, keepdims=True)

        for i in range(n):
            worst = max(worst, abs(predictive_entropy(mc[0][i]) - entropy_oracle(mc[0][i])))
            checks += 1
        mcme = score_mcme(mc)
        for i in range(n):
            mean = [sum(mc[t][i, c] for t in range(T)) / T for c in range(C)]
            worst = max(worst, abs(mcme[i] - entropy_oracle(mean)))
            checks += 1
        if T >= 2:
            bald = score_bald(mc)
            for i in range(n):
                mean = [sum(mc[t][i, c] for t in range(T)) / T for c in range(C)]
                expected = sum(entropy_oracle(mc[t][i]) for t in range(T)) / T
                worst = max(worst, abs(bald[i] - max(entropy_oracle(mean) - expected, 0.0)))
                checks += 1

    alphabet = list("abcdefghij")
    for _ in range(250):
        V = {alphabet[i] for i in rng.choice(10, size=rng.integers(0, 8), replace=False)}
        Vp = {alphabet[i] for i in rng.choice(10, size=rng.integers(0, 8), replace=False)}
        union = V | Vp
        oracle = (len(V & Vp) / len(union)) if union else 0.0
        presence = np.isin(alphabet, list(V)), np.isin(alphabet, list(Vp))
        worst = max(worst, abs(input_diversity(*presence) - oracle))
        checks += 1

    for _ in range(250):
        n_pool = int(rng.integers(6, 40))
        sources = [("A", "B", "C")[i] for i in rng.integers(0, 3, size=n_pool)]
        pool = make_dataset(np.zeros((n_pool, 1)), np.zeros(n_pool), sources=sources, num_classes=2)
        state = PoolState(np.zeros(n_pool, dtype=bool), pool)
        batch = rng.choice(n_pool, size=int(rng.integers(1, n_pool)), replace=False)
        factors = acquisition_factor(batch, state)
        counts = {s: 0 for s in set(sources)}
        for i in batch:
            counts[sources[i]] += 1
        pool_counts = {s: sources.count(s) for s in set(sources)}
        for s, n_s in pool_counts.items():
            oracle = counts[s] / (len(batch) * (n_s / n_pool))
            worst = max(worst, abs(factors[s] - oracle))
            checks += 1

    for _ in range(250):
        n_snap = int(rng.integers(1, 9))
        confs = [float(c) for c in rng.random(n_snap)]
        flags = [bool(b) for b in rng.random(n_snap) > 0.5]
        dm = compute_datamap(TraceMatrix(np.array([confs]), np.array([flags])))
        worst = max(worst, abs(dm.mean_confidence[0] - statistics.fmean(confs)))
        worst = max(worst, abs(dm.variability[0] - statistics.pstdev(confs)))
        worst = max(worst, abs(dm.correctness[0] - sum(flags) / n_snap))
        checks += 3

    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9 and elapsed < 10.0 and checks >= 1000,
           f"{checks} oracle comparisons, max abs err {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 2: gradient check

def test_criterion_2_gradient_check():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(654)
    for net in range(20):
        d = int(rng.integers(2, 6))
        depth = int(rng.integers(1, 4))
        widths = tuple(int(rng.integers(2, 9)) for _ in range(depth))
        C = int(rng.integers(2, 5))
        activation = "relu" if net % 2 == 0 else "tanh"
        config = ClassifierConfig(d, widths, C, dropout_rate=0.0, activation=activation)
        weights = init_weights(config, rng)
        for _, b in weights:
            # keep pre-activations off the exact relu kink that zero biases create
            b += rng.uniform(-0.1, 0.1, size=b.shape)
        X = rng.standard_normal((10, d))
        y = rng.integers(0, C, size=10)
        _, grads = loss_and_gradients(config, weights, X, y)
        h = 1e-6
        for layer, (W, b) in enumerate(weights):
            for tensor, grad in ((W, grads[layer][0]), (b, grads[layer][1])):
                flat = tensor.ravel()
                gflat = np.asarray(grad).ravel()
                for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_and_gradients(config, weights, X, y)[0]
                    flat[idx] = orig - h
                    down = loss_and_gradients(config, weights, X, y)[0]
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    if max(abs(fd), abs(gflat[idx])) < 1e-7:
                        continue  # below central-difference resolution
                    worst = max(worst, abs(fd - gflat[idx]) / max(1e-8, abs(fd) + abs(gflat[idx])))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-4 and elapsed < 30.0,
           f"20 networks, max relative gradient error {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 3: loop bookkeeping on the full default run

def test_criterion_3_default_run_bookkeeping(context):
    config = replace(BENCHMARK, seed_size=500, k=500, rounds=7,
                     strategies=("random",), seeds=(1,))
    result = run_al(config, "random", 1, context)
    pool = context.data.pool
    acquired_union = set()
    for log in result.round_logs:
        acquired_union |= set(log.acquired_ids)
    initial = set(result.labelled_ids) - acquired_union
    assert len(initial) == 500

    def sides(state):
        return (set(pool.ids[state.labelled_mask].tolist()),
                set(pool.ids[~state.labelled_mask].tolist()))

    state = PoolState(np.isin(pool.ids, list(initial)), pool)
    for i, log in enumerate(result.round_logs, start=1):
        state = transfer(state, pool.positions(log.acquired_ids))  # transfer enforces disjointness
        labelled, unlabelled = sides(state)
        assert not labelled & unlabelled
        assert len(labelled) == 500 + i * 500 == log.labelled_size
    ok = (len(result.labelled_ids) == 4000
          and labelled == set(result.labelled_ids)
          and len(labelled) + len(unlabelled) == len(pool))
    report(3, ok, f"7 rounds replayed, final |D_train|={len(result.labelled_ids)}, "
                  "disjointness held after every transfer")


# -------------------------------------------------------------------------
# criterion 4: end-to-end determinism of cmd_run

def test_criterion_4_cmd_run_determinism(tmp_path):
    import json

    from cartal.config import config_to_dict

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(tiny_config()), indent=2))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("rounds.csv", "summary.csv")
    )
    report(4, same, "two cmd_run executions produced identical rounds.csv and summary.csv")


# -------------------------------------------------------------------------
# criterion 5: collective-outlier acquisition

def test_criterion_5_outlier_acquisition(context, suite):
    hard_impossible = {}
    for r in suite.results:
        counts = acquisition_by_difficulty([log.acquired_ids for log in r.round_logs], context.pool_datamap)
        last2 = counts[-2:]
        hi = sum(c["hard"] + c["impossible"] for c in last2)
        hard_impossible.setdefault(r.strategy, []).append(hi)
    means = {s: float(np.mean(v)) for s, v in hard_impossible.items()}
    ratio_mcme = means["mcme"] / means["random"]
    ratio_bald = means["bald"] / means["random"]

    factors: dict[str, list[float]] = {}
    for r in suite.results:
        if r.strategy != "random":
            continue
        for log in r.round_logs:
            for s, f in log.acquisition_factor.items():
                factors.setdefault(s, []).append(f)
    factor_means = {s: float(np.mean(v)) for s, v in factors.items()}
    factors_ok = all(0.85 <= f <= 1.15 for f in factor_means.values())
    # wall time since module import covers the benchmark cartography + suite
    elapsed = time.perf_counter() - _MODULE_T0

    ok = ratio_mcme >= 1.5 and ratio_bald >= 1.5 and factors_ok and elapsed < 600.0
    report(5, ok,
           f"final-2-round H∪I vs random: mcme {ratio_mcme:.2f}x, bald {ratio_bald:.2f}x "
           f"(need ≥1.5); random factors {dict((s, round(f, 3)) for s, f in factor_means.items())} "
           f"within [0.85, 1.15]; {elapsed:.0f}s elapsed (<600s)")


# -------------------------------------------------------------------------
# criterion 6: ablation recovery for MCME

def test_criterion_6_ablation_recovery(context, suite):
    config = replace(BENCHMARK, strategies=("mcme",))
    ablated, _ = run_ablated_suite(config, context)
    assert not ablated.failures
    original = {r.seed: r.test_accuracies["clean"] for r in suite.results if r.strategy == "mcme"}
    after = {r.seed: r.test_accuracies["clean"] for r in ablated.results}
    deltas = {s: after[s] - original[s] for s in original}
    wins = sum(1 for d in deltas.values() if d > 0)
    report(6, wins >= 4,
           f"ablated-vs-original MCME clean accuracy improved in {wins}/5 seeds "
           f"(deltas { {s: round(d, 4) for s, d in sorted(deltas.items())} })")


# -------------------------------------------------------------------------
# criterion 7: difficulty-split ordering

def test_criterion_7_difficulty_split_ordering(context):
    pool = context.data.pool
    clean, val = context.data.tests["clean"], context.data.val
    ccfg = BENCHMARK.classifier_config(pool.feature_dim, pool.num_classes)
    per_combo: dict[str, list[float]] = {}
    for combo in BENCHMARK.difficulty_combos:
        accs = []
        for seed in BENCHMARK.seeds:
            rows = build_difficulty_split(
                context.pool_datamap, combo, BENCHMARK.difficulty_n,
                derive_seed(BENCHMARK.data_seed, "split-sample", combo, seed))
            split = pool.take(rows)
            model = fit(ccfg, (split.X, split.y), BENCHMARK.training,
                        derive_seed(BENCHMARK.data_seed, "split-fit", combo, seed), val=(val.X, val.y))
            accs.append(model.accuracy(clean.X, clean.y))
        per_combo[combo] = accs
    hi_worst_everywhere = all(
        min(per_combo, key=lambda c: per_combo[c][i]) == "HI"
        for i in range(len(BENCHMARK.seeds))
    )
    summary = {c: round(float(np.mean(a)), 3) for c, a in per_combo.items()}
    report(7, hi_worst_everywhere,
           f"HI lowest clean accuracy in every seed (means {summary})")


# -------------------------------------------------------------------------
# criterion 8: stratified consistency and flip detection

def test_criterion_8_stratified_consistency(context, suite):
    insitu, val = context.data.tests["insitu"], context.data.val
    ccfg = BENCHMARK.classifier_config(insitu.feature_dim, insitu.num_classes)

    rates = []
    first_entries = None
    for carto_seed in range(5):
        carto = run_cartography_full(insitu, ccfg, BENCHMARK.cartography_training,
                                     derive_seed(BENCHMARK.data_seed, "test-carto", carto_seed),
                                     val=(val.X, val.y))
        if first_entries is None:
            first_entries = carto.entries
        dm = dict(zip(insitu.ids.tolist(), (DIFFICULTIES[d] for d in carto.entries.difficulty)))
        flipped = set(insitu.ids[insitu.flipped].tolist())
        rates.append(
            sum(1 for i in flipped if dm[i] in ("hard", "impossible")) / len(flipped))
    flip_rate = float(np.mean(rates))

    worst_gap = 0.0
    for r in suite.results:
        res = stratified_accuracy(r.final_model, insitu, first_entries)
        recombined = sum(res.counts[d] * res.accuracies[d] for d in res.counts) / sum(
            res.counts.values())
        worst_gap = max(worst_gap, abs(recombined - res.overall))
    ok = worst_gap <= 1e-12 and flip_rate >= 0.6
    report(8, ok,
           f"count-weighted recombination gap {worst_gap:.1e} (≤1e-12) over "
           f"{len(suite.results)} models; planted test flips H∪I rate {flip_rate:.3f} (≥0.6)")


# -------------------------------------------------------------------------
# criterion 9: degenerate-input suite

def test_criterion_9_degenerate_inputs(tmp_path):
    checks = []

    # empty data file loads as a valid empty dataset
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    checks.append(("empty file", len(load_dataset(empty)) == 0))

    # k = |pool| exhausts the unlabelled set
    pool = make_dataset(np.stack([np.arange(30.0), np.zeros(30)], axis=1), np.arange(30) % 2)
    state = seed_split(pool, 10, rng_seed=0)
    unlabelled = set(pool.ids[~state.labelled_mask].tolist())
    model = fit(ClassifierConfig(2, (4,), 2, dropout_rate=0.3),
                (pool.X[state.labelled_mask], pool.y[state.labelled_mask]), TrainConfig(max_epochs=2), 0)
    batch = select_batch("mcme", state, score_pool("mcme", state, model, 0), len(unlabelled), 0)
    checks.append(("k equals pool", set(pool.ids[batch].tolist()) == unlabelled))

    # fraction-0 ablation keeps everything
    datamap = compute_datamap(TraceMatrix(np.tile([0.5, 0.7], (12, 1)), np.tile([True, False], (12, 1))))
    retained = ablate_hard_to_learn(datamap, make_dataset(np.zeros((12, 1)), np.zeros(12)), 0.0)
    checks.append(("fraction-0 ablation", retained.tolist() == list(range(12))))

    # dropout-0 MC sampling equals deterministic inference
    det_cfg = ClassifierConfig(2, (4,), 2, dropout_rate=0.0)
    det_model = clf.Classifier(det_cfg, init_weights(det_cfg, np.random.default_rng(0)))
    X = np.random.default_rng(1).standard_normal((6, 2))
    det = det_model.predict_proba(X)
    mc = det_model.mc_predict_proba(X, T=4, rng_seed=9)
    checks.append(("dropout-0 MC", all((m == det).all() for m in mc)))

    # single-class training predicts that class everywhere
    Xc = np.random.default_rng(2).standard_normal((40, 2))
    yc = np.full(40, 1)
    const_model = fit(ClassifierConfig(2, (4,), 3, dropout_rate=0.0), (Xc, yc), TrainConfig(max_epochs=30), 0)
    checks.append(("single-class training", const_model.accuracy(Xc, yc) == 1.0))

    # specified errors for invalid cases
    def raises(exc, fn):
        try:
            fn()
        except exc:
            return True
        except Exception:
            return False
        return False

    checks.append(("oversize seed_split", raises(ValueError, lambda: seed_split(pool, 31, 0))))
    checks.append(("transfer labelled id", raises(
        StateError, lambda: transfer(state, np.flatnonzero(state.labelled_mask)[:1]))))
    checks.append(("T=0 MC", raises(ValueError, lambda: det_model.mc_predict_proba(X, 0, 0))))
    checks.append(("k too large", raises(
        ValueError, lambda: select_batch("random", state, None, 1000, 0))))
    checks.append(("empty train set", raises(
        ValueError, lambda: fit(det_cfg, (np.zeros((0, 2)), np.zeros(0, dtype=int)), TrainConfig(), 0))))
    checks.append(("entropy bad vector", raises(
        ValueError, lambda: predictive_entropy([0.4, 0.4]))))
    checks.append(("indivisible split n", raises(
        ValueError, lambda: build_difficulty_split(datamap, "EM", 3, 0))))
    checks.append(("split capacity", raises(
        CapacityError, lambda: build_difficulty_split(datamap, "EM", 1000, 0))))
    checks.append(("duplicate id", raises(SchemaError, lambda: make_dataset(
        np.zeros((2, 1)), [0, 0], ids=[0, 0], num_classes=2))))
    mismatched = tmp_path / "mismatched.jsonl"
    mismatched.write_text('{"id": 0, "source": "s", "features": [0, 0, 0, 0], "label": 0}\n'
                          '{"id": 1, "source": "s", "features": [0, 0], "label": 0}\n')
    checks.append(("dim mismatch names id", raises(SchemaError, lambda: load_dataset(mismatched))))
    checks.append(("rounds=0 config", raises(ConfigError, lambda: tiny_config(rounds=0))))
    checks.append(("bad strategy config", raises(
        ConfigError, lambda: tiny_config(strategies=("margin",)))))
    checks.append(("bad threshold order", raises(
        ValueError, lambda: DifficultyThresholds(0.5, 0.4, 0.75))))

    failed = [name for name, ok in checks if not ok]
    report(9, not failed,
           f"{len(checks)} degenerate-input contracts verified"
           + (f"; failed: {failed}" if failed else ""))
