"""AL loop orchestration: bookkeeping, determinism, suites, variants."""

from __future__ import annotations

import logging
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import entr

import cartal.acquisition as acquisition
import cartal.experiment as exp
from cartal.acquisition import score_pool
from cartal.cartography import DIFFICULTIES, ablated_size, build_difficulty_split
from cartal.classifier import fit
from cartal.config import parse_config
from cartal.errors import CapacityError, ConfigError
from cartal.experiment import (
    ExperimentConfig,
    RunResult,
    RunProfile,
    SuiteResult,
    build_experiment_data,
    prepare_context,
    run_ablated_suite,
    run_al,
    run_difficulty_split,
    run_stratified,
    run_suite,
    write_rounds_csv,
    write_suite_artifacts,
    write_summary_csv,
)
from cartal.metrics import input_diversity, tokens_of
from cartal.pool import Dataset, seed_split, transfer

from conftest import tiny_config
from openblas_threads import openblas_threads


@pytest.fixture(scope="module")
def ctx():
    config = tiny_config()
    return config, prepare_context(config)


# --- data assembly ------------------------------------------------------------

def test_validation_is_disjoint_from_pool(ctx):
    config, context = ctx
    data = context.data
    # the feature rows are continuous draws, so a row shared by both sides would be one example
    pool_rows = set(map(tuple, data.pool.X.tolist()))
    val_rows = set(map(tuple, data.val.X.tolist()))
    assert len(pool_rows) == len(data.pool) and len(val_rows) == len(data.val)
    assert not pool_rows & val_rows
    # 10% of each 120-example source held out, remainder pooled
    assert len(data.val) == 36
    assert len(data.pool) == 324


def test_pool_has_even_source_shares(ctx):
    _, context = ctx
    counts = {}
    for e in context.data.pool.examples:
        counts[e.source] = counts.get(e.source, 0) + 1
    assert len(set(counts.values())) == 1


# --- run_al ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def one_run(ctx):
    config, context = ctx
    return config, context, run_al(config, "mcme", seed=1, context=context)


def test_round_sizes_follow_seed_plus_rk(one_run):
    config, _, result = one_run
    for i, log in enumerate(result.round_logs, start=1):
        assert log.round == i
        assert log.labelled_size == config.seed_size + i * config.k
        assert len(log.acquired_ids) == config.k
    assert len(result.labelled_ids) == config.seed_size + config.rounds * config.k


def test_acquired_batches_are_pairwise_disjoint(one_run):
    _, _, result = one_run
    seen = set()
    for log in result.round_logs:
        batch = set(log.acquired_ids)
        assert not batch & seen
        seen |= batch


def test_replaying_round_logs_reconstructs_final_state(one_run):
    config, context, result = one_run
    state = seed_split(context.data.pool, config.seed_size,
                       exp.derive_seed(exp.derive_seed("run", "mcme", 1), "split"))
    for log in result.round_logs:
        transfer(state, context.data.pool.positions(log.acquired_ids), log.round)
    assert context.data.pool.ids[state >= 0].tolist() == sorted(result.labelled_ids)
    assert (state == result.acquired_round).all()


def test_run_on_an_ablated_pool_logs_its_ids_not_its_rows(ctx):
    # an ablated pool keeps its examples' ids, so past the first one dropped
    # its ids are not its rows
    config, context = ctx
    retained = exp.ablate_hard_to_learn(context.pool_datamap, context.data.pool, config.ablation_fraction)
    pool = context.data.pool.take(retained, name="pool-ablated")
    assert (pool.ids != np.arange(len(pool))).any()
    ablated = replace(context, data=replace(context.data, pool=pool))
    result = run_al(config, "mcme", 1, ablated)
    state = seed_split(pool, config.seed_size, exp.derive_seed(exp.derive_seed("run", "mcme", 1), "split"))
    for log in result.round_logs:
        rows = pool.positions(log.acquired_ids)
        assert (rows >= 0).all() and (state[rows] < 0).all()  # unlabelled ids of this pool
        transfer(state, rows, log.round)
    assert pool.ids[state >= 0].tolist() == sorted(result.labelled_ids)


def test_round_metrics_are_recorded(one_run):
    config, context, result = one_run
    C = context.data.pool.num_classes
    for log in result.round_logs:
        m = log.profile
        assert 0.0 <= m.input_diversity <= 1.0
        assert 0.0 <= m.output_uncertainty <= math.log(C) + 1e-9
        assert sum(m.class_distribution) == pytest.approx(1.0)
        shares = sum(log.per_source_counts.values())
        assert shares == config.k


def test_run_al_is_deterministic(ctx):
    config, context = ctx
    a = run_al(config, "random", seed=2, context=context)
    b = run_al(config, "random", seed=2, context=context)
    assert a.round_logs == b.round_logs
    assert a.test_accuracies == b.test_accuracies
    assert a.final_val_accuracy == b.final_val_accuracy


def test_fit_count_is_rounds_plus_one(ctx, monkeypatch):
    config, context = ctx
    calls = []
    real_fit = exp.clf.fit_many

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(exp.clf, "fit_many", counting_fit)
    run_al(config, "random", seed=3, context=context)
    assert len(calls) == config.rounds + 1


def test_pool_exhaustion_names_round(ctx):
    config, context = ctx
    big = ExperimentConfig(**{**config.__dict__, "k": 200, "rounds": 5})
    with pytest.raises(CapacityError, match="round"):
        run_al(big, "random", seed=1, context=context)


def test_rounds_zero_rejected_at_config():
    with pytest.raises(ConfigError):
        tiny_config(rounds=0)


def test_unknown_strategy_rejected_at_config():
    with pytest.raises(ConfigError, match="mcme"):
        tiny_config(strategies=("uncertainty",))


# --- run_suite --------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite(ctx):
    config, context = ctx
    return run_suite(config, context)


def test_suite_counts(ctx, suite):
    config, _ = ctx
    assert len(suite.results) == len(config.strategies) * len(config.seeds)
    assert len(suite.summaries) == len(config.strategies)
    assert not suite.failures


def test_suite_aggregation_matches_bruteforce(ctx, suite):
    config, _ = ctx
    for summary in suite.summaries:
        runs = [r for r in suite.results if r.strategy == summary.strategy]
        for name, (mean, std, n) in summary.accuracies.items():
            vals = [r.final_val_accuracy if name == "val" else r.test_accuracies[name] for r in runs]
            assert n == len(vals)
            assert mean == pytest.approx(float(np.mean(vals)), abs=1e-12)
            assert std == pytest.approx(float(np.std(vals)), abs=1e-12)


def test_aggregate_two_seeds_population_std():
    profile = RunProfile(0.5, 0.5, (1.0,))
    results = [
        RunResult("random", s, [], None, acc, {"clean": acc}, profile, np.zeros(0, np.int32), ())
        for s, acc in ((1, 0.8), (2, 0.9))
    ]
    config = tiny_config(strategies=("random",), seeds=(1, 2))
    [summary] = exp._aggregate(config, results)
    mean, std, n = summary.accuracies["clean"]
    assert (mean, std, n) == (pytest.approx(0.85), pytest.approx(0.05), 2)


def test_single_run_has_zero_std():
    profile = RunProfile(0.5, 0.5, (1.0,))
    results = [RunResult("random", 1, [], None, 0.8, {"clean": 0.8}, profile, np.zeros(0, np.int32), ())]
    config = tiny_config(strategies=("random",), seeds=(1,))
    [summary] = exp._aggregate(config, results)
    assert summary.accuracies["clean"][1] == 0.0


def test_suite_survives_single_run_failure(ctx, monkeypatch):
    config, context = ctx
    real = exp._al_round

    def flaky(cfg, run, *args):
        if run.strategy == "mcme" and run.seed == 2:
            raise RuntimeError("synthetic failure")
        return real(cfg, run, *args)

    monkeypatch.setattr(exp, "_al_round", flaky)
    suite = run_suite(config, context)
    assert len(suite.failures) == 1
    assert suite.failures[0].strategy == "mcme" and suite.failures[0].seed == 2
    mcme = next(s for s in suite.summaries if s.strategy == "mcme")
    assert mcme.accuracies["clean"][2] == len(config.seeds) - 1


def _empty_training_set(*args, **kwargs):
    raise ValueError("training set is empty")


def test_failed_lockstep_fit_logs_one_plain_traceback_per_run(quickstart, caplog, monkeypatch):
    # one exception fails every run of the fit; recording it on each run must
    # not raise it again, which would grow its traceback once per run
    config, context = quickstart
    monkeypatch.setattr(exp.clf, "fit_many", _empty_training_set)
    caplog.set_level(logging.ERROR, logger="cartal.experiment")
    suite = run_suite(config, context)
    assert len(suite.failures) == len(config.strategies) * len(config.seeds)
    tracebacks = [logging.Formatter().formatException(r.exc_info) for r in caplog.records if r.exc_info]
    assert len(tracebacks) == len(suite.failures)
    for text in tracebacks:
        assert "Previous line repeated" not in text and "raise outcome" not in text
        assert text.endswith("ValueError: training set is empty")


def test_parallel_suite_matches_sequential(ctx, suite):
    config, context = ctx
    assert len(config.strategies) >= 2 and len(config.seeds) >= 2  # two groups of R=2
    par = run_suite(config, context, parallel=2)
    assert suite.summaries == par.summaries
    assert [r.round_logs for r in suite.results] == [r.round_logs for r in par.results]
    assert [r.profile for r in suite.results] == [r.profile for r in par.results]


def _report_blas_threads(config, specs, context):
    """Stands in for a lockstep group: fails each run with the OpenBLAS
    thread count in effect in its worker as the error text."""
    seen = str(openblas_threads())
    return [exp.RunFailure(strategy, seed, seen) for strategy, seed in specs]


def test_parallel_workers_get_one_blas_thread_and_parent_env_is_kept(ctx, monkeypatch):
    if openblas_threads() is None:
        pytest.skip("numpy ships no OpenBLAS of its own")
    config, context = ctx
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # ignored: a forked worker keeps the parent's pin
    before = dict(os.environ)
    monkeypatch.setattr(exp, "_run_group", _report_blas_threads)
    suite = run_suite(config, context, parallel=2)
    assert dict(os.environ) == before
    assert len(suite.failures) == len(config.strategies) * len(config.seeds)
    assert {f.error for f in suite.failures} == {"1"}


def test_import_cartal_leaves_one_blas_thread():
    if openblas_threads() is None:
        pytest.skip("numpy ships no OpenBLAS of its own")
    script = ("from openblas_threads import openblas_threads\n"
              "before = openblas_threads()\n"
              "import cartal, cartal.blas\n"
              "print(before, openblas_threads(), cartal.blas.threads())\n")
    src = os.path.dirname(os.path.dirname(exp.__file__))
    path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["2", "1", "1"]


def _log_its_runs(config, specs, context):
    """Stands in for a lockstep group: logs the runs it holds at info level."""
    logging.getLogger("cartal.experiment").info("group holds %s", specs)
    return [exp.RunFailure(strategy, seed, "") for strategy, seed in specs]


def test_parallel_workers_log_at_the_parent_level(ctx, monkeypatch, caplog, capfd):
    config, context = ctx
    caplog.set_level(logging.INFO)
    # a stderr handler at INFO, as the CLI sets up; forked workers inherit it
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.getLogger().addHandler(handler)
    monkeypatch.setattr(exp, "_run_group", _log_its_runs)
    try:
        run_suite(config, context, parallel=2)
    finally:
        logging.getLogger().removeHandler(handler)
    err = capfd.readouterr().err  # the workers write to the inherited stderr
    assert "INFO cartal.experiment: group holds [('random', 1), ('mcme', 1)]" in err
    assert "INFO cartal.experiment: group holds [('random', 2), ('mcme', 2)]" in err


def _refuse_pickling(self, protocol):
    raise AssertionError("a RunContext was pickled")


def test_parallel_suite_pickles_no_context(ctx, suite, monkeypatch):
    """Forked workers inherit the context instead of receiving a copy."""
    config, context = ctx
    monkeypatch.setattr(exp.RunContext, "__reduce_ex__", _refuse_pickling)
    with pytest.raises(AssertionError, match="a RunContext was pickled"):
        pickle.dumps(context)
    par = run_suite(config, context, parallel=2)
    assert not par.failures
    assert suite.summaries == par.summaries
    assert [r.round_logs for r in suite.results] == [r.round_logs for r in par.results]


def test_a_parallel_suite_needs_no_main_guard(tmp_path):
    """Forked workers do not import the calling script again, so it may call
    ``run_suite(parallel=2)`` at top level."""
    script = tmp_path / "unguarded.py"
    script.write_text("from conftest import tiny_config\n"
                      "from cartal.experiment import prepare_context, run_suite\n"
                      "suite = run_suite(tiny_config(), prepare_context(tiny_config()), parallel=2)\n"
                      "print(len(suite.results), len(suite.failures))\n")
    src = os.path.dirname(os.path.dirname(exp.__file__))
    path = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["4", "0"]


@pytest.mark.parametrize("parallel", [0, -1])
def test_parallel_below_one_is_rejected(ctx, parallel):
    config, context = ctx
    with pytest.raises(ValueError, match=f"parallel must be >= 1, got {parallel}"):
        run_suite(config, context, parallel=parallel)


def test_lockstep_suite_matches_separate_runs(ctx, suite):
    config, context = ctx
    for r in suite.results:
        alone = run_al(config, r.strategy, r.seed, context)
        assert r.round_logs == alone.round_logs
        assert r.profile == alone.profile
        assert r.final_model.history == alone.final_model.history
        for (W1, b1), (W2, b2) in zip(r.final_model.weights, alone.final_model.weights):
            assert (W1 == W2).all() and (b1 == b2).all()


def test_difficulty_split_matches_separate_fits(ctx):
    config, context = ctx
    cfg = ExperimentConfig(**{**config.__dict__, "difficulty_n": 8, "difficulty_combos": ("EM", "EMHI")})
    pool, val = context.data.pool, context.data.val
    ccfg = cfg.classifier_config(pool.feature_dim, pool.num_classes)
    [em, _] = run_difficulty_split(cfg, context)
    accs = []
    for seed in cfg.seeds:
        rows = build_difficulty_split(context.pool_datamap, "EM", 8,
                                      exp.derive_seed(cfg.data_seed, "split-sample", "EM", seed))
        model = fit(ccfg, (pool.X[rows], pool.y[rows]), cfg.training,
                    exp.derive_seed(cfg.data_seed, "split-fit", "EM", seed), val=(val.X, val.y))
        accs.append(model.accuracy(val.X, val.y))
    assert em.accuracies["val"] == (float(np.mean(accs)), float(np.std(accs)), len(accs))


# --- ablation -----------------------------------------------------------------------

def test_ablation_fraction_zero_is_identity(ctx):
    config, context = ctx
    small = ExperimentConfig(**{**config.__dict__, "strategies": ("random",), "seeds": (1,),
                                "ablation_fraction": 0.0})
    plain = run_suite(small, context)
    ablated, _ = run_ablated_suite(small, context)
    assert [r.round_logs for r in plain.results] == [r.round_logs for r in ablated.results]
    assert plain.summaries == ablated.summaries


def test_ablation_filters_per_source(ctx):
    config, context = ctx
    cfg = ExperimentConfig(**{**config.__dict__, "ablation_fraction": 0.25,
                              "strategies": ("random",), "seeds": (1,)})
    _, ablated_ctx = run_ablated_suite(cfg, context)
    pool = context.data.pool
    filtered = ablated_ctx.data.pool
    per_source_before = {}
    for e in pool.examples:
        per_source_before[e.source] = per_source_before.get(e.source, 0) + 1
    per_source_after = {}
    for e in filtered.examples:
        per_source_after[e.source] = per_source_after.get(e.source, 0) + 1
    for src, n in per_source_before.items():
        assert per_source_after[src] == n - math.floor(0.25 * n)


@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.3])
def test_ablated_size_is_the_ablated_pool_length(ctx, fraction):
    config, context = ctx
    cfg = replace(config, ablation_fraction=fraction, strategies=("random",), seeds=(1,))
    _, ablated_ctx = run_ablated_suite(cfg, context)
    assert ablated_size(context.data.pool, fraction) == len(ablated_ctx.data.pool)


def _without_tokens(ds, rows):
    """``ds`` with no tokens on ``rows``."""
    lengths = np.diff(ds.token_indptr)
    keep = np.ones(len(ds), dtype=bool)
    keep[rows] = False
    return Dataset(ds.name, ds.num_classes, ids=ds.ids, X=ds.X, y=ds.y, flipped=ds.flipped,
                   source_codes=ds.source_codes, source_names=ds.source_names,
                   token_indptr=np.concatenate(([0], np.cumsum(lengths * keep))),
                   token_indices=ds.token_indices[np.repeat(keep, lengths)], vocab=ds.vocab)


def test_tokenless_pool_rows_are_reported_once_per_suite(ctx, caplog):
    """The count was logged by every profiling call, 55 times for a quickstart run."""
    config, context = ctx
    pool = context.data.pool
    bare = np.arange(0, len(pool), 10)
    tokenless = replace(context, data=replace(context.data, pool=_without_tokens(pool, bare)))
    caplog.set_level(logging.WARNING, logger="cartal")
    run_suite(config, context)
    assert not caplog.records
    run_suite(config, tokenless)
    _, ablated = run_ablated_suite(config, tokenless)
    kept = np.count_nonzero(np.isin(ablated.data.pool.ids, pool.ids[bare]))
    assert 0 < kept < len(bare)
    assert [r.getMessage() for r in caplog.records] == [
        f"{n} {name} examples carry no tokens; they do not affect input diversity"
        for n, name in ((len(bare), "pool"), (kept, "pool-ablated"))]


# --- acquisition history ------------------------------------------------------------------

@pytest.fixture(scope="module")
def quickstart():
    config = parse_config(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "quickstart.json"))
    return config, prepare_context(config)


def _assert_history_matches_ids(config, pool, results):
    """Each run's ``acquired_round`` array against the id tuples and counts of its logs."""
    assert len(results) == len(config.strategies) * len(config.seeds)
    for r in results:
        rounds = r.acquired_round
        assert rounds.dtype == np.int32 and rounds.shape == (len(pool),)
        assert np.count_nonzero(rounds == 0) == config.seed_size
        assert [log.round for log in r.round_logs] == list(range(1, config.rounds + 1))
        assert rounds.min() >= -1 and rounds.max() == config.rounds
        for log in r.round_logs:
            batch = rounds == log.round
            assert pool.ids[batch].tolist() == list(log.acquired_ids)
            assert np.count_nonzero((rounds >= 0) & (rounds <= log.round)) == log.labelled_size
            sources = Counter(pool.source_names[c] for c in pool.source_codes[batch].tolist())
            assert sources == Counter({s: n for s, n in log.per_source_counts.items() if n})
        assert pool.ids[rounds >= 0].tolist() == list(r.labelled_ids)


@pytest.fixture(scope="module")
def quickstart_suite(quickstart):
    config, context = quickstart
    return run_suite(config, context)


def test_acquired_round_matches_the_logged_ids_sequential_and_parallel(quickstart, quickstart_suite):
    config, context = quickstart
    sequential = quickstart_suite
    parallel = run_suite(config, context, parallel=2)
    for suite in (sequential, parallel):
        assert not suite.failures
        _assert_history_matches_ids(config, context.data.pool, suite.results)
    for a, b in zip(sequential.results, parallel.results):
        assert a.acquired_round.tobytes() == b.acquired_round.tobytes()


def test_round_profile_is_of_its_batch_against_the_rows_left_after_it(quickstart, quickstart_suite):
    config, context = quickstart
    pool = context.data.pool
    assert not quickstart_suite.failures
    for r in quickstart_suite.results:
        for log in r.round_logs:
            batch = r.acquired_round == log.round
            rest = (r.acquired_round < 0) | (r.acquired_round > log.round)
            assert np.count_nonzero(batch) == config.k and np.count_nonzero(rest)
            assert log.profile.input_diversity == input_diversity(tokens_of(pool, batch), tokens_of(pool, rest))
            probs = context.reference_model.predict_proba(pool.X[batch])
            assert log.profile.output_uncertainty == pytest.approx(entr(probs).sum(axis=1).mean(), rel=1e-12)
            counts = np.bincount(pool.y[batch], minlength=pool.num_classes)
            assert log.profile.class_distribution == pytest.approx(tuple(counts / config.k), rel=1e-12)


def test_acquired_round_matches_the_logged_ids_of_an_ablated_suite(quickstart):
    config, context = quickstart
    suite, ablated = run_ablated_suite(config, context)
    pool = ablated.data.pool
    assert (pool.ids != np.arange(len(pool))).any()  # its ids are not its rows
    assert not suite.failures
    _assert_history_matches_ids(config, pool, suite.results)


# --- difficulty splits -----------------------------------------------------------------

def test_difficulty_split_runs_all_combos(ctx):
    config, context = ctx
    cfg = ExperimentConfig(**{**config.__dict__, "difficulty_n": 8, "seeds": (1,),
                              "difficulty_combos": ("EM", "EMHI")})
    summaries = run_difficulty_split(cfg, context)
    assert [s.strategy for s in summaries] == ["EM", "EMHI"]


def test_difficulty_split_requires_n(ctx):
    config, context = ctx
    with pytest.raises(ConfigError):
        run_difficulty_split(config, context)


# --- stratified -------------------------------------------------------------------------

def test_random_over_easy_pool_acquires_mostly_easy():
    from cartal.cartography import acquisition_by_difficulty
    from conftest import three_source_specs

    config = tiny_config(
        synthetic_sources=tuple(three_source_specs(n=150, flip=0.0, scale=5.0)),
        strategies=("random",), seeds=(1,), rounds=3, k=20,
    )
    context = prepare_context(config)
    composition = {}
    for code in context.pool_datamap.difficulty.tolist():
        composition[DIFFICULTIES[code]] = composition.get(DIFFICULTIES[code], 0) + 1
    assert composition.get("easy", 0) > len(context.data.pool) / 2
    result = run_al(config, "random", 1, context)
    for counts in acquisition_by_difficulty([log.acquired_ids for log in result.round_logs],
                                            context.pool_datamap):
        assert counts["easy"] == max(counts.values())


def test_score_dump_written_for_scored_strategies(tmp_path, ctx):
    config, context = ctx
    result = run_al(replace(config, dump_scores=True), "mcme", 1, context)
    write_suite_artifacts(SuiteResult([], [result], []), context, tmp_path)
    files = sorted(p.name for p in (tmp_path / "scores").iterdir())
    assert files == [f"mcme_seed1_round{r}.csv" for r in range(1, config.rounds + 1)]
    header = (tmp_path / "scores" / files[0]).read_text().splitlines()[0]
    assert header == "id,source,score"


def test_stratified_rows_cover_models_and_test_sets(ctx, suite):
    config, context = ctx
    models = {(r.strategy, r.seed): r.final_model for r in suite.results[:2]}
    rows = run_stratified(config, context.data, models)
    assert rows
    keys = {(r["strategy"], r["seed"]) for r in rows}
    assert keys == set(models)
    for r in rows:
        assert r["test_set"] == "clean"
        assert 0.0 <= r["accuracy"] <= 1.0


# --- writers ------------------------------------------------------------------------------

def test_csv_writers_shape(tmp_path, ctx, suite):
    config, context = ctx
    rounds_path = tmp_path / "rounds.csv"
    write_rounds_csv(suite.results, context.data.pool, rounds_path)
    lines = rounds_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(suite.results) * config.rounds
    header = lines[0].split(",")
    assert header[:5] == ["strategy", "seed", "round", "labelled_size", "val_acc"]
    assert "acquired_alpha" in header and "factor_gamma" in header

    summary_path = tmp_path / "summary.csv"
    write_summary_csv(suite.summaries, summary_path)
    lines = summary_path.read_text().strip().splitlines()
    assert lines[0] == "strategy,test_set,mean,std,runs"
    assert len(lines) == 1 + len(suite.summaries) * (1 + len(config.test_sets))


@pytest.mark.parametrize("strategy", ["mcme", "dal"])
def test_score_dump_scores_once_per_round_and_keeps_rounds(tmp_path, ctx, monkeypatch, strategy):
    config, context = ctx
    plain = run_al(config, strategy, 1, context)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return score_pool(*args, **kwargs)

    monkeypatch.setattr(acquisition, "score_pool", counting)
    dumped = run_al(replace(config, dump_scores=True), strategy, 1, context)
    assert calls == [strategy] * config.rounds
    write_suite_artifacts(SuiteResult([], [dumped], []), context, tmp_path)
    write_rounds_csv([plain], context.data.pool, tmp_path / "plain.csv")
    write_rounds_csv([dumped], context.data.pool, tmp_path / "dumped.csv")
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "dumped.csv").read_bytes()
    first = (tmp_path / "scores" / f"{strategy}_seed1_round1.csv").read_text().splitlines()
    assert len(first) == 1 + len(context.data.pool) - config.seed_size
    assert plain.round_logs == dumped.round_logs  # the scores are no part of a round log's value
    assert [log.scores is None for log in plain.round_logs] == [True] * config.rounds


def test_a_score_dump_that_does_not_match_its_rows_is_refused(tmp_path, ctx):
    config, context = ctx
    result = run_al(replace(config, dump_scores=True), "mcme", 1, context)
    last = result.round_logs[-1]
    result.round_logs[-1] = replace(last, scores=last.scores[:-1])
    with pytest.raises(ValueError, match=f"mcme/seed 1 round {last.round}: "):
        write_suite_artifacts(SuiteResult([], [result], []), context, tmp_path)
