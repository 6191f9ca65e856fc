"""Full active-learning runs: the multi-round loop, multi-seed suites, the
outlier-ablation variant, and difficulty-split training.

Seeding scheme: every run derives run_seed from (strategy, seed); each round
derives its fit/selection/MC seeds from (run_seed, round). No global RNG state
is touched, so runs are independent and reproducible in any execution order,
including across worker processes.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import shutil
import signal
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

# perfbench's tracer wraps the functions imported here by name, in this module,
# and score_pool where _al_round looks it up, in the acquisition module
from . import acquisition, artifacts, blas, heap
from . import classifier as clf
from .acquisition import DEFAULT_MC_SAMPLES, STRATEGIES, DalConfig, select_batch
from .cartography import (
    Datamap,
    DifficultyThresholds,
    _normalize_combo,
    ablate_hard_to_learn,
    build_difficulty_split,
    run_cartography_full,
    write_datamap_csv,
)
from .errors import CapacityError, ConfigError, SchemaError
from .metrics import (
    acquisition_factor,
    class_distribution,
    input_diversity,
    output_uncertainty,
    stratified_accuracy,
    tokens_of,
)
from .pool import (
    Dataset,
    SyntheticSourceSpec,
    build_multi_source_pool,
    concat_datasets,
    generate_synthetic_source,
    load_dataset,
    seed_split,
    split_dataset,
    transfer,
)
from .artifacts import write_table
from .seeding import derive_seed

logger = logging.getLogger(__name__)

__all__ = [
    "ExperimentConfig",
    "TestSetSpec",
    "ExperimentData",
    "RunContext",
    "RoundLog",
    "RunResult",
    "RunSummary",
    "RunFailure",
    "SuiteResult",
    "cartography_defaults",
    "build_experiment_data",
    "check_capacity",
    "parallel_error",
    "prepare_context",
    "run_al",
    "run_suite",
    "run_ablated_suite",
    "run_difficulty_split",
    "run_stratified",
    "write_suite_artifacts",
]


@dataclass(frozen=True)
class TestSetSpec:
    """A named test set: synthetic sources to generate, or files to load."""

    name: str
    synthetic_sources: tuple[SyntheticSourceSpec, ...] = ()
    files: tuple[str, ...] = ()

    def __post_init__(self):
        _check_sources(self.synthetic_sources, self.files, None)


def _require_unique(values, key: str) -> None:
    """Reject a config list that repeats an entry: each entry names one run, file,
    source or test set, and a repeat would silently double or hide it."""
    repeated = [v for v, n in Counter(values).items() if n > 1]
    if repeated:
        raise ConfigError(f"repeated entries: {', '.join(map(str, repeated))}", key=key)


def _check_sources(synthetic, files, key: str | None) -> None:
    """Reject a set of sources, the data section's (``key`` "data") or a test
    set's (``key`` None), that repeats a source name or a file, or that is not
    exactly one of synthetic sources and files: of both, only the synthetic
    sources would be read."""
    where = f"{key}." if key else ""
    _require_unique([s.name for s in synthetic], where + "synthetic_sources")
    _require_unique(files, where + "files")
    if bool(synthetic) == bool(files):
        raise ConfigError("set synthetic_sources or files, not both" if files
                          else "set synthetic_sources or files", key=key)


def cartography_defaults(training: clf.TrainConfig) -> clf.TrainConfig:
    """The cartography fit when none is configured: the AL fit's learning
    rate, batch size and snapshot interval, 6 epochs with patience 6."""
    return clf.TrainConfig(learning_rate=training.learning_rate, batch_size=training.batch_size,
                           max_epochs=6, patience=6, eval_interval=training.eval_interval)


@dataclass(frozen=True)
class ExperimentConfig:
    # data
    synthetic_sources: tuple[SyntheticSourceSpec, ...] = ()
    source_files: tuple[str, ...] = ()
    per_source_cap: int = 20000
    val_fraction: float = 0.1
    data_seed: int = 11
    test_sets: tuple[TestSetSpec, ...] = ()
    # AL loop
    seed_size: int = 500
    k: int = 500
    rounds: int = 7
    strategies: tuple[str, ...] = STRATEGIES
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    # models
    hidden_dims: tuple[int, ...] = clf.ClassifierConfig.hidden_dims
    dropout_rate: float = clf.ClassifierConfig.dropout_rate
    activation: str = clf.ClassifierConfig.activation
    training: clf.TrainConfig = field(default_factory=clf.TrainConfig)
    cartography_training: clf.TrainConfig | None = None  # None: cartography_defaults(training)
    mc_samples: int = DEFAULT_MC_SAMPLES
    dal: DalConfig = field(default_factory=DalConfig)
    # diagnostics
    thresholds: DifficultyThresholds = field(default_factory=DifficultyThresholds)
    ablation_fraction: float = 0.25
    difficulty_combos: tuple[str, ...] = ("EM", "EMH", "MH", "HI", "EMHI")
    difficulty_n: int | None = None
    dump_scores: bool = False

    def __post_init__(self):
        if self.cartography_training is None:
            object.__setattr__(self, "cartography_training", cartography_defaults(self.training))
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1", key="al.rounds")
        if self.k < 1:
            raise ConfigError("k must be >= 1", key="al.k")
        if self.seed_size < 1:  # the first round's fit needs a labelled example
            raise ConfigError("must be >= 1", key="al.seed_size")
        if not self.seeds:
            raise ConfigError("need at least one seed", key="al.seeds")
        if not self.strategies:
            raise ConfigError("need at least one strategy", key="al.strategies")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be >= 1", key="al.mc_samples")
        if self.mc_samples < 2 and "bald" in self.strategies:
            raise ConfigError("BALD needs mc_samples >= 2", key="al.mc_samples")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {s!r}; valid: {', '.join(STRATEGIES)}", key="al.strategies"
                )
        _require_unique(self.strategies, "al.strategies")
        _require_unique(self.seeds, "al.seeds")
        _check_sources(self.synthetic_sources, self.source_files, "data")
        _require_unique([t.name for t in self.test_sets], "test_sets")
        try:
            self.classifier_config(1, 2)
        except ConfigError as exc:  # keyed by field: prefix the section
            raise ConfigError(exc.reason, key=f"classifier.{exc.key}") from exc
        if self.per_source_cap < 1:
            raise ConfigError("must be >= 1", key="data.per_source_cap")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("must lie in [0, 1)", key="data.val_fraction")
        if not 0.0 <= self.ablation_fraction < 1.0:
            raise ConfigError("must lie in [0, 1)", key="ablation.fraction")
        if not self.difficulty_combos:
            raise ConfigError("need at least one combo", key="difficulty_split.combos")
        seen = {}  # class set -> the combo that named it first
        for combo in self.difficulty_combos:
            try:
                classes = frozenset(_normalize_combo(combo))
            except ValueError as exc:
                raise ConfigError(str(exc), key="difficulty_split.combos") from exc
            if classes in seen:
                raise ConfigError(f"{combo!r} names the classes of {seen[classes]!r}",
                                  key="difficulty_split.combos")
            seen[classes] = combo
            if self.difficulty_n is not None and (self.difficulty_n < 1 or self.difficulty_n % len(classes)):
                raise ConfigError(f"must be >= 1 and divisible by the {len(classes)} classes of combo "
                                  f"{combo!r}, got {self.difficulty_n}", key="difficulty_split.n")

    def classifier_config(self, input_dim: int, num_classes: int) -> clf.ClassifierConfig:
        return clf.ClassifierConfig(input_dim, self.hidden_dims, num_classes, self.dropout_rate,
                                    self.activation)


@dataclass
class ExperimentData:
    pool: Dataset
    val: Dataset
    tests: dict[str, Dataset]


@dataclass
class RunContext:
    """Shared per-suite state: data plus the full-pool cartography artifacts."""

    data: ExperimentData
    reference_model: clf.Classifier
    pool_datamap: Datamap


@dataclass(frozen=True)
class RunProfile:
    """Acquisition profile of a set of pool examples: a round's batch, or a
    run's final labelled set."""

    input_diversity: float
    output_uncertainty: float
    class_distribution: tuple[float, ...]


@dataclass(frozen=True)
class RoundLog:
    """One round of one run, whose :class:`RunResult` holds the strategy and seed:
    the batch it acquired, its profile, the val accuracy of the model that chose it
    and, with dump_scores, the scores of its unlabelled rows."""

    round: int
    acquired_ids: tuple[int, ...]  # perfbench's checks read it
    per_source_counts: dict[str, int]
    profile: RunProfile
    acquisition_factor: dict[str, float]
    val_accuracy: float
    labelled_size: int
    scores: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class RunResult:
    strategy: str
    seed: int
    round_logs: list[RoundLog]
    final_model: clf.Classifier
    final_val_accuracy: float
    test_accuracies: dict[str, float]
    profile: RunProfile
    acquired_round: np.ndarray  # per pool row: -1 unlabelled, 0 seed set, r acquired at round r
    labelled_ids: tuple[int, ...]  # perfbench's checks read it


@dataclass(frozen=True)
class RunSummary:
    strategy: str
    accuracies: dict[str, tuple[float, float, int]]  # test set -> (mean, std, runs)


@dataclass(frozen=True)
class RunFailure:
    strategy: str
    seed: int
    error: str


@dataclass
class SuiteResult:
    summaries: list[RunSummary]
    results: list[RunResult]
    failures: list[RunFailure]


def _sources(synthetic, files, data_seed, *tag):
    """The synthetic sources, each generated as it is iterated and seeded by
    ``tag`` and its name, or the loaded files, every one given the largest
    class count among them (a small file's labels may never reach the last class).
    A file that holds no records is a :class:`SchemaError` naming it."""
    if synthetic:
        return (generate_synthetic_source(s, derive_seed(data_seed, *tag, s.name)) for s in synthetic)
    sources = [load_dataset(path) for path in files]
    if empty := [path for path, s in zip(files, sources) if not len(s)]:
        raise SchemaError(f"{empty[0]}: holds no records")
    C = max(s.num_classes for s in sources)
    for s in sources:
        s.num_classes = C  # labels below a file's own count lie below C too
    return sources


def build_experiment_data(config: ExperimentConfig) -> ExperimentData:
    """Generate/load sources, hold out validation per source, build the pool.

    Validation is held out from each source *before* pooling and never enters
    the unlabelled pool.
    """
    rests, helds = [], []
    for src in _sources(config.synthetic_sources, config.source_files, config.data_seed, "source"):
        rest, held = split_dataset(
            src, config.val_fraction, derive_seed(config.data_seed, "val", src.name)
        )
        rests.append(rest)
        helds.append(held)
        del src  # a generated source is gone before the next one is drawn
    pool = build_multi_source_pool(
        rests, config.per_source_cap, derive_seed(config.data_seed, "pool")
    )
    val = concat_datasets(helds, "val")
    tests = {t.name: concat_datasets(_sources(t.synthetic_sources, t.files, config.data_seed,
                                              "test", t.name), t.name)
             for t in config.test_sets}
    for name, test in tests.items():  # before any fit: models of the pool's shape score each test set
        if test.feature_dim != pool.feature_dim:
            raise SchemaError(f"test set {name!r} has feature dim {test.feature_dim}, "
                              f"the pool {pool.feature_dim}")
        if test.num_classes > pool.num_classes:
            raise SchemaError(f"test set {name!r} has {test.num_classes} classes, "
                              f"more than the pool's {pool.num_classes}")
    return ExperimentData(pool=pool, val=val, tests=tests)


def _cartography(config: ExperimentConfig, dataset: Dataset, val: Dataset, *tag):
    """The cartography fit over ``dataset``, seeded by ``tag``."""
    ccfg = config.classifier_config(dataset.feature_dim, dataset.num_classes)
    return run_cartography_full(dataset, ccfg, config.cartography_training,
                                derive_seed(config.data_seed, *tag), (val.X, val.y), config.thresholds)


def prepare_context(config: ExperimentConfig, data: ExperimentData | None = None) -> RunContext:
    """Build the shared cartography model + datamap over the full pool."""
    data = data or build_experiment_data(config)
    result = _cartography(config, data.pool, data.val, "cartography")
    return RunContext(data=data, reference_model=result.model, pool_datamap=result.entries)


@dataclass
class _Run:
    """One AL run while a lockstep group advances it round by round."""

    strategy: str
    seed: int
    run_seed: int
    acquired_round: np.ndarray | None = None
    round_logs: list[RoundLog] = field(default_factory=list)
    result: RunResult | None = None
    error: Exception | None = None


def check_capacity(config: ExperimentConfig, pool_size: int) -> None:
    """Fail before any run starts: every run of a suite acquires the same count."""
    needed = config.seed_size + config.rounds * config.k
    if needed > pool_size:
        exhaust_round = max(0, (pool_size - config.seed_size) // config.k) + 1
        raise CapacityError(
            f"pool of {pool_size} exhausted at round {exhaust_round}: "
            f"need {needed} for {config.rounds} rounds of k={config.k} from seed {config.seed_size}"
        )


def parallel_error(parallel: int) -> str | None:
    """Why a suite cannot run in ``parallel`` worker processes here; None if it can."""
    if parallel < 1:
        return f"must be >= 1, got {parallel}"
    if parallel > 1 and "fork" not in multiprocessing.get_all_start_methods():
        return "needs the fork start method, which this platform lacks"
    return None


def _val_accuracy(model: clf.Classifier) -> float:
    """Val accuracy of a fit's returned weights, as its history recorded it;
    NaN without a val set."""
    acc = model.history["best_val_accuracy"]
    return float("nan") if acc is None else acc


def _profile(context: RunContext, rows, rest) -> RunProfile:
    """Profile the pool examples at ``rows`` against the unlabelled ``rest``,
    each positions or a boolean mask.

    The metric functions are looked up in this module, where perfbench's
    tracer patches them.
    """
    pool = context.data.pool
    return RunProfile(
        input_diversity=input_diversity(tokens_of(pool, rows), tokens_of(pool, rest)),
        output_uncertainty=output_uncertainty(context.reference_model, pool.X[rows]),
        class_distribution=class_distribution(pool.y[rows], pool.num_classes),
    )


def _al_round(config: ExperimentConfig, run: _Run, model: clf.Classifier, rnd: int,
              context: RunContext) -> None:
    """One run's round after its fit: score, select, transfer, profile."""
    pool = context.data.pool
    val_acc = _val_accuracy(model)
    unlabelled = np.flatnonzero(run.acquired_round < 0)

    select_seed = derive_seed(run.run_seed, rnd, "select")
    scores = acquisition.score_pool(run.strategy, pool.X, unlabelled, model, select_seed,
                                    mc_samples=config.mc_samples, dal_cfg=config.dal)
    picked = select_batch(run.strategy, unlabelled, scores, config.k, select_seed)
    transfer(run.acquired_round, picked, rnd)
    counts = pool.source_counts(picked)
    run.round_logs.append(
        RoundLog(
            round=rnd,
            acquired_ids=tuple(pool.ids[picked].tolist()),
            per_source_counts=counts,
            profile=_profile(context, picked, run.acquired_round < 0),
            acquisition_factor=acquisition_factor(pool, picked, unlabelled, counts),
            val_accuracy=val_acc,
            labelled_size=int(np.count_nonzero(run.acquired_round >= 0)),
            scores=scores if config.dump_scores else None,
        )
    )
    logger.info("%s/seed %s round %d: val_acc=%.4f", run.strategy, run.seed, rnd, val_acc)


def _finish_run(config: ExperimentConfig, run: _Run, final_model: clf.Classifier,
                context: RunContext) -> None:
    """Evaluate a run's final refit everywhere and profile its labelled set."""
    pool, tests = context.data.pool, context.data.tests
    labelled = run.acquired_round >= 0
    run.result = RunResult(
        strategy=run.strategy,
        seed=run.seed,
        round_logs=run.round_logs,
        final_model=final_model,
        final_val_accuracy=_val_accuracy(final_model),
        test_accuracies={name: final_model.accuracy(ds.X, ds.y) for name, ds in tests.items()},
        profile=_profile(context, labelled, ~labelled),
        acquired_round=run.acquired_round,
        labelled_ids=tuple(pool.ids[labelled].tolist()),
    )


def _fit_live(config: ExperimentConfig, runs: list[_Run], context: RunContext, *tag) -> list:
    """One lockstep fit over the labelled sets of the runs still live."""
    pool, val = context.data.pool, context.data.val
    rows = np.stack([np.flatnonzero(run.acquired_round >= 0) for run in runs])
    seeds = [derive_seed(run.run_seed, *tag) for run in runs]
    ccfg = config.classifier_config(pool.feature_dim, pool.num_classes)
    try:
        return clf.fit_many(ccfg, pool.X[rows], pool.y[rows], config.training, seeds, (val.X, val.y))
    except Exception as exc:  # an error of the shared fit fails every run alike
        return [exc] * len(runs)


def _run_lockstep(config: ExperimentConfig, specs, context: RunContext) -> list[_Run]:
    """Run the (strategy, seed) runs of ``specs`` round-synchronously.

    At a given round every run holds the same number of labelled examples,
    so each round trains all live runs with one :func:`classifier.fit_many`
    call, then selects, profiles and transfers run by run. A run that raises
    records its error and drops out; the others go on.
    """
    pool = context.data.pool
    runs = [_Run(strategy, seed, derive_seed("run", strategy, seed)) for strategy, seed in specs]
    for run in runs:  # each from its seed split; the caller checked the pool's capacity
        run.acquired_round = seed_split(pool, config.seed_size, derive_seed(run.run_seed, "split"))
    for rnd in (*range(1, config.rounds + 1), None):  # None: the final refit
        live = [run for run in runs if run.error is None]
        if not live:
            break
        tag = ("final",) if rnd is None else (rnd, "fit")
        for run, outcome in zip(live, _fit_live(config, live, context, *tag)):
            try:  # a suite must survive the failure of one run
                if isinstance(outcome, Exception):
                    # stored, never raised again: one exception may be the outcome of
                    # every run of a fit, and each raise would grow its shared traceback
                    run.error = outcome
                elif rnd is None:
                    _finish_run(config, run, outcome, context)
                else:
                    _al_round(config, run, outcome, rnd, context)
            except Exception as exc:
                run.error = exc
    return runs


def run_al(config: ExperimentConfig, strategy: str, seed: int, context: RunContext) -> RunResult:
    """One full AL run: per-round fit / select / transfer, then a final refit.

    The final model is refit from scratch on the complete labelled set after
    the last transfer and evaluated on the validation set and every test set.
    This is the suite's lockstep path with a single run; its error is raised.
    ``run_suite`` does not go through it; perfbench's tracer wraps it by this name.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")
    check_capacity(config, len(context.data.pool))
    [run] = _run_lockstep(config, [(strategy, seed)], context)
    if run.error is not None:
        raise run.error
    return run.result


def _run_group(config: ExperimentConfig, specs, context: RunContext) -> list:
    """A lockstep group's outcome per run: its RunResult or its RunFailure."""
    out = []
    for run in _run_lockstep(config, specs, context):
        if run.error is None:
            out.append(run.result)
        else:
            logger.error("run %s/seed %s failed: %s", run.strategy, run.seed, run.error,
                         exc_info=run.error)
            out.append(RunFailure(run.strategy, run.seed, f"{type(run.error).__name__}: {run.error}"))
    return out


def _summary(name: str, names, accuracies: list[dict[str, float]]) -> RunSummary:
    """Mean, std and count over runs of each of ``names`` in the runs'
    ``accuracies``; NaN, NaN, 0 where there are no runs."""
    acc = {}
    for key in names:
        v = np.array([a[key] for a in accuracies])
        if len(v):
            acc[key] = (float(v.mean()), float(v.std()), len(v))
        else:
            acc[key] = (float("nan"), float("nan"), 0)
    return RunSummary(strategy=name, accuracies=acc)


def _aggregate(config: ExperimentConfig, results: list[RunResult]) -> list[RunSummary]:
    names = ["val"] + [t.name for t in config.test_sets]
    return [_summary(strategy, names, [{"val": r.final_val_accuracy, **r.test_accuracies}
                                       for r in results if r.strategy == strategy])
            for strategy in config.strategies]


def _work(conn, *group) -> None:
    """A forked worker: send :func:`_run_group`'s outcome. It ignores SIGINT,
    which the parent handles by killing it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    conn.send(_run_group(*group))


def _run_groups(config: ExperimentConfig, groups, context: RunContext) -> list[list]:
    """Run each lockstep group of ``groups`` in a forked worker process of its
    own, which inherits the context, the parent's log handlers and its one
    BLAS thread (:mod:`cartal.blas`; OpenBLAS shuts its idle thread down
    around a fork). A group whose worker dies becomes one :class:`RunFailure`
    per run it held; the other groups complete. No worker outlives the call,
    not even on an interrupt."""
    fork = multiprocessing.get_context("fork")
    workers = []
    try:
        for specs in groups:  # all start before any result is read
            recv, send = fork.Pipe(duplex=False)
            worker = fork.Process(target=_work, args=(send, config, specs, context))
            worker.start()
            send.close()  # before the next fork: the worker holds the only write end
            workers.append((worker, recv))
        outcomes = []
        for (worker, recv), specs in zip(workers, groups):
            with recv:
                try:
                    outcomes.append(recv.recv())
                except EOFError:  # the worker exited without sending
                    worker.join()
                    code, names = worker.exitcode, {s.value: s.name for s in signal.Signals}
                    died = f"signal {names.get(-code, -code)}" if code < 0 else f"exit code {code}"
                    logger.error("worker of runs %s died: %s", specs, died)
                    outcomes.append([RunFailure(s, sd, f"WorkerDied: {died}") for s, sd in specs])
        return outcomes
    finally:  # also on an interrupt or an error; a worker that sent its outcome is exiting anyway
        for worker, _ in workers:
            worker.kill()
            worker.join()


def run_suite(config: ExperimentConfig, context: RunContext, parallel: int = 1) -> SuiteResult:
    """Cross-product of strategies x seeds over the pool of ``context`` (see
    :func:`prepare_context`); run failures are recorded, not fatal.

    The runs advance in lockstep (see :func:`_run_lockstep`). With
    ``parallel`` P > 1 they are dealt round-robin into P lockstep groups,
    one forked worker process each (see :func:`_run_groups`), which needs the
    ``fork`` start method (POSIX) but no ``if __name__ == "__main__":`` guard
    in the caller; the outcome is the same bytes in the same order.
    Before any run starts, one warning counts the pool rows without tokens.
    """
    if problem := parallel_error(parallel):
        raise ValueError(f"parallel {problem}")
    pool = context.data.pool
    check_capacity(config, len(pool))
    if tokenless := np.count_nonzero(np.diff(pool.token_indptr) == 0):
        logger.warning("%d %s examples carry no tokens; they do not affect input diversity", tokenless, pool.name)
    specs = [(s, sd) for s in config.strategies for sd in config.seeds]
    n = min(parallel, len(specs))
    groups = [specs[g::n] for g in range(n)]
    outcomes = [None] * len(specs)
    for g, part in enumerate(_run_groups(config, groups, context) if n > 1
                             else [_run_group(config, specs, context)]):
        outcomes[g::n] = part

    results = [o for o in outcomes if isinstance(o, RunResult)]
    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    return SuiteResult(_aggregate(config, results), results, failures)


def run_ablated_suite(config: ExperimentConfig, context: RunContext,
                      parallel: int = 1) -> tuple[SuiteResult, RunContext]:
    """Filter the pool's per-source bottom conf*var fraction, then run a suite.

    The full-pool cartography model/datamap are reused as the uncertainty
    reference and difficulty authority for the ablated runs, which dump no scores.
    """
    pool = context.data.pool
    retained = ablate_hard_to_learn(context.pool_datamap, pool, config.ablation_fraction)
    filtered = pool.take(retained, name="pool-ablated")
    logger.info("ablation keeps %d of %d pool examples", len(filtered), len(pool))
    ablated_ctx = replace(context, data=replace(context.data, pool=filtered))
    return run_suite(replace(config, dump_scores=False), ablated_ctx, parallel), ablated_ctx


def run_difficulty_split(config: ExperimentConfig, context: RunContext) -> list[RunSummary]:
    """Train once per difficulty combo and seed (no AL loop), evaluate everywhere.

    Every combo x seed split holds ``difficulty_n`` examples, so all of them
    train in one lockstep :func:`classifier.fit_many` call.
    """
    if config.difficulty_n is None:
        raise ConfigError("difficulty_n must be set for split experiments", key="difficulty_split.n")
    pool, val, tests = context.data.pool, context.data.val, context.data.tests
    ccfg = config.classifier_config(pool.feature_dim, pool.num_classes)

    combos = [(combo, seed) for combo in config.difficulty_combos for seed in config.seeds]
    rows = np.stack([
        build_difficulty_split(context.pool_datamap, combo, config.difficulty_n,
                               derive_seed(config.data_seed, "split-sample", combo, seed))
        for combo, seed in combos
    ])
    seeds = [derive_seed(config.data_seed, "split-fit", combo, seed) for combo, seed in combos]
    models = clf.fit_many(ccfg, pool.X[rows], pool.y[rows], config.training, seeds, (val.X, val.y))

    accuracies = []
    for model in models:
        if isinstance(model, Exception):
            raise model
        accuracies.append({"val": _val_accuracy(model),
                           **{name: model.accuracy(ds.X, ds.y) for name, ds in tests.items()}})
    S = len(config.seeds)
    return [_summary(combo, ["val", *tests], accuracies[c * S:(c + 1) * S])
            for c, combo in enumerate(config.difficulty_combos)]


def run_stratified(config: ExperimentConfig, data: ExperimentData,
                   models: dict[tuple[str, int], clf.Classifier]) -> list[dict]:
    """Difficulty-stratified test accuracy for a set of final models.

    A fresh cartography model is trained on each *test set* to classify its
    examples by difficulty; rows are (strategy, seed, test_set, difficulty,
    count, accuracy).
    """
    rows = []
    for name, test_ds in data.tests.items():
        # the 0 belongs to the tag that seeds this fit: without it the fit, and so
        # stratified.csv, would take other bytes
        carto = _cartography(config, test_ds, data.val, "stratify", name, 0)
        for (strategy, seed), model in sorted(models.items()):
            res = stratified_accuracy(model, test_ds, carto.entries)
            for difficulty in sorted(res.counts):
                rows.append({
                    "strategy": strategy,
                    "seed": seed,
                    "test_set": name,
                    "difficulty": difficulty,
                    "count": res.counts[difficulty],
                    "accuracy": res.accuracies[difficulty],
                })
    return rows


# ---------------------------------------------------------------------------
# artifact writing

def _profile_cells(profile: RunProfile) -> list[float]:
    return [profile.input_diversity, profile.output_uncertainty, *profile.class_distribution]


def write_rounds_csv(results: list[RunResult], pool: Dataset, path) -> None:
    sources = pool.source_names
    C = pool.num_classes
    header = (
        ["strategy", "seed", "round", "labelled_size", "val_acc"]
        + [f"acquired_{s}" for s in sources]
        + ["input_diversity", "output_uncertainty"]
        + [f"class_{c}" for c in range(C)]
        + [f"factor_{s}" for s in sources]
    )
    write_table(path, header, (
        [r.strategy, r.seed, log.round, log.labelled_size, log.val_accuracy]
        + [log.per_source_counts.get(s, 0) for s in sources]
        + _profile_cells(log.profile)
        + [log.acquisition_factor.get(s, 0.0) for s in sources]
        for r in results for log in r.round_logs
    ))


def write_summary_csv(summaries: list[RunSummary], path) -> None:
    write_table(path, ["strategy", "test_set", "mean", "std", "runs"], (
        [s.strategy, test_set, mean, std, n]
        for s in summaries for test_set, (mean, std, n) in s.accuracies.items()
    ))


def write_profile_csv(results: list[RunResult], num_classes: int, path) -> None:
    header = ["strategy", "seed", "input_diversity", "output_uncertainty"]
    header += [f"class_{c}" for c in range(num_classes)]
    write_table(path, header, ([r.strategy, r.seed, *_profile_cells(r.profile)] for r in results))


def write_stratified_csv(rows: list[dict], path) -> None:
    header = ["strategy", "seed", "test_set", "difficulty", "count", "accuracy"]
    write_table(path, header, ([row[key] for key in header] for row in rows))


def write_suite_artifacts(suite: SuiteResult, context: RunContext, out_dir,
                          prefix: str = "") -> None:
    """Write a suite's tables and model checkpoints, and remove the failures
    table and the checkpoints that its variant's last suite left and this one
    did not write. ``prefix`` names the variant (see :mod:`cartal.artifacts`),
    e.g. "ablated_" for the ablated suite; the unprefixed one also replaces scores/."""
    def path(table):
        return os.path.join(out_dir, artifacts.suite_table(table, prefix))

    os.makedirs(os.path.join(out_dir, artifacts.MODELS), exist_ok=True)
    write_rounds_csv(suite.results, context.data.pool, path("rounds"))
    write_summary_csv(suite.summaries, path("summary"))
    write_profile_csv(suite.results, context.data.pool.num_classes, path("profile"))
    if suite.failures:
        write_table(path("failures"), ["strategy", "seed", "error"],
                    ([f.strategy, f.seed, f.error] for f in suite.failures))
    else:
        artifacts.remove(path("failures"))
    written = {(prefix + r.strategy, r.seed) for r in suite.results}
    for r in suite.results:
        clf.save_checkpoint(r.final_model, artifacts.checkpoint(out_dir, prefix + r.strategy, r.seed))
    for key, stale in artifacts.checkpoints(out_dir, prefix).items():
        if key not in written:
            artifacts.remove(stale)
    if prefix:  # the ablated suite keeps no scores
        return
    pool, dumps = context.data.pool, os.path.join(out_dir, artifacts.SCORES)
    shutil.rmtree(dumps, ignore_errors=True)
    for r, log in ((r, log) for r in suite.results for log in r.round_logs if log.scores is not None):
        rows = np.flatnonzero((r.acquired_round < 0) | (r.acquired_round >= log.round))  # the rows it scored
        if len(rows) != len(log.scores):  # zip would drop the surplus silently
            raise ValueError(f"{r.strategy}/seed {r.seed} round {log.round}: "
                             f"{len(log.scores)} scores for {len(rows)} unlabelled rows")
        os.makedirs(dumps, exist_ok=True)
        sources = [pool.source_names[code] for code in pool.source_codes[rows].tolist()]
        write_table(artifacts.score_dump(out_dir, r.strategy, r.seed, log.round), ["id", "source", "score"],
                    zip(pool.ids[rows].tolist(), sources, log.scores.tolist()))


def write_manifest(out_dir, extra: dict | None = None, command: str = "run") -> None:
    """Record ``command``'s entry in the directory's manifest; the other
    commands' entries stay."""
    artifacts.record_command(out_dir, command, {
        "final_eval": "refit on the full labelled set after the last transfer",
        "created_unix": time.time(), "blas_threads": blas.threads(),
        "mmap_threshold": heap.mmap_threshold(), **(extra or {})})


def write_pool_datamap(context: RunContext, out_dir) -> None:
    write_datamap_csv(context.pool_datamap, context.data.pool, os.path.join(out_dir, artifacts.DATAMAP))
