"""Full active-learning runs: the multi-round loop, multi-seed suites, the
outlier-ablation variant, and difficulty-split training.

Seeding scheme: every run derives run_seed from (strategy, seed); each round
derives its fit/selection/MC seeds from (run_seed, round). No global RNG state
is touched, so runs are independent and reproducible in any execution order,
including across worker processes.
"""

from __future__ import annotations

import copy
import json
import logging
import multiprocessing
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

# perfbench's tracer wraps the functions imported here by name, in this module,
# and score_pool where _al_round looks it up, in the acquisition module
from . import acquisition
from . import classifier as clf
from .acquisition import DEFAULT_MC_SAMPLES, STRATEGIES, DalConfig, select_batch
from .cartography import (
    Datamap,
    DifficultyThresholds,
    ablate_hard_to_learn,
    build_difficulty_split,
    run_cartography_full,
    write_datamap_csv,
)
from .errors import CapacityError, ConfigError
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
    PoolState,
    SyntheticSourceSpec,
    build_multi_source_pool,
    concat_datasets,
    generate_synthetic_source,
    load_dataset,
    seed_split,
    split_dataset,
    transfer,
)
from .reporting import write_table
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
    file_format: str = "jsonl"

    def __post_init__(self):
        if not self.synthetic_sources and not self.files:
            raise ValueError("test set needs synthetic_sources or files")
        _require_unique([s.name for s in self.synthetic_sources], "synthetic_sources")
        _require_unique(self.files, "files")


def _require_unique(values, key: str) -> None:
    """Reject a config list that repeats an entry: each entry names one run, file,
    source or test set, and a repeat would silently double or hide it."""
    repeated = [v for v, n in Counter(values).items() if n > 1]
    if repeated:
        raise ConfigError(f"repeated entries: {', '.join(map(str, repeated))}", key=key)


def cartography_defaults(training: clf.TrainConfig) -> clf.TrainConfig:
    """The cartography fit when none is configured: the AL fit's learning
    rate and batch size, 6 epochs with patience 6."""
    return clf.TrainConfig(learning_rate=training.learning_rate, batch_size=training.batch_size,
                           max_epochs=6, patience=6)


@dataclass(frozen=True)
class ExperimentConfig:
    # data
    synthetic_sources: tuple[SyntheticSourceSpec, ...] = ()
    source_files: tuple[str, ...] = ()
    file_format: str = "jsonl"
    per_source_cap: int = 20000
    val_fraction: float = 0.1
    data_seed: int = 11
    test_sets: tuple[TestSetSpec, ...] = ()
    # AL loop
    seed_size: int = 500
    k: int = 500
    rounds: int = 7
    strategies: tuple[str, ...] = ("random", "mcme", "bald", "dal")
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    # models
    hidden_dims: tuple[int, ...] = (32, 32)
    dropout_rate: float = 0.3
    activation: str = "relu"
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
        if self.seed_size < 0:
            raise ConfigError("seed_size must be >= 0", key="al.seed_size")
        if not self.seeds:
            raise ConfigError("need at least one seed", key="al.seeds")
        if self.mc_samples < 1:
            raise ConfigError("mc_samples must be >= 1", key="al.mc_samples")
        if self.mc_samples < 2 and "bald" in self.strategies:
            raise ConfigError("BALD needs mc_samples >= 2", key="al.mc_samples")
        if not self.synthetic_sources and not self.source_files:
            raise ConfigError("no data: set synthetic_sources or source_files", key="data")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {s!r}; valid: {', '.join(STRATEGIES)}", key="al.strategies"
                )
        _require_unique(self.strategies, "al.strategies")
        _require_unique(self.seeds, "al.seeds")
        _require_unique([s.name for s in self.synthetic_sources], "data.synthetic_sources")
        _require_unique(self.source_files, "data.files")
        _require_unique([t.name for t in self.test_sets], "test_sets")
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ConfigError("need at least one hidden layer, each of width >= 1",
                              key="classifier.hidden_dims")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("must lie in [0, 1)", key="data.val_fraction")
        if not 0.0 <= self.ablation_fraction < 1.0:
            raise ConfigError("must lie in [0, 1)", key="ablation.fraction")

    def classifier_config(self, input_dim: int, num_classes: int) -> clf.ClassifierConfig:
        return clf.ClassifierConfig(
            input_dim=input_dim,
            hidden_dims=self.hidden_dims,
            num_classes=num_classes,
            dropout_rate=self.dropout_rate,
            activation=self.activation,
        )


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
    """One round of one run: the batch it acquired, its profile, and the val
    accuracy of the model that chose it."""

    strategy: str
    seed: int
    round: int
    acquired_ids: tuple[int, ...]
    per_source_counts: dict[str, int]
    profile: RunProfile
    acquisition_factor: dict[str, float]
    val_accuracy: float
    labelled_size: int


@dataclass
class RunResult:
    strategy: str
    seed: int
    round_logs: list[RoundLog]
    final_model: clf.Classifier
    final_val_accuracy: float
    test_accuracies: dict[str, float]
    profile: RunProfile
    labelled_ids: tuple[int, ...]


@dataclass(frozen=True)
class RunSummary:
    strategy: str
    accuracies: dict[str, tuple[float, float, int]]  # test set -> (mean, std, runs)
    final_labelled_size: int


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


def _harmonize_classes(sources: list[Dataset]) -> list[Dataset]:
    # per-file label inference can undercount classes a small file never saw
    C = max(s.num_classes for s in sources)
    copies = [copy.copy(s) for s in sources]  # the columns are shared, not copied
    for s in copies:
        s.num_classes = C  # labels below a source's own count lie below C too
    return copies


def _load_sources(config: ExperimentConfig) -> list[Dataset]:
    if config.synthetic_sources:
        return [
            generate_synthetic_source(spec, derive_seed(config.data_seed, "source", spec.name))
            for spec in config.synthetic_sources
        ]
    return _harmonize_classes(
        [load_dataset(path, config.file_format) for path in config.source_files]
    )


def build_test_set(spec: TestSetSpec, data_seed: int) -> Dataset:
    if spec.synthetic_sources:
        sources = [
            generate_synthetic_source(s, derive_seed(data_seed, "test", spec.name, s.name))
            for s in spec.synthetic_sources
        ]
    else:
        sources = _harmonize_classes(
            [load_dataset(path, spec.file_format) for path in spec.files]
        )
    return concat_datasets(sources, spec.name)


def build_experiment_data(config: ExperimentConfig) -> ExperimentData:
    """Generate/load sources, hold out validation per source, build the pool.

    Validation is held out from each source *before* pooling and never enters
    the unlabelled pool.
    """
    sources = _load_sources(config)
    rests, helds = [], []
    for src in sources:
        rest, held = split_dataset(
            src, config.val_fraction, derive_seed(config.data_seed, "val", src.name)
        )
        rests.append(rest)
        helds.append(held)
    pool = build_multi_source_pool(
        rests, config.per_source_cap, derive_seed(config.data_seed, "pool")
    )
    val = concat_datasets(helds, "val")
    tests = {t.name: build_test_set(t, config.data_seed) for t in config.test_sets}
    return ExperimentData(pool=pool, val=val, tests=tests)


def prepare_context(config: ExperimentConfig, data: ExperimentData | None = None) -> RunContext:
    """Build the shared cartography model + datamap over the full pool."""
    data = data or build_experiment_data(config)
    carto_tcfg = replace(
        config.cartography_training, rng_seed=derive_seed(config.data_seed, "cartography")
    )
    ccfg = config.classifier_config(data.pool.feature_dim, data.pool.num_classes)
    result = run_cartography_full(
        data.pool, data.pool, ccfg, carto_tcfg, val=data.val, thresholds=config.thresholds
    )
    return RunContext(data=data, reference_model=result.model, pool_datamap=result.entries)


def _dump_scores(scores_dir, strategy, seed, rnd, state, scores):
    os.makedirs(scores_dir, exist_ok=True)
    pool = state.universe
    pos = np.flatnonzero(~state.labelled_mask)
    sources = [pool.source_names[code] for code in pool.source_codes[pos].tolist()]
    path = os.path.join(scores_dir, f"{strategy}_seed{seed}_round{rnd}.csv")
    write_table(path, ["id", "source", "score"],
                zip(pool.ids[pos].tolist(), sources, map(_fmt, scores.tolist())))


@dataclass
class _Run:
    """One AL run while a lockstep group advances it round by round."""

    strategy: str
    seed: int
    run_seed: int
    state: PoolState | None = None
    round_logs: list[RoundLog] = field(default_factory=list)
    result: RunResult | None = None
    error: Exception | None = None


def _start_run(config: ExperimentConfig, run: _Run, pool: Dataset) -> None:
    needed = config.seed_size + config.rounds * config.k
    if needed > len(pool):
        exhaust_round = max(0, (len(pool) - config.seed_size) // config.k) + 1
        raise CapacityError(
            f"pool of {len(pool)} exhausted at round {exhaust_round}: "
            f"need {needed} for {config.rounds} rounds of k={config.k} from seed {config.seed_size}"
        )
    run.state = seed_split(pool, config.seed_size, derive_seed(run.run_seed, "split"))


def _val_accuracy(model: clf.Classifier) -> float:
    """Val accuracy of a fit's returned weights, as its history recorded it;
    NaN without a val set."""
    acc = model.history["best_val_accuracy"]
    return float("nan") if acc is None else acc


def _profile(context: RunContext, rows, rest) -> RunProfile:
    """Profile the pool examples at ``rows`` against the unlabelled ``rest``.

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
              context: RunContext, scores_dir=None) -> None:
    """One run's round after its fit: score, select, profile, transfer."""
    pool = context.data.pool
    state = run.state
    val_acc = _val_accuracy(model)

    select_seed = derive_seed(run.run_seed, rnd, "select")
    scores = acquisition.score_pool(run.strategy, state, model, select_seed,
                                    mc_samples=config.mc_samples, dal_cfg=config.dal)
    if scores_dir is not None and scores is not None:
        _dump_scores(scores_dir, run.strategy, run.seed, rnd, state, scores)
    batch = select_batch(run.strategy, state, scores, config.k, select_seed)
    picked = pool.positions(sorted(batch))
    remainder = ~state.labelled_mask
    remainder[picked] = False
    profile = _profile(context, picked, remainder)
    factor = acquisition_factor(batch, state)
    run.state = state = transfer(state, batch)
    run.round_logs.append(
        RoundLog(
            strategy=run.strategy,
            seed=run.seed,
            round=rnd,
            acquired_ids=tuple(pool.ids[picked].tolist()),
            per_source_counts=pool.source_counts(picked),
            profile=profile,
            acquisition_factor=factor,
            val_accuracy=val_acc,
            labelled_size=int(np.count_nonzero(state.labelled_mask)),
        )
    )
    logger.info("%s/seed %s round %d: val_acc=%.4f", run.strategy, run.seed, rnd, val_acc)


def _finish_run(config: ExperimentConfig, run: _Run, final_model: clf.Classifier,
                context: RunContext) -> None:
    """Evaluate a run's final refit everywhere and profile its labelled set."""
    pool, tests = context.data.pool, context.data.tests
    labelled = np.flatnonzero(run.state.labelled_mask)
    run.result = RunResult(
        strategy=run.strategy,
        seed=run.seed,
        round_logs=run.round_logs,
        final_model=final_model,
        final_val_accuracy=_val_accuracy(final_model),
        test_accuracies={name: final_model.accuracy(ds, ds.y) for name, ds in tests.items()},
        profile=_profile(context, labelled, ~run.state.labelled_mask),
        labelled_ids=tuple(pool.ids[labelled].tolist()),
    )


def _advance(runs: list[_Run], outcomes, step) -> None:
    """Call ``step(run, outcome)`` for each run; a run that fails drops out.

    An outcome that is an exception (a diverged fit) fails its run as it
    stands: one exception may be the outcome of every run of a fit, and
    raising it again would grow its traceback once per run.
    """
    for run, outcome in zip(runs, outcomes):
        if isinstance(outcome, Exception):
            run.error = outcome
            continue
        try:
            step(run, outcome)
        except Exception as exc:  # a suite must survive the failure of one run
            run.error = exc


def _fit_live(config: ExperimentConfig, runs: list[_Run], context: RunContext, *tag) -> list:
    """One lockstep fit over the labelled sets of the runs still live."""
    pool = context.data.pool
    rows = np.stack([np.flatnonzero(run.state.labelled_mask) for run in runs])
    tcfgs = [replace(config.training, rng_seed=derive_seed(run.run_seed, *tag)) for run in runs]
    ccfg = config.classifier_config(pool.feature_dim, pool.num_classes)
    try:
        return clf.fit_many(ccfg, pool.X[rows], pool.y[rows], val=context.data.val, tcfgs=tcfgs)
    except Exception as exc:  # e.g. an empty seed set: every run fails alike
        return [exc] * len(runs)


def _run_lockstep(config: ExperimentConfig, specs, context: RunContext,
                  scores_dir=None) -> list[_Run]:
    """Run the (strategy, seed) runs of ``specs`` round-synchronously.

    At a given round every run holds the same number of labelled examples,
    so each round trains all live runs with one :func:`classifier.fit_many`
    call, then selects, profiles and transfers run by run. A run that raises
    records its error and drops out; the others go on.
    """
    pool = context.data.pool
    runs = [_Run(strategy, seed, derive_seed("run", strategy, seed)) for strategy, seed in specs]
    _advance(runs, [None] * len(runs), lambda run, _: _start_run(config, run, pool))
    for rnd in range(1, config.rounds + 1):
        live = [run for run in runs if run.error is None]
        if live:
            _advance(live, _fit_live(config, live, context, rnd, "fit"),
                     lambda run, model: _al_round(config, run, model, rnd, context, scores_dir))
    live = [run for run in runs if run.error is None]
    if live:
        _advance(live, _fit_live(config, live, context, "final"),
                 lambda run, model: _finish_run(config, run, model, context))
    return runs


def run_al(config: ExperimentConfig, strategy: str, seed: int,
           context: RunContext | None = None, scores_dir=None) -> RunResult:
    """One full AL run: per-round fit / select / transfer, then a final refit.

    The final model is refit from scratch on the complete labelled set after
    the last transfer and evaluated on the validation set and every test set.
    This is the suite's lockstep path with a single run; its error is raised.
    ``run_suite`` does not go through it; perfbench's tracer wraps it by this name.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")
    context = context or prepare_context(config)
    [run] = _run_lockstep(config, [(strategy, seed)], context, scores_dir)
    if run.error is not None:
        raise run.error
    return run.result


def _run_group(args) -> list:
    """A lockstep group's outcome per run: its RunResult or its RunFailure."""
    config, specs, context, scores_dir = args
    out = []
    for run in _run_lockstep(config, specs, context, scores_dir):
        if run.error is None:
            out.append(run.result)
        else:
            logger.error("run %s/seed %s failed: %s", run.strategy, run.seed, run.error,
                         exc_info=run.error)
            out.append(RunFailure(run.strategy, run.seed, f"{type(run.error).__name__}: {run.error}"))
    return out


def _summary(name: str, names, accuracies: list[dict[str, float]], size: int) -> RunSummary:
    """Mean, std and count over runs of each of ``names`` in the runs'
    ``accuracies``; NaN, NaN, 0 where there are no runs."""
    acc = {}
    for key in names:
        v = np.array([a[key] for a in accuracies])
        if len(v):
            acc[key] = (float(v.mean()), float(v.std()), len(v))
        else:
            acc[key] = (float("nan"), float("nan"), 0)
    return RunSummary(strategy=name, accuracies=acc, final_labelled_size=size)


def _aggregate(config: ExperimentConfig, results: list[RunResult]) -> list[RunSummary]:
    names = ["val"] + [t.name for t in config.test_sets]
    final_size = config.seed_size + config.rounds * config.k
    return [_summary(strategy, names, [{"val": r.final_val_accuracy, **r.test_accuracies}
                                       for r in results if r.strategy == strategy], final_size)
            for strategy in config.strategies]


# The thread-count variables of OpenBLAS, OpenMP and MKL, read when a process
# loads its BLAS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to 1, then restore the environment exactly.

    A process started meanwhile computes with one BLAS thread, so P workers
    use P cores instead of oversubscribing them.
    """
    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _init_worker(log_level: int) -> None:
    """Log in a spawned worker at its parent's level."""
    logging.basicConfig(level=log_level, format="%(levelname)s %(name)s: %(message)s")


def _run_groups(jobs: list) -> list[list]:
    """Run each lockstep group in a spawned worker process of its own.

    Workers start from a fresh interpreter with one BLAS thread each. A
    group whose worker dies becomes one :class:`RunFailure` per run it held;
    the other groups complete.
    """
    spawn = multiprocessing.get_context("spawn")
    level = logging.getLogger().getEffectiveLevel()
    with ExitStack() as stack:
        executors = [stack.enter_context(ProcessPoolExecutor(
            max_workers=1, mp_context=spawn, initializer=_init_worker, initargs=(level,)))
            for _ in jobs]
        with _one_blas_thread():  # submit starts the worker
            futures = [ex.submit(_run_group, job) for ex, job in zip(executors, jobs)]
        outcomes = []
        for future, (_, specs, _, _) in zip(futures, jobs):
            try:
                outcomes.append(future.result())
            except BrokenProcessPool as exc:
                logger.error("worker of runs %s died: %s", specs, exc)
                outcomes.append([RunFailure(s, sd, f"{type(exc).__name__}: {exc}") for s, sd in specs])
        return outcomes


def run_suite(config: ExperimentConfig, context: RunContext | None = None,
              parallel: int = 1, scores_dir=None) -> SuiteResult:
    """Cross-product of strategies x seeds; failures are recorded, not fatal.

    The runs advance in lockstep (see :func:`_run_lockstep`). With
    ``parallel`` P > 1 they are dealt round-robin into P lockstep groups,
    one spawned worker process each (see :func:`_run_groups`); the outcome
    is the same bytes in the same order. A script that calls this with
    P > 1 must guard its entry point with ``if __name__ == "__main__":``,
    because spawned workers import the main module.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    context = context or prepare_context(config)
    specs = [(s, sd) for s in config.strategies for sd in config.seeds]
    groups = min(parallel, len(specs))
    if groups > 1:
        jobs = [(config, specs[g::groups], context, scores_dir) for g in range(groups)]
        outcomes = [None] * len(specs)
        for g, part in enumerate(_run_groups(jobs)):
            outcomes[g::groups] = part
    else:
        outcomes = _run_group((config, specs, context, scores_dir))

    results = [o for o in outcomes if isinstance(o, RunResult)]
    failures = [o for o in outcomes if isinstance(o, RunFailure)]
    return SuiteResult(_aggregate(config, results), results, failures)


def run_ablated_suite(config: ExperimentConfig, context: RunContext | None = None,
                      parallel: int = 1) -> tuple[SuiteResult, RunContext]:
    """Filter the pool's per-source bottom conf*var fraction, then run a suite.

    The full-pool cartography model/datamap are reused as the uncertainty
    reference and difficulty authority for the ablated runs.
    """
    context = context or prepare_context(config)
    pool = context.data.pool
    retained = ablate_hard_to_learn(context.pool_datamap, pool, config.ablation_fraction)
    filtered = pool.subset(retained, name="pool-ablated")
    logger.info("ablation keeps %d of %d pool examples", len(filtered), len(pool))
    ablated_ctx = RunContext(
        data=ExperimentData(pool=filtered, val=context.data.val, tests=context.data.tests),
        reference_model=context.reference_model,
        pool_datamap=context.pool_datamap,
    )
    return run_suite(config, ablated_ctx, parallel), ablated_ctx


def run_difficulty_split(config: ExperimentConfig,
                         context: RunContext | None = None) -> list[RunSummary]:
    """Train once per difficulty combo and seed (no AL loop), evaluate everywhere.

    Every combo x seed split holds ``difficulty_n`` examples, so all of them
    train in one lockstep :func:`classifier.fit_many` call.
    """
    if config.difficulty_n is None:
        raise ConfigError("difficulty_n must be set for split experiments", key="difficulty_split.n")
    context = context or prepare_context(config)
    pool, val, tests = context.data.pool, context.data.val, context.data.tests
    ccfg = config.classifier_config(pool.feature_dim, pool.num_classes)

    combos = [(combo, seed) for combo in config.difficulty_combos for seed in config.seeds]
    rows = np.stack([
        pool.positions(build_difficulty_split(
            context.pool_datamap, combo, config.difficulty_n,
            derive_seed(config.data_seed, "split-sample", combo, seed),
        ))
        for combo, seed in combos
    ])
    tcfgs = [replace(config.training, rng_seed=derive_seed(config.data_seed, "split-fit", combo, seed))
             for combo, seed in combos]
    models = clf.fit_many(ccfg, pool.X[rows], pool.y[rows], val=val, tcfgs=tcfgs)

    accuracies = []
    for model in models:
        if isinstance(model, Exception):
            raise model
        accuracies.append({"val": _val_accuracy(model),
                           **{name: model.accuracy(ds, ds.y) for name, ds in tests.items()}})
    S = len(config.seeds)
    return [_summary(combo, ["val", *tests], accuracies[c * S:(c + 1) * S], config.difficulty_n)
            for c, combo in enumerate(config.difficulty_combos)]


def run_stratified(config: ExperimentConfig, data: ExperimentData,
                   models: dict[tuple[str, int], clf.Classifier],
                   carto_seed: int = 0) -> list[dict]:
    """Difficulty-stratified test accuracy for a set of final models.

    A fresh cartography model is trained on each *test set* to classify its
    examples by difficulty; rows are (strategy, seed, test_set, difficulty,
    count, accuracy).
    """
    rows = []
    for name, test_ds in data.tests.items():
        ccfg = config.classifier_config(test_ds.feature_dim, test_ds.num_classes)
        tcfg = replace(
            config.cartography_training,
            rng_seed=derive_seed(config.data_seed, "stratify", name, carto_seed),
        )
        carto = run_cartography_full(
            test_ds, test_ds, ccfg, tcfg, val=data.val, thresholds=config.thresholds
        )
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

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _profile_cells(profile: RunProfile) -> list[str]:
    return [_fmt(profile.input_diversity), _fmt(profile.output_uncertainty),
            *map(_fmt, profile.class_distribution)]


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
        [log.strategy, log.seed, log.round, log.labelled_size, _fmt(log.val_accuracy)]
        + [log.per_source_counts.get(s, 0) for s in sources]
        + _profile_cells(log.profile)
        + [_fmt(log.acquisition_factor.get(s, 0.0)) for s in sources]
        for r in results for log in r.round_logs
    ))


def write_summary_csv(summaries: list[RunSummary], path) -> None:
    write_table(path, ["strategy", "test_set", "mean", "std", "runs"], (
        [s.strategy, test_set, _fmt(mean), _fmt(std), n]
        for s in summaries for test_set, (mean, std, n) in s.accuracies.items()
    ))


def write_profile_csv(results: list[RunResult], num_classes: int, path) -> None:
    header = ["strategy", "seed", "input_diversity", "output_uncertainty"]
    header += [f"class_{c}" for c in range(num_classes)]
    write_table(path, header, ([r.strategy, r.seed, *_profile_cells(r.profile)] for r in results))


def write_stratified_csv(rows: list[dict], path) -> None:
    write_table(path, ["strategy", "seed", "test_set", "difficulty", "count", "accuracy"], (
        [row["strategy"], row["seed"], row["test_set"], row["difficulty"], row["count"],
         _fmt(row["accuracy"])]
        for row in rows
    ))


def write_suite_artifacts(suite: SuiteResult, context: RunContext, out_dir,
                          prefix: str = "") -> None:
    """Write rounds/summary/profile CSVs (and model checkpoints) for a suite.

    ``prefix`` distinguishes suite variants in one directory, e.g.
    "ablated_" writes rounds_ablated.csv / summary_ablated.csv.
    """
    os.makedirs(out_dir, exist_ok=True)
    suffix = f"_{prefix.rstrip('_')}" if prefix else ""
    write_rounds_csv(suite.results, context.data.pool, os.path.join(out_dir, f"rounds{suffix}.csv"))
    write_summary_csv(suite.summaries, os.path.join(out_dir, f"summary{suffix}.csv"))
    write_profile_csv(
        suite.results, context.data.pool.num_classes, os.path.join(out_dir, f"profile{suffix}.csv")
    )
    if suite.failures:
        write_table(os.path.join(out_dir, f"failures{suffix}.csv"), ["strategy", "seed", "error"],
                    ([f.strategy, f.seed, f.error] for f in suite.failures))
    model_dir = os.path.join(out_dir, "models")
    os.makedirs(model_dir, exist_ok=True)
    for r in suite.results:
        clf.save_checkpoint(
            r.final_model, os.path.join(model_dir, f"{prefix}{r.strategy}_seed{r.seed}.json")
        )


def write_manifest(out_dir, extra: dict | None = None) -> None:
    manifest = {
        "final_eval": "refit on the full labelled set after the last transfer",
        "created_unix": time.time(),
    }
    manifest.update(extra or {})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)


def write_pool_datamap(context: RunContext, out_dir) -> None:
    write_datamap_csv(context.pool_datamap, context.data.pool, os.path.join(out_dir, "datamap.csv"))
