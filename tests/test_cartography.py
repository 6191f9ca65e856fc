"""Datamap computation, difficulty bands, ablation, and splits."""

from __future__ import annotations

import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartal.cartography import (
    DIFFICULTIES,
    Datamap,
    DifficultyThresholds,
    DynamicsTrace,
    TraceMatrix,
    ablate_hard_to_learn,
    acquisition_by_difficulty,
    build_difficulty_split,
    compute_datamap,
    run_cartography_full,
    write_datamap_csv,
)
from cartal.classifier import ClassifierConfig, TrainConfig, fit
from cartal.errors import CapacityError, InsufficientDynamicsError

from conftest import make_dataset, pass_allowance


def classify_difficulty(mean_confidence, thresholds):
    """Per-example banding, the reference for the searchsorted bands."""
    if mean_confidence <= thresholds.impossible_max:
        return "impossible"
    if mean_confidence <= thresholds.hard_max:
        return "hard"
    if mean_confidence <= thresholds.medium_max:
        return "medium"
    return "easy"


def _datamap_of(confs, flags=None):
    """Datamap of one trace per row of ``confs``, ids 0..n-1."""
    confs = np.atleast_2d(np.asarray(confs, dtype=float))
    flags = confs > 0.5 if flags is None else np.atleast_2d(np.asarray(flags, dtype=bool))
    return compute_datamap(TraceMatrix(np.arange(len(confs)), confs, flags))


def _bands(means):
    dm = _datamap_of(np.asarray(means, dtype=float)[:, None])
    return [DIFFICULTIES[d] for d in dm.difficulty]


def _datamap(means, variability=0.1, ids=None):
    """Hand-built datamap: the given means and variabilities, correctness 1."""
    means = np.asarray(means, dtype=float)
    thr = DifficultyThresholds()
    return Datamap(
        np.arange(len(means)) if ids is None else np.asarray(ids, dtype=np.int64), means,
        np.broadcast_to(np.asarray(variability, dtype=float), means.shape), np.ones(len(means)),
        np.array([DIFFICULTIES.index(classify_difficulty(m, thr)) for m in means], dtype=np.int64))


# --- compute_datamap --------------------------------------------------------

def test_constant_trace_is_easy_with_zero_variability():
    dm = _datamap_of([0.9, 0.9, 0.9])
    assert dm.mean_confidence[0] == pytest.approx(0.9)
    assert dm.variability[0] == 0.0
    assert DIFFICULTIES[dm.difficulty[0]] == "easy"


def test_two_point_trace_boundary_falls_in_hard_band():
    dm = _datamap_of([0.2, 0.8])
    assert dm.mean_confidence[0] == pytest.approx(0.5)
    assert dm.variability[0] == pytest.approx(0.3)
    assert DIFFICULTIES[dm.difficulty[0]] == "hard"


def test_low_confidence_never_correct_is_impossible():
    dm = _datamap_of([0.1, 0.1], [False, False])
    assert DIFFICULTIES[dm.difficulty[0]] == "impossible"
    assert dm.correctness[0] == 0.0


def test_band_boundaries_are_upper_inclusive():
    assert _bands([0.25, 0.25 + 1e-12, 0.5, 0.75, 0.76]) == [
        "impossible", "hard", "hard", "medium", "easy"]


def test_band_ordering_is_monotone_in_confidence():
    thr = DifficultyThresholds()
    rank = {"impossible": 0, "hard": 1, "medium": 2, "easy": 3}
    grid = np.linspace(0, 1, 101)
    ranks = [rank[band] for band in _bands(grid)]
    assert ranks == sorted(ranks)
    assert _bands(grid) == [classify_difficulty(p, thr) for p in grid]


@given(st.lists(st.floats(0, 1), max_size=40),
       st.sampled_from([DifficultyThresholds(), DifficultyThresholds(0.1, 0.2, 0.3),
                        DifficultyThresholds(0.25, 0.3, 0.9)]))
@settings(max_examples=80, deadline=None)
def test_searchsorted_bands_match_per_example_banding(means, thr):
    means = np.array(means + [thr.impossible_max, thr.hard_max, thr.medium_max])
    dm = compute_datamap(TraceMatrix(np.arange(means.size), means[:, None],
                                     np.ones((means.size, 1), dtype=bool)), thr)
    assert [DIFFICULTIES[d] for d in dm.difficulty] == [classify_difficulty(m, thr) for m in means]


def test_empty_trace_is_rejected_with_id():
    with pytest.raises(ValueError, match="7"):
        compute_datamap(TraceMatrix([7], np.zeros((1, 0)), np.zeros((1, 0), dtype=bool)))


def test_thresholds_validate_ordering():
    with pytest.raises(ValueError):
        DifficultyThresholds(impossible_max=0.6, hard_max=0.5, medium_max=0.75)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_datamap_matches_mean_std_oracle(seed):
    rng = np.random.default_rng(seed)
    n_snap = int(rng.integers(1, 9))
    confs = [float(c) for c in rng.random(n_snap)]
    flags = [bool(f) for f in rng.random(n_snap) > 0.5]
    dm = _datamap_of(confs, flags)
    assert dm.mean_confidence[0] == pytest.approx(statistics.fmean(confs), abs=1e-12)
    assert dm.variability[0] == pytest.approx(statistics.pstdev(confs), abs=1e-12)
    assert dm.correctness[0] == pytest.approx(sum(flags) / n_snap, abs=1e-12)
    assert (dm.variability[0] == 0.0) == (len(set(confs)) == 1)


def test_difficulty_classes_partition_the_datamap():
    rng = np.random.default_rng(1)
    dm = _datamap_of(rng.random((200, 4)))
    counts = {d: 0 for d in ("easy", "medium", "hard", "impossible")}
    for code in dm.difficulty.tolist():
        counts[DIFFICULTIES[code]] += 1
    assert sum(counts.values()) == len(dm.ids) == 200


# --- run_cartography ----------------------------------------------------------

def _toy_pool(n=64, seed=0, constant_label=None):
    rng = np.random.default_rng(seed)
    labels = np.full(n, constant_label) if constant_label is not None else np.arange(n) % 2
    feats = rng.standard_normal((n, 2)) + np.where(labels[:, None] > 0, [4.0, 0.0], 0.0)
    return make_dataset(feats, labels, num_classes=2, name="toy")


def test_snapshot_count_three_epochs_half_interval():
    pool = _toy_pool()
    cfg = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    tcfg = TrainConfig(max_epochs=3, eval_interval=0.5)
    result = run_cartography_full(pool, cfg, tcfg, 0)
    assert all(len(t.confidences) == 6 for t in result.traces)


def test_constant_label_pool_is_all_easy():
    pool = _toy_pool(constant_label=1)
    cfg = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    tcfg = TrainConfig(max_epochs=4, eval_interval=0.5)
    dm = run_cartography_full(pool, cfg, tcfg, 0).entries
    assert (dm.difficulty == DIFFICULTIES.index("easy")).all()
    assert (dm.mean_confidence > 0.75).all()


def test_snapshot_holds_the_last_hidden_layer_and_logits_only():
    # a 20k-row fit with dynamics against the same fit without, so only what the
    # snapshots add to the fit's own peak is measured
    rng = np.random.default_rng(4)
    n = 20_000
    pool = make_dataset(rng.standard_normal((n, 10)), rng.integers(0, 3, n), num_classes=3)
    cfg = ClassifierConfig(10, (32, 32), 3, dropout_rate=0.3)
    tcfg = TrainConfig(max_epochs=1, eval_interval=0.5)

    def peak(dynamics):
        tracemalloc.start()
        try:
            fit(cfg, (pool.X, pool.y), tcfg, 0, dynamics=dynamics)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    dynamics = []
    extra = peak(dynamics) - peak(None)
    [(golds, _)] = dynamics
    assert len(golds) == 2
    hidden = n * cfg.hidden_dims[-1] * 8  # under two output blocks: one (n, last width) buffer per snapshot
    columns = len(golds) * n * (8 + 1)  # per snapshot, a float64 gold row and a bool one
    assert extra <= hidden + pass_allowance(n, cfg.num_classes, 32) + columns, (extra, hidden)


def test_insufficient_snapshots_raise():
    pool = _toy_pool()
    cfg = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    tcfg = TrainConfig(max_epochs=1, eval_interval=1.0)
    with pytest.raises(InsufficientDynamicsError):
        run_cartography_full(pool, cfg, tcfg, 0)


# --- ablation ---------------------------------------------------------------------

def _sourced(sources, ids=None):
    """A dataset that only carries each id's source."""
    return make_dataset(np.zeros((len(sources), 1)), np.zeros(len(sources)), sources=sources,
                        ids=ids, num_classes=2)


def test_ablate_drops_smallest_product():
    dm = _datamap([0.2, 0.5, 0.8, 0.9], [0.1, 0.2, 0.5, 0.6111])  # products 0.02, 0.10, 0.40, 0.55
    retained = ablate_hard_to_learn(dm, _sourced(["s"] * 4), 0.25)
    assert retained.tolist() == [1, 2, 3]


def test_ablate_fraction_zero_is_identity():
    retained = ablate_hard_to_learn(_datamap([0.5] * 10), _sourced(["s"] * 10), 0.0)
    assert retained.tolist() == list(range(10))


def test_ablate_filters_each_source_separately():
    dm = _datamap([0.1 * (i + 1) for i in range(8)])
    sources = ["A"] * 4 + ["B"] * 4
    retained = ablate_hard_to_learn(dm, _sourced(sources), 0.25)
    dropped = set(range(8)) - set(retained.tolist())
    assert len(dropped) == 2
    assert {sources[i] for i in dropped} == {"A", "B"}


def test_ablate_retention_arithmetic():
    rng = np.random.default_rng(4)
    dm = _datamap(rng.random(37), rng.random(37))
    sources = ["A" if i % 3 else "B" for i in range(37)]
    for fraction in (0.0, 0.1, 0.25, 0.5, 0.9):
        retained = ablate_hard_to_learn(dm, _sourced(sources), fraction)
        expected = sum(
            n - int(np.floor(fraction * n))
            for n in (sum(1 for s in sources if s == name) for name in ("A", "B"))
        )
        assert len(retained) == expected


def test_ablate_rejects_unknown_source_and_bad_fraction():
    dm = _datamap([0.5])
    with pytest.raises(ValueError):
        ablate_hard_to_learn(dm, _sourced(["s"], ids=[5]), 0.25)
    with pytest.raises(ValueError):
        ablate_hard_to_learn(dm, _sourced(["s"]), 1.0)


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.sampled_from([0.0, 0.1, 0.3]),
                          st.sampled_from("ABC")), min_size=1, max_size=40),
       st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]))
@settings(max_examples=80, deadline=None)
def test_ablate_matches_per_example_sort(rows, fraction):
    # the per-example algorithm: per source, sort (product, id) and drop the head
    by_source = {}
    for i, (conf, var, source) in enumerate(rows):
        by_source.setdefault(source, []).append((conf * var, i))
    expected = set()
    for entries in by_source.values():
        entries.sort()
        expected.update(i for _, i in entries[int(np.floor(fraction * len(entries))):])
    conf, var, sources = zip(*rows)
    retained = ablate_hard_to_learn(_datamap(conf, var), _sourced(sources), fraction)
    assert retained.tolist() == sorted(expected)


# --- difficulty splits ---------------------------------------------------------------

def _mixed_datamap(per_class=50):
    return _datamap(np.repeat([0.9, 0.6, 0.4, 0.1], per_class))  # easy, medium, hard, impossible


def test_split_em_takes_equal_shares():
    dm = _mixed_datamap(per_class=2000)
    ids = build_difficulty_split(dm, "EM", 4000, rng_seed=0)
    assert len(ids) == 4000
    by_diff = dict(zip(dm.ids.tolist(), (DIFFICULTIES[d] for d in dm.difficulty)))
    counts = {}
    for i in ids.tolist():
        counts[by_diff[i]] = counts.get(by_diff[i], 0) + 1
    assert counts == {"easy": 2000, "medium": 2000}


def test_split_exhausts_tiny_classes():
    assert build_difficulty_split(_datamap([0.4, 0.1]), "HI", 2, rng_seed=0).tolist() == [0, 1]


def test_split_emhi_takes_quarter_each():
    dm = _mixed_datamap(per_class=1000)
    ids = build_difficulty_split(dm, "EMHI", 4000, rng_seed=1)
    assert len(ids) == 4000


def test_split_rejects_indivisible_n_and_capacity():
    dm = _mixed_datamap(per_class=10)
    with pytest.raises(ValueError):
        build_difficulty_split(dm, "EMH", 10, rng_seed=0)
    with pytest.raises(CapacityError, match="hard"):
        build_difficulty_split(dm, "HI", 40, rng_seed=0)


def test_split_rejects_bad_combo():
    dm = _mixed_datamap(per_class=4)
    with pytest.raises(ValueError):
        build_difficulty_split(dm, "", 2, rng_seed=0)
    with pytest.raises(ValueError):
        build_difficulty_split(dm, "EQ", 2, rng_seed=0)


@given(st.lists(st.sampled_from([0.9, 0.6, 0.4, 0.1]), min_size=8, max_size=60),
       st.sampled_from(["EM", "HI", "EMH", "MH", "EMHI"]), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_split_matches_per_example_sampling(means, combo, seed):
    # the per-example algorithm: each class's ids in order, then one draw per class
    dm = _datamap(means, ids=np.arange(len(means)) * 3)
    names = [{"E": "easy", "M": "medium", "H": "hard", "I": "impossible"}[ch] for ch in combo]
    pools = {name: sorted(int(i) for i, d in zip(dm.ids, dm.difficulty) if DIFFICULTIES[d] == name)
             for name in names}
    per_class = min(len(p) for p in pools.values())
    if per_class == 0:
        return
    rng = np.random.default_rng(seed)
    expected = set()
    for name in names:
        ids = np.array(pools[name], dtype=np.int64)
        expected.update(int(ids[i]) for i in rng.choice(ids.size, size=per_class, replace=False))
    picked = build_difficulty_split(dm, combo, per_class * len(names), seed)
    assert picked.tolist() == sorted(expected)


# --- acquisition by difficulty ----------------------------------------------------------

def test_acquisition_by_difficulty_counts():
    dm = _datamap([0.9, 0.9, 0.9, 0.4])
    out = acquisition_by_difficulty([[0, 1, 2, 3]], dm)
    assert out == [{"easy": 3, "medium": 0, "hard": 1, "impossible": 0}]


def test_acquisition_by_difficulty_empty_rounds():
    assert acquisition_by_difficulty([], _datamap([])) == []


def test_acquisition_by_difficulty_missing_id():
    with pytest.raises(ValueError):
        acquisition_by_difficulty([[5]], _datamap([0.9]))


# --- CSV ------------------------------------------------------------------------------

def test_datamap_csv_roundtrip(tmp_path):
    dm = _datamap([0.9, 0.3], [0.05, 0.2])
    path = tmp_path / "datamap.csv"
    write_datamap_csv(dm, _sourced(["A", "B"]), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,source,mean_confidence,variability,correctness,difficulty"
    assert lines[1].startswith("0,A,0.9")
    assert lines[2].endswith("hard")


@pytest.mark.parametrize("T", [2, 24, 37])
def test_datamap_of_snapshot_rows_equals_the_c_ordered_stack_bit_for_bit(T):
    # the fit's (T, N) arrays seen as (N, T), N not a multiple of the 4,096-row
    # reduction blocks, against whole-array reductions of the (N, T) stack
    rng = np.random.default_rng(T)
    N = 2 * 4096 + 1234
    conf, flags = rng.random((T, N)), rng.random((T, N)) > 0.4
    stack, stacked_flags = np.ascontiguousarray(conf.T), np.ascontiguousarray(flags.T)
    dm = compute_datamap(TraceMatrix(np.arange(N), conf.T, flags.T))
    assert dm.mean_confidence.tobytes() == stack.mean(axis=1).tobytes()
    assert dm.variability.tobytes() == stack.std(axis=1).tobytes()
    assert dm.correctness.tobytes() == stacked_flags.mean(axis=1).tobytes()


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_matrix_datamap_equals_per_trace_numpy_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, T = int(rng.integers(1, 20)), int(rng.integers(1, 300))
    conf = rng.random((n, T))
    flags = rng.random((n, T)) > 0.5
    matrix = TraceMatrix(np.arange(n), conf, flags)
    traces = [DynamicsTrace(i, tuple(conf[i].tolist()), tuple(flags[i].tolist())) for i in range(n)]
    dm = compute_datamap(matrix)
    for r, tr in enumerate(traces):
        assert dm.mean_confidence[r] == float(np.mean(tr.confidences))
        assert dm.variability[r] == float(np.std(tr.confidences))
        assert dm.correctness[r] == float(np.mean(tr.correct_flags))
    assert list(matrix) == traces
