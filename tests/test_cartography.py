"""Datamap computation, difficulty bands, ablation, and splits."""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartal.cartography import (
    DatamapEntry,
    DifficultyThresholds,
    DynamicsTrace,
    TraceMatrix,
    ablate_hard_to_learn,
    acquisition_by_difficulty,
    build_difficulty_split,
    classify_difficulty,
    compute_datamap,
    run_cartography,
    run_cartography_full,
    write_datamap_csv,
)
from cartal.classifier import ClassifierConfig, TrainConfig
from cartal.errors import CapacityError, InsufficientDynamicsError
from cartal.pool import Dataset, Example


def _trace(i, confs, flags=None):
    flags = flags if flags is not None else [c > 0.5 for c in confs]
    return DynamicsTrace(i, tuple(confs), tuple(flags))


def _entry(i, mean, var=0.1, difficulty=None):
    difficulty = difficulty or classify_difficulty(mean, DifficultyThresholds())
    return DatamapEntry(i, mean, var, 1.0, difficulty)


# --- compute_datamap --------------------------------------------------------

def test_constant_trace_is_easy_with_zero_variability():
    [e] = compute_datamap([_trace(0, [0.9, 0.9, 0.9])])
    assert e.mean_confidence == pytest.approx(0.9)
    assert e.variability == 0.0
    assert e.difficulty == "easy"


def test_two_point_trace_boundary_falls_in_hard_band():
    [e] = compute_datamap([_trace(1, [0.2, 0.8])])
    assert e.mean_confidence == pytest.approx(0.5)
    assert e.variability == pytest.approx(0.3)
    assert e.difficulty == "hard"


def test_low_confidence_never_correct_is_impossible():
    [e] = compute_datamap([_trace(2, [0.1, 0.1], [False, False])])
    assert e.difficulty == "impossible"
    assert e.correctness == 0.0


def test_band_boundaries_are_upper_inclusive():
    thr = DifficultyThresholds()
    assert classify_difficulty(0.25, thr) == "impossible"
    assert classify_difficulty(0.25 + 1e-12, thr) == "hard"
    assert classify_difficulty(0.5, thr) == "hard"
    assert classify_difficulty(0.75, thr) == "medium"
    assert classify_difficulty(0.76, thr) == "easy"


def test_band_ordering_is_monotone_in_confidence():
    thr = DifficultyThresholds()
    rank = {"impossible": 0, "hard": 1, "medium": 2, "easy": 3}
    grid = np.linspace(0, 1, 101)
    ranks = [rank[classify_difficulty(p, thr)] for p in grid]
    assert ranks == sorted(ranks)


def test_empty_trace_is_rejected_with_id():
    with pytest.raises(ValueError, match="7"):
        compute_datamap([DynamicsTrace(7, (), ())])


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
    [e] = compute_datamap([DynamicsTrace(0, tuple(confs), tuple(flags))])
    assert e.mean_confidence == pytest.approx(statistics.fmean(confs), abs=1e-12)
    assert e.variability == pytest.approx(statistics.pstdev(confs), abs=1e-12)
    assert e.correctness == pytest.approx(sum(flags) / n_snap, abs=1e-12)
    assert (e.variability == 0.0) == (len(set(confs)) == 1)


def test_difficulty_classes_partition_the_datamap():
    rng = np.random.default_rng(1)
    traces = [_trace(i, list(rng.random(4))) for i in range(200)]
    entries = compute_datamap(traces)
    counts = {d: 0 for d in ("easy", "medium", "hard", "impossible")}
    for e in entries:
        counts[e.difficulty] += 1
    assert sum(counts.values()) == len(entries) == 200


# --- run_cartography ----------------------------------------------------------

def _toy_pool(n=64, seed=0, constant_label=None):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = constant_label if constant_label is not None else i % 2
        feats = rng.standard_normal(2) + (np.array([4.0, 0.0]) if label else np.zeros(2))
        examples.append(Example(i, "s", feats, label))
    return Dataset("toy", examples, 2)


def test_snapshot_count_three_epochs_half_interval():
    pool = _toy_pool()
    cfg = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    tcfg = TrainConfig(max_epochs=3, eval_interval=0.5, rng_seed=0)
    result = run_cartography_full(pool, pool, cfg, tcfg)
    assert all(len(t.confidences) == 6 for t in result.traces)


def test_constant_label_pool_is_all_easy():
    pool = _toy_pool(constant_label=1)
    cfg = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    tcfg = TrainConfig(max_epochs=4, eval_interval=0.5, rng_seed=0)
    entries = run_cartography(pool, pool, cfg, tcfg)
    assert all(e.difficulty == "easy" for e in entries)
    assert all(e.mean_confidence > 0.75 for e in entries)


def test_insufficient_snapshots_raise():
    pool = _toy_pool()
    cfg = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    tcfg = TrainConfig(max_epochs=1, eval_interval=1.0, rng_seed=0)
    with pytest.raises(InsufficientDynamicsError):
        run_cartography(pool, pool, cfg, tcfg)


# --- ablation ---------------------------------------------------------------------

def test_ablate_drops_smallest_product():
    entries = [
        DatamapEntry(0, 0.2, 0.1, 0.0, "impossible"),   # product 0.02
        DatamapEntry(1, 0.5, 0.2, 0.5, "hard"),         # 0.10
        DatamapEntry(2, 0.8, 0.5, 1.0, "easy"),         # 0.40
        DatamapEntry(3, 0.9, 0.6111, 1.0, "easy"),      # 0.55
    ]
    sources = {i: "s" for i in range(4)}
    retained = ablate_hard_to_learn(entries, sources, 0.25)
    assert retained == {1, 2, 3}


def test_ablate_fraction_zero_is_identity():
    entries = [_entry(i, 0.5) for i in range(10)]
    retained = ablate_hard_to_learn(entries, {i: "s" for i in range(10)}, 0.0)
    assert retained == set(range(10))


def test_ablate_filters_each_source_separately():
    entries = [DatamapEntry(i, 0.1 * (i + 1), 0.1, 0.5, "hard") for i in range(8)]
    sources = {i: ("A" if i < 4 else "B") for i in range(8)}
    retained = ablate_hard_to_learn(entries, sources, 0.25)
    dropped = set(range(8)) - retained
    assert len(dropped) == 2
    assert {sources[i] for i in dropped} == {"A", "B"}


def test_ablate_retention_arithmetic():
    rng = np.random.default_rng(4)
    entries = [
        DatamapEntry(i, float(rng.random()), float(rng.random()), 0.5, "hard")
        for i in range(37)
    ]
    sources = {i: ("A" if i % 3 else "B") for i in range(37)}
    for fraction in (0.0, 0.1, 0.25, 0.5, 0.9):
        retained = ablate_hard_to_learn(entries, sources, fraction)
        expected = sum(
            n - int(np.floor(fraction * n))
            for n in (sum(1 for s in sources.values() if s == name) for name in ("A", "B"))
        )
        assert len(retained) == expected


def test_ablate_rejects_unknown_source_and_bad_fraction():
    entries = [_entry(0, 0.5)]
    with pytest.raises(ValueError):
        ablate_hard_to_learn(entries, {}, 0.25)
    with pytest.raises(ValueError):
        ablate_hard_to_learn(entries, {0: "s"}, 1.0)


# --- difficulty splits ---------------------------------------------------------------

def _mixed_datamap(per_class=50):
    means = {"easy": 0.9, "medium": 0.6, "hard": 0.4, "impossible": 0.1}
    entries = []
    i = 0
    for name, mean in means.items():
        for _ in range(per_class):
            entries.append(_entry(i, mean))
            i += 1
    return entries


def test_split_em_takes_equal_shares():
    dm = _mixed_datamap(per_class=2000)
    ids = build_difficulty_split(dm, "EM", 4000, rng_seed=0)
    assert len(ids) == 4000
    by_diff = {e.example_id: e.difficulty for e in dm}
    counts = {}
    for i in ids:
        counts[by_diff[i]] = counts.get(by_diff[i], 0) + 1
    assert counts == {"easy": 2000, "medium": 2000}


def test_split_exhausts_tiny_classes():
    entries = [_entry(0, 0.4), _entry(1, 0.1)]
    assert build_difficulty_split(entries, "HI", 2, rng_seed=0) == {0, 1}


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


# --- acquisition by difficulty ----------------------------------------------------------

def test_acquisition_by_difficulty_counts():
    dm = [_entry(0, 0.9), _entry(1, 0.9), _entry(2, 0.9), _entry(3, 0.4)]
    out = acquisition_by_difficulty([[0, 1, 2, 3]], dm)
    assert out == [{"easy": 3, "medium": 0, "hard": 1, "impossible": 0}]


def test_acquisition_by_difficulty_empty_rounds():
    assert acquisition_by_difficulty([], []) == []


def test_acquisition_by_difficulty_missing_id():
    with pytest.raises(ValueError):
        acquisition_by_difficulty([[5]], [_entry(0, 0.9)])


# --- CSV ------------------------------------------------------------------------------

def test_datamap_csv_roundtrip(tmp_path):
    entries = [_entry(0, 0.9, 0.05), _entry(1, 0.3, 0.2)]
    path = tmp_path / "datamap.csv"
    write_datamap_csv(entries, {0: "A", 1: "B"}, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "id,source,mean_confidence,variability,correctness,difficulty"
    assert lines[1].startswith("0,A,0.9")
    assert lines[2].endswith("hard")


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_matrix_datamap_equals_per_trace_numpy_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n, T = int(rng.integers(1, 20)), int(rng.integers(1, 300))
    conf = rng.random((n, T))
    flags = rng.random((n, T)) > 0.5
    matrix = TraceMatrix(np.arange(n), conf, flags)
    traces = [DynamicsTrace(i, tuple(conf[i].tolist()), tuple(flags[i].tolist())) for i in range(n)]
    entries = compute_datamap(matrix)
    for e, tr in zip(entries, traces):
        assert e.mean_confidence == float(np.mean(tr.confidences))
        assert e.variability == float(np.std(tr.confidences))
        assert e.correctness == float(np.mean(tr.correct_flags))
    assert compute_datamap(traces) == entries
    assert list(matrix) == traces
