"""Profiling and evaluation metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartal.cartography import DatamapEntry
from cartal.classifier import Classifier, ClassifierConfig
from cartal.metrics import (
    acquisition_factor,
    class_distribution,
    input_diversity,
    output_uncertainty,
    stratified_accuracy,
    tokens_of,
)
from cartal.pool import Dataset, Example, PoolState


def _zero_weight_model(d=2, C=3):
    cfg = ClassifierConfig(input_dim=d, hidden_dims=(4,), num_classes=C, dropout_rate=0.0)
    weights = [(np.zeros((d, 4)), np.zeros(4)), (np.zeros((4, C)), np.zeros(C))]
    return Classifier(cfg, weights)


def _dataset(labels, sources=None, d=2, C=3, tokens=None):
    sources = sources or ["s"] * len(labels)
    examples = [
        Example(i, sources[i], np.zeros(d), labels[i],
                tuple(tokens[i]) if tokens else ())
        for i in range(len(labels))
    ]
    return Dataset("t", examples, C)


# --- input diversity ---------------------------------------------------------

def test_jaccard_half_overlap():
    assert input_diversity({"a", "b", "c"}, {"b", "c", "d"}) == 0.5


def test_jaccard_identical_sets():
    assert input_diversity({"x", "y"}, {"x", "y"}) == 1.0


def test_jaccard_disjoint_sets():
    assert input_diversity({"a"}, {"b"}) == 0.0


def test_jaccard_both_empty_defined_as_zero():
    assert input_diversity(set(), set()) == 0.0


@given(st.sets(st.text(max_size=3), max_size=8), st.sets(st.text(max_size=3), max_size=8))
@settings(max_examples=80, deadline=None)
def test_jaccard_symmetric_and_bounded(a, b):
    j = input_diversity(a, b)
    assert j == input_diversity(b, a)
    assert 0.0 <= j <= 1.0


def test_tokens_of_skips_tokenless(caplog):
    ds = _dataset([0, 1], tokens=[["a", "b"], []])
    with caplog.at_level("WARNING"):
        toks = tokens_of(ds.examples)
    assert toks == {"a", "b"}
    assert "no tokens" in caplog.text


# --- output uncertainty --------------------------------------------------------

def test_uniform_model_gives_log_c():
    model = _zero_weight_model(C=3)
    ds = _dataset([0, 1, 2])
    assert output_uncertainty(model, ds) == pytest.approx(math.log(3), abs=1e-12)


def test_output_uncertainty_rejects_empty():
    model = _zero_weight_model()
    with pytest.raises(ValueError):
        output_uncertainty(model, _dataset([]))


class _FixedProbaModel:
    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def predict_proba(self, xs):
        return self.rows


def test_output_uncertainty_one_hot_is_zero():
    model = _FixedProbaModel([[1.0, 0.0, 0.0]])
    assert output_uncertainty(model, _dataset([0])) == 0.0


def test_output_uncertainty_is_arithmetic_mean():
    model = _FixedProbaModel([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    expected = math.log(2) / 2
    assert output_uncertainty(model, _dataset([0, 1])) == pytest.approx(expected, abs=1e-12)


def test_output_uncertainty_permutation_invariant():
    rng = np.random.default_rng(0)
    cfg = ClassifierConfig(input_dim=2, hidden_dims=(4,), num_classes=3, dropout_rate=0.0)
    weights = [(rng.standard_normal((2, 4)), rng.standard_normal(4)),
               (rng.standard_normal((4, 3)), rng.standard_normal(3))]
    model = Classifier(cfg, weights)
    X = rng.standard_normal((10, 2))
    examples = [Example(i, "s", X[i], 0) for i in range(10)]
    fwd = output_uncertainty(model, Dataset("a", examples, 3))
    rev = output_uncertainty(model, list(reversed(examples)))
    assert fwd == pytest.approx(rev, abs=1e-12)


# --- class distribution ----------------------------------------------------------

def test_class_distribution_counts():
    assert class_distribution(_dataset([0, 0, 1, 2])) == (0.5, 0.25, 0.25)


def test_class_distribution_single_class():
    assert class_distribution(_dataset([1, 1, 1])) == (0.0, 1.0, 0.0)


def test_class_distribution_uniform():
    ds = _dataset([0, 1, 2] * 100)
    assert class_distribution(ds) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_class_distribution_rejects_empty():
    with pytest.raises(ValueError):
        class_distribution(_dataset([]))


# --- acquisition factor ------------------------------------------------------------

def _pool_state(sources):
    examples = [Example(i, s, np.zeros(1), 0) for i, s in enumerate(sources)]
    ds = Dataset("p", examples, 2)
    return PoolState(frozenset(), frozenset(range(len(sources))), ds)


def test_acquisition_factor_two_sources():
    state = _pool_state(["A"] * 10 + ["B"] * 10)
    batch = set(range(8)) | {10, 11}  # 8 from A, 2 from B
    factors = acquisition_factor(batch, state)
    assert factors["A"] == pytest.approx(1.6)
    assert factors["B"] == pytest.approx(0.4)


def test_acquisition_factor_concentrated_batch():
    state = _pool_state(["A"] * 5 + ["B"] * 15)  # A share 0.25
    factors = acquisition_factor({0, 1, 2, 3, 4}, state)
    assert factors["A"] == pytest.approx(4.0)
    assert factors["B"] == pytest.approx(0.0)


def test_acquisition_factor_weighted_mean_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sources = [rng.choice(["A", "B", "C"]) for _ in range(40)]
        state = _pool_state(sources)
        batch = set(int(i) for i in rng.choice(40, size=10, replace=False))
        factors = acquisition_factor(batch, state)
        shares = state.source_shares()
        total = sum(factors[s] * shares[s] for s in factors)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_acquisition_factor_rejects_empty_and_stray():
    state = _pool_state(["A"] * 4)
    with pytest.raises(ValueError):
        acquisition_factor(set(), state)
    with pytest.raises(ValueError):
        acquisition_factor({99}, state)


# --- stratified accuracy -------------------------------------------------------------

class _FixedModel:
    def __init__(self, preds):
        self.preds = np.asarray(preds)

    def predict(self, xs):
        return self.preds


def _datamap_for(ds, difficulties):
    return [
        DatamapEntry(e.id, 0.5, 0.1, 1.0, difficulties[i])
        for i, e in enumerate(ds.examples)
    ]


def test_perfect_model_scores_one_everywhere():
    ds = _dataset([0, 1, 2, 1])
    dm = _datamap_for(ds, ["easy", "easy", "hard", "impossible"])
    res = stratified_accuracy(_FixedModel([0, 1, 2, 1]), ds, dm)
    assert res.accuracies == {"easy": 1.0, "hard": 1.0, "impossible": 1.0}
    assert res.overall == 1.0
    assert sum(res.counts.values()) == len(ds)


def test_empty_difficulty_classes_are_absent():
    ds = _dataset([0, 1])
    dm = _datamap_for(ds, ["easy", "easy"])
    res = stratified_accuracy(_FixedModel([0, 0]), ds, dm)
    assert set(res.accuracies) == {"easy"}
    assert res.accuracies["easy"] == 0.5


def test_overall_is_count_weighted_mean():
    rng = np.random.default_rng(3)
    labels = list(rng.integers(0, 3, size=50))
    ds = _dataset(labels)
    diffs = [("easy", "medium", "hard", "impossible")[i % 4] for i in range(50)]
    dm = _datamap_for(ds, diffs)
    preds = rng.integers(0, 3, size=50)
    res = stratified_accuracy(_FixedModel(preds), ds, dm)
    recombined = sum(res.counts[d] * res.accuracies[d] for d in res.counts) / sum(res.counts.values())
    assert recombined == pytest.approx(res.overall, abs=1e-12)


def test_stratified_rejects_missing_datamap_entry():
    ds = _dataset([0, 1])
    dm = _datamap_for(ds, ["easy", "easy"])[:1]
    with pytest.raises(ValueError):
        stratified_accuracy(_FixedModel([0, 1]), ds, dm)


# --- array kernels against the set-based formulas -----------------------------------

@given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=4), min_size=1, max_size=12), st.data())
@settings(max_examples=80, deadline=None)
def test_csr_jaccard_matches_set_formula(token_lists, data):
    ds = _dataset([0] * len(token_lists), tokens=token_lists)
    acquired = np.array(data.draw(st.lists(st.booleans(), min_size=len(ds), max_size=len(ds))))
    positions = np.flatnonzero(acquired)
    a = [ds.examples[i] for i in positions]
    b = [ds.examples[i] for i in np.flatnonzero(~acquired)]
    expected = input_diversity(tokens_of(a), tokens_of(b))
    assert input_diversity(tokens_of(ds, positions), tokens_of(ds, ~acquired)) == expected


def test_csr_tokens_warn_about_tokenless_rows(caplog):
    ds = _dataset([0, 1, 2], tokens=[["a", "b"], [], []])
    with caplog.at_level("WARNING"):
        present = tokens_of(ds, np.arange(3))
    assert "2 examples carry no tokens" in caplog.text
    assert {ds.vocab[i] for i in np.flatnonzero(present)} == tokens_of(ds.examples)


@given(st.lists(st.sampled_from("ABC"), min_size=2, max_size=40), st.data())
@settings(max_examples=80, deadline=None)
def test_bincount_factors_match_per_id_counts(sources, data):
    ids = set(range(len(sources)))
    labelled = data.draw(st.sets(st.sampled_from(sorted(ids)), max_size=len(sources) - 1))
    unlabelled = sorted(ids - labelled)
    batch = data.draw(st.sets(st.sampled_from(unlabelled), min_size=1))
    examples = [Example(i, s, np.zeros(1), 0) for i, s in enumerate(sources)]
    state = PoolState(labelled, ids - labelled, Dataset("p", examples, 2))

    in_pool = {s: sum(sources[i] == s for i in unlabelled) for s in set(sources)}
    in_batch = {s: sum(sources[i] == s for i in batch) for s in set(sources)}
    shares = {s: c / len(unlabelled) for s, c in in_pool.items() if c}
    assert state.source_shares() == shares
    assert acquisition_factor(batch, state) == {
        s: in_batch[s] / (len(batch) * share) for s, share in shares.items()
    }
