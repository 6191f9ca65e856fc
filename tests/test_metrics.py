"""Profiling and evaluation metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartal.cartography import DIFFICULTIES, Datamap
from cartal.classifier import Classifier, ClassifierConfig
from cartal.metrics import (
    acquisition_factor,
    class_distribution,
    input_diversity,
    output_uncertainty,
    stratified_accuracy,
    tokens_of,
)

from conftest import make_dataset


def _zero_weight_model(d=2, C=3):
    cfg = ClassifierConfig(input_dim=d, hidden_dims=(4,), num_classes=C, dropout_rate=0.0)
    weights = [(np.zeros((d, 4)), np.zeros(4)), (np.zeros((4, C)), np.zeros(C))]
    return Classifier(cfg, weights)


def _dataset(labels, sources=None, d=2, C=3, tokens=None):
    return make_dataset(np.zeros((len(labels), d)), labels, sources=sources, tokens=tokens,
                        num_classes=C)


def _jaccard(a, b):
    """input_diversity of two token sets, as presence vectors over their union."""
    vocab = sorted(set(a) | set(b))
    return input_diversity(np.isin(vocab, list(a)), np.isin(vocab, list(b)))


def _token_set(ds, rows):
    """The tokens of ``rows``, collected row by row."""
    bounds = ds.token_indptr
    return {ds.vocab[t] for r in rows for t in ds.token_indices[bounds[r]:bounds[r + 1]]}


# --- input diversity ---------------------------------------------------------

def test_jaccard_half_overlap():
    assert _jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5


def test_jaccard_identical_sets():
    assert _jaccard({"x", "y"}, {"x", "y"}) == 1.0


def test_jaccard_disjoint_sets():
    assert _jaccard({"a"}, {"b"}) == 0.0


def test_jaccard_both_empty_defined_as_zero():
    assert _jaccard(set(), set()) == 0.0


@given(st.sets(st.text(max_size=3), max_size=8), st.sets(st.text(max_size=3), max_size=8))
@settings(max_examples=80, deadline=None)
def test_jaccard_symmetric_and_bounded(a, b):
    j = _jaccard(a, b)
    assert j == _jaccard(b, a)
    assert 0.0 <= j <= 1.0


def test_tokens_of_skips_tokenless(caplog):
    # the metric is pure: run_suite reports token-less rows, once per suite
    ds = _dataset([0, 1], tokens=[["a", "b"], []])
    with caplog.at_level("DEBUG"):
        toks = tokens_of(ds, np.arange(2))
    assert {ds.vocab[i] for i in np.flatnonzero(toks)} == {"a", "b"}
    assert not caplog.records


# --- output uncertainty --------------------------------------------------------

def test_uniform_model_gives_log_c():
    model = _zero_weight_model(C=3)
    ds = _dataset([0, 1, 2])
    assert output_uncertainty(model, ds.X) == pytest.approx(math.log(3), abs=1e-12)


def test_output_uncertainty_rejects_empty():
    model = _zero_weight_model()
    with pytest.raises(ValueError):
        output_uncertainty(model, _dataset([]).X)


class _FixedProbaModel:
    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def predict_proba(self, xs):
        return self.rows


def test_output_uncertainty_one_hot_is_zero():
    model = _FixedProbaModel([[1.0, 0.0, 0.0]])
    assert output_uncertainty(model, _dataset([0]).X) == 0.0


def test_output_uncertainty_is_arithmetic_mean():
    model = _FixedProbaModel([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    expected = math.log(2) / 2
    assert output_uncertainty(model, _dataset([0, 1]).X) == pytest.approx(expected, abs=1e-12)


def test_output_uncertainty_permutation_invariant():
    rng = np.random.default_rng(0)
    cfg = ClassifierConfig(input_dim=2, hidden_dims=(4,), num_classes=3, dropout_rate=0.0)
    weights = [(rng.standard_normal((2, 4)), rng.standard_normal(4)),
               (rng.standard_normal((4, 3)), rng.standard_normal(3))]
    model = Classifier(cfg, weights)
    X = rng.standard_normal((10, 2))
    fwd = output_uncertainty(model, X)
    rev = output_uncertainty(model, X[::-1])
    assert fwd == pytest.approx(rev, abs=1e-12)


# --- class distribution ----------------------------------------------------------

def test_class_distribution_counts():
    assert class_distribution(np.array([0, 0, 1, 2]), 3) == (0.5, 0.25, 0.25)


def test_class_distribution_single_class():
    assert class_distribution(np.array([1, 1, 1]), 3) == (0.0, 1.0, 0.0)


def test_class_distribution_uniform():
    assert class_distribution(np.array([0, 1, 2] * 100), 3) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_class_distribution_rejects_empty():
    with pytest.raises(ValueError):
        class_distribution(np.array([], dtype=np.int64), 3)


# --- acquisition factor ------------------------------------------------------------

def _pool_state(sources, labelled=()):
    """A pool of one row per source name, and its rows outside ``labelled``."""
    ds = make_dataset(np.zeros((len(sources), 1)), np.zeros(len(sources)), sources=sources, num_classes=2)
    return ds, np.flatnonzero(~np.isin(ds.ids, list(labelled)))


def _shares(ds, unlabelled):
    """Fraction of the ``unlabelled`` rows contributed by each source present among them."""
    return {s: c / len(unlabelled) for s, c in ds.source_counts(unlabelled).items() if c}


def test_acquisition_factor_two_sources():
    ds, unlabelled = _pool_state(["A"] * 10 + ["B"] * 10)
    batch = [*range(8), 10, 11]  # 8 from A, 2 from B
    factors = acquisition_factor(ds, batch, unlabelled)
    assert factors["A"] == pytest.approx(1.6)
    assert factors["B"] == pytest.approx(0.4)


def test_acquisition_factor_concentrated_batch():
    ds, unlabelled = _pool_state(["A"] * 5 + ["B"] * 15)  # A share 0.25
    factors = acquisition_factor(ds, [0, 1, 2, 3, 4], unlabelled)
    assert factors["A"] == pytest.approx(4.0)
    assert factors["B"] == pytest.approx(0.0)


def test_acquisition_factor_weighted_mean_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        sources = [rng.choice(["A", "B", "C"]) for _ in range(40)]
        ds, unlabelled = _pool_state(sources)
        batch = rng.choice(40, size=10, replace=False)
        factors = acquisition_factor(ds, batch, unlabelled)
        shares = _shares(ds, unlabelled)
        total = sum(factors[s] * shares[s] for s in factors)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_acquisition_factor_rejects_empty_and_stray():
    ds, unlabelled = _pool_state(["A"] * 4, labelled=[2])
    with pytest.raises(ValueError):
        acquisition_factor(ds, [], unlabelled)
    for stray in ([99], [2], [-1]):  # out of range, labelled, negative
        with pytest.raises(ValueError, match=str(stray[0])):
            acquisition_factor(ds, stray, unlabelled)


# --- stratified accuracy -------------------------------------------------------------

class _FixedModel:
    def __init__(self, preds):
        self.preds = np.asarray(preds)

    def predict(self, xs):
        return self.preds


def _datamap_for(difficulties):
    n = len(difficulties)
    return Datamap(np.full(n, 0.5), np.full(n, 0.1), np.ones(n),
                   np.array([DIFFICULTIES.index(d) for d in difficulties], dtype=np.int64))


def test_perfect_model_scores_one_everywhere():
    ds = _dataset([0, 1, 2, 1])
    dm = _datamap_for(["easy", "easy", "hard", "impossible"])
    res = stratified_accuracy(_FixedModel([0, 1, 2, 1]), ds, dm)
    assert res.accuracies == {"easy": 1.0, "hard": 1.0, "impossible": 1.0}
    assert res.overall == 1.0
    assert sum(res.counts.values()) == len(ds)


def test_empty_difficulty_classes_are_absent():
    ds = _dataset([0, 1])
    dm = _datamap_for(["easy", "easy"])
    res = stratified_accuracy(_FixedModel([0, 0]), ds, dm)
    assert set(res.accuracies) == {"easy"}
    assert res.accuracies["easy"] == 0.5


def test_overall_is_count_weighted_mean():
    rng = np.random.default_rng(3)
    labels = list(rng.integers(0, 3, size=50))
    ds = _dataset(labels)
    diffs = [("easy", "medium", "hard", "impossible")[i % 4] for i in range(50)]
    dm = _datamap_for(diffs)
    preds = rng.integers(0, 3, size=50)
    res = stratified_accuracy(_FixedModel(preds), ds, dm)
    recombined = sum(res.counts[d] * res.accuracies[d] for d in res.counts) / sum(res.counts.values())
    assert recombined == pytest.approx(res.overall, abs=1e-12)


def test_stratified_scores_a_test_set_whose_ids_are_not_its_rows():
    ds = make_dataset(np.zeros((4, 2)), [0, 1, 2, 1], ids=[2, 5, 7, 11], num_classes=3)
    dm = _datamap_for(["easy", "hard", "easy", "impossible"])
    res = stratified_accuracy(_FixedModel([0, 0, 2, 1]), ds, dm)
    assert res.counts == {"easy": 2, "hard": 1, "impossible": 1}
    assert res.accuracies == {"easy": 1.0, "hard": 0.0, "impossible": 1.0}


def test_stratified_rejects_missing_datamap_entry():
    ds = _dataset([0, 1])
    dm = _datamap_for(["easy"])  # the second test row is missing
    with pytest.raises(ValueError):
        stratified_accuracy(_FixedModel([0, 1]), ds, dm)


# --- array kernels against the set-based formulas -----------------------------------

@given(st.lists(st.lists(st.sampled_from("abcdefgh"), max_size=4), min_size=1, max_size=12), st.data())
@settings(max_examples=80, deadline=None)
def test_csr_jaccard_matches_set_formula(token_lists, data):
    ds = _dataset([0] * len(token_lists), tokens=token_lists)
    acquired = np.array(data.draw(st.lists(st.booleans(), min_size=len(ds), max_size=len(ds))))
    positions = np.flatnonzero(acquired)
    a = _token_set(ds, positions)
    b = _token_set(ds, np.flatnonzero(~acquired))
    expected = len(a & b) / len(a | b) if a | b else 0.0
    assert input_diversity(tokens_of(ds, positions), tokens_of(ds, ~acquired)) == expected


def test_csr_tokens_skip_tokenless_rows():
    ds = _dataset([0, 1, 2], tokens=[["a", "b"], [], []])
    present = tokens_of(ds, np.arange(3))
    assert {ds.vocab[i] for i in np.flatnonzero(present)} == _token_set(ds, range(3))
    assert not ds.token_presence([1, 2]).any()


@given(st.lists(st.sampled_from("ABC"), min_size=2, max_size=40), st.data())
@settings(max_examples=80, deadline=None)
def test_bincount_factors_match_per_id_counts(sources, data):
    ids = set(range(len(sources)))
    labelled = data.draw(st.sets(st.sampled_from(sorted(ids)), max_size=len(sources) - 1))
    unlabelled = sorted(ids - labelled)
    batch = data.draw(st.sets(st.sampled_from(unlabelled), min_size=1))
    ds, rows = _pool_state(sources, labelled)
    assert rows.tolist() == unlabelled

    in_pool = {s: sum(sources[i] == s for i in unlabelled) for s in set(sources)}
    in_batch = {s: sum(sources[i] == s for i in batch) for s in set(sources)}
    shares = {s: c / len(unlabelled) for s, c in in_pool.items() if c}
    assert _shares(ds, rows) == shares
    factors = acquisition_factor(ds, sorted(batch), rows)
    assert factors == {s: in_batch[s] / (len(batch) * share) for s, share in shares.items()}
    assert acquisition_factor(ds, sorted(batch), rows, ds.source_counts(sorted(batch))) == factors
