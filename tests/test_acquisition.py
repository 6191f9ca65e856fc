"""Acquisition scoring against independent brute-force oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cartal
from cartal.acquisition import (
    DalConfig,
    predictive_entropy,
    score_bald,
    score_dal,
    score_mcme,
    score_pool,
    select_batch,
    _sigmoid,
)
from cartal.classifier import Classifier, ClassifierConfig, init_weights
from cartal.errors import StateError
from cartal.metrics import acquisition_factor
from cartal.pool import transfer

from conftest import logistic_regression_irls, logistic_regression_lbfgs, make_dataset
from openblas_threads import openblas_threads


# --- oracles: deliberately dumb loop implementations -----------------------

def entropy_oracle(p):
    return -sum(x * math.log(x) for x in p if x > 0)


def mcme_oracle(mc):
    T = len(mc)
    n, C = mc[0].shape
    out = []
    for i in range(n):
        mean = [sum(mc[t][i, c] for t in range(T)) / T for c in range(C)]
        out.append(entropy_oracle(mean))
    return out


def bald_oracle(mc):
    T = len(mc)
    n = mc[0].shape[0]
    out = []
    for i in range(n):
        mean = [sum(mc[t][i, c] for t in range(T)) / T for c in range(mc[0].shape[1])]
        expected = sum(entropy_oracle(mc[t][i]) for t in range(T)) / T
        out.append(max(entropy_oracle(mean) - expected, 0.0))
    return out


def random_prob_matrices(rng, T, n, C):
    raw = rng.random((T, n, C)) + 1e-12
    return raw / raw.sum(axis=2, keepdims=True)


# --- predictive_entropy -----------------------------------------------------

def test_uniform_distribution_maximizes_entropy():
    assert predictive_entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(math.log(3), abs=1e-12)


def test_one_hot_has_zero_entropy():
    assert predictive_entropy([1.0, 0.0, 0.0]) == 0.0


def test_skewed_distribution_matches_oracle():
    p = [0.7, 0.2, 0.1]
    # frozen value computed with the oracle: 0.80181856...
    assert predictive_entropy(p) == pytest.approx(0.8018, abs=1e-4)
    assert predictive_entropy(p) == pytest.approx(entropy_oracle(p), abs=1e-12)


def test_rejects_negative_and_unnormalized():
    with pytest.raises(ValueError):
        predictive_entropy([0.5, 0.6, -0.1])
    with pytest.raises(ValueError):
        predictive_entropy([0.5, 0.6])


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_entropy_matches_oracle_on_random_vectors(seed):
    rng = np.random.default_rng(seed)
    C = int(rng.integers(2, 6))
    p = rng.random(C) + 1e-9
    p /= p.sum()
    assert predictive_entropy(p) == pytest.approx(entropy_oracle(p), abs=1e-9)
    assert 0.0 <= predictive_entropy(p) <= math.log(C) + 1e-12


# --- MCME -------------------------------------------------------------------

def test_mcme_with_single_sample_reduces_to_entropy():
    m = np.array([[0.7, 0.2, 0.1], [0.5, 0.25, 0.25]])
    scores = score_mcme(m[None])
    for row, s in zip(m, scores):
        assert s == pytest.approx(entropy_oracle(row), abs=1e-12)


def test_mcme_mean_of_identical_samples_is_idempotent():
    m = np.array([[0.6, 0.3, 0.1]])
    one = score_mcme(np.stack([m]))[0]
    two = score_mcme(np.stack([m, m]))[0]
    assert one == pytest.approx(two, abs=1e-15)


def test_mcme_disagreeing_one_hot_samples():
    a = np.array([[1.0, 0.0, 0.0]])
    b = np.array([[0.0, 1.0, 0.0]])
    assert score_mcme(np.stack([a, b]))[0] == pytest.approx(math.log(2), abs=1e-12)


def test_mcme_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        score_mcme(np.empty((0, 2, 3)))
    with pytest.raises(ValueError):
        score_mcme([np.ones((2, 3)) / 3, np.ones((3, 3)) / 3])


# --- BALD --------------------------------------------------------------------

def test_bald_zero_when_samples_agree():
    m = np.array([[0.5, 0.3, 0.2]])
    scores = score_bald(np.stack([m, m, m]))
    assert scores[0] == 0.0


def test_bald_maximal_disagreement():
    a = np.array([[1.0, 0.0, 0.0]])
    b = np.array([[0.0, 1.0, 0.0]])
    assert score_bald(np.stack([a, b]))[0] == pytest.approx(math.log(2), abs=1e-12)


def test_bald_aleatoric_only_case_is_zero():
    m = np.array([[0.5, 0.5, 0.0]])
    assert score_bald(np.stack([m, m]))[0] == pytest.approx(0.0, abs=1e-12)


def test_bald_requires_two_samples():
    with pytest.raises(ValueError):
        score_bald(np.ones((1, 1, 2)) / 2)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mc_scores_match_oracles_and_bald_below_mcme(seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 9))
    n = int(rng.integers(1, 8))
    C = int(rng.integers(2, 6))
    mc = random_prob_matrices(rng, T, n, C)
    mcme = score_mcme(mc)
    bald = score_bald(mc)
    mcme_o = mcme_oracle(mc)
    bald_o = bald_oracle(mc)
    for i in range(n):
        assert mcme[i] == pytest.approx(mcme_o[i], abs=1e-9)
        assert bald[i] == pytest.approx(bald_o[i], abs=1e-9)
        assert -1e-12 <= bald[i] <= mcme[i] + 1e-9


# --- DAL ----------------------------------------------------------------------

def test_dal_identical_distributions_score_near_half():
    means = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        lab = rng.standard_normal((500, 4))
        unl = rng.standard_normal((500, 4))
        scores = score_dal(lab, unl)
        means.append(np.mean(scores))
    assert abs(np.mean(means) - 0.5) < 0.05


def test_dal_displaced_cluster_scores_high():
    rng = np.random.default_rng(3)
    lab = rng.standard_normal((300, 4))
    unl = rng.standard_normal((300, 4)) + 8.0
    values = score_dal(lab, unl)
    assert (values > 0.9).all()
    # verification against an independently fit logistic oracle
    sklearn = pytest.importorskip("sklearn.linear_model")
    oracle = sklearn.LogisticRegression(max_iter=1000).fit(
        np.vstack([lab, unl]), np.r_[np.zeros(300), np.ones(300)]
    )
    oracle_scores = oracle.predict_proba(unl)[:, 1]
    assert (oracle_scores > 0.9).all()


def test_dal_displaced_cluster_agrees_with_newton_oracle():
    # the scikit-learn oracle above, as a numpy-only Newton (IRLS) fit and as
    # scipy's minimizer of the same objective, which must find the same optimum
    rng = np.random.default_rng(3)
    lab = rng.standard_normal((300, 4))
    unl = rng.standard_normal((300, 4)) + 8.0
    assert (score_dal(lab, unl) > 0.9).all()
    X, y = np.vstack([lab, unl]), np.r_[np.zeros(300), np.ones(300)]
    w, b = logistic_regression_irls(X, y)
    assert (1.0 / (1.0 + np.exp(-(unl @ w + b))) > 0.9).all()
    pytest.importorskip("scipy")
    w_scipy, b_scipy = logistic_regression_lbfgs(X, y)
    assert (1.0 / (1.0 + np.exp(-(unl @ w_scipy + b_scipy))) > 0.9).all()
    assert np.allclose(np.r_[w_scipy, b_scipy], np.r_[w, b], rtol=0, atol=1e-4)


def test_dal_duplicate_point_sits_near_boundary():
    rng = np.random.default_rng(11)
    lab = rng.standard_normal((500, 4))
    unl = rng.standard_normal((500, 4))
    unl[0] = lab[0]
    scores = score_dal(lab, unl)
    assert abs(scores[0] - 0.5) < 0.1


def test_dal_rejects_empty_and_mismatched_widths():
    with pytest.raises(ValueError):
        score_dal(np.zeros((0, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        score_dal(np.ones((2, 3)), np.ones((2, 4)))


# A DAL round at pool scale: 4k labelled and 56k unlabelled embeddings, as
# in a 54k-pool run, at the BLAS thread count given as the first argument,
# set after import cartal has set one. Prints the SHA-256 of the score bytes.
_DAL_SCORE_DIGESTS = """
import hashlib, sys
import numpy as np
from cartal.acquisition import DalConfig, score_dal
from openblas_threads import openblas_threads
threads = int(sys.argv[1])
assert openblas_threads(threads) == threads
rng = np.random.default_rng(3)
lab = np.maximum(rng.standard_normal((4000, 32)), 0.0)
unl = np.maximum(rng.standard_normal((56000, 32)) + 0.1, 0.0)
print(hashlib.sha256(score_dal(lab, unl, DalConfig(epochs=5)).tobytes()).hexdigest())
"""


def _dal_digest(blas_threads: int) -> str:
    path = [os.path.dirname(os.path.dirname(cartal.__file__)), os.path.dirname(__file__),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", _DAL_SCORE_DIGESTS, str(blas_threads)], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_dal_scores_do_not_depend_on_blas_threads():
    # cartal computes with one BLAS thread; a program that sets more after
    # importing it must get the same bytes
    if openblas_threads() is None:
        pytest.skip("numpy ships no OpenBLAS of its own")
    assert _dal_digest(1) == _dal_digest(2)


def test_score_pool_dal_equals_score_dal_on_embeddings():
    # score_pool embeds straight into the row blocks of one design matrix;
    # the bits must be those of the public two-array entry
    rng = np.random.default_rng(12)
    config = ClassifierConfig(5, (16, 12), 3)
    model = Classifier(config, init_weights(config, rng))
    ds = make_dataset(rng.standard_normal((6000, 5)), rng.integers(0, 3, 6000))
    labelled = rng.random(6000) < 0.15
    X_l, X_u = ds.X[labelled], ds.X[~labelled]
    dal_cfg = DalConfig(epochs=20)
    want = score_dal(model.embed(X_l), model.embed(X_u), dal_cfg)
    got = score_pool("dal", ds.X, np.flatnonzero(~labelled), model, 4, dal_cfg=dal_cfg)
    assert got.tobytes() == want.tobytes()


def _sigmoid_masked(x):
    """The earlier two-branch sigmoid, the reference for the bits."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bits_equal_the_two_branch_formula():
    tiny = np.finfo(float).smallest_subnormal
    edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, tiny, -tiny, 1e-310, -1e-310,
                      np.finfo(float).max, -np.finfo(float).max, 709.78, -709.78, 36.7, -36.7])
    rng = np.random.default_rng(0)
    x = np.concatenate([edges, rng.uniform(-800, 800, 50_000), rng.standard_normal(50_000) * 5,
                        np.linspace(-50, 50, 10_001)])
    with np.errstate(over="ignore"):
        got, want = _sigmoid(x), _sigmoid_masked(x)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()


# --- select_batch ---------------------------------------------------------------

class _ScoredModel:
    """Stub producing fixed per-id probabilities keyed by feature value."""

    def __init__(self, entropy_by_id, C=3):
        self.entropy_by_id = entropy_by_id
        self.C = C

    def mc_predict_proba(self, X, T, rng_seed, rows=None):
        probs = []
        for x in X if rows is None else X[rows]:
            spread = self.entropy_by_id[int(x[0])]
            p = np.full(self.C, spread / self.C)
            p[0] += 1.0 - spread
            probs.append(p)
        return np.stack([np.array(probs)] * max(T, 2))

    def embed(self, X):
        return np.asarray(X, dtype=float)


def _pool_of(ids):
    ids = sorted(ids)
    return make_dataset(np.array(ids, dtype=float)[:, None], np.zeros(len(ids)), ids=ids, num_classes=3)


def _all_unlabelled(ds):
    """The unlabelled rows of a pool none of whose rows is labelled."""
    return np.arange(len(ds))


def test_select_batch_breaks_ties_by_lowest_id():
    ds = _pool_of([2, 5, 7])
    unlabelled = _all_unlabelled(ds)
    model = _ScoredModel({5: 0.9, 2: 0.9, 7: 0.1})
    scores = score_pool("mcme", ds.X, unlabelled, model, 0)
    picked = select_batch("mcme", unlabelled, scores, 1, rng_seed=0)
    assert picked.tolist() == [0]  # the row of id 2


def test_a_batch_is_pool_rows_where_ids_are_not_rows():
    # ids 2, 5, 7 sit at rows 0, 1, 2: taking either for the other picks,
    # counts or labels the wrong example, or refuses a valid one
    ds = make_dataset(np.array([[2.0], [5.0], [7.0]]), np.zeros(3), sources=["A", "B", "B"],
                      ids=[2, 5, 7], num_classes=3)
    unlabelled = _all_unlabelled(ds)
    model = _ScoredModel({2: 0.1, 5: 0.2, 7: 0.9})
    scores = score_pool("mcme", ds.X, unlabelled, model, 0)
    rows = select_batch("mcme", unlabelled, scores, 1, rng_seed=0)
    assert rows.dtype == np.int64 and rows.tolist() == [2]  # the row of id 7
    assert acquisition_factor(ds, rows, unlabelled) == pytest.approx({"A": 0.0, "B": 1.5})
    acquired_round = np.full(len(ds), -1, dtype=np.int32)
    transfer(acquired_round, rows, 1)
    assert ds.ids[acquired_round >= 0].tolist() == [7]
    moved = np.flatnonzero(acquired_round < 0)
    assert select_batch("random", moved, None, 2, rng_seed=0).tolist() == [0, 1]
    for stray in ([2], [5], [7], [-1]):  # labelled, or out of range though an id
        with pytest.raises(StateError, match=str(stray[0])):
            transfer(acquired_round, stray, 2)
        with pytest.raises(ValueError, match=str(stray[0])):
            acquisition_factor(ds, stray, moved)


def test_select_batch_random_is_reproducible():
    ds = _pool_of(range(30))
    unlabelled = _all_unlabelled(ds)
    a = select_batch("random", unlabelled, None, 10, rng_seed=42)
    b = select_batch("random", unlabelled, None, 10, rng_seed=42)
    assert a.tolist() == b.tolist()
    assert len(set(a.tolist())) == 10 and set(a.tolist()) <= set(range(30))


def test_select_batch_exhausts_pool_when_k_equals_size():
    ds = _pool_of(range(12))
    unlabelled = _all_unlabelled(ds)
    model = _ScoredModel({i: 0.5 for i in range(12)})
    for strategy in ("random", "mcme", "bald"):
        scores = score_pool(strategy, ds.X, unlabelled, model, 1)
        assert select_batch(strategy, unlabelled, scores, 12, rng_seed=1).tolist() == list(range(12))


def test_select_batch_rejects_oversized_k():
    ds = _pool_of(range(5))
    unlabelled = _all_unlabelled(ds)
    with pytest.raises(ValueError):
        select_batch("random", unlabelled, None, 6, rng_seed=0)


def test_select_batch_rejects_unknown_strategy():
    ds = _pool_of(range(5))
    unlabelled = _all_unlabelled(ds)
    with pytest.raises(ValueError, match="random"):
        select_batch("margin", unlabelled, None, 2, rng_seed=0)


@pytest.mark.parametrize("scores", [None, np.zeros(4), np.zeros(6)], ids=["none", "short", "long"])
def test_select_batch_rejects_scores_not_one_per_unlabelled_id(scores):
    unlabelled = _all_unlabelled(_pool_of(range(5)))
    with pytest.raises(ValueError, match="5 scores"):
        select_batch("mcme", unlabelled, scores, 2, rng_seed=0)
