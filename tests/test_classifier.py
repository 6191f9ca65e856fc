"""Classifier numerics: gradients, determinism, dropout scaling, training."""

from __future__ import annotations

import itertools
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartal import classifier
from cartal.classifier import (
    _BLOCK_ROWS,
    _MASK_CHUNK,
    _OUTPUT_MNK,
    Classifier,
    ClassifierConfig,
    TrainConfig,
    fit,
    fit_many,
    init_weights,
    load_checkpoint,
    _forward,
    loss_and_gradients,
    save_checkpoint,
    softmax,
)
from cartal.errors import DivergenceError

from conftest import logistic_regression_irls, logistic_regression_lbfgs, pass_allowance


def _blobs(n_per_class, d=2, sep=4.0, seed=0, C=2):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for c in range(C):
        center = np.zeros(d)
        center[c % d] = sep * (1 + c // d)
        X.append(rng.standard_normal((n_per_class, d)) + center)
        y.append(np.full(n_per_class, c))
    return np.vstack(X), np.concatenate(y)


# --- gradient check -----------------------------------------------------------

def _relative_error(a, b):
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def finite_difference_check(config, weights, X, y, masks, rng, probes_per_tensor=3, h=1e-6):
    """Central finite differences on randomly probed weight entries.

    Biases get a small jitter first so no relu pre-activation sits exactly on
    the kink; entries below the difference resolution are skipped.
    """
    for _, b in weights:
        b += rng.uniform(-0.1, 0.1, size=b.shape)
    _, grads = loss_and_gradients(config, weights, X, y, masks)
    worst = 0.0
    for layer, (W, b) in enumerate(weights):
        for tensor, grad in ((W, grads[layer][0]), (b, grads[layer][1])):
            flat = tensor.ravel()
            gflat = np.asarray(grad).ravel()
            for idx in rng.choice(flat.size, size=min(probes_per_tensor, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_and_gradients(config, weights, X, y, masks)[0]
                flat[idx] = orig - h
                down = loss_and_gradients(config, weights, X, y, masks)[0]
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                if max(abs(fd), abs(gflat[idx])) < 1e-7:
                    continue
                worst = max(worst, _relative_error(fd, gflat[idx]))
    return worst


@pytest.mark.parametrize("net_seed", range(6))
def test_gradients_match_finite_differences(net_seed):
    rng = np.random.default_rng(net_seed)
    d = int(rng.integers(2, 6))
    width = int(rng.integers(2, 9))
    depth = int(rng.integers(1, 3))
    C = int(rng.integers(2, 5))
    activation = "relu" if rng.random() < 0.5 else "tanh"
    config = ClassifierConfig(d, (width,) * depth, C, dropout_rate=0.0, activation=activation)
    weights = init_weights(config, rng)
    X = rng.standard_normal((12, d))
    y = rng.integers(0, C, size=12)
    worst = finite_difference_check(config, weights, X, y, None, rng)
    assert worst < 1e-4


def test_gradients_with_fixed_dropout_masks():
    rng = np.random.default_rng(99)
    config = ClassifierConfig(3, (6, 5), 3, dropout_rate=0.4)
    weights = init_weights(config, rng)
    X = rng.standard_normal((8, 3))
    y = rng.integers(0, 3, size=8)
    masks = [(rng.random((8, 6)) >= 0.4) / 0.6, (rng.random((8, 5)) >= 0.4) / 0.6]
    worst = finite_difference_check(config, weights, X, y, masks, rng)
    assert worst < 1e-4


# --- fit ------------------------------------------------------------------------

def test_fit_separates_linearly_separable_blobs():
    X, y = _blobs(100, sep=5.0, seed=1)
    config = ClassifierConfig(2, (16,), 2, dropout_rate=0.0)
    model = fit(config, (X, y), TrainConfig(max_epochs=20), 3, val=(X, y))
    assert model.accuracy(X, y) >= 0.99
    # independent logistic-regression oracle on the same data
    sklearn = pytest.importorskip("sklearn.linear_model")
    oracle = sklearn.LogisticRegression(max_iter=1000).fit(X, y)
    assert oracle.score(X, y) >= 0.99


def test_fit_on_blobs_agrees_with_newton_oracle():
    # the scikit-learn oracle above, as a numpy-only Newton (IRLS) fit and as
    # scipy's minimizer of the same objective, which must find the same optimum
    X, y = _blobs(100, sep=5.0, seed=1)
    config = ClassifierConfig(2, (16,), 2, dropout_rate=0.0)
    model = fit(config, (X, y), TrainConfig(max_epochs=20), 3, val=(X, y))
    assert model.accuracy(X, y) >= 0.99
    w, b = logistic_regression_irls(X, y)
    assert ((X @ w + b > 0) == y).mean() >= 0.99
    pytest.importorskip("scipy")
    w_scipy, b_scipy = logistic_regression_lbfgs(X, y)
    assert ((X @ w_scipy + b_scipy > 0) == y).mean() >= 0.99
    assert np.allclose(np.r_[w_scipy, b_scipy], np.r_[w, b], rtol=0, atol=1e-4)


def test_fit_is_bitwise_deterministic():
    X, y = _blobs(40, seed=5)
    config = ClassifierConfig(2, (8, 8), 2, dropout_rate=0.3)
    tcfg = TrainConfig(max_epochs=5)
    m1 = fit(config, (X, y), tcfg, 11, val=(X, y))
    m2 = fit(config, (X, y), tcfg, 11, val=(X, y))
    for (W1, b1), (W2, b2) in zip(m1.weights, m2.weights):
        assert (W1 == W2).all() and (b1 == b2).all()


def test_fit_constant_label_predicts_it_everywhere():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 3))
    y = np.full(60, 2)
    config = ClassifierConfig(3, (8,), 4, dropout_rate=0.0)
    model = fit(config, (X, y), TrainConfig(max_epochs=10), 1)
    assert model.accuracy(X, y) == 1.0


def test_fit_rejects_empty_train_set():
    config = ClassifierConfig(2, (4,), 2)
    with pytest.raises(ValueError):
        fit(config, (np.zeros((0, 2)), np.zeros(0, dtype=int)), TrainConfig(), 0)


def test_fit_raises_divergence_error_with_step():
    X, y = _blobs(50, sep=2.0, seed=2)
    config = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="step"):
        fit(config, (X * 1e150, y), TrainConfig(learning_rate=1e10, max_epochs=3), 0)


def test_loss_non_increasing_over_first_epochs_with_small_lr():
    X, y = _blobs(80, sep=3.0, seed=7)
    config = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    losses = []
    for epochs in (1, 2, 3):
        m = fit(config, (X, y), TrainConfig(learning_rate=0.01, max_epochs=epochs), 4)
        losses.append(loss_and_gradients(config, m.weights, X, y)[0])
    init = loss_and_gradients(config, init_weights(config, np.random.default_rng(4)), X, y)[0]
    seq = [init] + losses
    assert all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))


def test_early_stopping_respects_patience():
    X, y = _blobs(50, sep=6.0, seed=3)
    config = ClassifierConfig(2, (8,), 2, dropout_rate=0.0)
    model = fit(config, (X, y), TrainConfig(max_epochs=200, patience=3), 0, val=(X, y))
    assert model.history["epochs"] < 200
    curve = model.history["val_curve"]
    assert model.history["stopped_early"]
    assert model.history["best_epoch"] == curve.index(max(curve)) + 1
    assert model.history["epochs"] - model.history["best_epoch"] == 3


def test_history_without_validation_has_no_best_epoch():
    X, y = _blobs(20, seed=3)
    config = ClassifierConfig(2, (4,), 2, dropout_rate=0.0)
    h = fit(config, (X, y), TrainConfig(max_epochs=4, batch_size=16), 0).history
    assert (h["epochs"], h["steps"], h["best_epoch"], h["stopped_early"]) == (4, 12, None, False)
    assert h["best_val_accuracy"] is None and h["val_curve"] == []


# --- lockstep training ------------------------------------------------------------

def _draw_masks(model, rng, batch_size):
    """One whole-array inverted-dropout mask per hidden layer, drawn layer by
    layer: the draw order both the lockstep engine and MC inference keep."""
    p = model.config.dropout_rate
    return [
        (rng.random((batch_size, h)) >= p) / (1.0 - p)
        for h in model.config.hidden_dims
    ]


def _reference_softmax(logits):
    """The softmax formula with every step in a fresh array, as written before
    the passes over the pool wrote into their own buffers."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return np.exp(shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True)))


def _reference_fit(config, X, y, val_X, val_y, tcfg, seed):
    """Plain per-run SGD, the reference for the lockstep engine: per epoch one
    permutation, then one mask draw per hidden layer and step."""
    rng = np.random.default_rng(seed)
    weights = init_weights(config, rng)
    model = Classifier(config, weights)
    p, n = config.dropout_rate, X.shape[0]
    best_acc, best, stale, curve, step = -1.0, None, 0, [], 0
    for epoch in range(tcfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, tcfg.batch_size):
            idx = order[start:start + tcfg.batch_size]
            masks = _draw_masks(model, rng, idx.size) if p > 0 else None
            loss, grads = loss_and_gradients(config, weights, X[idx], y[idx], masks)
            if not np.isfinite(loss):
                raise DivergenceError("non-finite training loss", step=step)
            for (W, b), (dW, db) in zip(weights, grads):
                W -= tcfg.learning_rate * dW
                b -= tcfg.learning_rate * db
            step += 1
        if val_X.shape[0]:
            acc = model.accuracy(val_X, val_y)
            curve.append(acc)
            if acc > best_acc:
                best_acc, best, stale = acc, [(W.copy(), b.copy()) for W, b in weights], 0
            else:
                stale += 1
                if stale >= tcfg.patience:
                    break
    return (best or weights), {"epochs": epoch + 1, "steps": step, "val_curve": curve}


def _same_weights(a, b):
    return all((W1 == W2).all() and (b1 == b2).all() for (W1, b1), (W2, b2) in zip(a, b))


@given(
    R=st.integers(1, 6), batch=st.integers(1, 12), full=st.integers(0, 4), rem=st.integers(0, 11),
    d=st.integers(1, 4), C=st.integers(2, 4), hidden=st.lists(st.integers(1, 9), min_size=1, max_size=2),
    dropout=st.sampled_from([0.0, 0.3]), activation=st.sampled_from(["relu", "tanh"]),
    patience=st.integers(1, 3), n_val=st.sampled_from([0, 9]), seed=st.integers(0, 2**16),
    chunk_steps=st.sampled_from([None, 1, 2, 3, 4]),
)
@settings(max_examples=40, deadline=None)
def test_fit_many_equals_separate_fits_bit_for_bit(R, batch, full, rem, d, C, hidden, dropout,
                                                   activation, patience, n_val, seed, chunk_steps):
    # chunk_steps, when given, is the steps per chunk of the stacked fit's
    # first epoch; None keeps _MASK_CHUNK, whose one chunk spans every epoch here
    n = max(1, batch * full + rem % batch)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((R, n, d))
    y = rng.integers(0, C, size=(R, n))
    val_X, val_y = rng.standard_normal((n_val, d)), rng.integers(0, C, size=n_val)
    config = ClassifierConfig(d, tuple(hidden), C, dropout_rate=dropout, activation=activation)
    tcfg = TrainConfig(batch_size=batch, max_epochs=8, patience=patience)
    mask_chunk = _MASK_CHUNK if chunk_steps is None else chunk_steps * R * batch * sum(hidden)
    with mock.patch.object(classifier, "_MASK_CHUNK", mask_chunk):
        many = fit_many(config, X, y, tcfg, [seed + r for r in range(R)], val=(val_X, val_y))
    for r in range(R):
        single = fit(config, (X[r], y[r]), tcfg, seed + r, val=(val_X, val_y))
        ref_weights, ref_history = _reference_fit(config, X[r], y[r], val_X, val_y, tcfg, seed + r)
        assert _same_weights(many[r].weights, ref_weights)
        assert _same_weights(single.weights, ref_weights)
        assert many[r].history == single.history
        assert {k: single.history[k] for k in ref_history} == ref_history


def test_diverging_run_fails_alone_in_lockstep():
    # every exit from the stack in one call: run 1 diverges mid-epoch, run 3
    # on an epoch's last step, run 2 stops early and run 0 trains every epoch;
    # once with the whole epoch in one chunk, once with 3 steps per chunk of
    # 4 runs x 16 rows x 8 units, so run 1 leaves in the middle of a chunk
    X, y = _blobs(25, sep=2.0, seed=2)
    stacked = np.stack([X, X * 1e150, -X, X * 1e60])
    labels = np.stack([y] * 4)
    config = ClassifierConfig(2, (8,), 2, dropout_rate=0.3)
    tcfg, seeds = TrainConfig(batch_size=16, max_epochs=6, patience=2), [1, 2, 3, 4]
    for mask_chunk in (_MASK_CHUNK, 3 * 4 * 16 * 8):
        with np.errstate(all="ignore"), mock.patch.object(classifier, "_MASK_CHUNK", mask_chunk):
            many = fit_many(config, stacked, labels, tcfg, seeds, val=(X, y))
        for r, step in ((1, 1), (3, 3)):  # 50 rows in batches of 16: steps 0-3 are the first epoch
            assert isinstance(many[r], DivergenceError) and many[r].step == step
            with np.errstate(all="ignore"), pytest.raises(DivergenceError) as alone:
                _reference_fit(config, stacked[r], y, X, y, tcfg, seeds[r])
            assert alone.value.step == step
        assert not many[0].history["stopped_early"] and many[0].history["epochs"] == 6
        assert many[2].history["stopped_early"] and many[2].history["epochs"] < 6
        for r in (0, 2):
            alone = fit(config, (stacked[r], y), tcfg, seeds[r], val=(X, y))
            assert _same_weights(many[r].weights, alone.weights)
            assert many[r].history == alone.history
    with np.errstate(all="ignore"):  # run 3 alone, its divergence on the last step of its last epoch
        [last] = fit_many(config, stacked[3:], labels[3:], replace(tcfg, max_epochs=1), seeds[3:], val=(X, y))
    assert isinstance(last, DivergenceError) and last.step == 3


def test_fit_holds_no_epoch_sized_copy_of_its_rows():
    # one epoch over 200,000 rows: a fit gathers its rows a chunk of steps at a
    # time, so it never holds a shuffled copy of X (16 MB) or of its labels
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((200_000, 10)), rng.integers(0, 3, size=200_000)
    config = ClassifierConfig(10, (8,), 3, dropout_rate=0.3)
    tracemalloc.start()
    try:
        fit(config, (X, y), TrainConfig(batch_size=64, max_epochs=1), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 3, (peak, X.nbytes)


def test_fit_many_needs_one_seed_per_run():
    X, y = _blobs(10, seed=0)
    config = ClassifierConfig(2, (4,), 2)
    for seeds in ([0], [0, 1, 2]):
        with pytest.raises(ValueError, match=f"{len(seeds)} seeds for 2 runs"):
            fit_many(config, np.stack([X, X]), np.stack([y, y]), TrainConfig(), seeds)


# --- inference -------------------------------------------------------------------

def test_predict_proba_rows_sum_to_one():
    rng = np.random.default_rng(1)
    config = ClassifierConfig(4, (8, 8), 5, dropout_rate=0.0)
    model = Classifier(config, init_weights(config, rng))
    P = model.predict_proba(rng.standard_normal((30, 4)))
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)
    assert (P >= 0).all() and (P <= 1).all()


def test_zero_weight_network_is_uniform():
    config = ClassifierConfig(2, (4,), 3, dropout_rate=0.0)
    weights = [(np.zeros((2, 4)), np.zeros(4)), (np.zeros((4, 3)), np.zeros(3))]
    model = Classifier(config, weights)
    P = model.predict_proba(np.ones((5, 2)))
    assert np.allclose(P, 1 / 3)


def test_predict_proba_is_pure():
    rng = np.random.default_rng(2)
    config = ClassifierConfig(3, (6,), 2, dropout_rate=0.5)
    model = Classifier(config, init_weights(config, rng))
    X = rng.standard_normal((7, 3))
    assert (model.predict_proba(X) == model.predict_proba(X)).all()


def test_predict_proba_rejects_dim_mismatch():
    config = ClassifierConfig(3, (4,), 2)
    model = Classifier(config, init_weights(config, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        model.predict_proba(np.zeros((2, 5)))


# --- Monte-Carlo inference ----------------------------------------------------------

def test_mc_without_dropout_equals_deterministic():
    rng = np.random.default_rng(4)
    config = ClassifierConfig(3, (6,), 3, dropout_rate=0.0)
    model = Classifier(config, init_weights(config, rng))
    X = rng.standard_normal((9, 3))
    det = model.predict_proba(X)
    for m in model.mc_predict_proba(X, T=4, rng_seed=0):
        assert (m == det).all()


def test_mc_fixed_seed_reproducible_and_varying_on_trained_net():
    X, y = _blobs(60, sep=3.0, seed=6, C=3)
    config = ClassifierConfig(2, (16,), 3, dropout_rate=0.3)
    model = fit(config, (X, y), TrainConfig(max_epochs=10), 1)
    a = model.mc_predict_proba(X, T=4, rng_seed=123)
    b = model.mc_predict_proba(X, T=4, rng_seed=123)
    for ma, mb in zip(a, b):
        assert (ma == mb).all()
    spread = np.stack(a).std(axis=0)
    assert spread.max() > 0.0


def test_mc_equals_full_forward_pass_per_sample():
    rng = np.random.default_rng(5)
    for hidden in ((6,), (6, 5)):
        config = ClassifierConfig(3, hidden, 3, dropout_rate=0.4, activation="tanh")
        model = Classifier(config, init_weights(config, rng))
        X = rng.standard_normal((40, 3))
        mask_rng = np.random.default_rng(21)
        expected = [softmax(_forward(model.weights, X, "tanh", _draw_masks(model, mask_rng, 40))[0])
                    for _ in range(3)]
        got = model.mc_predict_proba(X, T=3, rng_seed=21)
        assert all((g == e).all() for g, e in zip(got, expected))


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(48,), (48, 40)])
def test_mc_over_several_mask_chunks_equals_whole_array_masks(activation, hidden):
    # more rows than one chunk of every layer's mask, the last chunk ragged
    rng = np.random.default_rng(6)
    config = ClassifierConfig(4, hidden, 3, dropout_rate=0.3, activation=activation)
    model = Classifier(config, init_weights(config, rng))
    n = 2 * (_MASK_CHUNK // min(hidden)) + 37
    assert all(n % (_MASK_CHUNK // h) for h in hidden)
    X = rng.standard_normal((n, 4))
    mask_rng = np.random.default_rng(13)
    expected = np.stack([softmax(_forward(model.weights, X, activation, _draw_masks(model, mask_rng, n))[0])
                         for _ in range(3)])
    assert model.mc_predict_proba(X, T=3, rng_seed=13).tobytes() == expected.tobytes()


def test_mc_call_holds_its_hidden_buffers_and_output_only():
    # under two output blocks a pass holds one (n, last width) array and runs
    # the other hidden layers a block of rows at a time; the output is (T, n, C)
    rng = np.random.default_rng(3)
    config = ClassifierConfig(10, (32, 32), 3, dropout_rate=0.3)
    model = Classifier(config, init_weights(config, rng))
    n, T = 20_000, 4
    X = rng.standard_normal((n, 10))
    tracemalloc.start()
    try:
        model.mc_predict_proba(X, T=T, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = (n * config.hidden_dims[-1] + T * n * config.num_classes) * 8
    assert peak <= held + pass_allowance(n, config.num_classes, 32), (peak, held)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(5,), (32, 32), (48, 40, 8)])
def test_inference_in_row_blocks_equals_whole_array_forward(activation, hidden):
    # three whole blocks of rows and a ragged fourth against one whole-array pass
    rng = np.random.default_rng(7)
    config = ClassifierConfig(10, hidden, 3, dropout_rate=0.3, activation=activation)
    model = Classifier(config, init_weights(config, rng))
    n = 3 * _BLOCK_ROWS + 37
    X = rng.standard_normal((n, 10))
    logits, caches = _forward(model.weights, X, activation)
    assert model.predict_proba(X).tobytes() == _reference_softmax(logits).tobytes()
    assert model.embed(X).tobytes() == caches[-1][0].tobytes()
    mask_rng = np.random.default_rng(13)
    expected = np.stack([_reference_softmax(_forward(model.weights, X, activation,
                                                     _draw_masks(model, mask_rng, n))[0])
                         for _ in range(3)])
    assert model.mc_predict_proba(X, T=3, rng_seed=13).tobytes() == expected.tobytes()


def _output_block(fan_in, num_classes):
    """The smallest multiple of _BLOCK_ROWS whose output matmul has more than
    _OUTPUT_MNK multiply-adds, counted up one block at a time."""
    return next(m for m in itertools.count(_BLOCK_ROWS, _BLOCK_ROWS) if m * fan_in * num_classes > _OUTPUT_MNK)


def test_an_output_block_of_the_minimum_size_equals_those_rows_of_the_whole_product():
    # the shipped 32 -> 3 output layer; a block one _BLOCK_ROWS smaller can differ
    block = _output_block(32, 3)
    assert block == 12_288
    rng = np.random.default_rng(11)
    h = np.maximum(rng.standard_normal((3 * block + 1001, 32)), 0.0)
    W = rng.uniform(-0.4, 0.4, (32, 3))
    whole = h @ W
    for lo in (0, 37, block, len(h) - block):
        assert (h[lo:lo + block] @ W).tobytes() == whole[lo:lo + block].tobytes(), lo


def test_passes_over_two_output_blocks_equal_whole_array_passes():
    # about 30,000 rows: one whole output block and a ragged second one
    rng = np.random.default_rng(12)
    config = ClassifierConfig(10, (32, 32), 3, dropout_rate=0.3)
    n = 2 * _output_block(32, 3) + 5_000
    X, y = rng.standard_normal((n, 10)), rng.integers(0, 3, n)
    dynamics = []
    model = fit(config, (X, y), TrainConfig(max_epochs=1, eval_interval=1.0, batch_size=256), 2,
                dynamics=dynamics)
    expected = _reference_softmax(_forward(model.weights, X, "relu")[0])
    assert model.predict_proba(X).tobytes() == expected.tobytes()
    [(golds, corrects)] = dynamics  # the one snapshot is the fit's last step, which it returns
    assert golds[0].tobytes() == expected[np.arange(n), y].tobytes()
    assert (corrects[0] == (expected.argmax(axis=1) == y)).all()
    mask_rng = np.random.default_rng(13)
    expected = np.stack([_reference_softmax(_forward(model.weights, X, "relu",
                                                     _draw_masks(model, mask_rng, n))[0])
                         for _ in range(2)])
    assert model.mc_predict_proba(X, T=2, rng_seed=13).tobytes() == expected.tobytes()


def test_passes_over_many_output_blocks_hold_no_pool_sized_hidden_layer():
    # six output blocks: an MC call and a fit's snapshots hold the last hidden
    # layer one block at a time, never (n, last width)
    rng = np.random.default_rng(14)
    config = ClassifierConfig(10, (32, 32), 3, dropout_rate=0.3)
    block = _output_block(32, 3)
    n, T = 6 * block, 2
    X, y = rng.standard_normal((n, 10)), rng.integers(0, 3, n)
    model = Classifier(config, init_weights(config, rng))
    tcfg = TrainConfig(max_epochs=1, eval_interval=0.5, batch_size=512)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    allowance = block * 32 * 8 + pass_allowance(n, 3, 32)
    assert allowance < n * 32 * 8
    mc = peak(lambda: model.mc_predict_proba(X, T=T, rng_seed=1))
    assert mc <= T * n * 3 * 8 + allowance, mc
    dynamics = []
    snapshots = peak(lambda: fit(config, (X, y), tcfg, 0, dynamics=dynamics))
    snapshots -= peak(lambda: fit(config, (X, y), tcfg, 0))
    assert snapshots <= 2 * n * (8 + 1) + allowance, snapshots


def test_rows_equal_passing_the_selected_rows():
    rng = np.random.default_rng(8)
    config = ClassifierConfig(10, (32, 32), 3, dropout_rate=0.3)
    model = Classifier(config, init_weights(config, rng))
    X = rng.standard_normal((2 * _BLOCK_ROWS + 500, 10))
    rows = rng.permutation(len(X))[:2 * _BLOCK_ROWS + 100]
    assert model.embed(X, rows=rows).tobytes() == model.embed(X[rows]).tobytes()
    assert (model.mc_predict_proba(X, 4, 5, rows=rows).tobytes()
            == model.mc_predict_proba(X[rows], 4, 5).tobytes())
    det = Classifier(replace(config, dropout_rate=0.0), model.weights)
    expected = np.stack([det.predict_proba(X[rows])] * 2)
    assert det.mc_predict_proba(X, 2, 5, rows=rows).tobytes() == expected.tobytes()


def test_mc_rejects_zero_samples():
    config = ClassifierConfig(2, (4,), 2)
    model = Classifier(config, init_weights(config, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        model.mc_predict_proba(np.zeros((1, 2)), T=0, rng_seed=0)


def test_mc_logit_mean_matches_deterministic_within_two_percent():
    # single hidden layer: inverted dropout makes E[logits] exact
    rng = np.random.default_rng(8)
    config = ClassifierConfig(4, (32,), 3, dropout_rate=0.3)
    model = Classifier(config, init_weights(config, rng))
    x = rng.standard_normal((1, 4))
    h = model.embed(x)
    W, b = model.weights[-1]
    det_logits = (h @ W + b)[0]
    n_samples = 20_000
    mask_rng = np.random.default_rng(77)
    acc = np.zeros_like(det_logits)
    for _ in range(n_samples):
        mask = (mask_rng.random(h.shape) >= 0.3) / 0.7
        acc += ((h * mask) @ W + b)[0]
    mc_logits = acc / n_samples
    scale = max(1.0, np.abs(det_logits).max())
    assert np.abs(mc_logits - det_logits).max() <= 0.02 * scale


# --- embeddings and checkpoints ---------------------------------------------------

def test_embed_shape_purity_and_relu_range():
    rng = np.random.default_rng(9)
    config = ClassifierConfig(5, (7, 6), 3, dropout_rate=0.4, activation="relu")
    model = Classifier(config, init_weights(config, rng))
    X = rng.standard_normal((11, 5))
    E = model.embed(X)
    assert E.shape == (11, 6)
    assert (E >= 0).all()
    assert (E == model.embed(X)).all()


def test_embed_into_a_view_equals_embed():
    rng = np.random.default_rng(10)
    for hidden in ((6,), (7, 6)):
        config = ClassifierConfig(5, hidden, 3, activation="tanh")
        model = Classifier(config, init_weights(config, rng))
        X = rng.standard_normal((11, 5))
        design = np.full((14, 8), np.nan)
        view = design[2:13, 1:7]
        assert model.embed(X, out=view) is view
        assert view.tobytes() == model.embed(X).tobytes()
        assert np.isnan(design[:2]).all() and np.isnan(design[:, [0, 7]]).all()


def test_checkpoint_roundtrip_is_exact(tmp_path):
    X, y = _blobs(30, seed=12)
    config = ClassifierConfig(2, (5,), 2, dropout_rate=0.2)
    model = fit(config, (X, y), TrainConfig(max_epochs=3), 2)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    with open(path) as fh:
        assert fh.read(20).find("CARTAL1") > 0
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    for (W1, b1), (W2, b2) in zip(model.weights, loaded.weights):
        assert (W1 == W2).all() and (b1 == b2).all()
    assert (loaded.predict_proba(X) == model.predict_proba(X)).all()


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"magic": "NOPE", "layers": []}')
    with pytest.raises(ValueError, match="CARTAL1"):
        load_checkpoint(path)


def _corrupt_layer_count(payload):
    payload["layers"].pop()


def _corrupt_shape(payload):
    payload["layers"][1]["shape"] = [4, 2]


def _corrupt_weight_count(payload):
    payload["layers"][0]["W"].pop()


def _corrupt_missing_config_key(payload):
    del payload["config"]["num_classes"]


def _corrupt_unknown_config_key(payload):
    payload["config"]["depth"] = 2


def _corrupt_layer_keys(payload):
    del payload["layers"][0]["b"]


def _corrupt_to_list(payload):
    return [payload]


def _corrupt_weights_to_number(payload):
    payload["layers"][0]["W"] = 3


def _corrupt_bias_entry(payload):
    payload["layers"][1]["b"][0] = "0.5"


def _corrupt_shape_to_number(payload):
    payload["layers"][0]["shape"] = 10


def _corrupt_float_input_dim(payload):
    payload["config"]["input_dim"] = 2.0


def _corrupt_float_num_classes(payload):
    payload["config"]["num_classes"] = 2.0


def _corrupt_bool_num_classes(payload):
    payload["config"]["num_classes"] = True


def _corrupt_float_width(payload):
    payload["config"]["hidden_dims"] = [5.7]


def _corrupt_width_to_number(payload):
    payload["config"]["hidden_dims"] = 5


@pytest.mark.parametrize("corrupt, message", [
    (_corrupt_layer_count, "1 layers, expected 2"),
    (_corrupt_shape, r"layer 1 has shape \[4, 2\], expected \[5, 2\]"),
    (_corrupt_weight_count, "layer 0 holds 9 weights"),
    (_corrupt_missing_config_key, r"model.json: checkpoint config keys are \['activation', "
                                  r"'dropout_rate', 'hidden_dims', 'input_dim'\], expected"),
    (_corrupt_unknown_config_key, r"model.json: checkpoint config keys are \[.*'depth'"),
    (_corrupt_layer_keys, "layer 0 must hold exactly shape, W and b"),
    (_corrupt_to_list, "not a CARTAL1 checkpoint: .*model.json"),
    (_corrupt_weights_to_number, "model.json: layer 0 W and b must be lists of numbers"),
    (_corrupt_bias_entry, "model.json: layer 1 W and b must be lists of numbers"),
    (_corrupt_shape_to_number, r"model.json: layer 0 has shape 10, expected \[2, 5\]"),
    # a float dim failed in a reshape, naming no file; a float width was truncated
    (_corrupt_float_input_dim, "model.json: checkpoint config 'input_dim' must be an integer, got 2.0"),
    (_corrupt_float_num_classes, "model.json: checkpoint config 'num_classes' must be an integer"),
    (_corrupt_bool_num_classes, "model.json: checkpoint config 'num_classes' must be an integer, got True"),
    (_corrupt_float_width, r"model.json: checkpoint config 'hidden_dims' must be a list of integers, "
                           r"got \[5.7\]"),
    (_corrupt_width_to_number, "model.json: checkpoint config 'hidden_dims' must be a list of integers"),
])
def test_checkpoint_rejects_corrupt_layers(tmp_path, corrupt, message):
    config = ClassifierConfig(2, (5,), 2)
    path = tmp_path / "model.json"
    save_checkpoint(Classifier(config, init_weights(config, np.random.default_rng(0))), path)
    payload = json.loads(path.read_text())
    payload = corrupt(payload) or payload
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


def test_dynamics_snapshot_count():
    X, y = _blobs(32, seed=13)  # 64 examples, batch 32 -> 2 steps/epoch
    config = ClassifierConfig(2, (4,), 2, dropout_rate=0.0)
    dynamics = []
    model = fit(config, (X, y), TrainConfig(max_epochs=3, eval_interval=0.5, batch_size=32), 0,
                dynamics=dynamics)
    [(golds, corrects)] = dynamics  # one (T, n) pair, row t for snapshot t
    assert len(golds) == len(corrects) == 6
    assert all(g.shape == c.shape == (64,) and c.dtype == bool for g, c in zip(golds, corrects))
    gold, correct = golds[-1], corrects[-1]  # the last snapshot is the fit's last step, which it returns
    probs = model.predict_proba(X)
    assert gold.tobytes() == probs[np.arange(64), y].tobytes()
    assert (correct == (probs.argmax(axis=1) == y)).all()


def test_dynamics_needs_a_single_run():
    X, y = _blobs(10, seed=0)
    config = ClassifierConfig(2, (4,), 2)
    with pytest.raises(ValueError, match="single run"):
        fit_many(config, np.stack([X, X]), np.stack([y, y]), TrainConfig(), [0, 1], dynamics=[])


@pytest.mark.parametrize("n", [1, 20, 32])
def test_dynamics_finer_than_one_step_is_refused(n):
    # n <= batch_size is one step per epoch, which eval_interval 0.5 would snapshot twice
    X, y = _blobs(32, seed=0)
    config = ClassifierConfig(2, (4,), 2)
    tcfg = TrainConfig(max_epochs=2, eval_interval=0.5, batch_size=32)
    with pytest.raises(ValueError, match=f"eval_interval 0.5 .*: {n} rows at batch_size 32 make 1 steps"):
        fit(config, (X[:n], y[:n]), tcfg, 0, dynamics=[])
    fit(config, (X[:n], y[:n]), tcfg, 0)  # a fit that takes no snapshot trains
    dynamics = []  # two steps per epoch: one snapshot after each
    fit(config, (X[:n + 32], y[:n + 32]), tcfg, 0, dynamics=dynamics)
    assert len(dynamics[0][0]) == 4


@pytest.mark.parametrize("logits", [
    np.random.default_rng(0).standard_normal((1000, 3)) * 30,
    np.array([[700.0, -700.0, 0.0], [-700.0, -700.0, -700.0], [700.0, 700.0, -700.0]]),
    np.full((50, 4), 2.5),
    np.array([[0.3, -1.2, 4.0]]),
    np.random.default_rng(1).standard_normal((5, 7, 3)),
], ids=["random", "pm700", "equal", "one-row", "stacked"])
def test_softmax_in_place_equals_the_fresh_array_formula(logits):
    expected = _reference_softmax(logits).tobytes()
    assert softmax(logits).tobytes() == expected
    buf = logits.copy()
    assert softmax(buf, out=buf) is buf
    assert buf.tobytes() == expected


def test_snapshot_columns_equal_fresh_array_softmax_of_the_weights_at_each_snapshot():
    # at eval_interval 1 snapshot j ends epoch j, whose weights a fit of j epochs returns
    X, y = _blobs(100, seed=3, C=3)
    config = ClassifierConfig(2, (8,), 3, dropout_rate=0.2)
    dynamics = []
    fit(config, (X, y), TrainConfig(max_epochs=3, eval_interval=1.0), 5, dynamics=dynamics)
    [(golds, corrects)] = dynamics
    assert len(golds) == len(corrects) == 3
    for epochs, (gold, correct) in enumerate(zip(golds, corrects), start=1):
        model = fit(config, (X, y), TrainConfig(max_epochs=epochs, eval_interval=1.0), 5)
        probs = _reference_softmax(_forward(model.weights, X, "relu")[0])
        assert gold.tobytes() == probs[np.arange(len(y)), y].tobytes()
        assert (correct == (probs.argmax(axis=1) == y)).all()


def test_best_val_accuracy_is_the_accuracy_of_the_returned_weights():
    """The experiment layer reads a fit's val accuracy from its history instead
    of evaluating again, for early-stopped runs, full runs and runs that train
    beside a diverged one."""
    X, y = _blobs(40, sep=1.5, seed=5)
    val_X, val_y = _blobs(30, sep=1.5, seed=6)
    config = ClassifierConfig(2, (8,), 2, dropout_rate=0.3)
    stopped = fit(config, (X, y), TrainConfig(max_epochs=200, patience=2), 1, val=(val_X, val_y))
    full = fit(config, (X, y), TrainConfig(max_epochs=8, patience=9), 1, val=(val_X, val_y))
    with np.errstate(all="ignore"):
        beside = fit_many(config, np.stack([X, X * 1e150]), np.stack([y, y]), TrainConfig(max_epochs=6),
                          [1, 2], val=(val_X, val_y))
    assert stopped.history["stopped_early"] and not full.history["stopped_early"]
    assert full.history["best_epoch"] < full.history["epochs"]  # the best weights were restored
    assert isinstance(beside[1], DivergenceError)
    for model in (stopped, full, beside[0]):
        assert model.history["best_val_accuracy"] == model.accuracy(val_X, val_y)
