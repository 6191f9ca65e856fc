"""Small feed-forward probabilistic classifier trained with mini-batch SGD.

Everything runs on numpy at double precision. Dropout is inverted (activations
scaled by 1/(1-p) while masks are active) so deterministic inference needs no
rescaling; Monte-Carlo inference re-enables the masks. Analytic gradients are
exposed through :func:`loss_and_gradients` so they can be checked against
finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .artifacts import reading, write_json
from .errors import ConfigError, DivergenceError

CHECKPOINT_MAGIC = "CARTAL1"

__all__ = [
    "ClassifierConfig",
    "TrainConfig",
    "Classifier",
    "fit",
    "fit_many",
    "init_weights",
    "loss_and_gradients",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ClassifierConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (32, 32)
    num_classes: int = 2
    dropout_rate: float = 0.3
    activation: str = "relu"

    def __post_init__(self):
        # keyed by field: an experiment config prefixes "classifier"
        if not self.hidden_dims or min(self.hidden_dims) < 1:
            raise ConfigError("need at least one hidden layer, each of width >= 1", key="hidden_dims")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"must lie in [0, 1), got {self.dropout_rate}", key="dropout_rate")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"must be 'relu' or 'tanh', got {self.activation!r}", key="activation")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    eval_interval: float = 0.5

    def __post_init__(self):
        # keyed by field, as ClassifierConfig; "not >" rejects NaN too
        if not self.learning_rate > 0:
            raise ConfigError(f"must be > 0, got {self.learning_rate}", key="learning_rate")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"must be >= 1, got {getattr(self, name)}", key=name)
        if not 0.0 < self.eval_interval <= 1.0:
            raise ConfigError(f"must lie in (0, 1], got {self.eval_interval}", key="eval_interval")


def _as_features(xs, expected_dim=None) -> np.ndarray:
    X = np.asarray(xs, dtype=float)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if expected_dim is not None and X.shape[1] != expected_dim:
        raise ValueError(f"feature dim {X.shape[1]} does not match model input_dim {expected_dim}")
    return X


def _as_xy(data):
    if isinstance(data, tuple) and len(data) == 2:
        return np.asarray(data[0], dtype=float), np.asarray(data[1], dtype=np.int64)
    raise TypeError(f"expected an (X, y) pair, got {type(data).__name__}")


def init_weights(config: ClassifierConfig, rng: np.random.Generator):
    """He-style uniform initialization, biases zero."""
    dims = (config.input_dim, *config.hidden_dims, config.num_classes)
    weights = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        weights.append((W, b))
    return weights


def _activate(z, activation, out=None):
    return np.maximum(z, 0.0, out=out) if activation == "relu" else np.tanh(z, out=out)


def _forward(weights, X, activation, masks=None):
    """Forward pass for training; returns logits and per-layer caches for backprop.

    ``masks`` are pre-scaled inverted-dropout masks, one per hidden layer, or
    None for deterministic passes. Weights may be stacked: W of shape
    (R, fan_in, fan_out) and b of shape (R, fan_out) run R networks at once,
    each slice through the same matmul a single network makes. Inference
    runs through :func:`_probabilities` instead, which holds less.
    """
    h = X
    caches = []
    n_hidden = len(weights) - 1
    for l in range(n_hidden):
        W, b = weights[l]
        z = h @ W
        z += b[..., None, :]
        a = _activate(z, activation, out=z)
        m = masks[l] if masks is not None else None
        h_out = a * m if m is not None else a
        caches.append((h, a, m))
        h = h_out
    W, b = weights[-1]
    logits = h @ W
    logits += b[..., None, :]
    caches.append((h, None, None))
    return logits, caches


# Rows per block of an inference pass's hidden layers. Hidden layers of the
# shipped widths keep the bits of one whole-array matmul (README
# "Determinism"). On a 2-vCPU x86-64 Xeon, predict_proba over 6,000 rows took
# 1.55 ms in 2,048-row blocks, 3.5 ms in 8,192-row ones. Peak RSS does not
# depend on it (pool54k: 88.9-89.0 MB, 1,024-8,192 rows); faults do: 32-wide
# blocks pass the 1 MiB mmap threshold (cartal.heap) from 4,096 rows up.
_BLOCK_ROWS = 2048

# An output-layer block has more than this many multiply-adds (M*N*K).
# OpenBLAS runs a matmul of at most 10^6 of them through its small-matrix
# kernel, whose bits for a width leaving 1-4 after a multiple of 8 (a 3-class
# output) depend on the row count; above it every block of rows has the bits
# of the same rows of one whole-array matmul.
_OUTPUT_MNK = 1 << 20


def _last_hidden(weights, X, activation, rows=None, out=None, dropout=None):
    """The last hidden layer of the network ``weights`` over ``X``, or over
    ``X[rows]`` when row positions are given, one block of rows at a time.

    The result, (n, last width), is written into ``out`` when given, which
    may be a view; DAL's embeddings are the one caller that keeps it at the
    pool's size, the passes of :func:`_probabilities` take it a block at a
    time. Every other layer exists for one block of ``_BLOCK_ROWS`` at a
    time. ``dropout`` is (p, streams) for an MC pass: ``streams[l]`` is a
    generator at the start of layer l's whole-layer mask draw, so masking
    the blocks in row order takes its uniforms in the order one whole-layer
    draw does.
    """
    n = len(X) if rows is None else len(rows)
    if out is None:
        out = np.empty((n, weights[-2][0].shape[1]))
    last = len(weights) - 2
    for lo in range(0, n, _BLOCK_ROWS):
        h = X[lo:lo + _BLOCK_ROWS] if rows is None else X[rows[lo:lo + _BLOCK_ROWS]]
        for l, (W, b) in enumerate(weights[:-1]):
            z = np.matmul(h, W, out=out[lo:lo + _BLOCK_ROWS] if l == last else None)
            z += b
            _activate(z, activation, out=z)
            if dropout is not None:
                p, streams = dropout
                z *= (streams[l].random(z.shape) >= p) / (1.0 - p)
            h = z
    return out


def _log_softmax(logits, out=None):
    """Log-softmax over the last axis into ``out``, which may be ``logits``."""
    # The row max as one np.maximum per class: a reduction along the short
    # class axis loops once per row (3 ms against under 0.5 ms on 54k x 3
    # classes). Max is exact, so the bits are those of logits.max(axis=-1).
    top = logits[..., :1]
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c:c + 1])
    shifted = np.subtract(logits, top, out=out)
    norm = np.add.reduce(np.exp(shifted), axis=-1, keepdims=True)
    shifted -= np.log(norm, out=norm)
    return shifted


def softmax(logits, out=None):
    """Class probabilities; ``out`` as in :func:`_log_softmax`."""
    logp = _log_softmax(logits, out)
    return np.exp(logp, out=logp)


def _probabilities(weights, X, activation, rows=None, out=None, dropout=None):
    """Class probabilities of the network ``weights`` over ``X``, or over
    ``X[rows]``, written into ``out`` (n, C) when given; ``rows`` and
    ``dropout`` as in :func:`_last_hidden`.

    The output layer runs over blocks of rows, each the smallest multiple of
    ``_BLOCK_ROWS`` with more than ``_OUTPUT_MNK`` multiply-adds (12,288 rows
    for a 32 -> 3 layer), so each block has the bits of a whole-array
    matmul. The remainder joins the last block, and a pass of fewer than two
    blocks runs as one. So the last hidden layer exists for one block at a
    time, and the softmax writes all but its exponentials into ``out``.
    """
    W, b = weights[-1]
    n = len(X) if rows is None else len(rows)
    if out is None:
        out = np.empty((n, W.shape[1]))
    block = _BLOCK_ROWS * (_OUTPUT_MNK // (_BLOCK_ROWS * W.size) + 1)
    bounds = [i * block for i in range(max(1, n // block))] + [n]
    widest = bounds[-1] - bounds[-2]  # the last block, which takes the remainder
    hidden = np.empty((widest, W.shape[0]))
    for lo, hi in zip(bounds, bounds[1:]):
        Xb, rb = (X[lo:hi], None) if rows is None else (X, rows[lo:hi])
        h = _last_hidden(weights, Xb, activation, rb, hidden[:hi - lo], dropout)
        logits = np.matmul(h, W, out=out[lo:hi])
        logits += b
        softmax(logits, logits)
    return out


def loss_and_gradients(config, weights, X, y, masks=None):
    """Mean cross-entropy and its analytic gradients for every layer.

    This is the single gradient path: training calls the arithmetic below it,
    :func:`_gradients`, with its own buffers. Tests compare it against central
    finite differences of the returned loss. With stacked weights, X (R, n, d)
    and y (R, n), the loss is one value per network.
    """
    gold = y[..., None] == np.arange(weights[-1][0].shape[-1])
    lead = np.broadcast_shapes(X.shape[:-2], weights[0][0].shape[:-2])
    grads = [(np.empty(lead + W.shape[-2:]), np.empty(lead + b.shape[-1:])) for W, b in weights]
    total = _gradients(config, weights, X, gold, masks, grads)
    return -(total / X.shape[-2]), grads


def _gradients(config, weights, X, gold, masks, grads):
    """:func:`loss_and_gradients` with the gold labels given one-hot (bool,
    shaped like the logits) and each gradient written into ``grads``, a
    (dW, db) pair of arrays per layer. Returns the gold log-probabilities
    summed per network, which is minus the loss times the batch size."""
    n = X.shape[-2]
    logits, caches = _forward(weights, X, config.activation, masks)
    logp = _log_softmax(logits)
    total = np.add.reduce(logp[gold].reshape(gold.shape[:-1]), axis=-1)

    dlogits = np.exp(logp)
    dlogits -= gold
    dlogits /= n

    h_last = caches[-1][0]
    np.matmul(h_last.swapaxes(-1, -2), dlogits, out=grads[-1][0])
    np.add.reduce(dlogits, axis=-2, out=grads[-1][1])
    dh = dlogits @ weights[-1][0].swapaxes(-1, -2)
    for l in range(len(weights) - 2, -1, -1):
        h_in, a, m = caches[l]
        if m is not None:
            dh *= m
        if config.activation == "relu":
            dh *= a > 0  # relu(z) > 0 exactly where z > 0
        else:
            slope = a * a
            dh *= np.subtract(1.0, slope, out=slope)
        np.matmul(h_in.swapaxes(-1, -2), dh, out=grads[l][0])
        np.add.reduce(dh, axis=-2, out=grads[l][1])
        if l > 0:
            dh = dh @ weights[l][0].swapaxes(-1, -2)
    return total


@dataclass
class Classifier:
    """Trained model. Immutable after :func:`fit`; inference is read-only."""

    config: ClassifierConfig
    weights: list = field(repr=False)
    history: dict = field(default_factory=dict)

    def predict_proba(self, xs) -> np.ndarray:
        """Deterministic class probabilities (dropout off), rows sum to 1."""
        X = _as_features(xs, self.config.input_dim)
        return _probabilities(self.weights, X, self.config.activation)

    def predict(self, xs) -> np.ndarray:
        return np.argmax(self.predict_proba(xs), axis=1)

    def mc_predict_proba(self, xs, T: int, rng_seed: int, rows=None) -> np.ndarray:
        """T stochastic forward passes with fresh inverted-dropout masks, stacked (T, n, C).

        ``rows``, row positions into ``xs``, scores ``xs[rows]`` without
        copying it. Each pass is one :func:`_probabilities` call into its
        slice of the result, so no layer, mask or copy of the rows exists at
        the pool's size: the last hidden layer lives for one output block,
        the others for one block of ``_BLOCK_ROWS``. The masks are those of
        whole-layer draws from one generator, pass by pass and layer by
        layer: each layer draws from a generator seeded with ``rng_seed``,
        advanced to where its draw begins. Without dropout the masks are all
        1.0 and change no bit.
        """
        if T < 1:
            raise ValueError(f"T must be >= 1: {T}")
        X = _as_features(xs, self.config.input_dim)
        p = self.config.dropout_rate
        n = len(X) if rows is None else len(rows)
        out = np.empty((T, n, self.config.num_classes))
        for t in range(T):
            streams, at = [], t * n * sum(self.config.hidden_dims)
            for width in self.config.hidden_dims:
                stream = np.random.default_rng(rng_seed)
                stream.bit_generator.advance(at)  # one 64-bit draw per uniform
                streams.append(stream)
                at += n * width
            _probabilities(self.weights, X, self.config.activation, rows, out[t], (p, streams))
        return out

    def embed(self, xs, out=None, rows=None) -> np.ndarray:
        """Penultimate-layer activations, deterministic; width = last hidden dim.

        ``out`` (n, width), which may be a view, takes the result; ``rows``,
        row positions into ``xs``, embeds ``xs[rows]`` without copying it.
        DAL scores on these; perfbench's tracer times calls to it by this name.
        """
        X = _as_features(xs, self.config.input_dim)
        return _last_hidden(self.weights, X, self.config.activation, rows, out)

    def accuracy(self, xs, y) -> float:
        y = np.asarray(y, dtype=np.int64)
        if y.size == 0:
            raise ValueError("cannot score an empty example set")
        return float((self.predict(xs) == y).mean())


def _snapshot_steps(max_epochs, eval_interval, steps_per_epoch):
    # Snapshot j fires once ceil(j * interval * steps/epoch) steps are done.
    count = math.floor(max_epochs / eval_interval + 1e-9)
    return [math.ceil(j * eval_interval * steps_per_epoch - 1e-9) for j in range(1, count + 1)]


def _layer_views(flat, config):
    """Per-layer (W, b) views of stacked parameters held flat, one run per row
    of ``flat``: each layer's W (fan_in x fan_out, row-major), then its b."""
    dims = (config.input_dim, *config.hidden_dims, config.num_classes)
    views, at = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = flat[:, at:at + fan_in * fan_out].reshape(len(flat), fan_in, fan_out)
        at += fan_in * fan_out
        views.append((W, flat[:, at:at + fan_out]))
        at += fan_out
    return views


# Mask uniforms per chunk of steps, over all runs of a lockstep fit. A chunk
# draws its masks (one draw per run) and gathers its rows and one-hot labels:
# about 1 MB even when one epoch covers a whole pool, not tens of MB.
_MASK_CHUNK = 1 << 16


def fit(config: ClassifierConfig, train, tcfg: TrainConfig, seed: int, val=None,
        dynamics: list | None = None) -> Classifier:
    """Train a fresh model on the ``(X, y)`` pair ``train`` with mini-batch
    SGD from ``seed`` and patience-based early stop.

    This is :func:`fit_many` for one run; a divergence raises its
    :class:`DivergenceError`. Early stopping tracks accuracy on the ``(X, y)``
    pair ``val`` per epoch and restores the best weights seen; without it
    training runs all epochs. ``dynamics`` is as in :func:`fit_many`.
    """
    X, y = _as_xy(train)
    [model] = fit_many(config, X[None], y[None], tcfg, [seed], val, dynamics)
    if isinstance(model, DivergenceError):
        raise model
    return model


def fit_many(config: ClassifierConfig, X, y, tcfg: TrainConfig, seeds, val=None,
             dynamics: list | None = None) -> list:
    """Train R fresh models in lockstep, one per stacked training set.

    ``X`` is (R, n, d) and ``y`` is (R, n); every run trains by ``tcfg``,
    and run r draws from a generator seeded with ``seeds[r]``. Each step is
    one forward and backward pass over the runs' stacked weights. Every run
    draws from its own generator exactly what a separate fit draws, in the
    same order (per epoch a permutation, then the dropout masks of its
    steps), so run r ends with the bits of a fit on ``(X[r], y[r])`` alone.
    Early stopping is per run, read off its accuracy curve on the ``(X, y)``
    pair ``val``. A run leaves the stack at the end of the step on which it
    stops, diverges or ends its last epoch.

    Returns one entry per run: its :class:`Classifier`, or the
    :class:`DivergenceError` of a run whose loss went non-finite (the other
    runs go on). With a ``dynamics`` list, which needs R == 1, the fit
    snapshots its own training rows every ``eval_interval`` fraction of an
    epoch, dropout off, and appends one pair of (T, n) arrays when it ends:
    row t of the first holds each row's gold-label probability at snapshot
    t, row t of the second whether its argmax prediction is correct. Both
    are allocated when the fit starts, one row per planned snapshot, and T
    counts the snapshots taken.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 3 or y.shape != X.shape[:2]:
        raise ValueError(f"expected X (R, n, d) and y (R, n), got {X.shape} and {y.shape}")
    R, n, d = X.shape
    if n == 0:
        raise ValueError("training set is empty")
    if d != config.input_dim:
        raise ValueError(f"train feature dim {d} != config input_dim {config.input_dim}")
    if len(seeds) != R:
        raise ValueError(f"{len(seeds)} seeds for {R} runs")
    val_X, val_y = _as_xy(val) if val is not None else (np.zeros((0, d)), np.zeros(0, np.int64))
    if dynamics is not None and R != 1:
        raise ValueError(f"dynamics needs a single run, got {R}")

    rngs = [np.random.default_rng(seed) for seed in seeds]
    # All runs' parameters in one (R, P) buffer and their gradients in
    # another, each layer a view: one call pair updates every parameter.
    flat = np.stack([np.concatenate([a.ravel() for layer in init_weights(config, rng) for a in layer])
                     for rng in rngs])
    grad = np.empty_like(flat)
    weights, grads = _layer_views(flat, config), _layer_views(grad, config)
    lr = tcfg.learning_rate
    B = tcfg.batch_size
    steps_per_epoch = math.ceil(n / B)
    snap_at, next_snap = [], 0
    if dynamics is not None:  # snapshot t writes row t; probs is rewritten by every snapshot
        if tcfg.eval_interval * steps_per_epoch < 1:  # two snapshots would share a step
            raise ValueError(f"eval_interval {tcfg.eval_interval} snapshots more than once per SGD step: "
                             f"{n} rows at batch_size {B} make {steps_per_epoch} steps per epoch")
        snap_at = _snapshot_steps(tcfg.max_epochs, tcfg.eval_interval, steps_per_epoch)
        confidence, correct = np.empty((len(snap_at), n)), np.empty((len(snap_at), n), dtype=bool)
        probs = np.empty((n, config.num_classes))
    p = config.dropout_rate
    width = sum(config.hidden_dims)

    live = np.arange(R)  # run index of each slice of the stacked arrays
    results: list = [None] * R  # a run leaves the stack once it has its result
    best: dict[int, list] = {}
    curves: list[list[float]] = [[] for _ in range(R)]
    step = 0

    for epoch in range(tcfg.max_epochs):
        order = np.stack([rngs[r].permutation(n) for r in live])
        chunk_steps = max(1, _MASK_CHUNK // (live.size * B * width))
        for s in range(steps_per_epoch):
            lo, hi = s * B, min(n, (s + 1) * B)
            if s % chunk_steps == 0:  # the next chunk_steps steps' rows, one-hot labels and masks
                start, end = lo, min(n, (s + chunk_steps) * B)
                rows = live[:, None], order[:, start:end]
                Xc, gold = X[rows], y[rows][..., None] == np.arange(config.num_classes)
                if p > 0:
                    uniform = np.empty((live.size, (end - start) * width))
                    for i, r in enumerate(live):
                        rngs[r].random(out=uniform[i])
                    drawn, at = (uniform >= p) / (1.0 - p), 0
            masks = None
            if p > 0:
                masks = []
                for h in config.hidden_dims:
                    masks.append(drawn[:, at:at + (hi - lo) * h].reshape(live.size, hi - lo, h))
                    at += (hi - lo) * h
            total = _gradients(config, weights, Xc[:, lo - start:hi - start], gold[:, lo - start:hi - start],
                               masks, grads)
            if not all(map(math.isfinite, total.tolist())):  # cheaper than isfinite(...).all() at small R
                for r in live[~np.isfinite(total)]:
                    results[r] = DivergenceError("non-finite training loss", step=step)
            # then flat -= grad: the bits of W -= lr * dW. A diverged run's
            # slice takes this step too, which touches no other slice.
            grad *= lr
            flat -= grad
            step += 1
            while next_snap < len(snap_at) and step >= snap_at[next_snap]:
                _probabilities([(W[0], b[0]) for W, b in weights], X[0], config.activation, out=probs)
                confidence[next_snap] = np.take_along_axis(probs, y[0][:, None], 1)[:, 0]
                np.equal(np.argmax(probs, axis=1), y[0], out=correct[next_snap])
                next_snap += 1
            if s == steps_per_epoch - 1:
                for i, r in enumerate(live):
                    if results[r] is not None:  # diverged on this step
                        continue
                    curve = curves[r]
                    if val_X.shape[0]:
                        # run by run: a stacked pass would hold R copies of every activation
                        acc = Classifier(config, [(W[i], b[i]) for W, b in weights]).accuracy(val_X, val_y)
                        curve.append(acc)
                    best_epoch = curve.index(max(curve)) + 1 if curve else None
                    if best_epoch == len(curve):
                        best[r] = [(W[i].copy(), b[i].copy()) for W, b in weights]
                    # stale epochs since the best; an epoch that improved never stops a run
                    stopped = bool(curve) and len(curve) - best_epoch >= tcfg.patience
                    if stopped or epoch + 1 == tcfg.max_epochs:
                        kept = best.get(r) or [(W[i].copy(), b[i].copy()) for W, b in weights]
                        results[r] = Classifier(config, kept, {
                            "epochs": epoch + 1,
                            "steps": step,
                            "best_val_accuracy": max(curve, default=None),
                            "val_curve": curve,
                            "best_epoch": best_epoch,
                            "stopped_early": stopped,
                        })
            if results.count(None) < live.size:  # the one exit from the stack
                keep = np.array([results[r] is None for r in live])
                flat, grad = flat[keep], grad[keep]
                weights, grads = _layer_views(flat, config), _layer_views(grad, config)
                live, order, Xc, gold = live[keep], order[keep], Xc[keep], gold[keep]
                if p > 0:
                    drawn = drawn[keep]
                if not live.size:
                    if dynamics is not None:
                        dynamics.append((confidence[:next_snap], correct[:next_snap]))
                    return results
    return results


def save_checkpoint(model: Classifier, path) -> None:
    """Write a versioned JSON checkpoint (magic header, shapes, row-major weights)."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "config": asdict(model.config),
        "layers": [
            {"shape": list(W.shape), "W": W.ravel().tolist(), "b": b.tolist()}
            for W, b in model.weights
        ],
    }
    write_json(path, payload)


def _is_number_list(value) -> bool:
    return isinstance(value, list) and all(type(v) in (int, float) for v in value)


def load_checkpoint(path) -> Classifier:
    try:
        with reading(path) as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, or nested past the recursion limit
        raise ValueError(f"{path}: not a checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"not a {CHECKPOINT_MAGIC} checkpoint: {path}")
    cfg = payload.get("config")
    keys = sorted(cfg) if isinstance(cfg, dict) else cfg
    expected = sorted(f.name for f in fields(ClassifierConfig))
    if keys != expected:
        raise ValueError(f"{path}: checkpoint config keys are {keys}, expected {expected}")
    # JSON integers, not bools: a float dim would fail a reshape, a float width be truncated
    widths = cfg["hidden_dims"]
    if type(widths) is not list or not all(type(h) is int for h in widths):
        raise ValueError(f"{path}: checkpoint config 'hidden_dims' must be a list of integers, "
                         f"got {widths!r:.40}")
    for key in ("input_dim", "num_classes"):
        if type(cfg[key]) is not int:
            raise ValueError(f"{path}: checkpoint config {key!r} must be an integer, got {cfg[key]!r:.40}")
    try:
        config = ClassifierConfig(**cfg)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ValueError(f"{path}: bad checkpoint config: {exc}") from exc
    dims = (config.input_dim, *config.hidden_dims, config.num_classes)
    layers = payload.get("layers", [])
    if len(layers) != len(dims) - 1:
        raise ValueError(f"{path}: {len(layers)} layers, expected {len(dims) - 1} "
                         f"for hidden_dims {list(config.hidden_dims)}")
    weights = []
    for l, (layer, shape) in enumerate(zip(layers, zip(dims[:-1], dims[1:]))):
        if not isinstance(layer, dict) or sorted(layer) != ["W", "b", "shape"]:
            raise ValueError(f"{path}: layer {l} must hold exactly shape, W and b")
        if layer["shape"] != list(shape):
            raise ValueError(f"{path}: layer {l} has shape {layer['shape']}, expected {list(shape)}")
        if not (_is_number_list(layer["W"]) and _is_number_list(layer["b"])):
            raise ValueError(f"{path}: layer {l} W and b must be lists of numbers")
        if len(layer["W"]) != shape[0] * shape[1] or len(layer["b"]) != shape[1]:
            raise ValueError(f"{path}: layer {l} holds {len(layer['W'])} weights and "
                             f"{len(layer['b'])} biases, expected {shape[0] * shape[1]} and {shape[1]}")
        try:
            W, b = np.array(layer["W"], dtype=float).reshape(shape), np.array(layer["b"], dtype=float)
            finite = np.isfinite(W).all() and np.isfinite(b).all()  # json reads NaN, Infinity and 1e400
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{path}: layer {l} W and b must be finite")
        weights.append((W, b))
    return Classifier(config, weights)
