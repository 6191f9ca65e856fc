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
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .pool import Dataset, Example

CHECKPOINT_MAGIC = "CARTAL1"

__all__ = [
    "ClassifierConfig",
    "TrainConfig",
    "Classifier",
    "fit",
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
        if not self.hidden_dims:
            raise ValueError("hidden_dims must be non-empty")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1): {self.dropout_rate}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"activation must be 'relu' or 'tanh': {self.activation!r}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 5
    eval_interval: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")
        if not 0.0 < self.eval_interval <= 1.0:
            raise ValueError(f"eval_interval must lie in (0, 1]: {self.eval_interval}")


def _as_features(xs, expected_dim=None) -> np.ndarray:
    if isinstance(xs, Dataset):
        X = xs.features_matrix()
    elif isinstance(xs, np.ndarray):
        X = xs if xs.ndim == 2 else xs.reshape(1, -1)
    else:
        seq = list(xs)
        if seq and isinstance(seq[0], Example):
            X = np.stack([e.features for e in seq])
        else:
            X = np.asarray(seq, dtype=float)
            if X.ndim == 1:
                X = X.reshape(1, -1)
    if expected_dim is not None and X.shape[1] != expected_dim:
        raise ValueError(f"feature dim {X.shape[1]} does not match model input_dim {expected_dim}")
    return np.asarray(X, dtype=float)


def _as_xy(data):
    if isinstance(data, Dataset):
        return data.features_matrix(), data.labels_array()
    if isinstance(data, tuple) and len(data) == 2:
        X = np.asarray(data[0], dtype=float)
        y = np.asarray(data[1], dtype=np.int64)
        return X, y
    raise TypeError(f"expected a Dataset or an (X, y) pair, got {type(data).__name__}")


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


def _activate(z, activation):
    return np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)


def _forward(weights, X, activation, masks=None):
    """Forward pass; returns logits and per-layer caches for backprop.

    ``masks`` are pre-scaled inverted-dropout masks, one per hidden layer, or
    None for deterministic inference.
    """
    h = X
    caches = []
    n_hidden = len(weights) - 1
    for l in range(n_hidden):
        W, b = weights[l]
        z = h @ W + b
        a = _activate(z, activation)
        m = masks[l] if masks is not None else None
        h_out = a * m if m is not None else a
        caches.append((h, z, a, m))
        h = h_out
    W, b = weights[-1]
    logits = h @ W + b
    caches.append((h, None, None, None))
    return logits, caches


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits):
    logp = _log_softmax(logits)
    return np.exp(logp)


def loss_and_gradients(config, weights, X, y, masks=None):
    """Mean cross-entropy and its analytic gradients for every layer.

    This is the single gradient path used by training; tests compare it
    against central finite differences of the returned loss.
    """
    n = X.shape[0]
    logits, caches = _forward(weights, X, config.activation, masks)
    logp = _log_softmax(logits)
    loss = -logp[np.arange(n), y].mean()

    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n

    grads = [None] * len(weights)
    h_last = caches[-1][0]
    grads[-1] = (h_last.T @ dlogits, dlogits.sum(axis=0))
    dh = dlogits @ weights[-1][0].T
    for l in range(len(weights) - 2, -1, -1):
        h_in, z, a, m = caches[l]
        if m is not None:
            dh = dh * m
        if config.activation == "relu":
            dz = dh * (z > 0)
        else:
            dz = dh * (1.0 - a * a)
        grads[l] = (h_in.T @ dz, dz.sum(axis=0))
        if l > 0:
            dh = dz @ weights[l][0].T
    return loss, grads


@dataclass
class Classifier:
    """Trained model. Immutable after :func:`fit`; inference is read-only."""

    config: ClassifierConfig
    weights: list = field(repr=False)
    history: dict = field(default_factory=dict)

    def predict_proba(self, xs) -> np.ndarray:
        """Deterministic class probabilities (dropout off), rows sum to 1."""
        X = _as_features(xs, self.config.input_dim)
        logits, _ = _forward(self.weights, X, self.config.activation)
        return softmax(logits)

    def predict(self, xs) -> np.ndarray:
        return np.argmax(self.predict_proba(xs), axis=1)

    def mc_predict_proba(self, xs, T: int, rng_seed: int) -> list[np.ndarray]:
        """T stochastic forward passes with fresh inverted-dropout masks."""
        if T < 1:
            raise ValueError(f"T must be >= 1: {T}")
        X = _as_features(xs, self.config.input_dim)
        p = self.config.dropout_rate
        if p == 0.0:
            logits, _ = _forward(self.weights, X, self.config.activation)
            probs = softmax(logits)
            return [probs.copy() for _ in range(T)]
        rng = np.random.default_rng(rng_seed)
        out = []
        for _ in range(T):
            masks = self._draw_masks(rng, X.shape[0])
            logits, _ = _forward(self.weights, X, self.config.activation, masks)
            out.append(softmax(logits))
        return out

    def embed(self, xs) -> np.ndarray:
        """Penultimate-layer activations, deterministic; width = last hidden dim."""
        X = _as_features(xs, self.config.input_dim)
        h = X
        for W, b in self.weights[:-1]:
            h = _activate(h @ W + b, self.config.activation)
        return h

    def accuracy(self, xs, y) -> float:
        y = np.asarray(y, dtype=np.int64)
        if y.size == 0:
            raise ValueError("cannot score an empty example set")
        return float((self.predict(xs) == y).mean())

    def _draw_masks(self, rng, batch_size):
        p = self.config.dropout_rate
        return [
            (rng.random((batch_size, h)) >= p) / (1.0 - p)
            for h in self.config.hidden_dims
        ]


def _snapshot_steps(max_epochs, eval_interval, steps_per_epoch):
    # Snapshot j fires once ceil(j * interval * steps/epoch) steps are done.
    count = math.floor(max_epochs / eval_interval + 1e-9)
    return [math.ceil(j * eval_interval * steps_per_epoch - 1e-9) for j in range(1, count + 1)]


def fit(config: ClassifierConfig, train, val=None, tcfg: TrainConfig | None = None,
        dynamics_sink=None, probe=None) -> Classifier:
    """Train a fresh model with mini-batch SGD and patience-based early stop.

    Early stopping tracks validation accuracy per epoch and restores the best
    weights seen; with an empty validation set training runs all epochs. When
    ``dynamics_sink`` is given, every ``eval_interval`` fraction of an epoch
    the sink is called with (global step, gold-label probability per probe
    example, argmax prediction per probe example), dropout disabled.
    """
    tcfg = tcfg or TrainConfig()
    X, y = _as_xy(train)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    if X.shape[1] != config.input_dim:
        raise ValueError(f"train feature dim {X.shape[1]} != config input_dim {config.input_dim}")
    val_X, val_y = _as_xy(val) if val is not None else (np.zeros((0, config.input_dim)), np.zeros(0, np.int64))
    if dynamics_sink is not None and probe is None:
        raise ValueError("dynamics_sink requires a probe set")
    probe_X, probe_y = _as_xy(probe) if probe is not None else (None, None)

    rng = np.random.default_rng(tcfg.rng_seed)
    weights = init_weights(config, rng)
    n = X.shape[0]
    steps_per_epoch = math.ceil(n / tcfg.batch_size)
    snap_at = _snapshot_steps(tcfg.max_epochs, tcfg.eval_interval, steps_per_epoch) if dynamics_sink else []
    next_snap = 0
    p = config.dropout_rate

    model = Classifier(config, weights)
    best_acc = -1.0
    best_weights = None
    stale_epochs = 0
    step = 0
    val_curve = []
    epochs_run = 0

    for epoch in range(tcfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, tcfg.batch_size):
            idx = order[start:start + tcfg.batch_size]
            masks = model._draw_masks(rng, idx.size) if p > 0 else None
            loss, grads = loss_and_gradients(config, weights, X[idx], y[idx], masks)
            if not np.isfinite(loss):
                raise DivergenceError("non-finite training loss", step=step)
            for (W, b), (dW, db) in zip(weights, grads):
                W -= tcfg.learning_rate * dW
                b -= tcfg.learning_rate * db
            step += 1
            while next_snap < len(snap_at) and step >= snap_at[next_snap]:
                logits, _ = _forward(weights, probe_X, config.activation)
                probs = softmax(logits)
                gold_p = probs[np.arange(probe_X.shape[0]), probe_y]
                dynamics_sink(step, gold_p, np.argmax(probs, axis=1))
                next_snap += 1
        epochs_run = epoch + 1
        if val_X.shape[0] > 0:
            acc = model.accuracy(val_X, val_y)
            val_curve.append(acc)
            if acc > best_acc:
                best_acc = acc
                best_weights = [(W.copy(), b.copy()) for W, b in weights]
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= tcfg.patience:
                    break

    if best_weights is not None:
        model.weights = best_weights
    model.history = {
        "epochs": epochs_run,
        "steps": step,
        "best_val_accuracy": best_acc if best_weights is not None else None,
        "val_curve": val_curve,
    }
    return model


def save_checkpoint(model: Classifier, path) -> None:
    """Write a versioned JSON checkpoint (magic header, shapes, row-major weights)."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "config": {
            "input_dim": model.config.input_dim,
            "hidden_dims": list(model.config.hidden_dims),
            "num_classes": model.config.num_classes,
            "dropout_rate": model.config.dropout_rate,
            "activation": model.config.activation,
        },
        "layers": [
            {"shape": list(W.shape), "W": W.ravel().tolist(), "b": b.tolist()}
            for W, b in model.weights
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path) -> Classifier:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"not a {CHECKPOINT_MAGIC} checkpoint: {path}")
    cfg = payload["config"]
    config = ClassifierConfig(
        input_dim=cfg["input_dim"],
        hidden_dims=tuple(cfg["hidden_dims"]),
        num_classes=cfg["num_classes"],
        dropout_rate=cfg["dropout_rate"],
        activation=cfg["activation"],
    )
    weights = [
        (np.array(layer["W"], dtype=float).reshape(layer["shape"]), np.array(layer["b"], dtype=float))
        for layer in payload["layers"]
    ]
    return Classifier(config, weights)
