from __future__ import annotations

import numpy as np
import pytest

from cartal.classifier import _BLOCK_ROWS, TrainConfig
from cartal.experiment import ExperimentConfig, TestSetSpec
from cartal.pool import Dataset, SyntheticSourceSpec


def make_dataset(X, y, sources=None, tokens=None, ids=None, num_classes=None, name="t"):
    """A Dataset from per-row values: an (n, d) feature matrix, labels, source
    names (default: one source named ``name``), token tuples (default: none)
    and ids (default: 0..n-1)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    sources = list(sources) if sources is not None else [name] * len(y)
    tokens = list(tokens) if tokens is not None else [()] * len(y)
    names = list(dict.fromkeys(sources))
    vocab = list(dict.fromkeys(t for row in tokens for t in row))
    return Dataset(
        name, num_classes if num_classes is not None else int(y.max(initial=0)) + 1,
        ids=np.arange(len(y)) if ids is None else np.asarray(ids, dtype=np.int64), X=X, y=y,
        source_codes=np.array([names.index(s) for s in sources], dtype=np.int64),
        source_names=tuple(names), token_indptr=np.cumsum([0] + [len(row) for row in tokens]),
        token_indices=np.array([vocab.index(t) for row in tokens for t in row], dtype=np.int64),
        vocab=tuple(vocab),
    )


def pass_allowance(n, num_classes, widest):
    """Bytes an inference pass may hold beside its full-size arrays: the
    output layer's logits and softmax temporaries, a few (n, C) arrays, and
    one block of rows of the other layers with its dropout uniforms and mask."""
    return (4 * n * num_classes + 3 * _BLOCK_ROWS * widest) * 8


def logistic_regression_irls(X, y, C=1.0, tol=1e-10, max_iter=100):
    """Binary logistic regression fit by Newton's method (IRLS), numpy only.

    Minimizes the summed log-loss plus ||w||^2 / (2C) with an unpenalized
    intercept, scikit-learn's default objective at C=1. Returns (w, b).
    """
    Xb = np.hstack([X, np.ones((len(X), 1))])
    beta = np.zeros(Xb.shape[1])
    penalty = np.full(Xb.shape[1], 1.0 / C)
    penalty[-1] = 0.0
    for _ in range(max_iter):
        p = 0.5 * (1.0 + np.tanh(0.5 * (Xb @ beta)))  # the logistic function, without overflow
        gradient = Xb.T @ (p - y) + penalty * beta
        hessian = (Xb * (p * (1.0 - p))[:, None]).T @ Xb + np.diag(penalty)
        step = np.linalg.solve(hessian, gradient)
        beta -= step
        if np.abs(step).max() < tol:
            return beta[:-1], beta[-1]
    raise RuntimeError(f"IRLS did not converge in {max_iter} iterations")


def logistic_regression_lbfgs(X, y, C=1.0):
    """The objective of :func:`logistic_regression_irls` minimized by scipy's
    L-BFGS-B, a third-party optimizer with its own line search; needs scipy.
    Returns (w, b)."""
    from scipy.optimize import minimize

    Xb = np.hstack([X, np.ones((len(X), 1))])
    penalty = np.full(Xb.shape[1], 1.0 / C)
    penalty[-1] = 0.0

    def objective(beta):  # the penalized log-loss and its gradient
        z = Xb @ beta
        p = 0.5 * (1.0 + np.tanh(0.5 * z))
        return (np.logaddexp(0.0, z).sum() - y @ z + 0.5 * penalty @ beta ** 2,
                Xb.T @ (p - y) + penalty * beta)

    result = minimize(objective, np.zeros(Xb.shape[1]), jac=True, method="L-BFGS-B", options={"gtol": 1e-9})
    if not result.success:
        raise RuntimeError(f"L-BFGS-B did not converge: {result.message}")
    return result.x[:-1], result.x[-1]


def three_source_specs(n=120, d=2, flip_source="gamma", flip=0.3, scale=3.0):
    """Three Gaussian sources with shared geometry; one carries label noise."""
    rng = np.random.default_rng(1234)
    base = rng.standard_normal((3, d))
    centroids = tuple(tuple(float(v) for v in scale * row / np.linalg.norm(row)) for row in base)
    specs = []
    for name in ("alpha", "beta", "gamma"):
        specs.append(SyntheticSourceSpec(
            name=name, n=n, class_centroids=centroids, noise_scale=1.0,
            label_flip_rate=flip if name == flip_source else 0.0,
        ))
    return specs


def tiny_config(**overrides) -> ExperimentConfig:
    """Small, fast experiment config for unit tests (seconds, not minutes)."""
    defaults = dict(
        synthetic_sources=tuple(three_source_specs(n=120)),
        per_source_cap=1000,
        val_fraction=0.1,
        data_seed=5,
        test_sets=(TestSetSpec("clean", synthetic_sources=tuple(three_source_specs(n=60, flip=0.0))),),
        seed_size=20,
        k=10,
        rounds=2,
        strategies=("random", "mcme"),
        seeds=(1, 2),
        hidden_dims=(8,),
        dropout_rate=0.3,
        training=TrainConfig(max_epochs=5, patience=3),
        cartography_training=TrainConfig(max_epochs=3, patience=3, eval_interval=0.5),
        mc_samples=4,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture
def small_config():
    return tiny_config()
