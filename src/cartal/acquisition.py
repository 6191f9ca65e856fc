"""Acquisition strategies: score the unlabelled pool and pick k per round.

Strategies are referred to by the config strings in ``STRATEGIES``. Entropy is
natural-log throughout, so scores live in [0, ln C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "STRATEGIES",
    "DalConfig",
    "entropy_rows",
    "predictive_entropy",
    "score_mcme",
    "score_bald",
    "score_dal",
    "score_pool",
    "select_batch",
]

STRATEGIES = ("random", "mcme", "bald", "dal")

DEFAULT_MC_SAMPLES = 4


@dataclass(frozen=True)
class DalConfig:
    """DAL's logistic-regression discriminator: ``epochs`` full-batch gradient steps of ``learning_rate``."""

    learning_rate: float = 0.1
    epochs: int = 200

    def __post_init__(self):
        # keyed by field: the config parser prefixes "dal"
        if not self.learning_rate > 0:  # also false for NaN
            raise ConfigError("must be > 0", key="learning_rate")
        if self.epochs < 1:
            raise ConfigError("must be >= 1", key="epochs")


def entropy_rows(P: np.ndarray) -> np.ndarray:
    """Row-wise natural-log entropy with the 0 * ln 0 := 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0, P * np.log(P), 0.0)
    return -terms.sum(axis=1)


def predictive_entropy(p) -> float:
    """H(p) = -sum_c p_c ln p_c for one probability vector."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("expected a single probability vector")
    if (p < 0).any():
        raise ValueError(f"negative probability entry: {p.min()}")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {p.sum()}, expected 1 within 1e-6")
    return float(entropy_rows(p.reshape(1, -1))[0])


def score_mcme(stack) -> np.ndarray:
    """Entropy of the mean predictive distribution over the MC samples.

    ``stack`` is (T, n, C): T Monte-Carlo probability matrices.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or len(stack) < 1:
        raise ValueError(f"expected a (T, n, C) stack of MC samples, got shape {stack.shape}")
    return entropy_rows(stack.mean(axis=0))


def score_bald(stack) -> np.ndarray:
    """Mutual information H(mean_t p_t) - mean_t H(p_t), clamped at 0, over a (T, n, C) stack."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or len(stack) < 2:
        raise ValueError(f"BALD needs a (T, n, C) stack of at least 2 MC samples, got shape {stack.shape}")
    total = entropy_rows(stack.mean(axis=0))
    expected = np.stack([entropy_rows(m) for m in stack]).mean(axis=0)
    return np.maximum(total - expected, 0.0)


def _sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, never overflowing."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def score_dal(embeddings_labelled, embeddings_unlabelled, dal_cfg: DalConfig = DalConfig()) -> np.ndarray:
    """Train a labelled-vs-unlabelled discriminator on embeddings.

    Targets are labelled -> 0, unlabelled -> 1; the score of an unlabelled
    example is the discriminator's probability that it is unlabelled, i.e.
    how distinguishable it is from the current training set.
    """
    A = np.asarray(embeddings_labelled, dtype=float)
    B = np.asarray(embeddings_unlabelled, dtype=float)
    if A.size == 0 or B.size == 0:
        raise ValueError("both embedding matrices must be non-empty")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"embedding widths differ: {A.shape[1]} vs {B.shape[1]}")
    Xb = np.ones((len(A) + len(B), A.shape[1] + 1))
    Xb[:len(A), :-1] = A
    Xb[len(A):, :-1] = B
    return _dal(Xb, len(A), dal_cfg)


def _dal(Xb, n_labelled, cfg: DalConfig):
    """:func:`score_dal`'s discriminator on its design matrix ``Xb``: the
    labelled rows, then the unlabelled rows, each its embedding followed by
    a bias column of ones. Logistic regression from zero weights, so it
    draws nothing at random."""
    n = Xb.shape[0]
    if not 0 < n_labelled < n:
        raise ValueError("both embedding matrices must be non-empty")
    t = np.repeat([0, 1], [n_labelled, n - n_labelled])
    w = np.zeros(Xb.shape[1])
    for _ in range(cfg.epochs):
        p = _sigmoid(Xb @ w)
        # a fixed-order sum over the rows: BLAS would split it across
        # threads, and its bits would depend on their number
        w -= cfg.learning_rate * np.einsum("ij,i->j", Xb, p - t) / n
    return _sigmoid(Xb[n_labelled:] @ w)


def _check_strategy(strategy: str):
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")


def score_pool(strategy, X, unlabelled, model, rng_seed, mc_samples=DEFAULT_MC_SAMPLES,
               dal_cfg=DalConfig()) -> np.ndarray | None:
    """Scores of the pool rows ``unlabelled`` (ascending positions into the
    pool's features ``X``), aligned with them; every other row is labelled.

    Returns None for the random strategy, which has no scores.
    """
    _check_strategy(strategy)
    if strategy == "random":
        return None
    if strategy in ("mcme", "bald"):
        stack = model.mc_predict_proba(X, mc_samples, rng_seed, rows=unlabelled)
        return score_mcme(stack) if strategy == "mcme" else score_bald(stack)
    # each embedding straight from the pool's rows into its row block of the discriminator's input
    n_l = len(X) - len(unlabelled)
    Xb = np.ones((len(X), model.config.hidden_dims[-1] + 1))
    model.embed(X, out=Xb[:n_l, :-1], rows=np.delete(np.arange(len(X)), unlabelled))
    model.embed(X, out=Xb[n_l:, :-1], rows=unlabelled)
    return _dal(Xb, n_l, dal_cfg)


def select_batch(strategy, unlabelled, scores, k, rng_seed) -> np.ndarray:
    """Pick k of the pool rows ``unlabelled`` (ascending), returned ascending:
    uniform for random, top-k by score otherwise.

    ``scores`` is :func:`score_pool`'s result for the same rows; random
    ignores it and draws from ``rng_seed``. Score ties break toward the smaller
    row, whose example id is the smaller, which makes selection invariant to
    the iteration order of the pool.
    """
    _check_strategy(strategy)
    rows = np.asarray(unlabelled, dtype=np.int64)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > rows.size:
        raise ValueError(f"k={k} exceeds unlabelled pool size {rows.size}")
    if strategy == "random":
        rng = np.random.default_rng(rng_seed)
        return np.sort(rows[rng.choice(rows.size, size=k, replace=False)])
    if scores is None or len(scores) != rows.size:
        raise ValueError(f"{strategy} needs {rows.size} scores, one per unlabelled example; "
                         f"got {'none' if scores is None else len(scores)}")
    if not np.isfinite(scores).all():
        raise ValueError("non-finite acquisition score")
    top = np.argsort(-scores, kind="stable")[:k]
    return np.sort(rows[top])
