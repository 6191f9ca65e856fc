"""Acquisition strategies: score the unlabelled pool and pick k per round.

Strategies are referred to by the config strings in ``STRATEGIES``. Entropy is
natural-log throughout, so scores live in [0, ln C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "STRATEGIES",
    "AcquisitionScore",
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
class AcquisitionScore:
    """Score for one example; higher means more desirable to acquire."""

    example_id: int
    score: float


@dataclass(frozen=True)
class DalConfig:
    """Discriminator settings: logistic regression unless hidden_dim is set."""

    learning_rate: float = 0.1
    epochs: int = 200
    hidden_dim: int | None = None


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


def _stack_mc(mc) -> np.ndarray:
    mats = [np.asarray(m, dtype=float) for m in mc]
    if not mats:
        raise ValueError("empty Monte-Carlo sample list")
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValueError(f"MC matrices disagree in shape: {m.shape} vs {shape}")
    return np.stack(mats)


def _as_scores(values: np.ndarray) -> list[AcquisitionScore]:
    return [AcquisitionScore(i, s) for i, s in enumerate(values.tolist())]


def _bald(stack: np.ndarray) -> np.ndarray:
    if stack.shape[0] < 2:
        raise ValueError("BALD needs at least 2 MC samples")
    total = entropy_rows(stack.mean(axis=0))
    expected = np.stack([entropy_rows(m) for m in stack]).mean(axis=0)
    return np.maximum(total - expected, 0.0)


def score_mcme(mc) -> list[AcquisitionScore]:
    """Entropy of the mean predictive distribution over the MC samples."""
    return _as_scores(entropy_rows(_stack_mc(mc).mean(axis=0)))


def score_bald(mc) -> list[AcquisitionScore]:
    """Mutual information H(mean_t p_t) - mean_t H(p_t), clamped at 0."""
    return _as_scores(_bald(_stack_mc(mc)))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def score_dal(embeddings_labelled, embeddings_unlabelled, dal_cfg: DalConfig | None = None,
              rng_seed: int = 0) -> list[AcquisitionScore]:
    """Train a labelled-vs-unlabelled discriminator on embeddings.

    Targets are labelled -> 0, unlabelled -> 1; the score of an unlabelled
    example is the discriminator's probability that it is unlabelled, i.e.
    how distinguishable it is from the current training set.
    """
    return _as_scores(_dal(embeddings_labelled, embeddings_unlabelled, dal_cfg, rng_seed))


def _dal(embeddings_labelled, embeddings_unlabelled, dal_cfg, rng_seed) -> np.ndarray:
    """Array form of :func:`score_dal`."""
    cfg = dal_cfg or DalConfig()
    A = np.asarray(embeddings_labelled, dtype=float)
    B = np.asarray(embeddings_unlabelled, dtype=float)
    if A.size == 0 or B.size == 0:
        raise ValueError("both embedding matrices must be non-empty")
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"embedding widths differ: {A.shape[1]} vs {B.shape[1]}")

    X = np.vstack([A, B])
    t = np.concatenate([np.zeros(A.shape[0]), np.ones(B.shape[0])])
    n = X.shape[0]

    if cfg.hidden_dim is None:
        Xb = np.hstack([X, np.ones((n, 1))])
        w = np.zeros(Xb.shape[1])
        for _ in range(cfg.epochs):
            p = _sigmoid(Xb @ w)
            w -= cfg.learning_rate * (Xb.T @ (p - t)) / n
        probs = _sigmoid(Xb[A.shape[0]:] @ w)
    else:
        rng = np.random.default_rng(rng_seed)
        lim1 = np.sqrt(6.0 / X.shape[1])
        W1 = rng.uniform(-lim1, lim1, size=(X.shape[1], cfg.hidden_dim))
        b1 = np.zeros(cfg.hidden_dim)
        lim2 = np.sqrt(6.0 / cfg.hidden_dim)
        w2 = rng.uniform(-lim2, lim2, size=cfg.hidden_dim)
        b2 = 0.0
        for _ in range(cfg.epochs):
            h = np.maximum(X @ W1 + b1, 0.0)
            p = _sigmoid(h @ w2 + b2)
            d = (p - t) / n
            gw2 = h.T @ d
            gb2 = d.sum()
            dh = np.outer(d, w2) * (h > 0)
            W1 -= cfg.learning_rate * (X.T @ dh)
            b1 -= cfg.learning_rate * dh.sum(axis=0)
            w2 -= cfg.learning_rate * gw2
            b2 -= cfg.learning_rate * gb2
        h = np.maximum(B @ W1 + b1, 0.0)
        probs = _sigmoid(h @ w2 + b2)
    return probs


def _check_strategy(strategy: str):
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; valid: {', '.join(STRATEGIES)}")


def score_pool(strategy, state, model, rng_seed, mc_samples=DEFAULT_MC_SAMPLES,
               dal_cfg=None) -> np.ndarray | None:
    """Scores over the unlabelled pool, aligned with its ids in ascending order.

    Returns None for the random strategy, which has no scores.
    """
    _check_strategy(strategy)
    if strategy == "random":
        return None
    X = state.universe.X
    X_u = X[~state.labelled_mask]
    if strategy in ("mcme", "bald"):
        stack = _stack_mc(model.mc_predict_proba(X_u, mc_samples, rng_seed))
        return entropy_rows(stack.mean(axis=0)) if strategy == "mcme" else _bald(stack)
    X_l = X[state.labelled_mask]
    return _dal(model.embed(X_l), model.embed(X_u), dal_cfg, rng_seed)


def select_batch(strategy, state, model, k, rng_seed, mc_samples=DEFAULT_MC_SAMPLES,
                 dal_cfg=None, scores=None) -> set[int]:
    """Pick k unlabelled ids: uniform for random, top-k by score otherwise.

    ``scores``, when given, is :func:`score_pool`'s result for the same
    state and seed and is used instead of scoring the pool again. Score ties
    break toward the smaller example id, which makes selection invariant to
    the iteration order of the pool.
    """
    _check_strategy(strategy)
    ids = state.universe.ids[~state.labelled_mask]
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > ids.size:
        raise ValueError(f"k={k} exceeds unlabelled pool size {ids.size}")
    if strategy == "random":
        rng = np.random.default_rng(rng_seed)
        return set(ids[rng.choice(ids.size, size=k, replace=False)].tolist())
    if scores is None:
        scores = score_pool(strategy, state, model, rng_seed, mc_samples, dal_cfg)
    if not np.isfinite(scores).all():
        raise ValueError("non-finite acquisition score")
    order = np.lexsort((ids, -scores))
    return set(ids[order[:k]].tolist())
