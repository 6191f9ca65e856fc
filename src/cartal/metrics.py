"""Acquisition-profiling and evaluation metrics.

All functions are pure; the experiment layer decides when to call them
(per round on the acquired batch, and once at the end on the full train set).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .acquisition import entropy_rows
from .cartography import DIFFICULTIES, Datamap
from .pool import Dataset

logger = logging.getLogger(__name__)

__all__ = [
    "StratifiedResult",
    "tokens_of",
    "input_diversity",
    "output_uncertainty",
    "class_distribution",
    "acquisition_factor",
    "stratified_accuracy",
]


@dataclass(frozen=True)
class StratifiedResult:
    """Per-difficulty accuracy and counts; empty classes are simply absent."""

    accuracies: dict[str, float]
    counts: dict[str, int]
    overall: float


def tokens_of(dataset: Dataset, rows) -> np.ndarray:
    """Presence vector over ``dataset.vocab`` of the tokens in ``rows``
    (positions or a boolean mask); rows without tokens contribute nothing."""
    tokens, missing = dataset.token_presence(rows)
    if missing:
        logger.warning("%d examples carry no tokens; they do not affect input diversity", missing)
    return tokens


def input_diversity(acquired_tokens: np.ndarray, remainder_tokens: np.ndarray) -> float:
    """Jaccard similarity of two token sets given as presence vectors over one
    vocabulary (see :func:`tokens_of`); two empty sets give 0."""
    shared = np.count_nonzero(acquired_tokens & remainder_tokens)
    union = np.count_nonzero(acquired_tokens | remainder_tokens)
    return shared / union if union else 0.0


def output_uncertainty(reference_model, acquired) -> float:
    """Mean predictive entropy of the reference model over the acquired set."""
    if len(acquired) == 0:
        raise ValueError("acquired set is empty")
    probs = reference_model.predict_proba(acquired)
    return float(entropy_rows(probs).mean())


def class_distribution(labels: np.ndarray, num_classes: int) -> tuple[float, ...]:
    """Fraction of each gold label among the acquired examples' ``labels``."""
    if labels.size == 0:
        raise ValueError("acquired set is empty")
    counts = np.bincount(labels, minlength=num_classes)
    return tuple(float(c) / labels.size for c in counts)


def acquisition_factor(rows, pool_before) -> dict[str, float]:
    """Per-source count among the acquired pool ``rows`` over the count
    expected under random sampling.

    The normalization uses the unlabelled-pool composition immediately before
    the batch was selected. Every source present in the pool appears in the
    result, including those the batch never touched (factor 0).
    """
    rows = np.unique(pool_before.unlabelled_rows(rows, ValueError))
    if not rows.size:
        raise ValueError("batch is empty")
    shares = pool_before.source_shares()
    counts = pool_before.universe.source_counts(rows)
    return {s: counts[s] / (rows.size * share) for s, share in shares.items()}


def stratified_accuracy(model, test: Dataset, test_datamap: Datamap) -> StratifiedResult:
    """Argmax accuracy per difficulty class of the rows of ``test``, which ``test_datamap`` maps, plus overall."""
    test_datamap.check_rows(test)
    correct = model.predict(test.X) == test.y
    counts = np.bincount(test_datamap.difficulty, minlength=len(DIFFICULTIES)).tolist()
    hits = np.bincount(test_datamap.difficulty, weights=correct, minlength=len(DIFFICULTIES)).tolist()
    present = [d for d in range(len(DIFFICULTIES)) if counts[d]]
    return StratifiedResult(
        accuracies={DIFFICULTIES[d]: hits[d] / counts[d] for d in present},
        counts={DIFFICULTIES[d]: counts[d] for d in present},
        overall=float(correct.mean()),
    )
