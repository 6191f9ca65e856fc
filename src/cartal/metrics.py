"""Acquisition-profiling and evaluation metrics.

All functions are pure; the experiment layer decides when to call them
(per round on the acquired batch, and once at the end on the full train set).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acquisition import entropy_rows
from .cartography import DIFFICULTIES, Datamap
from .pool import Dataset

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
    """:meth:`Dataset.token_presence`; perfbench's tracer times it by this name."""
    return dataset.token_presence(rows)


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


def acquisition_factor(pool: Dataset, rows, unlabelled, counts=None) -> dict[str, float]:
    """Per-source count among the acquired pool ``rows`` over the count
    expected under random sampling from the pool rows ``unlabelled``, those
    unlabelled immediately before the batch was selected. ``counts`` is
    ``pool.source_counts(rows)`` where the caller has it.

    Every source present among ``unlabelled`` appears in the result,
    including those the batch never touched (factor 0).
    """
    rows = np.unique(rows)
    stray = rows[~np.isin(rows, unlabelled)]
    if stray.size:
        raise ValueError(f"rows not in the unlabelled pool (already labelled or out of range): "
                         f"{stray[:10].tolist()}")
    if not rows.size:
        raise ValueError("batch is empty")
    counts = pool.source_counts(rows) if counts is None else counts
    return {s: counts[s] / (rows.size * (c / len(unlabelled)))
            for s, c in pool.source_counts(unlabelled).items() if c}


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
