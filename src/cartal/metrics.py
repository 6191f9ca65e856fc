"""Acquisition-profiling and evaluation metrics.

All functions are pure; the experiment layer decides when to call them
(per round on the acquired batch, and once at the end on the full train set).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .acquisition import entropy_rows
from .pool import Dataset

logger = logging.getLogger(__name__)

__all__ = [
    "RoundMetrics",
    "StratifiedResult",
    "tokens_of",
    "input_diversity",
    "output_uncertainty",
    "class_distribution",
    "acquisition_factor",
    "stratified_accuracy",
]


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    input_diversity: float
    output_uncertainty: float
    class_distribution: tuple[float, ...]
    acquisition_factor: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class StratifiedResult:
    """Per-difficulty accuracy and counts; empty classes are simply absent."""

    accuracies: dict[str, float]
    counts: dict[str, int]
    overall: float


def tokens_of(examples, rows=None):
    """Union of token sets; examples without tokens contribute nothing.

    Given a :class:`Dataset` and ``rows`` (positions or a boolean mask), the
    union comes back as a presence vector over the dataset's vocabulary.
    """
    if rows is None:
        tokens: set[str] = set()
        missing = 0
        for e in examples:
            if e.tokens:
                tokens.update(e.tokens)
            else:
                missing += 1
    else:
        tokens, missing = examples.token_presence(rows)
    if missing:
        logger.warning("%d examples carry no tokens; they do not affect input diversity", missing)
    return tokens


def input_diversity(acquired_tokens, remainder_tokens) -> float:
    """Jaccard similarity of the two token sets; two empty sets give 0.

    The sets may also be presence vectors over one vocabulary (see :func:`tokens_of`).
    """
    if isinstance(acquired_tokens, np.ndarray):
        shared = np.count_nonzero(acquired_tokens & remainder_tokens)
        union = np.count_nonzero(acquired_tokens | remainder_tokens)
    else:
        V = set(acquired_tokens)
        Vp = set(remainder_tokens)
        shared, union = len(V & Vp), len(V | Vp)
    return shared / union if union else 0.0


def output_uncertainty(reference_model, acquired) -> float:
    """Mean predictive entropy of the reference model over the acquired set."""
    if len(acquired) == 0:
        raise ValueError("acquired set is empty")
    probs = reference_model.predict_proba(acquired)
    return float(entropy_rows(probs).mean())


def class_distribution(acquired, num_classes=None) -> tuple[float, ...]:
    """Fraction of each gold label among the acquired examples.

    ``acquired`` is a Dataset or an array of gold labels.
    """
    if isinstance(acquired, Dataset):
        labels = acquired.labels_array()
        num_classes = num_classes or acquired.num_classes
    else:
        labels = acquired
        if num_classes is None:
            raise ValueError("num_classes required when acquired is not a Dataset")
    if labels.size == 0:
        raise ValueError("acquired set is empty")
    counts = np.bincount(labels, minlength=num_classes)
    return tuple(float(c) / labels.size for c in counts)


def acquisition_factor(batch_ids, pool_before) -> dict[str, float]:
    """Per-source acquired count over the count expected under random sampling.

    The normalization uses the unlabelled-pool composition immediately before
    the batch was selected. Every source present in the pool appears in the
    result, including those the batch never touched (factor 0).
    """
    pos, stray = pool_before.locate_unlabelled(batch_ids)
    if not pos.size and not stray:
        raise ValueError("batch is empty")
    if stray:
        raise ValueError(f"batch ids not in the pre-round unlabelled pool: {stray}")
    shares = pool_before.source_shares()
    counts = pool_before.universe.source_counts(pos)
    return {s: counts[s] / (pos.size * share) for s, share in shares.items()}


def stratified_accuracy(model, test: Dataset, test_datamap) -> StratifiedResult:
    """Argmax accuracy per difficulty class of the test examples, plus overall."""
    difficulty_of = {e.example_id: e.difficulty for e in test_datamap}
    ids = test.ids.tolist()
    missing = [i for i in ids if i not in difficulty_of]
    if missing:
        raise ValueError(f"test ids missing from the datamap: {missing[:10]}")
    preds = model.predict(test)
    gold = test.labels_array()
    correct = preds == gold

    counts: dict[str, int] = {}
    hits: dict[str, int] = {}
    for i, hit in zip(ids, correct.tolist()):
        d = difficulty_of[i]
        counts[d] = counts.get(d, 0) + 1
        hits[d] = hits.get(d, 0) + int(hit)
    accuracies = {d: hits[d] / counts[d] for d in counts}
    return StratifiedResult(accuracies=accuracies, counts=counts, overall=float(correct.mean()))
