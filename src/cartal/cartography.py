"""Training-dynamics capture and datamap diagnostics.

A datamap summarizes, per example, the mean gold-label confidence across
training snapshots, its population standard deviation (variability), and how
often the model predicted the right label. Mean confidence is banded into four
difficulty classes; bands are upper-inclusive, so a mean of exactly 0.25 is
still "impossible".
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import classifier as clf
from .errors import CapacityError, InsufficientDynamicsError

__all__ = [
    "DIFFICULTIES",
    "DynamicsTrace",
    "TraceMatrix",
    "DatamapEntry",
    "DifficultyThresholds",
    "CartographyResult",
    "classify_difficulty",
    "compute_datamap",
    "run_cartography",
    "run_cartography_full",
    "ablate_hard_to_learn",
    "build_difficulty_split",
    "acquisition_by_difficulty",
    "write_datamap_csv",
]

DIFFICULTIES = ("easy", "medium", "hard", "impossible")

_LETTER = {"E": "easy", "M": "medium", "H": "hard", "I": "impossible"}


@dataclass(frozen=True)
class DynamicsTrace:
    example_id: int
    confidences: tuple[float, ...]
    correct_flags: tuple[bool, ...]


@dataclass(frozen=True)
class DatamapEntry:
    example_id: int
    mean_confidence: float
    variability: float
    correctness: float
    difficulty: str


@dataclass(frozen=True)
class DifficultyThresholds:
    impossible_max: float = 0.25
    hard_max: float = 0.5
    medium_max: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.impossible_max < self.hard_max < self.medium_max < 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < impossible_max < hard_max < medium_max < 1"
            )


def classify_difficulty(mean_confidence: float, thresholds: DifficultyThresholds) -> str:
    if mean_confidence <= thresholds.impossible_max:
        return "impossible"
    if mean_confidence <= thresholds.hard_max:
        return "hard"
    if mean_confidence <= thresholds.medium_max:
        return "medium"
    return "easy"


class TraceMatrix(Sequence):
    """Dynamics of many examples as row-major (N, T) arrays.

    Row i holds the T snapshots of example ``ids[i]``; indexing gives that
    row as a :class:`DynamicsTrace`.
    """

    def __init__(self, ids, confidences: np.ndarray, correct: np.ndarray):
        self.ids, self.confidences, self.correct = np.asarray(ids, dtype=np.int64), confidences, correct

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i) -> DynamicsTrace:
        return DynamicsTrace(int(self.ids[i]), tuple(self.confidences[i].tolist()),
                             tuple(self.correct[i].tolist()))


def compute_datamap(traces, thresholds: DifficultyThresholds | None = None) -> list[DatamapEntry]:
    """Mean/population-std/correctness per trace, banded into difficulties.

    ``traces`` is a :class:`TraceMatrix` or a sequence of equally long
    :class:`DynamicsTrace`. Reducing each row of the row-major (N, T) matrix
    gives the same bits as reducing each trace on its own.
    """
    thresholds = thresholds or DifficultyThresholds()
    if not isinstance(traces, TraceMatrix):
        traces = list(traces)
        if not traces:
            return []
        for tr in traces:
            if len(tr.confidences) == 0 or len(tr.correct_flags) == 0:
                raise ValueError(f"empty dynamics trace for example {tr.example_id}")
            if not len(tr.confidences) == len(tr.correct_flags) == len(traces[0].confidences):
                raise ValueError(f"trace length mismatch for example {tr.example_id}")
        traces = TraceMatrix([tr.example_id for tr in traces],
                             np.array([tr.confidences for tr in traces], dtype=float),
                             np.array([tr.correct_flags for tr in traces], dtype=bool))
    means = traces.confidences.mean(axis=1).tolist()
    return [
        DatamapEntry(i, mean, variability, correctness, classify_difficulty(mean, thresholds))
        for i, mean, variability, correctness in zip(
            traces.ids.tolist(), means, traces.confidences.std(axis=1).tolist(),
            traces.correct.mean(axis=1).tolist())
    ]


@dataclass
class CartographyResult:
    entries: list[DatamapEntry]
    model: clf.Classifier
    traces: TraceMatrix


def run_cartography_full(pool, probe, config, tcfg, val=None,
                         thresholds=None) -> CartographyResult:
    """Fit a fresh model on the whole pool, probing dynamics every interval.

    The probe may be the pool itself (strategy maps) or a held-out set such as
    a test set (stratified testing). The fitted model is returned alongside
    the datamap so callers can reuse it as an output-uncertainty reference.
    """
    gold = probe.labels_array()
    probe_confidences: list[np.ndarray] = []
    probe_correct: list[np.ndarray] = []

    def sink(step, gold_probs, predictions):
        probe_confidences.append(gold_probs.copy())
        probe_correct.append(predictions == gold)

    model = clf.fit(config, pool, val=val, tcfg=tcfg, dynamics_sink=sink, probe=probe)
    if len(probe_confidences) < 2:
        raise InsufficientDynamicsError(
            f"collected {len(probe_confidences)} snapshots; need at least 2 "
            "(shorten eval_interval or train longer)"
        )
    traces = TraceMatrix(probe.ids, np.stack(probe_confidences, axis=1), np.stack(probe_correct, axis=1))
    return CartographyResult(compute_datamap(traces, thresholds), model, traces)


def run_cartography(pool, probe, config, tcfg, val=None, thresholds=None) -> list[DatamapEntry]:
    return run_cartography_full(pool, probe, config, tcfg, val, thresholds).entries


def ablate_hard_to_learn(datamap, sources, fraction: float) -> set[int]:
    """Drop the per-source bottom fraction by confidence*variability product.

    Returns the retained id set. Filtering is per source, so equal-sized
    sources stay equal-sized after ablation.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1): {fraction}")
    by_source: dict[str, list[DatamapEntry]] = {}
    for entry in datamap:
        src = sources.get(entry.example_id)
        if src is None:
            raise ValueError(f"no source known for example {entry.example_id}")
        by_source.setdefault(src, []).append(entry)

    retained: set[int] = set()
    for src, entries in by_source.items():
        entries.sort(key=lambda e: (e.mean_confidence * e.variability, e.example_id))
        n_drop = math.floor(fraction * len(entries))
        retained.update(e.example_id for e in entries[n_drop:])
    return retained


def _normalize_combo(combo):
    if isinstance(combo, str):
        names = []
        for ch in combo:
            if ch.upper() not in _LETTER:
                raise ValueError(f"unknown difficulty letter {ch!r} in combo {combo!r}")
            names.append(_LETTER[ch.upper()])
    else:
        names = [str(c).lower() for c in combo]
        for name in names:
            if name not in DIFFICULTIES:
                raise ValueError(f"unknown difficulty {name!r}")
    if not names:
        raise ValueError("combo must name at least one difficulty class")
    if len(set(names)) != len(names):
        raise ValueError(f"combo has repeated classes: {combo!r}")
    return names


def build_difficulty_split(datamap, combo, n: int, rng_seed: int) -> set[int]:
    """Sample n ids in equal proportion from the requested difficulty classes."""
    names = _normalize_combo(combo)
    if n % len(names) != 0:
        raise ValueError(f"n={n} is not divisible by the {len(names)} classes in the combo")
    per_class = n // len(names)
    pools = {name: sorted(e.example_id for e in datamap if e.difficulty == name) for name in names}
    for name in names:
        if len(pools[name]) < per_class:
            raise CapacityError(
                f"difficulty class {name!r} holds {len(pools[name])} examples, need {per_class}"
            )
    rng = np.random.default_rng(rng_seed)
    chosen: set[int] = set()
    for name in names:
        ids = np.array(pools[name], dtype=np.int64)
        picked = rng.choice(ids.size, size=per_class, replace=False)
        chosen.update(int(ids[i]) for i in picked)
    return chosen


def acquisition_by_difficulty(round_logs, datamap) -> list[dict[str, int]]:
    """Count acquired ids per difficulty class for each round, in order."""
    difficulty_of = {e.example_id: e.difficulty for e in datamap}
    out = []
    for log in round_logs:
        ids = getattr(log, "acquired_ids", log)
        counts = {name: 0 for name in DIFFICULTIES}
        for i in ids:
            try:
                counts[difficulty_of[i]] += 1
            except KeyError:
                raise ValueError(f"acquired example {i} missing from the datamap") from None
        out.append(counts)
    return out


def write_datamap_csv(datamap, sources, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "source", "mean_confidence", "variability", "correctness", "difficulty"])
        for e in sorted(datamap, key=lambda e: e.example_id):
            writer.writerow([
                e.example_id,
                sources.get(e.example_id, ""),
                f"{e.mean_confidence:.6g}",
                f"{e.variability:.6g}",
                f"{e.correctness:.6g}",
                e.difficulty,
            ])
