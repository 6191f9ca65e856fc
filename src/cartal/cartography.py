"""Training-dynamics capture and datamap diagnostics.

A datamap summarizes, per example, the mean gold-label confidence across
training snapshots, its population standard deviation (variability), and how
often the model predicted the right label (Swayamdipta et al. 2020, Dataset
Cartography). Mean confidence is banded into four difficulty classes; bands
are upper-inclusive, so a mean of exactly 0.25 is still "impossible".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import classifier as clf
from .errors import CapacityError, InsufficientDynamicsError
from .artifacts import write_table

__all__ = [
    "DIFFICULTIES",
    "DynamicsTrace",
    "TraceMatrix",
    "Datamap",
    "DifficultyThresholds",
    "CartographyResult",
    "compute_datamap",
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
    """One example's row of a :class:`TraceMatrix`; ``example_id`` is that row."""

    example_id: int
    confidences: tuple[float, ...]
    correct_flags: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class Datamap:
    """Per-example cartography statistics as columns over the rows of the
    dataset it maps; ``difficulty`` holds codes into :data:`DIFFICULTIES`."""

    mean_confidence: np.ndarray
    variability: np.ndarray
    correctness: np.ndarray
    difficulty: np.ndarray

    def check_rows(self, dataset) -> None:
        """Raise a ValueError unless this datamap has one row per row of ``dataset``."""
        if self.difficulty.size != len(dataset):
            raise ValueError(f"datamap of {self.difficulty.size} rows for dataset "
                             f"{dataset.name!r} of {len(dataset)}")


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


class TraceMatrix:
    """Dynamics of many examples as (N, T) arrays.

    Row i holds the T snapshots of dataset row i. The arrays may be in
    either memory order: :func:`run_cartography_full` passes the transposed
    views of its fit's (T, N) arrays, whose rows are snapshots. Indexing
    gives a row as a :class:`DynamicsTrace`; the program does not use that,
    and it stays because perfbench's tracer reads ``traces[0].confidences``.
    """

    def __init__(self, confidences: np.ndarray, correct: np.ndarray):
        self.confidences, self.correct = confidences, correct

    def __len__(self):
        return len(self.confidences)

    def __getitem__(self, i) -> DynamicsTrace:
        return DynamicsTrace(i, tuple(self.confidences[i].tolist()), tuple(self.correct[i].tolist()))


def compute_datamap(traces: TraceMatrix,
                    thresholds: DifficultyThresholds = DifficultyThresholds()) -> Datamap:
    """Mean, population std and correctness of each row of the (N, T)
    dynamics matrix, banded into difficulties.

    The rows are reduced 4,096 at a time, each block copied to C order
    first, so every row is summed along its contiguous T values as in a
    C-ordered (N, T) matrix, whatever the matrix's own order, and no (N, T)
    temporary is made. One ``searchsorted`` over the three thresholds with
    ``side="left"`` puts a mean equal to a threshold in the band below it
    (bands are upper-inclusive). perfbench's tracer times calls to it by
    this name.
    """
    N, T = traces.confidences.shape
    if T == 0:
        raise ValueError(f"empty dynamics traces for {N} examples")
    mean, variability, correctness = np.empty(N), np.empty(N), np.empty(N)
    for lo in range(0, N, 4096):
        rows = slice(lo, lo + 4096)
        block = np.ascontiguousarray(traces.confidences[rows])
        block.mean(axis=1, out=mean[rows])
        block.std(axis=1, out=variability[rows])
        traces.correct[rows].mean(axis=1, out=correctness[rows])  # sums of 0s and 1s: exact in any order
    edges = [thresholds.impossible_max, thresholds.hard_max, thresholds.medium_max]
    # the count of edges below the mean (an equal edge not counted): 0 is impossible, 3 easy
    difficulty = len(edges) - np.searchsorted(edges, mean, side="left")
    return Datamap(mean, variability, correctness, difficulty)


@dataclass
class CartographyResult:
    entries: Datamap
    model: clf.Classifier
    traces: TraceMatrix


def run_cartography_full(dataset, config, tcfg, seed, val=None,
                         thresholds=DifficultyThresholds()) -> CartographyResult:
    """Fit a fresh model on ``dataset``, seeded by ``seed`` and early-stopped
    on the ``(X, y)`` pair ``val``, and map its examples by the dynamics of
    that fit, snapshotted every ``eval_interval`` of an epoch.

    The fit writes snapshot t into row t of two (T, N) arrays; the
    :class:`TraceMatrix` holds their transposed views, so the snapshots are
    never copied into an (N, T) stack. The fitted model is returned
    alongside the datamap so callers can reuse it as an output-uncertainty
    reference.
    """
    dynamics: list = []
    model = clf.fit(config, (dataset.X, dataset.y), tcfg, seed, val, dynamics)
    [(confidences, correct)] = dynamics
    if len(confidences) < 2:
        raise InsufficientDynamicsError(f"collected {len(confidences)} snapshots; need at least 2 "
                                        "(shorten eval_interval or train longer)")
    traces = TraceMatrix(confidences.T, correct.T)
    return CartographyResult(compute_datamap(traces, thresholds), model, traces)


def ablate_hard_to_learn(datamap: Datamap, dataset, fraction: float) -> np.ndarray:
    """Drop the per-source bottom fraction by confidence*variability product.

    Returns the retained rows of ``dataset``, ascending. Ties in the product
    break toward the smaller row. Filtering is per source of ``dataset``, so
    equal-sized sources stay equal-sized after ablation.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1): {fraction}")
    datamap.check_rows(dataset)
    product = datamap.mean_confidence * datamap.variability
    keep = np.ones(len(dataset), dtype=bool)
    for code in np.unique(dataset.source_codes):
        rows = np.flatnonzero(dataset.source_codes == code)
        keep[rows[np.argsort(product[rows], kind="stable")][:math.floor(fraction * rows.size)]] = False
    return np.flatnonzero(keep)


def ablated_size(dataset, fraction: float) -> int:
    """``len`` of what :func:`ablate_hard_to_learn` keeps of ``dataset``: each
    source loses ``floor(fraction * n)`` of its ``n`` examples."""
    return sum(n - math.floor(fraction * n) for n in np.bincount(dataset.source_codes).tolist())


def _normalize_combo(combo: str):
    names = []
    for ch in combo:
        if ch.upper() not in _LETTER:
            raise ValueError(f"unknown difficulty letter {ch!r} in combo {combo!r}")
        names.append(_LETTER[ch.upper()])
    if not names:
        raise ValueError("combo must name at least one difficulty class")
    if len(set(names)) != len(names):
        raise ValueError(f"combo has repeated classes: {combo!r}")
    return names


def build_difficulty_split(datamap: Datamap, combo: str, n: int, rng_seed: int) -> np.ndarray:
    """Sample n datamap rows in equal proportion from the difficulty classes
    named by the letters of ``combo`` (E, M, H, I); ascending."""
    names = _normalize_combo(combo)
    if n % len(names) != 0:
        raise ValueError(f"n={n} is not divisible by the {len(names)} classes in the combo")
    per_class = n // len(names)
    pools = [np.flatnonzero(datamap.difficulty == DIFFICULTIES.index(name)) for name in names]
    for name, rows in zip(names, pools):
        if rows.size < per_class:
            raise CapacityError(
                f"difficulty class {name!r} holds {rows.size} examples, need {per_class}"
            )
    rng = np.random.default_rng(rng_seed)
    return np.sort(np.concatenate([rows[rng.choice(rows.size, size=per_class, replace=False)]
                                   for rows in pools]))


def acquisition_by_difficulty(rounds, datamap: Datamap) -> list[dict[str, int]]:
    """Count the acquired datamap rows per difficulty class, one array of rows
    per round, in order; a row outside the datamap is a ValueError."""
    out = []
    for rows in rounds:
        rows = np.asarray(rows, dtype=np.int64)
        outside = (rows < 0) | (rows >= datamap.difficulty.size)
        if outside.any():
            raise ValueError(f"acquired rows outside the datamap: {rows[outside][:10].tolist()}")
        counts = np.bincount(datamap.difficulty[rows], minlength=len(DIFFICULTIES))
        out.append(dict(zip(DIFFICULTIES, counts.tolist())))
    return out


def write_datamap_csv(datamap: Datamap, dataset, path) -> None:
    """One row per row of ``dataset``, with its id and source; formatted a
    block of rows at a time, so no column becomes a pool-long list."""
    datamap.check_rows(dataset)
    columns = (dataset.ids, dataset.source_codes, datamap.mean_confidence, datamap.variability,
               datamap.correctness, datamap.difficulty)
    blocks = (zip(*(c[lo:lo + 4096].tolist() for c in columns)) for lo in range(0, len(dataset), 4096))
    write_table(path, ["id", "source", "mean_confidence", "variability", "correctness", "difficulty"], (
        [i, dataset.source_names[code], f"{conf:.6g}", f"{var:.6g}", f"{corr:.6g}", DIFFICULTIES[band]]
        for i, code, conf, var, corr, band in itertools.chain.from_iterable(blocks)
    ))
