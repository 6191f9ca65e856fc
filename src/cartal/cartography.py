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
from .pool import _positions
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
    """One example's row of a :class:`TraceMatrix`."""

    example_id: int
    confidences: tuple[float, ...]
    correct_flags: tuple[bool, ...]


@dataclass(frozen=True, eq=False)
class Datamap:
    """Per-example cartography statistics as columns; row i is example ``ids[i]``.

    ``ids`` strictly increase, and ``difficulty`` holds codes into
    :data:`DIFFICULTIES`.
    """

    ids: np.ndarray
    mean_confidence: np.ndarray
    variability: np.ndarray
    correctness: np.ndarray
    difficulty: np.ndarray

    def __post_init__(self):
        if (np.diff(self.ids) <= 0).any():
            raise ValueError("datamap ids must be strictly increasing")

    def rows(self, ids, what) -> np.ndarray:
        """Row positions of ``ids``; a ValueError names the ``what`` the datamap lacks."""
        ids = np.fromiter(ids, dtype=np.int64)
        pos = _positions(self.ids, ids)
        if (pos < 0).any():
            raise ValueError(f"{what} missing from the datamap: {ids[pos < 0][:10].tolist()}")
        return pos


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

    Row i holds the T snapshots of example ``ids[i]``. The arrays may be in
    either memory order: :func:`run_cartography_full` passes the transposed
    views of its fit's (T, N) arrays, whose rows are snapshots. Indexing
    gives a row as a :class:`DynamicsTrace`; the program does not use that,
    and it stays because perfbench's tracer reads ``traces[0].confidences``.
    """

    def __init__(self, ids, confidences: np.ndarray, correct: np.ndarray):
        self.ids, self.confidences, self.correct = np.asarray(ids, dtype=np.int64), confidences, correct

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i) -> DynamicsTrace:
        return DynamicsTrace(int(self.ids[i]), tuple(self.confidences[i].tolist()),
                             tuple(self.correct[i].tolist()))


def compute_datamap(traces: TraceMatrix, thresholds: DifficultyThresholds | None = None) -> Datamap:
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
    thresholds = thresholds or DifficultyThresholds()
    N, T = traces.confidences.shape
    if T == 0:
        raise ValueError(f"empty dynamics traces for examples {traces.ids[:10].tolist()}")
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
    return Datamap(traces.ids, mean, variability, correctness, difficulty)


@dataclass
class CartographyResult:
    entries: Datamap
    model: clf.Classifier
    traces: TraceMatrix


def run_cartography_full(dataset, config, tcfg, val=None, thresholds=None) -> CartographyResult:
    """Fit a fresh model on ``dataset`` and map its examples by the dynamics
    of that fit, snapshotted every ``eval_interval`` of an epoch.

    The fit writes snapshot t into row t of two (T, N) arrays; the
    :class:`TraceMatrix` holds their transposed views, so the snapshots are
    never copied into an (N, T) stack. The fitted model is returned
    alongside the datamap so callers can reuse it as an output-uncertainty
    reference.
    """
    dynamics: list = []
    model = clf.fit(config, dataset, val=val, tcfg=tcfg, dynamics=dynamics)
    [(confidences, correct)] = dynamics
    if len(confidences) < 2:
        raise InsufficientDynamicsError(f"collected {len(confidences)} snapshots; need at least 2 "
                                        "(shorten eval_interval or train longer)")
    traces = TraceMatrix(dataset.ids, confidences.T, correct.T)
    return CartographyResult(compute_datamap(traces, thresholds), model, traces)


def ablate_hard_to_learn(datamap: Datamap, dataset, fraction: float) -> np.ndarray:
    """Drop the per-source bottom fraction by confidence*variability product.

    Returns the retained ids, ascending. Ties in the product break toward the
    smaller id. Filtering is per source of ``dataset``, so equal-sized
    sources stay equal-sized after ablation.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1): {fraction}")
    pos = dataset.positions(datamap.ids)
    if (pos < 0).any():
        raise ValueError(f"no source known for examples {datamap.ids[pos < 0][:10].tolist()}")
    codes = dataset.source_codes[pos]
    product = datamap.mean_confidence * datamap.variability
    retained = [datamap.ids[:0]]
    for code in np.unique(codes):
        rows = np.flatnonzero(codes == code)
        order = rows[np.lexsort((datamap.ids[rows], product[rows]))]
        retained.append(datamap.ids[order[math.floor(fraction * rows.size):]])
    return np.sort(np.concatenate(retained))


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
    """Sample n ids in equal proportion from the difficulty classes named by
    the letters of ``combo`` (E, M, H, I); ascending."""
    names = _normalize_combo(combo)
    if n % len(names) != 0:
        raise ValueError(f"n={n} is not divisible by the {len(names)} classes in the combo")
    per_class = n // len(names)
    pools = [datamap.ids[datamap.difficulty == DIFFICULTIES.index(name)] for name in names]
    for name, ids in zip(names, pools):
        if ids.size < per_class:
            raise CapacityError(
                f"difficulty class {name!r} holds {ids.size} examples, need {per_class}"
            )
    rng = np.random.default_rng(rng_seed)
    return np.sort(np.concatenate([ids[rng.choice(ids.size, size=per_class, replace=False)]
                                   for ids in pools]))


def acquisition_by_difficulty(round_logs, datamap: Datamap) -> list[dict[str, int]]:
    """Count acquired ids per difficulty class for each round, in order."""
    out = []
    for log in round_logs:
        rows = datamap.rows(getattr(log, "acquired_ids", log), "acquired examples")
        counts = np.bincount(datamap.difficulty[rows], minlength=len(DIFFICULTIES))
        out.append(dict(zip(DIFFICULTIES, counts.tolist())))
    return out


def write_datamap_csv(datamap: Datamap, dataset, path) -> None:
    """One row per datamap example, by id, with its source in ``dataset`` ("" if absent);
    formatted a block of rows at a time, so no column becomes a pool-long list."""
    pos = dataset.positions(datamap.ids)
    codes = np.where(pos >= 0, dataset.source_codes[pos], -1)
    names = (*dataset.source_names, "")  # code -1 reads the trailing ""
    columns = (datamap.ids, codes, datamap.mean_confidence, datamap.variability,
               datamap.correctness, datamap.difficulty)
    blocks = (zip(*(c[lo:lo + 4096].tolist() for c in columns)) for lo in range(0, codes.size, 4096))
    write_table(path, ["id", "source", "mean_confidence", "variability", "correctness", "difficulty"], (
        [i, names[code], f"{conf:.6g}", f"{var:.6g}", f"{corr:.6g}", DIFFICULTIES[band]]
        for i, code, conf, var, corr, band in itertools.chain.from_iterable(blocks)
    ))
