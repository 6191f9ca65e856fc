"""Datasets, synthetic sources, and labelled/unlabelled pool bookkeeping.

A :class:`Dataset` is immutable after construction and shareable across runs.
:class:`PoolState` tracks the disjoint labelled/unlabelled partition and is
only ever advanced through :func:`transfer`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ParseError, SchemaError, StateError

__all__ = [
    "Example",
    "Dataset",
    "PoolState",
    "SyntheticSourceSpec",
    "load_dataset",
    "generate_synthetic_source",
    "build_multi_source_pool",
    "concat_datasets",
    "seed_split",
    "split_dataset",
    "transfer",
]


@dataclass(frozen=True, slots=True)
class Example:
    """One data point: feature vector, gold label, and its source tag."""

    id: int
    source: str
    features: np.ndarray
    label: int
    tokens: tuple[str, ...] = ()


def _recode(codes, names):
    """Codes into the distinct ``names`` that occur, listed in order of first occurrence."""
    present, first = np.unique(codes, return_index=True)
    distinct = tuple(dict.fromkeys(names[c] for c in present[np.argsort(first)]))
    index = {name: i for i, name in enumerate(distinct)}
    return np.array([index.get(name, -1) for name in names], dtype=np.int64)[codes], distinct


class Dataset:
    """Ordered, validated collection of examples with a shared schema, held as columns.

    Columns: ``ids`` (strictly increasing), ``X`` (n x feature_dim), ``y``,
    ``source_codes`` into ``source_names`` (the present sources, in
    first-appearance order), and each row's tokens as the CSR pair
    ``token_indptr``/``token_indices`` into ``vocab``. ``examples`` and
    :meth:`by_id` are per-example views built on first use.

    ``metadata`` carries bookkeeping that is not part of the schema proper:
    ``flipped_ids`` (planted label noise), ``true_labels`` (pre-flip labels
    for flipped ids) and ``provenance`` (pooled id -> (source, original id)).
    """

    def __init__(self, name, examples, num_classes, metadata=None):
        examples = tuple(examples)
        dim = int(examples[0].features.shape[0]) if examples else 0
        for e in examples:
            if e.features.shape != (dim,):
                raise SchemaError(
                    f"dataset {name!r}: example {e.id} has feature dim "
                    f"{e.features.shape[0]}, expected {dim}"
                )
        sources: dict[str, int] = {}
        vocab: dict[str, int] = {}
        codes = [sources.setdefault(e.source, len(sources)) for e in examples]
        tokens = [vocab.setdefault(t, len(vocab)) for e in examples for t in e.tokens]
        self._set_columns(
            name, num_classes, metadata,
            ids=np.array([e.id for e in examples], dtype=np.int64),
            X=np.stack([e.features for e in examples]).astype(float) if examples else np.zeros((0, 0)),
            y=np.array([e.label for e in examples], dtype=np.int64),
            source_codes=np.array(codes, dtype=np.int64), source_names=tuple(sources),
            token_indptr=np.cumsum([0] + [len(e.tokens) for e in examples]),
            token_indices=np.array(tokens, dtype=np.int64), vocab=tuple(vocab),
        )

    @classmethod
    def from_columns(cls, name, num_classes, metadata=None, **columns) -> "Dataset":
        """Dataset over ready columns (the keyword names of the class docstring)."""
        ds = cls.__new__(cls)
        ds._set_columns(name, num_classes, metadata, **columns)
        return ds

    def _set_columns(self, name, num_classes, metadata, *, ids, X, y, source_codes, source_names,
                     token_indptr, token_indices, vocab):
        self.name = str(name)
        self.num_classes = int(num_classes)
        self.metadata: dict = dict(metadata or {})
        self.ids, self.X, self.y = ids, X, y
        self.source_codes, self.source_names = _recode(source_codes, source_names)
        self.token_indices, self.vocab = _recode(token_indices, vocab)
        self.token_indptr = token_indptr
        self.feature_dim = int(X.shape[1])
        self._examples: tuple[Example, ...] | None = None
        self._validate()

    def _validate(self):
        if self.num_classes < 1:
            raise SchemaError(f"dataset {self.name!r}: num_classes must be >= 1")
        if (self.ids < 0).any():
            raise SchemaError(f"dataset {self.name!r}: negative id {self.ids[self.ids < 0][0]}")
        steps = np.diff(self.ids)
        if (steps <= 0).any():
            at = int(np.argmax(steps <= 0))
            kind = "duplicate" if steps[at] == 0 else "non-increasing"
            raise SchemaError(f"dataset {self.name!r}: {kind} id {self.ids[at + 1]}")
        bad = (self.y < 0) | (self.y >= self.num_classes)
        if bad.any():
            at = int(np.argmax(bad))
            raise SchemaError(
                f"dataset {self.name!r}: example {self.ids[at]} has label {self.y[at]} "
                f"outside [0, {self.num_classes})"
            )

    def __getstate__(self):
        return {**self.__dict__, "_examples": None}  # views are rebuilt, not shipped

    def __len__(self):
        return len(self.ids)

    @property
    def examples(self) -> tuple[Example, ...]:
        if self._examples is None:
            bounds = self.token_indptr.tolist()
            tokens = [self.vocab[t] for t in self.token_indices.tolist()]
            self._examples = tuple(
                Example(i, self.source_names[c], x, label, tuple(tokens[a:b]))
                for i, c, x, label, a, b in zip(self.ids.tolist(), self.source_codes.tolist(), self.X,
                                                self.y.tolist(), bounds[:-1], bounds[1:])
            )
        return self._examples

    def by_id(self, example_id: int) -> Example:
        [pos] = self.positions([example_id])
        if pos < 0:
            raise KeyError(example_id)
        return self.examples[pos]

    def positions(self, ids) -> np.ndarray:
        """Row positions of ``ids`` (any iterable of ints); -1 where an id is absent."""
        ids = np.fromiter(ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, ids)
        found = pos < len(self.ids)
        found[found] = self.ids[pos[found]] == ids[found]
        return np.where(found, pos, -1)

    def features_matrix(self) -> np.ndarray:
        return self.X

    def labels_array(self) -> np.ndarray:
        return self.y

    def source_of(self) -> dict[int, str]:
        return dict(zip(self.ids.tolist(), (self.source_names[c] for c in self.source_codes.tolist())))

    def source_counts(self, rows) -> dict[str, int]:
        """Rows per source among ``rows`` (positions or a boolean mask); every source is listed."""
        counts = np.bincount(self.source_codes[rows], minlength=len(self.source_names))
        return dict(zip(self.source_names, counts.tolist()))

    def token_presence(self, rows) -> tuple[np.ndarray, int]:
        """Which vocabulary ids occur in ``rows`` (positions or a boolean mask),
        and how many of those rows carry no tokens."""
        take = np.zeros(len(self), dtype=bool)
        take[rows] = True
        lengths = np.diff(self.token_indptr)
        counts = np.bincount(self.token_indices[np.repeat(take, lengths)], minlength=len(self.vocab))
        return counts > 0, int(np.count_nonzero(take & (lengths == 0)))

    def _take(self, pos, name=None, metadata=None) -> "Dataset":
        """New dataset of the rows at ``pos`` (ascending positions)."""
        lengths = np.diff(self.token_indptr)[pos]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        token_pos = np.repeat(self.token_indptr[pos] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Dataset.from_columns(
            name or self.name, self.num_classes, metadata,
            ids=self.ids[pos], X=self.X[pos], y=self.y[pos],
            source_codes=self.source_codes[pos], source_names=self.source_names,
            token_indptr=indptr, token_indices=self.token_indices[token_pos], vocab=self.vocab,
        )

    def subset(self, ids, name=None) -> "Dataset":
        """New dataset holding the given ids (original id values preserved)."""
        wanted_ids = np.unique(np.fromiter(ids, dtype=np.int64))
        pos = self.positions(wanted_ids)
        if (pos < 0).any():
            raise ValueError(f"unknown ids in subset request: {wanted_ids[pos < 0][:10].tolist()}")
        wanted = set(wanted_ids.tolist())
        meta = {}
        if "flipped_ids" in self.metadata:
            meta["flipped_ids"] = sorted(set(self.metadata["flipped_ids"]) & wanted)
        if "true_labels" in self.metadata:
            meta["true_labels"] = {
                i: lab for i, lab in self.metadata["true_labels"].items() if i in wanted
            }
        if "provenance" in self.metadata:
            meta["provenance"] = {
                i: prov for i, prov in self.metadata["provenance"].items() if i in wanted
            }
        return self._take(pos, name, meta)


class PoolState:
    """Disjoint labelled/unlabelled partition of a backing dataset.

    The state is one boolean mask over the dataset's rows; ``labelled`` and
    ``unlabelled`` are frozenset views of it, built on first use.
    """

    def __init__(self, labelled, unlabelled, universe: Dataset):
        labelled, unlabelled = frozenset(labelled), frozenset(unlabelled)
        if labelled & unlabelled:
            raise StateError(f"labelled/unlabelled overlap: {sorted(labelled & unlabelled)[:10]}")
        stray = (labelled | unlabelled).symmetric_difference(universe.ids.tolist())
        if stray:
            raise StateError(f"ids outside the universe or on neither side: {sorted(stray)[:10]}")
        self.labelled_mask, self.universe = np.isin(universe.ids, list(labelled)), universe
        self.__dict__.update(labelled=labelled, unlabelled=unlabelled)  # pre-filled cached views

    @classmethod
    def from_mask(cls, labelled_mask: np.ndarray, universe: Dataset) -> "PoolState":
        state = cls.__new__(cls)
        state.labelled_mask, state.universe = labelled_mask, universe
        return state

    @cached_property
    def labelled(self) -> frozenset[int]:
        return frozenset(self.universe.ids[self.labelled_mask].tolist())

    @cached_property
    def unlabelled(self) -> frozenset[int]:
        return frozenset(self.universe.ids[~self.labelled_mask].tolist())

    def locate_unlabelled(self, ids) -> tuple[np.ndarray, list[int]]:
        """Positions of the distinct ``ids``, and those of them not in the unlabelled pool."""
        ids = np.unique(np.fromiter(ids, dtype=np.int64))
        pos = self.universe.positions(ids)
        stray = pos < 0
        stray[~stray] = self.labelled_mask[pos[~stray]]
        return pos[~stray], ids[stray][:10].tolist()

    def source_shares(self) -> dict[str, float]:
        """Fraction of the unlabelled pool contributed by each source."""
        counts = self.universe.source_counts(~self.labelled_mask)
        total = sum(counts.values())
        return {s: c / total for s, c in counts.items() if c}


@dataclass(frozen=True)
class SyntheticSourceSpec:
    """Gaussian-blob source with optional planted label noise.

    ``centroid_overlap`` pulls the class centroids toward their common mean:
    0 leaves them as given, values approaching 1 collapse them together.
    """

    name: str
    n: int
    class_centroids: tuple[tuple[float, ...], ...]
    noise_scale: float = 1.0
    label_flip_rate: float = 0.0
    centroid_overlap: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.label_flip_rate <= 1.0:
            raise ConfigError("label_flip_rate must lie in [0, 1]", key=f"{self.name}.label_flip_rate")
        if self.noise_scale <= 0:
            raise ConfigError("noise_scale must be > 0", key=f"{self.name}.noise_scale")
        if not 0.0 <= self.centroid_overlap < 1.0:
            raise ConfigError("centroid_overlap must lie in [0, 1)", key=f"{self.name}.centroid_overlap")
        if self.n < 0:
            raise ConfigError("n must be >= 0", key=f"{self.name}.n")
        dims = {len(c) for c in self.class_centroids}
        if len(dims) > 1:
            raise ConfigError("class_centroids must share one dimension", key=f"{self.name}.class_centroids")

    @property
    def num_classes(self) -> int:
        return len(self.class_centroids)

    @property
    def feature_dim(self) -> int:
        return len(self.class_centroids[0]) if self.class_centroids else 0


def _feature_tokens(feats: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Token ids of ``f"f{j}={round(v, 1):.1f}"`` per feature, and their vocabulary.

    Keys are integer tenths, which also folds "-0.0" into "0.0".
    """
    n, d = feats.shape
    tenths = np.rint(np.array([round(v, 1) for v in feats.ravel().tolist()]) * 10.0).astype(np.int64)
    distinct, token_ids = np.unique(tenths * d + np.tile(np.arange(d), n), return_inverse=True)
    vocab = tuple(f"f{k % d}={(k // d) / 10:.1f}" for k in distinct.tolist())
    return token_ids.reshape(n, d), vocab


def generate_synthetic_source(spec: SyntheticSourceSpec, rng_seed: int) -> Dataset:
    """Draw ``spec.n`` examples around class centroids, then plant label flips.

    Exactly ``round(label_flip_rate * n)`` examples, chosen by shuffling, get
    their label replaced with a uniformly random *different* class. Flipped
    ids and their original labels land in the dataset metadata.
    """
    if spec.num_classes < 2:
        raise ConfigError("need at least 2 classes", key=f"{spec.name}.class_centroids")
    rng = np.random.default_rng(rng_seed)
    centroids = np.asarray(spec.class_centroids, dtype=float)
    mean = centroids.mean(axis=0)
    centroids = mean + (centroids - mean) * (1.0 - spec.centroid_overlap)

    n, d, C = spec.n, spec.feature_dim, spec.num_classes
    gold = rng.integers(0, C, size=n)
    feats = centroids[gold] + rng.standard_normal((n, d)) * spec.noise_scale

    labels = gold.copy()
    n_flip = round(spec.label_flip_rate * n)
    flip_ids = np.sort(rng.permutation(n)[:n_flip])
    # Shift by a nonzero offset mod C so the flipped label always differs.
    offsets = rng.integers(1, C, size=n_flip)
    labels[flip_ids] = (gold[flip_ids] + offsets) % C

    token_ids, vocab = _feature_tokens(feats)
    metadata = {
        "flipped_ids": [int(i) for i in flip_ids],
        "true_labels": {int(i): int(gold[i]) for i in flip_ids},
    }
    return Dataset.from_columns(
        spec.name, C, metadata,
        ids=np.arange(n, dtype=np.int64), X=feats, y=labels.astype(np.int64),
        source_codes=np.zeros(n, dtype=np.int64), source_names=(spec.name,),
        token_indptr=np.arange(n + 1, dtype=np.int64) * d, token_indices=token_ids.ravel(), vocab=vocab,
    )


def _parse_jsonl(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", line=lineno)
            rec["_line"] = lineno
            records.append(rec)
    return records


def _parse_csv(path) -> list[dict]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return records
        tok_cols = [i for i, h in enumerate(header) if h.startswith("tok")]
        feat_cols = [i for i, h in enumerate(header) if h.startswith("f") and h[1:].isdigit()]
        for col in ("id", "source", "label"):
            if col not in header:
                raise ParseError(f"missing required column {col!r}", line=1)
        id_i, src_i, lab_i = header.index("id"), header.index("source"), header.index("label")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rec = {
                    "id": int(row[id_i]),
                    "source": row[src_i],
                    "label": int(row[lab_i]),
                    "features": [float(row[c]) for c in feat_cols],
                    "tokens": [row[c] for c in tok_cols if row[c]],
                    "_line": lineno,
                }
            except (ValueError, IndexError) as exc:
                raise ParseError(f"malformed row: {exc}", line=lineno) from exc
            records.append(rec)
    return records


def load_dataset(path, format="jsonl", name=None, num_classes=None,
                 embeddings_path=None) -> Dataset:
    """Read a JSONL or CSV dataset file and validate all invariants.

    ``num_classes`` defaults to ``max(label) + 1`` over the file. Records must
    carry id, source, features and label; order is preserved. Records without
    inline features (token-only subsets) may take them from a side embedding
    file: a JSON object mapping id to a feature vector.
    """
    if format == "jsonl":
        records = _parse_jsonl(path)
    elif format == "csv":
        records = _parse_csv(path)
    else:
        raise ValueError(f"unknown format {format!r} (expected 'jsonl' or 'csv')")

    side_features = None
    if embeddings_path is not None:
        with open(embeddings_path, "r", encoding="utf-8") as fh:
            side_features = {int(k): v for k, v in json.load(fh).items()}

    examples = []
    for rec in records:
        lineno = rec.get("_line")
        if not rec.get("features") and side_features is not None:
            try:
                rec["features"] = side_features[int(rec["id"])]
            except (KeyError, TypeError, ValueError):
                raise ParseError(
                    f"no embedding for id {rec.get('id')!r} in {embeddings_path}", line=lineno
                ) from None
        for key in ("id", "source", "features", "label"):
            if key not in rec:
                raise ParseError(f"record missing field {key!r}", line=lineno)
        try:
            feats = np.asarray(rec["features"], dtype=float)
            ex = Example(
                id=int(rec["id"]),
                source=str(rec["source"]),
                features=feats,
                label=int(rec["label"]),
                tokens=tuple(str(t) for t in rec.get("tokens", ()) or ()),
            )
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed record: {exc}", line=lineno) from exc
        if ex.features.ndim != 1:
            raise ParseError("features must be a flat vector", line=lineno)
        examples.append(ex)

    if num_classes is None:
        num_classes = max((e.label for e in examples), default=-1) + 1
        num_classes = max(num_classes, 1)
    return Dataset(name or str(path), examples, num_classes)


def _check_schemas_match(sources):
    dim = sources[0].feature_dim
    n_classes = sources[0].num_classes
    for s in sources[1:]:
        if s.feature_dim != dim:
            raise SchemaError(
                f"source {s.name!r} has feature_dim {s.feature_dim}, expected {dim}"
            )
        if s.num_classes != n_classes:
            raise SchemaError(
                f"source {s.name!r} has num_classes {s.num_classes}, expected {n_classes}"
            )


def _merge_sources(sources, positions_per_source, name) -> Dataset:
    """Re-id and merge picked rows, carrying provenance and flip metadata."""
    parts = [src._take(np.asarray(pos, dtype=np.int64))
             for src, pos in zip(sources, positions_per_source)]
    provenance: dict[int, tuple[str, int]] = {}
    flipped: list[int] = []
    true_labels: dict[int, int] = {}
    start = 0
    for src, part in zip(sources, parts):
        old_ids = part.ids.tolist()
        provenance.update((start + i, (src.name, old)) for i, old in enumerate(old_ids))
        src_true = src.metadata.get("true_labels", {})
        for i in np.flatnonzero(np.isin(part.ids, src.metadata.get("flipped_ids", []))).tolist():
            flipped.append(start + i)
            true_labels[start + i] = src_true.get(old_ids[i], int(part.y[i]))
        start += len(part)

    # Each part's codes shift past the earlier parts' names; from_columns merges repeated names.
    name_starts = np.cumsum([0] + [len(p.source_names) for p in parts])
    vocab_starts = np.cumsum([0] + [len(p.vocab) for p in parts])
    token_counts = np.concatenate([np.diff(p.token_indptr) for p in parts])
    metadata = {"provenance": provenance, "flipped_ids": flipped, "true_labels": true_labels}
    return Dataset.from_columns(
        name, sources[0].num_classes, metadata,
        ids=np.arange(start, dtype=np.int64),
        X=np.concatenate([p.X for p in parts]), y=np.concatenate([p.y for p in parts]),
        source_codes=np.concatenate([p.source_codes + o for p, o in zip(parts, name_starts)]),
        source_names=sum((p.source_names for p in parts), ()),
        token_indptr=np.concatenate(([0], np.cumsum(token_counts))),
        token_indices=np.concatenate([p.token_indices + o for p, o in zip(parts, vocab_starts)]),
        vocab=sum((p.vocab for p in parts), ()),
    )


def build_multi_source_pool(sources, per_source_cap, rng_seed) -> Dataset:
    """Down-sample every source to min(minority size, cap) and pool them.

    Ids are re-assigned contiguously; a provenance map (new id -> (source,
    original id)) and merged flipped-id metadata are kept on the result.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source")
    _check_schemas_match(sources)
    minority = min(len(s) for s in sources)
    take = min(minority, int(per_source_cap))
    rng = np.random.default_rng(rng_seed)
    picks = [np.sort(rng.choice(len(src), size=take, replace=False)) for src in sources]
    return _merge_sources(sources, picks, "pool")


def concat_datasets(sources, name) -> Dataset:
    """Concatenate sources completely (no down-sampling), re-assigning ids."""
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source")
    _check_schemas_match(sources)
    return _merge_sources(sources, [range(len(s)) for s in sources], name)


def split_dataset(dataset: Dataset, fraction: float, rng_seed: int):
    """Hold out round(fraction * n) examples uniformly; returns (rest, held)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1): {fraction}")
    n_hold = round(fraction * len(dataset))
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(dataset))
    held = dataset.ids[np.sort(order[:n_hold])]
    rest = dataset.ids[np.sort(order[n_hold:])]
    return dataset.subset(rest), dataset.subset(held, name=f"{dataset.name}-held")


def seed_split(pool: Dataset, seed_size: int, rng_seed: int) -> PoolState:
    """Sample the initial labelled seed uniformly without replacement."""
    if seed_size > len(pool):
        raise ValueError(f"seed_size {seed_size} exceeds pool size {len(pool)}")
    if seed_size < 0:
        raise ValueError("seed_size must be >= 0")
    rng = np.random.default_rng(rng_seed)
    labelled = np.zeros(len(pool), dtype=bool)
    labelled[rng.choice(len(pool), size=seed_size, replace=False)] = True
    return PoolState.from_mask(labelled, pool)


def transfer(state: PoolState, batch_ids) -> PoolState:
    """Move a batch from the unlabelled to the labelled side."""
    pos, stray = state.locate_unlabelled(batch_ids)
    if stray:
        raise StateError(
            f"ids not in the unlabelled pool (already labelled or unknown): {stray}"
        )
    labelled = state.labelled_mask.copy()
    labelled[pos] = True
    return PoolState.from_mask(labelled, state.universe)
