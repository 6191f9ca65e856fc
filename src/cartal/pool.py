"""Datasets, synthetic sources, and labelled/unlabelled pool bookkeeping.

A :class:`Dataset` is immutable after construction and shareable across runs.
A run's acquisition history is one int32 array over its pool's rows,
``acquired_round``: -1 where unlabelled, 0 for the seed set and r for a row
acquired at round r. :func:`seed_split` makes it and only :func:`transfer`
advances it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifacts import reading, writing
from .errors import ConfigError, ParseError, SchemaError, StateError

__all__ = [
    "Example",
    "Dataset",
    "SyntheticSourceSpec",
    "load_dataset",
    "write_dataset",
    "generate_synthetic_source",
    "build_multi_source_pool",
    "concat_datasets",
    "seed_split",
    "split_dataset",
    "transfer",
]


@dataclass(frozen=True, slots=True)
class Example:
    """One data point: feature vector, gold label, and its source tag.

    The program holds data as :class:`Dataset` columns; this record type stays
    for :attr:`Dataset.examples`, which perfbench's checks read.
    """

    id: int
    source: str
    features: np.ndarray
    label: int
    tokens: tuple[str, ...] = ()


def _recode(codes, names):
    """Codes into the distinct ``names`` that occur, listed in order of first occurrence."""
    # each code's first position; codes index the short names, so no sort is needed
    first = np.full(len(names), len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    present = np.flatnonzero(first < len(codes))
    distinct = tuple(dict.fromkeys(names[c] for c in present[np.argsort(first[present])].tolist()))
    index = {name: i for i, name in enumerate(distinct)}
    return np.array([index.get(name, -1) for name in names], dtype=np.int64)[codes], distinct


class Dataset:
    """Ordered, validated collection of examples with a shared schema, held as columns.

    Columns (keyword arguments of the constructor): ``ids`` (strictly
    increasing), ``X`` (n x feature_dim), ``y``, ``source_codes`` into
    ``source_names``, each row's tokens as the CSR pair
    ``token_indptr``/``token_indices`` into ``vocab``, and ``flipped``, True
    on rows whose label was flipped as planted noise (default: none). The name
    tables may list names no row uses: row operations keep their parent's, and
    only :func:`concat_datasets`, which pooling goes through, narrows and
    reconciles them.
    """

    def __init__(self, name, num_classes, *, ids, X, y, source_codes, source_names,
                 token_indptr, token_indices, vocab, flipped=None):
        self.name = str(name)
        self.num_classes = int(num_classes)
        self.ids, self.X, self.y = ids, X, y
        self.source_codes, self.source_names = source_codes, source_names
        self.token_indptr, self.token_indices, self.vocab = token_indptr, token_indices, vocab
        self.flipped = np.zeros(len(ids), dtype=bool) if flipped is None else flipped
        self._validate()
        self.feature_dim = int(X.shape[1])

    def _validate(self):
        def fail(message):
            raise SchemaError(f"dataset {self.name!r}: {message}")

        n = len(self.ids)
        if self.X.ndim != 2 or len(self.X) != n:
            fail(f"X has shape {self.X.shape}, expected {n} rows")
        for column in ("y", "source_codes", "flipped"):
            if len(getattr(self, column)) != n:
                fail(f"{column} has {len(getattr(self, column))} entries for {n} ids")
        indptr = self.token_indptr
        if (len(indptr) != n + 1 or indptr[0] != 0 or (np.diff(indptr) < 0).any()
                or indptr[-1] != len(self.token_indices)):
            fail(f"token_indptr must rise from 0 to {len(self.token_indices)} in {n + 1} entries")
        for what, codes, names in (("source code", self.source_codes, self.source_names),
                                   ("token index", self.token_indices, self.vocab)):
            bad = (codes < 0) | (codes >= len(names))
            if bad.any():
                fail(f"{what} {codes[bad][0]} outside [0, {len(names)})")
        if self.num_classes < 1:
            fail("num_classes must be >= 1")
        if (self.ids < 0).any():
            fail(f"negative id {self.ids[self.ids < 0][0]}")
        steps = np.diff(self.ids)
        if (steps <= 0).any():
            at = int(np.argmax(steps <= 0))
            kind = "duplicate" if steps[at] == 0 else "non-increasing"
            fail(f"{kind} id {self.ids[at + 1]}")
        bad = (self.y < 0) | (self.y >= self.num_classes)
        if bad.any():
            at = int(np.argmax(bad))
            fail(f"example {self.ids[at]} has label {self.y[at]} outside [0, {self.num_classes})")
        finite = np.isfinite(self.X)
        if not finite.all():
            fail(f"example {self.ids[np.argmin(finite.all(axis=1))]} has a non-finite feature")

    def __len__(self):
        return len(self.ids)

    @cached_property
    def examples(self) -> tuple[Example, ...]:
        """Per-example view, built on first use. The program does not use it;
        it stays because perfbench's checks read it."""
        bounds = self.token_indptr.tolist()
        tokens = [self.vocab[t] for t in self.token_indices.tolist()]
        return tuple(
            Example(i, self.source_names[c], x, label, tuple(tokens[a:b]))
            for i, c, x, label, a, b in zip(self.ids.tolist(), self.source_codes.tolist(), self.X,
                                            self.y.tolist(), bounds[:-1], bounds[1:])
        )

    def by_id(self, example_id: int) -> Example:
        """The :class:`Example` of one id; stays because perfbench's tracer counts its calls."""
        [pos] = self.positions([example_id])
        if pos < 0:
            raise KeyError(example_id)
        return self.examples[pos]

    @property
    def metadata(self) -> dict:
        """``{"flipped_ids": [...]}``, the ids of the :attr:`flipped` rows. The
        program reads the column; this view stays because perfbench's checks read it."""
        return {"flipped_ids": self.ids[self.flipped].tolist()}

    def positions(self, ids) -> np.ndarray:
        """Row positions of ``ids``, -1 where an id is absent; only perfbench and the tests call it."""
        ids = np.fromiter(ids, dtype=np.int64)
        pos = np.searchsorted(self.ids, ids)
        found = pos < len(self.ids)
        found[found] = self.ids[pos[found]] == ids[found]
        return np.where(found, pos, -1)

    def source_counts(self, rows) -> dict[str, int]:
        """Rows per source among ``rows`` (positions or a boolean mask); every source is listed."""
        counts = np.bincount(self.source_codes[rows], minlength=len(self.source_names))
        return dict(zip(self.source_names, counts.tolist()))

    def token_presence(self, rows) -> np.ndarray:
        """Which vocabulary ids occur in ``rows`` (positions or a boolean mask);
        rows without tokens contribute nothing."""
        take = np.zeros(len(self), dtype=bool)
        take[rows] = True
        counts = np.bincount(self.token_indices[np.repeat(take, np.diff(self.token_indptr))],
                             minlength=len(self.vocab))
        return counts > 0

    def take(self, pos, name=None) -> "Dataset":
        """New dataset of the rows at ``pos``, ascending; ids are kept, and so are the name tables."""
        lengths = np.diff(self.token_indptr)[pos]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        token_pos = np.repeat(self.token_indptr[pos] - indptr[:-1], lengths) + np.arange(indptr[-1])
        return Dataset(
            name or self.name, self.num_classes,
            ids=self.ids[pos], X=self.X[pos], y=self.y[pos], flipped=self.flipped[pos],
            source_codes=self.source_codes[pos], source_names=self.source_names,
            token_indptr=indptr, token_indices=self.token_indices[token_pos], vocab=self.vocab,
        )

    def subset(self, ids, name=None) -> "Dataset":
        """:meth:`take` of the rows holding ``ids``; only perfbench and the tests call it."""
        wanted_ids = np.unique(np.fromiter(ids, dtype=np.int64))
        pos = self.positions(wanted_ids)
        if (pos < 0).any():
            raise ValueError(f"unknown ids in subset request: {wanted_ids[pos < 0][:10].tolist()}")
        return self.take(pos, name)


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
        # keyed by field: the config parser prefixes the source's JSON path
        if not 0.0 <= self.label_flip_rate <= 1.0:
            raise ConfigError(f"must lie in [0, 1] (source {self.name!r})", key="label_flip_rate")
        if not 0 < self.noise_scale < math.inf:  # also false for NaN
            raise ConfigError(f"must be finite and > 0 (source {self.name!r})", key="noise_scale")
        if not 0.0 <= self.centroid_overlap < 1.0:
            raise ConfigError(f"must lie in [0, 1) (source {self.name!r})", key="centroid_overlap")
        if self.n < 0:
            raise ConfigError(f"must be >= 0 (source {self.name!r})", key="n")
        if len(self.class_centroids) < 2:
            raise ConfigError(f"need at least 2 classes (source {self.name!r})", key="class_centroids")
        dims = {len(c) for c in self.class_centroids}
        if len(dims) > 1 or 0 in dims:
            raise ConfigError(f"centroids must share one dimension of at least 1 feature "
                              f"(source {self.name!r})", key="class_centroids")
        if not all(math.isfinite(v) for c in self.class_centroids for v in c):
            raise ConfigError(f"centroid entries must be finite (source {self.name!r})",
                              key="class_centroids")

    @property
    def num_classes(self) -> int:
        return len(self.class_centroids)

    @property
    def feature_dim(self) -> int:
        return len(self.class_centroids[0])


def _feature_tokens(feats: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Token ids of ``f"f{j}={round(v, 1):.1f}"`` per feature, and their vocabulary.

    Keys are integer tenths, which also folds "-0.0" into "0.0". They are
    ``rint(v * 10)`` wherever ``v * 10`` lies more than 1e-5 from a .5 tie and
    below 2^31 in magnitude, so its rounding error (under 2^-21) cannot cross a
    tie; elsewhere Python's ``round(v, 1)`` decides. A value that is not finite,
    or too large for an int64 key, raises :class:`SchemaError`.
    """
    n, d = feats.shape
    scaled = feats.ravel() * 10.0
    # keys are tenths * d + feature index, in int64; also true for NaN and inf
    beyond = ~(np.abs(scaled) < 2.0 ** 62 / d)
    if beyond.any():
        at = int(np.argmax(beyond))
        raise SchemaError(f"feature f{at % d} value {feats.ravel()[at]!r} is not finite or too large "
                          f"for its token key (|value| < {2.0 ** 62 / d / 10:.3g})")
    tenths = np.rint(scaled)
    far = (np.abs(np.abs(scaled - tenths) - 0.5) > 1e-5) & (np.abs(scaled) < 2.0 ** 31)
    near = np.flatnonzero(~far)
    tenths[near] = np.rint(np.array([round(v, 1) for v in feats.ravel()[near].tolist()]) * 10.0)
    distinct, token_ids = np.unique(tenths.astype(np.int64) * d + np.tile(np.arange(d), n),
                                    return_inverse=True)
    vocab = tuple(f"f{k % d}={(k // d) / 10:.1f}" for k in distinct.tolist())
    return token_ids.reshape(n, d), vocab


def generate_synthetic_source(spec: SyntheticSourceSpec, rng_seed: int) -> Dataset:
    """Draw ``spec.n`` examples around class centroids, then plant label flips.

    Exactly ``round(label_flip_rate * n)`` examples, chosen by shuffling, get
    their label replaced with a uniformly random *different* class; the
    dataset's ``flipped`` column marks them.
    """
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
    flipped = np.zeros(n, dtype=bool)
    flipped[flip_ids] = True

    token_ids, vocab = _feature_tokens(feats)
    # the vocabulary in order of first use, as the source's file loads it back
    token_ids, vocab = _recode(token_ids.ravel(), vocab)
    return Dataset(
        spec.name, C,
        ids=np.arange(n, dtype=np.int64), X=feats, y=labels.astype(np.int64), flipped=flipped,
        source_codes=np.zeros(n, dtype=np.int64), source_names=(spec.name,),
        token_indptr=np.arange(n + 1, dtype=np.int64) * d, token_indices=token_ids, vocab=vocab,
    )


_NUMBERS = {int, float}  # exact types: a JSON true or false loads as bool, a subclass of int


def _is_int64(value) -> bool:
    return type(value) is int and -2 ** 63 <= value < 2 ** 63


def _field(rec: dict, key: str, ok, what: str, lineno: int):
    """``rec[key]``, which must be present and satisfy ``ok``; ``what`` names the type wanted."""
    if key not in rec:
        raise ParseError(f"record missing field {key!r}", line=lineno)
    value = rec[key]
    if not ok(value):
        raise ParseError(f"field {key!r} must be {what}, got {value!r:.40}", line=lineno)
    return value


def write_dataset(ds: Dataset, path):
    """Write ``ds`` to ``path`` as JSONL, one record per row, replacing the file
    atomically; returns ``path``. Floats are written by ``repr``, so
    :func:`load_dataset` gives back every column bit for bit, except that
    ``flipped`` is not written and the name tables list only the names the
    rows use, in order of first use."""
    bounds = ds.token_indptr.tolist()
    with writing(path) as fh:
        for i, c, x, label, a, b in zip(ds.ids.tolist(), ds.source_codes.tolist(), ds.X.tolist(),
                                        ds.y.tolist(), bounds[:-1], bounds[1:]):
            fh.write(json.dumps({
                "id": i,
                "source": ds.source_names[c],
                "features": x,
                "tokens": [ds.vocab[t] for t in ds.token_indices[a:b].tolist()],
                "label": label,
            }) + "\n")
    return path


def load_dataset(path) -> Dataset:
    """Read a JSONL dataset file written as :func:`write_dataset` writes it
    and validate all invariants; a :class:`ParseError` (with its line) or
    :class:`SchemaError` names the file.

    The dataset is named by the sorted distinct sources of its rows, joined
    by "+" ("" for an empty file), so a one-source file gets its source's
    name, as a synthetic source does, wherever the file lives; the val split
    is seeded by that name. ``num_classes`` is ``max(label) + 1`` over the
    file. Order is preserved.
    """
    try:
        with reading(path) as fh:
            return _read_dataset(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except (ParseError, SchemaError) as exc:  # name the file, which the dataset's name does not
        exc.args = (f"{path}: {exc}",)
        raise


def _read_dataset(lines) -> Dataset:
    """One pass over the lines into plain lists, one array per column at the end."""
    ids, labels, codes, features, token_ids, indptr = [], [], [], [], [], [0]
    sources: dict[str, int] = {}
    vocab: dict[str, int] = {}
    dim = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, an int past its digit limit, or too deep
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", line=lineno) from exc
        if type(rec) is not dict:
            raise ParseError("record is not an object", line=lineno)
        i = _field(rec, "id", _is_int64, "an int64 integer", lineno)
        source = _field(rec, "source", lambda v: type(v) is str, "a string", lineno)
        feats = _field(rec, "features", lambda v: type(v) is list and set(map(type, v)) <= _NUMBERS,
                       "a flat list of numbers", lineno)
        label = _field(rec, "label", _is_int64, "an int64 integer", lineno)
        tokens = rec.get("tokens", [])
        if type(tokens) is not list or not all(type(t) is str for t in tokens):
            raise ParseError(f"field 'tokens' must be a list of strings, got {tokens!r:.40}",
                             line=lineno)
        dim = len(feats) if dim is None else dim
        if len(feats) != dim:
            raise SchemaError(f"example {i} has feature dim {len(feats)}, expected {dim}")
        if not dim:
            raise SchemaError(f"example {i} has no features")
        try:
            features.extend(map(float, feats))
        except OverflowError as exc:
            raise ParseError("field 'features' holds a number beyond the float range",
                             line=lineno) from exc
        ids.append(i)
        labels.append(label)
        codes.append(sources.setdefault(source, len(sources)))
        token_ids.extend(vocab.setdefault(t, len(vocab)) for t in tokens)
        indptr.append(len(token_ids))
    return Dataset(
        "+".join(sorted(sources)), max(max(labels, default=-1) + 1, 1),
        ids=np.array(ids, dtype=np.int64),
        X=np.array(features, dtype=float).reshape(len(ids), dim or 0),
        y=np.array(labels, dtype=np.int64),
        source_codes=np.array(codes, dtype=np.int64), source_names=tuple(sources),
        token_indptr=np.array(indptr, dtype=np.int64),
        token_indices=np.array(token_ids, dtype=np.int64), vocab=tuple(vocab),
    )


def build_multi_source_pool(sources, per_source_cap, rng_seed) -> Dataset:
    """Down-sample every source to min(minority size, cap) and pool them with
    :func:`concat_datasets`.

    Each source's rows are drawn in source order, also where the cap does not
    cut it, since a later source's draw depends on the generator's state; a
    source the cap does not cut is pooled as it is, without a copy.
    """
    sources = list(sources)
    take = min(min((len(s) for s in sources), default=0), int(per_source_cap))
    rng = np.random.default_rng(rng_seed)
    picks = [np.sort(rng.choice(len(src), size=take, replace=False)) for src in sources]
    return concat_datasets([src if take == len(src) else src.take(pos)
                            for src, pos in zip(sources, picks)], "pool")


def concat_datasets(sources, name) -> Dataset:
    """Concatenate sources completely (no down-sampling), re-assigning ids.

    The one place that checks that sources match (at least one source, one
    feature dim) and that reconciles name tables: sources and vocabulary are
    narrowed to those present, in first-appearance order. The class count is
    the largest of the sources', since a source may lack a class.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source")
    first = sources[0]
    for s in sources[1:]:
        if s.feature_dim != first.feature_dim:
            raise SchemaError(f"source {s.name!r} has feature_dim {s.feature_dim}, "
                              f"expected {first.feature_dim}")
    # Each source's codes shift past the earlier sources' names; _recode merges repeated names.
    name_starts = np.cumsum([0] + [len(s.source_names) for s in sources])
    vocab_starts = np.cumsum([0] + [len(s.vocab) for s in sources])
    token_counts = np.concatenate([np.diff(s.token_indptr) for s in sources])
    source_codes, source_names = _recode(
        np.concatenate([s.source_codes + o for s, o in zip(sources, name_starts)]),
        sum((s.source_names for s in sources), ()))
    token_indices, vocab = _recode(
        np.concatenate([s.token_indices + o for s, o in zip(sources, vocab_starts)]),
        sum((s.vocab for s in sources), ()))
    return Dataset(
        name, max(s.num_classes for s in sources),  # each source's labels lie below its own count
        ids=np.arange(len(token_counts), dtype=np.int64),
        X=np.concatenate([s.X for s in sources]), y=np.concatenate([s.y for s in sources]),
        flipped=np.concatenate([s.flipped for s in sources]),
        source_codes=source_codes, source_names=source_names,
        token_indptr=np.concatenate(([0], np.cumsum(token_counts))),
        token_indices=token_indices, vocab=vocab,
    )


def split_dataset(dataset: Dataset, fraction: float, rng_seed: int):
    """Hold out round(fraction * n) examples uniformly; returns (rest, held)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1): {fraction}")
    n_hold = round(fraction * len(dataset))
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(dataset))
    return (dataset.take(np.sort(order[n_hold:])),
            dataset.take(np.sort(order[:n_hold]), name=f"{dataset.name}-held"))


def seed_split(pool: Dataset, seed_size: int, rng_seed: int) -> np.ndarray:
    """A new ``acquired_round`` array over ``pool``'s rows: 0 on a seed set of
    ``seed_size`` rows sampled uniformly without replacement, -1 elsewhere.
    It is int32 because the round count is bounded only by the pool's size."""
    if seed_size > len(pool):
        raise ValueError(f"seed_size {seed_size} exceeds pool size {len(pool)}")
    if seed_size < 0:
        raise ValueError("seed_size must be >= 0")
    rng = np.random.default_rng(rng_seed)
    acquired_round = np.full(len(pool), -1, dtype=np.int32)
    acquired_round[rng.choice(len(pool), size=seed_size, replace=False)] = 0
    return acquired_round


def transfer(acquired_round: np.ndarray, rows, rnd: int) -> None:
    """Label the pool rows ``rows`` at round ``rnd``: write ``rnd`` into
    ``acquired_round`` at each of them, in place. A row out of range
    (negative included) or already labelled raises :class:`StateError`,
    and then nothing is written."""
    rows = np.asarray(rows, dtype=np.int64)
    ok = (rows >= 0) & (rows < len(acquired_round))
    ok[ok] = acquired_round[rows[ok]] < 0
    if not ok.all():
        raise StateError(f"rows not in the unlabelled pool (already labelled or out of range): "
                         f"{rows[~ok][:10].tolist()}")
    acquired_round[rows] = rnd
