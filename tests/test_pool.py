"""Dataset ingestion, synthetic generation, pooling, and transfer bookkeeping."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartal.errors import ConfigError, ParseError, SchemaError, StateError
from cartal.pool import (
    Dataset,
    PoolState,
    SyntheticSourceSpec,
    build_multi_source_pool,
    concat_datasets,
    generate_synthetic_source,
    load_dataset,
    seed_split,
    split_dataset,
    transfer,
)
from cartal.pool import _feature_tokens, _recode

from conftest import make_dataset

CENTROIDS_2D = ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))


def _spec(name="src", n=100, flip=0.0, **kw):
    return SyntheticSourceSpec(name=name, n=n, class_centroids=CENTROIDS_2D,
                               label_flip_rate=flip, **kw)


def _tiny_dataset(n, source="s", d=1, C=3):
    return make_dataset(np.zeros((n, d)), np.arange(n) % C, num_classes=C, name=source)


def _sides(state):
    """The labelled and the unlabelled ids of a state, as sets."""
    ids = state.universe.ids
    return set(ids[state.labelled_mask].tolist()), set(ids[~state.labelled_mask].tolist())


def _state(labelled, pool):
    return PoolState(np.isin(pool.ids, list(labelled)), pool)


# --- load_dataset -------------------------------------------------------------

def test_load_jsonl_echoes_records(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        {"id": 0, "source": "a", "features": [1.0, 2.0], "label": 0},
        {"id": 1, "source": "a", "features": [0.5, -1.0], "tokens": ["x", "y"], "label": 2},
        {"id": 5, "source": "b", "features": [0.0, 0.0], "label": 1},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = load_dataset(path)
    assert len(ds) == 3
    assert ds.feature_dim == 2
    assert ds.num_classes == 3
    assert ds.examples[1].tokens == ("x", "y")
    assert ds.ids.tolist() == [0, 1, 5]
    assert ds.name == "a+b"  # its sources, not its path


def test_load_empty_file_is_valid(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    ds = load_dataset(path)
    assert len(ds) == 0
    assert ds.name == ""


def test_load_rejects_inconsistent_feature_dim(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [
        {"id": 0, "source": "a", "features": [1.0, 2.0, 3.0, 4.0], "label": 0},
        {"id": 1, "source": "a", "features": [1.0, 2.0], "label": 0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows))
    with pytest.raises(SchemaError, match="1"):
        load_dataset(path)


def test_load_rejects_duplicate_id(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [{"id": 3, "source": "a", "features": [1.0], "label": 0}] * 2
    path.write_text("\n".join(json.dumps(r) for r in rows))
    with pytest.raises(SchemaError, match="d.jsonl: .*duplicate"):
        load_dataset(path)


def test_load_reports_parse_error_with_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": 0, "source": "a", "features": [1.0], "label": 0}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        load_dataset(path)


def test_load_rejects_missing_field(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": 0, "features": [1.0], "label": 0}\n')
    with pytest.raises(ParseError, match="source"):
        load_dataset(path)


def test_load_csv_variant(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "id,source,label,tok0,tok1,f0,f1\n"
        "0,a,1,alpha,beta,0.5,1.5\n"
        "2,b,0,gamma,,-1.0,2.0\n"
    )
    ds = load_dataset(path, format="csv")
    assert len(ds) == 2
    assert ds.examples[0].tokens == ("alpha", "beta")
    assert ds.examples[1].tokens == ("gamma",)
    assert ds.examples[1].features.tolist() == [-1.0, 2.0]


def test_load_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_dataset(tmp_path / "x", format="parquet")


# --- generate_synthetic_source ---------------------------------------------------

def test_generation_is_deterministic():
    a = generate_synthetic_source(_spec(n=100), rng_seed=7)
    b = generate_synthetic_source(_spec(n=100), rng_seed=7)
    assert len(a) == len(b) == 100
    for ea, eb in zip(a.examples, b.examples):
        assert (ea.features == eb.features).all()
        assert ea.label == eb.label and ea.tokens == eb.tokens
    assert (a.flipped == b.flipped).all()


def test_flip_count_is_exact():
    ds = generate_synthetic_source(_spec(n=1000, flip=0.3), rng_seed=7)
    assert np.count_nonzero(ds.flipped) == 300


def _labels_differ_exactly_where_flipped(rate, n, seed):
    # features and gold labels are drawn before the flips, so rate 0 gives the gold labels
    ds = generate_synthetic_source(_spec(n=n, flip=rate), rng_seed=seed)
    gold = generate_synthetic_source(_spec(n=n), rng_seed=seed)
    assert (ds.X == gold.X).all()
    assert ((ds.y != gold.y) == ds.flipped).all()
    return ds


def test_flip_rate_one_flips_everything():
    ds = _labels_differ_exactly_where_flipped(1.0, 100, 3)
    assert ds.flipped.all()


@pytest.mark.parametrize("rate", [0.1, 0.5])
def test_labels_differ_from_gold_exactly_where_flipped(rate):
    ds = _labels_differ_exactly_where_flipped(rate, 200, 11)
    assert np.count_nonzero(ds.flipped) == round(rate * 200)


def test_flip_rate_zero_flips_nothing():
    ds = generate_synthetic_source(_spec(n=50), rng_seed=1)
    assert not ds.flipped.any()
    assert ds.metadata == {"flipped_ids": []}


def test_metadata_is_a_read_only_view_of_flipped():
    ds = generate_synthetic_source(_spec(n=50, flip=0.2), rng_seed=1)
    assert ds.metadata == {"flipped_ids": np.flatnonzero(ds.flipped).tolist()}
    assert len(ds.metadata["flipped_ids"]) == 10
    with pytest.raises(AttributeError):
        ds.metadata = {}


def test_load_rejects_non_finite_features(tmp_path):
    for features in ([float("nan"), 1.0], [float("inf"), 0.0]):
        path = tmp_path / "d.jsonl"
        rows = [{"id": 4, "source": "a", "features": [0.0, 1.0], "label": 0},
                {"id": 7, "source": "a", "features": features, "label": 1}]
        path.write_text("\n".join(json.dumps(r) for r in rows))  # writes NaN / Infinity
        with pytest.raises(SchemaError, match="example 7 has a non-finite feature"):
            load_dataset(path)


def test_dataset_rejects_non_finite_features():
    X = np.zeros((3, 4))
    X[2, 1] = -np.inf
    X[1, 3] = np.nan
    with pytest.raises(SchemaError, match="dataset 'bad': example 1 has a non-finite feature"):
        Dataset("bad", 2, **{**_columns(), "X": X})


@pytest.mark.parametrize("kw, key", [
    ({"noise_scale": float("inf")}, "noise_scale"),
    ({"noise_scale": float("nan")}, "noise_scale"),
    ({"class_centroids": ((0.0, 0.0), (float("inf"), 1.0))}, "class_centroids"),
    ({"class_centroids": ((0.0, float("nan")), (3.0, 1.0))}, "class_centroids"),
])
def test_source_spec_rejects_non_finite_numbers(kw, key):
    with pytest.raises(ConfigError) as info:
        SyntheticSourceSpec(**{"name": "src", "n": 10, "class_centroids": CENTROIDS_2D, **kw})
    assert info.value.key == key


def test_generation_empty_and_bad_configs():
    assert len(generate_synthetic_source(_spec(n=0), rng_seed=0)) == 0
    with pytest.raises(ConfigError) as info:
        SyntheticSourceSpec("x", 10, ((0.0, 0.0),))
    assert info.value.key == "class_centroids"
    with pytest.raises(ConfigError):
        _spec(flip=1.5)
    with pytest.raises(ConfigError):
        _spec(noise_scale=0.0)


def test_tokens_quantize_to_one_decimal():
    ds = generate_synthetic_source(_spec(n=5), rng_seed=2)
    for e in ds.examples:
        assert len(e.tokens) == 2
        for j, t in enumerate(e.tokens):
            assert t.startswith(f"f{j}=")
            assert float(t.split("=")[1]) == pytest.approx(e.features[j], abs=0.051)
    # negative zero folds into 0.0
    assert "f0=-0.0" not in {t for e in ds.examples for t in e.tokens}


def test_centroid_overlap_shrinks_spread():
    far = generate_synthetic_source(_spec(n=400), rng_seed=5)
    near = generate_synthetic_source(_spec(n=400, centroid_overlap=0.9), rng_seed=5)
    assert near.X.std() < far.X.std()


# --- build_multi_source_pool --------------------------------------------------------

def test_pool_downsamples_large_imbalanced_sources_to_even_shares():
    sources = [_tiny_dataset(n, s) for n, s in ((549500, "A"), (146000, "B"), (103000, "C"))]
    pool = build_multi_source_pool(sources, per_source_cap=20000, rng_seed=0)
    assert len(pool) == 60000
    counts = {}
    for e in pool.examples:
        counts[e.source] = counts.get(e.source, 0) + 1
    assert counts == {"A": 20000, "B": 20000, "C": 20000}


def test_pool_minority_downsampling():
    sources = [_tiny_dataset(n, s) for n, s in ((100, "A"), (50, "B"), (30, "C"))]
    pool = build_multi_source_pool(sources, per_source_cap=10**9, rng_seed=0)
    assert len(pool) == 90
    counts = {}
    for e in pool.examples:
        counts[e.source] = counts.get(e.source, 0) + 1
    assert counts == {"A": 30, "B": 30, "C": 30}


def test_pool_single_source_cap():
    pool = build_multi_source_pool([_tiny_dataset(40, "A")], per_source_cap=20, rng_seed=0)
    assert len(pool) == 20


def _source_of_rows(ds):
    return [ds.source_names[c] for c in ds.source_codes.tolist()]


def test_pool_ids_contiguous_in_source_order():
    sources = [_tiny_dataset(10, "A"), _tiny_dataset(10, "B")]
    pool = build_multi_source_pool(sources, per_source_cap=5, rng_seed=1)
    assert pool.ids.tolist() == list(range(10))
    assert _source_of_rows(pool) == ["A"] * 5 + ["B"] * 5


def test_pool_carries_flipped_metadata_through():
    flipped_src = generate_synthetic_source(_spec("noisy", n=40, flip=0.5), rng_seed=2)
    clean_src = generate_synthetic_source(_spec("clean", n=40), rng_seed=3)
    pool = build_multi_source_pool([clean_src, flipped_src], per_source_cap=30, rng_seed=4)
    assert pool.flipped.any()
    assert pool.source_names == ("clean", "noisy")
    assert (pool.source_codes[pool.flipped] == 1).all()
    # pooled ids are reassigned, so a pooled row is found in its source by its features
    src_flipped = dict(zip(map(tuple, flipped_src.X.tolist()), flipped_src.flipped.tolist()))
    for x in pool.X[pool.flipped].tolist():
        assert src_flipped[tuple(x)]


def test_concat_keeps_unequal_sources_whole():
    a = _tiny_dataset(25, "A")
    b = make_dataset(np.arange(7.0)[:, None] + 100.0, np.arange(7) % 3, num_classes=3, name="B")
    merged = concat_datasets([a, b], "both")
    assert len(merged) == 32
    assert merged.ids.tolist() == list(range(32))
    assert _source_of_rows(merged)[30] == "B" and merged.X[30].tolist() == b.X[5].tolist()


def _flipped_by_row(*datasets):
    """Each row's flipped mark, keyed by its source name and feature row."""
    return {(name, tuple(x)): f for ds in datasets
            for name, x, f in zip(_source_of_rows(ds), ds.X.tolist(), ds.flipped.tolist())}


@given(st.lists(st.tuples(st.integers(0, 40), st.sampled_from([0.0, 0.2, 0.5, 1.0])),
                min_size=1, max_size=3),
       st.integers(0, 2**16), st.data())
@settings(max_examples=40, deadline=None)
def test_flipped_stays_aligned_with_its_rows(shapes, seed, data):
    sources = [generate_synthetic_source(_spec(f"s{j}", n=n, flip=rate), rng_seed=seed + j)
               for j, (n, rate) in enumerate(shapes)]
    for src in sources:
        # subset and split_dataset keep ids, so the parent's row is found by id
        wanted = data.draw(st.sets(st.sampled_from(src.ids.tolist()))) if len(src) else set()
        children = [src.subset(wanted), *split_dataset(src, 0.3, seed)]
        children.append(children[0].subset(children[0].ids[::2]))
        for child in children:
            assert (child.flipped == src.flipped[src.positions(child.ids)]).all()
    # pooling reassigns ids, so the source row is found by its features
    by_row = _flipped_by_row(*sources)
    cap = data.draw(st.integers(0, 40))
    for merged in (build_multi_source_pool(sources, cap, seed), concat_datasets(sources, "all")):
        assert _flipped_by_row(merged).items() <= by_row.items()
        assert len(_flipped_by_row(merged)) == len(merged)


def test_pool_rejects_schema_mismatch():
    a = _tiny_dataset(10, "A", d=2)
    b = _tiny_dataset(10, "B", d=3)
    with pytest.raises(SchemaError):
        build_multi_source_pool([a, b], per_source_cap=5, rng_seed=0)
    c = make_dataset(np.zeros((1, 2)), [0], num_classes=2, name="C")
    with pytest.raises(SchemaError):
        build_multi_source_pool([a, c], per_source_cap=5, rng_seed=0)


# --- seed_split / transfer ------------------------------------------------------------

def test_seed_split_sizes():
    pool = _tiny_dataset(600)
    state = seed_split(pool, 50, rng_seed=0)
    labelled, unlabelled = _sides(state)
    assert len(labelled) == 50
    assert len(unlabelled) == 550
    assert not labelled & unlabelled


def test_seed_split_empty_and_exhaustive():
    pool = _tiny_dataset(10)
    cold = seed_split(pool, 0, rng_seed=0)
    assert _sides(cold)[0] == set()
    full = seed_split(pool, 10, rng_seed=0)
    assert _sides(full)[1] == set()


def test_seed_split_rejects_oversize():
    with pytest.raises(ValueError):
        seed_split(_tiny_dataset(5), 6, rng_seed=0)


def test_transfer_set_algebra():
    pool = _tiny_dataset(3)
    state = _state({1}, pool)
    new = transfer(state, {2})
    assert _sides(new) == ({1, 2}, {0})
    # original state is unchanged
    assert _sides(state)[0] == {1}


def test_transfer_rejects_already_labelled():
    pool = _tiny_dataset(3)
    state = _state({1}, pool)
    with pytest.raises(StateError, match="1"):
        transfer(state, {1})


def test_seed_then_seven_transfers_reach_4k():
    pool = _tiny_dataset(4200)
    state = seed_split(pool, 500, rng_seed=0)
    for _ in range(7):
        batch = pool.ids[~state.labelled_mask][:500]
        state = transfer(state, batch)
    assert np.count_nonzero(state.labelled_mask) == 4000


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_pool_state_invariants_under_random_transfers(seed):
    rng = np.random.default_rng(seed)
    pool = _tiny_dataset(40)
    state = seed_split(pool, int(rng.integers(0, 20)), int(rng.integers(0, 100)))
    total = len(pool)
    for _ in range(3):
        labelled, unlabelled = _sides(state)
        if not unlabelled:
            break
        size = int(rng.integers(1, len(unlabelled) + 1))
        batch = rng.choice(sorted(unlabelled), size=size, replace=False)
        state = transfer(state, batch)
        labelled, unlabelled = _sides(state)
        assert not labelled & unlabelled
        assert len(labelled) + len(unlabelled) == total


# --- split_dataset ----------------------------------------------------------------

def test_split_dataset_holds_out_fraction():
    ds = _tiny_dataset(200)
    rest, held = split_dataset(ds, 0.1, rng_seed=0)
    assert len(held) == 20
    assert len(rest) == 180
    assert set(rest.ids) | set(held.ids) == set(ds.ids)
    assert not set(rest.ids) & set(held.ids)


def test_dataset_validation():
    with pytest.raises(SchemaError, match="label"):
        make_dataset(np.zeros((1, 1)), [5], num_classes=3)
    with pytest.raises(SchemaError, match="non-increasing"):
        make_dataset(np.zeros((2, 1)), [0, 0], ids=[1, 0], num_classes=2)


def _columns(n=3):
    """Valid columns of an n-row dataset with two sources and a three-token vocabulary."""
    return dict(ids=np.arange(n), X=np.zeros((n, 4)), y=np.zeros(n, dtype=np.int64),
                source_codes=np.arange(n) % 2, source_names=("a", "b"),
                token_indptr=np.arange(n + 1), token_indices=np.arange(n) % 3, vocab=("x", "y", "z"))


@pytest.mark.parametrize("column, value", [
    ("X", np.zeros((2, 4))),
    ("X", np.zeros(3)),
    ("y", np.zeros(4, dtype=np.int64)),
    ("source_codes", np.zeros(2, dtype=np.int64)),
    ("flipped", np.zeros(2, dtype=bool)),
    ("token_indptr", np.arange(3)),
    ("token_indptr", np.array([1, 1, 2, 3])),
    ("token_indptr", np.array([0, 2, 1, 3])),
    ("token_indptr", np.array([0, 1, 2, 2])),
    ("source_codes", np.array([0, -1, 1])),
    ("source_codes", np.array([0, 2, 1])),
    ("token_indices", np.array([0, -1, 2])),
    ("token_indices", np.array([0, 3, 2])),
], ids=["X-rows", "X-1d", "y-length", "codes-length", "flipped-length", "indptr-length",
        "indptr-start", "indptr-decreasing", "indptr-end", "code-negative", "code-too-large",
        "token-negative", "token-too-large"])
def test_dataset_rejects_malformed_columns(column, value):
    Dataset("ok", 2, **_columns())
    with pytest.raises(SchemaError, match="dataset 'bad'"):
        Dataset("bad", 2, **{**_columns(), column: value})


# --- array kernels against per-example references ------------------------------------

_values = st.one_of(
    st.floats(-60, 60, allow_nan=False),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-20_000_000, 20_000_000).map(lambda k: k / 20),  # twentieths: exact and near ties
    st.builds(lambda k, eps: (2 * k + 1) / 20 + eps,  # within 1e-9 of a tie
              st.integers(-20_000_000, 20_000_000), st.floats(-1e-9, 1e-9)),
    st.sampled_from([0.05, -0.05, 0.25, -0.35, 2.45, -2.45, 0.0, -0.0, -0.04]),  # -0.0, -0.04 read "0.0"
)


@given(st.lists(_values, min_size=1, max_size=24), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_feature_tokens_match_python_rounding(values, d):
    feats = np.tile(np.array(values, dtype=float)[:, None], (1, d))
    token_ids, vocab = _feature_tokens(feats)
    expected = [[f"f{j}={round(float(v), 1) + 0.0:.1f}" for j, v in enumerate(row)] for row in feats]
    assert [[vocab[t] for t in row] for row in token_ids.tolist()] == expected


@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12), st.data())
@settings(max_examples=100, deadline=None)
def test_recode_matches_first_occurrence_reference(names, data):
    codes = data.draw(st.lists(st.integers(0, len(names) - 1), max_size=40))
    recoded, distinct = _recode(np.array(codes, dtype=np.int64), tuple(names))
    expected = tuple(dict.fromkeys(names[c] for c in codes))  # repeated names merge
    assert distinct == expected
    assert [distinct[c] for c in recoded.tolist()] == [names[c] for c in codes]


@given(st.sets(st.integers(0, 300), min_size=1, max_size=30), st.data())
@settings(max_examples=80, deadline=None)
def test_mask_state_transfer_matches_set_algebra(ids, data):
    ds = make_dataset(np.zeros((len(ids), 1)), np.zeros(len(ids)), ids=sorted(ids), num_classes=2)
    labelled = set(data.draw(st.sets(st.sampled_from(sorted(ids)))))
    unlabelled = ids - labelled
    state = _state(labelled, ds)
    assert _sides(state) == (labelled, unlabelled)
    assert ds.ids[~state.labelled_mask].tolist() == sorted(unlabelled)
    batch = data.draw(st.sets(st.sampled_from(sorted(unlabelled)))) if unlabelled else set()
    moved = transfer(state, batch)
    assert _sides(moved) == (labelled | batch, unlabelled - batch)
    assert _sides(state)[0] == labelled  # transfer leaves its input alone


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 2.4e17, -2.4e17])
def test_feature_tokens_reject_values_beyond_the_key_range(value):
    _feature_tokens(np.array([[1e17, -1e17]]))  # within range: keys up to 2^62 / d tenths
    with pytest.raises(SchemaError, match="f1 value .* token key"):
        _feature_tokens(np.array([[0.5, value]]))


def test_huge_noise_scale_is_a_named_error_not_one_token():
    spec = SyntheticSourceSpec("wide", 5, ((0.0, 0.0), (1.0, 1.0)), noise_scale=1e300)
    with pytest.raises(SchemaError, match="token key"):
        generate_synthetic_source(spec, 0)
