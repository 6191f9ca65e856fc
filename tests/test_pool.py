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
    Example,
    PoolState,
    SyntheticSourceSpec,
    build_multi_source_pool,
    generate_synthetic_source,
    load_dataset,
    seed_split,
    split_dataset,
    transfer,
)
from cartal.pool import _feature_tokens

CENTROIDS_2D = ((0.0, 0.0), (3.0, 0.0), (0.0, 3.0))


def _spec(name="src", n=100, flip=0.0, **kw):
    return SyntheticSourceSpec(name=name, n=n, class_centroids=CENTROIDS_2D,
                               label_flip_rate=flip, **kw)


def _tiny_dataset(n, source="s", d=1, C=3):
    examples = [Example(i, source, np.zeros(d), i % C) for i in range(n)]
    return Dataset(source, examples, C)


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


def test_load_empty_file_is_valid(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    ds = load_dataset(path)
    assert len(ds) == 0


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
    with pytest.raises(SchemaError, match="duplicate"):
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


def test_load_token_only_records_with_side_embeddings(tmp_path):
    data = tmp_path / "d.jsonl"
    data.write_text(
        '{"id": 0, "source": "a", "tokens": ["x"], "label": 0}\n'
        '{"id": 1, "source": "a", "tokens": ["y"], "label": 1}\n'
    )
    side = tmp_path / "emb.json"
    side.write_text(json.dumps({"0": [1.0, 2.0], "1": [3.0, 4.0]}))
    ds = load_dataset(data, embeddings_path=side)
    assert ds.examples[1].features.tolist() == [3.0, 4.0]
    assert ds.examples[0].tokens == ("x",)

    missing = tmp_path / "partial.json"
    missing.write_text(json.dumps({"0": [1.0, 2.0]}))
    with pytest.raises(ParseError, match="id 1"):
        load_dataset(data, embeddings_path=missing)


# --- generate_synthetic_source ---------------------------------------------------

def test_generation_is_deterministic():
    a = generate_synthetic_source(_spec(n=100), rng_seed=7)
    b = generate_synthetic_source(_spec(n=100), rng_seed=7)
    assert len(a) == len(b) == 100
    for ea, eb in zip(a.examples, b.examples):
        assert (ea.features == eb.features).all()
        assert ea.label == eb.label and ea.tokens == eb.tokens
    assert a.metadata == b.metadata


def test_flip_count_is_exact():
    ds = generate_synthetic_source(_spec(n=1000, flip=0.3), rng_seed=7)
    assert len(ds.metadata["flipped_ids"]) == 300


def test_flip_rate_one_flips_everything():
    ds = generate_synthetic_source(_spec(n=100, flip=1.0), rng_seed=3)
    true = ds.metadata["true_labels"]
    assert len(true) == 100
    for e in ds.examples:
        assert e.label != true[e.id]


def test_flip_rate_zero_flips_nothing():
    ds = generate_synthetic_source(_spec(n=50), rng_seed=1)
    assert ds.metadata["flipped_ids"] == []


def test_generation_empty_and_bad_configs():
    assert len(generate_synthetic_source(_spec(n=0), rng_seed=0)) == 0
    with pytest.raises(ConfigError):
        generate_synthetic_source(
            SyntheticSourceSpec("x", 10, ((0.0, 0.0),)), rng_seed=0
        )
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
    assert near.features_matrix().std() < far.features_matrix().std()


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


def test_pool_ids_contiguous_with_provenance():
    sources = [_tiny_dataset(10, "A"), _tiny_dataset(10, "B")]
    pool = build_multi_source_pool(sources, per_source_cap=5, rng_seed=1)
    assert pool.ids.tolist() == list(range(10))
    prov = pool.metadata["provenance"]
    assert set(prov) == set(range(10))
    assert all(prov[i][0] == ("A" if i < 5 else "B") for i in range(10))


def test_pool_carries_flipped_metadata_through():
    flipped_src = generate_synthetic_source(_spec("noisy", n=40, flip=0.5), rng_seed=2)
    clean_src = generate_synthetic_source(_spec("clean", n=40), rng_seed=3)
    pool = build_multi_source_pool([clean_src, flipped_src], per_source_cap=30, rng_seed=4)
    flipped = set(pool.metadata["flipped_ids"])
    assert flipped
    prov = pool.metadata["provenance"]
    assert all(prov[i][0] == "noisy" for i in flipped)
    orig_flipped = set(flipped_src.metadata["flipped_ids"])
    for i in flipped:
        assert prov[i][1] in orig_flipped


def test_concat_keeps_unequal_sources_whole():
    from cartal.pool import concat_datasets

    a = _tiny_dataset(25, "A")
    b = _tiny_dataset(7, "B")
    merged = concat_datasets([a, b], "both")
    assert len(merged) == 32
    assert merged.ids.tolist() == list(range(32))
    assert merged.metadata["provenance"][30] == ("B", 5)


def test_pool_rejects_schema_mismatch():
    a = _tiny_dataset(10, "A", d=2)
    b = _tiny_dataset(10, "B", d=3)
    with pytest.raises(SchemaError):
        build_multi_source_pool([a, b], per_source_cap=5, rng_seed=0)
    c = Dataset("C", [Example(0, "C", np.zeros(2), 0)], num_classes=2)
    with pytest.raises(SchemaError):
        build_multi_source_pool([a, c], per_source_cap=5, rng_seed=0)


# --- seed_split / transfer ------------------------------------------------------------

def test_seed_split_sizes():
    pool = _tiny_dataset(600)
    state = seed_split(pool, 50, rng_seed=0)
    assert len(state.labelled) == 50
    assert len(state.unlabelled) == 550
    assert not state.labelled & state.unlabelled


def test_seed_split_empty_and_exhaustive():
    pool = _tiny_dataset(10)
    cold = seed_split(pool, 0, rng_seed=0)
    assert cold.labelled == frozenset()
    full = seed_split(pool, 10, rng_seed=0)
    assert full.unlabelled == frozenset()


def test_seed_split_rejects_oversize():
    with pytest.raises(ValueError):
        seed_split(_tiny_dataset(5), 6, rng_seed=0)


def test_transfer_set_algebra():
    pool = _tiny_dataset(3)
    state = PoolState(frozenset({1}), frozenset({2, 0}), pool)
    new = transfer(state, {2})
    assert new.labelled == {1, 2}
    assert new.unlabelled == {0}
    # original state is unchanged
    assert state.labelled == {1}


def test_transfer_rejects_already_labelled():
    pool = _tiny_dataset(3)
    state = PoolState(frozenset({1}), frozenset({0, 2}), pool)
    with pytest.raises(StateError, match="1"):
        transfer(state, {1})


def test_seed_then_seven_transfers_reach_4k():
    pool = _tiny_dataset(4200)
    state = seed_split(pool, 500, rng_seed=0)
    for _ in range(7):
        batch = sorted(state.unlabelled)[:500]
        state = transfer(state, batch)
    assert len(state.labelled) == 4000


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_pool_state_invariants_under_random_transfers(seed):
    rng = np.random.default_rng(seed)
    pool = _tiny_dataset(40)
    state = seed_split(pool, int(rng.integers(0, 20)), int(rng.integers(0, 100)))
    total = len(pool)
    for _ in range(3):
        if not state.unlabelled:
            break
        size = int(rng.integers(1, len(state.unlabelled) + 1))
        batch = rng.choice(sorted(state.unlabelled), size=size, replace=False)
        state = transfer(state, batch)
        assert not state.labelled & state.unlabelled
        assert len(state.labelled) + len(state.unlabelled) == total


def test_state_rejects_overlap_and_strays():
    pool = _tiny_dataset(3)
    with pytest.raises(StateError):
        PoolState(frozenset({0}), frozenset({0, 1}), pool)
    with pytest.raises(StateError):
        PoolState(frozenset({5}), frozenset(), pool)


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
        Dataset("x", [Example(0, "s", np.zeros(1), 5)], num_classes=3)
    with pytest.raises(SchemaError, match="non-increasing"):
        Dataset("x", [Example(1, "s", np.zeros(1), 0), Example(0, "s", np.zeros(1), 0)], 2)


# --- array kernels against per-example references ------------------------------------

_values = st.one_of(st.floats(-60, 60, allow_nan=False),
                    st.integers(-1200, 1200).map(lambda k: k / 20))  # exact and near ties


@given(st.lists(_values, min_size=1, max_size=24), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_feature_tokens_match_python_rounding(values, d):
    feats = np.tile(np.array(values, dtype=float)[:, None], (1, d))
    token_ids, vocab = _feature_tokens(feats)
    expected = [[f"f{j}={round(float(v), 1) + 0.0:.1f}" for j, v in enumerate(row)] for row in feats]
    assert [[vocab[t] for t in row] for row in token_ids.tolist()] == expected


@given(st.sets(st.integers(0, 300), min_size=1, max_size=30), st.data())
@settings(max_examples=80, deadline=None)
def test_mask_state_round_trips_frozensets(ids, data):
    ds = Dataset("p", [Example(i, "s", np.zeros(1), 0) for i in sorted(ids)], 2)
    labelled = frozenset(data.draw(st.sets(st.sampled_from(sorted(ids)))))
    unlabelled = frozenset(ids) - labelled
    state = PoolState(labelled, unlabelled, ds)
    rebuilt = PoolState.from_mask(state.labelled_mask.copy(), ds)
    assert (rebuilt.labelled, rebuilt.unlabelled) == (labelled, unlabelled)
    assert ds.ids[~rebuilt.labelled_mask].tolist() == sorted(unlabelled)
    batch = data.draw(st.sets(st.sampled_from(sorted(unlabelled)))) if unlabelled else set()
    moved = transfer(rebuilt, batch)
    assert (moved.labelled, moved.unlabelled) == (labelled | batch, unlabelled - batch)
    assert rebuilt.labelled == labelled  # transfer leaves its input alone
