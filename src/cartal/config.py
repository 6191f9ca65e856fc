"""Experiment config files: strict JSON with explicit keys.

Unknown keys are hard errors (they are almost always typos in sweep scripts),
reported with their dotted path. ``config_to_dict`` inverts ``parse_config``
so a resolved copy can be written next to experiment outputs and re-read.
"""

from __future__ import annotations

import json

from .acquisition import DalConfig
from .cartography import DifficultyThresholds
from .classifier import TrainConfig
from .errors import ConfigError
from .experiment import ExperimentConfig, TestSetSpec, cartography_defaults
from .pool import SyntheticSourceSpec

__all__ = ["parse_config", "parse_config_dict", "config_to_dict"]


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        key = f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0]
        raise ConfigError("unknown key", key=key)


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError("missing required key", key=f"{path}.{key}")
    return d[key]


def _source_spec(d: dict, path: str) -> SyntheticSourceSpec:
    _check_keys(d, {"name", "n", "class_centroids", "noise_scale", "label_flip_rate",
                    "centroid_overlap"}, path)
    centroids = _require(d, "class_centroids", path)
    try:
        return SyntheticSourceSpec(
            name=str(_require(d, "name", path)),
            n=int(_require(d, "n", path)),
            class_centroids=tuple(tuple(float(v) for v in c) for c in centroids),
            noise_scale=float(d.get("noise_scale", 1.0)),
            label_flip_rate=float(d.get("label_flip_rate", 0.0)),
            centroid_overlap=float(d.get("centroid_overlap", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc), key=path) from exc


def _test_spec(d: dict, path: str) -> TestSetSpec:
    _check_keys(d, {"name", "synthetic_sources", "files", "format"}, path)
    name = str(_require(d, "name", path))
    sources = tuple(
        _source_spec(s, f"{path}.synthetic_sources[{i}]")
        for i, s in enumerate(d.get("synthetic_sources", []))
    )
    files = tuple(str(f) for f in d.get("files", []))
    if not sources and not files:
        raise ConfigError("test set needs synthetic_sources or files", key=path)
    return TestSetSpec(name=name, synthetic_sources=sources, files=files,
                       file_format=str(d.get("format", "jsonl")))


def _train_config(d: dict, path: str, base: TrainConfig) -> TrainConfig:
    _check_keys(d, {"learning_rate", "batch_size", "max_epochs", "patience",
                    "eval_interval"}, path)
    try:
        return TrainConfig(
            learning_rate=float(d.get("learning_rate", base.learning_rate)),
            batch_size=int(d.get("batch_size", base.batch_size)),
            max_epochs=int(d.get("max_epochs", base.max_epochs)),
            patience=int(d.get("patience", base.patience)),
            eval_interval=float(d.get("eval_interval", base.eval_interval)),
            rng_seed=base.rng_seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key=path) from exc


def parse_config_dict(raw: dict) -> ExperimentConfig:
    _check_keys(raw, {"data", "test_sets", "al", "classifier", "training",
                      "cartography_training", "dal", "thresholds", "ablation",
                      "difficulty_split", "dump_scores"}, "")

    data = raw.get("data", {})
    _check_keys(data, {"synthetic_sources", "files", "format", "per_source_cap",
                       "val_fraction", "seed"}, "data")
    sources = tuple(
        _source_spec(s, f"data.synthetic_sources[{i}]")
        for i, s in enumerate(data.get("synthetic_sources", []))
    )
    test_sets = tuple(
        _test_spec(t, f"test_sets[{i}]") for i, t in enumerate(raw.get("test_sets", []))
    )

    al = raw.get("al", {})
    _check_keys(al, {"seed_size", "k", "rounds", "strategies", "seeds", "mc_samples"}, "al")

    cls = raw.get("classifier", {})
    _check_keys(cls, {"hidden_dims", "dropout_rate", "activation"}, "classifier")

    training = _train_config(raw.get("training", {}), "training", TrainConfig())
    carto = _train_config(raw.get("cartography_training", {}), "cartography_training",
                           cartography_defaults(training))

    dal = raw.get("dal", {})
    _check_keys(dal, {"learning_rate", "epochs", "hidden_dim"}, "dal")

    thr = raw.get("thresholds", {})
    _check_keys(thr, {"impossible_max", "hard_max", "medium_max"}, "thresholds")

    abl = raw.get("ablation", {})
    _check_keys(abl, {"fraction"}, "ablation")

    split = raw.get("difficulty_split", {})
    _check_keys(split, {"combos", "n"}, "difficulty_split")

    try:
        thresholds = DifficultyThresholds(
            impossible_max=float(thr.get("impossible_max", 0.25)),
            hard_max=float(thr.get("hard_max", 0.5)),
            medium_max=float(thr.get("medium_max", 0.75)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="thresholds") from exc

    return ExperimentConfig(
        synthetic_sources=sources,
        source_files=tuple(str(f) for f in data.get("files", [])),
        file_format=str(data.get("format", "jsonl")),
        per_source_cap=int(data.get("per_source_cap", 20000)),
        val_fraction=float(data.get("val_fraction", 0.1)),
        data_seed=int(data.get("seed", 11)),
        test_sets=test_sets,
        seed_size=int(al.get("seed_size", 500)),
        k=int(al.get("k", 500)),
        rounds=int(al.get("rounds", 7)),
        strategies=tuple(str(s) for s in al.get("strategies", ["random", "mcme", "bald", "dal"])),
        seeds=tuple(int(s) for s in al.get("seeds", [1, 2, 3, 4, 5])),
        hidden_dims=tuple(int(h) for h in cls.get("hidden_dims", [32, 32])),
        dropout_rate=float(cls.get("dropout_rate", 0.3)),
        activation=str(cls.get("activation", "relu")),
        training=training,
        cartography_training=carto,
        mc_samples=int(al.get("mc_samples", 4)),
        dal=DalConfig(
            learning_rate=float(dal.get("learning_rate", 0.1)),
            epochs=int(dal.get("epochs", 200)),
            hidden_dim=None if dal.get("hidden_dim") is None else int(dal["hidden_dim"]),
        ),
        thresholds=thresholds,
        ablation_fraction=None if abl.get("fraction") is None else float(abl["fraction"]),
        difficulty_combos=tuple(str(c) for c in split.get("combos", ["EM", "EMH", "MH", "HI", "EMHI"])),
        difficulty_n=None if split.get("n") is None else int(split["n"]),
        dump_scores=bool(raw.get("dump_scores", False)),
    )


def parse_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", key=str(path)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object", key=str(path))
    return parse_config_dict(raw)


def _spec_dict(s: SyntheticSourceSpec) -> dict:
    return {
        "name": s.name,
        "n": s.n,
        "class_centroids": [list(c) for c in s.class_centroids],
        "noise_scale": s.noise_scale,
        "label_flip_rate": s.label_flip_rate,
        "centroid_overlap": s.centroid_overlap,
    }


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "data": {
            "synthetic_sources": [_spec_dict(s) for s in config.synthetic_sources],
            "files": list(config.source_files),
            "format": config.file_format,
            "per_source_cap": config.per_source_cap,
            "val_fraction": config.val_fraction,
            "seed": config.data_seed,
        },
        "test_sets": [
            {
                "name": t.name,
                "synthetic_sources": [_spec_dict(s) for s in t.synthetic_sources],
                "files": list(t.files),
                "format": t.file_format,
            }
            for t in config.test_sets
        ],
        "al": {
            "seed_size": config.seed_size,
            "k": config.k,
            "rounds": config.rounds,
            "strategies": list(config.strategies),
            "seeds": list(config.seeds),
            "mc_samples": config.mc_samples,
        },
        "classifier": {
            "hidden_dims": list(config.hidden_dims),
            "dropout_rate": config.dropout_rate,
            "activation": config.activation,
        },
        "training": {
            "learning_rate": config.training.learning_rate,
            "batch_size": config.training.batch_size,
            "max_epochs": config.training.max_epochs,
            "patience": config.training.patience,
            "eval_interval": config.training.eval_interval,
        },
        "cartography_training": {
            "learning_rate": config.cartography_training.learning_rate,
            "batch_size": config.cartography_training.batch_size,
            "max_epochs": config.cartography_training.max_epochs,
            "patience": config.cartography_training.patience,
            "eval_interval": config.cartography_training.eval_interval,
        },
        "dal": {
            "learning_rate": config.dal.learning_rate,
            "epochs": config.dal.epochs,
            "hidden_dim": config.dal.hidden_dim,
        },
        "thresholds": {
            "impossible_max": config.thresholds.impossible_max,
            "hard_max": config.thresholds.hard_max,
            "medium_max": config.thresholds.medium_max,
        },
        "ablation": {"fraction": config.ablation_fraction},
        "difficulty_split": {"combos": list(config.difficulty_combos), "n": config.difficulty_n},
        "dump_scores": config.dump_scores,
    }
