"""Experiment config files: strict JSON with explicit keys.

Parsing and serializing both walk one layout table, JSON key to dataclass
field; every type and default comes from the dataclasses themselves. Unknown
keys, missing required keys and values of the wrong JSON type are hard errors
(they are almost always typos in sweep scripts), reported with their dotted
path. ``config_to_dict`` inverts ``parse_config`` so a resolved copy can be
written next to experiment outputs and re-read.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .artifacts import reading
from .classifier import TrainConfig
from .errors import ConfigError
from .experiment import ExperimentConfig, cartography_defaults
from .pool import _is_int64

__all__ = ["parse_config", "parse_config_dict", "config_to_dict"]


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


# JSON key -> dataclass field, or -> the layout of a JSON section. A dataclass
# not listed here is laid out as its fields, under their own names.
_LAYOUT = {
    ExperimentConfig: {
        "data": {**_same("synthetic_sources"), "files": "source_files",
                 **_same("per_source_cap", "val_fraction"), "seed": "data_seed"},
        **_same("test_sets"),
        "al": _same("seed_size", "k", "rounds", "strategies", "seeds", "mc_samples"),
        "classifier": _same("hidden_dims", "dropout_rate", "activation"),
        **_same("training", "cartography_training", "dal", "thresholds"),
        "ablation": {"fraction": "ablation_fraction"},
        "difficulty_split": {"combos": "difficulty_combos", "n": "difficulty_n"},
        **_same("dump_scores"),
    },
}

_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", float: "number",
               bool: "boolean", type(None): "null"}

_type_hints = cache(get_type_hints)  # called only with the few config dataclasses


def _layout(cls) -> dict:
    return _LAYOUT.get(cls) or _same(*(f.name for f in fields(cls)))


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _expect(value, tp: type, path: str):
    if type(value) is not tp:
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ConfigError(f"expected {_JSON_TYPES[tp]}, got {got}", key=path or None)
    return value


def _coerce(tp, value, path: str):
    """``value`` as the annotated type ``tp``: bool, int, float (JSON integers
    accepted), str, ``tuple[X, ...]``, ``X | None`` or a dataclass."""
    args = get_args(tp)
    if type(None) in args:
        return None if value is None else _coerce(args[0], value, path)
    if get_origin(tp) is tuple:
        return tuple(_coerce(args[0], v, f"{path}[{i}]")
                     for i, v in enumerate(_expect(value, list, path)))
    if is_dataclass(tp):
        return _parse(tp, value, path)
    if type(value) is int and tp in (int, float) and not _is_int64(value):
        raise ConfigError("integer out of the int64 range", key=path)  # numpy's sizes and seeds
    if tp is float and type(value) is int:
        return float(value)
    return _expect(value, tp, path)


def _parse(cls, raw, path: str, base=None):
    """Dataclass ``cls`` from the JSON object ``raw`` found at ``path``.

    Fields left unset keep their values in ``base`` or, without a base, their
    dataclass defaults; a field without a default is a required key.
    """
    hints, kwargs = _type_hints(cls), {}

    def walk(layout: dict, obj, where: str):
        for key, value in _expect(obj, dict, where).items():
            at = _join(where, key)
            if key not in layout:
                raise ConfigError("unknown key", key=at)
            if isinstance(layout[key], dict):
                walk(layout[key], value, at)
            else:
                kwargs[layout[key]] = _coerce(hints[layout[key]], value, at)

    walk(_layout(cls), raw, path)
    if base is None:
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in kwargs:
                raise ConfigError("missing required key", key=_join(path, f.name))
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except ConfigError as exc:  # keyed within the object: prefix the object's path
        raise ConfigError(exc.reason, key=_join(path, exc.key) if exc.key else path or None) from exc
    except ValueError as exc:
        raise ConfigError(str(exc), key=path or None) from exc


def parse_config_dict(raw: dict) -> ExperimentConfig:
    config = _parse(ExperimentConfig, raw, "")
    # Unset cartography keys follow the training section, as in ExperimentConfig.
    return replace(config, cartography_training=_parse(
        TrainConfig, raw.get("cartography_training", {}), "cartography_training",
        base=cartography_defaults(config.training)))


def parse_config(path) -> ExperimentConfig:
    try:
        with reading(path) as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:  # also nested past the recursion limit
        raise ConfigError(f"config is not valid JSON: {exc}", key=str(path)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object", key=str(path))
    return parse_config_dict(raw)


def _dump(value):
    if is_dataclass(value):
        return _dump_section(_layout(type(value)), value)
    return [_dump(v) for v in value] if isinstance(value, tuple) else value


def _dump_section(layout: dict, obj) -> dict:
    return {key: _dump_section(field, obj) if isinstance(field, dict) else _dump(getattr(obj, field))
            for key, field in layout.items()}


def config_to_dict(config: ExperimentConfig) -> dict:
    return _dump(config)
