"""The experiment directory: atomic writes, the number format of tables,
checkpoint names and their inverse, and a manifest with one entry per command."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from cartal import artifacts, blas, heap
from cartal.classifier import Classifier, ClassifierConfig, init_weights, save_checkpoint
from cartal.config import config_to_dict
from cartal.experiment import write_manifest

from conftest import tiny_config
from openblas_threads import openblas_threads


def _rows_then_fail(n):
    """Rows of a table, then an error halfway through writing it."""
    for i in range(n):
        yield [i, "x" * 100]
    raise RuntimeError("halfway")


def _model(seed):
    config = ClassifierConfig(input_dim=3, hidden_dims=(4,), num_classes=3)
    return Classifier(config, init_weights(config, np.random.default_rng(seed)))


def test_a_failed_table_write_keeps_the_old_bytes_and_no_temp_file(tmp_path):
    path = tmp_path / "rounds.csv"
    artifacts.write_table(path, ["a", "b"], [[1, 2]])
    old = path.read_bytes()
    # enough rows that the temp file holds part of the new table when the rows fail
    with pytest.raises(RuntimeError, match="halfway"):
        artifacts.write_table(path, ["a", "b"], _rows_then_fail(1000))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["rounds.csv"]
    with pytest.raises(RuntimeError, match="halfway"):
        artifacts.write_table(tmp_path / "new.md", ["a", "b"], _rows_then_fail(1000), fmt="md")
    assert [p.name for p in tmp_path.iterdir()] == ["rounds.csv"]


def test_a_table_writes_each_float_with_6_significant_digits_and_other_cells_as_str(tmp_path):
    floats = [0.1 + 0.2, 1e-7, 123456789.0, -0.0, float("nan"), float("inf"), np.float64(2 / 3)]
    row = [*floats, 7, True, "a b"]
    expected = [f"{x:.6g}" for x in floats] + ["7", "True", "a b"]
    header = [f"c{j}" for j in range(len(row))]
    csv_path = artifacts.write_table(tmp_path / "t.csv", header, [row])
    assert csv_path.read_text().splitlines()[1] == ",".join(expected)
    assert artifacts.read_table(csv_path) == [dict(zip(header, expected))]
    md_path = artifacts.write_table(tmp_path / "t.md", header, [row], fmt="md")
    assert md_path.read_text().splitlines()[2] == "| " + " | ".join(expected) + " |"
    assert expected[:7] == ["0.3", "1e-07", "1.23457e+08", "-0", "nan", "inf", "0.666667"]


def test_write_json_writes_the_bytes_of_json_dump(tmp_path):
    """write_json encodes with json.dumps, whose C encoder must give json.dump's bytes."""
    save_checkpoint(_model(0), tmp_path / "model.json")
    with open(tmp_path / "model.json", encoding="utf-8") as fh:
        checkpoint = json.load(fh)
    for payload, kwargs in ((checkpoint, {}), (config_to_dict(tiny_config()), {"indent": 2, "sort_keys": True})):
        artifacts.write_json(tmp_path / "out.json", payload, **kwargs)
        streamed = io.StringIO()
        json.dump(payload, streamed, **kwargs)
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == streamed.getvalue()


def test_a_failed_checkpoint_write_keeps_the_old_checkpoint(tmp_path):
    path = tmp_path / "random_seed1.json"
    save_checkpoint(_model(0), path)
    old = path.read_bytes()
    broken = _model(1)
    W, b = broken.weights[-1]
    broken.weights[-1] = (W, np.array([object()] * len(b), dtype=object))  # JSON fails at the last layer
    with pytest.raises(TypeError):
        save_checkpoint(broken, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["random_seed1.json"]


def test_a_failed_manifest_write_keeps_the_old_manifest(tmp_path):
    write_manifest(tmp_path)
    old = (tmp_path / artifacts.MANIFEST).read_bytes()
    with pytest.raises(TypeError):
        write_manifest(tmp_path, {"fine": 1, "unserializable": object()}, command="ablate")
    assert (tmp_path / artifacts.MANIFEST).read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [artifacts.MANIFEST]


def test_manifest_keeps_the_other_commands_entries(tmp_path):
    path = tmp_path / artifacts.MANIFEST
    path.write_text(json.dumps({"final_eval": "older layout", "created_unix": 1.0}))
    write_manifest(tmp_path, {"ablation_fraction": 0.25}, command="ablate")
    write_manifest(tmp_path, command="splits")
    write_manifest(tmp_path, {"rerun": True}, command="ablate")
    manifest = json.loads(path.read_text())
    assert list(manifest) == ["ablate", "splits"]  # the older flat layout is dropped
    assert manifest["ablate"]["rerun"] is True and "ablation_fraction" not in manifest["ablate"]
    assert all("created_unix" in entry for entry in manifest.values())
    path.write_text("[1, 2")  # a manifest that does not parse starts afresh
    write_manifest(tmp_path)
    assert list(json.loads(path.read_text())) == ["run"]
    path.write_text("[" * 100_000)  # and so does one nested past the recursion limit
    write_manifest(tmp_path, command="splits")
    assert list(json.loads(path.read_text())) == ["splits"]


def test_checkpoints_invert_checkpoint_names_per_variant(tmp_path):
    (tmp_path / artifacts.MODELS).mkdir()
    runs = [("random", 1), ("mcme", 12), ("ablated_random", 1), ("ablated_bald", 3)]
    for name, seed in runs:
        save_checkpoint(_model(seed), artifacts.checkpoint(tmp_path, name, seed))
    for stray in ("notes.json", "random_seedx.json"):
        (tmp_path / artifacts.MODELS / stray).write_text("{}")
    assert set(artifacts.checkpoints(tmp_path)) == set(runs)
    assert set(artifacts.checkpoints(tmp_path, "")) == {("random", 1), ("mcme", 12)}
    assert set(artifacts.checkpoints(tmp_path, artifacts.ABLATED)) == {("ablated_random", 1),
                                                                       ("ablated_bald", 3)}
    assert artifacts.checkpoint(tmp_path, "ablated_bald", 3).endswith("ablated_bald_seed3.json")


def test_suite_tables_of_each_variant():
    assert artifacts.suite_table("rounds") == "rounds.csv"
    assert artifacts.suite_table("failures", artifacts.ABLATED) == "failures_ablated.csv"


def test_each_manifest_entry_records_the_mmap_threshold(tmp_path):
    for command in ("run", "ablate"):
        write_manifest(tmp_path, command=command)
    manifest = json.loads((tmp_path / artifacts.MANIFEST).read_text())
    assert [entry["mmap_threshold"] for entry in manifest.values()] == [heap.mmap_threshold()] * 2
    assert heap.mmap_threshold() in (None, 1 << 20)


def test_each_manifest_entry_records_the_blas_thread_count(tmp_path):
    for command in ("run", "ablate", "splits"):
        write_manifest(tmp_path, command=command)
    manifest = json.loads((tmp_path / artifacts.MANIFEST).read_text())
    assert {entry["blas_threads"] for entry in manifest.values()} == {blas.threads()}
    if openblas_threads() is not None:  # numpy's own OpenBLAS, which import cartal set to one thread
        assert blas.threads() == 1
