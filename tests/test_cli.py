"""End-to-end CLI behavior: subcommands, artifacts, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import errno
import glob
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import pytest

import numpy as np

import cartal.acquisition as acquisition
import cartal.artifacts as artifacts
import cartal.cli as cli
import cartal.experiment as exp
from cartal.cartography import ablated_size
from cartal.classifier import Classifier, init_weights, load_checkpoint, save_checkpoint
from cartal.cli import main
from cartal.config import config_to_dict, parse_config, parse_config_dict
from cartal.errors import ConfigError
from cartal.seeding import derive_seed

from conftest import tiny_config

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(tmp_path, config=None, mutate=None, name="config.json"):
    raw = config_to_dict(config or tiny_config())
    if mutate:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return str(path)


# --- generate ---------------------------------------------------------------

def test_generate_writes_per_source_files_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert files == ["alpha.jsonl", "beta.jsonl", "gamma.jsonl", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["generate"]["sources"]["gamma"]["flipped_ids"]
    assert manifest["generate"]["sources"]["alpha"]["flipped_ids"] == []


def test_generate_keeps_the_manifest_entries_of_other_commands(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["run", "generate"]
    assert sorted(manifest["generate"]["sources"]) == ["alpha", "beta", "gamma"]
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    assert list(json.loads((out / "manifest.json").read_text())) == ["run", "generate", "ablate"]


def test_generate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
    for name in ("alpha.jsonl", "beta.jsonl", "gamma.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_missing_centroids_names_key(tmp_path, capsys):
    def drop_centroids(raw):
        del raw["data"]["synthetic_sources"][0]["class_centroids"]

    cfg = write_config(tmp_path, mutate=drop_centroids)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "class_centroids" in capsys.readouterr().err


def test_generated_files_loadable_as_experiment_input(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "data"
    main(["generate", "--config", cfg, "--out", str(out)])
    from cartal.pool import load_dataset

    ds = load_dataset(out / "gamma.jsonl")
    assert len(ds) == 120
    assert ds.feature_dim == 2


def test_run_from_generated_files(tmp_path):
    # a file's dataset is keyed by the sources of its rows, not by where the
    # file lives, so runs from two directories write the synthetic run's bytes
    cfg = write_config(tmp_path)
    overrides = ["--strategies", "random", "--seeds", "1"]
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "synthetic"), *overrides]) == 0
    outs = [tmp_path / "synthetic"]
    for where in ("data", "elsewhere/data"):
        data_dir = tmp_path / where
        assert main(["generate", "--config", cfg, "--out", str(data_dir)]) == 0

        def to_files(raw):
            raw["data"]["synthetic_sources"] = []
            raw["data"]["files"] = [
                str(data_dir / f"{name}.jsonl") for name in ("alpha", "beta", "gamma")
            ]

        file_cfg = write_config(tmp_path, mutate=to_files, name=f"files{len(outs)}.json")
        outs.append(tmp_path / f"exp{len(outs)}")
        assert main(["run", "--config", file_cfg, "--out", str(outs[-1]), *overrides]) == 0
    for name in ("rounds.csv", "summary.csv", "profile.csv", "datamap.csv"):
        synthetic, *from_files = [(out / name).read_bytes() for out in outs]
        assert from_files == [synthetic, synthetic], name


# --- run --------------------------------------------------------------------

@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_config(tmp)
    out = tmp / "exp"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    return out


def test_run_writes_expected_artifacts(run_dir):
    names = set(os.listdir(run_dir))
    assert {"rounds.csv", "summary.csv", "profile.csv", "datamap.csv",
            "config.json", "manifest.json", "models"} <= names
    rounds = (run_dir / "rounds.csv").read_text().strip().splitlines()
    # 2 strategies x 2 seeds x 2 rounds + header
    assert len(rounds) == 1 + 2 * 2 * 2
    models = os.listdir(run_dir / "models")
    assert len(models) == 4


def test_run_strategy_and_seed_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    code = main(["run", "--config", cfg, "--out", str(out),
                 "--strategies", "random", "--seeds", "7"])
    assert code == 0
    rounds = (out / "rounds.csv").read_text().strip().splitlines()
    assert len(rounds) == 1 + 2  # one run, two rounds
    resolved = parse_config(out / "config.json")
    assert resolved.strategies == ("random",)
    assert resolved.seeds == (7,)


def test_run_rejects_invalid_strategy_listing_names(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x"),
                 "--strategies", "entropy"])
    assert code == 1
    err = capsys.readouterr().err
    for name in ("random", "mcme", "bald", "dal"):
        assert name in err


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write_config(tmp_path, mutate=lambda raw: raw["al"].update(rounds_per_epoch=3))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "al.rounds_per_epoch" in capsys.readouterr().err


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    for name in ("rounds.csv", "summary.csv", "profile.csv", "datamap.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_order_and_parallel_leave_the_tables_unchanged(tmp_path):
    # a metamorphic relation: permuting al.strategies and al.seeds, or the
    # number of worker processes, permutes the rows of rounds, summary and
    # profile, and moves no byte of datamap.csv
    cfg = write_config(tmp_path, tiny_config(strategies=("random", "mcme", "bald"), seeds=(1, 2, 3)))
    tables = ("rounds.csv", "summary.csv", "profile.csv")
    seen = []
    for strategies, seeds, parallel in (("random,mcme,bald", "1,2,3", "1"),
                                        ("bald,random,mcme", "3,1,2", "1"),
                                        ("mcme,bald,random", "2,3,1", "2"),
                                        ("bald,mcme,random", "3,2,1", "3")):
        out = tmp_path / f"{strategies}-{parallel}"
        assert main(["run", "--config", cfg, "--out", str(out), "--strategies", strategies,
                     "--seeds", seeds, "--parallel", parallel]) == 0
        rows = [(out / name).read_text().splitlines() for name in tables]
        seen.append(([(r[0], sorted(r[1:])) for r in rows], (out / "datamap.csv").read_bytes()))
    assert all(s == seen[0] for s in seen[1:])


def test_out_of_memory_is_one_named_line(tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 1.00 TiB for an array with shape (2, 68719476736)"

    def exhausted(config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_experiment_data", exhausted)
    assert main(["run", "--config", write_config(tmp_path), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def _fail_mcme_seed_1(monkeypatch):
    real = exp._al_round

    def flaky(config, run, *args):
        if run.strategy == "mcme" and run.seed == 1:
            raise RuntimeError("injected")
        return real(config, run, *args)

    monkeypatch.setattr(exp, "_al_round", flaky)


def test_run_partial_failure_exits_two(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    _fail_mcme_seed_1(monkeypatch)
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "FAILED mcme/seed 1" in capsys.readouterr().err
    rounds = (out / "rounds.csv").read_text().strip().splitlines()
    assert len(rounds) == 1 + 3 * 2  # three surviving runs
    failures = (out / "failures.csv").read_text()
    assert "injected" in failures


def test_a_later_run_leaves_no_stale_artifacts(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)  # random, mcme x seeds 1, 2
    out = tmp_path / "exp"
    with monkeypatch.context() as patch:
        _fail_mcme_seed_1(patch)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "injected" in (out / "failures.csv").read_text()
    assert main(["run", "--config", cfg, "--out", str(out), "--seeds", "1"]) == 0
    assert main(["stratify", "--exp", str(out)]) == 0
    assert not (out / "failures.csv").exists()
    assert sorted(os.listdir(out / "models")) == ["mcme_seed1.json", "random_seed1.json"]
    rows = (out / "stratified.csv").read_text().strip().splitlines()[1:]
    assert {tuple(row.split(",")[:2]) for row in rows} == {("random", "1"), ("mcme", "1")}
    assert parse_config(out / "config.json").seeds == (1,)

    # each suite variant replaces its own checkpoints and failures only
    with monkeypatch.context() as patch:
        _fail_mcme_seed_1(patch)
        assert main(["ablate", "--config", cfg, "--out", str(out)]) == 2
    ablated = {name: (out / "models" / name).read_bytes()
               for name in os.listdir(out / "models") if name.startswith("ablated_")}
    assert sorted(ablated) == ["ablated_mcme_seed2.json", "ablated_random_seed1.json",
                               "ablated_random_seed2.json"]
    assert main(["run", "--config", cfg, "--out", str(out), "--seeds", "1"]) == 0
    assert "injected" in (out / "failures_ablated.csv").read_text()
    assert not (out / "failures.csv").exists()
    assert {name: (out / "models" / name).read_bytes()
            for name in os.listdir(out / "models") if name.startswith("ablated_")} == ablated
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    assert not (out / "failures_ablated.csv").exists()
    assert len(os.listdir(out / "models")) == 2 + 4
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_a_later_run_keeps_no_score_dump_of_an_earlier_one(tmp_path):
    cfg = write_config(tmp_path, tiny_config(dump_scores=True))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out / "scores")) == [
        f"mcme_seed{seed}_round{r}.csv" for seed in (1, 2) for r in (1, 2)]
    dumped = _dumps(out)
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0  # dumps nothing, removes nothing
    assert _dumps(out) == dumped
    assert main(["run", "--config", cfg, "--out", str(out), "--seeds", "1"]) == 0
    assert sorted(os.listdir(out / "scores")) == ["mcme_seed1_round1.csv", "mcme_seed1_round2.csv"]
    assert main(["run", "--config", write_config(tmp_path, name="plain.json"), "--out", str(out)]) == 0
    assert not (out / "scores").exists()


def _dumps(out):
    """The bytes of each score dump under ``out``, by file name."""
    return {name: (out / "scores" / name).read_bytes() for name in sorted(os.listdir(out / "scores"))}


def test_an_interrupted_run_keeps_the_last_complete_score_dumps(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, tiny_config(dump_scores=True))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    before = _dumps(out), (out / "rounds.csv").read_bytes()
    real, sizes = acquisition.score_pool, []

    def interrupt_in_round_2(strategy, X, unlabelled, *args, **kwargs):
        sizes.append(len(unlabelled))
        if len(unlabelled) < sizes[0]:  # round 2 scores fewer rows than round 1
            raise KeyboardInterrupt
        return real(strategy, X, unlabelled, *args, **kwargs)

    monkeypatch.setattr(acquisition, "score_pool", interrupt_in_round_2)
    assert main(["run", "--config", cfg, "--out", str(out), "--seeds", "7,8"]) == 130
    assert (_dumps(out), (out / "rounds.csv").read_bytes()) == before


def test_a_run_that_fails_dumps_no_scores(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, tiny_config(dump_scores=True))
    out = tmp_path / "exp"
    real, doomed = acquisition.score_pool, derive_seed(derive_seed("run", "mcme", 2), 2, "select")

    def fail_mcme_seed_2_in_round_2(strategy, X, unlabelled, model, rng_seed, **kwargs):
        if rng_seed == doomed:
            raise ValueError("injected")
        return real(strategy, X, unlabelled, model, rng_seed, **kwargs)

    monkeypatch.setattr(acquisition, "score_pool", fail_mcme_seed_2_in_round_2)
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert "FAILED mcme/seed 2: ValueError: injected" in capsys.readouterr().err
    failures = (out / "failures.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in failures] == [["mcme", "2"]]
    rounds = (out / "rounds.csv").read_text().splitlines()[1:]
    scored = sorted({tuple(row.split(",")[:2]) for row in rounds if not row.startswith("random,")})
    assert scored == [("mcme", "1")]
    assert list(_dumps(out)) == [f"{s}_seed{seed}_round{r}.csv" for s, seed in scored for r in (1, 2)]


def test_parallel_score_dumps_equal_the_sequential_ones(tmp_path):
    # the dumps cross the worker pipe on their round logs
    cfg = write_config(tmp_path, tiny_config(dump_scores=True, strategies=("random", "mcme", "dal")))
    dumps = []
    for parallel in ("1", "2"):
        out = tmp_path / f"parallel{parallel}"
        assert main(["run", "--config", cfg, "--out", str(out), "--parallel", parallel]) == 0
        dumps.append(_dumps(out))
    assert list(dumps[0]) == [f"{s}_seed{seed}_round{r}.csv"
                              for s in ("dal", "mcme") for seed in (1, 2) for r in (1, 2)]
    assert dumps[1] == dumps[0]


@pytest.mark.parametrize("interval", [5e-324, 1e-300])
def test_a_snapshot_plan_finer_than_one_step_is_refused_before_it_is_built(tmp_path, capsys, interval):
    """5e-324 escaped as an OverflowError; 1e-300 planned ~10^301 snapshots in a list."""
    cfg = write_config(tmp_path, mutate=lambda raw: raw["cartography_training"].update(eval_interval=interval))
    start = time.perf_counter()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "exp")]) == 1
    assert time.perf_counter() - start < 10
    err = capsys.readouterr().err
    assert err.startswith(f"error: eval_interval {interval} snapshots more than once per SGD step: ")
    assert "batch_size 32" in err and "Traceback" not in err


def _reshape_test_set(change):
    """A config mutation that applies ``change`` to each centroid of the test set's sources."""
    def mutate(raw):
        for source in raw["test_sets"][0]["synthetic_sources"]:
            source["class_centroids"] = change(source["class_centroids"])
    return mutate


@pytest.mark.parametrize("change, code, reason", [
    (lambda cs: [c + [0.0] for c in cs], 1, "has feature dim 3, the pool 2"),
    (lambda cs: cs + [[5.0, 5.0]], 1, "has 4 classes, more than the pool's 3"),
    (lambda cs: cs[:2], 0, None),
], ids=["wider", "more classes", "fewer classes"])
def test_a_test_set_must_fit_the_pools_model_before_any_fit(tmp_path, capsys, change, code, reason):
    """A test set the model cannot score failed every run, after the whole suite trained."""
    cfg = write_config(tmp_path, mutate=_reshape_test_set(change))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == code
    if reason:
        assert capsys.readouterr().err == f"error: test set 'clean' {reason}\n"
        assert not (out / "datamap.csv").exists() and not (out / "failures.csv").exists()


def _generated_files_config(tmp_path):
    """The config of files generated from the tiny config's sources, and its
    beta.jsonl."""
    data_dir = tmp_path / "data"
    assert main(["generate", "--config", write_config(tmp_path), "--out", str(data_dir)]) == 0

    def to_files(raw):
        raw["data"]["synthetic_sources"] = []
        raw["data"]["files"] = [str(data_dir / f"{name}.jsonl") for name in ("alpha", "beta", "gamma")]

    return write_config(tmp_path, mutate=to_files, name="files.json"), data_dir / "beta.jsonl"


def test_a_malformed_data_file_is_named(tmp_path, capsys):
    file_cfg, beta = _generated_files_config(tmp_path)
    first, second, *_ = beta.read_text().splitlines()
    beta.write_text(first + "\n" + second[:len(second) // 2] + "\n")  # truncated on its second line
    capsys.readouterr()
    assert main(["run", "--config", file_cfg, "--out", str(tmp_path / "exp")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {beta}: line 2: invalid JSON")


def test_a_data_file_that_is_not_utf8_is_named(tmp_path, capsys):
    file_cfg, beta = _generated_files_config(tmp_path)
    beta.write_bytes(b"\xff\xfe\x00")
    capsys.readouterr()
    assert main(["run", "--config", file_cfg, "--out", str(tmp_path / "exp")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {beta}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("record", [
    '{"id": %d, "source": "beta", "features": [0.5, 1.0], "label": 0}' % 2 ** 70,
    '{"id": 0, "source": "beta", "features": [1%s, 1.0], "label": 0}' % ("0" * 399),
])
def test_an_integer_out_of_range_in_a_data_file_is_named(tmp_path, capsys, record):
    """Such integers escaped as an uncaught OverflowError when the columns were built."""
    file_cfg, beta = _generated_files_config(tmp_path)
    beta.write_text(record + "\n")
    capsys.readouterr()
    assert main(["run", "--config", file_cfg, "--out", str(tmp_path / "exp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {beta}: line 1: field ") and "Traceback" not in err


def test_data_files_without_features_are_named(tmp_path, capsys):
    """Records of no features, with no test set of another width, ended the run
    in an uncaught ZeroDivisionError when the first fit drew its weights."""
    file_cfg, _ = _generated_files_config(tmp_path)
    with open(file_cfg) as fh:
        raw = json.load(fh)
    raw["test_sets"] = []
    with open(file_cfg, "w") as fh:
        json.dump(raw, fh)
    for path in raw["data"]["files"]:
        with open(path) as fh:
            records = [{**json.loads(line), "features": []} for line in fh]
        with open(path, "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)
    capsys.readouterr()
    assert main(["run", "--config", file_cfg, "--out", str(tmp_path / "exp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {raw['data']['files'][0]}: example ") and err.endswith(" has no features\n")


@pytest.mark.parametrize("empty", [("alpha",), ("alpha", "beta", "gamma"), ("test",)])
def test_an_empty_data_file_is_named(tmp_path, capsys, empty):
    """One such file failed as another file's schema mismatch, and all three
    as a test set's, naming no empty file."""
    file_cfg, beta = _generated_files_config(tmp_path)
    with open(file_cfg) as fh:
        raw = json.load(fh)
    test = beta.parent / "test.jsonl"
    test.write_text(beta.read_text())
    raw["test_sets"][0] = {"name": "clean", "files": [str(beta), str(test)]}
    with open(file_cfg, "w") as fh:
        json.dump(raw, fh)
    for name in empty:
        (beta.parent / f"{name}.jsonl").write_text("")
    capsys.readouterr()
    assert main(["run", "--config", file_cfg, "--out", str(tmp_path / "exp")]) == 1
    assert capsys.readouterr().err == f"error: {beta.parent / (empty[0] + '.jsonl')}: holds no records\n"


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_tokenless_records_are_reported_once(tmp_path, parallel):
    """Every profiling call of every run logged its own count (55 lines for quickstart)."""
    file_cfg, beta = _generated_files_config(tmp_path)
    for path in beta.parent.glob("*.jsonl"):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records[:5]:
            del record["tokens"]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
    done = subprocess.run([sys.executable, "-m", "cartal.cli", "run", "--config", file_cfg,
                           "--out", str(tmp_path / "exp"), "--parallel", parallel],
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    [line] = [line for line in done.stderr.splitlines() if "carry no tokens" in line]
    assert re.fullmatch(r"WARNING cartal.experiment: \d+ pool examples carry no tokens; "
                        r"they do not affect input diversity", line), line


@pytest.mark.parametrize("command", ["generate", "run"])
def test_centroids_without_features_name_their_key(tmp_path, capsys, command):
    """Such centroids ended generate and run in an uncaught ZeroDivisionError
    when the source's feature tokens were drawn."""
    def featureless(raw):
        raw["data"]["synthetic_sources"][0]["class_centroids"] = [[], [], []]

    cfg = write_config(tmp_path, mutate=featureless)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: data.synthetic_sources[0].class_centroids: ") and "Traceback" not in err


_real_run_group = exp._run_group


def _die_holding_seed_2(config, specs, context):
    """A lockstep group whose worker process dies if it holds a seed-2 run."""
    if any(seed == 2 for _, seed in specs):
        os._exit(1)
    return _real_run_group(config, specs, context)


def test_dead_worker_fails_only_its_runs(tmp_path, capsys, monkeypatch):
    # a forked worker inherits the patched function, so it runs it
    monkeypatch.setattr(exp, "_run_group", _die_holding_seed_2)
    cfg = write_config(tmp_path)  # random, mcme x seeds 1, 2: groups hold seed 1 and seed 2
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out), "--parallel", "2"]) == 2
    err = capsys.readouterr().err
    assert "FAILED random/seed 2: WorkerDied: " in err
    assert "FAILED mcme/seed 2: WorkerDied: " in err
    rounds = (out / "rounds.csv").read_text().strip().splitlines()
    assert {tuple(row.split(",")[:2]) for row in rounds[1:]} == {("random", "1"), ("mcme", "1")}
    failures = (out / "failures.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[:2] for row in failures] == [["random", "2"], ["mcme", "2"]]
    assert all(",WorkerDied: " in row for row in failures)
    assert all(row.endswith(",WorkerDied: exit code 1") for row in failures)


def _killed_holding_seed_2(signum):
    """A lockstep group whose worker process is killed by ``signum`` if it
    holds a seed-2 run; forked workers inherit the closure."""
    def run_group(config, specs, context):
        if any(seed == 2 for _, seed in specs):
            os.kill(os.getpid(), signum)
        return _real_run_group(config, specs, context)
    return run_group


@pytest.mark.parametrize("which", ["SIGKILL", "real-time"])
def test_a_worker_killed_by_a_signal_names_it(tmp_path, capsys, monkeypatch, which):
    if which == "SIGKILL":
        signum, named = signal.SIGKILL, "SIGKILL"
    elif hasattr(signal, "SIGRTMIN"):  # signal.Signals has no name for it: its number stands in
        signum = signal.SIGRTMIN + 6
        named = str(int(signum))
    else:
        pytest.skip("no real-time signals here")
    monkeypatch.setattr(exp, "_run_group", _killed_holding_seed_2(signum))
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out), "--parallel", "2"]) == 2
    err = capsys.readouterr().err
    assert f"FAILED random/seed 2: WorkerDied: signal {named}\n" in err
    assert f"FAILED mcme/seed 2: WorkerDied: signal {named}\n" in err
    rounds = (out / "rounds.csv").read_text().strip().splitlines()
    assert {tuple(row.split(",")[:2]) for row in rounds[1:]} == {("random", "1"), ("mcme", "1")}


def _cli_env(**extra):
    """The environment of a ``python -m cartal.cli`` subprocess that imports this tree's cartal."""
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(exp.__file__)), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_a_pool_too_small_for_the_runs_fails_once_before_any_starts(tmp_path, command, parallel):
    # a subprocess, so stderr holds everything logging writes there too
    cfg = write_config(tmp_path, tiny_config(k=500))
    out = tmp_path / "exp"
    done = subprocess.run([sys.executable, "-m", "cartal.cli", command, "--config", cfg, "--out", str(out),
                           "--parallel", parallel], env=_cli_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 1
    assert re.fullmatch(r"error: pool of \d+ exhausted at round 1: need 1020 for 2 rounds of k=500 "
                        r"from seed 20\n", done.stderr), done.stderr
    assert not list(out.glob("failures*.csv"))


@pytest.mark.parametrize("to", ["parent", "group"])
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_an_interrupted_run_exits_130_without_a_traceback_or_a_worker_left(tmp_path, parallel, to):
    # SIGINT once round 1 has logged, to the parent alone or to its process
    # group as a terminal's Ctrl-C sends it; 60 runs of 25 rounds are still going
    cfg = write_config(tmp_path, tiny_config(seeds=tuple(range(1, 31)), rounds=25))
    err_path = tmp_path / "err.txt"
    with open(err_path, "w") as err:
        proc = subprocess.Popen([sys.executable, "-m", "cartal.cli", "run", "--config", cfg,
                                 "--out", str(tmp_path / "exp"), "--parallel", parallel],
                                env=_cli_env(CARTAL_LOG="info"), stderr=err, start_new_session=True)
    try:  # the session's process group is the parent and its workers
        deadline = time.monotonic() + 60
        while " round 1: val_acc=" not in err_path.read_text() and time.monotonic() < deadline:
            assert proc.poll() is None, err_path.read_text()
            time.sleep(0.01)
        (os.killpg if to == "group" else os.kill)(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=30) == 130
        text = err_path.read_text()
        assert text.endswith("\ninterrupted\n") and "Traceback" not in text, text
        with pytest.raises(ProcessLookupError):  # no worker outlives the parent
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def _no_cartography(*args, **kwargs):
    raise AssertionError("the cartography fit ran")


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_a_pool_too_small_for_the_runs_fails_before_the_cartography_fit(tmp_path, capsys,
                                                                         monkeypatch, command):
    config = tiny_config(k=500)
    pool = exp.build_experiment_data(config).pool
    size = ablated_size(pool, config.ablation_fraction) if command == "ablate" else len(pool)
    monkeypatch.setattr(exp, "run_cartography_full", _no_cartography)
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "exp")]) == 1
    assert capsys.readouterr().err == (f"error: pool of {size} exhausted at round 1: "
                                       "need 1020 for 2 rounds of k=500 from seed 20\n")


def test_a_seed_size_of_zero_is_refused_before_the_cartography_fit(tmp_path, capsys):
    """Every run then failed its first fit on an empty training set, one
    logged traceback each, after the cartography fit had run."""
    cfg = write_config(tmp_path, mutate=_set("al", "seed_size", 0))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: al.seed_size: must be >= 1\n"
    assert not (out / "datamap.csv").exists()


def test_without_fork_a_suite_runs_only_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(ValueError, match="^parallel needs the fork start method"):
        exp.run_suite(tiny_config(), exp.prepare_context(tiny_config()), parallel=2)
    cfg = write_config(tmp_path, tiny_config(strategies=("random",), seeds=(1,)))
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x"), "--parallel", "2"]) == 1
    assert capsys.readouterr().err == ("error: --parallel: needs the fork start method, "
                                       "which this platform lacks\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x"), "--parallel", "1"]) == 0


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("parallel", ["0", "-2"])
def test_parallel_below_one_is_a_usage_error(tmp_path, capsys, command, parallel):
    cfg = write_config(tmp_path)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x"), "--parallel", parallel]) == 1
    assert capsys.readouterr().err == f"error: --parallel: must be >= 1, got {parallel}\n"
    assert not (tmp_path / "x").exists()


# --- ablate / splits / stratify -----------------------------------------------

def test_usage_error_exits_one_and_help_zero(capsys):
    # 2 is the exit code of a partial run failure; a usage error is 1
    assert main(["run", "--config", "x.json"]) == 1
    assert "--out" in capsys.readouterr().err
    assert main(["run", "--help"]) == 0


def test_ablate_writes_paired_artifacts(tmp_path):
    cfg = write_config(tmp_path, tiny_config(strategies=("mcme",), seeds=(1,)))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    names = set(os.listdir(out))
    assert {"summary.csv", "summary_ablated.csv", "rounds_ablated.csv"} <= names


def test_ablated_rounds_table_has_one_row_per_ablated_run_and_round(tmp_path):
    # the writer gets the full pool's context; each row must still be its ablated run's
    path = os.path.join(CONFIGS, "quickstart.json")
    config, out = parse_config(path), tmp_path / "exp"
    assert main(["ablate", "--config", path, "--out", str(out)]) == 0
    with open(out / "rounds_ablated.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["strategy"], int(row["seed"]), int(row["round"]), int(row["labelled_size"])) for row in rows] == [
        (strategy, seed, r, config.seed_size + r * config.k)
        for strategy in config.strategies for seed in config.seeds for r in range(1, config.rounds + 1)]
    for row in rows:
        assert sum(int(v) for c, v in row.items() if c.startswith("acquired_")) == config.k


def test_splits_requires_n(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["splits", "--config", cfg, "--out", str(tmp_path / "s")]) == 1
    assert "difficulty_split" in capsys.readouterr().err


def test_splits_writes_summary(tmp_path):
    config = tiny_config(difficulty_n=8, difficulty_combos=("EMHI",), seeds=(1,))
    cfg = write_config(tmp_path, config)
    out = tmp_path / "s"
    assert main(["splits", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "splits.csv").read_text().strip().splitlines()
    assert lines[0] == "strategy,test_set,mean,std,runs"
    assert any(line.startswith("EMHI,clean") for line in lines)


def test_stratify_consumes_saved_models(run_dir):
    assert main(["stratify", "--exp", str(run_dir)]) == 0
    lines = (run_dir / "stratified.csv").read_text().strip().splitlines()
    assert lines[0] == "strategy,seed,test_set,difficulty,count,accuracy"
    assert len(lines) > 1


def test_stratify_names_a_malformed_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path, tiny_config(strategies=("random",), seeds=(1,)))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    (out / "models" / "random_seed1.json").write_text("[]")
    assert main(["stratify", "--exp", str(out)]) == 1
    err = capsys.readouterr().err
    assert "random_seed1.json" in err and "Traceback" not in err
    (out / "models" / "random_seed1.json").write_text('{"magic": ')  # truncated: not JSON
    assert main(["stratify", "--exp", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'models' / 'random_seed1.json'}: not a checkpoint: Expecting value")


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400",
                                    pytest.param("1" + "0" * 400, id="401-digit integer")])
def test_stratify_refuses_a_checkpoint_weight_that_is_not_finite(tmp_path, capsys, number):
    # json reads the first three, 1e400 as inf, and the integer exactly, which overflows a
    # float; argmax over NaN rows would pick class 0
    cfg = write_config(tmp_path, tiny_config(strategies=("random",), seeds=(1,)))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert main(["stratify", "--exp", str(out)]) == 0
    stratified = (out / "stratified.csv").read_bytes()
    checkpoint = out / "models" / "random_seed1.json"
    payload = json.loads(checkpoint.read_text())
    payload["layers"][1]["W"][3] = "number"
    checkpoint.write_text(json.dumps(payload).replace('"number"', number))
    capsys.readouterr()
    assert main(["stratify", "--exp", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {checkpoint}: layer 1 W and b must be finite\n"
    assert (out / "stratified.csv").read_bytes() == stratified


def test_stratify_names_a_checkpoint_dim_that_is_not_an_integer(tmp_path, capsys):
    """A float dim died in a reshape with a TypeError traceback."""
    cfg = write_config(tmp_path, tiny_config(strategies=("random",), seeds=(1,)))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    checkpoint = out / "models" / "random_seed1.json"
    payload = json.loads(checkpoint.read_text())
    payload["config"]["input_dim"] = 10.0
    checkpoint.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["stratify", "--exp", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {checkpoint}: checkpoint config 'input_dim' must be an integer, got 10.0\n"
    assert "Traceback" not in err


_DEEP = "[" * 100_000  # JSON arrays nested past the recursion limit


def _deep_config(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    return ["run", "--config", str(path), "--out", str(tmp_path / "exp")], path, "config is not valid JSON"


def _deep_data_file(tmp_path):
    file_cfg, beta = _generated_files_config(tmp_path)
    beta.write_text(_DEEP + "\n")
    return ["run", "--config", file_cfg, "--out", str(tmp_path / "exp")], beta, "line 1: invalid JSON"


def _deep_checkpoint(tmp_path):
    cfg = write_config(tmp_path, tiny_config(strategies=("random",), seeds=(1,)))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    checkpoint = out / "models" / "random_seed1.json"
    checkpoint.write_text(_DEEP)
    return ["stratify", "--exp", str(out)], checkpoint, "not a checkpoint"


@pytest.mark.parametrize("deep", [_deep_config, _deep_data_file, _deep_checkpoint],
                         ids=["config", "data file", "checkpoint"])
def test_json_nested_past_the_recursion_limit_is_named(tmp_path, capsys, deep):
    """Such input escaped as an uncaught RecursionError."""
    argv, path, reason = deep(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {reason}: maximum recursion depth exceeded")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["input_dim", "num_classes"])
def test_stratify_refuses_a_checkpoint_of_another_shape_than_the_pool(tmp_path, capsys, monkeypatch,
                                                                      field):
    """Two output classes were scored at exit 0; another input_dim failed naming no file."""
    cfg = write_config(tmp_path, tiny_config(strategies=("random",), seeds=(1,)))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    checkpoint = out / "models" / "random_seed1.json"
    config = load_checkpoint(checkpoint).config
    config = replace(config, **{field: 2 if field == "num_classes" else 5})
    save_checkpoint(Classifier(config, init_weights(config, np.random.default_rng(0))), checkpoint)
    monkeypatch.setattr(exp, "run_cartography_full", _no_cartography)
    capsys.readouterr()
    assert main(["stratify", "--exp", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {checkpoint}: checkpoint has input_dim ") and "Traceback" not in err
    assert not (out / "stratified.csv").exists()


def test_stratify_of_a_directory_whose_config_sets_dal_hidden_dim_needs_config(tmp_path, capsys):
    # directories written while the MLP discriminator existed carry "hidden_dim": null
    cfg = write_config(tmp_path, tiny_config(strategies=("random",), seeds=(1,)))
    out = tmp_path / "exp"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    written = json.loads((out / "config.json").read_text())
    written["dal"]["hidden_dim"] = None
    (out / "config.json").write_text(json.dumps(written))
    capsys.readouterr()
    assert main(["stratify", "--exp", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dal.hidden_dim: ") and "Traceback" not in err
    assert main(["stratify", "--exp", str(out), "--config", cfg]) == 0


def test_a_failed_write_names_its_file(tmp_path, capsys, monkeypatch):
    out = tmp_path / "exp"
    target = out / "rounds.csv"

    def open_too_large(file, mode="r", **kwargs):  # as a write past ulimit -f fails
        fh = open(file, mode, **kwargs)
        if os.path.basename(file).startswith(f".{target.name}."):
            def write(text):
                raise OSError(errno.EFBIG, os.strerror(errno.EFBIG))
            fh.write = write
        return fh

    monkeypatch.setattr(artifacts, "open", open_too_large, raising=False)
    assert main(["run", "--config", os.path.join(CONFIGS, "quickstart.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(target)!r}\n"
    assert not target.exists() and not list(out.rglob("*.tmp"))


# --- report ----------------------------------------------------------------------

def test_report_without_paired_suite(run_dir):
    assert main(["report", "--exp", str(run_dir)]) == 0
    names = set(os.listdir(run_dir))
    assert "report_learning_curve.csv" in names
    assert "report_profile.csv" in names
    assert "report_paired.csv" not in names


def test_report_md_format_uses_pipes(run_dir):
    assert main(["report", "--exp", str(run_dir), "--format", "md"]) == 0
    text = (run_dir / "report_learning_curve.md").read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("| round |")
    assert set(lines[1].replace("|", "").strip()) <= {"-", " "}


def test_report_paired_cells(tmp_path):
    cfg = write_config(tmp_path, tiny_config(strategies=("mcme",), seeds=(1,)))
    out = tmp_path / "exp"
    main(["run", "--config", cfg, "--out", str(out)])
    main(["ablate", "--config", cfg, "--out", str(out)])
    assert main(["report", "--exp", str(out)]) == 0
    paired = (out / "report_paired.csv").read_text().strip().splitlines()
    assert paired[0].startswith("strategy,")
    assert "±" in paired[1] and "|" in paired[1]
    # md variant escapes the in-cell pipes so the table stays 4 columns wide
    assert main(["report", "--exp", str(out), "--format", "md"]) == 0
    md = (out / "report_paired.md").read_text().strip().splitlines()
    assert "\\|" in md[2]
    assert md[2].count(" | ") == md[0].count(" | ")


def test_report_missing_inputs_names_file(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["report", "--exp", str(empty)]) == 1
    assert "rounds.csv" in capsys.readouterr().err


def _drop_val_acc(lines):
    j = lines[0].split(",").index("val_acc")
    return [",".join(c for i, c in enumerate(line.split(",")) if i != j) for line in lines]


def _short_row(lines):
    return lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]


def _val_acc_abc(lines):
    j = lines[0].split(",").index("val_acc")
    cells = lines[1].split(",")
    cells[j] = "abc"
    return [lines[0], ",".join(cells)] + lines[2:]


@pytest.mark.parametrize("damage, message", [
    (_drop_val_acc, "no column 'val_acc'"),
    (_short_row, r"line 3: \d+ cells for \d+ columns"),
    (_val_acc_abc, "line 2: column 'val_acc': 'abc' is not a number"),
])
def test_report_names_a_malformed_rounds_table(run_dir, tmp_path, capsys, damage, message):
    for name in ("rounds.csv", "summary.csv"):
        shutil.copy(run_dir / name, tmp_path / name)
    rounds = tmp_path / "rounds.csv"
    rounds.write_text("\n".join(damage(rounds.read_text().splitlines())) + "\n")
    assert main(["report", "--exp", str(tmp_path)]) == 1
    assert re.fullmatch(f"error: {re.escape(str(rounds))}: {message}\n", capsys.readouterr().err)
    assert not list(tmp_path.glob("report_*"))


# --- environment and defaults -------------------------------------------------

def test_unknown_log_level_is_rejected_listing_valid_ones(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CARTAL_LOG", "verbose")
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert "CARTAL_LOG" in err and "'verbose'" in err
    assert "error, warn, info, debug" in err
    assert not (tmp_path / "data").exists()


def test_cartography_default_is_the_same_from_a_dict_and_the_dataclass():
    raw = config_to_dict(tiny_config())
    del raw["cartography_training"]
    raw["training"].update(learning_rate=0.05, batch_size=16, eval_interval=1.0)
    parsed = parse_config_dict(raw)
    direct = tiny_config(training=parsed.training, cartography_training=None)
    assert parsed.cartography_training == direct.cartography_training
    carto = direct.cartography_training
    assert (carto.learning_rate, carto.batch_size, carto.eval_interval) == (0.05, 16, 1.0)
    # a partial section still takes its unset keys from the training section
    raw["cartography_training"] = {"max_epochs": 9}
    partial = parse_config_dict(raw).cartography_training
    assert partial == replace(direct.cartography_training, max_epochs=9)


def test_ablate_records_the_single_default_fraction(tmp_path):
    config = tiny_config(strategies=("random",), seeds=(1,), difficulty_n=8, difficulty_combos=("EMHI",))
    assert config.ablation_fraction == 0.25
    cfg = write_config(tmp_path, config)
    out = tmp_path / "exp"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    # a later command adds its own entry and keeps ablate's
    assert main(["splits", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert list(manifest) == ["ablate", "splits"]
    assert manifest["ablate"]["ablation_fraction"] == 0.25
    assert "ablation_fraction" not in manifest["splits"]
    assert parse_config(cfg).ablation_fraction == 0.25


# --- config parsing ---------------------------------------------------------------

@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.json"))))
def test_shipped_config_round_trips_with_types(path):
    with open(path) as fh:
        raw = json.load(fh)
    # json.dumps tells 0 from 0.0 and 1 from true, which == does not
    assert json.dumps(config_to_dict(parse_config(path)), sort_keys=True) == json.dumps(raw, sort_keys=True)


def _set(section, key, value):
    return lambda raw: (raw[section] if section else raw).update({key: value})


@pytest.mark.parametrize("mutate, key", [
    (_set(None, "dump_scores", "false"), "dump_scores"),
    # an unknown key even at null, the value every config written with it held; 0 is in the list below
    (_set("dal", "hidden_dim", None), "dal.hidden_dim"),
    (_set("classifier", "hidden_dims", "32"), "classifier.hidden_dims"),
    (_set("al", "k", 2.7), "al.k"),
    (_set("al", "seeds", [1.9]), "al.seeds[0]"),
    (_set("al", "seed_size", True), "al.seed_size"),
    (_set(None, "al", 5), "al"),
    (lambda raw: raw["data"]["synthetic_sources"][1].update(nosie_scale=1.0),
     "data.synthetic_sources[1].nosie_scale"),
    (lambda raw: raw["data"]["synthetic_sources"][0].pop("class_centroids"),
     "data.synthetic_sources[0].class_centroids"),
    (_set("training", "rng_seed", 3), "training.rng_seed"),
    (lambda raw: raw["test_sets"][0].update(synthetic_sources=[]), "test_sets[0]"),
    (_set("thresholds", "hard_max", 0.9), "thresholds"),
    (lambda raw: raw["data"]["synthetic_sources"][1].update(noise_scale=0),
     "data.synthetic_sources[1].noise_scale"),
    (lambda raw: raw["data"]["synthetic_sources"][2].update(label_flip_rate=1.5),
     "data.synthetic_sources[2].label_flip_rate"),
    (lambda raw: raw["test_sets"][0]["synthetic_sources"][2].update(noise_scale=-1.0),
     "test_sets[0].synthetic_sources[2].noise_scale"),
    (lambda raw: raw["data"]["synthetic_sources"][1].update(class_centroids=[[0.0, 1.0]]),
     "data.synthetic_sources[1].class_centroids"),
    (_set("al", "mc_samples", 0), "al.mc_samples"),
    (lambda raw: raw["al"].update(strategies=["bald"], mc_samples=1), "al.mc_samples"),
    (lambda raw: raw["data"]["synthetic_sources"][0].update(noise_scale=float("inf")),
     "data.synthetic_sources[0].noise_scale"),
    (lambda raw: raw["data"]["synthetic_sources"][2]["class_centroids"][1].__setitem__(0, float("nan")),
     "data.synthetic_sources[2].class_centroids"),
    (_set("data", "format", "jsonl"), "data.format"),  # JSONL is the one data-file format
    (lambda raw: raw["test_sets"][0].update(format="jsonl"), "test_sets[0].format"),
    (_set("al", "strategies", []), "al.strategies"),
    # two spellings of one class set would run as two splits with different draws
    (_set("difficulty_split", "combos", ["EMHI", "IHME"]), "difficulty_split.combos"),
    (_set("difficulty_split", "combos", ["EM", "me"]), "difficulty_split.combos"),
    # these used to pass parsing and fail unkeyed once the data was built
    (_set("data", "per_source_cap", -1), "data.per_source_cap"),
    (_set("data", "per_source_cap", 0), "data.per_source_cap"),
    (lambda raw: raw["data"]["synthetic_sources"][0].update(n=10 ** 30), "data.synthetic_sources[0].n"),
    (_set("data", "val_fraction", 10 ** 400), "data.val_fraction"),  # a float key
    (_set("classifier", "dropout_rate", 1.5), "classifier.dropout_rate"),
    (_set("classifier", "activation", "gelu"), "classifier.activation"),
    # every training field is keyed; a patience below 1 used to be read as 1
    (_set("training", "patience", 0), "training.patience"),
    (_set("training", "patience", -5), "training.patience"),
    (_set("cartography_training", "patience", 0), "cartography_training.patience"),
    (_set("training", "learning_rate", 0.0), "training.learning_rate"),
    # json reads NaN, and a NaN rate used to fail every run with a non-finite loss
    (_set("training", "learning_rate", float("nan")), "training.learning_rate"),
    (_set("training", "batch_size", 0), "training.batch_size"),
    (_set("training", "max_epochs", 0), "training.max_epochs"),
    (_set("training", "eval_interval", 0.0), "training.eval_interval"),
    (_set("cartography_training", "eval_interval", 2.0), "cartography_training.eval_interval"),
])
def test_wrong_input_names_its_key(tmp_path, capsys, mutate, key):
    raw = config_to_dict(tiny_config())
    mutate(raw)
    with pytest.raises(ConfigError) as info:
        parse_config_dict(raw)
    assert info.value.key == key
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: ") and "Traceback" not in err


def _same_name_as_first_source(sources):
    return lambda raw: sources(raw)[1].update(name=sources(raw)[0]["name"])


@pytest.mark.parametrize("mutate, key", [
    (_set("al", "strategies", ["random", "mcme", "random"]), "al.strategies"),
    (_set("al", "seeds", [1, 1]), "al.seeds"),
    (lambda raw: raw["test_sets"].append(dict(raw["test_sets"][0])), "test_sets"),
    (_same_name_as_first_source(lambda raw: raw["data"]["synthetic_sources"]), "data.synthetic_sources"),
    (_same_name_as_first_source(lambda raw: raw["test_sets"][0]["synthetic_sources"]),
     "test_sets[0].synthetic_sources"),
    (_set("data", "files", ["a.jsonl", "b.jsonl", "a.jsonl"]), "data.files"),
    (lambda raw: raw["test_sets"][0].update(files=["t.jsonl", "t.jsonl"]), "test_sets[0].files"),
    # beside synthetic sources, files were dropped unread and the run exited 0
    (_set("data", "files", ["/nonexistent/pool.jsonl"]), "data"),
    (lambda raw: raw["test_sets"][0].update(files=["/nonexistent/test.jsonl"]), "test_sets[0]"),
    (_set("dal", "hidden_dim", 0), "dal.hidden_dim"),
    (_set("dal", "epochs", 0), "dal.epochs"),
    (_set("dal", "learning_rate", 0.0), "dal.learning_rate"),
    (_set("classifier", "hidden_dims", [0]), "classifier.hidden_dims"),
    (_set("classifier", "hidden_dims", [8, -2]), "classifier.hidden_dims"),
    (_set("classifier", "hidden_dims", []), "classifier.hidden_dims"),
    (_set("ablation", "fraction", 1.0), "ablation.fraction"),
    (_set("ablation", "fraction", -0.25), "ablation.fraction"),
    (_set("data", "val_fraction", 1.0), "data.val_fraction"),
    (_set("data", "val_fraction", -0.1), "data.val_fraction"),
    (_set("difficulty_split", "combos", ["EM", "EX"]), "difficulty_split.combos"),
    (_set("difficulty_split", "combos", []), "difficulty_split.combos"),
    (_set("difficulty_split", "combos", ["EME"]), "difficulty_split.combos"),
    (_set("difficulty_split", "combos", ["HI", "EM", "HI"]), "difficulty_split.combos"),
    (lambda raw: raw["difficulty_split"].update(combos=["EM", "EMH"], n=8), "difficulty_split.n"),
    (_set("difficulty_split", "n", -3), "difficulty_split.n"),
    (_set("difficulty_split", "n", 0), "difficulty_split.n"),
])
def test_repeat_or_late_failing_value_names_its_key(tmp_path, capsys, mutate, key):
    """Repeats would silently double or hide runs, files, sources and test sets; the
    other values used to fail only when the step that uses them ran."""
    test_wrong_input_names_its_key(tmp_path, capsys, mutate, key)


@pytest.mark.parametrize("flag, value, key", [
    ("--strategies", "random,random", "al.strategies"),
    ("--seeds", "2,1,2", "al.seeds"),
])
def test_repeated_override_names_its_key(tmp_path, capsys, flag, value, key):
    cfg = write_config(tmp_path, tiny_config())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x"), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}: repeated entries: ") and "Traceback" not in err


@pytest.mark.parametrize("flag, value, key, reason", [
    ("--strategies", ",", "al.strategies", "need at least one strategy"),
    ("--seeds", ",", "al.seeds", "need at least one seed"),
    ("--seeds", "1,a", "--seeds", "expected comma-separated integers, got '1,a'"),
])
def test_empty_or_malformed_override_names_its_key(tmp_path, capsys, flag, value, key, reason):
    cfg = write_config(tmp_path, tiny_config())
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "x"), flag, value]) == 1
    assert capsys.readouterr().err == f"error: {key}: {reason}\n"
