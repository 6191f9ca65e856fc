"""End-to-end CLI behavior: subcommands, artifacts, exit codes, determinism."""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from dataclasses import replace

import pytest

import cartal.cli as cli
import cartal.experiment as exp
from cartal.cartography import ablated_size
from cartal.cli import main
from cartal.config import config_to_dict, parse_config, parse_config_dict
from cartal.errors import ConfigError

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
    assert manifest["sources"]["gamma"]["flipped_ids"]
    assert manifest["sources"]["alpha"]["flipped_ids"] == []


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
    assert main(["run", "--config", cfg, "--out", str(out), "--seeds", "1"]) == 0
    assert sorted(os.listdir(out / "scores")) == ["mcme_seed1_round1.csv", "mcme_seed1_round2.csv"]
    assert main(["run", "--config", write_config(tmp_path, name="plain.json"), "--out", str(out)]) == 0
    assert not (out / "scores").exists()


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


_real_run_group = exp._run_group


def _die_holding_seed_2(args):
    """A lockstep group whose worker process dies if it holds a seed-2 run."""
    _, specs, _, _ = args
    if any(seed == 2 for _, seed in specs):
        os._exit(1)
    return _real_run_group(args)


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
    def run_group(args):
        _, specs, _, _ = args
        if any(seed == 2 for _, seed in specs):
            os.kill(os.getpid(), signum)
        return _real_run_group(args)
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


@pytest.mark.parametrize("command", ["run", "ablate"])
@pytest.mark.parametrize("parallel", ["1", "2"])
def test_a_pool_too_small_for_the_runs_fails_once_before_any_starts(tmp_path, command, parallel):
    # a subprocess, so stderr holds everything logging writes there too
    cfg = write_config(tmp_path, tiny_config(k=500))
    out = tmp_path / "exp"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(exp.__file__)), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "cartal.cli", command, "--config", cfg, "--out", str(out),
                           "--parallel", parallel], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert re.fullmatch(r"error: pool of \d+ exhausted at round 1: need 1020 for 2 rounds of k=500 "
                        r"from seed 20\n", done.stderr), done.stderr
    assert not list(out.glob("failures*.csv"))


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


def test_without_fork_a_suite_runs_only_in_process(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    with pytest.raises(ValueError, match="^parallel needs the fork start method"):
        exp.run_suite(tiny_config(), parallel=2)
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
    raw["training"].update(learning_rate=0.05, batch_size=16)
    parsed = parse_config_dict(raw)
    direct = tiny_config(training=parsed.training, cartography_training=None)
    assert parsed.cartography_training == direct.cartography_training
    assert (direct.cartography_training.learning_rate, direct.cartography_training.batch_size) == (0.05, 16)
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
    # fit_many would read any patience below 1 as 1
    (_set("training", "patience", 0), "training.patience"),
    (_set("training", "patience", -5), "training.patience"),
    (_set("cartography_training", "patience", 0), "cartography_training.patience"),
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
