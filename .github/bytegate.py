"""The byte gate: cartal's CLI writes the same bytes however it is run.

    python .github/bytegate.py [BASE]

Runs the cases in CASES that compare this tree's output with itself and,
given a commit BASE, those that compare it with BASE's. Each tree runs its own
package and configs. A case stops at the first file whose bytes differ.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
TMP = Path(tempfile.gettempdir(), f"bytegate-{os.getpid()}")  # kept when a case fails
BASE = TMP / "base"
QUICKSTART, BENCHMARK = "configs/quickstart.json", "configs/benchmark.json"
# PYTHONPATH puts a tree's src/ ahead of an installed cartal; the check shows that it won
CLI = """import os, sys, cartal, cartal.cli
if not cartal.__file__.startswith(os.path.join(os.getcwd(), "src")):
    sys.exit(f"imported {cartal.__file__}, not this tree's src/")
sys.exit(cartal.cli.main(sys.argv[1:]))"""
sys.path.insert(0, str(HEAD / "perfbench"))
from workloads import make_config


def require(ok, message):
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def run(tree, out, config, *steps, **env):
    """Run cartal's CLI of ``tree`` on ``config`` into ``TMP/out``, a step (a subcommand
    and its flags) at a time, each to exit 0; return what they wrote to stderr."""
    err = ""
    for command, *flags in map(str.split, steps):
        into = ["--exp"] if command in ("stratify", "report") else ["--config", config, "--out"]
        proc = subprocess.run([sys.executable, "-c", CLI, command, *into, TMP / out, *flags], cwd=tree,
                              text=True, capture_output=True,
                              env={**os.environ, "PYTHONPATH": str(tree / "src"), **env})
        require(proc.returncode == 0, f"cartal {command} in {tree} exited {proc.returncode}:\n{proc.stderr}")
        err += proc.stderr
    return err


def same(ref, other, *skip):
    """Pass when every file ``TMP/ref`` holds, but manifest.json (its timestamps) and
    ``skip``, has the same bytes in ``TMP/other``, and models/ and scores/ hold the
    same names on both sides; fail when ``ref`` holds no file."""
    ref, other = TMP / ref, TMP / other
    names = [p.relative_to(ref) for p in sorted(ref.rglob("*")) if p.is_file()]
    names = [name for name in names if str(name) not in ("manifest.json", *skip)]
    require(names, f"{ref} holds no file")
    for sub in ("models", "scores"):
        ours, theirs = (sorted(p.name for p in (side / sub).glob("*")) for side in (ref, other))
        require(ours == theirs, f"{sub}/ holds other names in {ref} and {other}")
    for name in names:
        require((other / name).is_file() and (other / name).read_bytes() == (ref / name).read_bytes(),
                f"{name}: {other} does not hold the bytes of {ref}")


def config(name, edit, source=QUICKSTART):
    """Write ``edit`` of this tree's config ``source`` to ``TMP/name.json``; return its path."""
    (TMP / f"{name}.json").write_text(json.dumps(edit(json.loads((HEAD / source).read_text()))))
    return TMP / f"{name}.json"


def parallel(step):
    """``step`` writes the same bytes with --parallel 2, whose forked workers log
    through the handlers they inherit from the CLI."""
    run(HEAD, step, QUICKSTART, step)
    err = run(HEAD, f"{step}-par", QUICKSTART, f"{step} --parallel 2", CARTAL_LOG="info")
    require(re.search(r" round \d+: val_acc=", err) and "Traceback" not in err, f"the workers logged:\n{err}")
    same(step, f"{step}-par")


def both(name, config, *steps):
    """``steps`` on ``config`` write the same bytes at the base commit as in this tree."""
    run(BASE, f"{name}-base", config, *steps)
    run(HEAD, f"{name}-head", config, *steps)
    same(f"{name}-base", f"{name}-head")


def check_same_fails():
    """Show that same() passes on a copy and fails on a flipped byte, a missing file
    and an empty reference."""
    for side, text in (("ref", "x,0.5\n"), ("copy", "x,0.5\n"), ("flipped", "x,0.4\n"), ("empty", "")):
        (TMP / "same" / side).mkdir(parents=True)
        if text:
            (TMP / "same" / side / "a.csv").write_text(text)
    same("same/ref", "same/copy")
    for ref, other in (("ref", "flipped"), ("ref", "empty"), ("empty", "ref")):
        try:
            same(f"same/{ref}", f"same/{other}")
        except SystemExit:
            continue
        require(False, f"same() passed {other} against {ref}")


def from_files():
    for where in ("gen-a", "gen-b/nested"):  # a file's rows are keyed by their source, not by where it lives
        run(HEAD, where, QUICKSTART, "generate")
        files = config(f"{where}-files", lambda raw: {**raw, "data": {  # the test sets stay synthetic
            **{k: v for k, v in raw["data"].items() if k != "synthetic_sources"},
            "files": [str(TMP / where / f"{s['name']}.jsonl") for s in raw["data"]["synthetic_sources"]]}})
        run(HEAD, f"{where}-exp", files, "run")
        same("run", f"{where}-exp", "config.json")  # only the written config names the files


def tokenless():
    for path in (TMP / "gen-a").glob("*.jsonl"):  # case 2's files: the first 5 records of each lose their tokens
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records[:5]:
            del record["tokens"]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
    err = run(HEAD, "bare", TMP / "gen-a-files.json", "run")
    require("Traceback" not in err and err.count("carry no tokens") == 1, f"the run logged:\n{err}")


def pipeline():
    steps = ("run", "ablate", "splits", "stratify", "report --format md", "report --format csv")
    both("quickstart", QUICKSTART, *steps)
    shutil.copytree(TMP / "quickstart-head", TMP / "quickstart-first")
    run(HEAD, "quickstart-head", QUICKSTART, *steps)
    same("quickstart-first", "quickstart-head")
    left = [*(TMP / "quickstart-head").rglob("failures*.csv"), *(TMP / "quickstart-head").rglob("*.tmp")]
    require(not left, f"no run failed and every write is atomic, yet these are left: {left}")


def scores():
    dumping = config("scores", lambda raw: {**raw, "dump_scores": True})
    both("scores", dumping, "run")
    dumps = len(list((TMP / "scores-head" / "scores").glob("*.csv")))
    require(dumps == 24, f"{dumps} score dumps, not 24: mcme, bald and dal x 2 seeds x 4 rounds")
    run(HEAD, "scores-par2", dumping, "run --parallel 2")  # the scores cross the worker pipe
    same("scores-base", "scores-par2")


CASES = [  # name, whether it compares with the base commit, the case
    ("run on quickstart, sequential against --parallel 2", False, lambda: parallel("run")),
    ("run from the files cartal generate wrote, in two directories", False, from_files),
    ("run over token-less records warns once", False, tokenless),
    ("ablate on quickstart, sequential against --parallel 2", False, lambda: parallel("ablate")),
    ("quickstart run, ablate, splits, stratify and report, then again over its output", True, pipeline),
    # ~5k unlabelled rows span several MC mask chunks; its datamap has other bands than quickstart's
    ("benchmark run, ablate, splits and stratify", True,
     lambda: both("bench", BENCHMARK, "run", "ablate", "splits", "stratify")),
    ("quickstart at dropout_rate 0, MC inference with masks of 1.0", True, lambda: both("dropout0", config(
        "dropout0", lambda raw: {**raw, "classifier": {**raw["classifier"], "dropout_rate": 0.0}}), "run")),
    ("quickstart at per_source_cap 400, which cuts each 540-row source", True, lambda: both("cap400", config(
        "cap400", lambda raw: {**raw, "data": {**raw["data"], "per_source_cap": 400}}), "run")),
    ("quickstart with dump_scores, and at --parallel 2", True, scores),
    ("pool54k at seed 1, MC inference over dozens of row blocks and DAL over 54,000 rows", True,
     lambda: both("pool54k", config("pool54k", lambda raw: make_config(raw, "pool54k", 1), BENCHMARK), "run")),
]


def main(base=None):
    TMP.mkdir()
    check_same_fails()
    if base:
        BASE.mkdir()
        archive = subprocess.run(["git", "archive", base], cwd=HEAD, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", BASE], input=archive.stdout, check=True)
    for number, (name, with_base, case) in enumerate(CASES, 1):
        if base or not with_base:
            print(f"case {number}: {name}", flush=True)
            case()
    shutil.rmtree(TMP)
    print("every case wrote the same bytes")


if __name__ == "__main__":
    main(*sys.argv[1:])
