"""The experiment directory: the name of every file cartal writes, and the one
way each is written and read back.

``cartal run``, ``ablate`` and ``splits`` write into ``--out``; ``stratify``
and ``report`` read it back as ``--exp`` and add their tables::

    config.json          resolved config of the last run/ablate/splits; stratify reads it
    manifest.json        one entry per command (generate, run, ablate, splits), each kept
                         until that command runs again; timestamps live only here
    rounds.csv           run x round: sizes, val accuracy, acquisitions per source, profile
    summary.csv          strategy x test set: mean, std and count of accuracy over seeds
    profile.csv          run: profile of its final labelled set
    failures.csv         strategy, seed, error of each failed run, while the last suite had one
    models/              <prefix><strategy>_seed<seed>.json: final-model checkpoints
                         ("CARTAL1" JSON); a suite replaces only its own variant's
    scores/              with dump_scores, <strategy>_seed<seed>_round<r>.csv: id, source
                         and score of every unlabelled example; written with the suite's
                         other tables when it ends, and each run replaces it whole, so a
                         failed run dumps nothing, ablate dumps nothing, and an
                         interrupted run leaves the last complete dumps
    datamap.csv          pool example: source, mean confidence, variability, correctness, band
    splits.csv           `splits`: combo x test set, the columns of summary.csv
    stratified.csv       `stratify`: strategy, seed, test set, band, count and accuracy of
                         every checkpoint
    report_<t>.<fmt>     `report`: learning_curve, profile, paired, stratified, splits
    *_ablated.csv        rounds, summary, profile and failures of `ablate`, whose
                         checkpoints carry the prefix "ablated_"

``cartal generate --out DIR`` writes ``<source>.jsonl`` per synthetic source and
records their files, sizes and flipped ids as the manifest's "generate" entry.
Every file is UTF-8 text written through :func:`writing`, so a failed write
never leaves a truncated one. Tables are for reading: :func:`write_table`
writes every float cell with 6 significant digits (``f"{x:.6g}"``). JSON keeps
full ``repr`` precision: checkpoints, config.json, the manifest and the
generated data files, so state that must round-trip exactly belongs in JSON.
"""

from __future__ import annotations

import csv
import glob
import json
import os
from contextlib import contextmanager, suppress

CONFIG = "config.json"
MANIFEST = "manifest.json"
DATAMAP = "datamap.csv"
SPLITS = "splits.csv"
STRATIFIED = "stratified.csv"
MODELS = "models"
SCORES = "scores"
ABLATED = "ablated_"


def suite_table(table: str, prefix: str = "") -> str:
    """A suite variant's table: "rounds" is rounds.csv, and rounds_ablated.csv
    for the prefix "ablated_"."""
    return f"{table}_{prefix.rstrip('_')}.csv" if prefix else f"{table}.csv"


def report_table(name: str, fmt: str) -> str:
    return f"report_{name}.{fmt}"


def score_dump(exp_dir, strategy: str, seed: int, rnd: int) -> str:
    return os.path.join(exp_dir, SCORES, f"{strategy}_seed{seed}_round{rnd}.csv")


def source_file(source: str) -> str:
    return f"{source}.jsonl"


def checkpoint(exp_dir, name: str, seed: int) -> str:
    """The checkpoint of run ``name`` (prefix + strategy) and ``seed``."""
    return os.path.join(exp_dir, MODELS, f"{name}_seed{seed}.json")


def checkpoints(exp_dir, prefix: str | None = None) -> dict[tuple[str, int], str]:
    """The inverse of :func:`checkpoint`: every checkpoint under ``exp_dir``,
    by (prefix + strategy, seed), in path order, skipping names whose seed is
    not an integer; with ``prefix``, only that variant's. Strategy names hold
    no "_", so the variant is the name up to its last "_"."""
    found = {}
    for path in sorted(glob.glob(checkpoint(glob.escape(os.fspath(exp_dir)), "*", "*"))):
        name, seed = os.path.basename(path)[:-len(".json")].rsplit("_seed", 1)
        if seed.lstrip("-").isdigit() and (prefix is None or name[:name.rfind("_") + 1] == prefix):
            found[(name, int(seed))] = path
    return found


def remove(path) -> None:
    """Remove ``path`` if it is there."""
    with suppress(FileNotFoundError):
        os.remove(path)


@contextmanager
def writing(path, newline=None):
    """Open ``path`` for writing UTF-8 text. The text goes to a temp file in the
    same directory, which replaces ``path`` when the block ends; if the block
    raises, the temp file goes and ``path`` keeps its old bytes. An OSError
    comes out naming ``path``, not the temp file or no file at all."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), os.fspath(path)) from exc
    finally:
        remove(tmp)


def reading(path, newline=None):
    """Open an artifact (or a config) for reading UTF-8 text."""
    return open(path, "r", encoding="utf-8", newline=newline)


def write_json(path, payload, **dump_kwargs) -> None:
    # json.dumps encodes in C where json.dump streams through the pure-Python encoder; same bytes
    with writing(path) as fh:
        fh.write(json.dumps(payload, **dump_kwargs))


def _cells(row) -> list:
    return [f"{c:.6g}" if isinstance(c, float) else c for c in row]


def _md_row(cells) -> str:
    # pipes inside cells (the "ablated | original" scheme) must not break the table
    return "| " + " | ".join(str(c).replace("|", "\\|") for c in _cells(cells)) + " |\n"


def write_table(path, header, rows, fmt="csv"):
    """Write ``header`` then ``rows`` to ``path`` as CSV or as a markdown table
    (``fmt="md"``); returns ``path``. Every table cartal writes goes through
    here, and the writers pass values: each float, NumPy's float64 included,
    becomes ``f"{x:.6g}"`` ("nan" for NaN); other cells are written as they are."""
    with writing(path, newline=None if fmt == "md" else "") as fh:
        if fmt == "md":
            fh.write(_md_row(header) + "|" + "|".join([" --- "] * len(header)) + "|\n")
            fh.writelines(map(_md_row, rows))
        else:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(map(_cells, rows))
    return path


def read_table(path, required=True) -> list[dict] | None:
    """The rows of a CSV artifact, as dicts by header; None for a missing
    table that is not ``required``."""
    if not os.path.exists(path):
        if required:
            raise FileNotFoundError(f"missing report input: {path}")
        return None
    with reading(path, newline="") as fh:
        return list(csv.DictReader(fh))


def record_command(exp_dir, command: str, entry: dict) -> None:
    """Set ``command``'s entry of the directory's manifest, keeping the entries
    of the other commands; a manifest that does not parse, or an older one
    without entries, starts afresh."""
    path = os.path.join(exp_dir, MANIFEST)
    try:
        with reading(path) as fh:
            entries = {k: v for k, v in json.load(fh).items() if isinstance(v, dict)}
    except (OSError, ValueError, RecursionError, AttributeError):  # no manifest, not JSON, or not an object
        entries = {}
    entries[command] = entry
    write_json(path, entries, indent=2)
