"""Plot-ready report tables rendered from a finished experiment directory.

Everything here reads the CSV artifacts back in, so reports can be regenerated
without rerunning anything. Output is either CSV or pipe-delimited markdown.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from .artifacts import ABLATED, SPLITS, STRATIFIED, read_table, report_table, suite_table, write_table

__all__ = ["render_report"]


def _pivot(rows, index, column, cell):
    """One line per distinct value of the ``index`` columns, led by that value,
    and one cell per distinct value of ``column``, both in order of first
    appearance; ``cell`` renders the rows of a line and column (``[]`` where
    there are none). Returns the ``column`` values and the lines."""
    columns, lines = {}, {}
    for row in rows:
        columns.setdefault(row[column], None)
        lines.setdefault(tuple(row[k] for k in index), defaultdict(list))[row[column]].append(row)
    return list(columns), [[*key, *(cell(cells[c]) for c in columns)] for key, cells in lines.items()]


def _mean_of(field):
    """A cell: the mean of ``field`` over the cell's rows, "" without rows."""
    return lambda rows: f"{np.mean([r[field] for r in rows]):.4f}" if rows else ""


def _mean_std(rows, missing):
    """A cell: the last row's ``mean ± std``, ``missing`` without rows."""
    return f"{rows[-1]['mean']:.4f} ± {rows[-1]['std']:.4f}" if rows else missing


def _learning_curve(rounds_rows):
    strategies, table = _pivot(rounds_rows, ["round"], "strategy", _mean_of("val_acc"))
    return ["round", *strategies], table


def _profile_table(profile_rows):
    class_cols = [c for c in profile_rows[0] if c.startswith("class_")] if profile_rows else []
    header = ["strategy", "input_diversity", "output_uncertainty"] + class_cols
    by_strategy = defaultdict(list)
    for row in profile_rows:
        by_strategy[row["strategy"]].append(row)
    return header, [[s, *(_mean_of(c)(rows) for c in header[1:])] for s, rows in by_strategy.items()]


def _paired_table(ablated_rows, original_rows):
    # the ablated rows set the lines and columns; the original rows join their cells
    strategies = {r["strategy"] for r in ablated_rows}
    test_sets = {r["test_set"] for r in ablated_rows}
    rows = [{**r, "suite": "ablated"} for r in ablated_rows] + [
        {**r, "suite": "original"} for r in original_rows
        if r["strategy"] in strategies and r["test_set"] in test_sets]

    def cell(rows):
        return " | ".join(_mean_std([r for r in rows if r["suite"] == suite], "-")
                          for suite in ("ablated", "original"))

    columns, table = _pivot(rows, ["strategy"], "test_set", cell)
    return ["strategy", *columns], table


def _stratified_table(strat_rows):
    strategies, table = _pivot(strat_rows, ["test_set", "difficulty"], "strategy", _mean_of("accuracy"))
    return ["test_set", "difficulty", *strategies], table


def _splits_table(split_rows):
    test_sets, table = _pivot(split_rows, ["strategy"], "test_set", lambda rows: _mean_std(rows, ""))
    return ["combo", *test_sets], table


def render_report(exp_dir, fmt: str = "csv") -> list[str]:
    """Render all applicable tables; returns the written file paths.

    Requires the suite's rounds and summary tables. The paired
    ablated|original table appears only when the ablated suite's summary is
    present, the stratified and splits tables only when their tables exist.
    Each input must hold the columns its table reads (see :func:`read_table`).
    """
    if fmt not in ("csv", "md"):
        raise ValueError(f"format must be 'csv' or 'md': {fmt!r}")
    def read(name, numbers, *columns, required=False):
        return read_table(os.path.join(exp_dir, name), required, ("strategy", *columns), numbers)

    summary = ("mean", "std"), "test_set"
    rounds_rows = read(suite_table("rounds"), ("val_acc",), "round", required=True)
    summary_rows = read(suite_table("summary"), *summary, required=True)
    tables = [  # (report name, input rows or None, table of the rows)
        ("learning_curve", rounds_rows, _learning_curve),
        ("profile", read(suite_table("profile"), ("input_diversity", "output_uncertainty", "class_*")),
         _profile_table),
        ("paired", read(suite_table("summary", ABLATED), *summary), lambda rows: _paired_table(rows, summary_rows)),
        ("stratified", read(STRATIFIED, ("accuracy",), "test_set", "difficulty"), _stratified_table),
        ("splits", read(SPLITS, *summary), _splits_table),
    ]
    return [write_table(os.path.join(exp_dir, report_table(name, fmt)), *table(rows), fmt)
            for name, rows, table in tables if rows is not None]
