"""Report tables pinned cell by cell on a small hand-written experiment directory."""

from __future__ import annotations

import pytest

from cartal.reporting import render_report

INPUTS = {
    "rounds.csv": [
        "strategy,seed,round,labelled_size,val_acc",
        "random,1,1,20,0.5",
        "random,1,2,30,0.7",
        "random,2,1,20,0.6",
        "random,2,2,30,0.8",
        "mcme,1,1,20,0.65",
        "mcme,1,2,30,0.9",
    ],
    "summary.csv": [
        "strategy,test_set,mean,std,runs",
        "random,val,0.8,0.01,2",
        "random,clean,0.75,0.02,2",
        "mcme,val,0.85,0.03,1",
        "random,noisy,0.55,0.04,2",
    ],
    "summary_ablated.csv": [
        "strategy,test_set,mean,std,runs",
        "random,val,0.81,0.011,2",
        "random,clean,0.76,0.021,2",
        "mcme,val,0.86,0.031,1",
        "mcme,clean,0.71,0.041,1",
        "mcme,noisy,0.6,0.05,1",
    ],
    "profile.csv": [
        "strategy,seed,input_diversity,output_uncertainty,class_0,class_1",
        "random,1,0.5,0.9,0.4,0.6",
        "random,2,0.7,1.1,0.5,0.5",
        "mcme,1,0.3,1.2,0.2,0.8",
    ],
    "stratified.csv": [
        "strategy,seed,test_set,difficulty,count,accuracy",
        "random,1,clean,easy,10,1",
        "random,1,clean,hard,5,0.4",
        "random,1,clean,ambiguous,3,0.25",
        "random,2,clean,easy,10,0.5",
        "random,2,clean,hard,5,0.2",
        "mcme,1,clean,easy,8,0.875",
        "mcme,1,clean,hard,7,0.5",
    ],
    "splits.csv": [
        "strategy,test_set,mean,std,runs",
        "EM,val,0.9,0.01,2",
        "EM,clean,0.88,0.02,2",
        "HI,val,0.5,0.05,2",
    ],
}

# each report's header and rows; a cell with no input rows is "" ("-" within a paired cell)
EXPECTED = {
    "learning_curve": [
        ["round", "random", "mcme"],
        ["1", "0.5500", "0.6500"],
        ["2", "0.7500", "0.9000"],
    ],
    "profile": [
        ["strategy", "input_diversity", "output_uncertainty", "class_0", "class_1"],
        ["random", "0.6000", "1.0000", "0.4500", "0.5500"],
        ["mcme", "0.3000", "1.2000", "0.2000", "0.8000"],
    ],
    "paired": [
        ["strategy", "val", "clean", "noisy"],
        ["random", "0.8100 ± 0.0110 | 0.8000 ± 0.0100", "0.7600 ± 0.0210 | 0.7500 ± 0.0200",
         "- | 0.5500 ± 0.0400"],
        ["mcme", "0.8600 ± 0.0310 | 0.8500 ± 0.0300", "0.7100 ± 0.0410 | -", "0.6000 ± 0.0500 | -"],
    ],
    "stratified": [
        ["test_set", "difficulty", "random", "mcme"],
        ["clean", "easy", "0.7500", "0.8750"],
        ["clean", "hard", "0.3000", "0.5000"],
        ["clean", "ambiguous", "0.2500", ""],
    ],
    "splits": [
        ["combo", "val", "clean"],
        ["EM", "0.9000 ± 0.0100", "0.8800 ± 0.0200"],
        ["HI", "0.5000 ± 0.0500", ""],
    ],
}


def _as_csv(rows):
    return "".join(",".join(row) + "\r\n" for row in rows)


def _as_md(rows):
    def line(cells):
        return "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |\n"

    return line(rows[0]) + "|" + " --- |" * len(rows[0]) + "\n" + "".join(map(line, rows[1:]))


@pytest.mark.parametrize("fmt, render", [("csv", _as_csv), ("md", _as_md)])
def test_every_report_table_cell_by_cell(tmp_path, fmt, render):
    for name, lines in INPUTS.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    written = render_report(tmp_path, fmt)
    assert written == [str(tmp_path / f"report_{name}.{fmt}") for name in EXPECTED]
    for name, rows in EXPECTED.items():
        text = (tmp_path / f"report_{name}.{fmt}").read_bytes().decode("utf-8")
        assert text == render(rows), name
