"""Spans around the package's public functions, recorded from outside the package.

Each function is wrapped at the name its caller looks it up by: ``experiment``
imports ``select_batch``, ``transfer``, the ``metrics`` functions and
``run_cartography_full`` by name, so those are patched in the ``experiment``
namespace; ``clf.fit`` and ``acquisition.score_pool`` are reached through
their module, so they are patched there; methods are patched on their class.

Spans stay in memory. A span's self time is its duration minus the time of
the spans it directly caused. Worker processes of a ``--parallel`` suite are
forked from the traced process, so they inherit the wrappers; the ``run_al``
wrapper hands a worker's spans back to the parent on the returned result.
"""

from __future__ import annotations

import functools
import json
import os
import time

SPANS_ATTR = "_perfbench_spans"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.by_id_calls = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` recording one span per call; ``attrs`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append([span_id, 0.0])
            mark, by_id_mark = len(tracer.spans), tracer.by_id_calls
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                _, child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += t1 - t0
            span = {"id": span_id, "parent": parent, "name": name, "pid": os.getpid(),
                    "t0": t0, "t1": t1, "self": (t1 - t0) - child}
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            tracer.spans.append(span)
            if name == "experiment.run_al" and os.getpid() != tracer.pid:
                # forked worker: the spans travel back with the pickled result
                setattr(result, SPANS_ATTR,
                        (tracer.spans[mark:], tracer.by_id_calls - by_id_mark))
            return result

        return traced

    def adopt_worker_spans(self, results):
        for r in results:
            spans, by_id_calls = r.__dict__.pop(SPANS_ATTR, ((), 0))
            self.spans.extend(spans)
            self.by_id_calls += by_id_calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _fit_attrs(args, kwargs, model):
    h = model.history
    curve = h.get("val_curve") or []
    after_best = h["epochs"] - (curve.index(max(curve)) + 1) if curve else 0
    return {"steps": h["steps"], "epochs": h["epochs"], "after_best": after_best}


def _mc_attrs(args, kwargs, result):
    return {"rows": int(result[0].shape[0]) * len(result)}


def _score_attrs(args, kwargs, scores):
    return {"scored": 0 if scores is None else len(scores)}


def _select_attrs(args, kwargs, batch):
    return {"acquired": len(batch)}


def _carto_attrs(args, kwargs, result):
    return {"snapshots": len(result.traces[0].confidences) if result.traces else 0}


def install(tracer: Tracer, cartal) -> None:
    """Patch every traced name; ``cartal`` maps module names to modules."""
    acq, carto, clf = cartal["acquisition"], cartal["cartography"], cartal["classifier"]
    exp, pool, cfg, rep = cartal["experiment"], cartal["pool"], cartal["config"], cartal["reporting"]

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    patch(cfg, "parse_config", "config.parse_config")
    patch(rep, "render_report", "reporting.render_report")

    patch(clf, "fit", "classifier.fit", _fit_attrs)
    patch(clf, "save_checkpoint", "classifier.checkpoint_io")
    patch(clf, "load_checkpoint", "classifier.checkpoint_io")
    patch(clf.Classifier, "mc_predict_proba", "classifier.mc_predict_proba", _mc_attrs)
    patch(clf.Classifier, "embed", "classifier.embed")
    patch(clf.Classifier, "predict_proba", "classifier.predict_proba")

    patch(exp, "select_batch", "acquisition.select_batch", _select_attrs)
    patch(acq, "score_pool", "acquisition.score_pool", _score_attrs)
    patch(acq, "score_dal", "acquisition.score_dal")

    patch(exp, "generate_synthetic_source", "pool.generate_synthetic_source")
    patch(exp, "transfer", "pool.transfer")
    patch(pool.Dataset, "subset", "pool.Dataset.subset")

    for fn in ("tokens_of", "input_diversity", "output_uncertainty", "class_distribution",
               "acquisition_factor", "stratified_accuracy"):
        patch(exp, fn, f"metrics.{fn}")

    patch(exp, "run_cartography_full", "cartography.run_cartography_full", _carto_attrs)
    patch(carto, "compute_datamap", "cartography.compute_datamap")
    patch(exp, "ablate_hard_to_learn", "cartography.ablate_hard_to_learn")
    patch(exp, "build_difficulty_split", "cartography.build_difficulty_split")

    for fn in ("prepare_context", "run_al", "run_suite", "run_ablated_suite",
               "run_difficulty_split", "run_stratified"):
        patch(exp, fn, f"experiment.{fn}")
    for fn in ("write_suite_artifacts", "write_pool_datamap", "write_summary_csv",
               "write_stratified_csv", "write_manifest"):
        patch(exp, fn, "experiment.write_artifacts")


def install_by_id_counter(tracer: Tracer, pool):
    """Count ``Dataset.by_id`` calls without a span: it runs ~10^6 times a run.

    Returns the original method, to measure what the counting costs."""
    original = pool.Dataset.by_id

    def by_id(self, example_id):
        tracer.by_id_calls += 1
        return original(self, example_id)

    pool.Dataset.by_id = by_id
    return original


PROFILE_FNS = ("metrics.tokens_of", "metrics.input_diversity", "metrics.output_uncertainty",
               "metrics.class_distribution", "metrics.acquisition_factor")


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer busy times (self time, seconds) and exact counts."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    sums: dict[str, int] = {}
    by_id = {(s["pid"], s["id"]): s for s in spans}
    profile_s = 0.0
    for s in spans:
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + s["self"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        for key in ("steps", "epochs", "after_best", "rows", "scored", "acquired", "snapshots"):
            if key in s:
                sums[key] = sums.get(key, 0) + s[key]
        parent = by_id.get((s["pid"], s["parent"]))
        if s["name"] in PROFILE_FNS and parent is not None and parent["name"] == "experiment.run_al":
            profile_s += s["t1"] - s["t0"]

    def t(name):
        return self_s.get(name, 0.0)

    fit_s, steps = t("classifier.fit"), sums.get("steps", 0)
    acquired = sums.get("acquired", 0)
    return {
        "classifier.fit.s": fit_s,
        "classifier.fit.calls": calls.get("classifier.fit", 0),
        "classifier.fit.steps": steps,
        "classifier.fit.epochs": sums.get("epochs", 0),
        "classifier.step_us": fit_s / steps * 1e6 if steps else 0.0,
        "classifier.fit.epochs_after_best": sums.get("after_best", 0),
        "classifier.mc_predict_proba.s": t("classifier.mc_predict_proba"),
        "classifier.mc_rows": sums.get("rows", 0),
        "classifier.embed.s": t("classifier.embed"),
        "classifier.predict_proba.s": t("classifier.predict_proba"),
        "classifier.checkpoint_io.s": t("classifier.checkpoint_io"),
        "acquisition.select_batch.s": t("acquisition.select_batch"),
        "acquisition.select_batch.calls": calls.get("acquisition.select_batch", 0),
        "acquisition.score_pool.s": t("acquisition.score_pool"),
        "acquisition.score_dal.s": t("acquisition.score_dal"),
        "acquisition.scored_examples": sums.get("scored", 0),
        "acquisition.scored_per_acquired": sums.get("scored", 0) / acquired if acquired else 0.0,
        "pool.generate_synthetic_source.s": t("pool.generate_synthetic_source"),
        "pool.Dataset.subset.s": t("pool.Dataset.subset"),
        "pool.Dataset.subset.calls": calls.get("pool.Dataset.subset", 0),
        "pool.transfer.s": t("pool.transfer"),
        "metrics.tokens_of.s": t("metrics.tokens_of"),
        "metrics.acquisition_factor.s": t("metrics.acquisition_factor"),
        "metrics.output_uncertainty.s": t("metrics.output_uncertainty"),
        "metrics.profile.s": profile_s,
        "metrics.stratified_accuracy.s": t("metrics.stratified_accuracy"),
        "cartography.run_cartography_full.s": t("cartography.run_cartography_full"),
        "cartography.run_cartography_full.calls": calls.get("cartography.run_cartography_full", 0),
        "cartography.snapshots": sums.get("snapshots", 0),
        "cartography.compute_datamap.s": t("cartography.compute_datamap"),
        "cartography.ablate_hard_to_learn.s": t("cartography.ablate_hard_to_learn"),
        "cartography.build_difficulty_split.s": t("cartography.build_difficulty_split"),
        "experiment.prepare_context.s": t("experiment.prepare_context"),
        "experiment.run_al.s": t("experiment.run_al"),
        "experiment.run_al.calls": calls.get("experiment.run_al", 0),
        "experiment.run_suite.s": t("experiment.run_suite"),
        "experiment.write_artifacts.s": t("experiment.write_artifacts"),
        "config.parse_config.s": t("config.parse_config"),
        "reporting.render_report.s": t("reporting.render_report"),
    }
