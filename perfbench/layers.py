"""Per-layer metrics of one traced sweep.

The layers are the package's modules.  Every span name starts with the
layer it times (`oracles.query`, `copies.train.lr`, ...), so a layer's self
time is the summed self time of its spans.  Self times partition the root
span (`cli.main`), so together they account for the traced sweep.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

LAYERS = ("cli", "harness", "samplers", "gp", "oracles", "copies", "metrics", "core", "svgplot")
ARCHS = ("lr", "dt", "ann", "ann2")


def metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them with units."""
    names = ["oracles.build.calls", "oracles.build.s",
             "oracles.query.calls", "oracles.query.s", "oracles.query.us_per_call"]
    names += [f"oracles.query_many.{m}" for m in ("calls", "rows", "s", "us_per_row")]
    for fn in ("random_sampler", "boundary_sampler", "jacobian_sampler"):
        names += [f"samplers.{fn}.{m}" for m in ("calls", "s", "self_s")]
    names += ["samplers.boundary.queries_per_sample", "samplers.boundary.fallback_uniform",
              "samplers.jacobian.refit_attempts", "samplers.jacobian.refits_skipped",
              "samplers.jacobian.filled_uniform"]
    names += ["gp.fast_bayesian_sampler.s", "gp.fast_bayesian_sampler.self_s",
              "gp.posterior_fit.calls", "gp.posterior_fit.s",
              "gp.maximize_acquisition.calls", "gp.maximize_acquisition.s",
              "gp.GPPosterior.mean_var.calls", "gp.GPPosterior.mean_var.rows",
              "gp.GPPosterior.mean_var.s", "gp.posterior_fits", "gp.fallback_batches"]
    for arch in ARCHS:
        names += [f"copies.train.{arch}.{m}" for m in ("calls", "s", "p50_s", "tail_s")]
    names += ["copies.train.substitute.calls", "copies.train.substitute.s",
              "copies.predict_many.calls", "copies.predict_many.rows", "copies.predict_many.s",
              "copies.training_errors"]
    names += ["metrics.build_reference_set.s", "metrics.build_reference_set.self_s",
              "metrics.reference.attempts", "metrics.reference.acceptance",
              "metrics.reference.complete", "metrics.fidelity.calls", "metrics.fidelity.s"]
    for fn in ("SyntheticDataset.to_csv", "SyntheticDataset.from_csv", "load_labeled_csv"):
        names += [f"core.{fn}.calls", f"core.{fn}.s"]
    names += ["harness.run_experiment.s", "harness.datasets", "harness.cells", "harness.failures"]
    names += ["svgplot.plot_2d.calls", "svgplot.plot_2d.s"]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["bench.traced_sweep_s", "bench.spanned_frac", "bench.trace_overhead_frac"]
    return names


def read_spans(path: Path):
    """Spans as (name, duration, parent) plus error and row tallies."""
    spans, errors, rows = [], {}, {}
    for line in Path(path).read_text().splitlines():
        if line[0] in "#@":
            name, count = line[1:].rsplit(",", 1)
            (errors if line[0] == "#" else rows)[name] = int(count)
        else:
            name, start, end, parent = line.rsplit(",", 3)
            spans.append((name, float(end) - float(start), int(parent)))
    return spans, errors, rows


def _tail(durations: list[float]) -> float:
    """The highest percentile with at least ten calls beyond it (0 if none)."""
    ordered = sorted(durations)
    return ordered[-11] if len(ordered) > 10 else 0.0


def sidecars(out: Path) -> list[dict]:
    """Dataset sidecars of a run directory, each with its CSV's row count."""
    found = []
    for meta in sorted((out / "datasets").glob("*.meta.json")):
        side = json.loads(meta.read_text())
        csv = meta.with_name(meta.name.replace(".meta.json", ".csv"))
        side["rows"] = sum(1 for _ in csv.open()) - 1 if csv.exists() else 0
        found.append(side)
    return found


def reference_sidecar(out: Path) -> dict:
    meta = out / "reference" / "reference.meta.json"
    side = json.loads(meta.read_text())
    side["rows"] = sum(1 for _ in meta.with_name("reference.csv").open()) - 1
    return side


def layer_metrics(spans_path: Path, out: Path, traced_wall: float,
                  untraced_wall: float, failed: int) -> dict[str, float]:
    spans, errors, rows = read_spans(spans_path)
    child_time = [0.0] * len(spans)
    for _, dur, parent in spans:
        if parent >= 0:
            child_time[parent] += dur
    durations: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    for (name, dur, _), child in zip(spans, child_time):
        durations.setdefault(name, []).append(dur)
        self_s[name] = self_s.get(name, 0.0) + dur - child

    # every traced name gets the same summary; metric_names() picks the ones kept
    m: dict[str, float] = {}
    for name, durs in durations.items():
        m[f"{name}.calls"] = len(durs)
        m[f"{name}.s"] = sum(durs)
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.p50_s"] = statistics.median(durs)
        m[f"{name}.tail_s"] = _tail(durs)
    for name, count in rows.items():
        m[f"{name}.rows"] = count
    if m.get("oracles.query.calls"):
        m["oracles.query.us_per_call"] = m["oracles.query.s"] / m["oracles.query.calls"] * 1e6
    if m.get("oracles.query_many.rows"):
        m["oracles.query_many.us_per_row"] = (
            m["oracles.query_many.s"] / m["oracles.query_many.rows"] * 1e6)
    m["copies.training_errors"] = sum(
        count for name, count in errors.items() if name.startswith("copies.train."))

    by_method: dict[str, list[dict]] = {}
    for side in sidecars(out):
        by_method.setdefault(side["generator_id"], []).append(side)
    boundary = by_method.get("boundary", [])
    kept = sum(s["rows"] for s in boundary)
    m["samplers.boundary.queries_per_sample"] = (
        sum(s["query_count"] for s in boundary) / kept if kept else 0.0)
    m["samplers.boundary.fallback_uniform"] = sum(
        bool(s["metadata"].get("fallback_uniform")) for s in boundary)
    for key in ("refit_attempts", "refits_skipped", "filled_uniform"):
        m[f"samplers.jacobian.{key}"] = sum(
            int(s["metadata"].get(key, 0)) for s in by_method.get("jacobian", []))
    for key in ("posterior_fits", "fallback_batches"):
        m[f"gp.{key}"] = sum(int(s["metadata"].get(key, 0)) for s in by_method.get("bayesian", []))

    ref = reference_sidecar(out)
    m["metrics.reference.attempts"] = ref["query_count"]
    m["metrics.reference.acceptance"] = ref["rows"] / ref["query_count"]
    m["metrics.reference.complete"] = int(bool(ref["metadata"].get("complete", True)))

    m["harness.datasets"] = len(list((out / "datasets").glob("*.csv")))
    m["harness.cells"] = len(list((out / "cells").glob("*.csv")))
    m["harness.failures"] = failed
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    m["bench.traced_sweep_s"] = traced_wall
    m["bench.spanned_frac"] = sum(m[f"{layer}.self_s"] for layer in LAYERS) / traced_wall
    m["bench.trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    # a name the workload never calls reads 0
    return {name: m.get(name, 0) for name in metric_names()}
