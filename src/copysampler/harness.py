"""Experiment runner: sampler runs, sweeps, timing, and persistence.

Every sampler run, a sweep's datasets and `copysampler sample` and
`profile` alike, is one `run_sampler` call, which also times it; every
reference set, a sweep's and `copysampler evaluate`'s, comes from
`build_reference`.  A run directory is self-describing and resumable: it
contains the resolved configuration, one CSV per generated dataset, one CSV
row per evaluated cell, and deterministic aggregate files assembled from
those cells.  Cells already on disk are never recomputed, and one failing
cell never aborts the sweep.  The configuration itself is `config`'s.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import time
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Sequence

from . import metrics
# OracleSpec is imported for perfbench/traced.py, which wraps
# harness.OracleSpec.build along with the samplers and metrics used here.
from .config import ConfigError, ExperimentConfig, OracleSpec, render_resolved  # noqa: F401
from .copies import train, train_many
from .core import CopySamplerError, RandomSource, SyntheticDataset, atomic_write
from .gp import fast_bayesian_sampler
from .oracles import Oracle
from .samplers import boundary_sampler, jacobian_sampler, random_sampler
from .svgplot import plot_2d

log = logging.getLogger(__name__)


# -- one sampler run -------------------------------------------------------------

TIMING_HEADER = "method,sample_count,elapsed_s"


def run_sampler(
    cfg: ExperimentConfig,
    method: str,
    checkpoints: Sequence[int],
    oracle: Oracle,
    rng: RandomSource,
) -> tuple[SyntheticDataset, list[tuple[int, float]]]:
    """Run the configured sampler `method` to the budget `checkpoints[-1]`.

    Returns the dataset and one mark (N, seconds) per checkpoint: the time
    until the run's first N samples were labelled.  A sampler that labels a
    block of points reports the block at once, so every checkpoint inside it
    reads the time the block finished (the random sampler's blocks are
    `core.DRAW_BLOCK` rows).  The cost of a whole run of budget N is the run
    with the one checkpoint N.
    """
    remaining = list(checkpoints)
    if remaining != sorted(set(remaining)) or not remaining:
        raise ValueError("checkpoints must be non-empty and strictly ascending")
    n = remaining[-1]
    marks: list[tuple[int, float]] = []
    start = time.perf_counter()

    def progress(count: int):
        while remaining and count >= remaining[0]:
            marks.append((remaining.pop(0), time.perf_counter() - start))

    if method == "random":
        ds = random_sampler(n, oracle, rng, progress=progress)
    elif method == "boundary":
        ds = boundary_sampler(n, oracle, cfg.boundary, rng=rng, progress=progress)
    elif method == "bayesian":
        ds = fast_bayesian_sampler(n, oracle, cfg.bayes, rng=rng, progress=progress)
    elif method == "jacobian":
        ds = jacobian_sampler(n, oracle, cfg.jacobian, rng=rng, progress=progress)
    else:
        raise ConfigError(f"unknown sampling method {method!r}")
    return ds, marks


def timing_csv(method: str, marks: Sequence[tuple[int, float]]) -> str:
    """Timing CSV text: the header, then one row per (N, seconds) mark."""
    rows = [f"{method},{count},{elapsed:.6f}" for count, elapsed in marks]
    return "\n".join([TIMING_HEADER, *rows]) + "\n"


def build_reference(cfg: ExperimentConfig, oracle: Oracle, size: int,
                    what: str = "reference_size is") -> SyntheticDataset:
    """The config's reference set of `size` points, labelled through `oracle`.

    Its stream derives from the config's seed alone, so `copysampler
    evaluate --reference-size` at the config's `reference_size` draws the
    points of the run's `reference/reference.csv`.  A size below one point
    per class of a balanced set, or below 1, is a ConfigError naming `what`.
    """
    need = oracle.k if cfg.reference_balanced else 1
    if size < need:
        raise ConfigError(f"{what} {size}, below the {need} point(s) a reference "
                          "set needs")
    rng = RandomSource.derive(cfg.seed, "reference")
    return metrics.build_reference_set(oracle, size, cfg.reference_balanced, rng)


# -- the sweep runner -------------------------------------------------------------

@dataclass
class RunSummary:
    out_dir: Path
    reference_built: bool = False  # False: read from the directory
    datasets_computed: int = 0
    datasets_skipped: int = 0
    cells_computed: int = 0
    cells_skipped: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def _write_text(path: Path, text: str):
    with atomic_write(path) as f:
        f.write(text)


def _dataset_paths(out: Path, method: str, rep: int) -> tuple[Path, Path]:
    return (
        out / "datasets" / f"{method}_r{rep:02d}.csv",
        out / "timing" / f"{method}_r{rep:02d}.csv",
    )


def _cell_path(out: Path, method: str, arch: str, n: int, rep: int) -> Path:
    return out / "cells" / f"{method}__{arch}__n{n}__r{rep:02d}.csv"


def _generate_one(cfg, out, method, rep, oracle):
    ds_path, timing_path = _dataset_paths(out, method, rep)
    rng = RandomSource.derive(cfg.seed, "dataset", method, rep)
    ds, marks = run_sampler(cfg, method, cfg.n_grid, oracle, rng)
    _write_text(timing_path, timing_csv(method, marks))
    ds.to_csv(ds_path)


# Phase 2 holds the training prefixes of at most this many floats of X at
# once, so every (arch, N) lockstep group stacks at most that many (plus one
# permuted copy per epoch).  The toy configs fit under it, so each (network
# arch, N) trains as one group; at full scale (10^6 rows x 8) every dataset's
# prefixes are over the cap on their own, so its cells train alone and memory
# stays that of one cell trained on its own.
_LOCKSTEP_FLOATS = 1 << 20


def _cell_label(method, arch, n, rep) -> str:
    return f"cell {method} {arch} n{n} rep {rep}"


def _loaded_batches(tasks, summary: RunSummary):
    """Batches of (method, rep, {N: prefix}, wanted); each dataset is read once.

    A batch holds at most _LOCKSTEP_FLOATS floats of X, or the prefixes of
    one dataset that are larger on their own.  A dataset that cannot be read
    or is too short fails its wanted cells.
    """
    batch, floats = [], 0
    for method, rep, ds_path, wanted in tasks:
        try:
            dataset = SyntheticDataset.from_csv(ds_path)
            prefixes = {n: dataset.prefix(n) for _, n in wanted}
        except Exception as exc:
            log.exception("cannot take the cells of %s", ds_path)
            summary.failures.extend((_cell_label(method, arch, n, rep), str(exc))
                                    for arch, n in wanted)
            continue
        size = sum(ds.X.size for ds in prefixes.values())
        if batch and floats + size > _LOCKSTEP_FLOATS:
            yield batch
            batch, floats = [], 0
        batch.append((method, rep, prefixes, wanted))
        floats += size
    if batch:
        yield batch


def _fit_group(cfg, arch, subsets, seeds):
    """Fit one copy per subset: a list of (model or exception, train seconds).

    Network cells train together in one `train_many` call, and each is
    charged an equal share of its time; dt cells train one at a time.
    """
    cfgs = [dc_replace(cfg.train, seed=seed) for seed in seeds]
    if arch == "dt":
        fits = []
        for subset, train_cfg in zip(subsets, cfgs):
            t0 = time.perf_counter()
            try:
                fit = train(arch, subset, train_cfg)
            except Exception as exc:
                fit = exc
            fits.append((fit, time.perf_counter() - t0))
        return fits
    t0 = time.perf_counter()
    try:
        models = train_many(arch, subsets, cfgs)
    except Exception as exc:
        models = [exc] * len(subsets)
    share = (time.perf_counter() - t0) / len(subsets)
    return [(model, share) for model in models]


def _cells_of_batch(cfg, out, batch, reference, summary: RunSummary) -> int:
    """Train and score every wanted cell of a batch; returns the cells written."""
    groups: dict[tuple[str, int], list] = {}
    for method, rep, prefixes, wanted in batch:
        for arch, n in wanted:
            groups.setdefault((arch, n), []).append((method, rep, prefixes[n]))
    done = 0
    for (arch, n), members in groups.items():
        seeds = [RandomSource.derive(cfg.seed, "train", method, arch, n, rep).seed
                 for method, rep, _ in members]
        fits = _fit_group(cfg, arch, [subset for _, _, subset in members], seeds)
        cells = [(method, arch, n, rep, seed, fit)
                 for (method, rep, _), seed, fit in zip(members, seeds, fits)]
        done += _run_tasks(cells, lambda c: _write_cell(cfg, out, reference, *c),
                           summary, label=lambda c: _cell_label(*c[:4]))
    return done


def _write_cell(cfg, out, reference, method, arch, n, rep, seed, fit):
    """Score a fitted copy on the reference and write its cell CSV.

    `fit` is (model or the exception its training raised, train seconds);
    the cell's wall time is those seconds plus its own predict and score.
    """
    model, train_s = fit
    if isinstance(model, Exception):
        raise model
    t0 = time.perf_counter()
    r_f, r_fb = metrics.fidelity(model, reference.X, reference.y, reference.k)
    wall = train_s + time.perf_counter() - t0
    record = metrics.RunRecord(
        oracle=cfg.oracle.oracle_id,
        method=method,
        arch=arch,
        n=n,
        seed=seed,
        r_f=r_f,
        r_fb=r_fb,
        wall_time_s=wall,
    )
    metrics.write_report_csv([record], _cell_path(out, method, arch, n, rep))
    return 1


def run_experiment(
    cfg: ExperimentConfig,
    out,
    only_methods: Sequence[str] | None = None,
    only_archs: Sequence[str] | None = None,
    only_ns: Sequence[int] | None = None,
) -> RunSummary:
    """Execute (or resume) the full sweep into `out`.

    Per (method, repetition) the largest budget is generated once and
    smaller budgets are taken as prefixes.  The reference set and every
    dataset are labelled through one oracle, built when the first of them
    needs it and closed before training starts; each keeps its own query
    count.  Runs started together on one directory build its reference
    once: each reads or builds it under an exclusive `flock` on the
    directory, and `RunSummary.reference_built` says which this run did.
    A dataset whose generation fails closes that oracle, so the next
    one gets a fresh build.  The network cells that share
    (arch, N) train together with one `train_many` call, each with the bits
    it would get alone, and a cell whose training fails fails alone.  The
    optional filters restrict which cells this invocation computes without
    changing the resolved configuration; a filter value the configuration
    does not list is a ConfigError, raised before anything is written.
    """
    for name, only, listed in (("method", only_methods, cfg.methods),
                               ("arch", only_archs, cfg.architectures),
                               ("n", only_ns, cfg.n_grid)):
        for value in only or ():
            if value not in listed:
                raise ConfigError(f"{name} filter {value!r} is not in the config's "
                                  f"list ({' '.join(map(str, listed))})")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    summary = RunSummary(out_dir=out)

    resolved = render_resolved(cfg)
    echo_path = out / "config.resolved.ini"
    if echo_path.exists():
        if echo_path.read_text() != resolved:
            raise ConfigError(
                f"{out} was produced by a different configuration; "
                "refusing to mix results"
            )
    else:
        _write_text(echo_path, resolved)

    methods = [m for m in cfg.methods if only_methods is None or m in only_methods]
    archs = [a for a in cfg.architectures if only_archs is None or a in only_archs]
    grid = [n for n in cfg.n_grid if only_ns is None or n in only_ns]

    # phase 1: the reference set and the datasets, through one oracle
    gen_tasks = []
    for method in methods:
        for rep in range(cfg.repetitions_for(method)):
            ds_path, _ = _dataset_paths(out, method, rep)
            if ds_path.exists():
                summary.datasets_skipped += 1
            else:
                gen_tasks.append((method, rep))

    ref_path = out / "reference" / "reference.csv"
    oracle = None  # built by the first task that needs it
    try:
        # locked on the directory itself, so no lock file lands among the outputs
        out_fd = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(out_fd, fcntl.LOCK_EX)
            if ref_path.exists():
                try:
                    reference = SyntheticDataset.from_csv(ref_path)
                except (OSError, ValueError) as exc:
                    raise CopySamplerError(f"cannot read the run's reference set: {exc}") from None
            else:
                oracle = cfg.oracle.build()
                reference = build_reference(cfg, oracle, cfg.reference_size)
                reference.to_csv(ref_path)
                summary.reference_built = True
        finally:
            os.close(out_fd)  # and with it the lock

        def run_gen(task):
            nonlocal oracle
            if oracle is None:
                oracle = cfg.oracle.build()
            try:
                _generate_one(cfg, out, *task, oracle)
            except Exception:
                oracle.close()  # it may be dead, or still owe labels
                oracle = None
                raise
            return 1

        summary.datasets_computed += _run_tasks(
            gen_tasks, run_gen, summary,
            label=lambda t: f"dataset {t[0]} rep {t[1]}",
        )
    finally:
        if oracle is not None:
            oracle.close()

    # phase 2: cells, grouped by (arch, N) across every (method, rep)
    cell_tasks = []
    for method in methods:
        for rep in range(cfg.repetitions_for(method)):
            ds_path, _ = _dataset_paths(out, method, rep)
            if not ds_path.exists():
                continue  # generation failed; already recorded
            wanted = [
                (arch, n)
                for arch in archs
                for n in grid
                if not _cell_path(out, method, arch, n, rep).exists()
            ]
            skipped = len(archs) * len(grid) - len(wanted)
            summary.cells_skipped += skipped
            if wanted:
                cell_tasks.append((method, rep, ds_path, wanted))

    failures_before = len(summary.failures)
    for batch in _loaded_batches(cell_tasks, summary):
        summary.cells_computed += _cells_of_batch(cfg, out, batch, reference, summary)

    # phase 3: deterministic aggregates
    records = []
    for cell in sorted((out / "cells").glob("*.csv")) if (out / "cells").exists() else []:
        records.extend(metrics.read_report_csv(cell))
    records.sort(key=lambda r: (r.method, r.arch, r.n, r.seed))
    metrics.write_report_csv(records, out / "report.csv")

    timing_rows = []
    timing_dir = out / "timing"
    if timing_dir.exists():
        for path in sorted(timing_dir.glob("*.csv")):
            lines = path.read_text().splitlines()[1:]
            timing_rows.extend(lines)
    timing_rows.sort(key=lambda row: (row.split(",")[0], int(row.split(",")[1])))
    _write_text(out / "timing.csv",
                TIMING_HEADER + "\n" + "".join(r + "\n" for r in timing_rows))

    expected = {
        (cfg.oracle.oracle_id, m, a, n)
        for m in cfg.methods for a in cfg.architectures for n in cfg.n_grid
    }
    have = {(r.oracle, r.method, r.arch, r.n) for r in records}
    if len(cfg.methods) >= 2 and expected <= have:
        matrix = metrics.compare_methods(records, cfg.tie_margin)
        metrics.write_comparison_csv(matrix, out / "comparison.csv")
        _write_text(out / "comparison.meta.json",
                    json.dumps({"tie_margin": cfg.tie_margin}, sort_keys=True) + "\n")

    if cfg.plots:
        _emit_plots(cfg, out, methods, summary)

    if len(summary.failures) > failures_before:
        log.warning("%d cell(s) failed", len(summary.failures) - failures_before)
    return summary


def _run_tasks(tasks, fn, summary: RunSummary, label) -> int:
    """Run tasks in order, isolating each failure; returns summed results."""
    completed = 0
    for task in tasks:
        try:
            completed += fn(task)
        except Exception as exc:
            log.exception("task failed: %s", label(task))
            summary.failures.append((label(task), str(exc)))
    return completed


def _emit_plots(cfg, out: Path, methods, summary: RunSummary):
    with cfg.oracle.overlay() as overlay:
        for method in methods:
            ds_path, _ = _dataset_paths(out, method, 0)
            plot_path = out / "plots" / f"{method}.svg"
            if not ds_path.exists() or plot_path.exists():
                continue
            try:
                dataset = SyntheticDataset.from_csv(ds_path)
                if dataset.d == 2:
                    plot_2d(dataset, overlay, plot_path)
            except Exception as exc:
                summary.failures.append((f"plot {method}", str(exc)))
