"""Experiment runner: configuration, sweeps, timing, and persistence.

A run directory is self-describing and resumable: it contains the resolved
configuration, one CSV per generated dataset, one CSV row per evaluated
cell, and deterministic aggregate files assembled from those cells.  Cells
already on disk are never recomputed, and one failing cell never aborts the
sweep.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import logging
import math
import shlex
import time
from dataclasses import dataclass, field, replace as dc_replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import metrics
from .copies import ARCHITECTURES, TrainConfig, train, train_many
from .core import (
    CopySamplerError,
    RandomSource,
    SyntheticDataset,
    atomic_write,
    fit_normalization,
    load_labeled_csv,
)
from .gp import AcquisitionParams, FastBayesParams, SEKernel, fast_bayesian_sampler
from .oracles import (
    CheckerboardOracle,
    ConcentricCirclesOracle,
    ExternalOracle,
    HalfspaceOracle,
    Oracle,
    Spiral2DOracle,
    TableOracle,
)
from .samplers import (
    BoundaryParams,
    JacobianParams,
    boundary_sampler,
    jacobian_sampler,
    random_sampler,
)
from .svgplot import plot_2d

log = logging.getLogger(__name__)

METHODS = ("random", "boundary", "bayesian", "jacobian")


class ConfigError(CopySamplerError):
    """The experiment configuration is invalid or inconsistent."""


_ANALYTIC_KINDS = ("halfspace", "circles", "checkerboard", "spiral")


@dataclass(frozen=True)
class OracleSpec:
    """Declarative oracle description; `build()` yields a fresh instance.

    `copysampler run` builds one per run (see `run_experiment`).  A table is
    read and normalized once, at the first `build()`; every build wraps
    those read-only arrays in a new TableOracle with its own count.
    """

    kind: str
    options: dict = field(default_factory=dict)

    @property
    def oracle_id(self) -> str:
        return self.options.get("id", self.kind)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        X, y = load_labeled_csv(self.options["path"])
        # Normalizing would spread a NaN or inf over its whole column;
        # keep such a table raw so the error names the row that holds it.
        if self.options.get("normalize", True) and np.isfinite(X).all():
            X = fit_normalization(X).transform(X)
        X.setflags(write=False)
        y.setflags(write=False)
        return X, y

    def overlay(self):
        """A context manager giving the oracle a plot overlays, or None.

        Only the analytic kinds build one: no table is read, no command started.
        """
        return self.build() if self.kind in _ANALYTIC_KINDS else contextlib.nullcontext()

    def build(self) -> Oracle:
        opts = self.options
        if self.kind == "halfspace":
            return HalfspaceOracle(w=opts["w"], c=opts["c"])
        if self.kind == "circles":
            return ConcentricCirclesOracle(center=opts["center"], radii=opts["radii"])
        if self.kind == "checkerboard":
            return CheckerboardOracle(
                cells_per_dim=int(opts["cells"]), d=int(opts.get("d", 2))
            )
        if self.kind == "spiral":
            return Spiral2DOracle(
                turns=opts["turns"], center=opts.get("center", (0.5, 0.5))
            )
        if self.kind == "table":
            try:
                return TableOracle(*self._table)
            except ValueError as exc:
                raise ConfigError(f"table.path {opts['path']}: {exc}") from None
        if self.kind == "external":
            return ExternalOracle.spawn(opts["command"])
        raise ConfigError(f"unknown oracle kind {self.kind!r}")


@dataclass
class ExperimentConfig:
    oracle: OracleSpec
    name: str = "experiment"
    seed: int = 0
    repetitions: int = 10
    bayesian_repetitions: int = 5
    plots: bool = False
    methods: tuple[str, ...] = METHODS
    architectures: tuple[str, ...] = ("lr", "dt", "ann", "ann2")
    n_grid: tuple[int, ...] = (100, 1000, 10000)
    reference_size: int = 100000
    reference_balanced: bool = True
    tie_margin: float = 0.01
    boundary: BoundaryParams = field(default_factory=BoundaryParams)
    bayes: FastBayesParams = field(default_factory=FastBayesParams)
    acquisition: AcquisitionParams = field(default_factory=AcquisitionParams)
    jacobian: JacobianParams = field(default_factory=JacobianParams)
    kernel_length_scale: float | None = None
    kernel_variance: float | None = None
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if list(self.n_grid) != sorted(self.n_grid) or len(set(self.n_grid)) != len(self.n_grid):
            raise ConfigError("n_grid must be strictly ascending")
        if not self.n_grid or self.n_grid[0] < 1:
            raise ConfigError(f"n_grid must list budgets >= 1, got {list(self.n_grid)}")
        if self.repetitions < 1 or self.bayesian_repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.reference_size < 1:
            raise ConfigError(f"reference_size must be >= 1, got {self.reference_size}")
        if not self.tie_margin >= 0:
            raise ConfigError(f"tie_margin must be >= 0, got {self.tie_margin}")
        for name in ("kernel_length_scale", "kernel_variance"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name.removeprefix('kernel_')} must be > 0, got {value}")
        if self.kernel_length_scale is not None:
            try:  # 2 l^2 must not overflow or underflow either
                SEKernel(self.kernel_length_scale, 1.0)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        for method in self.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown sampling method {method!r}")
            self.check_budget(method, self.n_grid[-1], "n_grid tops out at")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ConfigError(f"unknown architecture {arch!r}")

    def check_budget(self, method: str, n: int, what: str) -> None:
        """Raise a ConfigError naming `what` if `method` cannot run n samples."""
        # the smallest budget each method can run, and the setting behind it
        need, why = {
            "boundary": (2, "one uniform and one boundary point"),
            "bayesian": (self.bayes.init_count, "[samplers.bayesian] init_count"),
            "jacobian": (self.jacobian.seeds_per_refit, "[samplers.jacobian] seeds_per_refit"),
        }.get(method, (1, "one point"))
        if n < need:
            raise ConfigError(f"{what} {n}, below the {need} samples the {method} "
                              f"sampler needs ({why})")

    def repetitions_for(self, method: str) -> int:
        return self.bayesian_repetitions if method == "bayesian" else self.repetitions

    def kernel_for(self, oracle: Oracle) -> SEKernel:
        default = SEKernel.for_problem(oracle.d, oracle.k)
        return SEKernel(
            length_scale=(default.length_scale if self.kernel_length_scale is None
                          else self.kernel_length_scale),
            variance=(default.variance if self.kernel_variance is None
                      else self.kernel_variance),
        )


# -- configuration file grammar ------------------------------------------------
#
# INI-style sections; list values are space-separated.  See README for the
# full grammar.  One table, _SCHEMA, both parses a config file and renders
# config.resolved.ini.  A section, key or oracle kind it does not list is a
# ConfigError, so a typo cannot silently keep a default.


class _Type(NamedTuple):
    """How one value is read from config text and written back."""

    parse: Callable[[str], object]
    show: Callable[[object], str] = str


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def check_workers(workers: int) -> None:
    """Reject every worker count but 1: sweeps run serially."""
    if workers != 1:
        raise ConfigError(
            f"workers = {workers}: the worker pool was removed and sweeps run "
            "serially; only workers = 1 is accepted"
        )


def _joined(values) -> str:
    return " ".join(str(v) for v in values)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text.strip()!r}")
    return value


_STR = _Type(str)
_INT = _Type(int)
_FLOAT = _Type(_finite)
_BOOL = _Type(_bool, lambda v: str(v).lower())
_WORDS = _Type(lambda text: tuple(text.split()), _joined)
_INTS = _Type(lambda text: tuple(int(v) for v in text.split()), _joined)
_FLOATS = _Type(lambda text: [_finite(v) for v in text.split()], _joined)
_COMMAND = _Type(shlex.split, _joined)
# written as Python's True/False: existing run directories hold that spelling
_PYBOOL = _Type(_bool)
_WORKERS = _Type(lambda text: check_workers(int(text)))

_REQUIRED = object()
_OMITTED = object()


class _Key(NamedTuple):
    """One config key.

    A key outside [oracle] sets the ExperimentConfig attribute `target`, a
    dotted path into its parameter groups; when it is missing the dataclass
    default stays.  An [oracle] key belongs to one oracle `kind` (None: every
    kind) and becomes the OracleSpec option of its name; when it is missing
    the option takes `default`, is left out, or the config is rejected.
    """

    section: str
    name: str
    type: _Type
    target: str | None = None
    kind: str | None = None
    default: object = _OMITTED


_SCHEMA = (
    _Key("experiment", "name", _STR, "name"),
    _Key("experiment", "seed", _INT, "seed"),
    _Key("experiment", "repetitions", _INT, "repetitions"),
    _Key("experiment", "bayesian_repetitions", _INT, "bayesian_repetitions"),
    # legacy: accepted so old configs and run directories still load, never
    # stored, always written as 1
    _Key("experiment", "workers", _WORKERS),
    _Key("experiment", "plots", _BOOL, "plots"),
    _Key("oracle", "kind", _STR),
    _Key("oracle", "id", _STR),
    _Key("oracle", "w", _FLOATS, kind="halfspace", default=_REQUIRED),
    _Key("oracle", "c", _FLOAT, kind="halfspace", default=_REQUIRED),
    _Key("oracle", "center", _FLOATS, kind="circles", default=_REQUIRED),
    _Key("oracle", "radii", _FLOATS, kind="circles", default=_REQUIRED),
    _Key("oracle", "cells", _INT, kind="checkerboard", default=_REQUIRED),
    _Key("oracle", "d", _INT, kind="checkerboard", default=2),
    _Key("oracle", "turns", _FLOAT, kind="spiral", default=_REQUIRED),
    _Key("oracle", "center", _FLOATS, kind="spiral"),
    # resolved against the config file's directory and checked to exist
    _Key("oracle", "path", _STR, kind="table", default=_REQUIRED),
    _Key("oracle", "normalize", _PYBOOL, kind="table", default=True),
    _Key("oracle", "command", _COMMAND, kind="external", default=_REQUIRED),
    _Key("samplers", "methods", _WORDS, "methods"),
    _Key("samplers.boundary", "epsilon", _FLOAT, "boundary.epsilon"),
    _Key("samplers.boundary", "step", _FLOAT, "boundary.step"),
    _Key("samplers.boundary", "spawn_rate", _FLOAT, "boundary.spawn_rate"),
    _Key("samplers.boundary", "runs", _INT, "boundary.runs"),
    _Key("samplers.boundary", "max_threads", _INT, "boundary.max_threads"),
    _Key("samplers.boundary", "max_steps", _INT, "boundary.max_steps"),
    _Key("samplers.bayesian", "cap", _INT, "bayes.cap"),
    _Key("samplers.bayesian", "slowness", _FLOAT, "bayes.slowness"),
    _Key("samplers.bayesian", "init_count", _INT, "bayes.init_count"),
    _Key("samplers.bayesian", "local_iters", _INT, "bayes.local_iters"),
    _Key("samplers.bayesian", "tau", _FLOAT, "acquisition.tau"),
    _Key("samplers.bayesian", "length_scale", _FLOAT, "kernel_length_scale"),
    _Key("samplers.bayesian", "variance", _FLOAT, "kernel_variance"),
    _Key("samplers.jacobian", "refits", _INT, "jacobian.refits"),
    _Key("samplers.jacobian", "seeds_per_refit", _INT, "jacobian.seeds_per_refit"),
    _Key("samplers.jacobian", "step", _FLOAT, "jacobian.step"),
    _Key("samplers.jacobian", "rounds", _INT, "jacobian.rounds"),
    _Key("copies", "architectures", _WORDS, "architectures"),
    _Key("copies", "step_size", _FLOAT, "train.step_size"),
    _Key("copies", "epochs", _INT, "train.epochs"),
    _Key("copies", "batch_size", _INT, "train.batch_size"),
    _Key("copies", "max_depth", _INT, "train.max_depth"),
    _Key("copies", "min_leaf", _INT, "train.min_leaf"),
    _Key("evaluation", "n_grid", _INTS, "n_grid"),
    _Key("evaluation", "reference_size", _INT, "reference_size"),
    _Key("evaluation", "reference_balanced", _BOOL, "reference_balanced"),
    _Key("evaluation", "tie_margin", _FLOAT, "tie_margin"),
)

_SECTIONS = tuple(dict.fromkeys(key.section for key in _SCHEMA))
_ORACLE_KINDS = {key.kind for key in _SCHEMA if key.kind}


def _keys_for(kind: str) -> dict[tuple[str, str], _Key]:
    """The keys a config with oracle `kind` may set, by (section, name)."""
    return {(k.section, k.name): k for k in _SCHEMA if k.kind in (None, kind)}


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    if "oracle" not in parser:
        raise ConfigError("config needs an [oracle] section")
    try:
        return _config_from_parser(parser, path)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration in {path}: {exc}") from exc


def _config_from_parser(parser, path: Path) -> ExperimentConfig:
    kind = parser["oracle"].get("kind", "").strip()
    if kind not in _ORACLE_KINDS:
        raise ConfigError(f"unknown oracle kind {kind!r}")
    keys = _keys_for(kind)
    options: dict = {}
    updates: dict[str, dict[str, object]] = {}  # parameter group -> attr -> value
    for section in parser.sections():
        for name, text in parser[section].items():
            key = keys.get((section, name))
            if key is None:
                raise ConfigError(f"unknown key {name!r} in [{section}]")
            value = key.type.parse(text)
            if key.target is not None:
                group, _, attr = key.target.rpartition(".")
                updates.setdefault(group, {})[attr] = value
            elif section == "oracle" and name != "kind":
                options[name] = value
    for key in keys.values():
        if key.kind is None or key.name in options:
            continue
        if key.default is _REQUIRED:
            raise ConfigError(f"oracle kind {kind!r} needs the key {key.name!r}")
        if key.default is not _OMITTED:
            options[key.name] = key.default
    if kind == "table":
        table_path = (path.parent / options["path"]).resolve()
        if not table_path.exists():
            raise ConfigError(f"table oracle file does not exist: {table_path}")
        options["path"] = str(table_path)

    cfg = ExperimentConfig(oracle=OracleSpec(kind=kind, options=options))
    fields = updates.pop("", {})
    for group, values in updates.items():
        fields[group] = dc_replace(getattr(cfg, group), **values)
    return dc_replace(cfg, **fields)


def render_resolved(cfg: ExperimentConfig) -> str:
    """Canonical text form of the resolved config, stable across runs."""
    keys = _keys_for(cfg.oracle.kind)
    out = []
    for section in _SECTIONS:
        out.append(f"[{section}]")
        if section == "oracle":
            out.append(f"kind = {cfg.oracle.kind}")
            out += [f"{name} = {keys['oracle', name].type.show(value)}"
                    for name, value in sorted(cfg.oracle.options.items())]
        else:
            out += [f"{key.name} = {_rendered(cfg, key)}"
                    for key in _SCHEMA if key.section == section]
        out.append("")
    return "\n".join(out)


def _rendered(cfg: ExperimentConfig, key: _Key) -> str:
    if key.target is None:  # the legacy `workers` key
        return "1"
    value = attrgetter(key.target)(cfg)
    return "" if value is None else key.type.show(value)


# -- timing ---------------------------------------------------------------------

TIMING_HEADER = "method,sample_count,elapsed_s"


@dataclass
class TimingProfile:
    """Prefix checkpoints of one generation run.

    Each checkpoint (N, seconds) is the time from the start of the run until
    its first N samples were labelled.  A sampler that labels a block of
    points reports the whole block at once, so every checkpoint inside one
    block reads the time that block finished: the random sampler labels its
    whole budget as one block, so each of its rows reads the full run.
    """

    method: str
    checkpoints: list[tuple[int, float]]
    dataset: SyntheticDataset | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        counts = [c for c, _ in self.checkpoints]
        elapsed = [e for _, e in self.checkpoints]
        if counts != sorted(set(counts)):
            raise ValueError("checkpoint sample counts must be strictly increasing")
        if any(b < a for a, b in zip(elapsed, elapsed[1:])):
            raise ValueError("elapsed times must be non-decreasing")

    def csv_text(self) -> str:
        """Timing CSV text: the header, then one row per checkpoint."""
        rows = [f"{self.method},{count},{elapsed:.6f}" for count, elapsed in self.checkpoints]
        return "\n".join([TIMING_HEADER, *rows]) + "\n"


def generate_dataset(
    cfg: ExperimentConfig,
    method: str,
    n: int,
    oracle: Oracle,
    rng: RandomSource,
    progress: Callable[[int], None] | None = None,
) -> SyntheticDataset:
    """Run the configured sampler `method` for `n` samples."""
    if method == "random":
        return random_sampler(n, oracle, rng, progress=progress)
    if method == "boundary":
        return boundary_sampler(n, oracle, cfg.boundary, rng, progress=progress)
    if method == "bayesian":
        return fast_bayesian_sampler(
            n, oracle, cfg.bayes, cfg.kernel_for(oracle), cfg.acquisition,
            rng, progress=progress,
        )
    if method == "jacobian":
        return jacobian_sampler(n, oracle, cfg.jacobian, rng, progress=progress)
    raise ConfigError(f"unknown sampling method {method!r}")


def timing_profile(
    cfg: ExperimentConfig,
    method: str,
    checkpoints: Sequence[int],
    oracle: Oracle,
    rng: RandomSource,
) -> TimingProfile:
    """Time one run of budget `checkpoints[-1]`, read at each checkpoint.

    A checkpoint's seconds are those until the first N samples were labelled
    (see `TimingProfile`), not the cost of a separate run of budget N; the
    full-run cost of budget N is the profile with the one checkpoint N.  The
    profile also carries the dataset generated for the last checkpoint.
    """
    checkpoints = list(checkpoints)
    if checkpoints != sorted(set(checkpoints)) or not checkpoints:
        raise ValueError("checkpoints must be non-empty and strictly ascending")
    marks: list[tuple[int, float]] = []
    remaining = list(checkpoints)
    start = time.perf_counter()

    def progress(count: int):
        while remaining and count >= remaining[0]:
            marks.append((remaining.pop(0), time.perf_counter() - start))

    ds = generate_dataset(cfg, method, checkpoints[-1], oracle, rng, progress=progress)
    return TimingProfile(method=method, checkpoints=marks, dataset=ds)


# -- the sweep runner -------------------------------------------------------------

@dataclass
class RunSummary:
    out_dir: Path
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
    profile = timing_profile(cfg, method, cfg.n_grid, oracle, rng)
    _write_text(timing_path, profile.csv_text())
    profile.dataset.to_csv(ds_path)


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


def _reference_for(cfg: ExperimentConfig, ref_path: Path, oracle: Oracle) -> SyntheticDataset:
    """Build the run's reference set through `oracle` and write it."""
    rng = RandomSource.derive(cfg.seed, "reference")
    ref = metrics.build_reference_set(
        oracle, cfg.reference_size, cfg.reference_balanced, rng
    )
    ref.to_csv(ref_path)
    return ref


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
    count.  A dataset whose generation fails closes that oracle, so the next
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
        if ref_path.exists():
            reference = SyntheticDataset.from_csv(ref_path)
        else:
            oracle = cfg.oracle.build()
            reference = _reference_for(cfg, ref_path, oracle)

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
    reports = metrics.summarize_runs(records)
    have = {(r.oracle, r.method, r.copy_arch, r.n) for r in reports}
    if len(cfg.methods) >= 2 and expected <= have:
        matrix = metrics.compare_methods(reports, cfg.tie_margin)
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
            dataset = SyntheticDataset.from_csv(ds_path)
            if dataset.d != 2:
                continue
            try:
                plot_2d(dataset, overlay, plot_path)
            except Exception as exc:
                summary.failures.append((f"plot {method}", str(exc)))
