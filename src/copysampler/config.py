"""Experiment configuration: the config-file grammar, the oracle spec, and
the parameter groups a config sets for the samplers and the copies.

`load_config` parses and checks an INI file into an ExperimentConfig, and
`render_resolved` writes one back in canonical form.  The module imports
only `core` and `oracles`, so loading a config and building its oracle (an
oracle server's parent, a set-up probe) loads none of the sampling,
training, GP or reporting code.
"""

from __future__ import annotations

import configparser
import contextlib
import math
import shlex
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import core
from .core import CopySamplerError, fit_normalization, round_half_up
from .oracles import (
    CheckerboardOracle,
    ConcentricCirclesOracle,
    ExternalOracle,
    HalfspaceOracle,
    Oracle,
    Spiral2DOracle,
    TableOracle,
)

METHODS = ("random", "boundary", "bayesian", "jacobian")

ARCHITECTURES = ("lr", "dt", "ann", "ann2")


class ConfigError(CopySamplerError):
    """The experiment configuration is invalid or inconsistent."""


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64), which the random stream refuses."""
    try:
        core.check_seed(seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def check_workers(workers: int) -> None:
    """Reject every worker count but 1: sweeps run serially."""
    if workers != 1:
        raise ConfigError(
            f"workers = {workers}: the worker pool was removed and sweeps run "
            "serially; only workers = 1 is accepted"
        )


def check_kernel(length_scale: float, variance: float) -> None:
    """Raise ValueError unless these make a squared exponential kernel.

    `gp.SEKernel` checks itself with this, and `FastBayesParams` checks
    the length_scale and variance it is given.
    """
    try:
        scale = 2.0 * float(length_scale) ** 2  # the kernel's divisor
    except OverflowError:
        scale = math.inf
    if not (length_scale > 0 and 0 < scale < math.inf):
        raise ValueError("length_scale must be > 0 with 2 * length_scale**2 finite "
                         f"and > 0, got {length_scale}")
    # An infinite variance gets through: every covariance it builds holds
    # inf or NaN, which the posterior rejects where the covariance enters.
    if not variance > 0:
        raise ValueError(f"variance must be > 0, got {variance}")


# -- parameter groups -------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryParams:
    """Knobs for the boundary sampler.

    The bisection tolerance must stay small against the exploration step or
    threads start from points the step immediately overshoots.  `runs`,
    `max_threads` and `max_steps` default to budget-dependent values
    round(2 + ln N), round(8 + 4 ln N) and floor(5 + 2.6 ln N).
    """

    epsilon: float = 0.01
    step: float = 0.05
    spawn_rate: float = 5.0
    runs: int | None = None
    max_threads: int | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < self.step:
            raise ValueError("need 0 < epsilon < step")
        if self.spawn_rate <= 0:
            raise ValueError("spawn_rate must be positive")

    def resolved(self, n: int) -> "BoundaryParams":
        """Fill budget-dependent defaults for a total budget of n samples."""
        ln = math.log(n)
        return replace(
            self,
            runs=self.runs if self.runs is not None else round_half_up(2 + ln),
            max_threads=self.max_threads
            if self.max_threads is not None
            else round_half_up(8 + 4 * ln),
            max_steps=self.max_steps
            if self.max_steps is not None
            else int(math.floor(5 + 2.6 * ln)),
        )


@dataclass(frozen=True)
class JacobianParams:
    """Knobs for gradient-sign augmentation.

    `refits` caps substitute retrainings at min(100, round(5 + N/4)) by
    default; `rounds` is how many augmentation passes each substitute is
    spent on before refitting.
    """

    refits: int | None = None
    seeds_per_refit: int = 50
    step: float = 0.05
    rounds: int = 5

    def __post_init__(self):
        if self.seeds_per_refit < 1 or self.rounds < 1 or self.step <= 0:
            raise ValueError("seeds_per_refit, rounds and step must be positive")

    def resolved(self, n: int) -> "JacobianParams":
        if self.refits is not None:
            return self
        return replace(self, refits=min(100, round_half_up(5 + n / 4)))


@dataclass(frozen=True)
class FastBayesParams:
    cap: int = 1000            # most samples used to condition one posterior
    slowness: float = 20.0     # inverse fraction of new points per refit
    init_count: int = 10
    local_iters: int = 10
    tau: float = 10.0          # weight of boundary refinement against raw variance
    # the kernel's; None takes the problem default (gp.SEKernel.for_problem)
    length_scale: float | None = None
    variance: float | None = None

    def __post_init__(self):
        if not self.cap >= self.init_count >= 1:
            raise ValueError("need cap >= init_count >= 1")
        if not 1 <= self.slowness < math.inf:
            raise ValueError(f"slowness factor must be finite and >= 1, got {self.slowness}")
        if not self.local_iters >= 0:
            raise ValueError(f"local_iters must be >= 0, got {self.local_iters}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        # an unset value stands as 1.0, which passes
        check_kernel(1.0 if self.length_scale is None else self.length_scale,
                     1.0 if self.variance is None else self.variance)


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 1e-2
    epochs: int = 200
    batch_size: int = 64
    max_depth: int | None = None
    min_leaf: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.step_size <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("step_size, epochs and batch_size must be positive")
        if self.min_leaf <= 0 or (self.max_depth is not None and self.max_depth <= 0):
            raise ValueError("min_leaf and max_depth must be positive")
        core.check_seed(self.seed)


# -- the oracle and the experiment --------------------------------------------------

_ANALYTIC_KINDS = ("halfspace", "circles", "checkerboard", "spiral")


@dataclass(frozen=True)
class OracleSpec:
    """Declarative oracle description; `build()` yields a fresh instance.

    `copysampler run` builds one per run (see `harness.run_experiment`).  A
    table is read and normalized once, at the first `build()`; every build
    wraps those read-only arrays in a new TableOracle with its own count.
    """

    kind: str
    options: dict = field(default_factory=dict)

    @property
    def oracle_id(self) -> str:
        return self.options.get("id", self.kind)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        # looked up on `core` at each call, so a loader wrapped there (a
        # tracer counting CSV reads) sees the table read too
        try:
            X, y = core.load_labeled_csv(self.options["path"])
        except ValueError as exc:  # its message names the file already
            raise ConfigError(f"table.path {exc}") from None
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
    architectures: tuple[str, ...] = ARCHITECTURES
    n_grid: tuple[int, ...] = (100, 1000, 10000)
    reference_size: int = 100000
    reference_balanced: bool = True
    tie_margin: float = 0.01
    boundary: BoundaryParams = field(default_factory=BoundaryParams)
    bayes: FastBayesParams = field(default_factory=FastBayesParams)
    jacobian: JacobianParams = field(default_factory=JacobianParams)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check_seed(self.seed)
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
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


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
    _Key("samplers.bayesian", "tau", _FLOAT, "bayes.tau"),
    _Key("samplers.bayesian", "length_scale", _FLOAT, "bayes.length_scale"),
    _Key("samplers.bayesian", "variance", _FLOAT, "bayes.variance"),
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
        fields[group] = replace(getattr(cfg, group), **values)
    return replace(cfg, **fields)


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
