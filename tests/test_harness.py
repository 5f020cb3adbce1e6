"""Experiment harness: config grammar, sweep accounting, resume, plots, CLI."""

import errno
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import copysampler
from copysampler import (
    ConcentricCirclesOracle,
    OracleSpec,
    SEKernel,
    SyntheticDataset,
    TableOracle,
    build_reference_set,
    core,
    metrics,
    oracles,
    random_sampler,
    train,
)
from copysampler.cli import main as cli_main
from copysampler.config import ConfigError, load_config, render_resolved
from copysampler.core import RandomSource, fit_normalization, load_labeled_csv, meta_path
from copysampler.harness import generate_dataset, run_experiment, timing_profile
from copysampler.metrics import read_report_csv
from copysampler.svgplot import PlotUnsupportedError, plot_2d

TOY_CONFIG = """
[experiment]
name = toy-circles
seed = 11
repetitions = 5
bayesian_repetitions = 5
workers = 1

[oracle]
kind = circles
center = 0.5 0.5
radii = 0.25

[samplers]
methods = random boundary bayesian jacobian

[samplers.bayesian]
cap = 200

[copies]
architectures = lr dt
epochs = 60

[evaluation]
n_grid = 100 1000
reference_size = 4000
"""


CIRCLES_ORACLE = "[oracle]\nkind = circles\ncenter = 0.5 0.5\nradii = 0.25\n"

MINI_RUN = ("[experiment]\nseed = 2\nrepetitions = 1\n"
            "[oracle]\nkind = halfspace\nw = 1 0\nc = 0.5\n"
            "[samplers]\nmethods = random\n"
            "[copies]\narchitectures = dt\n"
            "[evaluation]\nn_grid = 60\nreference_size = 300\n")

# render_resolved output as the run directories written so far have it; a
# run directory resumes only while these bytes stay the same
RESOLVED_DEFAULT_EXPERIMENT = """[experiment]
name = experiment
seed = 0
repetitions = 10
bayesian_repetitions = 5
workers = 1
plots = false

"""

RESOLVED_DEFAULT_REST = """[samplers]
methods = random boundary bayesian jacobian

[samplers.boundary]
epsilon = 0.01
step = 0.05
spawn_rate = 5.0
runs = 
max_threads = 
max_steps = 

[samplers.bayesian]
cap = 1000
slowness = 20.0
init_count = 10
local_iters = 10
tau = 10.0
length_scale = 
variance = 

[samplers.jacobian]
refits = 
seeds_per_refit = 50
step = 0.05
rounds = 5

[copies]
architectures = lr dt ann ann2
step_size = 0.01
epochs = 200
batch_size = 64
max_depth = 
min_leaf = 1

[evaluation]
n_grid = 100 1000 10000
reference_size = 100000
reference_balanced = true
tie_margin = 0.01
"""

RESOLVED_TOY_CIRCLES = """[experiment]
name = toy-circles
seed = 42
repetitions = 5
bayesian_repetitions = 5
workers = 1
plots = true

[oracle]
kind = circles
center = 0.5 0.5
radii = 0.25

[samplers]
methods = random boundary bayesian jacobian

[samplers.boundary]
epsilon = 0.01
step = 0.05
spawn_rate = 5.0
runs = 
max_threads = 
max_steps = 

[samplers.bayesian]
cap = 300
slowness = 20.0
init_count = 10
local_iters = 10
tau = 10.0
length_scale = 
variance = 

[samplers.jacobian]
refits = 
seeds_per_refit = 50
step = 0.05
rounds = 5

[copies]
architectures = lr dt
step_size = 0.01
epochs = 200
batch_size = 64
max_depth = 
min_leaf = 1

[evaluation]
n_grid = 100 1000
reference_size = 20000
reference_balanced = true
tie_margin = 0.01
"""

EVERY_KEY_CONFIG = """[experiment]
name = hs
seed = 7
repetitions = 3
bayesian_repetitions = 2
workers = 1
plots = yes

[oracle]
kind = halfspace
w = 1 -0.5
c = 0.25
id = my-halfspace

[samplers]
methods = random bayesian

[samplers.boundary]
epsilon = 0.001
step = 0.05
spawn_rate = 3
runs = 4
max_threads = 8
max_steps = 100

[samplers.bayesian]
cap = 150
slowness = 1.5
init_count = 12
local_iters = 9
tau = 0.2
length_scale = 0.3
variance = 2

[samplers.jacobian]
refits = 3
seeds_per_refit = 7
step = 0.02
rounds = 2

[copies]
architectures = dt ann
step_size = 0.01
epochs = 40
batch_size = 16
max_depth = 6
min_leaf = 2

[evaluation]
n_grid = 10 20
reference_size = 300
reference_balanced = off
tie_margin = 0.05
"""

RESOLVED_EVERY_KEY = """[experiment]
name = hs
seed = 7
repetitions = 3
bayesian_repetitions = 2
workers = 1
plots = true

[oracle]
kind = halfspace
c = 0.25
id = my-halfspace
w = 1.0 -0.5

[samplers]
methods = random bayesian

[samplers.boundary]
epsilon = 0.001
step = 0.05
spawn_rate = 3.0
runs = 4
max_threads = 8
max_steps = 100

[samplers.bayesian]
cap = 150
slowness = 1.5
init_count = 12
local_iters = 9
tau = 0.2
length_scale = 0.3
variance = 2.0

[samplers.jacobian]
refits = 3
seeds_per_refit = 7
step = 0.02
rounds = 2

[copies]
architectures = dt ann
step_size = 0.01
epochs = 40
batch_size = 16
max_depth = 6
min_leaf = 2

[evaluation]
n_grid = 10 20
reference_size = 300
reference_balanced = false
tie_margin = 0.05
"""


def write_table(directory):
    path = directory / "table.csv"
    path.write_text("x0,x1,label\n0.1,0.2,0\n0.9,0.8,1\n")
    return path


class HalfWrittenFile:
    """A file whose first write stores half its text, then fails as a full disk does."""

    def __init__(self, f):
        self._f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, text):
        self._f.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def fill_disk_on(monkeypatch, suffix):
    """Make every file opened for writing whose name holds `suffix` a HalfWrittenFile."""
    real_open = Path.open

    def open_(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return HalfWrittenFile(f) if "w" in mode and suffix in path.name else f

    monkeypatch.setattr(Path, "open", open_)


def without_wall_time(report: bytes) -> list[list[bytes]]:
    """report.csv rows split into fields, minus the run-dependent wall time."""
    rows = [line.split(b",") for line in report.splitlines()]
    col = rows[0].index(b"wall_time_s")
    return [row[:col] + row[col + 1:] for row in rows]


@pytest.fixture(scope="module")
def toy_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "toy.ini"
    path.write_text(TOY_CONFIG)
    return path


@pytest.fixture(scope="module")
def toy_run(toy_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "out"
    cfg = load_config(toy_config)
    summary = run_experiment(cfg, out)
    return cfg, out, summary


class TestConfigParsing:
    def test_toy_config_loads(self, toy_config):
        cfg = load_config(toy_config)
        assert cfg.methods == ("random", "boundary", "bayesian", "jacobian")
        assert cfg.architectures == ("lr", "dt")
        assert cfg.n_grid == (100, 1000)
        assert cfg.bayes.cap == 200
        assert cfg.train.epochs == 60

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[oracle]\nkind = circles\ncenter = 0.5 0.5\nradii = 0.25\n"
                        "[surprises]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_method(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[oracle]\nkind = circles\ncenter = 0.5 0.5\nradii = 0.25\n"
                        "[samplers]\nmethods = random sobol\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_oracle_kind(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[oracle]\nkind = hypersphere\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_table_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[oracle]\nkind = table\npath = missing.csv\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("normalize", ["true", "false"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_table_rejected(self, tmp_path, normalize, bad):
        (tmp_path / "table.csv").write_text(
            f"x0,x1,label\n0.1,0.2,0\n0.9,0.8,1\n0.5,{bad},1\n0.3,0.7,0\n")
        path = tmp_path / "bad.ini"
        path.write_text(f"[oracle]\nkind = table\npath = table.csv\nnormalize = {normalize}\n")
        cfg = load_config(path)
        with pytest.raises(ConfigError, match=r"table\.path .*table\.csv.*row 2 "):
            cfg.oracle.build()

    @pytest.mark.parametrize("row, message", [
        ("0.5,0.5,1.5", "row 2 has the label 1.5;"),  # the loader's error
        ("0.5,nan,1", "row 2 holds NaN"),  # the oracle's
    ], ids=["fraction", "nan"])
    def test_bad_table_names_its_path_once(self, tmp_path, row, message):
        table = tmp_path / "table.csv"
        table.write_text(f"0.1,0.2,0\n0.9,0.8,1\n{row}\n")
        path = tmp_path / "bad.ini"
        path.write_text(f"[oracle]\nkind = table\npath = {table}\nnormalize = false\n")
        with pytest.raises(ConfigError) as err:
            load_config(path).oracle.build()
        assert str(err.value).startswith(f"table.path {table}: ")
        assert str(err.value).count(str(table)) == 1
        assert message in str(err.value)

    def test_readme_ini_examples_load(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
        assert blocks
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.ini"
            path.write_text(block)
            load_config(path)

    def test_descending_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[oracle]\nkind = circles\ncenter = 0.5 0.5\nradii = 0.25\n"
                        "[evaluation]\nn_grid = 1000 100\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_render_resolved_is_stable(self, toy_config):
        cfg = load_config(toy_config)
        assert render_resolved(cfg) == render_resolved(load_config(toy_config))

    @pytest.mark.parametrize("section, key", [
        ("experiment", "workrs = 4"),
        ("oracle", "raddi = 0.4"),
        ("oracle", "cells = 3"),  # a checkerboard key on a circles oracle
        ("samplers", "method = random"),
        ("samplers.boundary", "epsilom = 0.001"),
        ("samplers.bayesian", "capp = 5"),
        ("samplers.jacobian", "refit = 3"),
        ("copies", "epoch = 10"),
        ("evaluation", "n_gird = 100"),
    ])
    def test_misspelt_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "typo.ini"
        if section == "oracle":
            path.write_text(CIRCLES_ORACLE + key + "\n")
        else:
            path.write_text(CIRCLES_ORACLE + f"[{section}]\n{key}\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_misspelt_table_oracle_key_rejected(self, tmp_path):
        write_table(tmp_path)
        path = tmp_path / "typo.ini"
        path.write_text("[oracle]\nkind = table\npath = table.csv\nnormalise = true\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_missing_oracle_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[oracle]\nkind = circles\ncenter = 0.5 0.5\n")
        with pytest.raises(ConfigError, match="radii"):
            load_config(path)

    @pytest.mark.parametrize("section, key, match", [
        ("samplers.bayesian", "length_scale = 0", "length_scale must be > 0"),
        ("samplers.bayesian", "length_scale = -0.5", "length_scale must be > 0"),
        ("samplers.bayesian", "length_scale = 1e160", r"2 \* length_scale\*\*2 finite"),
        ("samplers.bayesian", "length_scale = 1e-170", r"2 \* length_scale\*\*2 finite"),
        ("samplers.bayesian", "variance = 0", "variance must be > 0"),
        ("evaluation", "reference_size = 0", "reference_size must be >= 1"),
        ("evaluation", "n_grid = 0 5", "n_grid must list budgets >= 1"),
        ("evaluation", "n_grid =", "n_grid must list budgets >= 1"),
        ("evaluation", "tie_margin = -1", "tie_margin must be >= 0"),
        *[("samplers.bayesian", f"{name} = {value}", "expected a finite number")
          for name in ("length_scale", "variance", "tau", "slowness")
          for value in ("inf", "nan")],
        ("samplers.bayesian", "local_iters = -1", "local_iters must be >= 0"),
        ("samplers.boundary", "step = inf", "expected a finite number"),
        ("samplers.boundary", "spawn_rate = nan", "expected a finite number"),
        ("copies", "step_size = nan", "expected a finite number"),
        ("copies", "step_size = inf", "expected a finite number"),
        ("evaluation", "tie_margin = -Infinity", "expected a finite number"),
    ], ids=["zero-length-scale", "negative-length-scale", "length-scale-square-overflows",
            "length-scale-square-underflows", "zero-variance",
            "zero-reference-size", "zero-budget", "no-budget", "negative-tie-margin",
            *[f"{name}-{value}" for name in ("length-scale", "variance", "tau", "slowness")
              for value in ("inf", "nan")],
            "negative-local-iters", "infinite-step", "nan-spawn-rate", "nan-step-size",
            "infinite-step-size", "infinite-tie-margin"])
    def test_out_of_range_value_rejected(self, tmp_path, section, key, match):
        path = tmp_path / "bad.ini"
        path.write_text(CIRCLES_ORACLE + f"[{section}]\n{key}\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**70)])
    def test_seed_outside_u64_rejected(self, tmp_path, seed):
        # the random stream would wrap it: -1 would run as 2**64 - 1, 2**64 as 0
        path = tmp_path / "seed.ini"
        path.write_text(f"[experiment]\nseed = {seed}\n" + CIRCLES_ORACLE)
        with pytest.raises(ConfigError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
            load_config(path)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_u64_ends_loads(self, tmp_path, seed):
        path = tmp_path / "seed.ini"
        path.write_text(f"[experiment]\nseed = {seed}\n" + CIRCLES_ORACLE)
        assert load_config(path).seed == seed
        assert f"seed = {seed}\n" in render_resolved(load_config(path))

    def test_non_finite_list_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[oracle]\nkind = circles\ncenter = 0.5 nan\nradii = 0.25\n")
        with pytest.raises(ConfigError, match="expected a finite number, got 'nan'"):
            load_config(path)

    @pytest.mark.parametrize("samplers, grid, match", [
        ("methods = random jacobian", "10 20",
         "below the 50 samples the jacobian sampler needs .*seeds_per_refit"),
        ("methods = jacobian\n[samplers.jacobian]\nseeds_per_refit = 30", "10 29",
         "below the 30 samples the jacobian sampler needs"),
        ("methods = random bayesian", "5 9",
         "below the 10 samples the bayesian sampler needs .*init_count"),
        ("methods = bayesian\n[samplers.bayesian]\ninit_count = 4", "3",
         "below the 4 samples the bayesian sampler needs"),
        ("methods = random boundary", "1", "below the 2 samples the boundary sampler needs"),
    ], ids=["jacobian", "jacobian-set", "bayesian", "bayesian-set", "boundary"])
    def test_grid_below_a_method_minimum_rejected(self, tmp_path, samplers, grid, match):
        path = tmp_path / "small.ini"
        path.write_text(CIRCLES_ORACLE + f"[evaluation]\nn_grid = {grid}\n"
                        f"[samplers]\n{samplers}\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize("samplers, grid", [
        ("methods = random jacobian\n[samplers.jacobian]\nseeds_per_refit = 20", "10 20"),
        ("methods = bayesian\n[samplers.bayesian]\ninit_count = 4", "2 4"),
        ("methods = random boundary", "1 2"),
        ("methods = random", "1"),
    ], ids=["jacobian", "bayesian", "boundary", "random"])
    def test_grid_at_a_method_minimum_loads(self, tmp_path, samplers, grid):
        path = tmp_path / "small.ini"
        path.write_text(CIRCLES_ORACLE + f"[evaluation]\nn_grid = {grid}\n"
                        f"[samplers]\n{samplers}\n")
        assert load_config(path).n_grid[-1] == int(grid.split()[-1])

    def test_explicit_kernel_values_are_kept(self, tmp_path):
        path = tmp_path / "k.ini"
        path.write_text(CIRCLES_ORACLE + "[samplers.bayesian]\nlength_scale = 0.125\n")
        cfg = load_config(path)
        assert (cfg.bayes.length_scale, cfg.bayes.variance) == (0.125, None)
        # the sampler's kernel: the set value, and the problem default for the other
        ds = generate_dataset(cfg, "bayesian", cfg.bayes.init_count,
                              ConcentricCirclesOracle((0.5, 0.5), [0.25]), RandomSource(1))
        assert ds.metadata["length_scale"] == 0.125
        assert ds.metadata["kernel_variance"] == SEKernel.for_problem(2, 2).variance

    @pytest.mark.parametrize("workers, ok", [("1", True), ("2", False), ("0", False)])
    def test_workers_accepts_only_one(self, tmp_path, workers, ok):
        path = tmp_path / "w.ini"
        path.write_text(f"[experiment]\nworkers = {workers}\n" + CIRCLES_ORACLE)
        if ok:
            assert "workers = 1" in render_resolved(load_config(path))
        else:
            with pytest.raises(ConfigError, match="worker pool was removed"):
                load_config(path)


class TestResolvedGolden:
    def test_toy_circles(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "toy-circles.ini"
        assert render_resolved(load_config(path)) == RESOLVED_TOY_CIRCLES

    def test_every_key_set(self, tmp_path):
        path = tmp_path / "every.ini"
        path.write_text(EVERY_KEY_CONFIG)
        assert render_resolved(load_config(path)) == RESOLVED_EVERY_KEY

    @pytest.mark.parametrize("oracle, rendered", [
        ("kind = circles\ncenter = 0.5 0.5\nradii = 0.2 0.4\n",
         "kind = circles\ncenter = 0.5 0.5\nradii = 0.2 0.4\n"),
        ("kind = checkerboard\ncells = 3\n",
         "kind = checkerboard\ncells = 3\nd = 2\n"),
        ("kind = spiral\nturns = 1.5\ncenter = 0.4 0.6\n",
         "kind = spiral\ncenter = 0.4 0.6\nturns = 1.5\n"),
        ("kind = table\npath = table.csv\nnormalize = false\n",
         "kind = table\nnormalize = False\npath = {table}\n"),
        ("kind = table\npath = table.csv\n",
         "kind = table\nnormalize = True\npath = {table}\n"),
        ("kind = external\ncommand = serve-model --port 7 'two words'\n",
         "kind = external\ncommand = serve-model --port 7 two words\n"),
    ])
    def test_oracle_kinds(self, tmp_path, oracle, rendered):
        table = write_table(tmp_path).resolve()
        path = tmp_path / "kind.ini"
        path.write_text("[oracle]\n" + oracle)
        expected = (RESOLVED_DEFAULT_EXPERIMENT + "[oracle]\n"
                    + rendered.format(table=table) + "\n" + RESOLVED_DEFAULT_REST)
        assert render_resolved(load_config(path)) == expected


class TestRunAccounting:
    def test_report_row_count(self, toy_run):
        cfg, out, summary = toy_run
        records = read_report_csv(out / "report.csv")
        assert len(records) == 4 * 2 * 2 * 5  # methods x archs x grid x seeds
        assert summary.cells_computed == 80
        assert summary.failures == []

    def test_aggregates_exist(self, toy_run):
        _, out, _ = toy_run
        for name in ("report.csv", "comparison.csv", "timing.csv",
                     "config.resolved.ini"):
            assert (out / name).exists(), name

    def test_config_echo_replays(self, toy_run):
        cfg, out, _ = toy_run
        assert (out / "config.resolved.ini").read_text() == render_resolved(cfg)

    def test_single_cell_accounting(self, tmp_path):
        path = tmp_path / "one.ini"
        path.write_text("[experiment]\nseed = 3\nrepetitions = 1\n"
                        "[oracle]\nkind = halfspace\nw = 1 0\nc = 0.5\n"
                        "[samplers]\nmethods = random\n"
                        "[copies]\narchitectures = dt\n"
                        "[evaluation]\nn_grid = 100\nreference_size = 500\n")
        summary = run_experiment(load_config(path), tmp_path / "out")
        records = read_report_csv(tmp_path / "out" / "report.csv")
        assert len(records) == 1
        assert summary.cells_computed == 1


DIVERGING_RUN = """
[experiment]
seed = 4
repetitions = 2

[oracle]
kind = circles
center = 0.5 0.5
radii = 0.25

[samplers]
methods = random boundary

[copies]
architectures = lr
epochs = 20

[evaluation]
n_grid = 50 100
reference_size = 300
"""


class TestCellFailureIsolation:
    def test_diverging_cell_fails_alone(self, tmp_path):
        path = tmp_path / "diverge.ini"
        path.write_text(DIVERGING_RUN)
        cfg = load_config(path)
        out = tmp_path / "out"
        run_experiment(cfg, out, only_archs=[])  # the datasets, no cells
        ds_path = out / "datasets" / "random_r01.csv"
        dataset = SyntheticDataset.from_csv(ds_path)
        X = dataset.X.copy()
        X[70, 0] = np.nan  # inside the N = 100 prefix, outside the N = 50 one
        replace(dataset, X=X).to_csv(ds_path)

        summary = run_experiment(cfg, out)
        assert [label for label, _ in summary.failures] == ["cell random lr n100 rep 1"]
        assert "non-finite gradient moments" in summary.failures[0][1]
        assert summary.cells_computed == 7
        assert not (out / "cells" / "random__lr__n100__r01.csv").exists()

        reference = SyntheticDataset.from_csv(out / "reference" / "reference.csv")
        for method, rep in (("random", 0), ("boundary", 0), ("boundary", 1)):
            dataset = SyntheticDataset.from_csv(out / "datasets" / f"{method}_r{rep:02d}.csv")
            seed = RandomSource.derive(cfg.seed, "train", method, "lr", 100, rep).seed
            alone = train("lr", dataset.prefix(100), replace(cfg.train, seed=seed))
            preds = alone.predict_many(reference.X)
            record = metrics.RunRecord(
                oracle="circles", method=method, arch="lr", n=100, seed=seed,
                r_f=metrics.empirical_fidelity_error(preds, reference.y),
                r_fb=metrics.balanced_empirical_fidelity_error(preds, reference.y,
                                                               reference.k),
                wall_time_s=0.0,
            )
            expected = "\n".join([",".join(metrics.REPORT_HEADER),
                                  ",".join(metrics.format_report_row(record))])
            cell = out / "cells" / f"{method}__lr__n100__r{rep:02d}.csv"
            assert (without_wall_time(cell.read_bytes())
                    == without_wall_time(expected.encode()))


class TestResume:
    def test_rerun_is_idempotent_and_computes_nothing(self, toy_run):
        cfg, out, _ = toy_run
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        summary = run_experiment(cfg, out)
        assert summary.datasets_computed == 0
        assert summary.cells_computed == 0
        after = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert before.keys() == after.keys()
        for path, blob in before.items():
            assert after[path] == blob, f"{path} changed on resume"

    def test_deleted_cell_is_recomputed_identically(self, toy_run):
        cfg, out, _ = toy_run
        cell = next(iter((out / "cells").glob("random__dt__n100__*.csv")))
        original = cell.read_bytes()
        report_before = (out / "report.csv").read_bytes()
        cell.unlink()
        summary = run_experiment(cfg, out)
        assert summary.cells_computed == 1
        recomputed = cell.read_bytes()
        # all value fields identical; wall_time differs between runs
        assert recomputed.rsplit(b",", 1)[0] == original.rsplit(b",", 1)[0]
        report_after = (out / "report.csv").read_bytes()
        assert without_wall_time(report_after) == without_wall_time(report_before)
        assert len(report_after.splitlines()) == len(report_before.splitlines())

    def test_another_process_temporary_file_is_left_alone(self, tmp_path):
        path = tmp_path / "mini.ini"
        path.write_text(MINI_RUN)
        out = tmp_path / "out"
        stray = out / "reference" / "reference.csv.tmp"  # another run's, mid-write
        stray.parent.mkdir(parents=True)
        stray.write_text("x0,x1,label\n0.5,0.5,1\n")
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert stray.read_text() == "x0,x1,label\n0.5,0.5,1\n"
        assert len(SyntheticDataset.from_csv(out / "reference" / "reference.csv")) == 300
        assert not list(out.rglob(f"*.{os.getpid()}.tmp"))

    def test_plot_cut_off_part_way_is_drawn_on_resume(self, tmp_path, monkeypatch):
        path = tmp_path / "plots.ini"
        path.write_text(MINI_RUN.replace("repetitions = 1\n", "repetitions = 1\nplots = true\n"))
        cfg, out = load_config(path), tmp_path / "out"
        with monkeypatch.context() as m:
            fill_disk_on(m, ".svg")
            summary = run_experiment(cfg, out)
        assert [label for label, _ in summary.failures] == ["plot random"]
        assert list((out / "plots").iterdir()) == []
        summary = run_experiment(cfg, out)
        assert summary.failures == [] and summary.cells_computed == 0
        assert (out / "plots" / "random.svg").read_text().endswith("</svg>\n")

    def test_mismatched_config_rejected(self, toy_run, tmp_path):
        cfg, out, _ = toy_run
        from dataclasses import replace

        other = replace(cfg, seed=999)
        with pytest.raises(ConfigError):
            run_experiment(other, out)

    def test_filters_compute_subset(self, tmp_path):
        path = tmp_path / "f.ini"
        path.write_text("[experiment]\nseed = 5\nrepetitions = 2\n"
                        "[oracle]\nkind = halfspace\nw = 1 0\nc = 0.5\n"
                        "[samplers]\nmethods = random boundary\n"
                        "[copies]\narchitectures = dt lr\nepochs = 30\n"
                        "[evaluation]\nn_grid = 50 100\nreference_size = 400\n")
        cfg = load_config(path)
        out = tmp_path / "out"
        s1 = run_experiment(cfg, out, only_methods=["random"], only_archs=["dt"],
                            only_ns=[50])
        assert s1.cells_computed == 2  # 1 method x 1 arch x 1 n x 2 seeds
        s2 = run_experiment(cfg, out)
        assert s2.cells_computed == 14  # the rest of the 16-cell grid


class TestDeterminismAcrossDirectories:
    def test_fresh_directory_reproduces_values(self, toy_run, tmp_path):
        cfg, out, _ = toy_run
        out2 = tmp_path / "fresh"
        run_experiment(cfg, out2)
        a = read_report_csv(out / "report.csv")
        b = read_report_csv(out2 / "report.csv")
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert (ra.oracle, ra.method, ra.arch, ra.n, ra.seed) == \
                   (rb.oracle, rb.method, rb.arch, rb.n, rb.seed)
            assert ra.r_f == rb.r_f
            assert ra.r_fb == rb.r_fb


class TestTimingProfile:
    def test_single_checkpoint(self, circles, toy_config):
        cfg = load_config(toy_config)
        profile = timing_profile(cfg, "random", [500], circles, RandomSource(1))
        assert len(profile.checkpoints) == 1
        assert profile.checkpoints[0][0] == 500
        assert profile.checkpoints[0][1] >= 0.0

    @pytest.mark.parametrize("method", ["random", "boundary", "bayesian", "jacobian"])
    def test_monotone_elapsed(self, circles, toy_config, method):
        cfg = load_config(toy_config)
        profile = timing_profile(cfg, method, [100, 400, 800], circles,
                                 RandomSource(2))
        counts = [c for c, _ in profile.checkpoints]
        elapsed = [e for _, e in profile.checkpoints]
        assert counts == [100, 400, 800]
        assert elapsed == sorted(elapsed)

    def test_bad_checkpoints_rejected(self, circles, toy_config):
        cfg = load_config(toy_config)
        with pytest.raises(ValueError):
            timing_profile(cfg, "random", [400, 100], circles, RandomSource(3))


class TestPlot:
    def test_empty_dataset_is_valid_svg(self, tmp_path):
        ds = SyntheticDataset(np.empty((0, 2)), np.empty(0, dtype=int), 2,
                              "empty", 0, 0)
        path = plot_2d(ds, None, tmp_path / "empty.svg")
        text = path.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text
        assert "<circle" not in text.split("clip-path")[1]

    def test_marker_count(self, tmp_path, circles):
        ds = random_sampler(50, circles, RandomSource(4))
        text = plot_2d(ds, circles, tmp_path / "fifty.svg").read_text()
        data_region = text.split('clip-path="url(#data-region)"')[1]
        assert data_region.count("<circle") == 50

    def test_byte_identical(self, tmp_path, circles):
        ds = random_sampler(20, circles, RandomSource(5))
        a = plot_2d(ds, circles, tmp_path / "a.svg").read_bytes()
        b = plot_2d(ds, circles, tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_boundary_overlay_present(self, tmp_path, circles):
        ds = random_sampler(5, circles, RandomSource(6))
        text = plot_2d(ds, circles, tmp_path / "o.svg").read_text()
        assert "<polyline" in text

    def test_wrong_dimension_rejected(self, tmp_path):
        ds = SyntheticDataset(np.zeros((3, 3)), np.zeros(3, dtype=int), 1,
                              "threed", 0, 3)
        with pytest.raises(PlotUnsupportedError):
            plot_2d(ds, None, tmp_path / "bad.svg")


class TestCLI:
    def test_sample_and_plot(self, tmp_path, toy_config):
        out_csv = tmp_path / "ds.csv"
        out_svg = tmp_path / "ds.svg"
        code = cli_main([
            "sample", "--config", str(toy_config), "--method", "random",
            "--n", "60", "--seed", "3", "--out", str(out_csv),
            "--plot", str(out_svg),
        ])
        assert code == 0
        assert out_csv.exists() and out_svg.exists()
        ds = SyntheticDataset.from_csv(out_csv)
        assert len(ds) == 60

    def test_copy_evaluate_round_trip(self, tmp_path, toy_config):
        data = tmp_path / "train.csv"
        model = tmp_path / "copy"
        cli_main(["sample", "--config", str(toy_config), "--method", "random",
                  "--n", "200", "--seed", "4", "--out", str(data)])
        assert cli_main(["copy", "--data", str(data), "--arch", "dt",
                         "--seed", "1", "--out", str(model)]) == 0
        assert cli_main(["evaluate", "--config", str(toy_config),
                         "--model", str(model) + ".npz",
                         "--reference-size", "500", "--seed", "5"]) == 0

    def test_profile_writes_csv(self, tmp_path, toy_config):
        out = tmp_path / "timing.csv"
        code = cli_main(["profile", "--config", str(toy_config),
                         "--method", "random", "--checkpoints", "100 300",
                         "--seed", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,sample_count,elapsed_s"
        assert len(lines) == 3

    def test_profile_out_cut_off_part_way_leaves_no_file(self, tmp_path, toy_config,
                                                         monkeypatch):
        fill_disk_on(monkeypatch, "timing.csv")
        with pytest.raises(OSError):
            cli_main(["profile", "--config", str(toy_config), "--method", "random",
                      "--checkpoints", "100", "--out", str(tmp_path / "timing.csv")])
        assert list(tmp_path.iterdir()) == []

    def test_compare_from_report(self, tmp_path, toy_run):
        _, out, _ = toy_run
        dest = tmp_path / "cmp.csv"
        code = cli_main(["compare", "--report", str(out / "report.csv"),
                         "--out", str(dest)])
        assert code == 0
        assert dest.read_text().splitlines()[0] == \
            "method_a,method_b,victories,ties,losses"

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[oracle]\nkind = wat\n")
        code = cli_main(["run", "--config", str(bad), "--out",
                         str(tmp_path / "o")])
        assert code == 2

    def test_zero_reference_size_exits_before_writing(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text(CIRCLES_ORACLE + "[evaluation]\nreference_size = 0\n")
        code = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o" / "config.resolved.ini").exists()

    def test_grid_below_jacobian_seeds_exits_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CIRCLES_ORACLE + "[samplers]\nmethods = random jacobian\n"
                       "[evaluation]\nn_grid = 10 20\n")
        code = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seeds_per_refit" in capsys.readouterr().err
        assert not (tmp_path / "o" / "config.resolved.ini").exists()

    @pytest.mark.parametrize("flag, value, listed", [
        ("--n", "5", "(10 20)"),
        ("--n", "0", "(10 20)"),
        ("--method", "bayesian", "(random boundary)"),
        ("--arch", "lr", "(dt)"),
    ])
    def test_filter_matching_nothing_exits_before_writing(self, tmp_path, capsys,
                                                          flag, value, listed):
        path = tmp_path / "grid.ini"
        path.write_text(CIRCLES_ORACLE + "[samplers]\nmethods = random boundary\n"
                        "[copies]\narchitectures = dt\n"
                        "[evaluation]\nn_grid = 10 20\nreference_size = 200\n")
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(path), "--out", str(out), flag, value]) == 2
        err = capsys.readouterr().err
        assert value in err and listed in err
        assert not out.exists()

    @pytest.mark.parametrize("command, args, message", [
        ("sample", ["--method", "random", "--n", "0"], "--n is 0, below the 1 samples"),
        ("sample", ["--method", "jacobian", "--n", "20"], "seeds_per_refit"),
        ("profile", ["--method", "random", "--checkpoints", "5 x"], "'5 x'"),
        ("profile", ["--method", "random", "--checkpoints", "0 5"], "'0 5'"),
        ("profile", ["--method", "random", "--checkpoints", "9 5"], "'9 5'"),
        ("profile", ["--method", "jacobian", "--checkpoints", "10 20"],
         "--checkpoints tops out at 20"),
    ])
    def test_bad_numbers_exit_2_with_one_line(self, tmp_path, toy_config, capsys,
                                              command, args, message):
        out = tmp_path / "out.csv"
        code = cli_main([command, "--config", str(toy_config), *args, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    @pytest.mark.parametrize("command, args", [
        ("sample", ["--method", "random", "--n", "10"]),
        ("copy", ["--data", "data.csv", "--arch", "lr"]),
        ("evaluate", ["--model", "model.npz"]),
        ("profile", ["--method", "random", "--checkpoints", "10"]),
        ("run", []),
    # fixed ids, so that a case keeps its id when other cases come or go
    ], ids=["sample-args0", "copy-args1", "evaluate-args2", "profile-args4", "run-args6"])
    def test_seed_outside_u64_exits_2_on_every_subcommand(self, tmp_path, toy_config,
                                                          capsys, monkeypatch, command,
                                                          args, seed):
        monkeypatch.chdir(tmp_path)
        needs_config = command in ("sample", "evaluate", "profile", "run")
        config = ["--config", str(toy_config)] if needs_config else []
        code = cli_main([command, *config, *args, "--out", "out", "--seed", seed])
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "out").exists()
        assert err == f"config error: seed {seed} is outside [0, 2**64)\n"

    @pytest.mark.parametrize("command, args", [
        ("compare", ["--report", "report.csv"]),
        ("plot", ["--data", "data.csv"]),
    ])
    def test_seed_is_a_usage_error_where_nothing_is_drawn(self, tmp_path, capsys,
                                                          monkeypatch, command, args):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, *args, "--out", "out", "--seed", "1"])
        assert exit_info.value.code == 2 and not (tmp_path / "out").exists()
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, args, message", [
        ("compare", ["--report", "missing.csv"], "missing.csv: No such file or directory"),
        ("compare", ["--report", "columns.csv"],
         "columns.csv: the report header lacks arch, N, seed, R_F, R_Fb, wall_time_s"),
        ("plot", ["--data", "missing.csv"], "missing.csv: No such file or directory"),
        ("copy", ["--data", "missing.csv", "--arch", "lr"],
         "missing.csv: No such file or directory"),
    ], ids=["compare-missing", "compare-columns", "plot-missing", "copy-missing"])
    def test_unreadable_input_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                     command, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "columns.csv").write_text("oracle,method\ncircles,random\n")
        code = cli_main([command, *args, "--out", "out"])
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "out").exists()
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("labels, message", [
        ([0, 1, 1.5], "row 2 has the label 1.5;"),
        ([0, 1, -1], "row 2 has the label -1.0;"),
        ([0, 1, 1e300], "row 2 has the label 1e+300;"),
        ([0, 2, 2], "no reference table row has the label 1,"),
    ], ids=["fraction", "negative", "huge", "gap"])
    def test_bad_table_label_ends_run_before_writing(self, tmp_path, capsys, labels,
                                                     message):
        rows = "".join(f"{0.1 * i!r},{0.3 * i!r},{label!r}\n"
                       for i, label in enumerate(labels))
        (tmp_path / "table.csv").write_text(rows)
        (tmp_path / "t.ini").write_text(TABLE_RUN)
        out = tmp_path / "o"
        code = cli_main(["run", "--config", str(tmp_path / "t.ini"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert err.startswith(f"config error: table.path {tmp_path / 'table.csv'}: ")
        assert message in err
        assert sorted(p.name for p in out.iterdir()) == ["config.resolved.ini"]

    @pytest.mark.parametrize("size", ["0", "1"])  # below the k = 2 a balanced set needs
    def test_evaluate_reference_size_below_the_classes(self, tmp_path, toy_config,
                                                       capsys, size):
        model = train("dt", random_sampler(50, ConcentricCirclesOracle((0.5, 0.5), [0.25]),
                                           RandomSource(1)))
        path = model.save(tmp_path / "copy")
        code = cli_main(["evaluate", "--config", str(toy_config), "--model", str(path),
                         "--reference-size", size])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert f"--reference-size is {size}, below the 2 point(s)" in err

    @pytest.mark.parametrize("workers, code", [("1", 0), ("2", 2)])
    def test_run_workers_flag(self, tmp_path, capsys, workers, code):
        path = tmp_path / "mini.ini"
        path.write_text("[experiment]\nrepetitions = 1\n"
                        "[oracle]\nkind = halfspace\nw = 1 0\nc = 0.5\n"
                        "[samplers]\nmethods = random\n"
                        "[copies]\narchitectures = dt\n"
                        "[evaluation]\nn_grid = 60\nreference_size = 300\n")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--workers", workers]) == code
        if code:
            assert "worker pool was removed" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["circles", "external"])
    def test_plot_overlays_only_an_analytic_oracle(self, tmp_path, monkeypatch, kind):
        closed = []
        close = oracles.Oracle.close

        def recording_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(oracles.Oracle, "close", recording_close)
        config = tmp_path / "plot.ini"
        config.write_text(CIRCLES_ORACLE if kind == "circles" else
                          f"[oracle]\nkind = external\ncommand = {tmp_path / 'no-such-server'}\n")
        data = random_sampler(10, ConcentricCirclesOracle((0.5, 0.5), [0.25]),
                              RandomSource(7)).to_csv(tmp_path / "ds.csv")
        assert cli_main(["plot", "--data", str(data), "--out", str(tmp_path / "p.svg"),
                         "--config", str(config)]) == 0
        text = (tmp_path / "p.svg").read_text()
        assert text.count("<circle") == 10
        # an external oracle is not started: the missing command would fail
        assert ("<polyline" in text) == (kind == "circles")
        assert len(closed) == (kind == "circles")

    def test_sweep_with_a_comma_in_the_oracle_id(self, tmp_path):
        path = tmp_path / "comma.ini"
        path.write_text("[experiment]\nrepetitions = 1\n"
                        "[oracle]\nkind = halfspace\nid = rings,v2\nw = 1 0\nc = 0.5\n"
                        "[samplers]\nmethods = random jacobian\n"
                        "[copies]\narchitectures = dt\n"
                        "[evaluation]\nn_grid = 60\nreference_size = 300\n")
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        records = read_report_csv(out / "report.csv")
        assert len(records) == 2 and {r.oracle for r in records} == {"rings,v2"}
        assert (out / "comparison.csv").exists()
        assert cli_main(["compare", "--report", str(out / "report.csv"),
                         "--out", str(tmp_path / "cmp.csv")]) == 0
        assert (tmp_path / "cmp.csv").read_bytes() == (out / "comparison.csv").read_bytes()

    @pytest.mark.parametrize("seed_args, seed", [([], 42), (["--seed", "3"], 3)],
                             ids=["config-seed", "flag"])
    def test_run_seed_defaults_to_the_config(self, tmp_path, seed_args, seed):
        # configs/toy-circles.ini sets seed = 42
        config = Path(__file__).resolve().parents[1] / "configs" / "toy-circles.ini"
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(config), "--out", str(out), "--method",
                         "random", "--arch", "lr", "--n", "100", *seed_args]) == 0
        assert f"\nseed = {seed}\n" in (out / "config.resolved.ini").read_text()

    def test_sample_and_evaluate_default_to_the_config_seed(self, tmp_path, toy_config):
        # the toy config sets seed = 11
        data = tmp_path / "ds.csv"
        assert cli_main(["sample", "--config", str(toy_config), "--method", "random",
                         "--n", "30", "--out", str(data)]) == 0
        expected = random_sampler(30, ConcentricCirclesOracle((0.5, 0.5), [0.25]),
                                  RandomSource(11))
        assert SyntheticDataset.from_csv(data).X.tobytes() == expected.X.tobytes()
        model = train("dt", expected).save(tmp_path / "copy")
        report = tmp_path / "report.csv"
        assert cli_main(["evaluate", "--config", str(toy_config), "--model", str(model),
                         "--reference-size", "100", "--out", str(report)]) == 0
        assert [r.seed for r in read_report_csv(report)] == [11]

    def test_run_exit_zero(self, tmp_path):
        path = tmp_path / "mini.ini"
        path.write_text(MINI_RUN)
        code = cli_main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out"), "--seed", "2"])
        assert code == 0


class TestConcurrentRuns:
    def test_two_runs_build_the_reference_once(self, tmp_path):
        config = Path(__file__).resolve().parents[1] / "configs" / "toy-circles.ini"
        src = str(Path(copysampler.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def start(out, method):
            return subprocess.Popen(
                [sys.executable, "-m", "copysampler.cli", "run", "--config", str(config),
                 "--out", str(out), "--seed", "42", "--method", method],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)

        serial = start(tmp_path / "serial", "random")
        assert serial.communicate(timeout=120)[0].splitlines()[0] == "reference: built"
        expected = {name: (tmp_path / "serial" / "reference" / name).read_bytes()
                    for name in ("reference.csv", "reference.meta.json")}
        for trial in range(3):
            out = tmp_path / f"shared{trial}"
            runs = [start(out, method) for method in ("random", "boundary")]
            outputs = [run.communicate(timeout=120) for run in runs]
            assert [run.returncode for run in runs] == [0, 0], outputs
            built = [stdout.splitlines().count("reference: built") for stdout, _ in outputs]
            assert sorted(built) == [0, 1], outputs
            assert {path.name: path.read_bytes()
                    for path in (out / "reference").iterdir()} == expected
            assert not list(out.rglob("*.tmp"))


class TestExternalOracleConfig:
    def test_external_end_to_end_sample(self, tmp_path):
        import sys

        path = tmp_path / "ext.ini"
        snippet = ("from copysampler.oracles import HalfspaceOracle, serve_stdio; "
                   "serve_stdio(HalfspaceOracle(w=(1.0, 0.0), c=0.5))")
        path.write_text("[experiment]\nseed = 1\n"
                        f"[oracle]\nkind = external\ncommand = {sys.executable} -c \"{snippet}\"\n"
                        "[samplers]\nmethods = random\n"
                        "[evaluation]\nn_grid = 40\nreference_size = 200\n")
        cfg = load_config(path)
        oracle = cfg.oracle.build()
        try:
            assert (oracle.d, oracle.k) == (2, 2)
            ds = random_sampler(25, oracle, RandomSource(3))
            direct = ConcentricCirclesOracle((0.5, 0.5), [0.25])  # placeholder shape
            assert len(ds) == 25
        finally:
            oracle.close()


    def test_run_with_a_missing_server_command_prints_an_error(self, tmp_path, capsys):
        path = tmp_path / "ext.ini"
        missing = tmp_path / "no-such-server"
        path.write_text("[experiment]\nrepetitions = 1\n"
                        f"[oracle]\nkind = external\ncommand = {missing}\n"
                        "[samplers]\nmethods = random\n"
                        "[evaluation]\nn_grid = 40\nreference_size = 200\n")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"error: cannot start the oracle command '{missing}'" in capsys.readouterr().err


class TestTableOracleConfig:
    def test_table_with_normalization(self, tmp_path):
        rng = RandomSource(6)
        X = rng.normal((50, 2)) * 4 + 10
        y = (X[:, 0] > 10).astype(int)
        ds = SyntheticDataset(X, y, 2, "export", 0, 50)
        csv = ds.to_csv(tmp_path / "table.csv")
        path = tmp_path / "t.ini"
        path.write_text("[experiment]\nseed = 1\n"
                        f"[oracle]\nkind = table\npath = {csv}\nnormalize = true\n"
                        "[samplers]\nmethods = random\n"
                        "[evaluation]\nn_grid = 40\nreference_size = 200\n")
        oracle = load_config(path).oracle.build()
        assert oracle.d == 2
        assert oracle.k == 2
        # normalized reference data concentrates inside the unit cube
        assert np.all(oracle.X_ref.mean(axis=0) == pytest.approx(0.5, abs=1e-9))


TABLE_RUN = """
[experiment]
seed = 3
repetitions = 2

[oracle]
kind = table
path = table.csv

[samplers]
methods = random boundary

[copies]
architectures = dt

[evaluation]
n_grid = 30 60
reference_size = 200
"""


class TestTableReadOncePerRun:
    @pytest.fixture
    def table_config(self, tmp_path):
        X = RandomSource(8).normal((300, 3)) * 3 + 5
        y = (X[:, 0] + X[:, 1] > 10).astype(int)
        SyntheticDataset(X, y, 2, "export", 0, 300).to_csv(tmp_path / "table.csv")
        path = tmp_path / "t.ini"
        path.write_text(TABLE_RUN)
        return path

    @pytest.fixture
    def reads(self, monkeypatch):
        """Reads of the table through `core.load_labeled_csv`, where OracleSpec looks it up.

        Datasets and the reference set are read through the same loader;
        only the table's reads are kept.
        """
        seen = []
        load = core.load_labeled_csv

        def counted(path):
            if Path(path).name == "table.csv":
                seen.append(path)
            return load(path)

        monkeypatch.setattr(core, "load_labeled_csv", counted)
        return seen

    @staticmethod
    def fresh_oracle(table):
        X, y = load_labeled_csv(table)
        return TableOracle(fit_normalization(X).transform(X), y)

    def assert_matches_fresh_oracles(self, cfg, out, scratch):
        """Each file equals what its sampler draws from a newly built oracle."""
        table = cfg.oracle.options["path"]
        for method in cfg.methods:
            for rep in range(cfg.repetitions):
                rng = RandomSource.derive(cfg.seed, "dataset", method, rep)
                ds = timing_profile(cfg, method, cfg.n_grid, self.fresh_oracle(table),
                                    rng).dataset
                expected = ds.to_csv(scratch / f"{method}_r{rep:02d}.csv")
                got = out / "datasets" / expected.name
                assert got.read_bytes() == expected.read_bytes()
                assert (meta_path(got).read_bytes()
                        == meta_path(expected).read_bytes())
        oracle = self.fresh_oracle(table)
        ref = build_reference_set(oracle, cfg.reference_size, cfg.reference_balanced,
                                  RandomSource.derive(cfg.seed, "reference"))
        side = json.loads(meta_path(out / "reference" / "reference.csv").read_text())
        assert side["query_count"] == oracle.query_count
        np.testing.assert_array_equal(
            SyntheticDataset.from_csv(out / "reference" / "reference.csv").X, ref.X)

    def test_run_reads_the_table_once(self, table_config, reads, tmp_path):
        cfg = load_config(table_config)
        summary = run_experiment(cfg, tmp_path / "out")
        assert summary.exit_code == 0
        assert summary.datasets_computed == 4
        assert len(reads) == 1
        self.assert_matches_fresh_oracles(cfg, tmp_path / "out", tmp_path)

    def test_resumed_run_reads_the_table_once(self, table_config, reads, tmp_path):
        out = tmp_path / "out"
        run_experiment(load_config(table_config), out)
        report = (out / "report.csv").read_bytes()
        for name in ("boundary_r01.csv", "random_r00.csv"):
            (out / "datasets" / name).unlink()
        del reads[:]
        cfg = load_config(table_config)
        summary = run_experiment(cfg, out)
        assert summary.exit_code == 0
        assert summary.datasets_computed == 2
        assert summary.cells_computed == 0
        assert len(reads) == 1
        self.assert_matches_fresh_oracles(cfg, out, tmp_path)
        assert (without_wall_time((out / "report.csv").read_bytes())
                == without_wall_time(report))

    def test_builds_share_arrays_but_not_counts(self, table_config, reads):
        spec = load_config(table_config).oracle
        with spec.build() as first:
            first.query_many(RandomSource(1).uniform((7, 3)))
        with spec.build() as second:
            assert second.query_count == 0
        assert first.query_count == 7
        assert len(reads) == 1
        assert second.X_ref is first.X_ref
        assert not second.X_ref.flags.writeable and not second.y_ref.flags.writeable


# A plain-Python server for a halfspace.  It answers `limit` queries, then
# exits on the next one unless the file `flag` exists, which it then makes:
# the first server started crashes, and every later one is healthy.  A
# negative limit never crashes.
CRASH_ONCE_SERVER = """
import os, sys
limit, flag = int(sys.argv[1]), sys.argv[2]
print("HELLO 2 2", flush=True)
answered = 0
for line in sys.stdin:
    if line.strip() == "BYE":
        break
    if answered == limit and not os.path.exists(flag):
        open(flag, "w").close()
        sys.exit(3)
    print(int(float(line.split()[0]) >= 0.5), flush=True)
    answered += 1
"""

ONE_ORACLE_RUN = """
[experiment]
seed = 5
repetitions = 3

[oracle]
kind = external
command = {command}

[samplers]
methods = random

[copies]
architectures = dt

[evaluation]
n_grid = 30 60
reference_size = 200
reference_balanced = false
"""


class TestOneOraclePerRun:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Every oracle `OracleSpec.build` returns, in order."""
        built = []
        build = OracleSpec.build

        def counted(spec):
            built.append(build(spec))
            return built[-1]

        monkeypatch.setattr(OracleSpec, "build", counted)
        return built

    def test_fresh_run_builds_one_and_resume_none(self, tmp_path, builds):
        path = tmp_path / "t.ini"
        path.write_text(TOY_CONFIG.replace("repetitions = 5", "repetitions = 2")
                        .replace("methods = random boundary bayesian jacobian",
                                 "methods = random boundary"))
        out = tmp_path / "out"
        summary = run_experiment(load_config(path), out)
        assert summary.exit_code == 0 and summary.datasets_computed == 4
        assert len(builds) == 1
        # the reference's 4000 balanced rows and both methods' datasets
        assert builds[0].query_count > 4000 + 4 * 1000
        del builds[:]
        summary = run_experiment(load_config(path), out)
        assert summary.datasets_computed == 0 and summary.cells_computed == 0
        assert builds == []

    @pytest.fixture
    def closed(self, monkeypatch):
        """Every analytic oracle closed, in order."""
        closed = []
        monkeypatch.setattr(oracles.Oracle, "close", lambda self: closed.append(self))
        return closed

    def test_plot_overlay_oracle_is_closed(self, tmp_path, builds, closed):
        path = tmp_path / "t.ini"
        path.write_text(TOY_CONFIG.replace("repetitions = 5", "repetitions = 1")
                        .replace("workers = 1", "workers = 1\nplots = true")
                        .replace("methods = random boundary bayesian jacobian",
                                 "methods = random")
                        .replace("n_grid = 100 1000", "n_grid = 100"))
        out = tmp_path / "out"
        summary = run_experiment(load_config(path), out)
        assert summary.exit_code == 0 and (out / "plots" / "random.svg").exists()
        assert len(builds) == 2  # the run's oracle, then the overlay's
        assert closed == builds

    def test_sample_plots_with_an_open_oracle(self, tmp_path, monkeypatch, builds, closed,
                                              toy_config):
        from copysampler import cli

        plotted = []
        plot_2d = cli.plot_2d

        def recording_plot(ds, overlay, path):
            plotted.append(overlay is not None and overlay not in closed)
            return plot_2d(ds, overlay, path)

        monkeypatch.setattr(cli, "plot_2d", recording_plot)
        assert cli_main(["sample", "--config", str(toy_config), "--method", "boundary",
                         "--n", "60", "--seed", "3", "--out", str(tmp_path / "ds.csv"),
                         "--plot", str(tmp_path / "ds.svg")]) == 0
        assert plotted == [True]
        assert closed == builds

    def _config(self, directory, limit):
        script = directory / "server.py"
        script.write_text(CRASH_ONCE_SERVER)
        command = shlex.join([sys.executable, str(script), str(limit),
                              str(directory / "crashed")])
        path = directory / "ext.ini"
        path.write_text(ONE_ORACLE_RUN.format(command=command))
        return load_config(path)

    def test_crashed_server_fails_only_its_dataset(self, tmp_path, builds):
        clean_dir, crash_dir = tmp_path / "clean", tmp_path / "crash"
        clean_dir.mkdir()
        crash_dir.mkdir()
        clean = run_experiment(self._config(clean_dir, -1), clean_dir / "out")
        assert clean.exit_code == 0 and len(builds) == 1
        del builds[:]

        # 200 reference queries, then 60 per dataset: query 291 is mid-rep-1
        cfg = self._config(crash_dir, 290)
        summary = run_experiment(cfg, crash_dir / "out")
        assert [label for label, _ in summary.failures] == ["dataset random rep 1"]
        assert summary.datasets_computed == 2
        assert len(builds) == 2  # the crashed server, then a fresh one
        assert (crash_dir / "crashed").exists()

        def files(out):
            return sorted(p.relative_to(out) for p in out.glob("*/*")
                          if p.parent.name in ("datasets", "reference"))

        got, want = crash_dir / "out", clean_dir / "out"
        assert files(got) == [f for f in files(want) if "random_r01" not in f.name]
        for name in files(got):
            assert (got / name).read_bytes() == (want / name).read_bytes()
        cells = sorted(p.name for p in (got / "cells").glob("*.csv"))
        assert cells and all("r01" not in c for c in cells)
        for cell in cells:
            assert (without_wall_time((got / "cells" / cell).read_bytes())
                    == without_wall_time((want / "cells" / cell).read_bytes()))

        # a resume makes the missing dataset with the bytes of the clean run
        del builds[:]
        summary = run_experiment(cfg, got)
        assert summary.exit_code == 0 and summary.datasets_computed == 1
        assert len(builds) == 1
        assert files(got) == files(want)
        for name in files(got):
            assert (got / name).read_bytes() == (want / name).read_bytes()
