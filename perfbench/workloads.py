"""The benchmark's three sweep workloads and the inputs each one needs.

Every workload is one `copysampler run` with `workers = 1`.  Its inputs are
made from the workload seed alone: the same seed writes the same files.

- circles-sweep: the shipped `configs/toy-circles.ini`, unchanged.  GP
  acquisition search and logistic-regression Adam do most of the work; the
  oracle is a vectorised norm and costs almost nothing.
- table-sweep: a 1-nearest-neighbour `table` oracle over a generated table
  whose rows the seed draws.  Oracle labelling and the balanced reference build do most
  of the work; there is no GP and no Adam.
- nets-sweep: an `external` oracle (a spiral served over the wire protocol
  from a child process).  Hidden-layer Adam and predictions over the
  reference set do most of the work; every query is one lockstep round trip.
"""

from __future__ import annotations

import configparser
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("circles-sweep", "table-sweep", "nets-sweep")

# table-sweep: M rows of d raw features and k classes.
TABLE_ROWS = 10_000
TABLE_DIM = 8
TABLE_CLASSES = 3

# The table workload leaves out the jacobian sampler on purpose: with dt
# copies it can reach a split between two values one ulp apart, on which
# the tree fit never terminates (see perfbench/README.md, "Known hang").
#
# The balanced reference draws candidates in chunks of 4096.  About 27 % of
# the cube falls in the smallest class, so a quota of 8500 / 3 takes some
# 10 000 draws: the middle of the three-chunk band (8192, 12288].  With
# 10^4 the draws sat on a chunk edge, and whether a seed needed a fourth
# chunk changed the sweep's work by 15 %.
TABLE_CONFIG = """\
; table-sweep: 1-NN table oracle generated by perfbench from seed {seed}
[experiment]
name = table-sweep
seed = {seed}
repetitions = 3
workers = 1
plots = false

[oracle]
kind = table
path = table.csv
normalize = true

[samplers]
methods = random boundary

[copies]
architectures = dt

[evaluation]
n_grid = 100 1000
reference_size = 8500
reference_balanced = true
"""

NETS_CONFIG = """\
; nets-sweep: spiral oracle served over the wire protocol
[experiment]
name = nets-sweep
seed = {seed}
repetitions = 3
workers = 1
plots = false

[oracle]
kind = external
id = spiral-1.5
command = {command}

[samplers]
methods = random boundary

[copies]
architectures = ann ann2

[evaluation]
n_grid = 100 1000
reference_size = 10000
reference_balanced = false
"""


def write_table(path: Path, seed: int) -> None:
    """M rows of d raw attributes, labelled by a fixed smooth argmax rule.

    The rule and the columns' unrelated offsets and scales (so that
    `normalize = true` matters) are the same for every seed; the seed draws
    the rows.  Class shares therefore barely move between seeds, and neither
    does the work of the balanced reference build.
    """
    import numpy as np

    rule = np.random.default_rng(0x7AB1E)
    W = rule.normal(size=(TABLE_DIM, TABLE_CLASSES))
    V = rule.normal(size=(TABLE_DIM, TABLE_CLASSES))
    scale = 10.0 ** rule.uniform(-1.0, 2.0, TABLE_DIM)
    offset = rule.normal(0.0, 5.0, TABLE_DIM)
    z = np.random.default_rng(seed).normal(size=(TABLE_ROWS, TABLE_DIM))
    labels = np.argmax(z @ W + 0.5 * np.sin(2.0 * z @ V), axis=1)
    header = ",".join([f"x{i}" for i in range(TABLE_DIM)] + ["label"])
    np.savetxt(path, np.column_stack([z * scale + offset, labels]),
               fmt=["%.17g"] * TABLE_DIM + ["%d"], delimiter=",", header=header, comments="")


def prepare(workload: str, seed: int, inputs: Path) -> Path:
    """Write the workload's inputs under `inputs` and return its config path."""
    if workload == "circles-sweep":
        return Path("configs/toy-circles.ini")
    inputs.mkdir(parents=True, exist_ok=True)
    config = inputs / "config.ini"
    if workload == "table-sweep":
        table = inputs / "table.csv"
        if not table.exists():
            write_table(table.with_suffix(".tmp"), seed)
            table.with_suffix(".tmp").replace(table)
        text = TABLE_CONFIG.format(seed=seed)
    elif workload == "nets-sweep":
        command = shlex.join([sys.executable, str(HERE / "spiral_server.py")])
        text = NETS_CONFIG.format(seed=seed, command=command)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    config.write_text(text)
    return config


def expected_tasks(config: Path) -> tuple[list[str], list[tuple[str, str, int, int]]]:
    """Dataset stems and (method, arch, n, rep) cells a complete run writes."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config)
    exp = parser["experiment"]
    methods = parser["samplers"]["methods"].split()
    archs = parser["copies"]["architectures"].split()
    grid = [int(v) for v in parser["evaluation"]["n_grid"].split()]
    datasets, cells = [], []
    for method in methods:
        key = "bayesian_repetitions" if method == "bayesian" else "repetitions"
        for rep in range(int(exp.get(key, 5 if method == "bayesian" else 10))):
            datasets.append(f"{method}_r{rep:02d}")
            cells.extend((method, arch, n, rep) for arch in archs for n in grid)
    return datasets, cells
