"""Fidelity metrics, reference-set construction, and method comparison.

Fidelity always takes the oracle's hard labels as ground truth: the plain
empirical error is the disagreement fraction, and the balanced variant
averages per-class agreement first so under-represented classes weigh
equally.  A value of 0 means a perfect copy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import TrainConfig
from .copies import train
from .core import (
    DRAW_BLOCK, CopySamplerError, RandomSource, SampleLedger, SyntheticDataset,
    atomic_write,
)
from .oracles import Oracle


class MissingClassError(CopySamplerError):
    """A class required by the balanced metric is absent from the set."""


class ComparisonError(CopySamplerError):
    """Reports being compared do not cover the same evaluation grid."""


@dataclass(frozen=True)
class RunRecord:
    """One CSV report row: a single (method, arch, N, seed) evaluation."""

    oracle: str
    method: str
    arch: str
    n: int
    seed: int
    r_f: float
    r_fb: float
    wall_time_s: float


def _scored_labels(preds, y_oracle) -> tuple[np.ndarray, np.ndarray]:
    preds = np.asarray(preds).reshape(-1)
    y_oracle = np.asarray(y_oracle, dtype=np.int64).reshape(-1)
    if preds.shape != y_oracle.shape:
        raise ValueError(f"{preds.size} predictions for {y_oracle.size} oracle labels")
    return preds, y_oracle


def empirical_fidelity_error(preds: np.ndarray, y_oracle: np.ndarray) -> float:
    """Disagreement fraction between a copy's predictions and the oracle labels."""
    preds, y_oracle = _scored_labels(preds, y_oracle)
    if y_oracle.size == 0:
        raise ValueError("cannot score an empty set")
    return float(np.mean(preds != y_oracle))


def balanced_empirical_fidelity_error(preds: np.ndarray, y_oracle: np.ndarray, k: int) -> float:
    """One minus the mean per-class agreement rate of a copy's predictions.

    Every class in [0, k) must be present among the oracle labels,
    otherwise its agreement rate is undefined.
    """
    preds, y = _scored_labels(preds, y_oracle)
    rates = np.empty(k)
    for cls in range(k):
        mask = y == cls
        if not mask.any():
            raise MissingClassError(f"class {cls} is absent from the reference set")
        rates[cls] = np.mean(preds[mask] == cls)
    return float(1.0 - rates.mean())


def fidelity(model, X: np.ndarray, y_oracle: np.ndarray, k: int) -> tuple[float, float]:
    """(R_F, R_Fb) of a copy against the oracle labels of X, from one prediction."""
    preds = model.predict_many(X)
    # through the module globals, which perfbench's tracer wraps
    return (empirical_fidelity_error(preds, y_oracle),
            balanced_empirical_fidelity_error(preds, y_oracle, k))


def build_reference_set(
    oracle: Oracle,
    L: int,
    balanced: bool,
    rng: RandomSource,
) -> SyntheticDataset:
    """Uniform oracle-labelled points; balanced via per-class rejection.

    The set is a `SyntheticDataset` with generator id "reference", the
    queries it spent, and metadata `balanced` and `complete`.  Balanced
    quotas are ceil(L/k) for the first L mod k classes and floor(L/k) for
    the rest.  If some quota cannot be filled within 100 L drawn points the
    partial set is returned with `complete=False`.
    """
    if L < 1:
        raise ValueError("L must be positive")
    if balanced and L < oracle.k:
        raise ValueError("balanced reference needs at least one point per class")
    d, k = oracle.d, oracle.k
    if balanced:
        base, extra = divmod(L, k)
        quotas = np.full(k, base, dtype=np.int64)
        quotas[:extra] += 1
        max_attempts = 100 * L
    else:  # every draw is kept, so L draws fill the set
        quotas = np.full(k, L, dtype=np.int64)
        max_attempts = L
    ledger = SampleLedger(oracle, L)
    counts = np.zeros(k, dtype=np.int64)
    attempts = 0
    while attempts < max_attempts and len(ledger) < L:
        chunk = min(DRAW_BLOCK, max_attempts - attempts)
        Xc = rng.uniform((chunk, d))
        yc = oracle.query_many(Xc)
        attempts += chunk
        # a row's 1-based rank among the chunk's rows of its class; the
        # first quota - count of each class are kept.  Balanced quotas sum
        # to L, so every quota is full once L rows are kept, and no later
        # row is; a plain chunk never outgrows the rows still free.
        rank = np.cumsum(yc[:, None] == np.arange(k), axis=0)[np.arange(chunk), yc]
        keep = rank <= quotas[yc] - counts[yc]
        ledger.add(Xc[keep], yc[keep])
        counts += np.bincount(yc[keep], minlength=k)
    return ledger.dataset("reference", rng.seed,
                          {"complete": len(ledger) == L, "balanced": balanced})


def quality_checks(
    ref: SyntheticDataset,
    original_train: tuple[np.ndarray, np.ndarray],
    arch: str,
    cfg: TrainConfig | None = None,
) -> tuple[float, float]:
    """Refit `arch` on the reference set and score it twice.

    Returns the balanced error on the reference set itself and on the
    supplied original training data (whose labels are taken as given, so
    pass oracle labels to measure fidelity).
    """
    model = train(arch, ref, cfg or TrainConfig())
    _, on_ref = fidelity(model, ref.X, ref.y, ref.k)
    _, on_original = fidelity(model, *original_train, ref.k)
    return on_ref, on_original


def compare_methods(
    records: Iterable[RunRecord],
    tie_margin: float = 0.01,
) -> dict[tuple[str, str], tuple[int, int, int]]:
    """Victory/tie/loss counts of median balanced errors over shared cells.

    A cell is one (oracle, arch, N) combination.  Each method's report rows
    of a cell, one per repetition, are reduced to their median R_Fb; the
    method with the smaller median wins the cell unless the difference is
    within `tie_margin`.  All methods must cover an identical cell grid.
    """
    runs: dict[str, dict[tuple[str, str, int], list[float]]] = {}
    for r in records:
        runs.setdefault(r.method, {}).setdefault((r.oracle, r.arch, r.n), []).append(r.r_fb)
    cells = {method: {cell: float(np.median(r_fb)) for cell, r_fb in by_cell.items()}
             for method, by_cell in runs.items()}
    methods = sorted(cells)
    if len(methods) < 2:
        raise ComparisonError("need at least two methods to compare")
    grid = set(cells[methods[0]])
    for method in methods[1:]:
        if set(cells[method]) != grid:
            raise ComparisonError(
                f"method {method!r} does not cover the same (oracle, arch, N) grid"
            )
    matrix: dict[tuple[str, str], tuple[int, int, int]] = {}
    for a in methods:
        for b in methods:
            if a == b:
                continue
            wins = ties = losses = 0
            for cell in grid:
                delta = cells[a][cell] - cells[b][cell]
                if abs(delta) <= tie_margin:
                    ties += 1
                elif delta < 0:
                    wins += 1
                else:
                    losses += 1
            matrix[(a, b)] = (wins, ties, losses)
    return matrix


# -- report persistence -------------------------------------------------------

REPORT_HEADER = ["oracle", "method", "arch", "N", "seed", "R_F", "R_Fb", "wall_time_s"]
COMPARISON_HEADER = ["method_a", "method_b", "victories", "ties", "losses"]


def format_report_row(rec: RunRecord) -> list[str]:
    return [
        rec.oracle,
        rec.method,
        rec.arch,
        str(rec.n),
        str(rec.seed),
        f"{rec.r_f:.17g}",
        f"{rec.r_fb:.17g}",
        f"{rec.wall_time_s:.6f}",
    ]


def write_report_csv(records: Sequence[RunRecord], path) -> Path:
    """Write report rows, quoted as CSV needs, to `path` by rename (`atomic_write`)."""
    with atomic_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for rec in records:
            writer.writerow(format_report_row(rec))
    return Path(path)


def read_report_csv(path) -> list[RunRecord]:
    """The rows of a report CSV; ValueError if its header lacks a column."""
    records = []
    with Path(path).open(newline="") as f:
        reader = csv.DictReader(f)
        missing = [c for c in REPORT_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: the report header lacks {', '.join(missing)}")
        for row in reader:
            records.append(
                RunRecord(
                    oracle=row["oracle"],
                    method=row["method"],
                    arch=row["arch"],
                    n=int(row["N"]),
                    seed=int(row["seed"]),
                    r_f=float(row["R_F"]),
                    r_fb=float(row["R_Fb"]),
                    wall_time_s=float(row["wall_time_s"]),
                )
            )
    return records


def write_comparison_csv(
    matrix: Mapping[tuple[str, str], tuple[int, int, int]], path
) -> Path:
    """Write the matrix to `path` by rename (`atomic_write`)."""
    with atomic_write(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(COMPARISON_HEADER)
        for (a, b), (wins, ties, losses) in sorted(matrix.items()):
            writer.writerow([a, b, str(wins), str(ties), str(losses)])
    return Path(path)
