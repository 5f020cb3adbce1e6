"""Shared domain types: the pinned random stream, labelled synthetic
datasets and their serialization, the sample ledger the samplers build
their datasets through, and the normalization / splitting plumbing used by
every other module.  Every point lives in the closed unit hypercube; the
samplers draw from it with `RandomSource.uniform`."""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
import numpy as np

# Target column statistics after normalization.
TARGET_MEAN = 0.5
TARGET_STD = 1.0 / 5.152


def check_seed(seed: int) -> int:
    """`seed` as an int; ValueError unless it lies in [0, 2**64).

    The random stream is keyed by a seed's 64 bits, so a seed outside that
    range would silently run another seed's stream.
    """
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return seed


# Rows formatted per write by `SyntheticDataset.to_csv`: the text of a block
# (some 0.17 MB at d = 8) stays small however many rows a set holds.
_CSV_BLOCK_ROWS = 1024

# Type aliases: points are plain float64 vectors, labels plain ints.
Point = np.ndarray
ClassLabel = int


class CopySamplerError(Exception):
    """Base class for every error raised by this package."""


class DegenerateColumnError(CopySamplerError):
    """A raw data column has zero spread and cannot be rescaled."""


class StratificationError(CopySamplerError):
    """A class is too small to be split into train and test portions."""


def round_half_up(x: float) -> int:
    """Nearest integer with ties rounded toward +inf.

    Single tie rule used package-wide (parameter formulas, batch sizes,
    label rounding) so that every rounding site behaves identically.
    """
    return int(math.floor(x + 0.5))


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending: np.unique's result
    without its import of numpy.ma (some 5 ms a process)."""
    v = np.sort(values)
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


class RandomSource:
    """Seeded PCG64 stream.

    The generator algorithm is pinned by name so an identical seed yields
    an identical draw sequence on every platform.  Each task
    owns its own instance; streams for sub-tasks are derived with
    :meth:`derive` rather than by sharing.
    """

    algorithm_id = "pcg64"

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @classmethod
    def derive(cls, seed: int, *parts: object) -> "RandomSource":
        """Child stream keyed by (seed, *parts), stable across runs."""
        material = ":".join([str(check_seed(seed))] + [str(p) for p in parts])
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return cls(int.from_bytes(digest[:8], "big"))

    def uniform(self, size) -> np.ndarray:
        """Uniform draws in [0, 1); `size` is an int or a shape tuple."""
        return self._gen.random(size)

    def normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def poisson(self, lam: float) -> int:
        return int(self._gen.poisson(lam))

    def integers(self, high: int) -> int:
        """One integer in [0, high)."""
        return int(self._gen.integers(high))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def subset(self, n: int, size: int) -> np.ndarray:
        """`size` distinct indices drawn uniformly from range(n)."""
        return self._gen.choice(n, size=size, replace=False)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomSource(seed={self.seed}, algorithm={self.algorithm_id})"


@dataclass(frozen=True)
class LabeledSample:
    """A point together with the hard label one oracle query produced for it."""

    point: Point
    label: ClassLabel


@dataclass
class SyntheticDataset:
    """Oracle-labelled samples in generation order plus provenance metadata.

    For the random, jacobian and bayesian samplers, the first j samples
    (:meth:`prefix`) are exactly the dataset a budget of j would have
    produced.  A boundary prefix is not: that sampler's first N/2 rows are
    uniform, so a prefix of N/2 rows or fewer holds no thread point
    (ROADMAP.md, item 1).  ``query_count`` may exceed ``len`` because some
    generators query points they discard.
    """

    X: np.ndarray
    y: np.ndarray
    k: int
    generator_id: str
    seed: int
    query_count: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        if self.X.size == 0:
            self.X = self.X.reshape(0, self.X.shape[-1] if self.X.ndim == 2 else 1)
        self.y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"point/label count mismatch: {self.X.shape[0]} != {self.y.shape[0]}"
            )
        if self.query_count < len(self.y):
            raise ValueError("query_count cannot be smaller than the sample count")

    def __len__(self) -> int:
        return int(self.y.shape[0])

    @property
    def d(self) -> int:
        return int(self.X.shape[1])

    def prefix(self, j: int) -> "SyntheticDataset":
        """Read-only views of the first j samples, same provenance metadata."""
        if not 0 <= j <= len(self):
            raise ValueError(f"prefix length {j} out of range [0, {len(self)}]")
        X, y = self.X[:j], self.y[:j]
        X.flags.writeable = y.flags.writeable = False
        return SyntheticDataset(
            X=X,
            y=y,
            k=self.k,
            generator_id=self.generator_id,
            seed=self.seed,
            query_count=self.query_count,
            metadata=dict(self.metadata),
        )

    # -- serialization -----------------------------------------------------

    def to_csv(self, path) -> Path:
        """Write samples as CSV (17 significant digits) plus a JSON sidecar.

        Both land by rename (`atomic_write`), the sidecar first, so a CSV
        always has its sidecar.
        """
        path = Path(path)
        header = ",".join([f"x{i}" for i in range(self.d)] + ["label"])
        line = ",".join(["%.17g"] * self.d + ["%d"]) + "\n"
        sidecar = {
            "generator_id": self.generator_id,
            "seed": int(self.seed),
            "query_count": int(self.query_count),
            "d": self.d,
            "k": int(self.k),
            "metadata": _jsonable(self.metadata),
        }
        with atomic_write(path) as f:
            f.write(header + "\n")
            # one %-format per block of rows: the text np.savetxt writes
            # with the same formats, without its per-row Python loop
            for start in range(0, len(self), _CSV_BLOCK_ROWS):
                rows = slice(start, start + _CSV_BLOCK_ROWS)
                block = np.column_stack([self.X[rows], self.y[rows]])
                f.write(line * len(block) % tuple(block.ravel().tolist()))
            with atomic_write(meta_path(path)) as meta:
                meta.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
        return path

    @classmethod
    def from_csv(cls, path) -> "SyntheticDataset":
        path = Path(path)
        X, y = load_labeled_csv(path)
        meta = meta_path(path)
        if meta.exists():
            side = json.loads(meta.read_text())
            return cls(X, y, int(side["k"]), side["generator_id"],
                       int(side["seed"]), int(side["query_count"]),
                       side.get("metadata", {}))
        k = int(y.max()) + 1 if len(y) else 1
        return cls(X, y, k, "unknown", 0, len(y))


# Uniform points are drawn and labelled in blocks of at most this many rows,
# so a large draw holds one block of temporaries, not a second copy of the
# whole sample.  PCG64 fills doubles in sequence, so the block size does not
# change the points.
DRAW_BLOCK = 4096


class SampleLedger:
    """The N points one run labels through `oracle`, in order, and their cost.

    Arrays of N rows are allocated once, and each addition is copied into
    the next free rows, which `X`, `y` and `dataset()` view; a row past N
    raises.  `progress`, when given, is called with the running count after
    every addition: this is where timing checkpoints come from.
    """

    def __init__(self, oracle, N: int, progress=None):
        self.oracle = oracle
        self._progress = progress
        self._queries_before = oracle.query_count
        self._X = np.empty((N, oracle.d))
        self._y = np.empty(N, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def add(self, X, y):
        """Copy in one point or a block of points the caller has already labelled."""
        X = np.atleast_2d(X)
        end = self._n + X.shape[0]
        if end > self._y.shape[0]:
            raise ValueError(f"{X.shape[0]} more rows overfill a ledger of "
                             f"{self._y.shape[0]} holding {self._n}")
        self._X[self._n:end] = X
        self._y[self._n:end] = y
        self._n = end
        if self._progress is not None:
            self._progress(end)

    def label(self, Z: np.ndarray):
        """Label the rows of Z with one `query_many` and record them all."""
        self.add(Z, self.oracle.query_many(Z))

    @property
    def X(self) -> np.ndarray:
        return self._X[:self._n]

    @property
    def y(self) -> np.ndarray:
        return self._y[:self._n]

    def dataset(self, generator_id: str, seed: int,
                metadata: dict | None = None) -> SyntheticDataset:
        """The points so far; `query_count` is every query since the ledger began."""
        return SyntheticDataset(
            X=self.X,
            y=self.y,
            k=self.oracle.k,
            generator_id=generator_id,
            seed=seed,
            query_count=self.oracle.query_count - self._queries_before,
            metadata=metadata or {},
        )


@contextmanager
def atomic_write(path):
    """A text file that replaces `path` by rename when the block ends cleanly.

    The file is written as `<name>.<pid>.tmp` beside `path`, so a run in
    another process that writes the same path never opens or renames it.
    It is removed if the block raises.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as f:
            yield f
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def meta_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".meta.json")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _is_header(line: str) -> bool:
    """True when a field of the CSV line does not parse as a float."""
    try:
        for value in line.split(","):
            float(value)
    except ValueError:
        return True
    return False


def load_labeled_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a `x0,...,x{d-1},label` CSV into (X, y) arrays.

    Every ValueError names the file: one for a label that is not a whole
    number in [0, 2**63) names the data row (0-based) that holds it too.
    """
    path = Path(path)
    with path.open() as f:
        first = f.readline()
        skip = 1 if first and _is_header(first) else 0
        if not f.readline() and skip:
            d = max(first.count(","), 1)
            return np.empty((0, d)), np.empty(0, dtype=np.int64)
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    labels = raw[:, -1]
    # NaN fails every comparison, so the negation catches it too
    bad = np.flatnonzero(~((labels >= 0) & (labels < 2.0**63) & (labels == np.floor(labels))))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0]} has the label {float(labels[bad[0]])!r}; "
                         "a label must be a whole number in [0, 2**63)")
    return raw[:, :-1].astype(np.float64), labels.astype(np.int64)


@dataclass(frozen=True)
class NormalizationTransform:
    """Per-dimension affine map x -> x*scale + shift.

    Fitted so transformed training columns have mean 0.5 and standard
    deviation 1/5.152, which places almost all of a normally distributed
    column inside the unit interval.
    """

    shift: np.ndarray
    scale: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) * self.scale + self.shift


def fit_normalization(raw: np.ndarray) -> NormalizationTransform:
    """Fit the affine normalization on an M x d matrix of raw attributes.

    Uses the population standard deviation (divide by M): the target spread
    is a distribution parameter, not a sample estimate.  Columns with zero
    spread raise: silently mapping them to the target mean would corrupt
    distance-based samplers downstream.
    """
    X = np.atleast_2d(np.asarray(raw, dtype=np.float64))
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows to fit a normalization")
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    degenerate = np.flatnonzero(sigma == 0.0)
    if degenerate.size:
        raise DegenerateColumnError(
            f"column(s) {degenerate.tolist()} have zero standard deviation"
        )
    scale = TARGET_STD / sigma
    shift = TARGET_MEAN - mu * scale
    return NormalizationTransform(shift=shift, scale=scale)


def stratified_split(
    X: np.ndarray,
    y: np.ndarray,
    fraction: float,
    rng: RandomSource,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Split (X, y) into train/test preserving per-class proportions.

    Per class the train count is round-half-up(fraction * n_c), clamped to
    [1, n_c - 1] so both sides keep at least one sample of every class;
    this stays within one sample of the exact proportion.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls in distinct_sorted(y):
        members = np.flatnonzero(y == cls)
        n_c = members.size
        if n_c < 2:
            raise StratificationError(
                f"class {int(cls)} has {n_c} sample(s); need at least 2 to stratify"
            )
        order = members[rng.permutation(n_c)]
        n_train = min(max(round_half_up(fraction * n_c), 1), n_c - 1)
        train_idx.append(order[:n_train])
        test_idx.append(order[n_train:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    return (X[tr], y[tr]), (X[te], y[te])
