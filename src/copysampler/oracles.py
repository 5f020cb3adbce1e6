"""Hard-label membership-query oracles.

The oracle is the only view of the model being copied: it maps a point to a
class index and exposes nothing else (no confidences, no gradients).  This
module provides closed-form toy classifiers whose true decision boundary a
plot can draw, a 1-nearest-neighbour table oracle for copying arbitrary
exported models, and a client/server pair for a newline-delimited wire
protocol so models in other processes (or languages) can be queried.
"""

from __future__ import annotations

import math
import os
import select
import sys
import time
from typing import IO, Sequence

import numpy as np

from .core import CopySamplerError, Point, distinct_sorted


class UnsupportedOracleError(CopySamplerError):
    """The requested operation needs an analytic oracle."""


class ProtocolError(CopySamplerError):
    """A wire-protocol message was malformed."""


class QueryTransportError(CopySamplerError):
    """The transport to an external oracle failed; callers must abort."""


class Oracle:
    """Black-box classifier surface: hard labels only, one query counter.

    `query` must be deterministic (same point, same label).  The counter is
    the cost model for sampling budgets, so every label obtained from the
    underlying model passes through `query`/`query_many`.  A subclass
    implements `_label_many(X)`, the labels of the rows of an (n, d) array;
    `query` labels one row of it.  Every oracle is a context manager; `close`
    releases what it holds (a child process, for an external oracle).
    """

    def __init__(self, d: int, k: int):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.d = int(d)
        self.k = int(k)
        self._queries = 0

    @property
    def query_count(self) -> int:
        return self._queries

    def query(self, z: Point) -> int:
        """The label of one point; counts one query."""
        z = np.asarray(z, dtype=np.float64)
        self._check_row(z.shape)
        self._queries += 1
        return int(self._label_one(z))

    def query_many(self, X: np.ndarray) -> np.ndarray:
        """Labels for each row of X; counts one query per row."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        self._check_row(X.shape[1:])
        self._queries += X.shape[0]
        return self._label_many(X).astype(np.int64)

    def _check_row(self, shape):
        if shape != (self.d,):
            raise ValueError(f"points of shape {shape}, oracle wants ({self.d},)")

    def _label_one(self, z: np.ndarray) -> int:
        # override only where one row has a measurably faster path
        return self._label_many(z[None, :])[0]

    def _label_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class AnalyticOracle(Oracle):
    """Closed-form classifier; `boundary_curves` traces its true boundary for plots."""

    def boundary_curves(self, n: int = 512) -> list[np.ndarray]:
        """Polylines tracing the decision boundary (2-D variants only)."""
        raise UnsupportedOracleError(
            f"{type(self).__name__} has no 2-D boundary curve"
        )


class HalfspaceOracle(AnalyticOracle):
    """Linear binary classifier: label 1 iff w . z >= c."""

    def __init__(self, w: Sequence[float], c: float):
        w = np.asarray(w, dtype=np.float64)
        super().__init__(d=w.size, k=2)
        self.w = w
        self.c = float(c)
        if float(np.linalg.norm(w)) == 0.0:
            raise ValueError("weight vector must be nonzero")

    def _label_many(self, X):
        return (X @ self.w >= self.c).astype(np.int64)

    def boundary_curves(self, n: int = 512):
        if self.d != 2:
            return super().boundary_curves(n)
        pts = []
        a, b = self.w
        for x in (0.0, 1.0):
            if b != 0.0:
                y = (self.c - a * x) / b
                if -1e-9 <= y <= 1 + 1e-9:
                    pts.append((x, min(max(y, 0.0), 1.0)))
        for y in (0.0, 1.0):
            if a != 0.0:
                x = (self.c - b * y) / a
                if -1e-9 <= x <= 1 + 1e-9:
                    pts.append((min(max(x, 0.0), 1.0), y))
        uniq = sorted(set(pts))
        if len(uniq) < 2:
            return []
        return [np.array([uniq[0], uniq[-1]])]


class ConcentricCirclesOracle(AnalyticOracle):
    """Concentric rings around a center; label = number of radii crossed."""

    def __init__(self, center: Sequence[float], radii: Sequence[float]):
        center = np.asarray(center, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64)
        if radii.size == 0 or np.any(np.diff(radii) <= 0) or radii[0] <= 0:
            raise ValueError("radii must be ascending positive values")
        super().__init__(d=center.size, k=radii.size + 1)
        self.center = center
        self.radii = radii

    def _label_many(self, X):
        # np.linalg.norm's formula for real rows, bit for bit, without its
        # per-call checks, which cost about 2 us of a one-row query
        D = X - self.center
        r = np.sqrt((D * D).sum(axis=1))
        return np.searchsorted(self.radii, r, side="right").astype(np.int64)

    def boundary_curves(self, n: int = 512):
        if self.d != 2:
            return super().boundary_curves(n)
        theta = np.linspace(0.0, 2 * math.pi, n + 1)
        return [
            np.column_stack([
                self.center[0] + r * np.cos(theta),
                self.center[1] + r * np.sin(theta),
            ])
            for r in self.radii
        ]


class CheckerboardOracle(AnalyticOracle):
    """Axis-aligned checkerboard: label = parity of the cell index sum."""

    def __init__(self, cells_per_dim: int, d: int = 2):
        if cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")
        super().__init__(d=d, k=2)
        self.cells = int(cells_per_dim)

    def _cell_indices(self, X):
        idx = np.floor(X * self.cells).astype(np.int64)
        return np.minimum(idx, self.cells - 1)

    def _label_many(self, X):
        return (self._cell_indices(X).sum(axis=1) % 2).astype(np.int64)

    def boundary_curves(self, n: int = 512):
        if self.d != 2:
            return super().boundary_curves(n)
        curves = []
        for j in range(1, self.cells):
            t = j / self.cells
            curves.append(np.array([[t, 0.0], [t, 1.0]]))
            curves.append(np.array([[0.0, t], [1.0, t]]))
        return curves


class Spiral2DOracle(AnalyticOracle):
    """Two interleaved spiral arms around the center (2-D, binary).

    The boundary consists of two Archimedean arms whose angle grows
    linearly with the radius; `turns` is the number of full rotations a
    boundary arm makes between the center and radius 0.5.
    """

    _R_REF = 0.5
    _R_MAX = math.sqrt(2.0) / 2.0  # center-to-corner radius

    def __init__(self, turns: float, center: Sequence[float] = (0.5, 0.5)):
        center = np.asarray(center, dtype=np.float64)
        if center.size != 2:
            raise ValueError("spiral oracle is 2-D only")
        if turns <= 0:
            raise ValueError("turns must be positive")
        super().__init__(d=2, k=2)
        self.turns = float(turns)
        self.center = center

    def _arm_angle(self, r):
        return 2 * math.pi * self.turns * r / self._R_REF

    def _label_many(self, X):
        dz = X - self.center
        r = np.linalg.norm(dz, axis=1)
        phi = np.arctan2(dz[:, 1], dz[:, 0])
        delta = np.mod(phi - self._arm_angle(r), 2 * math.pi)
        return (delta >= math.pi).astype(np.int64)

    def _arm_points(self, t, phase):
        ang = self._arm_angle(t) + phase
        return np.column_stack([
            self.center[0] + t * np.cos(ang),
            self.center[1] + t * np.sin(ang),
        ])

    def boundary_curves(self, n: int = 512):
        t = np.linspace(0.0, self._R_MAX, n)
        return [self._arm_points(t, 0.0), self._arm_points(t, math.pi)]


class TableOracle(Oracle):
    """1-nearest-neighbour rule over an exported labelled reference table.

    A point gets the label of the row with the smallest squared Euclidean
    distance `((X_ref - z) ** 2).sum(axis=1)`; ties go to the lowest row
    index, which makes the rule deterministic for any input.  The classes
    are 0 .. k-1, with k the largest label + 1, and each must label some
    row.  Rows holding NaN or +-inf, or values whose squares overflow, are
    rejected.  Queries are ranked in chunks of at most 2**16 query-row
    pairs (one query when M is larger), so memory stays O(M*d) however many
    points are labelled at once.  A one-row query within `_NEAR_RADIUS` of
    the last one ranked over the whole table is ranked over the rows that
    can be nearest there, with the same labels.
    """

    # 512 kB of float64 per chunk: with the (d + 1, M) table (720 kB at
    # M = 10**4, d = 8) it stays in a 2 MB L2 cache.  On a 2-vCPU Xeon with
    # 2 MB of L2 per core, M = 10**4 rows labelled a query in 11-12 us,
    # against 13-15 us with chunks of 2**17 pairs and 15-16 us with 2**18.
    _CHUNK_PAIRS = 1 << 16

    def __init__(self, X_ref: np.ndarray, y_ref: np.ndarray):
        X_ref = np.atleast_2d(np.asarray(X_ref, dtype=np.float64))
        y_ref = np.asarray(y_ref, dtype=np.int64).reshape(-1)
        if X_ref.shape[0] == 0 or X_ref.shape[0] != y_ref.shape[0]:
            raise ValueError("reference table must be non-empty and consistent")
        if y_ref.min() < 0:
            raise ValueError(f"reference table row {np.argmax(y_ref < 0)} has the "
                             f"negative label {y_ref.min()}")
        # not np.bincount, which would let a stray huge label size an array
        classes = distinct_sorted(y_ref)
        if classes[-1] != classes.size - 1:
            missing = int(np.argmax(classes != np.arange(classes.size)))
            raise ValueError(f"no reference table row has the label {missing}, "
                             f"though the labels run up to {classes[-1]}")
        with np.errstate(over="ignore"):
            sq_norms = (X_ref ** 2).sum(axis=1)
        bad = np.flatnonzero(~np.isfinite(sq_norms))
        if bad.size:
            raise ValueError(f"reference table row {bad[0]} holds NaN or inf, "
                             "or values whose squares overflow")
        super().__init__(d=X_ref.shape[1], k=classes.size)
        self.X_ref = X_ref
        self.y_ref = y_ref
        # C-contiguous (d + 1, M): -2 X_ref^T over the squared row norms.  A
        # query extended by a 1 gets h = |r|^2 - 2 q.r from one product, and
        # the first d rows make a single query one gemv over long rows, 20 us
        # against 35-45 us through the transposed view for M = 10**4 and
        # d = 8 on a 2-vCPU Xeon.
        self._table = np.empty((X_ref.shape[1] + 1, X_ref.shape[0]))
        self._table[:-1] = (-2.0 * X_ref).T
        self._table[-1] = sq_norms
        self._max_sq_norm = float(sq_norms.max())
        self._rows = np.arange(X_ref.shape[0])
        # (centre, rows, their columns of _table): the rows that can be
        # nearest to any point within _NEAR_RADIUS of the centre
        self._near = None

    def _label_one(self, z):
        # _label_many's ranking for one query, without its per-chunk
        # indexing.  One-row queries come in runs a short step apart (a
        # boundary thread's probes, a bisection's midpoints), so a query
        # close to the last one ranked over the whole table is ranked over
        # the rows kept near that one.
        near = self._near
        hit = False
        if near is not None:
            dz = z - near[0]
            hit = dz @ dz <= self._NEAR_RADIUS ** 2
        _, rows, table = near if hit else (None, self._rows, self._table)
        h = z @ table[:-1]
        h += table[-1]
        best = int(h.argmin())
        sq = z @ z
        margin = 1e-9 * (sq + self._max_sq_norm)
        limit = h[best] + margin
        if not hit:
            self._near = self._neighbourhood(z, h, h[best] + sq + margin, margin - sq)
        h[best] = np.inf
        if h.min() <= limit:
            return self.y_ref[self._rescore(
                z, rows[np.union1d(np.flatnonzero(h <= limit), best)])]
        return self.y_ref[rows[best]]

    # Radius, in query units, of the neighbourhood `_label_one` keeps rows
    # for.  On table-sweep's one-row queries (M = 10**4, d = 8, normalised;
    # 2-vCPU Xeon, BLAS on one thread) 0.1 kept some 200 rows, 94 % of the
    # queries fell within it at 8-9 us each, and the rest took 40-43 us,
    # keeping rows included: 0.15 s in all against 0.30 s over the whole
    # table every time.
    _NEAR_RADIUS = 0.1

    def _neighbourhood(self, c, h, top, shift):
        """(c, rows, their columns) for the rows that can be nearest near c.

        `h` is c's full ranking, `top` = min h + |c|^2 + margin bounds c's
        squared distance to its nearest row n from above, and `shift` is
        margin - |c|^2.  For |z - c| <= rho and a row r with
        |c - r| > t + 2 rho + eta, t >= |c - n|, the triangle inequality
        gives |z - r| > |z - n| + eta: r is farther from z than n by 10**-6
        of their distances, more than rounding can hide, so z's brute-force
        argmin is a kept row.  A row is dropped only when h + |c|^2 exceeds
        (t + 2 rho + eta)^2 by more than the margin, which covers the
        rounding of h.  None when the rows would not cut the work by four.
        """
        t = math.sqrt(max(0.0, top))
        rho = self._NEAR_RADIUS * (1.0 + 1e-6)
        reach = t + 2.0 * rho + 1e-6 * (t + rho)
        rows = np.flatnonzero(h <= reach * reach + shift)
        if rows.size == 0 or 4 * rows.size > h.size:  # no rows: z held NaN
            return None
        return c.copy(), rows, self._table[:, rows]

    def _rescore(self, q, rows):
        """The exact formula's argmin over `rows`, ascending row indices."""
        d2 = ((self.X_ref[rows] - q) ** 2).sum(axis=1)
        return rows[np.argmin(d2)]

    def _label_many(self, X):
        out = np.empty(X.shape[0], dtype=np.int64)
        step = max(1, self._CHUNK_PAIRS // self.X_ref.shape[0])
        # a chunk's queries, each extended by a 1
        ext = np.ones((min(step, X.shape[0]), self.d + 1))
        for start in range(0, X.shape[0], step):
            Q = X[start:start + step]
            ext_q = ext[:Q.shape[0]]
            ext_q[:, :-1] = Q
            # h = |r|^2 - 2 q.r is the squared distance minus |q|^2, so it
            # ranks rows like the distance does, at one matrix product.
            h = ext_q @ self._table
            best = h.argmin(axis=1)
            # Rounding moves each formula's value by at most about
            # 3 (d + 3) 2**-53 (|q|^2 + |r|^2): the dot-product error bound,
            # which holds for any BLAS summation order, for h (d + 1 terms,
            # one of them the rounded |r|^2), and the bound for summed
            # squared differences for the exact formula.
            # So the exact formula's minimum, and every row tied with it,
            # has an h within twice the sum of both errors of the smallest
            # h.  For d below 10**5 that is below the margin (the table's
            # squared norms are finite), and re-scoring the candidates with
            # the exact formula gives the brute-force argmin.
            idx = np.arange(Q.shape[0])
            limit = h[idx, best] + 1e-9 * ((Q ** 2).sum(axis=1) + self._max_sq_norm)
            h[idx, best] = np.inf  # the runner-up tells whether to re-score
            for i in np.flatnonzero(h.min(axis=1) <= limit):
                best[i] = self._rescore(
                    Q[i], np.union1d(np.flatnonzero(h[i] <= limit[i]), best[i]))
            out[start:start + step] = self.y_ref[best]
        return out


# -- newline-delimited wire protocol ----------------------------------------
#
# Server greeting:   HELLO <d> <k>\n
# Client request:    <d space-separated decimal floats>\n
# Server response:   <integer label in [0, k-1]>\n
# Client shutdown:   BYE\n
#
# Every request receives exactly one response, in request order.  The client
# may send several requests before reading their responses (pipelining), so
# a server must answer in order.  It may answer line by line, or, as
# `serve_oracle` does, every whole request that one read brings at once.

def parse_handshake(line: str) -> tuple[int, int]:
    """Parse the `HELLO <d> <k>` greeting; raise ProtocolError otherwise."""
    stripped = line.strip()
    parts = stripped.split()
    if len(parts) != 3 or parts[0] != "HELLO":
        raise ProtocolError(f"malformed handshake line: {line!r}")
    try:
        d, k = int(parts[1]), int(parts[2])
    except ValueError:
        raise ProtocolError(f"non-integer handshake fields: {line!r}") from None
    if d < 1 or k < 1:
        raise ProtocolError(f"handshake out of range (d >= 1, k >= 1): {line!r}")
    return d, k


# Seconds a child oracle gets to exit after BYE before it is killed.
CLOSE_GRACE_S = 10.0

# Longest wait, in seconds, between two checks whether a closed child has
# exited.
_EXIT_POLL_S = 0.05

# Seconds to wait for the greeting or for a label before giving up.
QUERY_TIMEOUT_S = 120.0

# Most request text one pipelined window sends: one page, the smallest pipe
# buffer Linux allocates, so a window always fits in a drained pipe.
_WINDOW_BYTES = 4096

# One coordinate of a request: 17 significant digits read back exactly.
_REQUEST_FIELD = "{:.17g}".format


def _readable(fd: int, timeout: float) -> bool:
    """Whether a read of `fd` would not block within `timeout` seconds.

    A descriptor at end of stream is readable.  `poll` takes descriptors of
    any number, where `select` refuses those of 1024 and above.
    """
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    return bool(poller.poll(timeout * 1000))


class _LineReader:
    """Whole lines from a transport, one raw read at a time.

    A stream with a descriptor is read with `os.read` into a buffer of our
    own.  The client waits at most QUERY_TIMEOUT_S for each whole line, so a
    reply that stops half-way through its line times out like one that never
    starts, and a whole line costs one `poll` and one read.  The server
    takes every whole line that one read brings.  Readers with no
    descriptor, such as StringIO, are read a line at a time, with no wait.
    Bytes already in the stream's own buffers are not seen, so the stream
    must not have been read from before.
    """

    def __init__(self, stream: IO[str]):
        self._stream = stream
        try:
            self._fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            self._fd = None
        self._buffer = b""

    def _read(self, timeout: float | None = None) -> bool:
        """Add one read to the buffer; False at end of stream."""
        if self._fd is None:
            chunk = self._stream.readline().encode()
        else:
            if timeout is not None and not _readable(self._fd, timeout):
                raise QueryTransportError(
                    f"no reply from the oracle within {QUERY_TIMEOUT_S:g} s")
            chunk = os.read(self._fd, 65536)
        self._buffer += chunk
        return bool(chunk)

    def readline(self) -> str:
        """The next line with its newline, within QUERY_TIMEOUT_S; "" at end of stream.

        A stream that ends part-way through a line raises
        QueryTransportError: a reply cut off there is not a reply.
        """
        deadline = time.monotonic() + QUERY_TIMEOUT_S
        while b"\n" not in self._buffer:
            if not self._read(max(0.0, deadline - time.monotonic())):
                if self._buffer:
                    raise QueryTransportError(
                        f"transport closed part-way through the line {_text(self._buffer)}")
                return ""
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode() + "\n"

    def lines(self) -> list[bytes] | None:
        """The whole lines one read brings, without newlines; None at end of stream.

        A partial last line stays in the buffer for the next read.  At end
        of stream, what is left comes as one last line.
        """
        if self._read():
            *lines, self._buffer = self._buffer.split(b"\n")
            return lines
        if not self._buffer:
            return None
        last, self._buffer = self._buffer, b""
        return [last]


def _text(line: bytes) -> str:
    """A line of the transport, quoted for an error message."""
    return repr(line.decode(errors="replace"))


class ExternalOracle(Oracle):
    """Client for a model served over the wire protocol.

    A block of rows is sent in windows: each window's requests go out in one
    write, then its labels are read back in order, each within
    QUERY_TIMEOUT_S.  A window holds at most _WINDOW_BYTES of request text,
    and always at least one row.  Every earlier label has been read before a
    window is written, so the server has read every earlier request, and a
    window of one page fits in the drained pipe without blocking.  A single
    request longer than a page goes alone, and its write waits only for the
    server to read its line.

    Transport failures raise QueryTransportError so samplers abort instead
    of fabricating labels.  Once a block has failed, labels may still be in
    flight, so every later query raises QueryTransportError without writing.
    """

    def __init__(self, reader: IO[str], writer: IO[str]):
        self._lines = _LineReader(reader)
        greeting = self._lines.readline()
        if not greeting:
            raise ProtocolError("transport closed before handshake")
        super().__init__(*parse_handshake(greeting))
        self._reader = reader
        self._writer = writer
        self._proc = None  # the subprocess.Popen of a spawned server
        self._failed: str | None = None  # why a block failed, once one has

    @classmethod
    def spawn(cls, command: Sequence[str]) -> "ExternalOracle":
        """Start `command` as a child process and attach over its pipes."""
        # imported here, not at the top: a server or an in-process oracle
        # never spawns, and the import costs 2-3 ms of a fresh process
        import subprocess

        try:
            proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise QueryTransportError(
                f"cannot start the oracle command {' '.join(command)!r}: "
                f"{exc.strerror or exc}") from exc
        try:
            oracle = cls(proc.stdout, proc.stdin)
        except Exception:
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
            raise
        oracle._proc = proc
        return oracle

    def _label_many(self, X):
        if self._failed is not None:
            raise QueryTransportError(
                f"the oracle failed earlier and may still owe labels: {self._failed}")
        try:
            return self._pipelined(X)
        except BaseException as exc:
            self._failed = f"{type(exc).__name__}: {exc}"
            raise

    def _pipelined(self, X):
        labels = np.empty(X.shape[0], dtype=np.int64)
        window, size, sent = [], 0, 0
        for z in X:  # each row is formatted only as its window fills
            request = " ".join(map(_REQUEST_FIELD, z.tolist())) + "\n"
            if window and size + len(request) > _WINDOW_BYTES:
                sent = self._exchange(window, labels, sent)
                window, size = [], 0
            window.append(request)
            size += len(request)
        if window:
            self._exchange(window, labels, sent)
        return labels

    def _exchange(self, window, labels, start) -> int:
        """Send a window in one write, read its labels into `labels[start:]`."""
        try:
            self._writer.write("".join(window))
            self._writer.flush()
        except (OSError, ValueError) as exc:
            raise QueryTransportError(f"transport failed mid-query: {exc}") from exc
        end = start + len(window)
        for i in range(start, end):
            labels[i] = self._read_label()
        return end

    def _read_label(self) -> int:
        try:
            line = self._lines.readline()
        except (OSError, ValueError) as exc:
            raise QueryTransportError(f"transport failed mid-query: {exc}") from exc
        if not line:
            raise QueryTransportError("transport closed while awaiting a label")
        try:
            label = int(line.strip())
        except ValueError:
            raise ProtocolError(f"malformed label line: {line!r}") from None
        if not 0 <= label < self.k:
            raise ProtocolError(f"label {label} outside [0, {self.k - 1}]")
        return label

    def close(self):
        try:
            self._writer.write("BYE\n")
            self._writer.flush()
        except (OSError, ValueError):
            pass
        try:
            self._writer.close()
        except OSError:
            pass
        if self._proc is not None and self._proc.returncode is None:
            self._await_exit()
        try:
            self._reader.close()
        except OSError:
            pass

    def _await_exit(self):
        """Reap the child, killed if it still runs CLOSE_GRACE_S after BYE.

        The child's stdout ends as it exits, and a poll on it wakes then.
        `Popen.wait` alone polls with sleeps that double from 0.5 ms, so a
        child that took 16 ms to exit was reaped at 31.5 ms.  Each poll
        waits at most _EXIT_POLL_S, so a child whose stdout another process
        still holds is reaped within that of its exit, and output the child
        keeps writing is drained only until the deadline.
        """
        import subprocess  # loaded already: only `spawn` sets a child

        deadline = time.monotonic() + CLOSE_GRACE_S
        fd = self._lines._fd
        while fd is not None and self._proc.poll() is None:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            try:  # drain labels still in flight after a failed block
                if _readable(fd, min(left, _EXIT_POLL_S)) and not os.read(fd, 65536):
                    fd = None
            except (OSError, ValueError):
                fd = None
        try:
            self._proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()


def serve_oracle(oracle: Oracle, reader: IO[str], writer: IO[str]) -> int:
    """Serve `oracle` over the wire protocol until BYE or EOF.

    Each read takes every whole request that has arrived, without waiting
    for more: they are labelled by one `query_many` and answered in one
    write and one flush.  A lone request goes through `query`, so an
    oracle's one-row path (a table's kept neighbourhood) still serves it.
    Returns the number of queries answered.  A malformed request, or one
    with a coordinate that is not finite, raises ProtocolError once the
    requests before it are answered; the connection is then abandoned.

    A reader with a descriptor is read through it, below the stream's own
    buffers, so it must not have been read from before.
    """
    writer.write(f"HELLO {oracle.d} {oracle.k}\n")
    writer.flush()

    def answer(rows) -> int:
        if rows:
            if len(rows) == 1:
                labels = [oracle.query(rows[0])]
            else:
                labels = oracle.query_many(np.array(rows)).tolist()
            writer.write("\n".join(map(str, labels)) + "\n")
            writer.flush()
        return len(rows)

    lines = _LineReader(reader)
    answered = 0
    while (batch := lines.lines()) is not None:
        rows = []
        for line in batch:
            fields = line.split()
            if fields == [b"BYE"]:
                return answered + answer(rows)
            try:
                rows.append(_request(line, fields, oracle.d))
            except ProtocolError:
                answer(rows)
                raise
        answered += answer(rows)
    return answered


def _request(line: bytes, fields: list[bytes], d: int) -> list[float]:
    """The d coordinates of a request line split into `fields`.

    Raises ProtocolError if the line is not a request.
    """
    if len(fields) != d:
        raise ProtocolError(f"expected {d} coordinates, got {len(fields)}: {_text(line)}")
    try:
        row = list(map(float, fields))
    except ValueError:
        raise ProtocolError(f"non-numeric coordinate in request: {_text(line)}") from None
    if not all(map(math.isfinite, row)):
        raise ProtocolError(f"non-finite coordinate in request: {_text(line)}")
    return row


def serve_stdio(oracle: Oracle) -> int:
    """Serve on stdin/stdout; convenience for child-process oracles."""
    return serve_oracle(oracle, sys.stdin, sys.stdout)
