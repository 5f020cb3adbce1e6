"""Copy models trained on oracle-labelled synthetic data.

Four architectures: multinomial logistic regression ("lr"), a CART decision
tree ("dt"), a one-hidden-layer network of 5 rectified units ("ann") and a
deeper 3 x 50 network ("ann2").  Networks use a softmax output trained with
cross-entropy and per-parameter adaptive step scaling; the tree uses binary
single-feature splits on Gini impurity with unlimited depth by default,
since a copy benefits from maximal capacity.  Training is deterministic
given the config seed, and the public surface exposes hard labels only.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field, replace as dc_replace
from functools import reduce
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ARCHITECTURES, TrainConfig
from .core import CopySamplerError, RandomSource, SyntheticDataset

_HIDDEN_LAYERS = {"lr": (), "ann": (5,), "ann2": (50, 50, 50)}

_SAVE_FORMAT = "copymodel/1"

_ADAM_B1 = 0.9
_ADAM_B2 = 0.999
_ADAM_EPS = 1e-8

# entries of (features, rows, classes) class counts a tree node scores at once
_SCORE_BLOCK = 1 << 20

# rows one prediction pass takes, so a network's activations stay bounded.
# A constant, not a knob: OpenBLAS may round a row differently with the
# number of rows in the product, so a prediction of up to this many rows
# keeps the bits of one whole pass.  The toy config, the benchmark and the
# tests predict at most 10^5 rows at once.
_PREDICT_CHUNK = 1 << 17


class TrainingError(CopySamplerError):
    """Optimization diverged; carries the diagnostics in its message."""


@dataclass
class CopyModel:
    """A fitted copy: architecture tag, parameters, and training metadata."""

    architecture: str
    d: int
    k: int
    params: dict = field(default_factory=dict)
    train_meta: dict = field(default_factory=dict)
    constant_label: int | None = None

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        """Hard labels of the rows of X, in passes of `_PREDICT_CHUNK` rows."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.constant_label is not None:
            return np.full(X.shape[0], self.constant_label, dtype=np.int64)
        labels = np.empty(X.shape[0], dtype=np.int64)
        for i in range(0, X.shape[0], _PREDICT_CHUNK):
            block = X[i:i + _PREDICT_CHUNK]
            if self.architecture == "dt":
                labels[i:i + _PREDICT_CHUNK] = _tree_predict(self.params, block)
            else:
                labels[i:i + _PREDICT_CHUNK] = np.argmax(
                    _net_probs(self.params["layers"], block), axis=1)
        return labels

    def input_gradients(self, X: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """d p_c / d z rows for each (z, c) pair; networks only."""
        if self.architecture == "dt" or self.constant_label is not None:
            raise ValueError("input gradients exist only for fitted networks")
        return _net_input_gradients(self.params["layers"],
                                    np.atleast_2d(X),
                                    np.asarray(labels, dtype=np.int64))

    # -- persistence --------------------------------------------------------

    def save(self, path) -> Path:
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays: dict[str, np.ndarray] = {}
        if self.architecture == "dt" and self.constant_label is None:
            for name in ("feature", "threshold", "left", "right", "leaf_label"):
                arrays[f"tree_{name}"] = self.params[name]
        elif self.constant_label is None:
            for i, (W, b) in enumerate(self.params["layers"]):
                arrays[f"W{i}"] = W
                arrays[f"b{i}"] = b
        head = {
            "format": _SAVE_FORMAT,
            "architecture": self.architecture,
            "d": self.d,
            "k": self.k,
            "constant_label": self.constant_label,
            "train_meta": self.train_meta,
        }
        np.savez(path, head=np.frombuffer(
            json.dumps(head, sort_keys=True).encode("utf-8"), dtype=np.uint8),
            **arrays)
        return path

    @classmethod
    def load(cls, path) -> "CopyModel":
        """The model `save` wrote to `path`.

        A file that holds no copy model (another format, an `.npz` without
        the header, an unknown container version) raises ValueError naming it.
        """
        try:
            bundle = np.load(Path(path))
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                raise ValueError("not an .npz container")
            with bundle:
                head = json.loads(bytes(bundle["head"].tobytes()).decode("utf-8"))
                if not isinstance(head, dict):
                    raise ValueError("its header is not a JSON object")
                if head.get("format") != _SAVE_FORMAT:
                    raise ValueError(f"unsupported container {head.get('format')!r}")
                model = cls(
                    architecture=head["architecture"],
                    d=int(head["d"]),
                    k=int(head["k"]),
                    train_meta=head.get("train_meta", {}),
                    constant_label=head["constant_label"],
                )
                if model.constant_label is not None:
                    return model
                if model.architecture == "dt":
                    model.params = {
                        name: bundle[f"tree_{name}"]
                        for name in ("feature", "threshold", "left", "right", "leaf_label")
                    }
                else:
                    layers = []
                    i = 0
                    while f"W{i}" in bundle:
                        layers.append((bundle[f"W{i}"], bundle[f"b{i}"]))
                        i += 1
                    model.params = {"layers": layers}
            return model
        except (EOFError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not a copy model ({exc})") from None


def train(arch: str, ds: SyntheticDataset, cfg: TrainConfig | None = None) -> CopyModel:
    """Fit a copy of the given architecture on a synthetic dataset."""
    arch = arch.lower()
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; pick one of {ARCHITECTURES}")
    cfg = cfg or TrainConfig()
    if arch != "dt":
        (fit,) = train_many(arch, [ds], [cfg])
        if isinstance(fit, TrainingError):
            raise fit
        return fit
    if len(ds) == 0:
        raise ValueError("cannot train on an empty dataset")
    model = _constant_model(arch, ds, cfg)
    if model is None:
        params = _tree_fit(ds.X, ds.y, ds.k, cfg)
        model = CopyModel(arch, ds.d, ds.k, params=params)
        model.train_meta = {"seed": cfg.seed, "depth": int(params["depth"])}
        _record_training_error(model, ds)
    return model


def train_many(arch: str, datasets: Sequence[SyntheticDataset],
               cfgs: Sequence[TrainConfig]) -> list[CopyModel | TrainingError]:
    """Fit one network copy per (dataset, config) pair, all in lockstep.

    The copies share one minibatch-Adam loop over a leading cell axis.  Every
    operation in it is local to a cell, so each copy gets the same bits that
    `train` gives it alone.  The datasets must agree in row count, d and k,
    and the configs in everything but `seed`.  Returns, per cell, its model
    or the TrainingError that stopped it; a diverging cell stops no other.
    """
    arch = arch.lower()
    if arch not in _HIDDEN_LAYERS:
        raise ValueError(f"train_many fits the networks {tuple(_HIDDEN_LAYERS)}, "
                         f"not {arch!r}")
    datasets, cfgs = list(datasets), list(cfgs)
    if not datasets or len(datasets) != len(cfgs):
        raise ValueError("train_many needs one config per dataset, and one dataset at least")
    n, d, k = len(datasets[0]), datasets[0].d, datasets[0].k
    if any((len(ds), ds.d, ds.k) != (n, d, k) for ds in datasets):
        raise ValueError("lockstep datasets must agree in row count, d and k")
    if any(dc_replace(cfg, seed=cfgs[0].seed) != cfgs[0] for cfg in cfgs):
        raise ValueError("lockstep configs may differ only in seed")
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    results = [_constant_model(arch, ds, cfg) for ds, cfg in zip(datasets, cfgs)]
    fit = [i for i, model in enumerate(results) if model is None]
    if not fit:
        return results
    fitted = _net_fit(np.stack([datasets[i].X for i in fit]),
                      np.stack([datasets[i].y for i in fit]),
                      k, _HIDDEN_LAYERS[arch], cfgs[0], [cfgs[i].seed for i in fit])
    for i, outcome in zip(fit, fitted):
        if isinstance(outcome, TrainingError):
            results[i] = outcome
            continue
        layers, final_loss = outcome
        model = CopyModel(arch, d, k, params={"layers": layers})
        model.train_meta = {"seed": cfgs[i].seed, "epochs": cfgs[i].epochs,
                            "final_loss": final_loss}
        _record_training_error(model, datasets[i])
        results[i] = model
    return results


def _constant_model(arch, ds, cfg) -> CopyModel | None:
    """The constant copy of a dataset with one label present, else None."""
    if not (ds.y == ds.y[0]).all():
        return None
    model = CopyModel(arch, ds.d, ds.k, constant_label=int(ds.y[0]))
    model.train_meta = {"seed": cfg.seed, "training_fidelity_error": 0.0,
                        "constant": True}
    return model


def _record_training_error(model: CopyModel, ds: SyntheticDataset) -> None:
    model.train_meta["training_fidelity_error"] = float(
        np.mean(model.predict_many(ds.X) != ds.y))


# -- softmax networks --------------------------------------------------------

def _net_init(d: int, k: int, hidden: Sequence[int], rng: RandomSource):
    sizes = [d, *hidden, k]
    layers = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        W = rng.normal((n_in, n_out)) * np.sqrt(2.0 / n_in)
        b = np.zeros(n_out)
        layers.append((W, b))
    return layers


def _layer_outputs(layers, X):
    """Yield each layer's output in turn, the logits last.

    Works on one network (2-D X) or on R stacked ones (X of shape (R, b, d),
    W of shape (R, n_in, n_out), b of shape (R, n_out)).  A stacked product
    is one matmul per cell, the same BLAS call a lone network makes.  The
    loop lets go of an output once it has computed the next, so a caller
    that does the same holds at most a layer and its input.
    """
    a = X
    for i, (W, b) in enumerate(layers):
        a = a @ W
        a += b[..., None, :]
        if i < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
        yield a


def _net_forward(layers, X):
    """Activations of every layer, the input first; shapes as `_layer_outputs`."""
    return [X, *_layer_outputs(layers, X)]


def _softmax(logits, out=None):
    """Softmax over the last axis, into `out`, which may be `logits` itself.

    numpy reduces short rows slowly (some 50 ns a row), so the row max is
    taken column by column, and so is the row sum below 8 classes.  A max
    is exact and numpy adds fewer than 8 terms left to right, so the bits
    do not change; from 8 terms on it adds them pairwise, so `sum` stays.
    """
    k = logits.shape[-1]
    top = reduce(np.maximum, [logits[..., j] for j in range(k)])
    e = np.subtract(logits, top[..., None], out=out)
    np.exp(e, out=e)
    if k < 8:
        e /= reduce(np.add, [e[..., j] for j in range(k)])[..., None]
    else:
        e /= e.sum(axis=-1, keepdims=True)
    return e


def _net_probs(layers, X):
    for logits in _layer_outputs(layers, X):
        pass
    return _softmax(logits, out=logits)


def _one_hot(y, k):
    return (y[..., None] == np.arange(k)).astype(np.float64)


def _step_buffers(layers, rows):
    """The buffers `_backprop` writes a step of up to `rows` rows into.

    `layers` are R stacked networks.  Rows lead, so a short batch is a
    leading slice and a bias gradient adds one contiguous block per row:
    per layer a (rows, R, width) output, per hidden layer a delta of that
    shape, and a cells-first (R, rows, width) copy of the first layer's
    delta.
    """
    R = layers[0][0].shape[0]
    outs = [np.empty((rows, R, W.shape[-1])) for W, _ in layers]
    deltas = [np.empty((rows, R, W.shape[-1])) for W, _ in layers[:-1]]
    return outs, deltas, np.empty((R, rows, layers[0][0].shape[-1]))


def _backprop(layers, X, Y, grads, buffers, with_loss):
    """Write the mean cross-entropy gradients into the (gW, gb) arrays of `grads`.

    R stacked networks: X (R, b, d) and the one-hot labels Y (R, b, k) are
    cells first, and `buffers` come from `_step_buffers`.  Every layer's
    output, the softmax and every delta go into the buffers, so a step
    allocates nothing large.  Returns the loss of each network when
    `with_loss` is set, else None.
    """
    n = X.shape[-2]
    outs, deltas, first_delta = buffers
    a = X
    for i, ((W, b), out) in enumerate(zip(layers, outs)):
        out = out[:n]
        np.matmul(a, W, out=out.swapaxes(0, 1))
        out += b
        if i < len(layers) - 1:
            np.maximum(out, 0.0, out=out)
        a = out.swapaxes(0, 1)
    delta = _softmax(out, out=out)
    loss = None
    if with_loss:
        picked = delta.swapaxes(0, 1)[Y == 1.0].reshape(-1, n)
        loss = [float(-np.mean(np.log(p + 1e-12))) for p in picked]
    # x - 0.0 is x, so this changes only the labelled entries, each by -1.0
    delta -= Y.swapaxes(0, 1)
    delta /= n
    for i in reversed(range(1, len(layers))):
        gW, gb = grads[i]
        a = outs[i - 1][:n]
        np.matmul(a.transpose(1, 2, 0), delta.swapaxes(0, 1), out=gW)
        np.add.reduce(delta, axis=0, out=gb)
        below = deltas[i - 1][:n]
        np.matmul(delta.swapaxes(0, 1), layers[i][0].swapaxes(-1, -2),
                  out=below.swapaxes(0, 1))
        below *= a > 0.0
        delta = below
    gW, gb = grads[0]
    # cells first: a rows-first delta here makes numpy pick another
    # product for one-feature inputs, with other bits
    first_delta = first_delta[:, :n]
    np.copyto(first_delta, delta.swapaxes(0, 1))
    np.matmul(X.swapaxes(-1, -2), first_delta, out=gW)
    np.add.reduce(delta, axis=0, out=gb)
    return loss


def _net_input_gradients(layers, X, labels):
    """Backpropagate d p_c / d z through the network to the inputs."""
    n = X.shape[0]
    acts = _net_forward(layers, X)
    probs = _softmax(acts[-1])
    # d p_c / d logits_j = p_c ((j == c) - p_j)
    p_c = probs[np.arange(n), labels][:, None]
    delta = -p_c * probs
    delta[np.arange(n), labels] += p_c[:, 0]
    for i in reversed(range(len(layers))):
        W, _ = layers[i]
        delta = delta @ W.T
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    return delta


def _layer_views(buf, layers):
    """(W, b) views into the last axis of `buf`, shaped like `layers`, in order.

    Leading axes of `buf` lead every view: a (R, P) buffer gives (R, n_in,
    n_out) weights and (R, n_out) biases.
    """
    lead = buf.shape[:-1]
    views, at = [], 0
    for W, b in layers:
        view = buf[..., at:at + W.size].reshape(lead + W.shape)
        at += W.size
        views.append((view, buf[..., at:at + b.size]))
        at += b.size
    return views


def _net_fit(X, y, k, hidden, cfg: TrainConfig, seeds):
    """Minibatch Adam for R networks at once, on one (R, P) parameter buffer.

    X is (R, n, d) and y is (R, n).  Network r draws its initial weights and
    then each epoch's permutation from its own RandomSource(seeds[r]), in the
    order a network trained alone draws them.  Every Adam expression is
    elementwise, so applying it to the whole buffer gives the same bits as
    applying it network by network and array by array.  The loss is computed
    only for the last minibatch, before its update; a non-finite gradient
    anywhere earlier shows up in the second moment `v`.

    Returns, per network, (layers, final loss) or a TrainingError.  A
    network whose moments turn non-finite gets its TrainingError and leaves
    the buffers and the epoch draws at once; the others go on without it.
    """
    R, n, d = X.shape
    rngs = [RandomSource(seed) for seed in seeds]
    inits = [_net_init(d, k, hidden, rng) for rng in rngs]
    theta = np.stack([np.concatenate([a.ravel() for pair in init for a in pair])
                      for init in inits])

    def workspace(theta):
        """Weight and gradient views of `theta`, its gradient, two scratch
        buffers and the step buffers of `_backprop`."""
        g = np.empty_like(theta)
        layers = _layer_views(theta, inits[0])
        return (layers, g, _layer_views(g, inits[0]), np.empty_like(theta),
                np.empty_like(theta), _step_buffers(layers, min(n, cfg.batch_size)))

    layers, g, grads, tmp, step, buffers = workspace(theta)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    # rows of every network, one after another, for one np.take per epoch
    # (some 15x faster than fancy indexing X[cells, order])
    X_rows, Y_rows = X.reshape(R * n, d), _one_hot(y, k).reshape(R * n, k)
    last_start = (n - 1) // cfg.batch_size * cfg.batch_size
    alive = list(range(R))  # the networks still in the buffers, in buffer order
    losses: dict[int, float] = {}
    errors: dict[int, TrainingError] = {}
    t = 0
    with np.errstate(all="ignore"):  # divergence is detected below, per network
        for epoch in range(cfg.epochs):
            rows = np.stack([rngs[r].permutation(n) + r * n for r in alive]).ravel()
            X_epoch = np.take(X_rows, rows, axis=0).reshape(len(alive), n, d)
            Y_epoch = np.take(Y_rows, rows, axis=0).reshape(len(alive), n, k)
            for start in range(0, n, cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                final = epoch == cfg.epochs - 1 and start == last_start
                loss = _backprop(layers, X_epoch[:, batch], Y_epoch[:, batch], grads,
                                 buffers, with_loss=final)
                if final:
                    losses = dict(zip(alive, loss))
                t += 1
                # m = B1*m + (1-B1)*g and v = B2*v + ((1-B2)*g)*g, in place
                m *= _ADAM_B1
                np.multiply(g, 1 - _ADAM_B1, out=tmp)
                m += tmp
                v *= _ADAM_B2
                np.multiply(g, 1 - _ADAM_B2, out=tmp)
                tmp *= g
                v += tmp
                # v is >= 0 or NaN, so its max is finite only if all of it is
                if not math.isfinite(v.max()):
                    ok = np.isfinite(v).all(axis=1)
                    for i in np.flatnonzero(~ok).tolist():
                        errors[alive[i]] = TrainingError(
                            f"non-finite gradient moments at epoch {epoch}, step {t} "
                            f"(step_size={cfg.step_size}, batch={cfg.batch_size})"
                        )
                    alive = [r for r, keep in zip(alive, ok) if keep]
                    if not alive:
                        return [errors[r] for r in range(R)]
                    theta, m, v = theta[ok], m[ok], v[ok]
                    X_epoch, Y_epoch = X_epoch[ok], Y_epoch[ok]
                    layers, g, grads, tmp, step, buffers = workspace(theta)
                # theta -= (step_size * m_hat) / (sqrt(v_hat) + eps)
                np.divide(v, 1 - _ADAM_B2**t, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += _ADAM_EPS
                np.divide(m, 1 - _ADAM_B1**t, out=step)
                step *= cfg.step_size
                step /= tmp
                theta -= step
    finite = dict(zip(alive, np.isfinite(theta).all(axis=1)))
    results = []
    for r in range(R):
        if r in errors:
            results.append(errors[r])
        elif not finite[r]:
            results.append(TrainingError("non-finite parameters after optimization"))
        else:
            results.append((_layer_views(theta[alive.index(r)].copy(), inits[0]), losses[r]))
    return results


# -- CART decision tree --------------------------------------------------------

def _tree_fit(X, y, k, cfg: TrainConfig):
    """Grow a CART tree depth first, on attribute lists sorted once.

    Each feature is argsorted once, stably, at the root (SLIQ's presorted
    attribute lists).  A node carries a (d, m) array of its row indices,
    one list per feature in ascending order of that feature, and a split
    passes each list on, filtered and still in order, to the children.
    Filtering keeps ties in row order, so each list is the stable argsort
    of the node's own column, and the trees are those of a fit that
    re-sorts every feature at every node.  `_best_split` scores the
    features of a node together.

    Memory: the lists cost d x n int32 (32 MB at 10^6 x 8; int64 from 2^31
    rows), and a split holds a node's lists and its children's at once.
    Scoring a node adds a few (d, m) arrays and, per block of features, one
    int32 and one float64 (features, m, k) array of at most `_SCORE_BLOCK`
    entries, or of one feature if that is more.  Peak RSS growth of one fit
    on 8 features in a fresh process: 42 MB at 10^5 rows and 179 MB at 10^6
    rows with k = 2 (210 MB with int64 lists; re-sorting each node's
    columns: 14 and 49 MB), 28 MB and 263 MB with k = 10.
    """
    n, d = X.shape
    XT = np.ascontiguousarray(X.T)
    in_left = np.zeros(n, dtype=bool)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_label: list[int] = []
    max_depth_seen = 0

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_label.append(-1)
        return len(feature) - 1

    root = new_node()
    lists = np.argsort(XT, axis=1, kind="stable")
    if n < 2**31:
        lists = lists.astype(np.int32)
    stack = [(root, lists, 0)]
    while stack:
        node, lists, depth = stack.pop()
        max_depth_seen = max(max_depth_seen, depth)
        m = lists.shape[1]
        counts = np.bincount(y[lists[0]], minlength=k)
        majority = int(np.argmax(counts))
        pure = counts[majority] == m
        depth_capped = cfg.max_depth is not None and depth >= cfg.max_depth
        best = None
        if not pure and not depth_capped and m >= 2 * cfg.min_leaf:
            best = _best_split(XT, y, lists, counts, cfg.min_leaf)
        if best is None:
            leaf_label[node] = majority
            continue
        f, pos, thr = best
        feature[node] = f
        threshold[node] = thr
        # the first `pos` rows of feature f's list are those at or below thr
        in_left[lists[f, :pos]] = True
        go_left = in_left[lists]
        in_left[lists[f, :pos]] = False
        l_node = new_node()
        r_node = new_node()
        left[node] = l_node
        right[node] = r_node
        stack.append((l_node, lists[go_left].reshape(d, pos), depth + 1))
        stack.append((r_node, lists[~go_left].reshape(d, m - pos), depth + 1))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "leaf_label": np.array(leaf_label, dtype=np.int64),
        "depth": np.int64(max_depth_seen),
    }


def _best_split(XT, y, lists, counts, min_leaf):
    """The Gini-best (feature, pos, threshold) over all features of a node, or None.

    `lists` holds the node's rows, sorted by each feature in turn; a split
    at `pos` puts the first `pos` rows of its feature's list on the left.
    Ties go to the lowest position of the lowest feature.  Features are
    scored together, as many at a time as keep a block's (features, rows,
    classes) counts within `_SCORE_BLOCK` entries, and at least one.
    """
    d, m = lists.shape
    lo, hi = min_leaf, m - min_leaf
    xs = XT[np.arange(d)[:, None], lists]
    # a split between equal values would separate nothing
    valid = xs[:, lo:hi + 1] != xs[:, lo - 1:hi]
    if not valid.any():
        return None
    impurity = np.empty(valid.shape)
    step = max(1, _SCORE_BLOCK // (m * counts.size))
    for f in range(0, d, step):
        impurity[f:f + step] = _impurity(y[lists[f:f + step, :hi]], counts, lo, m)
    impurity[~valid] = np.inf
    f, j = divmod(int(np.argmin(impurity)), hi - lo + 1)
    pos = lo + j
    below, above = xs[f, pos - 1], xs[f, pos]
    thr = (below + above) / 2.0
    if thr >= above:
        # one ulp apart, the midpoint can round onto the upper value, which
        # `<= thr` would then send left, against the split grown here
        thr = below
    return f, pos, float(thr)


def _impurity(ys, counts, lo, m):
    """Weighted Gini of the splits of a node of m rows at positions lo..hi.

    Row f of `ys` is the labels of the first hi rows of feature f's list.
    One float64 (features, positions, classes) array serves both sides.
    """
    # class counts of the first lo..hi rows; exact integers, as float64
    # cumulative sums of one-hot rows would be
    lc = np.cumsum(ys[..., None] == np.arange(counts.size), axis=1,
                   dtype=np.int32)[:, lo - 1:]
    nl = np.arange(lo, ys.shape[1] + 1, dtype=np.float64)
    nr = m - nl
    p = lc / nl[:, None]
    p *= p
    gini_l = 1.0 - p.sum(axis=-1)
    rc = np.subtract(counts.astype(np.int32), lc, out=lc)
    np.divide(rc, nr[:, None], out=p)
    p *= p
    gini_r = 1.0 - p.sum(axis=-1)
    return (nl * gini_l + nr * gini_r) / m


def _tree_predict(params, X):
    feature = params["feature"]
    threshold = params["threshold"]
    left = params["left"]
    right = params["right"]
    leaf_label = params["leaf_label"]
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = feature[node] >= 0
    while np.any(active):
        rows = np.flatnonzero(active)
        nd = node[rows]
        go_left = X[rows, feature[nd]] <= threshold[nd]
        node[rows] = np.where(go_left, left[nd], right[nd])
        active = feature[node] >= 0
    return leaf_label[node]
