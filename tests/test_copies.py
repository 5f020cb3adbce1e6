"""Copy models: training, prediction, determinism, persistence."""

import re
import signal
import warnings
from functools import reduce

import numpy as np
import pytest

from conftest import peak_rss_growth_mb

from copysampler import (
    CopyModel,
    TrainConfig,
    TrainingError,
    boundary_sampler,
    random_sampler,
    train,
    train_many,
)
from copysampler import copies
from copysampler.copies import (
    _backprop,
    _net_forward,
    _net_init,
    _net_probs,
    _one_hot,
    _softmax,
    _step_buffers,
    _tree_fit,
)
from copysampler.core import RandomSource, SyntheticDataset


def make_dataset(X, y, k=None):
    k = int(np.max(y)) + 1 if k is None else k
    return SyntheticDataset(X, y, k=k, generator_id="test", seed=0,
                            query_count=len(y))


class TestTrainBasics:
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
            TrainConfig(seed=seed)

    def test_lr_on_separable_boundary_set(self, halfspace):
        # separable by construction, so enough full-batch epochs pin the
        # hyperplane down to the tightest straddling pair
        ds = boundary_sampler(500, halfspace, rng=RandomSource(41))
        cfg = TrainConfig(seed=1, epochs=2000, batch_size=500, step_size=0.05)
        model = train("lr", ds, cfg)
        assert model.train_meta["training_fidelity_error"] <= 0.01

    def test_dt_shatters_consistent_data(self):
        rng = RandomSource(2)
        X = rng.uniform((200, 3))
        y = (rng.uniform(200) < 0.37).astype(int)
        model = train("dt", make_dataset(X, y, k=2), TrainConfig(seed=0))
        assert model.train_meta["training_fidelity_error"] == 0.0

    def test_single_class_gives_constant_model(self):
        X = RandomSource(3).uniform((40, 2))
        y = np.full(40, 1)
        for arch in ("lr", "dt", "ann"):
            model = train(arch, make_dataset(X, y, k=3), TrainConfig(seed=0))
            assert model.constant_label == 1
            assert model.train_meta["training_fidelity_error"] == 0.0
            assert model.predict_many(np.array([[0.9, 0.9]])).tolist() == [1]

    def test_unknown_architecture(self):
        ds = make_dataset(np.zeros((2, 1)), np.array([0, 1]))
        with pytest.raises(ValueError):
            train("svm", ds)

    def test_empty_dataset_rejected(self):
        ds = make_dataset(np.empty((0, 2)), np.empty(0, dtype=int), k=2)
        with pytest.raises(ValueError):
            train("lr", ds)

    def test_divergence_raises_training_error(self):
        # near-overflow inputs blow up the gradient moments immediately
        X = np.array([[1e308, 1e308], [0.1, 0.2], [0.3, 0.4], [0.9, 0.8]])
        y = np.array([0, 1, 0, 1])
        with pytest.raises(TrainingError):
            train("ann", make_dataset(X, y, k=2),
                  TrainConfig(seed=1, epochs=5, batch_size=4))


def network_loss_and_grad(layers, X, y):
    """Mean cross-entropy and its gradients w.r.t. every weight and bias,
    through `_backprop` on a stack of one network."""
    stacked = [(W[None], b[None]) for W, b in layers]
    grads = [(np.empty_like(W), np.empty_like(b)) for W, b in stacked]
    (loss,) = _backprop(stacked, X[None], _one_hot(y, layers[-1][0].shape[-1])[None],
                        grads, _step_buffers(stacked, X.shape[0]), with_loss=True)
    return loss, [(gW[0], gb[0]) for gW, gb in grads]


def pinned_softmax(logits):
    """The softmax that training was pinned with: a row max taken column by
    column, then numpy's row sum."""
    top = reduce(np.maximum, [logits[..., j] for j in range(logits.shape[-1])])
    e = logits - top[..., None]
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def pinned_backprop(layers, X, Y):
    """Loss and (gW, gb) gradients of one network, as training was pinned:
    each layer, softmax and delta a new array, the bias gradients numpy sums
    over the rows."""
    n = X.shape[0]
    acts = [X]
    for i, (W, b) in enumerate(layers):
        a = acts[-1] @ W
        a += b
        if i < len(layers) - 1:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    delta = pinned_softmax(acts[-1])
    loss = float(-np.mean(np.log(delta[Y == 1.0] + 1e-12)))
    delta -= Y
    delta /= n
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ layers[i][0].T) * (acts[i] > 0.0)
    return loss, grads


def reference_net_fit(X, y, k, hidden, cfg):
    """Per-array Adam on `pinned_backprop`, as training worked before the
    flat parameter buffer."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    rng = RandomSource(cfg.seed)
    layers = _net_init(X.shape[1], k, hidden, rng)
    flat = [arr for pair in layers for arr in pair]
    m = [np.zeros_like(a) for a in flat]
    v = [np.zeros_like(a) for a in flat]
    t = 0
    n = X.shape[0]
    Y = _one_hot(y, k)
    loss = None
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss, grads = pinned_backprop(layers, X[batch], Y[batch])
            t += 1
            for i, g in enumerate(g for pair in grads for g in pair):
                m[i] = b1 * m[i] + (1 - b1) * g
                v[i] = b2 * v[i] + (1 - b2) * g * g
                m_hat = m[i] / (1 - b1**t)
                v_hat = v[i] / (1 - b2**t)
                flat[i] -= cfg.step_size * m_hat / (np.sqrt(v_hat) + eps)
    return layers, loss


def pinned_datasets():
    rng = RandomSource(17)
    X2 = rng.uniform((300, 2))
    y2 = (((X2 - 0.5) ** 2).sum(axis=1) < 0.06).astype(int)
    X8 = rng.uniform((150, 8))
    y8 = np.argmax(X8[:, :3] + 0.3 * X8[:, 3:6], axis=1)
    return {"k2d2": make_dataset(X2, y2, k=2), "k3d8": make_dataset(X8, y8, k=3)}


class TestTrainingIsPinned:
    HIDDEN = {"lr": (), "ann": (5,), "ann2": (50, 50, 50)}

    def assert_pinned(self, model, arch, ds, cfg):
        layers, loss = reference_net_fit(ds.X, ds.y, ds.k, self.HIDDEN[arch], cfg)
        assert len(model.params["layers"]) == len(layers)
        for (W, b), (W_ref, b_ref) in zip(model.params["layers"], layers):
            assert W.shape == W_ref.shape and b.shape == b_ref.shape
            assert W.tobytes() == W_ref.tobytes()
            assert b.tobytes() == b_ref.tobytes()
        assert model.train_meta["final_loss"] == loss

    @pytest.mark.parametrize("shape", ["k2d2", "k3d8"])
    @pytest.mark.parametrize("arch", ["lr", "ann", "ann2"])
    def test_weights_match_per_array_adam(self, arch, shape):
        ds = pinned_datasets()[shape]
        cfg = TrainConfig(seed=3, epochs=12)
        self.assert_pinned(train(arch, ds, cfg), arch, ds, cfg)

    @staticmethod
    def group(n, d, k, cells):
        """`cells` datasets of n rows, d features and k classes, two of
        them present at least."""
        out = []
        for r in range(cells):
            rng = RandomSource(1000 * d + 100 * k + 10 * r + n)
            X = rng.uniform((n, d))
            y = np.argmax(X @ rng.normal((d, k)) + 0.3 * rng.normal((n, k)), axis=1)
            y[:2] = [0, 1]
            out.append(make_dataset(X, y, k=k))
        return out

    # 65 and 129 rows end on a one-row batch of 64, 2 fall short of one
    @pytest.mark.parametrize("n", [2, 65, 129, 300])
    @pytest.mark.parametrize("cells", [1, 3])
    @pytest.mark.parametrize("k", [2, 3, 8, 9])
    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("arch", ["lr", "ann", "ann2"])
    def test_lockstep_groups_match_per_array_adam(self, arch, d, k, cells, n):
        datasets = self.group(n, d, k, cells)
        cfgs = [TrainConfig(seed=60 + r, epochs=3) for r in range(cells)]
        for model, ds, cfg in zip(train_many(arch, datasets, cfgs), datasets, cfgs):
            self.assert_pinned(model, arch, ds, cfg)

    @pytest.mark.parametrize("arch", ["lr", "ann", "ann2"])
    def test_group_with_a_diverging_cell_matches_per_array_adam(self, arch):
        datasets = self.group(129, 1, 3, 3)
        X = datasets[1].X.copy()
        X[70, 0] = np.nan
        datasets[1] = make_dataset(X, datasets[1].y, k=3)
        cfgs = [TrainConfig(seed=70 + r, epochs=3) for r in range(3)]
        models = train_many(arch, datasets, cfgs)
        assert isinstance(models[1], TrainingError)
        for i in (0, 2):
            self.assert_pinned(models[i], arch, datasets[i], cfgs[i])

    @pytest.mark.parametrize("arch", ["lr", "ann", "ann2"])
    def test_nan_input_raises_training_error(self, arch):
        ds = pinned_datasets()["k2d2"]
        X = ds.X.copy()
        X[7, 1] = np.nan
        with pytest.raises(TrainingError, match="non-finite gradient moments"):
            train(arch, make_dataset(X, ds.y, k=2), TrainConfig(seed=1, epochs=3))


def shaped_datasets(shape, count):
    """`count` datasets drawn like pinned_datasets()[shape], each its own rows.

    k2d2 has 300 rows and k3d8 150, so both end on a partial batch of 64;
    k2d1 has 129 rows of one feature, so it ends on a one-row batch.
    """
    out = []
    for r in range(count):
        rng = RandomSource(100 + r)
        if shape == "k2d1":
            X = rng.uniform((129, 1))
            out.append(make_dataset(X, (np.abs(X[:, 0] - 0.5) < 0.2).astype(int), k=2))
        elif shape == "k2d2":
            X = rng.uniform((300, 2))
            out.append(make_dataset(X, (((X - 0.5) ** 2).sum(axis=1) < 0.06).astype(int), k=2))
        else:
            X = rng.uniform((150, 8))
            out.append(make_dataset(X, np.argmax(X[:, :3] + 0.3 * X[:, 3:6], axis=1), k=3))
    return out


def assert_same_model(got, want):
    """Same weight bytes and the same train_meta, which holds final_loss and
    training_fidelity_error."""
    assert got.constant_label == want.constant_label
    assert len(got.params.get("layers", [])) == len(want.params.get("layers", []))
    for (W, b), (W_want, b_want) in zip(got.params.get("layers", []),
                                        want.params.get("layers", [])):
        assert W.shape == W_want.shape and b.shape == b_want.shape
        assert W.tobytes() == W_want.tobytes()
        assert b.tobytes() == b_want.tobytes()
    assert got.train_meta == want.train_meta


class TestLockstepTraining:
    @pytest.mark.parametrize("cells", [1, 3, 7])
    @pytest.mark.parametrize("shape", ["k2d1", "k2d2", "k3d8"])
    @pytest.mark.parametrize("arch", ["lr", "ann", "ann2"])
    def test_matches_training_alone(self, arch, shape, cells):
        datasets = shaped_datasets(shape, cells)
        cfgs = [TrainConfig(seed=40 + r, epochs=4 if arch == "ann2" else 12)
                for r in range(cells)]
        models = train_many(arch, datasets, cfgs)
        assert len(models) == cells
        for model, ds, cfg in zip(models, datasets, cfgs):
            assert_same_model(model, train(arch, ds, cfg))

    def test_constant_dataset_gives_constant_model(self):
        datasets = shaped_datasets("k2d2", 3)
        datasets[1] = make_dataset(datasets[1].X, np.ones(300, dtype=int), k=2)
        cfgs = [TrainConfig(seed=r, epochs=5) for r in range(3)]
        models = train_many("ann", datasets, cfgs)
        assert models[1].constant_label == 1
        assert models[1].train_meta["training_fidelity_error"] == 0.0
        for i in (0, 2):
            assert_same_model(models[i], train("ann", datasets[i], cfgs[i]))

    def test_diverging_cell_fails_alone(self, monkeypatch):
        datasets = shaped_datasets("k2d2", 3)
        X = datasets[1].X.copy()
        X[7, 1] = np.nan
        datasets[1] = make_dataset(X, datasets[1].y, k=2)
        cfgs = [TrainConfig(seed=r, epochs=3) for r in range(3)]
        cells_per_step = []
        backprop = copies._backprop

        def counted(layers, X, *args, **kwargs):
            cells_per_step.append(X.shape[0])
            return backprop(layers, X, *args, **kwargs)

        monkeypatch.setattr(copies, "_backprop", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            models = train_many("ann", datasets, cfgs)
        monkeypatch.undo()
        assert isinstance(models[1], TrainingError)
        with pytest.raises(TrainingError) as alone:
            train("ann", datasets[1], cfgs[1])
        assert str(models[1]) == str(alone.value)
        assert "epoch 0, step" in str(models[1])
        # the failed cell leaves the buffers after its divergence step
        diverged_at = int(re.search(r"step (\d+)", str(models[1])).group(1))
        steps = 3 * 5  # 3 epochs of 300 rows in minibatches of 64
        assert cells_per_step == [3] * diverged_at + [2] * (steps - diverged_at)
        for i in (0, 2):
            assert_same_model(models[i], train("ann", datasets[i], cfgs[i]))

    @pytest.mark.parametrize("change", ["rows", "d", "k", "config"])
    def test_mismatched_group_rejected(self, change):
        datasets = shaped_datasets("k2d2", 2)
        cfgs = [TrainConfig(seed=0, epochs=3), TrainConfig(seed=1, epochs=3)]
        last = datasets[1]
        if change == "rows":
            datasets[1] = last.prefix(299)
        elif change == "d":
            datasets[1] = make_dataset(np.hstack([last.X, last.X[:, :1]]), last.y, k=2)
        elif change == "k":
            datasets[1] = make_dataset(last.X, last.y, k=3)
        else:
            cfgs[1] = TrainConfig(seed=1, epochs=4)
        with pytest.raises(ValueError):
            train_many("lr", datasets, cfgs)

    def test_only_networks(self):
        datasets = shaped_datasets("k2d2", 2)
        with pytest.raises(ValueError):
            train_many("dt", datasets, [TrainConfig(seed=0), TrainConfig(seed=1)])


def reference_gini_best_split(Xf, y, k, min_leaf):
    """Best (impurity, threshold) for one feature column, or None."""
    order = np.argsort(Xf, kind="stable")
    xs = Xf[order]
    ys = y[order]
    n = xs.shape[0]
    onehot = np.zeros((n, k))
    onehot[np.arange(n), ys] = 1.0
    left_counts = np.cumsum(onehot, axis=0)
    total = left_counts[-1]
    # split after position i puts i+1 samples on the left
    idx = np.arange(1, n)
    valid = xs[1:] != xs[:-1]
    valid &= (idx >= min_leaf) & (n - idx >= min_leaf)
    if not np.any(valid):
        return None
    lc = left_counts[:-1][valid]
    nl = idx[valid].astype(np.float64)
    nr = n - nl
    rc = total[None, :] - lc
    gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
    impurity = (nl * gini_l + nr * gini_r) / n
    j = int(np.argmin(impurity))
    pos = idx[valid][j]
    threshold = (xs[pos - 1] + xs[pos]) / 2.0
    if threshold >= xs[pos]:
        # one ulp apart, the midpoint can round onto the upper value; that
        # puts it on the wrong side, and a node with only these two values
        # would send every row left and be split again forever
        threshold = xs[pos - 1]
    return float(impurity[j]), float(threshold)


def reference_tree_fit(X, y, k, cfg):
    """CART that re-sorts every feature at every node, as fitting worked
    before the presorted attribute lists."""
    n, d = X.shape
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
    stack = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        max_depth_seen = max(max_depth_seen, depth)
        ys = y[idx]
        counts = np.bincount(ys, minlength=k)
        majority = int(np.argmax(counts))
        pure = counts[majority] == idx.size
        depth_capped = cfg.max_depth is not None and depth >= cfg.max_depth
        best = None
        if not pure and not depth_capped and idx.size >= 2 * cfg.min_leaf:
            for f in range(d):
                cand = reference_gini_best_split(X[idx, f], ys, k, cfg.min_leaf)
                if cand is not None and (best is None or cand[0] < best[0]):
                    best = (cand[0], f, cand[1])
        if best is None:
            leaf_label[node] = majority
            continue
        _, f, thr = best
        feature[node] = f
        threshold[node] = thr
        go_left = X[idx, f] <= thr
        l_node = new_node()
        r_node = new_node()
        left[node] = l_node
        right[node] = r_node
        stack.append((l_node, idx[go_left], depth + 1))
        stack.append((r_node, idx[~go_left], depth + 1))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold, dtype=np.float64),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "leaf_label": np.array(leaf_label, dtype=np.int64),
        "depth": np.int64(max_depth_seen),
    }


TREE_KEYS = ("feature", "threshold", "left", "right", "leaf_label", "depth")


def tree_case(name, seed):
    """(X, y, k, cfg) for one named case of the tree equality test."""
    rng = RandomSource(seed)
    n, d, k, cfg = 300, 3, 3, TrainConfig()
    if name == "two_rows":
        n = 2
    elif name == "d1":
        d = 1
    elif name in ("k5", "k9"):
        k = int(name[1])
    elif name == "min_leaf":
        cfg = TrainConfig(min_leaf=4)
    elif name == "max_depth":
        cfg = TrainConfig(max_depth=3)
    X = rng.uniform((n, d))
    if name == "duplicates":
        X = np.round(X * 4) / 4
    elif name == "one_ulp":
        a = 0.08609775692680265
        X[:, 0] = np.where(rng.uniform(n) < 0.5, a, np.nextafter(a, 1.0))
    elif name == "constant_column":
        X[:, 1] = 0.5
    y = np.array([rng.integers(k) for _ in range(n)])
    if name == "two_rows":
        y = np.array([0, 1])
    return X, y, k, cfg


class TestTreeMatchesReference:
    CASES = ["random", "duplicates", "one_ulp", "constant_column", "min_leaf",
             "max_depth", "k5", "k9", "d1", "two_rows"]

    # 1 scores one feature at a time; 1800 scores the 3 features of a
    # 300-row, k = 3 root as blocks of 2 and 1, and small nodes whole
    @pytest.mark.parametrize("block", [copies._SCORE_BLOCK, 1, 1800])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", CASES)
    def test_same_arrays(self, name, seed, block, monkeypatch):
        monkeypatch.setattr(copies, "_SCORE_BLOCK", block)
        X, y, k, cfg = tree_case(name, seed)
        got = _tree_fit(X, y, k, cfg)
        want = reference_tree_fit(X, y, k, cfg)
        for key in TREE_KEYS:
            assert got[key].dtype == want[key].dtype
            assert got[key].tobytes() == want[key].tobytes(), key

    def test_saved_model_bytes(self, tmp_path):
        X, y, k, cfg = tree_case("duplicates", 3)
        model = train("dt", make_dataset(X, y, k=k), cfg)
        reference = CopyModel("dt", X.shape[1], k,
                              params=reference_tree_fit(X, y, k, cfg),
                              train_meta=model.train_meta)
        assert (model.save(tmp_path / "new.npz").read_bytes()
                == reference.save(tmp_path / "reference.npz").read_bytes())


class TestPredict:
    def test_planted_lr_matches_halfspace(self, halfspace):
        model = CopyModel("lr", d=2, k=2)
        W = np.array([[-10.0, 10.0], [0.0, 0.0]])  # logit_1 - logit_0 = 10 (x0 - 0.5)
        b = np.array([5.0, -5.0])
        model.params = {"layers": [(W, b)]}
        probes = RandomSource(6).uniform((10_000, 2))
        keep = np.abs(probes[:, 0] - 0.5) > 1e-12
        np.testing.assert_array_equal(
            model.predict_many(probes[keep]), halfspace.query_many(probes[keep])
        )

    def test_depth_one_tree_splits_at_half(self):
        X = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = train("dt", make_dataset(X, y), TrainConfig(seed=0, max_depth=1))
        assert model.train_meta["depth"] == 1
        assert model.predict_many(np.array([[0.49], [0.51]])).tolist() == [0, 1]

    def test_one_ulp_split_terminates(self):
        # the midpoint of two values one ulp apart rounds onto the upper one;
        # tree training used to split that node forever
        a = 0.08609775692680265
        X = np.array([[a, 0.5], [np.nextafter(a, 1.0), 0.5]])

        def hung(signum, frame):
            raise TimeoutError("tree training did not terminate")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            model = train("dt", make_dataset(X, np.array([0, 1])))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert model.train_meta["depth"] == 1
        np.testing.assert_array_equal(model.predict_many(X), [0, 1])

    def test_predict_one_point(self):
        X = np.array([[0.0], [1.0]])
        model = train("dt", make_dataset(X, np.array([0, 1])))
        assert model.predict_many(np.array([[0.9]])).tolist() == [1]


ANN2_SETUP = (
    "from copysampler.copies import CopyModel, _net_init\n"
    "from copysampler.core import RandomSource\n"
    "rng = RandomSource(0)\n"
    "X = rng.uniform(({rows}, 8))\n"
    "model = CopyModel('ann2', d=8, k=2,\n"
    "                  params={{'layers': _net_init(8, 2, (50, 50, 50), rng)}})\n"
)


class TestPredictInChunks:
    @pytest.mark.parametrize("arch", ["lr", "dt", "ann2"])
    def test_chunks_give_each_block_its_own_labels(self, monkeypatch, arch):
        X = RandomSource(12).uniform((300, 2))
        y = (np.linalg.norm(X - 0.5, axis=1) > 0.3).astype(int)
        model = train(arch, make_dataset(X, y), TrainConfig(seed=3, epochs=5))
        Z = RandomSource(13).uniform((50, 2))
        whole = model.predict_many(Z)
        monkeypatch.setattr(copies, "_PREDICT_CHUNK", 7)
        chunked = model.predict_many(Z)
        blocks = [model.predict_many(Z[i:i + 7]) for i in range(0, 50, 7)]
        assert chunked.dtype == whole.dtype == np.int64
        np.testing.assert_array_equal(chunked, np.concatenate(blocks))
        assert model.predict_many(np.empty((0, 2))).shape == (0,)

    def test_one_pass_up_to_the_chunk(self):
        model = CopyModel("ann2", d=2, k=3,
                          params={"layers": _net_init(2, 3, (50, 50, 50), RandomSource(4))})
        X = RandomSource(5).uniform((20_000, 2))
        one_pass = np.argmax(copies._net_probs(model.params["layers"], X), axis=1)
        assert model.predict_many(X).tobytes() == one_pass.astype(np.int64).tobytes()

    def test_memory_stays_bounded(self):
        # ann2 over 10^6 x 8 rows in one pass grew peak RSS by about 1.2 GB
        grown = peak_rss_growth_mb(ANN2_SETUP.format(rows=10**6),
                                   "labels = model.predict_many(X)\n"
                                   "assert labels.shape == (10**6,)")
        assert grown < 300.0

    def test_prediction_keeps_two_activations(self):
        # a chunk's pass holds a layer and its input, not every hidden layer
        # (keeping all three of ann2's grew peak RSS by about 150 MB)
        rows = copies._PREDICT_CHUNK
        activation_mb = rows * 50 * 8 / 2**20
        grown = peak_rss_growth_mb(ANN2_SETUP.format(rows=rows),
                                   "labels = model.predict_many(X)")
        assert grown < 2.5 * activation_mb


class TestDeterminism:
    @pytest.mark.parametrize("arch", ["lr", "dt", "ann"])
    def test_same_seed_same_model(self, arch, circles, probe_grid):
        ds = random_sampler(400, circles, RandomSource(7))
        cfg = TrainConfig(seed=99, epochs=40)
        a = train(arch, ds, cfg)
        b = train(arch, ds, cfg)
        np.testing.assert_array_equal(a.predict_many(probe_grid),
                                      b.predict_many(probe_grid))
        if arch == "dt":
            np.testing.assert_array_equal(a.params["threshold"], b.params["threshold"])
        else:
            for (Wa, ba), (Wb, bb) in zip(a.params["layers"], b.params["layers"]):
                np.testing.assert_array_equal(Wa, Wb)
                np.testing.assert_array_equal(ba, bb)


class TestCapacityOrdering:
    def test_on_circles_5000(self, circles):
        ds = random_sampler(5000, circles, RandomSource(13))
        errs = {"ann": [], "ann2": [], "dt": []}
        for seed in range(5):
            for arch in errs:
                model = train(arch, ds, TrainConfig(seed=seed))
                errs[arch].append(model.train_meta["training_fidelity_error"])
        assert np.median(errs["dt"]) <= 0.01
        assert np.median(errs["ann2"]) <= np.median(errs["ann"]) + 0.02


class TestNetworkInternals:
    def test_softmax_rows_sum_to_one(self, circles):
        ds = random_sampler(300, circles, RandomSource(8))
        model = train("ann", ds, TrainConfig(seed=3, epochs=30))
        probs = _net_probs(model.params["layers"], RandomSource(9).uniform((200, 2)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_softmax_has_the_bits_of_a_row_max(self, k):
        logits = RandomSource(k).normal((3, 200, k)) * np.array([0.1, 1.0, 10.0])[:, None, None]
        e = logits - logits.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        e /= e.sum(axis=-1, keepdims=True)
        assert _softmax(logits).tobytes() == e.tobytes()
        assert _softmax(logits[1]).tobytes() == e[1].tobytes()
        # in place on a rows-first copy, as a training step takes it
        rows_first = logits.swapaxes(0, 1).copy()
        assert _softmax(rows_first, out=rows_first) is rows_first
        assert rows_first.swapaxes(0, 1).tobytes() == e.tobytes()

    @pytest.mark.parametrize("hidden", [(), (5,), (50, 50, 50)])
    def test_probs_have_the_bits_of_the_full_forward_pass(self, hidden):
        rng = RandomSource(len(hidden))
        cells = [[(W, rng.normal(b.shape)) for W, b in _net_init(4, 3, hidden, rng)]
                 for _ in range(3)]
        stacked = [tuple(np.stack(arrays) for arrays in zip(*pairs))
                   for pairs in zip(*cells)]
        X = rng.uniform((3, 40, 4))
        for layers, Z in [(cells[0], X[0]), (stacked, X)]:
            want = _softmax(_net_forward(layers, Z)[-1])
            assert _net_probs(layers, Z).tobytes() == want.tobytes()

    def test_gradients_match_finite_differences(self):
        rng = RandomSource(10)
        layers = _net_init(3, 4, (5,), rng)
        X = rng.uniform((32, 3))
        y = np.array([rng.integers(4) for _ in range(32)])
        _, grads = network_loss_and_grad(layers, X, y)
        flat = [a for pair in layers for a in pair]
        gflat = [g for pair in grads for g in pair]
        h = 1e-6
        for trial in range(10):
            i = trial % len(flat)
            idx = tuple(rng.integers(s) for s in flat[i].shape)
            flat[i][idx] += h
            up, _ = network_loss_and_grad(layers, X, y)
            flat[i][idx] -= 2 * h
            down, _ = network_loss_and_grad(layers, X, y)
            flat[i][idx] += h
            fd = (up - down) / (2 * h)
            assert abs(fd - gflat[i][idx]) <= 1e-4 * max(abs(fd), 1e-8)

    def test_input_gradients_match_finite_differences(self, circles):
        ds = random_sampler(200, circles, RandomSource(11))
        model = train("ann", ds, TrainConfig(seed=4, epochs=30))
        rng = RandomSource(12)
        X = rng.uniform((5, 2))
        labels = np.array([0, 1, 0, 1, 1])
        grads = model.input_gradients(X, labels)
        h = 1e-6
        for i in range(5):
            for j in range(2):
                up = X[i].copy()
                up[j] += h
                down = X[i].copy()
                down[j] -= h
                p_up = _net_probs(model.params["layers"], up[None, :])[0, labels[i]]
                p_dn = _net_probs(model.params["layers"], down[None, :])[0, labels[i]]
                fd = (p_up - p_dn) / (2 * h)
                assert abs(fd - grads[i, j]) <= 1e-5 + 1e-4 * abs(fd)

    def test_architecture_shapes(self, circles):
        ds = random_sampler(100, circles, RandomSource(14))
        ann = train("ann", ds, TrainConfig(seed=0, epochs=2))
        ann2 = train("ann2", ds, TrainConfig(seed=0, epochs=2))
        assert [W.shape for W, _ in ann.params["layers"]] == [(2, 5), (5, 2)]
        assert [W.shape for W, _ in ann2.params["layers"]] == [
            (2, 50), (50, 50), (50, 50), (50, 2)]


class TestPersistence:
    @pytest.mark.parametrize("arch", ["lr", "dt", "ann"])
    def test_round_trip_bit_exact(self, arch, circles, tmp_path, probe_grid):
        ds = random_sampler(300, circles, RandomSource(15))
        model = train(arch, ds, TrainConfig(seed=5, epochs=20))
        path = model.save(tmp_path / f"model_{arch}")
        loaded = CopyModel.load(path)
        assert loaded.architecture == arch
        assert (loaded.d, loaded.k) == (model.d, model.k)
        np.testing.assert_array_equal(loaded.predict_many(probe_grid),
                                      model.predict_many(probe_grid))
        if arch == "dt":
            for key in ("feature", "threshold", "left", "right", "leaf_label"):
                np.testing.assert_array_equal(loaded.params[key], model.params[key])
        else:
            for (Wa, ba), (Wb, bb) in zip(model.params["layers"],
                                          loaded.params["layers"]):
                np.testing.assert_array_equal(Wa, Wb)
                np.testing.assert_array_equal(ba, bb)

    def test_constant_model_round_trip(self, tmp_path):
        X = RandomSource(16).uniform((10, 2))
        model = train("lr", make_dataset(X, np.zeros(10, dtype=int), k=2))
        loaded = CopyModel.load(model.save(tmp_path / "const"))
        assert loaded.constant_label == 0

    def test_bad_container_rejected(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        np.savez(path, head=np.frombuffer(
            json.dumps({"format": "other/9"}).encode(), dtype=np.uint8))
        with pytest.raises(ValueError):
            CopyModel.load(path)
