"""Synthetic-set generators: budgets, boundary mechanics, determinism."""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import circle_distances, peak_rss_growth_mb

from copysampler import (
    BoundaryParams,
    ConcentricCirclesOracle,
    HalfspaceOracle,
    JacobianParams,
    LabeledSample,
    SyntheticDataset,
    TableOracle,
    TrainConfig,
    TrainingError,
    binary_search_boundary,
    boundary_sampler,
    jacobian_sampler,
    random_sampler,
    thread_step,
)
from copysampler import samplers as samplers_mod
from copysampler.core import RandomSource


class TestRandomSampler:
    def test_single_sample(self, circles):
        ds = random_sampler(1, circles, RandomSource(1))
        assert len(ds) == 1
        assert 0 <= ds.y[0] < circles.k

    def test_class_balance_on_halfspace(self, halfspace):
        ds = random_sampler(10_000, halfspace, RandomSource(2))
        frac0 = np.mean(ds.y == 0)
        assert abs(frac0 - 0.5) < 0.02  # binomial 3 sigma is 0.015

    def test_prefix_reproduces_smaller_budget(self, circles):
        big = random_sampler(1000, circles, RandomSource(3))
        small = random_sampler(100, circles, RandomSource(3))
        np.testing.assert_array_equal(big.prefix(100).X, small.X)
        np.testing.assert_array_equal(big.prefix(100).y, small.y)

    def test_budget_validation(self, circles):
        with pytest.raises(ValueError):
            random_sampler(0, circles, RandomSource(1))

    @pytest.mark.parametrize("N,d", [(10**4, 8), (5000, 2), (4097, 3)])
    def test_blocks_draw_the_points_of_one_block(self, N, d):
        oracle = HalfspaceOracle(w=(1.0,) * d, c=d / 2)
        reported = []
        ds = random_sampler(N, oracle, RandomSource(6), progress=reported.append)
        X = RandomSource(6).uniform((N, d))
        assert ds.X.tobytes() == X.tobytes()
        np.testing.assert_array_equal(ds.y, oracle.query_many(X))
        assert reported == [*range(4096, N, 4096), N]

    def test_memory_is_the_sample_once(self):
        # drawn as one uniform block and copied into the ledger, the sample
        # grew peak RSS by some 139 MiB for these 68.7 MiB
        N, d = 10**6, 8
        grown = peak_rss_growth_mb(
            "from copysampler import HalfspaceOracle, RandomSource, random_sampler\n"
            f"oracle = HalfspaceOracle(w=(1.0,) * {d}, c={d / 2})\n",
            f"ds = random_sampler({N}, oracle, RandomSource(1))\n"
            f"assert len(ds) == {N}")
        assert grown < 1.25 * N * (d + 1) * 8 / 2**20


class TestBinarySearch:
    def test_1d_example_exact_bisection_count(self):
        oracle = HalfspaceOracle(w=(1.0,), c=0.5)
        a = LabeledSample(np.array([0.0]), 0)
        b = LabeledSample(np.array([1.0]), 1)
        (pa, pb), visited = binary_search_boundary(a, b, 0.01, oracle)
        assert len(visited) == 7  # ceil(log2(1 / 0.01))
        gap = float(np.linalg.norm(pa.point - pb.point))
        assert gap < 0.01
        assert pa.label != pb.label
        assert min(pa.point[0], pb.point[0]) < 0.5 <= max(pa.point[0], pb.point[0])

    def test_close_endpoints_skip_search(self, halfspace):
        a = LabeledSample(np.array([0.499, 0.2]), 0)
        b = LabeledSample(np.array([0.501, 0.2]), 1)
        pair, visited = binary_search_boundary(a, b, 0.01, halfspace)
        assert visited == []
        np.testing.assert_array_equal(pair[0].point, a.point)
        np.testing.assert_array_equal(pair[1].point, b.point)

    def test_visited_equals_query_cost(self, halfspace):
        before = halfspace.query_count
        a = LabeledSample(np.array([0.0, 0.5]), 0)
        b = LabeledSample(np.array([1.0, 0.5]), 1)
        _, visited = binary_search_boundary(a, b, 0.01, halfspace)
        assert halfspace.query_count - before == len(visited)

    def test_equal_labels_rejected(self, halfspace):
        a = LabeledSample(np.array([0.1, 0.1]), 0)
        b = LabeledSample(np.array([0.2, 0.2]), 0)
        with pytest.raises(ValueError):
            binary_search_boundary(a, b, 0.01, halfspace)

    def test_randomized_contract(self, circles):
        # straddle + bisection bound over many random endpoint pairs
        rng = RandomSource(44)
        done = 0
        while done < 100:
            za = rng.uniform(2)
            zb = rng.uniform(2)
            ya, yb = circles.query(za), circles.query(zb)
            if ya == yb:
                continue
            d0 = float(np.linalg.norm(za - zb))
            (pa, pb), visited = binary_search_boundary(
                LabeledSample(za, ya), LabeledSample(zb, yb), 0.01, circles
            )
            assert float(np.linalg.norm(pa.point - pb.point)) < 0.01
            assert pa.label != pb.label
            assert len(visited) <= math.ceil(math.log2(max(d0 / 0.01, 1.0))) + 1
            done += 1


class TestBoundaryParams:
    def test_table_formulas_at_1000(self):
        p = BoundaryParams().resolved(1000)
        assert p.runs == 9            # round(2 + ln 1000)
        assert p.max_threads == 36    # round(8 + 4 ln 1000)
        assert p.max_steps == 22      # floor(5 + 2.6 ln 1000)

    def test_epsilon_step_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoundaryParams(epsilon=0.1, step=0.05)

    def test_explicit_values_respected(self):
        p = BoundaryParams(runs=3, max_threads=5, max_steps=7).resolved(10**6)
        assert (p.runs, p.max_threads, p.max_steps) == (3, 5, 7)


class TestThreadStep:
    def _step(self, oracle, point, label, direction, seed, step=0.05):
        return thread_step(np.asarray(point, dtype=float), label,
                           np.asarray(direction, dtype=float), oracle, step,
                           RandomSource(seed))

    def test_flip_needs_normal_component(self, halfspace):
        # u parallel to the boundary: whenever a step is accepted, its
        # direction must tilt across the plane, the only place the label
        # can change; whether one is accepted depends on the drawn
        # orthogonal direction, so scan several seeds
        start = np.array([0.498, 0.5])
        label = halfspace.query(start)
        accepted = 0
        for seed in range(10):
            out = self._step(halfspace, start, label, [0.0, 1.0], seed)
            if out is None:
                continue
            accepted += 1
            probe, probe_label, _ = out
            assert abs((probe - start)[0]) > 1e-12
            assert probe_label != label
        assert accepted >= 3

    def test_step_length_is_exact(self, halfspace):
        start = np.array([0.48, 0.5])
        out = self._step(halfspace, start, halfspace.query(start), [1.0, 0.0], 5)
        assert out is not None
        probe, _, v = out
        assert float(np.linalg.norm(probe - start)) == pytest.approx(0.05, abs=1e-12)
        np.testing.assert_array_equal(probe, start + 0.05 * v)

    def test_direction_stays_unit(self, halfspace):
        _, _, v = self._step(halfspace, [0.45, 0.5], 0, [1.0, 0.0], 6)
        assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-12

    def test_out_of_range_probe_stops_thread(self, halfspace):
        assert self._step(halfspace, [0.999, 0.5], 1, [1.0, 0.0], 7) is None

    def test_no_flip_stops_thread(self):
        constant = HalfspaceOracle(w=(1.0, 0.0), c=2.0)  # label 0 everywhere
        assert self._step(constant, [0.5, 0.5], 0, [1.0, 0.0], 8) is None

    def test_spawn_gap_mean(self):
        # Poisson(5) gaps with zeros rounded up to 1: mean 5 + e^-5
        rng = RandomSource(9)
        gaps = np.array([samplers_mod._draw_spawn_gap(rng, 5.0) for _ in range(10_000)])
        assert gaps.min() >= 1
        assert abs(gaps.mean() - 5.0) < 0.2

    def test_1d_thread_moves(self):
        oracle = HalfspaceOracle(w=(1.0,), c=0.5)
        out = self._step(oracle, [0.48], 0, [1.0], 10)
        assert out is not None
        assert out[1] == 1


class TestBoundarySampler:
    def test_budget_and_range(self, circles):
        ds = boundary_sampler(501, circles, rng=RandomSource(11))
        assert len(ds) == 501
        assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)
        assert ds.query_count >= len(ds)

    def test_half_split_metadata(self, circles):
        ds = boundary_sampler(501, circles, rng=RandomSource(12))
        assert ds.metadata["phase_split"] == 250  # floor(N/2) uniform first

    def test_determinism_byte_for_byte(self, tmp_path, circles):
        import copy

        a = boundary_sampler(300, circles, rng=RandomSource(13))
        b = boundary_sampler(300, copy.deepcopy(circles), rng=RandomSource(13))
        pa = a.to_csv(tmp_path / "a.csv")
        pb = b.to_csv(tmp_path / "b.csv")
        assert pa.read_bytes() == pb.read_bytes()

    def test_constant_oracle_falls_back(self):
        constant = HalfspaceOracle(w=(1.0, 0.0), c=2.0)
        ds = boundary_sampler(2000, constant, rng=RandomSource(14))
        assert len(ds) == 2000
        assert ds.metadata["fallback_uniform"] is True
        assert np.all(ds.y == 0)

    def test_boundary_concentration_smoke(self, circles):
        ds = boundary_sampler(600, circles, rng=RandomSource(15))
        split = ds.metadata["phase_split"]
        dists = circle_distances(circles, ds.X[split:])
        assert np.mean(dists <= 0.1) >= 0.25

    def test_min_budget(self, circles):
        with pytest.raises(ValueError):
            boundary_sampler(1, circles, rng=RandomSource(0))

    def test_memory_is_the_sample_once(self):
        # with every thread row a view that kept its step's whole 21 x d
        # probe array alive, peak RSS grew by some 98 MiB for this 6.9 MiB
        # sample
        rows, d = 10**5, 8
        grown = peak_rss_growth_mb(
            "from copysampler import HalfspaceOracle, RandomSource, boundary_sampler\n"
            f"oracle = HalfspaceOracle(w=(1.0,) * {d}, c={d / 2})\n",
            f"ds = boundary_sampler({rows}, oracle, rng=RandomSource(1))\n"
            f"assert len(ds) == {rows}")
        assert grown < 1.5 * rows * (d + 1) * 8 / 2**20


class TestJacobianSampler:
    def test_offsets_have_step_infinity_norm(self, circles):
        trace: list = []
        jacobian_sampler(200, circles, rng=RandomSource(16), trace=trace)
        assert trace, "augmentation must happen"
        for source, pre_clip in trace:
            offset = pre_clip - source
            assert float(np.abs(offset).max()) == pytest.approx(0.05, abs=1e-15)

    def test_offsets_are_diagonal_in_2d(self, circles):
        trace: list = []
        jacobian_sampler(300, circles, rng=RandomSource(17), trace=trace)
        offsets = np.array([pc - src for src, pc in trace])
        unit = offsets / 0.05
        # each component is -1, 0 (exact zero gradient), or +1, up to the
        # rounding of the source + step addition
        snapped = np.round(unit, 12)
        assert np.all(np.isin(snapped, [-1.0, 0.0, 1.0]))
        diag = np.abs(snapped) == 1.0
        assert diag.all(axis=1).mean() > 0.9  # overwhelmingly diagonal

    def test_refit_cap_formula(self, circles):
        params = JacobianParams().resolved(200)
        assert params.refits == 55  # min(100, round(5 + 200/4))
        ds = jacobian_sampler(200, circles, params=params, rng=RandomSource(18))
        assert ds.metadata["refit_attempts"] <= 55

    def test_budget_exactness(self, circles):
        ds = jacobian_sampler(137, circles, rng=RandomSource(19))
        assert len(ds) == 137
        assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)

    def test_budget_below_seed_count_rejected(self, circles):
        with pytest.raises(ValueError):
            jacobian_sampler(30, circles, rng=RandomSource(20))

    def test_determinism(self, circles):
        import copy

        a = jacobian_sampler(120, circles, rng=RandomSource(21))
        b = jacobian_sampler(120, copy.deepcopy(circles), rng=RandomSource(21))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)


class TestAllSamplersShared:
    @pytest.mark.parametrize("make", [
        lambda o, r: random_sampler(80, o, r),
        lambda o, r: boundary_sampler(80, o, rng=r),
        lambda o, r: jacobian_sampler(80, o, rng=r),
    ])
    def test_budget_range_and_accounting(self, circles, make):
        before = circles.query_count
        ds = make(circles, RandomSource(22))
        assert len(ds) == 80
        assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)
        assert ds.query_count == circles.query_count - before
        assert ds.query_count >= 80


# -- the per-point loops the block samplers replaced ------------------------
#
# Each reference below is the sampler as it was when every uniform point was
# drawn and labelled one at a time.  The block samplers must produce the same
# bytes, spend the same queries and leave the random stream in the same
# place.


def reference_random_sampler(N, oracle, rng):
    q0 = oracle.query_count
    pts, labels = [], []
    for _ in range(N):
        z = rng.uniform(oracle.d)
        pts.append(z)
        labels.append(oracle.query(z))
    return SyntheticDataset(np.array(pts), np.array(labels), oracle.k, "random",
                            rng.seed, oracle.query_count - q0)


@dataclass
class Thread:
    """State of one boundary-hugging chain of samples, as the per-point
    loop kept it between steps."""

    current: LabeledSample
    direction: np.ndarray
    steps_taken: int
    spawn_countdown: int


def reference_thread_step(thread, oracle, step, spawn_rate, rng, pending):
    """`thread_step` one alpha at a time, each probe built and checked alone,
    with the spawn countdown of the sampler's loop kept on the thread."""
    z = thread.current.point
    y = thread.current.label
    d = z.shape[0]
    u = thread.direction
    w = samplers_mod._orthonormal_to(u, rng) if d > 1 else None
    for alpha in samplers_mod.ALPHA_SWEEP:
        if w is None:
            if alpha not in (1.0, -1.0):
                continue
            v = alpha * u
        else:
            v = alpha * u + math.sqrt(max(0.0, 1.0 - alpha * alpha)) * w
        probe = z + step * v
        if np.any(probe < 0.0) or np.any(probe > 1.0):
            return None
        label = oracle.query(probe)
        if label != y:
            countdown = thread.spawn_countdown - 1
            advanced = Thread(current=LabeledSample(probe, label), direction=v,
                              steps_taken=thread.steps_taken + 1,
                              spawn_countdown=countdown)
            if countdown <= 0:
                pending.append(advanced.current)
                advanced.spawn_countdown = samplers_mod._draw_spawn_gap(rng, spawn_rate)
            return advanced
    return None


def reference_boundary_sampler(N, oracle, params, rng):
    params = (params or BoundaryParams()).resolved(N)
    d = oracle.d
    q0 = oracle.query_count
    pts, labels = [], []

    def emit(point, label):
        pts.append(np.asarray(point, dtype=np.float64))
        labels.append(int(label))

    uniform_quota = N // 2
    for _ in range(uniform_quota):
        z = rng.uniform(d)
        emit(z, oracle.query(z))

    fallback = False
    scan_limit = samplers_mod._CONSTANT_SCAN_FACTOR * params.max_steps
    while len(pts) < N and not fallback:
        z_a = rng.uniform(d)
        y_a = oracle.query(z_a)
        same_run = 0
        found = False
        while len(pts) < N:
            z_b, y_b = z_a, y_a
            z_a = rng.uniform(d)
            y_a = oracle.query(z_a)
            emit(z_a, y_a)
            if y_a != y_b:
                found = True
                break
            same_run += 1
            if same_run >= scan_limit:
                fallback = True
                break
        if not found or len(pts) >= N:
            continue
        pair, visited = binary_search_boundary(
            LabeledSample(z_a, y_a), LabeledSample(z_b, y_b), params.epsilon, oracle)
        for sample in visited:
            if len(pts) >= N:
                break
            emit(sample.point, sample.label)
        seed_sample = visited[-1] if visited else pair[1]
        pending = deque([seed_sample] * params.runs)
        starts = 0
        while pending and starts < params.max_threads and len(pts) < N:
            origin = pending.popleft()
            starts += 1
            thread = Thread(current=origin,
                            direction=samplers_mod._random_unit(rng, d),
                            steps_taken=0,
                            spawn_countdown=samplers_mod._draw_spawn_gap(
                                rng, params.spawn_rate))
            while thread.steps_taken < params.max_steps and len(pts) < N:
                advanced = reference_thread_step(thread, oracle, params.step,
                                                 params.spawn_rate, rng, pending)
                if advanced is None:
                    break
                thread = advanced
                emit(thread.current.point, thread.current.label)

    while len(pts) < N:
        z = rng.uniform(d)
        emit(z, oracle.query(z))

    return SyntheticDataset(
        np.array(pts), np.array(labels), oracle.k, "boundary", rng.seed,
        oracle.query_count - q0,
        metadata={
            "phase_split": uniform_quota, "fallback_uniform": fallback,
            "epsilon": params.epsilon, "step": params.step,
            "spawn_rate": params.spawn_rate, "runs": params.runs,
            "max_threads": params.max_threads, "max_steps": params.max_steps,
        },
    )


def reference_jacobian_sampler(N, oracle, params, rng, trace):
    params = (params or JacobianParams()).resolved(N)
    d = oracle.d
    q0 = oracle.query_count
    pts, labels = [], []

    def emit(point, label):
        pts.append(np.asarray(point, dtype=np.float64))
        labels.append(int(label))

    for _ in range(params.seeds_per_refit):
        z = rng.uniform(d)
        emit(z, oracle.query(z))

    substitute = None
    refit_attempts = 0
    refits_skipped = 0
    filled_uniform = False
    while len(pts) < N and refit_attempts < params.refits:
        refit_attempts += 1
        pool = SyntheticDataset(np.array(pts), np.array(labels), oracle.k,
                                "jacobian-substitute-pool", rng.seed, len(pts))
        try:
            substitute = samplers_mod.train(
                "lr", pool,
                TrainConfig(seed=rng.integers(1 << 62), epochs=150, batch_size=256))
        except TrainingError:
            refits_skipped += 1
        for _ in range(params.rounds):
            if len(pts) >= N:
                break
            base_X = np.array(pts)
            base_y = np.array(labels)
            if substitute is not None and substitute.constant_label is None:
                grads = substitute.input_gradients(base_X, base_y)
            else:
                grads = np.zeros_like(base_X)
            for z, grad in zip(base_X, grads):
                if len(pts) >= N:
                    break
                signs = np.sign(grad)
                if not signs.any():
                    signs = np.where(rng.uniform(d) < 0.5, -1.0, 1.0)
                pre_clip = z + params.step * signs
                trace.append((z.copy(), pre_clip.copy()))
                z_new = np.clip(pre_clip, 0.0, 1.0)
                emit(z_new, oracle.query(z_new))

    while len(pts) < N:
        filled_uniform = True
        z = rng.uniform(d)
        emit(z, oracle.query(z))

    return SyntheticDataset(
        np.array(pts), np.array(labels), oracle.k, "jacobian", rng.seed,
        oracle.query_count - q0,
        metadata={
            "refit_attempts": refit_attempts, "refits_skipped": refits_skipped,
            "filled_uniform": filled_uniform,
            "seeds_per_refit": params.seeds_per_refit, "step": params.step,
            "rounds": params.rounds, "refit_cap": params.refits,
        },
    )


def _ring_table():
    """A 1-NN table whose labels mark a ring, so threads have a boundary."""
    X_ref = RandomSource(31).uniform((200, 2))
    return TableOracle(X_ref, (np.linalg.norm(X_ref - 0.5, axis=1) > 0.3).astype(int))


PIN_ORACLES = {
    "circles": lambda: ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.25]),
    "table": _ring_table,
    # every label is 0: the boundary scan gives up, the substitute is constant
    "constant": lambda: ConcentricCirclesOracle(center=(0.5, 0.5), radii=[5.0]),
}


def assert_same_run(ds, ref, rng, ref_rng):
    assert ds.X.tobytes() == ref.X.tobytes()
    assert ds.y.tobytes() == ref.y.tobytes()
    assert ds.query_count == ref.query_count
    assert ds.metadata == ref.metadata
    assert rng.uniform(4).tobytes() == ref_rng.uniform(4).tobytes()


class PatchySubstitute:
    """Stands in for the logistic substitute: its gradient is the offset from
    the centre, with every third row exactly zero, so one round mixes real
    signs with signs drawn from the random stream."""

    constant_label = None

    def input_gradients(self, X, labels):
        grads = X - 0.5
        grads[::3] = 0.0
        return grads


class TestBlocksMatchPerPointLoops:
    @pytest.mark.parametrize("kind", list(PIN_ORACLES))
    def test_random(self, kind):
        rng, ref_rng = RandomSource(41), RandomSource(41)
        ds = random_sampler(300, PIN_ORACLES[kind](), rng)
        ref = reference_random_sampler(300, PIN_ORACLES[kind](), ref_rng)
        assert_same_run(ds, ref, rng, ref_rng)

    @pytest.mark.parametrize("kind", list(PIN_ORACLES))
    def test_boundary(self, kind):
        # max_steps = 3 stops a constant scan after 30 draws, so the
        # fallback fill labels the last 20 points
        params = BoundaryParams(max_steps=3)
        rng, ref_rng = RandomSource(42), RandomSource(42)
        ds = boundary_sampler(100, PIN_ORACLES[kind](), params, rng=rng)
        ref = reference_boundary_sampler(100, PIN_ORACLES[kind](), params, ref_rng)
        assert_same_run(ds, ref, rng, ref_rng)
        assert ds.metadata["fallback_uniform"] is (kind == "constant")

    @pytest.mark.parametrize("make, N, params", [
        (PIN_ORACLES["circles"], 600, None),
        (lambda: HalfspaceOracle(w=(1.0, 1.0, 1.0), c=1.5), 400,
         BoundaryParams(spawn_rate=1.0)),
        (_ring_table, 300, BoundaryParams(spawn_rate=2.0, max_steps=4)),
    ], ids=["circles-default", "halfspace-3d-rate-1", "table-rate-2"])
    def test_boundary_spawns(self, monkeypatch, make, N, params):
        calls = {"gap": 0, "unit": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(samplers_mod, "_draw_spawn_gap",
                            counted("gap", samplers_mod._draw_spawn_gap))
        monkeypatch.setattr(samplers_mod, "_random_unit",
                            counted("unit", samplers_mod._random_unit))
        rng, ref_rng = RandomSource(45), RandomSource(45)
        ds = boundary_sampler(N, make(), params, rng=rng)
        # every thread draws one gap as it starts; the others follow spawns
        assert calls["gap"] > calls["unit"] > 0
        ref = reference_boundary_sampler(N, make(), params, ref_rng)
        assert_same_run(ds, ref, rng, ref_rng)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_thread_step(self, d):
        # starts anywhere in the cube, a third of them within a step of a
        # face, so sweeps end on a flip, on a probe outside, or on neither;
        # the reference thread never spawns, since spawning is the
        # sampler loop's (pinned by the boundary tests here)
        draws = np.random.default_rng(d)
        oracle = HalfspaceOracle(w=np.ones(d), c=d / 2)
        ref_oracle = HalfspaceOracle(w=np.ones(d), c=d / 2)
        ended = set()
        for trial in range(300):
            z = draws.uniform(size=d)
            if trial % 3 == 0:
                z[draws.integers(d)] = draws.choice([0.01, 0.99])
            u = draws.normal(size=d)
            u /= np.linalg.norm(u)
            y = int(z.sum() >= d / 2)
            rng, ref_rng = RandomSource(trial), RandomSource(trial)
            out = thread_step(z, y, u, oracle, 0.2, rng)
            ref = reference_thread_step(Thread(LabeledSample(z, y), u, 0, 10**9),
                                        ref_oracle, 0.2, 5.0, ref_rng, deque())
            assert (out is None) == (ref is None)
            if out is not None:
                probe, label, v = out
                assert probe.tobytes() == ref.current.point.tobytes()
                assert label == ref.current.label
                assert v.tobytes() == ref.direction.tobytes()
            assert oracle.query_count == ref_oracle.query_count
            assert rng.uniform(2).tobytes() == ref_rng.uniform(2).tobytes()
            ended.add("flip" if out is not None else "stop")
        assert ended == {"flip", "stop"}

    @pytest.mark.parametrize("kind", list(PIN_ORACLES))
    @pytest.mark.parametrize("N,params", [
        # seeds 50, a round of 50, then a round cut from 100 to 37
        (137, None),
        # one refit of one round, then 20 uniform points fill the budget
        (120, JacobianParams(refits=1, rounds=1)),
    ])
    def test_jacobian(self, kind, N, params):
        rng, ref_rng = RandomSource(43), RandomSource(43)
        trace, ref_trace = [], []
        ds = jacobian_sampler(N, PIN_ORACLES[kind](), params, rng=rng, trace=trace)
        ref = reference_jacobian_sampler(N, PIN_ORACLES[kind](), params, ref_rng,
                                         ref_trace)
        assert_same_run(ds, ref, rng, ref_rng)
        assert ds.metadata["filled_uniform"] is (params is not None)
        assert len(trace) == len(ref_trace) > 0
        for (src, pre), (ref_src, ref_pre) in zip(trace, ref_trace):
            assert src.tobytes() == ref_src.tobytes()
            assert pre.tobytes() == ref_pre.tobytes()

    def test_jacobian_with_partly_flat_gradients(self, monkeypatch):
        monkeypatch.setattr(samplers_mod, "train", lambda *a, **kw: PatchySubstitute())
        rng, ref_rng = RandomSource(44), RandomSource(44)
        trace, ref_trace = [], []
        ds = jacobian_sampler(137, PIN_ORACLES["circles"](), None, rng=rng, trace=trace)
        ref = reference_jacobian_sampler(137, PIN_ORACLES["circles"](), None,
                                         ref_rng, ref_trace)
        assert_same_run(ds, ref, rng, ref_rng)
        offsets = np.array([pre - src for src, pre in trace])
        assert np.all(np.abs(offsets) == pytest.approx(0.05))
