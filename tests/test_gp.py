"""Gaussian-process machinery and the uncertainty-driven samplers."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import circle_distances
from copysampler import (
    ConcentricCirclesOracle,
    FastBayesParams,
    GPPosterior,
    HalfspaceOracle,
    SEKernel,
    TableOracle,
    acquisition_value,
    fast_bayesian_sampler,
    maximize_acquisition,
    posterior_fit,
    random_sampler,
)
import copysampler.gp as gp_mod
from copysampler.cli import main as cli_main
from copysampler.config import VARIANCE_FLOOR, check_kernel
from copysampler.core import RandomSource, SampleLedger, SyntheticDataset
from copysampler.gp import PosteriorFitError, _pattern_search

TOY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy-circles.ini"


def dense_reference(X, y, kern, jitter, Z):
    """Brute-force posterior via explicit matrix inversion."""
    K = kern.matrix(X, X) + jitter * np.eye(len(y))
    Kinv = np.linalg.inv(K)
    Ks = kern.matrix(X, Z)
    mu = Ks.T @ (Kinv @ y)
    var = kern.variance - np.einsum("ij,ik,kj->j", Ks, Kinv, Ks)
    return mu, var


def separated_points(rng, n, d, min_sep=0.1):
    pts = []
    while len(pts) < n:
        z = rng.uniform(d)
        if all(np.linalg.norm(z - p) >= min_sep for p in pts):
            pts.append(z)
    return np.array(pts)


def _kernel_case(n, m, d, same=False, bad=(), seed=0):
    """A builder of (A, B, kernel): n by m points in d dimensions.

    `same` makes B the very array A, `bad` writes (array, row, column,
    value) entries into them.
    """
    def build():
        rng = RandomSource(seed)
        A = rng.uniform((n, d))
        B = A if same else rng.uniform((m, d))
        for which, row, col, value in bad:
            (A if which == "A" else B)[row, col] = value
        return A, B, SEKernel(0.45 * math.sqrt(d), 2.25)
    return build


def _coincident(copy):
    def build():
        A = np.repeat(RandomSource(4).uniform((6, 2)), 3, axis=0)
        A[-1] = A[0]
        return A, (A.copy() if copy else A), SEKernel(0.3, 1.0)
    return build


KERNEL_CASES = {
    "support-300x300": _kernel_case(300, 300, 2, same=True, seed=1),
    "support-300-by-90-queries-d8": _kernel_case(300, 90, 8, seed=2),
    "d1": _kernel_case(37, 6, 1, seed=3),
    "coincident-same-array": _coincident(copy=False),
    "coincident-copy": _coincident(copy=True),
    "inf-nan-coordinates": _kernel_case(12, 9, 3, seed=5, bad=[
        ("A", 0, 0, np.inf), ("A", 1, 2, -np.inf), ("A", 2, 1, np.nan),
        ("B", 3, 0, np.inf), ("B", 4, 1, -np.inf), ("B", 5, 2, np.nan),
        ("A", 3, 0, np.inf), ("A", 3, 1, -np.inf),
    ]),
    "inf-nan-same-array": _kernel_case(10, 10, 2, same=True, seed=6, bad=[
        ("A", 0, 0, np.inf), ("A", 1, 1, -np.inf), ("A", 2, 0, np.nan),
    ]),
    "overflow-and-far": _kernel_case(8, 7, 2, seed=7, bad=[
        ("A", 0, 0, 1e160), ("B", 1, 1, -1e160), ("A", 2, 0, 40.0),
        ("B", 2, 1, 1e-170), ("A", 4, 1, -0.0),
    ]),
}


def kernel_value(kern, z, z2):
    """k(z, z2) through the kernel matrix, the one path the GP takes."""
    return kern.matrix(z[None], z2[None])[0, 0]


class TestKernel:
    def test_zero_distance(self):
        kern = SEKernel(0.4, 2.5)
        z = np.array([0.3, 0.3])
        assert kernel_value(kern, z, z) == pytest.approx(2.5)

    def test_one_length_scale(self):
        kern = SEKernel(0.25, 1.7)
        z = np.array([0.1, 0.1])
        z2 = z + np.array([0.25, 0.0])
        assert kernel_value(kern, z, z2) == pytest.approx(1.7 * math.exp(-0.5))

    def test_long_range_decay(self):
        kern = SEKernel(0.05, 1.0)
        z = np.zeros(2)
        z2 = np.array([0.5, 0.0])  # ten length scales away
        assert kernel_value(kern, z, z2) <= math.exp(-50.0) * (1 + 1e-12)

    def test_defaults_from_problem(self):
        kern = SEKernel.for_problem(d=4, k=3)
        assert kern.length_scale == pytest.approx(0.5 * 2.0)
        assert kern.variance == pytest.approx(0.25 * 9)

    def test_matrix_symmetry(self):
        rng = RandomSource(3)
        X = rng.uniform((8, 3))
        K = SEKernel(0.5, 1.0).matrix(X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-15)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matrix_matches_one_expression_kernel(self, case):
        A, B, kern = KERNEL_CASES[case]()
        with np.errstate(invalid="ignore", over="ignore"):
            expect = reference_kernel_matrix(kern, A, B)
            got = [kern.matrix(A, B), kern.matrix(A, B, (A * A).sum(axis=1))]
        for K in got:
            # NaN entries may differ in sign bit alone: the one-expression
            # kernel negates after its clamp
            nan = np.isnan(expect)
            assert (np.isnan(K) == nan).all()
            assert np.where(nan, 0.0, K).tobytes() == np.where(nan, 0.0, expect).tobytes()

    @pytest.mark.parametrize("make", [
        lambda: SEKernel(math.inf, 1.0),
        lambda: SEKernel(math.nan, 1.0),
        lambda: SEKernel(-math.inf, 1.0),
        lambda: SEKernel(1e160, 1.0),
        lambda: SEKernel(1e-170, 1.0),
        lambda: SEKernel(0.5, math.nan),
        lambda: FastBayesParams(tau=math.inf),
        lambda: FastBayesParams(tau=math.nan),
        lambda: FastBayesParams(slowness=math.inf),
        lambda: FastBayesParams(slowness=math.nan),
        lambda: FastBayesParams(local_iters=math.nan),
        lambda: FastBayesParams(length_scale=math.inf),
        lambda: FastBayesParams(variance=math.nan),
    ], ids=["length-inf", "length-nan", "length-neg-inf", "length-square-overflows",
            "length-square-underflows", "variance-nan", "tau-inf",
            "tau-nan", "slowness-inf", "slowness-nan", "local-iters-nan",
            "params-length-inf", "params-variance-nan"])
    def test_non_finite_parameter_rejected(self, make):
        with pytest.raises(ValueError, match="must be"):
            make()


class TestPosterior:
    def test_single_sample_interpolates(self):
        kern = SEKernel.for_problem(2, 2)
        gp = posterior_fit(np.array([[0.4, 0.6]]), np.array([1.0]), kern)
        (mu,), _ = gp.mean_var(np.array([[0.4, 0.6]]))
        assert abs(mu - 1.0) < 1e-6

    def test_matches_dense_reference(self):
        rng = RandomSource(5)
        kern = SEKernel.for_problem(2, 2)
        X = separated_points(rng, 15, 2)
        y = (X[:, 0] >= 0.5).astype(float)
        gp = posterior_fit(X, y, kern)
        Z = rng.uniform((10, 2))
        mu, var = gp.mean_var(Z)
        mu_ref, var_ref = dense_reference(X, y, kern, gp.jitter, Z)
        np.testing.assert_allclose(mu, mu_ref, atol=1e-8)
        np.testing.assert_allclose(var, var_ref, atol=1e-8)

    def test_duplicated_support_point(self):
        kern = SEKernel.for_problem(2, 2)
        X = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.8]])
        y = np.array([0.0, 0.0, 1.0])
        gp = posterior_fit(X, y, kern)
        (mu,), _ = gp.mean_var(np.array([[0.2, 0.2]]))
        assert abs(mu - 0.0) < 1e-4
        # deduplicated dense reference agrees
        mu_ref, _ = dense_reference(X[1:], y[1:], kern, gp.jitter, np.array([[0.2, 0.2]]))
        assert abs(mu - mu_ref[0]) < 1e-4

    def test_support_interpolation_and_variance(self):
        rng = RandomSource(7)
        kern = SEKernel.for_problem(3, 2)
        X = separated_points(rng, 12, 3)
        y = (X.sum(axis=1) >= 1.5).astype(float)
        gp = posterior_fit(X, y, kern)
        mu, var = gp.mean_var(X)
        assert np.abs(mu - y).max() <= 1e-4
        assert var.max() <= 10 * gp.jitter

    def test_midpoint_matches_dense_reference_1d(self):
        kern = SEKernel.for_problem(1, 2)
        X = np.array([[0.3], [0.7]])
        y = np.array([0.0, 1.0])
        gp = posterior_fit(X, y, kern)
        mid = np.array([[0.5]])
        mu, var = gp.mean_var(mid)
        mu_ref, var_ref = dense_reference(X, y, kern, gp.jitter, mid)
        assert abs(float(mu[0]) - float(mu_ref[0])) <= 1e-8
        assert abs(float(var[0]) - float(var_ref[0])) <= 1e-8

    def test_prior_recovery_far_away(self):
        kern = SEKernel(length_scale=0.05, variance=1.3)
        gp = posterior_fit(np.array([[0.05, 0.05]]), np.array([1.0]), kern)
        (mu,), (var,) = gp.mean_var(np.array([[0.95, 0.95]]))
        assert abs(mu) < 1e-6
        assert abs(var - 1.3) < 1e-6

    def test_factor_reconstructs_covariance(self):
        rng = RandomSource(9)
        kern = SEKernel.for_problem(2, 2)
        X = separated_points(rng, 10, 2)
        gp = posterior_fit(X, (X[:, 0] > 0.5).astype(float), kern)
        K = kern.matrix(X, X) + gp.jitter * np.eye(10)
        err = np.linalg.norm(gp.factor @ gp.factor.T - K)
        assert err < 1e-8

    def test_monotone_variance_reduction(self, monkeypatch):
        rng = RandomSource(11)
        kern = SEKernel.for_problem(2, 2)
        assert kern.variance == 1.0
        monkeypatch.setattr(gp_mod, "JITTER_INITIAL_FACTOR", 1e-10)
        X = separated_points(rng, 30, 2, min_sep=0.05)
        y = (X[:, 1] >= 0.5).astype(float)
        grid = rng.uniform((64, 2))
        prev = None
        for n in range(10, 31, 5):
            gp = posterior_fit(X[:n], y[:n], kern)
            _, var = gp.mean_var(grid)
            mean_var = var.mean()
            if prev is not None:
                assert mean_var <= prev + 1e-9
            prev = mean_var

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            posterior_fit(np.empty((0, 2)), np.empty(0), SEKernel(0.5, 1.0))


class TestAcquisition:
    def test_zero_variance(self):
        assert float(acquisition_value(0.37, 0.0, 10.0)) == 0.0

    def test_integral_mean_gives_variance(self):
        for mu in (-2.0, 0.0, 1.0, 5.0):
            assert float(acquisition_value(mu, 0.8, 10.0)) == pytest.approx(0.8)

    def test_half_fraction_factor(self):
        assert float(acquisition_value(0.5, 1.0, 10.0)) == pytest.approx(1.625, abs=1e-12)
        assert float(acquisition_value(3.5, 2.0, 10.0)) == pytest.approx(3.25, abs=1e-12)

    def test_positivity_on_random_pairs(self):
        rng = RandomSource(13)
        mus = rng.normal(200) * 3
        vars_ = rng.uniform(200)
        vals = acquisition_value(mus, vars_, 10.0)
        assert np.all(vals >= 0)

    def test_value_at_posterior_point(self):
        kern = SEKernel.for_problem(2, 2)
        gp = posterior_fit(np.array([[0.5, 0.5]]), np.array([1.0]), kern)
        (mu,), (var,) = gp.mean_var(np.array([[0.1, 0.9]]))
        expected = var * (1 + 10.0 * (mu - math.floor(mu)) ** 2 * (1 - mu + math.floor(mu)) ** 2)
        value = acquisition_value(mu, var, FastBayesParams().tau)
        assert float(value) == pytest.approx(expected)


class TestMaximizeAcquisition:
    def test_moves_away_from_lone_support(self):
        kern = SEKernel.for_problem(2, 2)
        z0 = np.array([0.5, 0.5])
        gp = posterior_fit(z0[None, :], np.array([1.0]), kern)
        z = maximize_acquisition(gp, z0, 10, RandomSource(1))
        assert np.linalg.norm(z - z0) > 0.02

    def test_flat_prior_stays_put(self):
        gp = FlatPosterior(1.0)
        z0 = np.array([0.3, 0.8])
        z = maximize_acquisition(gp, z0, 10, RandomSource(2))
        np.testing.assert_array_equal(z, z0)

    def test_matches_grid_argmax_1d(self):
        kern = SEKernel.for_problem(1, 2)
        gp = posterior_fit(np.array([[0.1], [0.85]]), np.array([0.0, 1.0]), kern)
        grid = np.linspace(0.0, 1.0, 10_001)[:, None]
        mu, var = gp.mean_var(grid)
        target = float(grid[np.argmax(acquisition_value(mu, var, 10.0))][0])
        assert 0.1 < target < 0.85  # interior, between supports
        z = maximize_acquisition(gp, np.array([target + 0.04]), 12, RandomSource(3))
        assert abs(float(z[0]) - target) < 0.01

    def test_result_stays_in_hypercube(self):
        kern = SEKernel.for_problem(2, 2)
        gp = posterior_fit(np.array([[0.95, 0.95]]), np.array([1.0]), kern)
        z = maximize_acquisition(gp, np.array([0.99, 0.99]), 12, RandomSource(4))
        assert np.all(z >= 0.0) and np.all(z <= 1.0)


class FlatPosterior:
    """A posterior with mean 0 and one variance everywhere: a flat acquisition."""

    def __init__(self, variance):
        self.variance = variance

    def mean_var(self, Z):
        m = np.atleast_2d(Z).shape[0]
        return np.zeros(m), np.full(m, self.variance)


def reference_maximize_acquisition(gp, z0, iters, rng, tau=10.0,
                                   radius=gp_mod.NEIGHBOURHOOD_RADIUS):
    """The one-restart search loop the lockstep search replaced."""
    z0 = np.clip(np.asarray(z0, dtype=np.float64), 0.0, 1.0)
    lo = np.maximum(z0 - radius, 0.0)
    hi = np.minimum(z0 + radius, 1.0)
    z = z0.copy()
    d = z.shape[0]
    mu, var = gp.mean_var(z[None, :])
    best = float(acquisition_value(mu, var, tau)[0])
    h = 2.0 * radius / 3.0
    for _ in range(iters):
        moves = np.zeros((2 * d + 2, d))
        for i in range(d):
            moves[2 * i, i] = h
            moves[2 * i + 1, i] = -h
        u = rng.normal(d)
        norm = float(np.linalg.norm(u))
        if norm > 0:
            moves[-2] = h * u / norm
            moves[-1] = -h * u / norm
        cands = np.clip(z[None, :] + moves, lo, hi)
        mu, var = gp.mean_var(cands)
        vals = acquisition_value(mu, var, tau)
        j = int(np.argmax(vals))
        if vals[j] > best:
            z = cands[j]
            best = float(vals[j])
        else:
            h *= 0.5
    return z


def reference_fast_sampler(N, oracle, params, rng, kern=None, tau=10.0):
    """The serial batch loop: one search and one query per restart.

    It reads only the batching from `params` and takes the kernel (default
    `SEKernel.for_problem`) and tau directly.  Returns the points, the
    labels and whether a batch was cut short.
    """
    kern = kern or SEKernel.for_problem(oracle.d, oracle.k)
    pts = [rng.uniform(oracle.d) for _ in range(params.init_count)]
    labels = [oracle.query(z) for z in pts]
    cut = False
    while len(pts) < N:
        X = np.array(pts)
        yv = np.array(labels, dtype=np.float64)
        if len(pts) > params.cap:
            idx = rng.subset(len(pts), params.cap)
            X, yv = X[idx], yv[idx]
        try:
            gp = gp_mod.posterior_fit(X, yv, kern)
        except PosteriorFitError:
            gp = None
        for _ in range(max(1, gp_mod.round_half_up(X.shape[0] / params.slowness))):
            if len(pts) >= N:
                cut = True
                break
            z0 = rng.uniform(oracle.d)
            z = z0 if gp is None else reference_maximize_acquisition(
                gp, z0, params.local_iters, rng, tau)
            pts.append(z)
            labels.append(oracle.query(z))
    return np.array(pts), np.array(labels), cut


class RowwiseGP:
    """Evaluates a posterior one row at a time.

    A real `mean_var` over many rows rounds by the shape of its matrix
    products, so only a double like this can show that the lockstep search
    takes each restart down its one-restart path.
    """

    def __init__(self, gp):
        self.gp = gp

    def mean_var(self, Z):
        mus, variances = zip(*(self.gp.mean_var(z[None, :]) for z in Z))
        return np.concatenate(mus), np.concatenate(variances)


class ScriptedNormals:
    """Stands in for a RandomSource that yields the rows of U as normals."""

    def __init__(self, U):
        self._rows = iter(U)

    def normal(self, d):
        u = next(self._rows)
        assert u.shape == (d,)
        return u


def _random_posterior(seed, d, n):
    rng = RandomSource(seed)
    X = rng.uniform((n, d))
    y = np.array([rng.integers(3) for _ in range(n)], dtype=np.float64)
    return posterior_fit(X, y, SEKernel.for_problem(d, 3)), rng


class TestLockstepSearch:
    @pytest.mark.parametrize("seed", range(40))
    def test_one_restart_matches_reference_loop(self, seed):
        cases = RandomSource(1000 + seed)
        for _ in range(5):
            d = 1 + cases.integers(4)
            gp, rng = _random_posterior(cases.integers(2**31), d, 1 + cases.integers(60))
            z0 = rng.uniform(d)
            iters = cases.integers(15)
            a, b = RandomSource(seed), RandomSource(seed)
            z = maximize_acquisition(gp, z0, iters, a)
            z_ref = reference_maximize_acquisition(gp, z0, iters, b)
            assert z.tobytes() == z_ref.tobytes()
            assert a.uniform(1) == b.uniform(1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_restarts_follow_their_one_restart_paths(self, d):
        gp, rng = _random_posterior(50 + d, d, 12 + 10 * d)
        gp = RowwiseGP(gp)
        R, iters = 7, 12
        Z0 = rng.uniform((R, d))
        U = rng.normal((R, iters, d))
        U[1] = 0.0                 # no random direction in any round
        U[2, ::3] = 0.0            # none in every third round
        Z0[3, 0] = 0.0             # pinned to a cube face
        Z0[4, d - 1] = 1.0
        Z = _pattern_search(gp, Z0, U, 10.0)
        for r in range(R):
            z_ref = reference_maximize_acquisition(gp, Z0[r], iters, ScriptedNormals(U[r]))
            assert Z[r].tobytes() == z_ref.tobytes()
        assert np.all(Z[3] >= 0.0) and np.all(Z[4] <= 1.0)

    def test_flat_prior_keeps_every_restart(self):
        gp = FlatPosterior(1.0)
        rng = RandomSource(8)
        Z0 = rng.uniform((5, 3))
        Z = _pattern_search(gp, Z0, rng.normal((5, 10, 3)), 10.0)
        np.testing.assert_array_equal(Z, Z0)


class TestLockstepSampler:
    @pytest.mark.parametrize("seed, settings", [
        (1, {}), (2, {}), (3, {}),
        (4, {"tau": 0.5, "length_scale": 0.2, "variance": 2.0}),
    ], ids=["1", "2", "3", "tau-length-scale-variance"])
    def test_matches_serial_batch_loop(self, circles, monkeypatch, seed, settings):
        real_fit = gp_mod.posterior_fit
        monkeypatch.setattr(gp_mod, "posterior_fit",
                            lambda *a, **kw: RowwiseGP(real_fit(*a, **kw)))
        batching = FastBayesParams(cap=40, slowness=5.0)
        # the sampler gets every setting through one group; the reference
        # reads only the batching from it and takes the kernel and tau directly
        kern = (SEKernel(settings["length_scale"], settings["variance"]) if settings
                else SEKernel.for_problem(2, 2))
        tau = settings.get("tau", 10.0)
        a, b = RandomSource(seed), RandomSource(seed)
        ds = fast_bayesian_sampler(83, circles, params=replace(batching, **settings), rng=a)
        X_ref, y_ref, cut = reference_fast_sampler(83, circles, batching, b, kern, tau)
        assert cut  # the last batch was cut short by the budget
        assert ds.X.tobytes() == X_ref.tobytes()
        np.testing.assert_array_equal(ds.y, y_ref)
        assert a.uniform(1) == b.uniform(1)
        assert ds.query_count == 83
        # scaling the variance scales every acquisition value alike, so no
        # point shows it: the kernel the sampler built must carry it
        assert (ds.metadata["tau"], ds.metadata["length_scale"],
                ds.metadata["kernel_variance"]) == (tau, kern.length_scale, kern.variance)

    def test_matches_serial_batch_loop_on_a_table(self, monkeypatch):
        real_fit = gp_mod.posterior_fit
        monkeypatch.setattr(gp_mod, "posterior_fit",
                            lambda *a, **kw: RowwiseGP(real_fit(*a, **kw)))
        params = FastBayesParams(cap=40, slowness=5.0)
        a, b = RandomSource(4), RandomSource(4)
        ds = fast_bayesian_sampler(83, ring_table(), params=params, rng=a)
        X_ref, y_ref, _ = reference_fast_sampler(83, ring_table(), params, b)
        assert ds.X.tobytes() == X_ref.tobytes()
        assert ds.y.tobytes() == y_ref.tobytes()
        assert a.uniform(1) == b.uniform(1)
        assert ds.query_count == 83

    def test_failed_fits_draw_uniform_points_only(self, circles, monkeypatch):
        def fail(*args, **kwargs):
            raise PosteriorFitError("forced")

        monkeypatch.setattr(gp_mod, "posterior_fit", fail)
        a, b = RandomSource(17), RandomSource(17)
        ds = fast_bayesian_sampler(83, circles, rng=a)
        expected = np.array([b.uniform(2) for _ in range(83)])
        assert ds.X.tobytes() == expected.tobytes()
        assert a.uniform(1) == b.uniform(1)
        assert ds.metadata["posterior_fits"] == 0
        assert ds.metadata["fallback_batches"] > 0


def ring_table():
    """A 1-NN table whose labels mark a ring around the centre."""
    X_ref = RandomSource(31).uniform((200, 2))
    return TableOracle(X_ref, (np.linalg.norm(X_ref - 0.5, axis=1) > 0.3).astype(int))


def reference_uniform_init(count, oracle, rng):
    """The per-point loop that labelling one uniform block replaced."""
    pts, labels = [], []
    for _ in range(count):
        z = rng.uniform(oracle.d)
        pts.append(z)
        labels.append(oracle.query(z))
    return pts, labels


class TestUniformInit:
    @pytest.mark.parametrize("make", [
        lambda: ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.25]),
        ring_table,
    ], ids=["circles", "table"])
    def test_matches_per_point_loop(self, make):
        oracle, ref_oracle = make(), make()
        rng, ref_rng = RandomSource(51), RandomSource(51)
        reported = []
        ledger = SampleLedger(oracle, 25, reported.append)
        ledger.label(rng.uniform((25, oracle.d)))
        ref_pts, ref_labels = reference_uniform_init(25, ref_oracle, ref_rng)
        assert ledger.X.tobytes() == np.array(ref_pts).tobytes()
        assert ledger.y.tolist() == ref_labels
        assert oracle.query_count == ref_oracle.query_count == 25
        assert reported == [25]  # one progress call for the block
        assert rng.uniform(4).tobytes() == ref_rng.uniform(4).tobytes()


class TestFastBayesianSampler:
    def test_budget_equal_to_init_is_init_only(self, circles):
        ds = fast_bayesian_sampler(10, circles, rng=RandomSource(21))
        assert len(ds) == 10
        assert ds.metadata["posterior_fits"] == 0

    def test_one_extra_point_batch_arithmetic(self, circles):
        ds = fast_bayesian_sampler(11, circles, rng=RandomSource(22))
        assert len(ds) == 11
        # one fit on the 10 init samples; batch size max(1, round(10/20)) = 1
        assert ds.metadata["posterior_fits"] == 1

    def test_budget_below_init_rejected(self, circles):
        with pytest.raises(ValueError):
            fast_bayesian_sampler(5, circles, rng=RandomSource(1))

    def test_budget_exactness_and_range(self, circles):
        ds = fast_bayesian_sampler(83, circles, rng=RandomSource(23))
        assert len(ds) == 83
        assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)
        assert ds.query_count == len(ds)

    def test_determinism(self, circles):
        a = fast_bayesian_sampler(40, circles, rng=RandomSource(7))
        b = fast_bayesian_sampler(40, circles, rng=RandomSource(7))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_more_dispersed_than_uniform(self, circles):
        # median nearest-neighbour distance over 5 seeds
        def mean_nn(X):
            d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(d2, np.inf)
            return float(np.sqrt(d2.min(axis=1)).mean())

        bayes, unif = [], []
        for seed in range(5):
            ds = fast_bayesian_sampler(300, circles, rng=RandomSource(100 + seed))
            ru = random_sampler(300, circles, RandomSource(200 + seed))
            bayes.append(mean_nn(ds.X))
            unif.append(mean_nn(ru.X))
        assert np.median(bayes) > np.median(unif)

    def test_cap_limits_support(self, circles):
        params = FastBayesParams(cap=30, slowness=5.0)
        ds = fast_bayesian_sampler(60, circles, params=params, rng=RandomSource(9))
        assert len(ds) == 60


def refit_every_point(N):
    """The fast sampler's fully re-optimized setting: one restart per fit, no subset."""
    return FastBayesParams(cap=N, slowness=N)


def reference_refit_every_point_sampler(N, oracle, rng, local_iters=10):
    """The loop that the `cap = N, slowness = N` setting replaced.

    After ten uniform points it refits on every sample, searches from one
    uniform restart and queries that one point, until N are labelled.
    """
    kern = SEKernel.for_problem(oracle.d, oracle.k)
    ledger = SampleLedger(oracle, N)
    ledger.label(rng.uniform((10, oracle.d)))
    fits = 0
    while len(ledger) < N:
        try:
            gp = posterior_fit(ledger.X, ledger.y.astype(np.float64), kern)
            fits += 1
        except PosteriorFitError:
            gp = None
        z0 = rng.uniform(oracle.d)
        z = z0 if gp is None else maximize_acquisition(gp, z0, local_iters, rng)
        ledger.add(z, oracle.query(z))
    return ledger.dataset("bayesian-ref", rng.seed, {"posterior_fits": fits})


class TestReferenceBayesianSampler:
    """The fast sampler at `cap = N, slowness = N`, the fully re-optimized variant."""

    @pytest.mark.parametrize("make", [
        lambda: ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.25]),
        lambda: HalfspaceOracle(w=np.ones(8), c=4.0),
        lambda: TableOracle(RandomSource(7).uniform((500, 3)), np.arange(500) % 3),
    ], ids=["circles", "halfspace-8d", "table-3d"])
    @pytest.mark.parametrize("N", [10, 11, 25, 50, 120])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_refit_every_point_loop(self, make, N, seed):
        ds = fast_bayesian_sampler(N, make(), refit_every_point(N), rng=RandomSource(seed))
        ref = reference_refit_every_point_sampler(N, make(), RandomSource(seed))
        assert ds.X.tobytes() == ref.X.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.query_count == ref.query_count == N
        assert ds.metadata["posterior_fits"] == ref.metadata["posterior_fits"]

    def test_init_matches_fast_variant(self, circles):
        fast = fast_bayesian_sampler(10, circles, rng=RandomSource(33))
        ref = reference_refit_every_point_sampler(10, circles, RandomSource(33))
        np.testing.assert_array_equal(fast.X, ref.X)
        np.testing.assert_array_equal(fast.y, ref.y)

    def test_determinism(self, circles):
        a = fast_bayesian_sampler(25, circles, refit_every_point(25), rng=RandomSource(4))
        b = fast_bayesian_sampler(25, circles, refit_every_point(25), rng=RandomSource(4))
        np.testing.assert_array_equal(a.X, b.X)

    def test_refits_every_sample(self, circles):
        ds = fast_bayesian_sampler(30, circles, refit_every_point(30), rng=RandomSource(5))
        assert ds.metadata["posterior_fits"] == 20  # one per post-init sample

    def test_boundary_focus_not_worse_than_fast(self, circles):
        fast_fracs, ref_fracs = [], []
        for seed in range(5):
            fast = fast_bayesian_sampler(50, circles, rng=RandomSource(300 + seed))
            ref = fast_bayesian_sampler(50, circles, refit_every_point(50),
                                        rng=RandomSource(300 + seed))
            fast_fracs.append(np.mean(circle_distances(circles, fast.X) <= 0.1))
            ref_fracs.append(np.mean(circle_distances(circles, ref.X) <= 0.1))
        assert np.median(ref_fracs) >= np.median(fast_fracs)


def reference_kernel_matrix(kern, A, B):
    """The SE covariance as one expression, a temporary per step."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    sq = (
        (A * A).sum(axis=1)[:, None]
        + (B * B).sum(axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return kern.variance * np.exp(-sq / (2.0 * kern.length_scale**2))


class ReferencePosterior:
    """The posterior through scipy.linalg's public, checked wrappers.

    The yardstick for the direct LAPACK path: `posterior_fit` must give
    this factor, these weights and these means and variances bit for bit.
    """

    def __init__(self, X, y, kern):
        from scipy.linalg import cholesky, solve_triangular

        self.solve = solve_triangular
        self.support_X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        self.kernel = kern
        jit = gp_mod.JITTER_INITIAL_FACTOR * kern.variance
        K = reference_kernel_matrix(kern, self.support_X, self.support_X)
        eye = np.eye(len(y))
        while True:
            try:
                self.factor = cholesky(K + jit * eye, lower=True)
                tmp = solve_triangular(self.factor, y, lower=True)
                self._alpha = solve_triangular(self.factor.T, tmp, lower=False)
                break
            except gp_mod.LinAlgError:
                jit *= 2.0
                if jit > gp_mod.JITTER_MAX_FACTOR * kern.variance:
                    raise PosteriorFitError("reference fit failed") from None
        self.jitter = jit

    def mean_var(self, Z):
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        Ks = reference_kernel_matrix(self.kernel, self.support_X, Z)
        mu = Ks.T @ self._alpha
        V = self.solve(self.factor, Ks, lower=True)
        var = self.kernel.variance - (V * V).sum(axis=0)
        np.maximum(var, 0.0, out=var)
        return mu, var


def _support(seed, n, d, m):
    """Support, targets, queries and a kernel whose 2 l^2 has no exact inverse."""
    rng = RandomSource(seed)
    X = rng.uniform((n, d))
    y = np.array([rng.integers(3) for _ in range(n)], dtype=np.float64)
    return X, y, rng.uniform((m, d)), SEKernel(0.45 * math.sqrt(d), 2.25)


class TestLapackPath:
    """The direct dpotrf/dtrtrs path against scipy's wrappers, bit for bit."""

    @pytest.mark.parametrize("m", [1, 6, 90])
    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_posterior_matches_scipy_path(self, n, d, m):
        X, y, Z, kern = _support(n * 100 + d * 10 + m, n, d, m)
        ref = ReferencePosterior(X, y, kern)
        gp = posterior_fit(X, y, kern)
        assert gp.jitter == ref.jitter
        assert gp.factor.tobytes() == ref.factor.tobytes()
        assert gp._alpha.tobytes() == ref._alpha.tobytes()
        mu, var = gp.mean_var(Z)
        mu_ref, var_ref = ref.mean_var(Z)
        assert mu.tobytes() == mu_ref.tobytes()
        assert var.tobytes() == var_ref.tobytes()

    @pytest.mark.parametrize("n", [37, 300])
    def test_escalated_jitter_matches_scipy_path(self, monkeypatch, n):
        # points on a line, from a jitter far too small to factor with
        X, y, Z, kern = _support(5, n, 1, 6)
        monkeypatch.setattr(gp_mod, "JITTER_INITIAL_FACTOR", 1e-20)
        gp = posterior_fit(X, y, kern)
        ref = ReferencePosterior(X, y, kern)
        assert gp.jitter > 1e-15
        assert gp.jitter == ref.jitter
        assert gp.factor.tobytes() == ref.factor.tobytes()
        assert gp.mean_var(Z)[1].tobytes() == ref.mean_var(Z)[1].tobytes()

    @pytest.mark.parametrize("d", [2, 8])
    def test_sampler_matches_scipy_path(self, monkeypatch, d):
        oracle = ConcentricCirclesOracle(center=[0.5] * d, radii=[0.3, 0.6])
        params = FastBayesParams(cap=30)
        ds = fast_bayesian_sampler(120, oracle, params=params, rng=RandomSource(d))
        monkeypatch.setattr(gp_mod, "posterior_fit",
                            lambda X, y, kern: ReferencePosterior(X, y, kern))
        ref = fast_bayesian_sampler(120, oracle, params=params, rng=RandomSource(d))
        assert ds.X.tobytes() == ref.X.tobytes()
        assert ds.y.tobytes() == ref.y.tobytes()
        assert ds.metadata == ref.metadata

    @pytest.mark.parametrize("K", [
        -np.eye(3),
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.asfortranarray([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ], ids=["negative", "indefinite", "singular-fortran"])
    def test_non_positive_definite_raises(self, K):
        with pytest.raises(gp_mod.LinAlgError):
            gp_mod.cholesky(K, lower=True)

    def test_singular_factor_raises(self):
        L = np.array([[1.0, 0.0], [1.0, 0.0]])
        for a in (L, np.asfortranarray(L)):
            with pytest.raises(gp_mod.LinAlgError):
                gp_mod.solve_triangular(a, np.ones(2), lower=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_raises(self, bad):
        X, y, _, kern = _support(3, 5, 2, 1)
        X[2, 1] = bad  # inf - inf: NaN in K
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(invalid="ignore"):
            posterior_fit(X, y, kern)

    def test_infinite_covariance_raises(self):
        X, y, _, _ = _support(3, 5, 2, 1)
        with pytest.raises(ValueError, match="infs or NaNs"):
            posterior_fit(X, y, SEKernel(0.5, np.inf))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_raise(self, bad):
        X, y, _, kern = _support(3, 5, 2, 1)
        y[4] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            posterior_fit(X, y, kern)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cross_covariance_raises(self, bad):
        X, y, Z, kern = _support(3, 5, 2, 4)
        Z[1, 0] = bad  # inf - inf: NaN in Ks (-inf gives exp(-inf) = 0)
        gp = posterior_fit(X, y, kern)
        with pytest.raises(ValueError, match="infs or NaNs"), np.errstate(invalid="ignore"):
            gp.mean_var(Z)

    def test_infinite_cross_covariance_raises(self):
        X, y, Z, _ = _support(3, 2, 2, 4)
        gp = GPPosterior(X, y, SEKernel(0.5, np.inf), np.eye(2), 1e-12)
        with pytest.raises(ValueError, match="infs or NaNs"):
            gp.mean_var(Z)

    def test_non_finite_factor_rejected_at_build(self):
        L = np.eye(2)
        L[1, 0] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            GPPosterior(np.eye(2), np.zeros(2), SEKernel(0.5, 1.0), L, 1e-12)

    def test_stored_arrays_are_read_only(self):
        X, y, Z, kern = _support(8, 12, 2, 3)
        gp = posterior_fit(X, y, kern)
        for a in (gp.factor, gp.support_X, gp.support_y, gp._alpha):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        X[0, 0] = 0.5  # the caller's arrays stay its own to write


def run_fresh(code: str, timeout: float = 60, **env: str) -> str:
    """The stdout of `code`, run in a fresh interpreter that finds the package.

    Keyword arguments are set in its environment.
    """
    src = str(Path(gp_mod.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, **env, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestJitterEscalation:
    def test_fit_error_when_cap_exceeded(self, monkeypatch):
        # force every factorization to fail so escalation runs out
        import copysampler.gp as gp_mod

        def always_fail(*args, **kwargs):
            raise gp_mod.LinAlgError("forced")

        monkeypatch.setattr(gp_mod, "cholesky", always_fail)
        with pytest.raises(PosteriorFitError):
            posterior_fit(np.array([[0.1], [0.9]]), np.array([0.0, 1.0]),
                          SEKernel(0.5, 1.0))

    def test_variance_floor_keeps_the_starting_jitter_above_0(self):
        # check_kernel's floor is what keeps a config's starting jitter > 0
        assert gp_mod.JITTER_INITIAL_FACTOR * VARIANCE_FLOOR > 0
        check_kernel(0.5, VARIANCE_FLOOR)
        with pytest.raises(ValueError, match="variance must be > 0"):
            check_kernel(0.5, math.nextafter(VARIANCE_FLOOR, 0.0))

    @pytest.mark.parametrize("jitter", ["0.0", "-1e-12", "nan", "inf"])
    def test_jitter_that_cannot_escalate_rejected(self, tmp_path, jitter):
        # Doubling 0, a negative or NaN never passes the cap, so a singular
        # kernel would loop for ever: run it apart, under a timeout.  The
        # config's variance that would start the jitter there (1e-12 times
        # 1e-320 rounds to 0) ends a bayesian sample with a config error,
        # and the posterior still refuses such a start.
        variance = {"0.0": "1e-320", "-1e-12": "-1", "nan": "nan", "inf": "inf"}[jitter]
        config = tmp_path / "v.ini"
        config.write_text("[oracle]\nkind = circles\ncenter = 0.5 0.5\nradii = 0.25\n"
                          f"[samplers.bayesian]\nvariance = {variance}\n")
        out = run_fresh(f"""
            import contextlib, io
            import numpy as np
            import copysampler.gp as gp
            from copysampler import SEKernel
            from copysampler.cli import main
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["sample", "--config", {str(config)!r}, "--method", "bayesian",
                             "--n", "30", "--out", {str(tmp_path / "out.csv")!r}])
            print(code, err.getvalue())
            gp.JITTER_INITIAL_FACTOR = float({jitter!r})
            try:
                gp.posterior_fit(np.full((2, 2), 0.5), np.array([0.0, 1.0]), SEKernel(0.5, 1.0))
            except ValueError as exc:
                print(exc)
        """, timeout=20)
        assert out.startswith("2 config error: ")
        assert not (tmp_path / "out.csv").exists()
        assert "jitter must be finite and > 0" in out

    def test_weights_that_are_not_finite_fall_back_to_uniform(self, tmp_path):
        # at variance 1e-300 the kernel factors, but from about 30 support
        # points on its weights overflow: those batches are drawn uniformly
        config = tmp_path / "v.ini"
        config.write_text("[oracle]\nkind = circles\ncenter = 0.5 0.5\nradii = 0.25\n"
                          "[samplers.bayesian]\nvariance = 1e-300\n")
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(["sample", "--config", str(config), "--method", "bayesian",
                             "--n", "60", "--out", str(out)]) == 0
        ds = SyntheticDataset.from_csv(out)
        assert len(ds) == 60 and ds.metadata["fallback_batches"] > 0


class TestNoNumpyMa:
    """Training, splitting and a sweep leave numpy.ma, which np.unique
    imports (some 5 ms), unloaded.  Fresh interpreters: this one may hold it."""

    def test_training_and_splitting_leave_numpy_ma_unloaded(self):
        out = run_fresh("""
            import sys
            import numpy as np
            from copysampler import TrainConfig, stratified_split, train
            from copysampler.core import RandomSource, SyntheticDataset
            before = "numpy.ma" in sys.modules
            rng = RandomSource(5)
            X = rng.uniform((80, 2))
            y = (X[:, 0] > 0.5).astype(int)
            ds = SyntheticDataset(X, y, k=2, generator_id="t", seed=0, query_count=80)
            for arch in ("lr", "dt"):
                train(arch, ds, TrainConfig(seed=1, epochs=2))
            train("lr", SyntheticDataset(X, np.ones(80, dtype=int), k=2, generator_id="t",
                                         seed=0, query_count=80))
            (_, y_train), _ = stratified_split(X, y, 0.5, rng)
            assert sorted(set(y_train.tolist())) == [0, 1]
            print(before, "numpy.ma" in sys.modules)
        """)
        assert out.split() == ["False", "False"]

    def test_random_sweep_of_the_toy_config_leaves_numpy_ma_unloaded(self, tmp_path):
        # the reference build, lr and dt training, the report and comparison
        out = run_fresh(f"""
            import sys
            from copysampler.cli import main
            code = main(["run", "--config", {str(TOY_CONFIG)!r}, "--method", "random",
                         "--out", {str(tmp_path / "run")!r}])
            print(code, "numpy.ma" in sys.modules)
        """)
        assert out.split()[-2:] == ["0", "False"]


class TestLazyScipy:
    """Only scipy's LAPACK extension loads, at the first posterior fit.

    Each check runs in a fresh interpreter: this process may hold scipy
    already.
    """

    FIT = ("import numpy as np\n"
           "from copysampler import SEKernel, posterior_fit\n"
           "posterior_fit(np.array([[0.1], [0.9]]), np.array([0.0, 1.0]), SEKernel(0.5, 1.0))")

    # a fit, its mean and variance at fixed points, and a digest of their bytes
    DIGEST = """
        import hashlib, numpy as np
        from copysampler import SEKernel, posterior_fit
        from copysampler.core import RandomSource
        rng = RandomSource(9)
        X, Z = rng.uniform((60, 3)), rng.uniform((25, 3))
        gp = posterior_fit(X, (X[:, 0] > 0.5).astype(float), SEKernel(0.4, 2.25))
        parts = (gp.factor, gp._alpha) + gp.mean_var(Z)
        print(hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest())
    """

    @staticmethod
    def loaded_after(code: str, *names: str) -> list[bool]:
        out = run_fresh(f"{code}\nimport sys\nprint(*[n in sys.modules for n in {names!r}])")
        return [word == "True" for word in out.split()[-len(names):]]

    @classmethod
    def scipy_loaded_after(cls, code: str) -> bool:
        return cls.loaded_after(code, "scipy")[0]

    @pytest.mark.parametrize("code", [
        "import copysampler",
        "import copysampler.cli",
        "from copysampler import serve_stdio, Spiral2DOracle",
    ])
    def test_import_leaves_scipy_unloaded(self, code):
        assert not self.scipy_loaded_after(code)

    def test_server_import_loads_only_core_and_oracles(self):
        out = run_fresh("from copysampler import serve_stdio, Spiral2DOracle\n"
                        "import sys\n"
                        "print(*sorted(n for n in sys.modules if n.startswith('copysampler')))")
        assert out.split() == ["copysampler", "copysampler.core", "copysampler.oracles"]

    def test_config_load_and_oracle_build_load_only_config_core_and_oracles(self):
        out = run_fresh("from copysampler import ExternalOracle, load_config\n"
                        f"load_config({str(TOY_CONFIG)!r}).oracle.build().query([0.5, 0.5])\n"
                        "import sys\n"
                        "print(*sorted(n for n in sys.modules if n.startswith('copysampler')))")
        assert out.split() == ["copysampler", "copysampler.config", "copysampler.core",
                               "copysampler.oracles"]

    @pytest.mark.parametrize("code", [
        "from copysampler import Spiral2DOracle, serve_stdio",
        "from copysampler import load_config\n"
        "load_config({toy!r}).oracle.build().query([0.5, 0.5])",
    ], ids=["server", "circles-set-up"])
    def test_set_up_leaves_subprocess_unloaded(self, code):
        # only ExternalOracle.spawn needs it; numpy may load it on its own
        out = run_fresh("import sys, numpy\n"
                        "before = 'subprocess' in sys.modules\n"
                        f"{code.format(toy=str(TOY_CONFIG))}\n"
                        "print(before, 'subprocess' in sys.modules)")
        before, after = out.split()
        assert after == before

    def test_sweep_without_the_bayesian_method_leaves_scipy_unloaded(self, tmp_path):
        config = tmp_path / "no-bayes.ini"
        config.write_text(
            "[experiment]\nrepetitions = 1\n"
            "[oracle]\nkind = circles\ncenter = 0.5 0.5\nradii = 0.25\n"
            "[samplers]\nmethods = random boundary jacobian\n"
            "[copies]\narchitectures = lr dt\nepochs = 5\n"
            "[evaluation]\nn_grid = 60\nreference_size = 500\n"
        )
        out = tmp_path / "run"
        assert not self.scipy_loaded_after(
            "from copysampler import cli\n"
            f"assert cli.main(['run', '--config', {str(config)!r}, "
            f"'--out', {str(out)!r}, '--seed', '3']) == 0"
        )
        assert "jacobian" in (out / "report.csv").read_text()

    def test_posterior_fit_loads_scipy(self):
        # scipy's LAPACK extension, and not the scipy or scipy.linalg package
        assert self.loaded_after(self.FIT, gp_mod._FLAPACK, "scipy", "scipy.linalg") == [
            True, False, False]

    @pytest.mark.parametrize("method, lapack", [("boundary", False), ("bayesian", True)])
    def test_cli_sample_loads_at_most_the_lapack_extension(self, tmp_path, method, lapack):
        code = ("from copysampler.cli import main\n"
                f"assert main(['sample', '--config', {str(TOY_CONFIG)!r}, '--method', "
                f"{method!r}, '--n', '60', '--out', {str(tmp_path / 'ds.csv')!r}]) == 0")
        assert self.loaded_after(code, gp_mod._FLAPACK, "scipy", "scipy.linalg") == [
            lapack, False, False]

    def test_bayesian_bits_do_not_depend_on_the_blas_thread_count(self):
        # unpinned, scipy's OpenBLAS on two threads rounds these solves otherwise
        code = """
            import hashlib
            from copysampler import ConcentricCirclesOracle, FastBayesParams
            from copysampler import fast_bayesian_sampler
            from copysampler.core import RandomSource
            ds = fast_bayesian_sampler(300, ConcentricCirclesOracle((0.5, 0.5), [0.25]),
                                       FastBayesParams(cap=200), rng=RandomSource(1))
            print(hashlib.sha256(ds.X.tobytes()).hexdigest())
        """
        one, two = (run_fresh(code, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert one == two

    def test_scipy_linalg_imported_later_reuses_the_module(self):
        out = run_fresh(self.FIT + """
import sys
import numpy as np
import copysampler.gp as gp
lapack = sys.modules[gp._FLAPACK]
assert "scipy.linalg" not in sys.modules
import scipy.linalg
assert scipy.linalg.lapack.dpotrf is gp._lapack().dpotrf is lapack.dpotrf
assert scipy.linalg.lapack.dtrtrs is lapack.dtrtrs
rng = np.random.default_rng(5)
X = rng.random((40, 3))
K = gp.SEKernel(0.6, 2.0).matrix(X, X)
K[np.diag_indices(40)] += 1e-6
L = gp.cholesky(K, lower=True)
assert L.tobytes() == scipy.linalg.cholesky(K, lower=True).tobytes()
B = rng.random((40, 7))
for a, lower in ((L, True), (L.T, False), (np.ascontiguousarray(L), True)):
    got = gp.solve_triangular(a, B, lower=lower)
    assert got.tobytes() == scipy.linalg.solve_triangular(a, B, lower=lower).tobytes()
print("same")
""")
        assert out.split()[-1] == "same"

    @pytest.mark.parametrize("error", ["ImportError", "OSError"])
    def test_fallback_import_gives_the_same_bits(self, error):
        direct = run_fresh(self.DIGEST + """
        import sys
        print("scipy.linalg" in sys.modules)
        """).split()
        fallback = run_fresh(f"""
        import copysampler.gp as gp
        def refuse():
            raise {error}("refused")
        gp._load_flapack = refuse
        """ + self.DIGEST + """
        import sys
        print("scipy.linalg" in sys.modules)
        """).split()
        assert direct[1] == "False" and fallback[1] == "True"
        assert direct[0] == fallback[0]

    def test_caught_error_is_the_one_scipy_raises(self):
        with pytest.raises(gp_mod.LinAlgError):
            gp_mod.cholesky(-np.eye(2), lower=True)
