"""Acceptance gate: every shipped guarantee, one test per criterion.

Each test prints a PASS/FAIL verdict line (collected by the conftest
terminal-summary hook) and then asserts.  Thresholds and runtime limits are
fixed here, not tuned at runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from copysampler import (
    CheckerboardOracle,
    ConcentricCirclesOracle,
    HalfspaceOracle,
    LabeledSample,
    SEKernel,
    TrainConfig,
    acquisition_value,
    balanced_empirical_fidelity_error,
    binary_search_boundary,
    boundary_sampler,
    build_reference_set,
    empirical_fidelity_error,
    fast_bayesian_sampler,
    fit_normalization,
    jacobian_sampler,
    posterior_fit,
    random_sampler,
    stratified_split,
    train,
)
from copysampler.core import TARGET_MEAN, TARGET_STD, RandomSource
from copysampler.harness import load_config, run_experiment, timing_profile
from copysampler.metrics import read_report_csv


def verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"{num:02d} {name}: {'PASS' if ok else 'FAIL'}" + (
        f"  ({detail})" if detail else ""
    )
    ACCEPTANCE_LINES.append(line)
    print("ACCEPTANCE " + line)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def circles_mid():
    return ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.25])


@pytest.fixture(scope="module")
def circles_reference():
    # one large balanced reference shared by the circle-oracle criteria
    return build_reference_set(circles_mid(), 100_000, True,
                               RandomSource.derive(2024, "circles-ref"))


class TestCriterion01GPCorrectness:
    def test_factored_posterior_matches_dense_reference(self):
        # support sets are oracle-labelled draws in d in [2, 5] with a
        # pairwise separation of 0.2 length scales: the operating regime
        # of the sampler, and the one where the 1e-8 dual-path agreement
        # is numerically meaningful
        start = time.perf_counter()
        rng = RandomSource.derive(2024, "gp-sets")
        worst_agree = 0.0
        worst_interp = 0.0
        worst_var = 0.0
        for trial in range(20):
            d = 2 + rng.integers(4)
            n = 5 + rng.integers(16)
            kern = SEKernel.for_problem(d, 2)
            sep = 0.2 * kern.length_scale
            pts = []
            while len(pts) < n:
                z = rng.uniform(d)
                if all(np.linalg.norm(z - p) >= sep for p in pts):
                    pts.append(z)
            X = np.array(pts)
            w = rng.normal(d)
            oracle = HalfspaceOracle(w=w, c=float(w @ np.full(d, 0.5)))
            y = oracle.query_many(X).astype(float)
            gp = posterior_fit(X, y, kern)

            Z = rng.uniform((50, d))
            mu, var = gp.mean_var(Z)
            K = kern.matrix(X, X) + gp.jitter * np.eye(n)
            Kinv = np.linalg.inv(K)
            Ks = kern.matrix(X, Z)
            mu_ref = Ks.T @ (Kinv @ y)
            var_ref = kern.variance - np.einsum("ij,ik,kj->j", Ks, Kinv, Ks)
            worst_agree = max(worst_agree,
                              float(np.abs(mu - mu_ref).max()),
                              float(np.abs(var - var_ref).max()))

            mu_s, var_s = gp.mean_var(X)
            worst_interp = max(worst_interp, float(np.abs(mu_s - y).max()))
            worst_var = max(worst_var, float(var_s.max() / (10 * gp.jitter)))
        elapsed = time.perf_counter() - start
        ok = worst_agree <= 1e-8 and worst_interp <= 1e-4 and worst_var <= 1.0 \
            and elapsed < 10.0
        verdict(1, "gp-posterior-vs-dense-reference", ok,
                f"dual-path {worst_agree:.2e}, interp {worst_interp:.2e}, "
                f"var/10j {worst_var:.2f}, {elapsed:.1f}s")


class TestCriterion02AcquisitionAlgebra:
    def test_synthesized_mean_variance_pairs(self):
        rng = RandomSource.derive(2024, "acq")
        vars_ = rng.uniform(200) * 3.0
        integral = np.floor(rng.normal(200) * 4)
        worst_int = float(np.abs(acquisition_value(integral, vars_, 10.0) - vars_).max())
        halves = integral + 0.5
        worst_half = float(
            np.abs(acquisition_value(halves, vars_, 10.0) - 1.625 * vars_).max()
        )
        ok = worst_int <= 1e-12 and worst_half <= 1e-12
        verdict(2, "acquisition-algebra", ok,
                f"integral {worst_int:.1e}, half {worst_half:.1e}")


class TestCriterion03BinarySearchContract:
    def test_randomized_runs_on_analytic_oracles(self):
        rng = RandomSource.derive(2024, "bisect")
        oracles = [
            HalfspaceOracle(w=(1.0, 0.4), c=0.6),
            circles_mid(),
            CheckerboardOracle(cells_per_dim=3),
        ]
        eps = 0.01
        done = 0
        worst_gap = 0.0
        ok = True
        while done < 100:
            oracle = oracles[rng.integers(len(oracles))]
            za, zb = rng.uniform(2), rng.uniform(2)
            ya, yb = oracle.query(za), oracle.query(zb)
            if ya == yb:
                continue
            d0 = float(np.linalg.norm(za - zb))
            (pa, pb), visited = binary_search_boundary(
                LabeledSample(za, ya), LabeledSample(zb, yb), eps, oracle
            )
            gap = float(np.linalg.norm(pa.point - pb.point))
            worst_gap = max(worst_gap, gap)
            bound = math.ceil(math.log2(max(d0 / eps, 1.0))) + 1
            if gap >= eps or pa.label == pb.label or len(visited) > bound:
                ok = False
                break
            done += 1
        verdict(3, "binary-search-contract", ok,
                f"100 runs, worst gap {worst_gap:.6f} < {eps}")


class TestCriterion04BoundaryConcentration:
    def test_boundary_sampler_concentrates_near_boundary(self):
        # quarter-circle oracle: the criterion's band is dist <= 2*lambda =
        # 0.1, and the comparison against uniform sampling is only
        # satisfiable when that band occupies well under 15% of the cube,
        # which pins the circle to a corner (centered, the band covers 31%)
        start = time.perf_counter()
        lam = 0.05
        fracs_alg, fracs_rand = [], []
        for seed in range(5):
            oracle = ConcentricCirclesOracle(center=(0.0, 0.0), radii=[0.25])
            ds = boundary_sampler(2000, oracle, rng=RandomSource.derive(2024, "bc", seed))
            split = ds.metadata["phase_split"]
            alg = ds.X[split:]
            d_alg = np.abs(np.linalg.norm(alg - oracle.center, axis=1) - 0.25)
            fracs_alg.append(float(np.mean(d_alg <= 2 * lam)))
            ru = random_sampler(2000, oracle, RandomSource.derive(2024, "rc", seed))
            d_r = np.abs(np.linalg.norm(ru.X - oracle.center, axis=1) - 0.25)
            fracs_rand.append(float(np.mean(d_r <= 2 * lam)))
        elapsed = time.perf_counter() - start
        med_alg = float(np.median(fracs_alg))
        med_rand = float(np.median(fracs_rand))
        ok = med_alg >= 0.25 and med_rand < 0.15 and elapsed < 60.0
        verdict(4, "boundary-concentration", ok,
                f"boundary {med_alg:.2f} >= 0.25, random {med_rand:.2f} < 0.15, "
                f"{elapsed:.1f}s")


class TestCriterion05CopyConvergence:
    def test_dt_on_random_sampling_converges(self, circles_reference):
        start = time.perf_counter()
        errs = {100: [], 10_000: []}
        for seed in range(5):
            ds = random_sampler(10_000, circles_mid(),
                                RandomSource.derive(2024, "conv", seed))
            for n in (100, 10_000):
                model = train("dt", ds.prefix(n), TrainConfig(seed=seed))
                errs[n].append(
                    balanced_empirical_fidelity_error(model.predict_many(circles_reference.X),
                                                      circles_reference.y, circles_reference.k)
                )
        elapsed = time.perf_counter() - start
        med_large = float(np.median(errs[10_000]))
        med_small = float(np.median(errs[100]))
        ok = med_large <= 0.10 and med_large <= med_small + 0.02 and elapsed < 300.0
        verdict(5, "copy-convergence", ok,
                f"R_Fb(1e4) {med_large:.3f} <= 0.10, R_Fb(1e2) {med_small:.3f}, "
                f"{elapsed:.0f}s")


class TestCriterion06BoundarySuitsLR:
    def test_lr_copies_prefer_boundary_samples(self):
        ref = build_reference_set(HalfspaceOracle(w=(1.0, 0.0), c=0.5), 50_000,
                                  True, RandomSource.derive(2024, "hs-ref"))
        b_errs, r_errs = [], []
        for seed in range(5):
            oracle = HalfspaceOracle(w=(1.0, 0.0), c=0.5)
            bd = boundary_sampler(500, oracle, rng=RandomSource.derive(2024, "b6", seed))
            rd = random_sampler(500, oracle, RandomSource.derive(2024, "r6", seed))
            b_errs.append(balanced_empirical_fidelity_error(
                train("lr", bd, TrainConfig(seed=seed)).predict_many(ref.X), ref.y, ref.k))
            r_errs.append(balanced_empirical_fidelity_error(
                train("lr", rd, TrainConfig(seed=seed)).predict_many(ref.X), ref.y, ref.k))
        med_b = float(np.median(b_errs))
        med_r = float(np.median(r_errs))
        ok = med_b <= 0.02 and med_b <= med_r + 0.01
        verdict(6, "boundary-suits-lr", ok,
                f"boundary {med_b:.4f} <= 0.02 and <= random {med_r:.4f} + 0.01")


class TestCriterion07BayesianFewSample:
    def test_bayesian_non_inferior_at_small_budgets(self, circles_reference):
        # the 5-unit net needs a longer schedule to train reliably on 200
        # points; with the default schedule both arms sit near chance and
        # the comparison says nothing
        cfg = TrainConfig(epochs=800, step_size=0.02, batch_size=32)
        bayes_errs, rand_errs = [], []
        for seed in range(5):
            fb = fast_bayesian_sampler(200, circles_mid(),
                                       rng=RandomSource.derive(2024, "fb", seed))
            rd = random_sampler(200, circles_mid(),
                                RandomSource.derive(2024, "rr", seed))
            bayes_errs.append(balanced_empirical_fidelity_error(
                train("ann", fb, replace(cfg, seed=seed)).predict_many(circles_reference.X),
                circles_reference.y, circles_reference.k))
            rand_errs.append(balanced_empirical_fidelity_error(
                train("ann", rd, replace(cfg, seed=seed)).predict_many(circles_reference.X),
                circles_reference.y, circles_reference.k))
        med_b = float(np.median(bayes_errs))
        med_r = float(np.median(rand_errs))
        ok = med_b <= med_r + 0.02
        verdict(7, "bayesian-few-sample", ok,
                f"bayesian {med_b:.3f} <= random {med_r:.3f} + 0.02")


class TestCriterion08CostScaling:
    def test_generation_time_scales_subquadratically(self, tmp_path):
        # cost scaling is time-to-generate at each budget (full runs); a
        # mid-run checkpoint of the boundary sampler would only time its
        # leading uniform block
        cfg_path = tmp_path / "t.ini"
        cfg_path.write_text("[oracle]\nkind = circles\ncenter = 0.5 0.5\n"
                            "radii = 0.25\n")
        cfg = load_config(cfg_path)
        ratios = {}
        for method in ("random", "boundary", "jacobian"):
            times = {}
            for n in (1000, 10_000):
                profile = timing_profile(cfg, method, [n], circles_mid(),
                                         RandomSource.derive(2024, "t8", method, n))
                times[n] = profile.checkpoints[0][1]
            ratios[method] = times[10_000] / max(times[1000], 1e-9)
        bayes = timing_profile(cfg, "bayesian", [1000], circles_mid(),
                               RandomSource.derive(2024, "t8", "bayes"))
        rand = timing_profile(cfg, "random", [1000], circles_mid(),
                              RandomSource.derive(2024, "t8", "rand"))
        bayes_t = bayes.checkpoints[0][1]
        rand_t = rand.checkpoints[0][1]
        ok = all(r <= 15.0 for r in ratios.values()) and bayes_t > rand_t
        detail = ", ".join(f"{m} x{r:.1f}" for m, r in ratios.items())
        verdict(8, "cost-scaling", ok,
                f"{detail}; bayesian {bayes_t:.2f}s > random {rand_t:.3f}s")


class TestCriterion09NormalizationAndSplits:
    def test_normalization_and_stratified_split(self):
        rng = RandomSource.derive(2024, "norm")
        raw = rng.normal((500, 4)) * np.array([3.0, 0.2, 11.0, 1.0]) + 7.0
        out = fit_normalization(raw).transform(raw)
        mean_err = float(np.abs(out.mean(axis=0) - TARGET_MEAN).max())
        std_err = float(np.abs(out.std(axis=0) - TARGET_STD).max())

        X = rng.uniform((137, 3))
        y = np.array([0] * 61 + [1] * 45 + [2] * 31)
        (Xtr, ytr), (Xte, yte) = stratified_split(X, y, 0.8, rng)
        within_one = True
        for cls, count in zip(*np.unique(y, return_counts=True)):
            got = int(np.sum(ytr == cls))
            within_one &= abs(got - 0.8 * count) <= 1.0
        exhaustive = len(ytr) + len(yte) == len(y)
        ok = mean_err <= 1e-9 and std_err <= 1e-9 and within_one and exhaustive
        verdict(9, "normalization-and-splits", ok,
                f"mean err {mean_err:.1e}, std err {std_err:.1e}, "
                f"strata within 1: {within_one}")


class TestCriterion10MetricIdentities:
    def test_balanced_vs_plain_identities(self):
        class Scripted:
            def __init__(self, fn):
                self.fn = fn

            def predict_many(self, X):
                return np.asarray(self.fn(np.atleast_2d(X)), dtype=np.int64)

        rng = RandomSource.derive(2024, "metrics")
        X = rng.uniform((200, 2))
        y = np.repeat([0, 1], 100)
        noisy = Scripted(lambda Z: (rng.uniform(Z.shape[0]) < 0.5).astype(int))
        plain = empirical_fidelity_error(noisy.predict_many(X), y)
        # same predictions replayed for the balanced pass
        preds = noisy.predict_many(X)
        fixed = Scripted(lambda Z: preds)
        balanced = balanced_empirical_fidelity_error(fixed.predict_many(X), y, 2)
        plain_fixed = empirical_fidelity_error(fixed.predict_many(X), y)
        identity_gap = abs(balanced - plain_fixed)

        X2 = np.zeros((100, 1))
        y2 = np.array([0] * 90 + [1] * 10)
        const = Scripted(lambda Z: np.zeros(Z.shape[0], dtype=int))
        bal = balanced_empirical_fidelity_error(const.predict_many(X2), y2, 2)
        pl = empirical_fidelity_error(const.predict_many(X2), y2)
        ok = identity_gap <= 1e-12 and bal == 0.5 and pl == 0.1
        verdict(10, "metric-identities", ok,
                f"identity gap {identity_gap:.1e}, constant copy {bal}/{pl}")


ACCEPTANCE_TOY = """
[experiment]
name = acceptance-toy
seed = 17
repetitions = 3
bayesian_repetitions = 3

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
n_grid = 100 600
reference_size = 3000
"""


class TestCriterion11DeterminismAndResume:
    def test_pipeline_determinism_and_resume(self, tmp_path):
        cfg_path = tmp_path / "toy.ini"
        cfg_path.write_text(ACCEPTANCE_TOY)
        cfg = load_config(cfg_path)

        out = tmp_path / "run"
        run_experiment(cfg, out)
        report_bytes = (out / "report.csv").read_bytes()

        resumed = run_experiment(cfg, out)
        no_recompute = (resumed.datasets_computed == 0
                        and resumed.cells_computed == 0)
        byte_identical = (out / "report.csv").read_bytes() == report_bytes

        # a fresh directory reproduces every fidelity value (wall times are
        # measurements and differ between executions)
        fresh = tmp_path / "fresh"
        run_experiment(cfg, fresh)
        a = read_report_csv(out / "report.csv")
        b = read_report_csv(fresh / "report.csv")
        values_equal = len(a) == len(b) and all(
            (ra.oracle, ra.method, ra.arch, ra.n, ra.seed, ra.r_f, ra.r_fb)
            == (rb.oracle, rb.method, rb.arch, rb.n, rb.seed, rb.r_f, rb.r_fb)
            for ra, rb in zip(a, b)
        )
        ok = no_recompute and byte_identical and values_equal
        verdict(11, "determinism-and-resume", ok,
                f"resume recompute: {resumed.cells_computed}, byte-identical: "
                f"{byte_identical}, fresh-dir values equal: {values_equal}")


class TestCriterion12JacobianSignature:
    def test_offsets_are_signed_steps(self):
        lam = 0.05
        ok = True
        detail = ""
        diag_total = 0
        count = 0
        for seed in range(3):
            trace: list = []
            jacobian_sampler(400, circles_mid(),
                             rng=RandomSource.derive(2024, "jac", seed),
                             trace=trace)
            offsets = np.array([pre - src for src, pre in trace])
            count += len(offsets)
            inf_norms = np.abs(offsets).max(axis=1)
            if not np.allclose(inf_norms, lam, atol=1e-12):
                ok = False
                detail = f"inf-norm range [{inf_norms.min()}, {inf_norms.max()}]"
                break
            snapped = np.round(offsets / lam, 9)
            if not np.all(np.isin(snapped, [-1.0, 0.0, 1.0])):
                ok = False
                detail = "offset components outside {-lam, 0, +lam}"
                break
            diag_total += int((np.abs(snapped) == 1.0).all(axis=1).sum())
        if ok:
            detail = (f"{count} offsets, inf-norm == lambda, "
                      f"{diag_total}/{count} fully diagonal")
        verdict(12, "jacobian-signature", ok, detail)
