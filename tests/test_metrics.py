"""Fidelity metrics, reference sets, quality checks, and comparisons."""

import json

import numpy as np
import pytest

from conftest import peak_rss_growth_mb

from copysampler import (
    CheckerboardOracle,
    ConcentricCirclesOracle,
    RunRecord,
    TableOracle,
    balanced_empirical_fidelity_error,
    build_reference_set,
    compare_methods,
    empirical_fidelity_error,
    train,
)
from copysampler.core import RandomSource, meta_path
from copysampler.metrics import (
    ComparisonError,
    MissingClassError,
    fidelity,
    read_report_csv,
    write_comparison_csv,
    write_report_csv,
)


class _FixedModel:
    """Stand-in copy with a scripted prediction rule."""

    def __init__(self, fn):
        self.fn = fn

    def predict_many(self, X):
        return np.asarray(self.fn(np.atleast_2d(X)), dtype=np.int64)


def constant_model(label):
    return _FixedModel(lambda X: np.full(X.shape[0], label))


class TestEmpiricalFidelityError:
    def test_perfect_copy(self):
        X = RandomSource(1).uniform((50, 2))
        y = (X[:, 0] > 0.5).astype(int)
        model = _FixedModel(lambda Z: (Z[:, 0] > 0.5).astype(int))
        assert empirical_fidelity_error(model.predict_many(X), y) == 0.0

    def test_constant_copy_on_balanced_set(self):
        X = np.zeros((10, 1))
        y = np.array([0, 1] * 5)
        assert empirical_fidelity_error(constant_model(0).predict_many(X), y) == 0.5

    def test_counting(self):
        X = np.zeros((10, 1))
        y = np.array([0] * 7 + [1] * 3)
        assert empirical_fidelity_error(constant_model(0).predict_many(X), y) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_fidelity_error(constant_model(0).predict_many(np.empty((0, 1))), np.empty(0))

    def test_length_mismatch_rejected(self):
        # one prediction array scores both metrics, so it must fit the labels
        y = np.array([0, 1, 1])
        with pytest.raises(ValueError, match="2 predictions for 3 oracle labels"):
            empirical_fidelity_error(np.array([0, 1]), y)
        with pytest.raises(ValueError, match="2 predictions for 3 oracle labels"):
            balanced_empirical_fidelity_error(np.array([0, 1]), y, 2)


class TestBalancedError:
    def test_perfect_copy(self):
        X = RandomSource(2).uniform((40, 2))
        y = (X[:, 1] > 0.3).astype(int)
        model = _FixedModel(lambda Z: (Z[:, 1] > 0.3).astype(int))
        assert balanced_empirical_fidelity_error(model.predict_many(X), y, 2) == 0.0

    def test_imbalanced_constant_copy(self):
        X = np.zeros((100, 1))
        y = np.array([0] * 90 + [1] * 10)
        model = constant_model(0)
        assert balanced_empirical_fidelity_error(model.predict_many(X), y, 2) == 0.5
        assert empirical_fidelity_error(model.predict_many(X), y) == pytest.approx(0.1)

    def test_equals_plain_on_balanced_sets(self):
        rng = RandomSource(3)
        X = rng.uniform((120, 2))
        y = np.repeat([0, 1, 2], 40)
        model = _FixedModel(
            lambda Z: (Z[:, 0] * 3).astype(int).clip(0, 2)
        )
        plain = empirical_fidelity_error(model.predict_many(X), y)
        balanced = balanced_empirical_fidelity_error(model.predict_many(X), y, 3)
        assert abs(plain - balanced) <= 1e-12
        assert fidelity(model, X, y, 3) == (plain, balanced)

    def test_missing_class_names_the_class(self):
        X = np.zeros((10, 1))
        y = np.array([0] * 10)
        with pytest.raises(MissingClassError, match="class 1"):
            balanced_empirical_fidelity_error(constant_model(0).predict_many(X), y, 2)

    def test_bounds(self):
        rng = RandomSource(4)
        X = rng.uniform((60, 2))
        y = np.repeat([0, 1], 30)
        for seed in range(5):
            r = RandomSource(seed)
            model = _FixedModel(lambda Z, r=r: (r.uniform(Z.shape[0]) < 0.5).astype(int))
            err = balanced_empirical_fidelity_error(model.predict_many(X), y, 2)
            assert 0.0 <= err <= 1.0


class TestBuildReferenceSet:
    def test_balanced_halfspace_quota(self, halfspace):
        ref = build_reference_set(halfspace, 1000, True, RandomSource(5))
        assert np.bincount(ref.y, minlength=ref.k).tolist() == [500, 500]
        assert ref.metadata["complete"]
        assert len(ref) == 1000

    def test_single_class_oracle_trivially_balanced(self):
        oracle = TableOracle(np.array([[0.5, 0.5]]), np.array([0]))
        ref = build_reference_set(oracle, 50, True, RandomSource(6))
        assert np.bincount(ref.y, minlength=ref.k).tolist() == [50]
        assert ref.metadata["complete"]

    def test_infeasible_quota_sets_warning(self):
        oracle = ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.01])
        L = 40  # the 100 L = 4000 draws give the inner disk about 1.3 points
        ref = build_reference_set(oracle, L, True, RandomSource(7))
        assert ref.query_count == 100 * L
        assert not ref.metadata["complete"]
        assert len(ref) < L
        counts = np.bincount(ref.y, minlength=ref.k)
        assert counts[1] > counts[0]

    def test_unbalanced_is_plain_uniform(self, circles):
        ref = build_reference_set(circles, 2000, False, RandomSource(8))
        assert len(ref) == 2000
        # class-0 share approximates the inner-disk volume pi/16
        assert abs(np.bincount(ref.y, minlength=ref.k)[0] / 2000 - np.pi / 16) < 0.04

    def test_deterministic(self, circles):
        import copy

        a = build_reference_set(copy.deepcopy(circles), 500, True, RandomSource(9))
        b = build_reference_set(copy.deepcopy(circles), 500, True, RandomSource(9))
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("balanced", [True, False])
    def test_sidecar_records_provenance(self, circles, tmp_path, balanced):
        ref = build_reference_set(circles, 300, balanced, RandomSource(14))
        side = json.loads(meta_path(ref.to_csv(tmp_path / "reference.csv")).read_text())
        assert side["generator_id"] == "reference"
        assert side["seed"] == RandomSource(14).seed
        assert side["query_count"] == circles.query_count
        assert side["query_count"] > 300 if balanced else side["query_count"] == 300
        assert side["metadata"] == {"complete": True, "balanced": balanced}

    @pytest.mark.parametrize("balanced", [True, False])
    def test_memory_is_the_set_once(self, balanced):
        # kept as blocks and concatenated at the end, the set grew peak RSS
        # by some 139 MiB for these 68.7 MiB, either way
        L, d = 10**6, 8
        grown = peak_rss_growth_mb(
            "from copysampler import HalfspaceOracle, RandomSource, build_reference_set\n"
            f"oracle = HalfspaceOracle(w=(1.0,) * {d}, c={d / 2})\n",
            f"ref = build_reference_set(oracle, {L}, {balanced}, RandomSource(2))\n"
            f"assert len(ref) == {L}")
        assert grown < 1.25 * L * (d + 1) * 8 / 2**20

    def test_uneven_quota_assignment(self):
        oracle = ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.3])
        ref = build_reference_set(oracle, 101, True, RandomSource(10))
        counts = np.bincount(ref.y, minlength=ref.k)
        assert sorted(counts.tolist()) == [50, 51]
        assert counts[0] == 51  # lower class indices get the extra


def loop_balanced_reference(oracle, L, rng, max_attempts):
    """The balanced reference set's per-row accept loop, as a yardstick.

    Returns (X, y, attempts, complete) as `build_reference_set` once
    computed them one row at a time.
    """
    k, d = oracle.k, oracle.d
    base, extra = divmod(L, k)
    quotas = np.full(k, base, dtype=np.int64)
    quotas[:extra] += 1
    counts = np.zeros(k, dtype=np.int64)
    accepted_X, accepted_y = [], []
    attempts = 0
    while attempts < max_attempts and counts.sum() < L:
        chunk = min(4096, max_attempts - attempts)
        Xc = rng.uniform((chunk, d))
        yc = oracle.query_many(Xc)
        attempts += chunk
        for row, cls in zip(Xc, yc):
            if counts[cls] < quotas[cls]:
                counts[cls] += 1
                accepted_X.append(row)
                accepted_y.append(int(cls))
                if counts.sum() == L:
                    break
    X = np.array(accepted_X) if accepted_X else np.empty((0, d))
    return X, np.array(accepted_y, dtype=np.int64), attempts, bool(counts.sum() == L)


class TestBalancedAcceptMatchesLoop:
    """The vectorised accept step keeps the rows the per-row loop kept."""

    @pytest.mark.parametrize("oracle, L, fillable", [
        (ConcentricCirclesOracle((0.5, 0.5), [0.25]), 3, True),
        (ConcentricCirclesOracle((0.5, 0.5), [0.25]), 20_000, True),
        (ConcentricCirclesOracle((0.5, 0.5), [0.25]), 100_000, True),
        (ConcentricCirclesOracle((0.5, 0.5), [0.2, 0.4]), 20_001, True),
        (CheckerboardOracle(cells_per_dim=3, d=3), 20_000, True),
        (CheckerboardOracle(cells_per_dim=3, d=3), 100_000, True),
        # 100 L = 10,000 draws, two full blocks and a partial one
        (ConcentricCirclesOracle((0.5, 0.5), [0.01]), 100, False),
    ], ids=["circles-3", "circles-2e4", "circles-1e5", "rings-2e4+1",
            "checkerboard3d-2e4", "checkerboard3d-1e5", "unfillable"])
    def test_same_rows_counts_and_completeness(self, oracle, L, fillable):
        seed = 40 + L
        ref = build_reference_set(oracle, L, True, RandomSource(seed))
        X, y, attempts, complete = loop_balanced_reference(
            oracle, L, RandomSource(seed), 100 * L)
        assert ref.X.tobytes() == X.tobytes() and ref.X.shape == X.shape
        assert ref.y.tobytes() == y.tobytes()
        assert ref.query_count == attempts
        assert ref.metadata["complete"] is complete
        assert complete is fillable


class TestEstimatorConsistency:
    def test_planted_shifted_copy_matches_volume(self, halfspace):
        # copy boundary planted at x0 = 0.43: the disagreement region is the
        # slab 0.43 <= x0 < 0.5 of volume 0.07, all inside true class 0
        model = _FixedModel(lambda Z: (Z[:, 0] >= 0.43).astype(int))
        ref = build_reference_set(halfspace, 100_000, True, RandomSource(11))
        balanced = balanced_empirical_fidelity_error(model.predict_many(ref.X), ref.y, ref.k)
        # class-0 agreement 0.43/0.5, class-1 agreement 1.0
        assert abs(balanced - 0.07) < 0.01
        plain = empirical_fidelity_error(model.predict_many(ref.X), ref.y)
        assert abs(plain - 0.07) < 0.01


def quality_checks(ref, original_train, arch):
    """The paper's quality checks: `arch` refit on the reference set, its
    balanced error on that set and on the original training data."""
    model = train(arch, ref)
    _, on_ref = fidelity(model, ref.X, ref.y, ref.k)
    _, on_original = fidelity(model, *original_train, ref.k)
    return on_ref, on_original


class TestQualityChecks:
    def test_halfspace_lr(self, halfspace):
        ref = build_reference_set(halfspace, 10_000, True, RandomSource(12))
        X_orig = RandomSource(13).uniform((2000, 2))
        y_orig = halfspace.query_many(X_orig)
        r_w, r_d = quality_checks(ref, (X_orig, y_orig), "lr")
        assert r_w <= 0.02
        assert r_d <= 0.03


def report(method, n, r_fb, oracle="toy", arch="dt", seed=0):
    return RunRecord(oracle=oracle, method=method, arch=arch, n=n, seed=seed,
                     r_f=r_fb, r_fb=r_fb, wall_time_s=0.0)


def summarized_compare(records, tie_margin):
    """The comparison as it was made in two passes: each (oracle, method,
    arch, N) cell summarized to its median R_Fb first, then one value per
    method and cell compared."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.oracle, rec.method, rec.arch, rec.n), []).append(rec)
    cells = {}
    for (oracle, method, arch, n), rows in sorted(groups.items()):
        cells.setdefault(method, {})[(oracle, arch, n)] = float(
            np.median(np.array([r.r_fb for r in rows])))
    methods = sorted(cells)
    matrix = {}
    for a in methods:
        for b in methods:
            if a == b:
                continue
            wins = ties = losses = 0
            for cell in cells[methods[0]]:
                delta = cells[a][cell] - cells[b][cell]
                if abs(delta) <= tie_margin:
                    ties += 1
                elif delta < 0:
                    wins += 1
                else:
                    losses += 1
            matrix[(a, b)] = (wins, ties, losses)
    return matrix


class TestCompareMethods:
    def test_identical_reports_all_ties(self):
        a = [report("a", 100, 0.1), report("a", 1000, 0.05)]
        b = [report("b", 100, 0.1), report("b", 1000, 0.05)]
        matrix = compare_methods(a + b, 0.01)
        assert matrix[("a", "b")] == (0, 2, 0)
        assert matrix[("b", "a")] == (0, 2, 0)

    def test_clear_victory(self):
        a = [report("a", 100, 0.10)]
        b = [report("b", 100, 0.20)]
        matrix = compare_methods(a + b, 0.01)
        assert matrix[("a", "b")] == (1, 0, 0)
        assert matrix[("b", "a")] == (0, 0, 1)

    def test_antisymmetry_on_random_inputs(self):
        rng = RandomSource(14)
        methods = ["m1", "m2", "m3"]
        cells = [(n, arch) for n in (10, 100) for arch in ("lr", "dt")]
        reports = [report(m, n, float(rng.uniform(1)[0]), arch=arch)
                   for m in methods for n, arch in cells]
        matrix = compare_methods(reports, 0.05)
        for a in methods:
            for b in methods:
                if a == b:
                    continue
                wa, ta, la = matrix[(a, b)]
                wb, tb, lb = matrix[(b, a)]
                assert (wa, ta, la) == (lb, tb, wb)

    def test_mismatched_grids_rejected(self):
        a = [report("a", 100, 0.1)]
        b = [report("b", 1000, 0.1)]
        with pytest.raises(ComparisonError):
            compare_methods(a + b)

    def test_single_method_rejected(self):
        with pytest.raises(ComparisonError):
            compare_methods([report("a", 10, 0.1)])

    def test_median_not_mean_decides(self):
        # a's median 0.10 beats b's 0.20 by more than the margin, while
        # a's mean, 0.30 with its one bad repetition, would lose
        a = [report("a", 100, fb, seed=s) for s, fb in enumerate([0.05, 0.10, 0.75])]
        b = [report("b", 100, fb, seed=s) for s, fb in enumerate([0.19, 0.20, 0.21])]
        assert np.mean([r.r_fb for r in a]) > np.mean([r.r_fb for r in b])
        matrix = compare_methods(a + b, 0.01)
        assert matrix[("a", "b")] == (1, 0, 0)
        assert matrix[("b", "a")] == (0, 0, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_summarize_then_compare(self, seed):
        # 3 methods x 2 archs x 2 budgets, 1-6 repetitions per cell, in
        # shuffled order; values on a coarse grid so that ties happen too
        draws = np.random.default_rng(seed)
        records = [
            report(method, n, float(draws.integers(0, 20)) / 40, arch=arch, seed=rep)
            for method in ("random", "boundary", "jacobian")
            for arch in ("lr", "dt")
            for n in (100, 1000)
            for rep in range(int(draws.integers(1, 7)))
        ]
        records = [records[i] for i in draws.permutation(len(records))]
        margin = float(draws.choice([0.0, 0.01, 0.05]))
        assert compare_methods(records, margin) == summarized_compare(records, margin)


class TestSummaries:
    def test_report_csv_round_trip(self, tmp_path):
        records = [
            RunRecord("toy", "random", "dt", 100, 7, 0.125, 0.25, 1.5),
            RunRecord("toy", "boundary", "lr", 1000, 8, 0.1, 0.2, 2.5),
        ]
        path = write_report_csv(records, tmp_path / "report.csv")
        assert read_report_csv(path) == records

    def test_comparison_csv_format(self, tmp_path):
        path = write_comparison_csv({("a", "b"): (1, 2, 3)}, tmp_path / "c.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "method_a,method_b,victories,ties,losses"
        assert lines[1] == "a,b,1,2,3"
