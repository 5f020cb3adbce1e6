"""Membership-query oracles: labels, boundary distances, query accounting."""

import math

import numpy as np
import pytest

from conftest import circle_distances
from copysampler import (
    CheckerboardOracle,
    ConcentricCirclesOracle,
    HalfspaceOracle,
    Oracle,
    Spiral2DOracle,
    TableOracle,
    random_sampler,
)
from copysampler.core import RandomSource

# One 2-D oracle of each in-process kind.
IN_PROCESS_ORACLES = {
    "halfspace": lambda: HalfspaceOracle(w=(1.0, -0.5), c=0.2),
    "circles": lambda: ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.25]),
    "checkerboard": lambda: CheckerboardOracle(4),
    "spiral": lambda: Spiral2DOracle(turns=1.5),
    "table": lambda: TableOracle(RandomSource(3).uniform((40, 2)), np.arange(40) % 3),
}


class TestHalfspace:
    def test_label_by_sign(self, halfspace):
        assert halfspace.query(np.array([0.7, 0.2])) == 1
        assert halfspace.query(np.array([0.3, 0.9])) == 0

    def test_unnormalized_weights(self):
        oracle = HalfspaceOracle(w=(2.0, 0.0), c=1.0)  # same boundary x0 = 0.5
        assert oracle.query(np.array([0.7, 0.2])) == 1


class TestCircles:
    def test_center_is_inner(self, circles):
        assert circles.query(np.array([0.5, 0.5])) == 0

    def test_distances(self, circles):
        dists = circle_distances(circles, np.array([[0.5, 0.5], [0.9, 0.5]]))
        np.testing.assert_allclose(dists, [0.25, 0.15])

    def test_multi_ring(self):
        oracle = ConcentricCirclesOracle(center=(0.5, 0.5), radii=[0.1, 0.3])
        assert oracle.k == 3
        assert oracle.query(np.array([0.5, 0.5])) == 0
        assert oracle.query(np.array([0.7, 0.5])) == 1
        assert oracle.query(np.array([0.9, 0.5])) == 2


class TestCheckerboard:
    def test_parity(self):
        oracle = CheckerboardOracle(cells_per_dim=2)
        assert oracle.query(np.array([0.25, 0.25])) == 0
        assert oracle.query(np.array([0.75, 0.25])) == 1
        assert oracle.query(np.array([0.75, 0.75])) == 0

    def test_edge_coordinate_stays_in_range(self):
        oracle = CheckerboardOracle(cells_per_dim=4)
        assert oracle.query(np.array([1.0, 1.0])) in (0, 1)


class TestSpiral:
    def test_deterministic_and_binary(self):
        oracle = Spiral2DOracle(turns=1.5)
        rng = RandomSource(3)
        X = rng.uniform((200, 2))
        labels = oracle.query_many(X)
        assert set(np.unique(labels)) <= {0, 1}
        np.testing.assert_array_equal(labels, oracle.query_many(X))

    def test_label_flips_across_boundary(self):
        oracle = Spiral2DOracle(turns=1.0)
        arm = oracle.boundary_curves(256)[0]
        p = arm[100]
        tangent = arm[101] - arm[99]
        normal = np.array([-tangent[1], tangent[0]])
        normal /= np.linalg.norm(normal)
        eps = 5e-3
        assert oracle.query(p + eps * normal) != oracle.query(p - eps * normal)


class TestTableOracle:
    def test_hand_example(self):
        oracle = TableOracle(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        assert oracle.query(np.array([0.9, 0.9])) == 1
        assert oracle.query(np.array([0.1, 0.2])) == 0

    def test_k_is_the_largest_label_plus_one(self):
        oracle = TableOracle(np.array([[0.0], [1.0], [2.0]]), np.array([2, 0, 1]))
        assert oracle.k == 3

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="row 1 has the negative label -1"):
            TableOracle(np.array([[0.0], [1.0]]), np.array([0, -1]))

    @pytest.mark.parametrize("labels, missing", [
        ([0, 2, 2], 1), ([1, 1, 2], 0), ([0, 2**62, 1], 2),
    ], ids=["no-1", "no-0", "huge-label"])
    def test_class_without_a_row_rejected(self, labels, missing):
        with pytest.raises(ValueError, match=rf"no reference table row has the label {missing},"):
            TableOracle(np.array([[0.0], [1.0], [2.0]]), np.array(labels))

    def test_tie_breaks_to_lowest_index(self):
        oracle = TableOracle(np.array([[0.0], [1.0]]), np.array([1, 0]))
        assert oracle.query(np.array([0.5])) == 1  # equidistant, row 0 wins

    def test_matches_brute_force(self):
        rng = RandomSource(17)
        X_ref = rng.uniform((40, 3))
        y_ref = (rng.uniform(40) < 0.4).astype(int)
        oracle = TableOracle(X_ref, y_ref)
        probes = rng.uniform((100, 3))
        got = oracle.query_many(probes)
        expected = np.array([
            y_ref[np.argmin(((X_ref - z) ** 2).sum(axis=1))] for z in probes
        ])
        np.testing.assert_array_equal(got, expected)


def brute_force_labels(X_ref, y_ref, Z):
    """The 1-NN rule by definition: a full distance scan per point."""
    return np.array([y_ref[np.argmin(((X_ref - z) ** 2).sum(axis=1))] for z in Z],
                    dtype=np.int64)


def assert_matches_brute_force(X_ref, y_ref, Z):
    oracle = TableOracle(X_ref, y_ref)
    expected = brute_force_labels(X_ref, y_ref, Z)
    np.testing.assert_array_equal(oracle.query_many(Z), expected)
    np.testing.assert_array_equal([oracle.query(z) for z in Z], expected)


def midpoints(X_ref, rng, n):
    """Points halfway between two random rows; exact for dyadic tables."""
    pairs = rng.integers(0, X_ref.shape[0], size=(n, 2))
    return (X_ref[pairs[:, 0]] + X_ref[pairs[:, 1]]) / 2


class TestTableOracleExactness:
    """`query` and `query_many` agree with a brute-force scan bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_duplicate_rows(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 5, size=(30, 3)) / 4
        X_ref = base[rng.integers(0, 30, size=90)]
        y_ref = rng.integers(0, 3, size=90)
        Z = np.vstack([X_ref[rng.integers(0, 90, size=40)],
                       midpoints(X_ref, rng, 40), rng.uniform(size=(40, 3))])
        assert_matches_brute_force(X_ref, y_ref, Z)

    @pytest.mark.parametrize("seed", range(5))
    def test_midway_between_rows(self, seed):
        rng = np.random.default_rng(seed)
        X_ref = rng.integers(0, 8, size=(50, 2)) / 8
        y_ref = rng.integers(0, 2, size=50)
        assert_matches_brute_force(X_ref, y_ref, midpoints(X_ref, rng, 200))

    def test_midway_query_takes_the_lower_row(self):
        X_ref = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
        oracle = TableOracle(X_ref, np.array([1, 0, 2]))
        assert oracle.query(np.array([1.0, 0.0])) == 1
        np.testing.assert_array_equal(
            oracle.query_many(np.array([[1.0, 0.0], [1.5, 1.0]])), [1, 0])

    @pytest.mark.parametrize("seed", range(5))
    def test_large_offset_small_spread(self, seed):
        # Raw, unnormalized columns around 1e4 with a 1e-3 spread: |q|^2 and
        # |r|^2 dwarf the distances, so the expanded form cancels badly.
        rng = np.random.default_rng(seed)
        X_ref = 1e4 + rng.uniform(-1e-3, 1e-3, size=(60, 4))
        X_ref[30:] = X_ref[rng.integers(0, 30, size=30)]
        y_ref = rng.integers(0, 3, size=60)
        Z = np.vstack([1e4 + rng.uniform(-1e-3, 1e-3, size=(60, 4)),
                       midpoints(X_ref, rng, 60), X_ref[:10]])
        assert_matches_brute_force(X_ref, y_ref, Z)

    def test_single_row(self):
        rng = np.random.default_rng(3)
        X_ref = rng.uniform(size=(1, 3))
        y_ref = np.array([0])  # a lone row's label is the only class, 0
        Z = np.vstack([rng.uniform(size=(20, 3)), X_ref])
        assert_matches_brute_force(X_ref, y_ref, Z)
        assert TableOracle(X_ref, y_ref).query_many(Z).tolist() == [0] * 21

    def test_one_query_per_chunk(self):
        M = TableOracle._CHUNK_PAIRS // 2 + 1
        rng = np.random.default_rng(4)
        X_ref = rng.integers(0, 64, size=(M, 2)) / 64
        y_ref = rng.integers(0, 3, size=M)
        Z = np.vstack([midpoints(X_ref, rng, 4), rng.uniform(size=(4, 2))])
        assert_matches_brute_force(X_ref, y_ref, Z)

    def test_many_chunks(self):
        rng = np.random.default_rng(5)
        M = 1000
        X_ref = rng.integers(0, 10, size=(M, 2)) / 10
        y_ref = rng.integers(0, 4, size=M)
        Z = np.vstack([midpoints(X_ref, rng, 300), rng.uniform(size=(300, 2))])
        assert Z.shape[0] > TableOracle._CHUNK_PAIRS // M
        assert_matches_brute_force(X_ref, y_ref, Z)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_row_queries_a_short_step_apart(self, seed):
        # Random walks like a boundary thread's probes, with jumps, midpoints
        # (ties on the dyadic grid) and rows themselves: most queries are
        # answered from the rows kept near an earlier query.
        rng = np.random.default_rng(seed)
        M, d = 2000, 3
        X_ref = rng.integers(0, 16, size=(M, d)) / 16
        y_ref = rng.integers(0, 3, size=M)
        oracle = TableOracle(X_ref, y_ref)
        Z, z, kept = [], rng.uniform(size=d), 0
        for _ in range(400):
            draw = rng.uniform()
            if draw < 0.05:
                z = rng.uniform(size=d)
            elif draw < 0.2:
                z = midpoints(X_ref, rng, 1)[0]
            elif draw < 0.25:
                z = X_ref[rng.integers(0, M)].copy()
            else:
                z = z + rng.normal(0.0, 0.03, size=d)
            Z.append(z)
        Z = np.array(Z)
        got = []
        for z in Z:
            got.append(oracle.query(z))
            kept += oracle._near is not None
        np.testing.assert_array_equal(got, brute_force_labels(X_ref, y_ref, Z))
        assert kept > 300

    def test_row_tied_at_the_neighbourhood_edge_is_kept(self):
        # The first query c = 0.25 has its nearest row n at 0.125.  Row 0, r,
        # lies 2 * _NEAR_RADIUS beyond that, and z = c + 0.1 is exactly as
        # far from r as from n: the tie goes to row 0 only if r was kept.
        z = 0.25 + 0.1
        X_ref = np.array([[2 * z - 0.125], [0.125]] + [[5.0 + i] for i in range(20)])
        y_ref = np.array([1, 0] + [2] * 20)
        oracle = TableOracle(X_ref, y_ref)
        assert oracle.query(np.array([0.25])) == 0
        assert oracle._near is not None
        assert oracle.query(np.array([z])) == 1
        assert brute_force_labels(X_ref, y_ref, [[z]]).tolist() == [1]

    def test_wrong_length_point_rejected(self):
        oracle = TableOracle(np.zeros((3, 2)), np.array([0, 1, 0]))
        for bad in (np.zeros(1), np.zeros(3)):
            with pytest.raises(ValueError):
                oracle.query(bad)
            with pytest.raises(ValueError):
                oracle.query_many(bad[None, :])

    def test_query_many_of_no_rows(self):
        oracle = TableOracle(np.zeros((3, 2)), np.array([0, 1, 0]))
        labels = oracle.query_many(np.empty((0, 2)))
        assert labels.shape == (0,)
        assert labels.dtype == np.int64

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_row_rejected(self, bad):
        # 1e200 is finite, but its square overflows the row's norm.
        X_ref = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, bad], [2.0, 2.0]])
        with pytest.raises(ValueError, match="row 2 "):
            TableOracle(X_ref, np.array([0, 1, 1, 0]))


class TestOracleContracts:
    def test_repeated_queries_single_value(self, circles):
        z = np.array([0.61, 0.48])
        labels = {circles.query(z) for _ in range(1000)}
        assert len(labels) == 1

    def test_query_counter(self, halfspace):
        before = halfspace.query_count
        halfspace.query(np.zeros(2))
        halfspace.query_many(np.zeros((5, 2)))
        assert halfspace.query_count == before + 6

    def test_dataset_query_accounting(self, circles):
        before = circles.query_count
        ds = random_sampler(100, circles, RandomSource(5))
        assert ds.query_count == circles.query_count - before
        assert ds.query_count >= len(ds)

    @pytest.mark.parametrize("kind", list(IN_PROCESS_ORACLES))
    def test_query_many_matches_loop(self, kind):
        oracle = IN_PROCESS_ORACLES[kind]()
        rng = RandomSource(23)
        X = rng.uniform((50, 2))
        batch = oracle.query_many(X)
        singles = np.array([oracle.query(z) for z in X])
        np.testing.assert_array_equal(batch, singles)
        assert oracle.query_count == 100

    @pytest.mark.parametrize("kind", list(IN_PROCESS_ORACLES))
    @pytest.mark.parametrize("method", ["query", "query_many"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_rejected(self, kind, method, length):
        oracle = IN_PROCESS_ORACLES[kind]()
        z = np.full(length, 0.3)
        with pytest.raises(ValueError, match=rf"\({length},\).*\(2,\)"):
            getattr(oracle, method)(z if method == "query" else np.tile(z, (4, 1)))
        assert oracle.query_count == 0

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            Oracle(0, 2)
        with pytest.raises(ValueError):
            CheckerboardOracle(4, d=0)
