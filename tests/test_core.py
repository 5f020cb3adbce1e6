"""Core domain types: RNG contract, datasets, normalization, splits."""

import math
from pathlib import Path

import numpy as np
import pytest

from copysampler import (
    DegenerateColumnError,
    HalfspaceOracle,
    LabeledSample,
    SampleLedger,
    StratificationError,
    SyntheticDataset,
    fit_normalization,
    random_sampler,
    stratified_split,
)
from copysampler import core
from copysampler.core import (
    TARGET_MEAN,
    TARGET_STD,
    RandomSource,
    load_labeled_csv,
    round_half_up,
)


class TestPackageNamespace:
    def test_every_public_name_resolves(self):
        import copysampler

        namespace = {}
        exec("from copysampler import *", namespace)
        assert set(copysampler.__all__) <= set(namespace)
        assert set(copysampler.__all__) <= set(dir(copysampler))

    def test_submodules_import_from_the_package(self):
        from copysampler import cli, core, copies, gp, harness, oracles, samplers

        assert [m.__name__ for m in (cli, core, copies, gp, harness, oracles, samplers)] == [
            f"copysampler.{n}"
            for n in ("cli", "core", "copies", "gp", "harness", "oracles", "samplers")]

    def test_public_name_is_its_submodule_object(self):
        import copysampler
        from copysampler import oracles, train

        assert copysampler.ExternalOracle is oracles.ExternalOracle
        assert train is copysampler.copies.train

    def test_unknown_name_raises_attribute_error(self):
        import copysampler

        with pytest.raises(AttributeError, match="no_such_name"):
            copysampler.no_such_name
        with pytest.raises(ImportError):
            from copysampler import no_such_name  # noqa: F401


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(123).uniform(32)
        b = RandomSource(123).uniform(32)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomSource(1).uniform(8), RandomSource(2).uniform(8))

    def test_derive_is_stable_and_keyed(self):
        a = RandomSource.derive(7, "dataset", "random", 0)
        b = RandomSource.derive(7, "dataset", "random", 0)
        c = RandomSource.derive(7, "dataset", "random", 1)
        assert a.seed == b.seed
        assert a.seed != c.seed

    def test_algorithm_is_pinned(self):
        assert RandomSource(0).algorithm_id == "pcg64"


class TestUniformSample:
    def test_range_containment_1d(self, rng):
        for _ in range(100):
            z = rng.uniform(1)
            assert 0.0 <= z[0] <= 1.0

    def test_mean_matches_uniform_d3(self):
        # CLT: mean of 1e4 draws has sd sqrt(1/12)/100 ~ 0.0029 per coordinate
        rng = RandomSource(11)
        draws = np.array([rng.uniform(3) for _ in range(10_000)])
        assert np.all(np.abs(draws.mean(axis=0) - 0.5) < 0.02)

    def test_deterministic(self):
        z1 = RandomSource(5).uniform(4)
        z2 = RandomSource(5).uniform(4)
        np.testing.assert_array_equal(z1, z2)


def _dataset(n=5, d=2, seed=9):
    rng = RandomSource(seed)
    X = rng.uniform((n, d))
    y = (rng.uniform(n) < 0.5).astype(int)
    return SyntheticDataset(X, y, k=2, generator_id="test", seed=seed, query_count=n)


class TestPrefix:
    def test_empty_prefix(self):
        ds = _dataset()
        assert len(ds.prefix(0)) == 0

    def test_full_prefix_is_identity(self):
        ds = _dataset()
        out = ds.prefix(len(ds))
        np.testing.assert_array_equal(out.X, ds.X)
        np.testing.assert_array_equal(out.y, ds.y)
        assert out.generator_id == ds.generator_id
        assert out.seed == ds.seed

    def test_order_preserved(self):
        ds = _dataset(5)
        out = ds.prefix(3)
        np.testing.assert_array_equal(out.X, ds.X[:3])
        np.testing.assert_array_equal(out.y, ds.y[:3])

    def test_out_of_range(self):
        ds = _dataset(5)
        with pytest.raises(ValueError):
            ds.prefix(6)
        with pytest.raises(ValueError):
            ds.prefix(-1)

    def test_prefix_monotonicity(self):
        ds = _dataset(40)
        rng = RandomSource(3)
        for _ in range(20):
            j2 = rng.integers(41)
            j1 = rng.integers(j2 + 1)
            direct = ds.prefix(j1)
            nested = ds.prefix(j2).prefix(j1)
            np.testing.assert_array_equal(direct.X, nested.X)
            np.testing.assert_array_equal(direct.y, nested.y)

    def test_query_count_invariant(self):
        with pytest.raises(ValueError):
            SyntheticDataset(np.zeros((3, 1)), np.zeros(3), 1, "t", 0, query_count=2)


class TestSampleLedger:
    def test_query_count_starts_at_the_ledger(self, halfspace):
        halfspace.query_many(np.full((7, 2), 0.25))  # spent before the run
        ledger = SampleLedger(halfspace)
        ledger.label(np.full((3, 2), 0.75))
        halfspace.query(np.array([0.1, 0.1]))  # spent and discarded by the run
        ledger.add(np.array([0.9, 0.9]), 1)
        ds = ledger.dataset("unit", seed=5, metadata={"note": 1})
        assert ds.query_count == 4
        assert (len(ds), ds.generator_id, ds.seed, ds.metadata) == (4, "unit", 5, {"note": 1})

    def test_progress_once_per_block_and_per_add(self, halfspace):
        reported = []
        ledger = SampleLedger(halfspace, reported.append)
        ledger.label(np.full((5, 2), 0.75))
        ledger.add(np.array([0.2, 0.3]), 0)
        ledger.add(np.array([0.6, 0.3]), 1)
        ledger.label(np.full((2, 2), 0.25))
        assert reported == [5, 6, 7, 9]
        assert len(ledger) == 9

    def test_points_and_labels_in_arrival_order(self, halfspace):
        blocks = [RandomSource(3).uniform((4, 2)), np.array([[0.4, 0.1]]),
                  RandomSource(4).uniform((6, 2))]
        ledger = SampleLedger(halfspace)
        ledger.label(blocks[0])
        ledger.add(blocks[1][0], 1)  # the caller's label is kept as given
        ledger.label(blocks[2])
        np.testing.assert_array_equal(ledger.X, np.concatenate(blocks))
        expected_y = np.concatenate([halfspace.query_many(blocks[0]), [1],
                                     halfspace.query_many(blocks[2])])
        np.testing.assert_array_equal(ledger.y, expected_y)
        assert ledger.y.dtype == np.int64

    def test_empty_ledger_gives_an_empty_dataset(self, halfspace):
        ds = SampleLedger(halfspace).dataset("unit", seed=0)
        assert ds.X.shape == (0, 2) and len(ds) == 0 and ds.query_count == 0
        assert ds.k == 2 and ds.metadata == {}


class TestDatasetSerialization:
    def test_round_trip_bit_exact(self, tmp_path, halfspace, rng):
        ds = random_sampler(50, halfspace, rng)
        path = ds.to_csv(tmp_path / "ds.csv")
        back = SyntheticDataset.from_csv(path)
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.generator_id == ds.generator_id
        assert back.seed == ds.seed
        assert back.query_count == ds.query_count
        assert back.k == ds.k

    def test_serialization_is_deterministic(self, tmp_path, halfspace):
        a = random_sampler(20, halfspace, RandomSource(1)).to_csv(tmp_path / "a.csv")
        b = random_sampler(20, HalfspaceOracle(w=(1.0, 0.0), c=0.5),
                           RandomSource(1)).to_csv(tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("block", [1, 7])
    def test_text_does_not_depend_on_the_block_size(self, tmp_path, monkeypatch, block):
        ds = _dataset(30, d=3)
        whole = ds.to_csv(tmp_path / "whole.csv").read_bytes()
        monkeypatch.setattr(core, "_CSV_BLOCK_ROWS", block)
        assert ds.to_csv(tmp_path / "blocks.csv").read_bytes() == whole

    def test_header_and_sidecar(self, tmp_path):
        ds = _dataset(3, d=2)
        path = ds.to_csv(tmp_path / "ds.csv")
        first = path.read_text().splitlines()[0]
        assert first == "x0,x1,label"
        assert (tmp_path / "ds.meta.json").exists()

    def test_pair_lands_by_rename_sidecar_first(self, tmp_path, monkeypatch):
        renames = []
        replace = type(tmp_path).replace

        def recording_replace(self, target):
            renames.append((self.name, Path(target).name))
            return replace(self, target)

        monkeypatch.setattr(type(tmp_path), "replace", recording_replace)
        _dataset(4, d=2).to_csv(tmp_path / "ds.csv")
        _dataset(5, d=2).to_csv(tmp_path / "ds.csv")  # over an existing pair
        assert renames == [("ds.csv.meta.json", "ds.meta.json"), ("ds.csv.tmp", "ds.csv")] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.csv", "ds.meta.json"]
        assert len(SyntheticDataset.from_csv(tmp_path / "ds.csv")) == 5

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = SyntheticDataset(np.empty((0, 2)), np.empty(0, dtype=int), 2, "t", 0, 0)
        back = SyntheticDataset.from_csv(ds.to_csv(tmp_path / "e.csv"))
        assert len(back) == 0
        assert back.d == 2


class TestLoadLabeledCsv:
    @pytest.mark.parametrize("first",
                             [".5,0.2,1", "+0.5,0.2,1", "nan,0.2,1", "inf,0.2,1"])
    def test_headerless_first_row_kept(self, tmp_path, first):
        path = tmp_path / "rows.csv"
        path.write_text(f"{first}\n0.9,0.8,0\n0.1,0.1,1\n")
        X, y = load_labeled_csv(path)
        assert X.shape == (3, 2)
        np.testing.assert_array_equal(X[0], np.array(first.split(",")[:2], dtype=float))
        np.testing.assert_array_equal(y, [1, 0, 1])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("x0,x1,label\n.5,0.2,1\n0.9,0.8,0\n")
        X, y = load_labeled_csv(path)
        np.testing.assert_array_equal(X, [[0.5, 0.2], [0.9, 0.8]])
        np.testing.assert_array_equal(y, [1, 0])

    def test_header_only_loads_empty(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("x0,x1,label\n")
        X, y = load_labeled_csv(path)
        assert X.shape == (0, 2)
        assert y.shape == (0,)


class TestNormalization:
    def test_three_point_column(self):
        # independent oracle: straight mean/population-std arithmetic
        col = np.array([[0.0], [1.0], [2.0]])
        sigma = math.sqrt(((col - 1.0) ** 2).mean())
        t = fit_normalization(col)
        got = t.transform(col)[:, 0]
        step = TARGET_STD / sigma
        np.testing.assert_allclose(got, [0.5 - step, 0.5, 0.5 + step], atol=1e-15)

    def test_conforming_column_is_identity(self):
        rng = RandomSource(2)
        raw = rng.normal(400)
        raw = (raw - raw.mean()) / raw.std() * TARGET_STD + TARGET_MEAN
        t = fit_normalization(raw[:, None])
        np.testing.assert_allclose(t.transform(raw[:, None]), raw[:, None], atol=1e-12)
        assert abs(t.scale[0] - 1.0) < 1e-9
        assert abs(t.shift[0]) < 1e-9

    def test_defining_property(self):
        rng = RandomSource(8)
        raw = rng.normal((300, 4)) * 3.0 + 7.0
        out = fit_normalization(raw).transform(raw)
        np.testing.assert_allclose(out.mean(axis=0), TARGET_MEAN, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), TARGET_STD, atol=1e-9)

    def test_constant_column_raises(self):
        raw = np.column_stack([np.arange(5.0), np.full(5, 3.3)])
        with pytest.raises(DegenerateColumnError):
            fit_normalization(raw)

    def test_round_trip_identity(self):
        rng = RandomSource(4)
        for _ in range(5):
            raw = rng.normal((50, 3)) * rng.uniform(3) * 10
            t = fit_normalization(raw)
            np.testing.assert_allclose(t.inverse(t.transform(raw)), raw, atol=1e-12)


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        rng = RandomSource(1)
        X = rng.uniform((100, 2))
        y = np.repeat([0, 1], 50)
        (Xtr, ytr), (Xte, yte) = stratified_split(X, y, 0.8, RandomSource(2))
        assert np.bincount(ytr).tolist() == [40, 40]
        assert np.bincount(yte).tolist() == [10, 10]

    def test_rounding_rule(self):
        # 7/3 class split at 0.8: round-half-up gives 6 and 2 (sums to 8)
        X = np.arange(20.0).reshape(10, 2)
        y = np.array([0] * 7 + [1] * 3)
        (Xtr, ytr), (_, yte) = stratified_split(X, y, 0.8, RandomSource(3))
        counts = np.bincount(ytr, minlength=2)
        assert counts[0] in (5, 6)
        assert counts[1] in (2, 3)
        assert counts.sum() == 8

    def test_deterministic(self):
        X = RandomSource(5).uniform((30, 2))
        y = np.repeat([0, 1, 2], 10)
        first = stratified_split(X, y, 0.7, RandomSource(9))
        second = stratified_split(X, y, 0.7, RandomSource(9))
        np.testing.assert_array_equal(first[0][0], second[0][0])
        np.testing.assert_array_equal(first[1][1], second[1][1])

    def test_singleton_class_raises(self):
        X = np.zeros((4, 1))
        y = np.array([0, 0, 0, 1])
        with pytest.raises(StratificationError):
            stratified_split(X, y, 0.8, RandomSource(0))

    def test_disjoint_and_exhaustive(self):
        X = RandomSource(6).uniform((25, 3))
        y = np.array([0] * 13 + [1] * 12)
        (Xtr, ytr), (Xte, yte) = stratified_split(X, y, 0.6, RandomSource(7))
        assert len(ytr) + len(yte) == 25
        rows = {tuple(r) for r in np.vstack([Xtr, Xte])}
        assert len(rows) == 25  # nothing lost or duplicated

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            stratified_split(np.zeros((4, 1)), np.array([0, 0, 1, 1]), 1.0, RandomSource(0))


class TestRoundHalfUp:
    @pytest.mark.parametrize("x,expect", [(0.5, 1), (1.5, 2), (2.4, 2), (-0.5, 0), (35.631, 36)])
    def test_values(self, x, expect):
        assert round_half_up(x) == expect


class TestSampleOutputsInsideSpace:
    def test_all_sampler_outputs_clipped(self, halfspace):
        ds = random_sampler(500, halfspace, RandomSource(12))
        assert np.all(ds.X >= 0.0) and np.all(ds.X <= 1.0)


class TestLabeledSample:
    def test_fields(self):
        s = LabeledSample(np.array([0.1, 0.2]), 1)
        assert s.label == 1
        assert s.point.shape == (2,)
