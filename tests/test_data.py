import numpy as np
import pytest

from fedlora.data import Dataset, dirichlet_partition, generate, split
from fedlora.linalg import make_rng


def label_hist(ds, num_classes):
    return np.bincount(ds.labels, minlength=num_classes) / max(len(ds), 1)


class TestGenerate:
    def test_well_separated_blobs_are_linearly_classifiable(self):
        ds = generate(6, 50, 8, 20.0, make_rng(0))
        means = np.stack([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(6)])
        pred = np.argmin(
            ((ds.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2),
            axis=1)
        assert (pred == ds.labels).mean() >= 0.99

    def test_single_sample_per_class(self):
        ds = generate(4, 1, 3, 2.0, make_rng(1))
        assert len(ds) == 4
        assert set(ds.labels.tolist()) == {0, 1, 2, 3}

    def test_minimum_pairwise_mean_separation(self):
        ds = generate(5, 200, 6, 3.0, make_rng(2))
        means = np.stack([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(5)])
        for i in range(5):
            for j in range(i + 1, 5):
                # empirical means wobble around the true ones by ~1/sqrt(n)
                assert np.linalg.norm(means[i] - means[j]) > 3.0 - 0.5

    def test_seeded_rerun_is_identical(self):
        a = generate(3, 10, 4, 2.0, make_rng(9))
        b = generate(3, 10, 4, 2.0, make_rng(9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            generate(0, 5, 3, 1.0, make_rng(0))
        with pytest.raises(ValueError):
            generate(2, 5, 3, 0.0, make_rng(0))


class TestDirichletPartition:
    def partition(self, ds, concentration, devices, min_shard=2, seed=0):
        return dirichlet_partition(ds, devices, concentration, min_shard, seed)

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = generate(5, 40, 4, 2.0, make_rng(3))
        shards = self.partition(ds, 1.0, 7)
        assert sum(len(s) for s in shards) == len(ds)
        seen = []
        for s in shards:
            seen.extend(map(tuple, np.round(s.features, 9)))
        assert len(set(seen)) == len(ds)

    def test_minimum_shard_size_enforced(self):
        ds = generate(4, 30, 4, 2.0, make_rng(4))
        shards = self.partition(ds, 0.1, 6, min_shard=10)
        assert all(len(s) >= 10 for s in shards)

    def test_huge_concentration_approaches_uniform(self):
        ds = generate(4, 100, 4, 2.0, make_rng(5))
        devs = 5
        for seed in range(10):
            shards = self.partition(ds, 1e6, devs, seed=seed)
            for s in shards:
                hist = label_hist(s, 4)
                assert np.max(np.abs(hist - 0.25)) < 0.05

    def test_small_concentration_skews_labels(self):
        ds = generate(4, 100, 4, 2.0, make_rng(6))
        doms = []
        for seed in range(10):
            shards = self.partition(ds, 0.1, 5, seed=seed)
            doms.extend(label_hist(s, 4).max() for s in shards)
        assert np.median(doms) > 0.25  # dominant class above the uniform share

    def test_skew_decreases_with_concentration(self):
        ds = generate(5, 80, 4, 2.0, make_rng(7))
        spread = []
        for conc in (0.1, 1.0, 10.0, 1e6):
            dists = []
            for seed in range(20):
                shards = self.partition(ds, conc, 6, seed=seed)
                global_hist = label_hist(ds, 5)
                dists.extend(np.abs(label_hist(s, 5) - global_hist).sum()
                             for s in shards)
            spread.append(np.mean(dists))
        assert spread == sorted(spread, reverse=True)

    def test_deterministic_given_seed(self):
        ds = generate(3, 30, 4, 2.0, make_rng(8))
        a = self.partition(ds, 1.0, 4, seed=5)
        b = self.partition(ds, 1.0, 4, seed=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features, sb.features)
            assert np.array_equal(sa.labels, sb.labels)

    def test_infeasible_minimum_rejected(self):
        ds = generate(2, 5, 3, 2.0, make_rng(0))
        with pytest.raises(ValueError):
            self.partition(ds, 1.0, 2, min_shard=50)

    def test_more_devices_than_samples_rejected(self):
        ds = generate(2, 1, 3, 2.0, make_rng(0))
        with pytest.raises(ValueError):
            self.partition(ds, 1.0, 10)


class TestSplit:
    def test_even_split(self):
        ds = Dataset(np.arange(24.0).reshape(12, 2),
                     np.array([0] * 6 + [1] * 6), 2)
        tr, te = split(ds, 0.5, make_rng(0))
        assert len(tr) == 6 and len(te) == 6

    def test_disjoint_and_exhaustive(self):
        ds = generate(3, 20, 4, 2.0, make_rng(1))
        tr, te = split(ds, 0.8, make_rng(2))
        assert len(tr) + len(te) == len(ds)
        rows = {tuple(r) for r in np.round(tr.features, 9)} | \
            {tuple(r) for r in np.round(te.features, 9)}
        assert len(rows) == len(ds)

    def test_stratified_within_one_sample(self):
        ds = generate(4, 25, 3, 2.0, make_rng(3))
        tr, _ = split(ds, 0.8, make_rng(4))
        for c in range(4):
            total = int((ds.labels == c).sum())
            got = int((tr.labels == c).sum())
            assert abs(got - 0.8 * total) <= 1.0

    def test_degenerate_fractions_rejected(self):
        ds = generate(2, 5, 3, 2.0, make_rng(0))
        for frac in (0.0, 1.0):
            with pytest.raises(ValueError):
                split(ds, frac, make_rng(0))

    def test_tiny_shard_rejected(self):
        ds = Dataset(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            split(ds, 0.5, make_rng(0))

    def test_test_side_never_empty(self):
        ds = Dataset(np.zeros((3, 2)), np.array([0, 0, 1]), 2)
        tr, te = split(ds, 0.99, make_rng(0))
        assert len(te) >= 1
        assert len(tr) >= 1
