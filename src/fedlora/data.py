"""Synthetic multi-class blob datasets and Dirichlet non-IID partitioning
into per-device shards with stratified train/test splits."""

from dataclasses import dataclass

import numpy as np

from .linalg import make_rng


@dataclass
class Dataset:
    features: np.ndarray   # (n, dim)
    labels: np.ndarray     # (n,), ints in [0, num_classes)
    num_classes: int

    def __len__(self):
        return self.labels.size


@dataclass
class PartitionConfig:
    concentration: float
    num_devices: int
    min_shard: int = 8     # every device keeps at least one batch of data
    seed: int = 0

    def __post_init__(self):
        if self.concentration <= 0:
            raise ValueError("Dirichlet concentration must be positive")
        if self.num_devices < 1:
            raise ValueError("need at least one device")


def generate(num_classes, per_class, dim, class_sep, rng):
    """Gaussian blobs with unit covariance; class means are random directions
    scaled so every pair is at least `class_sep` apart."""
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("counts must be >= 1")
    if class_sep <= 0:
        raise ValueError("class separation must be positive")
    means = rng.normal(size=(num_classes, dim))
    # rescale until the closest pair respects the separation
    min_dist = np.inf
    for i in range(num_classes):
        for j in range(i + 1, num_classes):
            min_dist = min(min_dist, np.linalg.norm(means[i] - means[j]))
    if num_classes > 1:
        means *= class_sep / min_dist
    feats = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        lo = c * per_class
        feats[lo:lo + per_class] = means[c] + rng.normal(size=(per_class, dim))
        labels[lo:lo + per_class] = c
    perm = rng.permutation(len(labels))
    return Dataset(feats[perm], labels[perm], num_classes)


def dirichlet_partition(ds, cfg):
    """Split a dataset into `num_devices` disjoint, exhaustive shards.

    For each class, proportions drawn from Dirichlet(concentration) allocate
    that class's samples across devices; a reallocation pass then moves
    samples from the largest shards until every device holds at least
    `min_shard` samples.
    """
    if cfg.num_devices > len(ds):
        raise ValueError("more devices than samples")
    rng = make_rng(cfg.seed, 0xD1)
    shards = [[] for _ in range(cfg.num_devices)]
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(cfg.num_devices, cfg.concentration))
        counts = np.floor(props * idx.size).astype(int)
        # hand out the rounding remainder to the largest proportions
        for k in np.argsort(-props)[: idx.size - counts.sum()]:
            counts[k] += 1
        off = 0
        for k in range(cfg.num_devices):
            shards[k].extend(idx[off:off + counts[k]].tolist())
            off += counts[k]
    if cfg.min_shard * cfg.num_devices > len(ds):
        raise ValueError("minimum shard size infeasible for this dataset")
    # move samples from the largest shard until everyone has enough
    while True:
        sizes = [len(s) for s in shards]
        needy = min(range(cfg.num_devices), key=lambda k: sizes[k])
        if sizes[needy] >= cfg.min_shard:
            break
        donor = max(range(cfg.num_devices), key=lambda k: sizes[k])
        shards[needy].append(shards[donor].pop())
    return [Dataset(ds.features[np.array(s, dtype=int)],
                    ds.labels[np.array(s, dtype=int)], ds.num_classes)
            for s in shards]


def split(shard, train_fraction, rng):
    """Label-stratified disjoint (train, test) split; test is never empty."""
    n = len(shard)
    if n < 2:
        raise ValueError("shard too small to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train fraction must lie in (0, 1)")
    train_idx, test_idx = [], []
    for c in range(shard.num_classes):
        idx = np.flatnonzero(shard.labels == c)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        cut = int(round(train_fraction * idx.size))
        cut = min(cut, idx.size - 1) if idx.size > 1 else cut
        train_idx.extend(idx[:cut].tolist())
        test_idx.extend(idx[cut:].tolist())
    if not test_idx:
        test_idx.append(train_idx.pop())
    if not train_idx:
        train_idx.append(test_idx.pop())
    tr = np.array(sorted(train_idx), dtype=int)
    te = np.array(sorted(test_idx), dtype=int)
    return (Dataset(shard.features[tr], shard.labels[tr], shard.num_classes),
            Dataset(shard.features[te], shard.labels[te], shard.num_classes))
