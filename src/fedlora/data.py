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


def generate(num_classes, per_class, dim, class_sep, rng):
    """Gaussian blobs with unit covariance; class means are random directions
    scaled so every pair is at least `class_sep` apart."""
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


def _class_order(labels, num_classes):
    """Row positions grouped by class, and the class sizes: one stable
    argsort puts each class's positions in ascending order as one segment,
    and one bincount gives the segment lengths. A label outside
    [0, num_classes) raises ValueError naming it."""
    order = np.argsort(labels, kind="stable")
    if labels.size:
        for label in (labels[order[0]], labels[order[-1]]):
            if not 0 <= label < num_classes:
                raise ValueError(f"label {label} outside [0, {num_classes})")
    return order, np.bincount(labels, minlength=num_classes)


def dirichlet_partition(ds, num_devices, concentration, min_shard, seed):
    """Split a dataset into `num_devices` disjoint, exhaustive shards.

    For each class in turn, its rows in ascending order are shuffled and
    proportions drawn from Dirichlet(concentration) allocate them across
    devices: device k takes the next floor(p_k * n_c) rows, and the
    rounding remainder goes one each to the largest proportions. A shard
    holds its rows in that class-major draw order.

    A rebalance then moves one row at a time until every shard holds at
    least `min_shard`: the receiver is the smallest shard and the donor the
    largest, each the lowest device id on a tie, and the donor gives its
    last row, which the receiver appends. Since min_shard * num_devices
    rows fit, a receiver never becomes the largest shard and a donor never
    falls below `min_shard`, so no row moves twice.
    `ExperimentConfig.validate()` checks the settings here, in `generate`
    and in `split`; only the checks that depend on the dataset are made.
    """
    n = len(ds)
    if num_devices > n:
        raise ValueError("more devices than samples")
    if min_shard * num_devices > n:
        raise ValueError("minimum shard size infeasible for this dataset")
    order, class_sizes = _class_order(ds.labels, ds.num_classes)
    rng = make_rng(seed, 0xD1)
    counts = np.empty((ds.num_classes, num_devices), dtype=np.int64)
    lo = 0
    for c, size in enumerate(class_sizes):
        rng.shuffle(order[lo:lo + size])
        lo += size
        props = rng.dirichlet(np.full(num_devices, concentration))
        counts[c] = np.floor(props * size)
        counts[c, np.argsort(-props)[: size - counts[c].sum()]] += 1
    # every row's device; a stable sort by device keeps the draw order
    owner = np.repeat(np.tile(np.arange(num_devices), ds.num_classes),
                      counts.ravel())
    by_owner = np.argsort(owner, kind="stable")
    sizes = counts.sum(axis=0)
    starts = np.cumsum(sizes) - sizes
    moved, receivers = [], []
    while True:
        needy = int(np.argmin(sizes))
        if sizes[needy] >= min_shard:
            break
        donor = int(np.argmax(sizes))
        sizes[donor] -= 1
        sizes[needy] += 1
        moved.append(starts[donor] + sizes[donor])
        receivers.append(needy)
    # a moved row joins its receiver's shard after every row it held
    device = owner[by_owner]
    rank = np.arange(n)
    device[moved] = receivers
    rank[moved] = n + np.arange(len(moved))
    rows = order[by_owner[np.lexsort((rank, device))]]
    cuts = np.cumsum(sizes)[:-1]
    return [Dataset(f, y, ds.num_classes) for f, y in
            zip(np.split(ds.features[rows], cuts),
                np.split(ds.labels[rows], cuts))]


def split(shard, train_fraction, rng):
    """Label-stratified disjoint (train, test) split; test is never empty.

    Each non-empty class in turn has its rows in ascending order shuffled;
    the first round(train_fraction * n_c) go to train (at most n_c - 1
    when n_c > 1) and the rest to test. If test is then empty, the last
    row drawn for train moves to test; if train is empty, the last row
    drawn for test moves to train. Both sides are returned in row order.
    """
    n = len(shard)
    if n < 2:
        raise ValueError("shard too small to split")
    order, sizes = _class_order(shard.labels, shard.num_classes)
    in_train = np.zeros(n, dtype=bool)
    lo = 0
    for size in sizes.tolist():
        if size:
            rng.shuffle(order[lo:lo + size])
            cut = int(round(train_fraction * size))
            if size > 1:
                cut = min(cut, size - 1)
            in_train[lo:lo + cut] = True
            lo += size
    train, test = order[in_train], order[~in_train]
    if not test.size:
        train, test = train[:-1], train[-1:]
    if not train.size:
        train, test = test[-1:], test[:-1]
    tr, te = np.sort(train), np.sort(test)
    return (Dataset(shard.features[tr], shard.labels[tr], shard.num_classes),
            Dataset(shard.features[te], shard.labels[te], shard.num_classes))
