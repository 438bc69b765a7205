"""The array-pass partition and split against their loop references in
tests/oracles.py: the same shards, rows, features, labels and dtypes."""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedlora.data import Dataset, dirichlet_partition, split
from fedlora.linalg import make_rng
from oracles import loop_dirichlet_partition, loop_split


def assert_same(got, want):
    assert got.num_classes == want.num_classes
    for a, b in ((got.features, want.features), (got.labels, want.labels)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def labelled(class_sizes, seed, dim=3):
    """Random features and labels with `class_sizes[c]` rows of class c,
    in a seeded random row order."""
    rng = make_rng(seed, 0xDA7A)
    labels = rng.permutation(np.repeat(np.arange(len(class_sizes)),
                                       class_sizes))
    return Dataset(rng.normal(size=(labels.size, dim)), labels,
                   len(class_sizes))


@st.composite
def partitions(draw):
    class_sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6)
                       .filter(lambda s: sum(s) >= 1))
    n = sum(class_sizes)
    devices = draw(st.integers(1, min(n, 12)))
    return dict(
        class_sizes=class_sizes,
        devices=devices,
        alpha=draw(st.sampled_from([0.01, 0.03, 0.05])
                   | st.floats(0.05, 100.0)),
        min_shard=draw(st.integers(0, n // devices)),
        train_fraction=draw(st.sampled_from([0.05, 0.5, 0.6, 0.8, 0.99])
                            | st.floats(0.01, 0.99)),
        seed=draw(st.integers(0, 2 ** 16)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(partitions())
# heavy rebalancing: concentration 0.01 puts each class on about one device
@example(dict(class_sizes=[12, 12, 12], devices=8, alpha=0.01, min_shard=4,
              train_fraction=0.8, seed=3))
# equal shard sizes from equal class sizes split over equal proportions
@example(dict(class_sizes=[4, 4, 4, 4], devices=4, alpha=1e6, min_shard=4,
              train_fraction=0.5, seed=0))
# all-singleton classes: every row goes to train, so one moves to test
@example(dict(class_sizes=[1, 1, 1, 1, 1, 1], devices=2, alpha=1.0,
              min_shard=3, train_fraction=0.8, seed=1))
# round(0.05 * n_c) = 0 for every class: one row moves to train
@example(dict(class_sizes=[3, 4, 2], devices=1, alpha=1.0, min_shard=9,
              train_fraction=0.05, seed=2))
def test_partition_and_split_match_the_loops(case):
    ds = labelled(case["class_sizes"], case["seed"])
    args = (ds, case["devices"], case["alpha"], case["min_shard"],
            case["seed"])
    shards = dirichlet_partition(*args)
    want = loop_dirichlet_partition(*args)
    assert len(shards) == len(want)
    for k, (shard, ref) in enumerate(zip(shards, want)):
        assert_same(shard, ref)
        if len(shard) < 2:
            continue
        parts = split(shard, case["train_fraction"],
                      make_rng(case["seed"], 0x57, k))
        ref_parts = loop_split(ref, case["train_fraction"],
                               make_rng(case["seed"], 0x57, k))
        for got, exp in zip(parts, ref_parts):
            assert_same(got, exp)


def test_rebalance_tie_breaks_on_the_lowest_device_id():
    # concentration 0.01 at seed 12 hands class 1 (rows 6-11) to device 1
    # and class 0 (rows 0-5) to device 3; devices 0 and 2 tie for smallest
    ds = Dataset(np.arange(12.0)[:, None], np.repeat([0, 1], 6), 2)
    drawn = [s.features.ravel().tolist()
             for s in dirichlet_partition(ds, 4, 0.01, 0, 12)]
    assert drawn == [[], [7, 8, 11, 10, 6, 9], [], [0, 4, 1, 3, 5, 2]]
    # first move: device 0 (not 2) receives, device 1 (not 3) gives its
    # last row; then device 2 is the only empty shard and device 3 the
    # only largest
    shards = dirichlet_partition(ds, 4, 0.01, 1, 12)
    assert [s.features.ravel().tolist() for s in shards] == [
        [9], [7, 8, 11, 10, 6], [2], [0, 4, 1, 3, 5]]


def test_split_fallbacks_move_the_last_drawn_row():
    singletons = Dataset(np.arange(4.0)[:, None], np.arange(4), 4)
    train, test = split(singletons, 0.8, make_rng(0))
    ref_train, ref_test = loop_split(singletons, 0.8, make_rng(0))
    assert (len(train), len(test)) == (3, 1)
    assert test.labels.tolist() == [3]  # the last class's only row
    assert_same(train, ref_train)
    assert_same(test, ref_test)

    ds = labelled([3, 4, 2], 5)
    train, test = split(ds, 0.05, make_rng(6))
    ref_train, ref_test = loop_split(ds, 0.05, make_rng(6))
    assert (len(train), len(test)) == (1, 8)
    assert train.labels.tolist() == [2]  # from the last non-empty class
    assert_same(train, ref_train)
    assert_same(test, ref_test)
