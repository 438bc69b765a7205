import math

import numpy as np
import pytest

from fedlora.curriculum import (PACES, PacingConfig, pace_count, pace_ratio,
                                select_batches, sort_batches)
from fedlora.linalg import make_rng


def table_cfg(pace="linear"):
    return PacingConfig(beta=0.6, alpha=0.8, pace=pace, batch_size=8,
                        total_rounds=100)


class TestPaceCount:
    def test_reference_schedule_values(self):
        cfg = table_cfg()
        n_k = 80  # 10 batches of 8
        assert pace_count(cfg, 0, n_k) == 6
        assert pace_count(cfg, 60, n_k) == 9
        for t in (80, 90, 100, 500):
            assert pace_count(cfg, t, n_k) == 10

    def test_beta_one_always_selects_everything(self):
        cfg = PacingConfig(beta=1.0, alpha=0.5, pace="linear", batch_size=4,
                           total_rounds=50)
        for t in (0, 10, 49):
            assert pace_count(cfg, t, 40) == 10

    def test_saturates_at_alpha_fraction_of_rounds(self):
        cfg = table_cfg()
        assert pace_count(cfg, 80, 80) == 10  # alpha * T = 80

    def test_short_tail_batch_counts_as_a_unit(self):
        cfg = table_cfg()
        # 75 samples -> 10 batches, the last holding 3 samples
        assert pace_count(cfg, 1000, 75) == 10

    def test_monotone_nondecreasing_all_paces(self):
        rng = make_rng(42)
        for _ in range(300):
            cfg = PacingConfig(
                beta=float(rng.uniform(0.05, 1.0)),
                alpha=float(rng.uniform(0.05, 1.0)),
                pace=("linear", "sqrt", "exp")[int(rng.integers(0, 3))],
                batch_size=int(rng.integers(1, 16)),
                total_rounds=int(rng.integers(1, 200)))
            n_k = int(rng.integers(cfg.batch_size, 40 * cfg.batch_size))
            prev = 1
            for t in range(0, 2 * cfg.total_rounds, 3):
                c = pace_count(cfg, t, n_k)
                assert c >= prev
                assert 1 <= c <= int(np.ceil(n_k / cfg.batch_size))
                prev = c

    def test_exp_pace_saturates_at_alpha_t(self):
        # (e^(10 u) - 1) / (e^10 - 1) stays near beta for the first half of
        # the ramp and reaches every batch at alpha * T = 80, not after a
        # dozen rounds as the unnormalised e^t / (alpha T) did
        cfg = table_cfg(pace="exp")
        counts = [pace_count(cfg, t, 80) for t in range(100)]
        assert counts == sorted(counts)
        assert counts[0] == 6 and max(counts[:40]) == 7
        assert counts[79] == counts[80] == 10
        assert pace_ratio(cfg, 79) < 1.0 == pace_ratio(cfg, 80)

    def test_sqrt_pace_is_the_root_of_the_linear_ramp(self):
        cfg = table_cfg(pace="sqrt")
        assert pace_ratio(cfg, 20) == pytest.approx(0.6 + 0.4 * 0.5)
        assert pace_count(cfg, 20, 80) == 8  # linear gives 7 here
        assert pace_count(table_cfg(), 20, 80) == 7

    def test_every_pace_runs_from_beta_to_exactly_one_at_alpha_t(self):
        rng = make_rng(17)
        for _ in range(300):
            for pace in PACES:
                cfg = PacingConfig(
                    beta=float(rng.uniform(0.05, 1.0)),
                    alpha=float(rng.uniform(0.05, 1.0)), pace=pace,
                    total_rounds=int(rng.integers(1, 200)))
                at = cfg.alpha * cfg.total_rounds
                assert pace_ratio(cfg, 0) == cfg.beta
                assert pace_ratio(cfg, at) == 1.0
                assert pace_ratio(cfg, math.ceil(at) + 7) == 1.0
                for t in range(math.ceil(at)):
                    assert cfg.beta <= pace_ratio(cfg, t) <= 1.0

    def test_device_smaller_than_one_batch_has_one(self):
        # make_batches gives such a device one short batch
        for n_k in range(1, 8):
            for t in (0, 50, 500):
                assert pace_count(table_cfg(), t, n_k) == 1


class TestSortBatches:
    def test_ascending_by_score(self):
        assert sort_batches([3.0, 1.0, 2.0]) == [1, 2, 0]

    def test_ties_keep_batch_index_order(self):
        assert sort_batches([7.0] * 5) == [0, 1, 2, 3, 4]

    def test_reverses_strictly_descending_scores(self):
        scores = [float(10 - i) for i in range(4)]
        assert sort_batches(scores) == [3, 2, 1, 0]


class TestSelectBatches:
    def test_full_count_selects_all(self):
        assert select_batches([2, 0, 1], 3) == [2, 0, 1]

    def test_count_one_selects_easiest(self):
        assert select_batches([2, 0, 1], 1) == [2]

    def test_composition_with_sort(self):
        assert set(select_batches(sort_batches([3.0, 1.0, 2.0]), 2)) == {1, 2}


def test_round_over_round_selection_is_nested():
    cfg = table_cfg()
    order = [4, 2, 7, 0, 1, 3, 5, 6, 8, 9]
    previous = set()
    for t in range(0, 120, 5):
        chosen = set(select_batches(order, pace_count(cfg, t, 80)))
        assert previous <= chosen
        previous = chosen
