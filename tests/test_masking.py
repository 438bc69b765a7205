import numpy as np

from conftest import random_small_net
from fedlora.masking import (NeuronMask, build_mask, layer_ratio,
                             masked_param_count)


class TestLayerRatio:
    def test_no_gap_gives_zero(self):
        assert layer_ratio(5, 5) == 0.0

    def test_rank_zero_reads_as_minimum_rank_one(self):
        assert layer_ratio(0, 8) == layer_ratio(1, 8) == 1.0 - 1.0 / 8.0

    def test_quarter_rank(self):
        assert layer_ratio(6, 24) == 0.75

    def test_stays_in_unit_interval(self):
        for cap in (1, 3, 17):
            for r in range(cap + 1):
                assert 0.0 <= layer_ratio(r, cap) <= 1.0


class TestBuildMask:
    def test_full_ratio_keeps_everyone(self):
        assert np.array_equal(build_mask(np.array([1.0, 5.0, 2.0]), 1.0),
                              [True, True, True])

    def test_top_two_of_three(self):
        assert np.array_equal(build_mask(np.array([5.0, 1.0, 9.0]), 2.0 / 3.0),
                              [True, False, True])

    def test_zero_ratio_clamps_to_single_top_neuron(self):
        mask = build_mask(np.array([0.2, 0.9, 0.1]), 0.0)
        assert np.array_equal(mask, [False, True, False])

    def test_ties_prefer_lower_index(self):
        mask = build_mask(np.array([3.0, 3.0, 3.0, 3.0]), 0.5)
        assert np.array_equal(mask, [True, True, False, False])

    def test_deterministic(self):
        scores = np.array([0.4, 0.1, 0.8, 0.3])
        a = build_mask(scores, 0.5)
        b = build_mask(scores.copy(), 0.5)
        assert np.array_equal(a, b)


class TestMaskedParamCount:
    def test_all_layers_global_means_nothing_frozen(self, rng):
        net, _, _ = random_small_net(rng)
        gal = set(range(len(net.layers)))
        mask = NeuronMask([None] * len(net.layers))
        trainable, frozen = masked_param_count(net, gal, mask)
        assert frozen == 0
        assert trainable == net.lora_param_count()

    def test_clamped_masks_keep_one_row_per_layer(self, rng):
        net, _, _ = random_small_net(rng)
        per_layer = []
        for layer in net.layers:
            m = np.zeros(layer.d_out, dtype=bool)
            m[0] = True
            per_layer.append(m)
        trainable, frozen = masked_param_count(net, set(), NeuronMask(per_layer))
        assert trainable == sum(l.rank for l in net.layers)
        assert trainable + frozen == net.lora_param_count()

    def test_totals_conserved_for_any_mask(self, rng):
        net, _, _ = random_small_net(rng)
        for keep in range(net.layers[0].d_out + 1):
            m = np.zeros(net.layers[0].d_out, dtype=bool)
            m[:keep] = True
            mask = NeuronMask([m] + [None] * (len(net.layers) - 1))
            trainable, frozen = masked_param_count(net, {1}, mask)
            assert trainable + frozen == net.lora_param_count()


def test_popcounts_report_none_for_unmasked_layers():
    mask = NeuronMask([None, np.array([True, False, True])])
    assert mask.popcounts() == [None, 2]
