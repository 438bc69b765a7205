import numpy as np
import pytest

from conftest import random_small_net, single_identity_layer_net
from fedlora.gal import (adversarial_noise, aggregate_layer_scores,
                         device_layer_scores, eigengap_rank, gal_count,
                         layer_relative_diff, lipschitz_estimate, select_gal)
from fedlora.linalg import make_rng
from fedlora.network import backward, forward
from oracles import cross_entropy


class TestAdversarialNoise:
    def test_euclidean_closed_form_on_known_gradient(self):
        # gradient (3, 4): the p=2 solution is budget * g / ||g||
        net = single_identity_layer_net(2)
        net.layers[0].a = np.array([[1.0, 0.0]])
        g = backward(net, np.array([[0.3, 0.4]]), [1]).d_input[0]
        eps, degenerate = adversarial_noise(net, np.array([[0.3, 0.4]]), [1],
                                            1.0, 2.0)
        assert not degenerate[0]
        assert np.allclose(eps[0], g / np.linalg.norm(g))

    def test_norm_matches_budget_for_several_p(self, rng):
        net, x, label = random_small_net(rng)
        for p in (1.5, 2.0, 3.0):
            eps, degenerate = adversarial_noise(net, x, label, 0.37, p)
            assert not degenerate[0]
            assert abs(np.sum(np.abs(eps) ** p) ** (1.0 / p) - 0.37) < 1e-8

    def test_invariant_to_gradient_scale(self, rng):
        # doubling the loss doubles the gradient but not its direction
        g = np.array([0.3, -1.2, 0.8])
        budget, p = 0.5, 3.0
        q = p / (p - 1.0)

        def closed_form(grad):
            gq = np.sum(np.abs(grad) ** q)
            return budget * np.sign(grad) * np.abs(grad) ** (q - 1) \
                / gq ** (1.0 / p)

        assert np.allclose(closed_form(g), closed_form(7.0 * g))

    def test_zero_gradient_flags_degenerate(self):
        net = single_identity_layer_net(2)
        # symmetric logits and a zeroed adapter: d_input = (W+BA)^T delta
        # with delta = (0.5, -0.5) and W = I gives a nonzero gradient, so
        # instead kill the gradient path by zeroing the base weight too
        net.layers[0].w_base = np.zeros((2, 2))
        eps, degenerate = adversarial_noise(net, np.array([[1.0, 2.0]]), [0],
                                            0.1, 2.0)
        assert degenerate[0]
        assert np.array_equal(eps[0], np.zeros(2))

    def test_beats_random_perturbations_at_first_order(self, rng):
        wins = 0
        trials = 40
        for _ in range(trials):
            net, x, label = random_small_net(rng)
            budget = 1e-2 * float(np.linalg.norm(x))
            eps, degenerate = adversarial_noise(net, x, label, budget, 2.0)
            if degenerate[0]:
                trials -= 1
                continue

            def loss(v):
                return cross_entropy(forward(net, v).logits, label)[0]

            adv = loss(x + eps)
            best_random = -np.inf
            for _ in range(20):
                eta = rng.normal(size=x.size)
                eta *= budget / np.linalg.norm(eta)
                best_random = max(best_random, loss(x + eta))
            wins += adv >= best_random
        assert wins / trials >= 0.9


class TestLayerRelativeDiff:
    def test_zero_perturbation_gives_zero_everywhere(self, rng):
        net, x, _ = random_small_net(rng)
        diffs, degenerate = layer_relative_diff(net, x, np.zeros_like(x))
        assert not degenerate[0]
        assert np.array_equal(diffs[0], np.zeros(len(net.layers)))

    def test_identity_layer_hand_value(self):
        net = single_identity_layer_net(2)
        s = np.array([[3.0, 4.0]])
        diffs, degenerate = layer_relative_diff(net, s, s)
        assert not degenerate[0]
        assert abs(diffs[0, 0] - 1.0) < 1e-12  # (10 - 5) / 5

    def test_dead_input_coordinate_changes_nothing(self):
        net = single_identity_layer_net(3)
        net.layers[0].w_base = np.array([[1.0, 0.0, 0.0],
                                         [0.0, 1.0, 0.0],
                                         [0.0, 0.0, 0.0]])
        eps = np.array([[0.0, 0.0, 5.0]])  # only the ignored coordinate moves
        diffs, _ = layer_relative_diff(net, np.array([[1.0, 2.0, 9.0]]), eps)
        assert np.array_equal(diffs[0], np.zeros(1))

    def test_zero_norm_hidden_state_flags_degenerate(self):
        net = single_identity_layer_net(2)
        net.layers[0].w_base = np.zeros((2, 2))
        diffs, degenerate = layer_relative_diff(net, np.array([[1.0, 1.0]]),
                                                np.array([[0.1, 0.1]]))
        assert degenerate[0]
        assert diffs[0, 0] == 0.0


class TestDeviceLayerScores:
    def test_single_sample_equals_its_diff(self, rng):
        net, x, label = random_small_net(rng)
        eps, _ = adversarial_noise(net, x, label, 0.1, 2.0)
        expect, _ = layer_relative_diff(net, x, eps)
        got = device_layer_scores(net, x, label, 0.1, 2.0)
        assert np.allclose(got, expect[0])

    def test_duplicating_every_sample_changes_nothing(self, rng):
        net, x, label = random_small_net(rng)
        x2 = x + 0.5
        once = device_layer_scores(net, np.concatenate([x, x2]),
                                   np.tile(label, 2), 0.1, 2.0)
        twice = device_layer_scores(net, np.concatenate([x, x, x2, x2]),
                                    np.tile(label, 4), 0.1, 2.0)
        assert np.allclose(once, twice)

    def test_empty_device_rejected(self, rng):
        net, _, _ = random_small_net(rng)
        with pytest.raises(ValueError):
            device_layer_scores(net, [], [], 0.1, 2.0)


class TestAggregateLayerScores:
    def test_single_device_passthrough(self):
        out = aggregate_layer_scores([(5, np.array([0.1, 0.7]))])
        assert np.allclose(out, [0.1, 0.7])

    def test_equal_weights_average(self):
        out = aggregate_layer_scores([(3, np.array([0.1])),
                                      (3, np.array([0.3]))])
        assert np.allclose(out, [0.2])

    def test_zero_weight_device_contributes_nothing(self):
        out = aggregate_layer_scores([(4, np.array([0.5])),
                                      (0, np.array([99.0]))])
        assert np.allclose(out, [0.5])

    def test_order_invariant(self):
        devs = [(2, np.array([0.1, 0.2])), (5, np.array([0.9, 0.0])),
                (1, np.array([0.4, 0.4]))]
        assert np.allclose(aggregate_layer_scores(devs),
                           aggregate_layer_scores(devs[::-1]))

    def test_splitting_a_device_in_two_is_neutral(self):
        whole = [(6, np.array([0.3, 0.9]))]
        halves = [(2, np.array([0.3, 0.9])), (4, np.array([0.3, 0.9]))]
        assert np.allclose(aggregate_layer_scores(whole),
                           aggregate_layer_scores(halves))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_layer_scores([])


class TestLipschitzEstimate:
    def test_linear_map_bounded_by_spectral_norm(self):
        rng = make_rng(11)
        m = rng.normal(size=(6, 6))
        m = m @ m.T + np.eye(6)  # well-conditioned
        spectral = np.linalg.norm(m, 2)
        est = lipschitz_estimate(lambda v: v @ m.T, np.zeros(6), 1.0, 64,
                                 make_rng(5))
        assert est <= spectral + 1e-9
        assert est >= 0.5 * spectral

    def test_constant_map_is_zero(self):
        est = lipschitz_estimate(lambda v: np.tile([1.0, 2.0], (len(v), 1)),
                                 np.zeros(3), 1.0, 16, make_rng(0))
        assert est == 0.0

    def test_scalar_doubling_map(self):
        est = lipschitz_estimate(lambda v: 2.0 * v, np.array([3.0]), 0.5, 32,
                                 make_rng(1))
        assert abs(est - 2.0) < 1e-9

    def test_deterministic_given_seed(self):
        f = lambda v: np.sin(v)
        a = lipschitz_estimate(f, np.zeros(4), 1.0, 16, make_rng(9))
        b = lipschitz_estimate(f, np.zeros(4), 1.0, 16, make_rng(9))
        assert a == b

    def test_equals_brute_force_pair_loop(self):
        f = lambda v: np.sin(3.0 * v) + v[:, ::-1] ** 2  # one point per row
        center, radius = np.array([0.5, -1.0, 2.0]), 0.7
        for samples in (2, 3, 5, 24):
            for seed in range(8):
                rng = make_rng(seed)  # the same draws, in the same order
                pts = []
                for _ in range(samples):
                    d = rng.normal(size=center.size)
                    d /= np.linalg.norm(d)
                    pts.append(center + radius
                               * rng.random() ** (1.0 / center.size) * d)
                want = max(
                    np.linalg.norm(f(pts[i][None])[0] - f(pts[j][None])[0])
                    / np.linalg.norm(pts[i] - pts[j])
                    for i in range(samples) for j in range(i + 1, samples))
                got = lipschitz_estimate(f, center, radius, samples,
                                         make_rng(seed))
                assert abs(got - want) <= 1e-12 * want

    def test_coincident_points_raise(self):
        # center + step == center in float64, so every point is the center
        with pytest.raises(ArithmeticError):
            lipschitz_estimate(lambda v: v, np.full(2, 1e20), 1.0, 8,
                               make_rng(0))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            lipschitz_estimate(lambda v: v, np.zeros(2), 1.0, 1, make_rng(0))
        with pytest.raises(ValueError):
            lipschitz_estimate(lambda v: v, np.zeros(2), 0.0, 8, make_rng(0))


class TestEigengapRank:
    def test_hand_spectrum(self):
        assert eigengap_rank(np.array([0.0, 1.0, 2.0, 10.0]), 1.0) == 3

    def test_flat_spectrum_falls_back_to_full_rank(self):
        assert eigengap_rank(np.full(7, 2.5), 1.0) == 7

    def test_single_wide_gap(self):
        assert eigengap_rank(np.array([0.0, 100.0]), 1.0) == 1

    def test_matches_exhaustive_scan_on_random_spectra(self):
        rng = make_rng(77)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            ev = np.sort(rng.normal(scale=5.0, size=n))
            lip = float(rng.uniform(0.0, 3.0))
            expect = n
            for r in range(1, n):
                if ev[r] - ev[r - 1] > 4.0 * lip:
                    expect = r
                    break
            assert eigengap_rank(ev, lip) == expect

    def test_empty_spectrum_rejected(self):
        with pytest.raises(ValueError):
            eigengap_rank(np.array([]), 1.0)


class TestGalCount:
    def test_no_gap_clamps_to_one(self):
        assert gal_count([(10, 5, 5)], 24, 1.0) == 1

    def test_reference_quarter_rank_case(self):
        assert gal_count([(10, 6, 24)], 24, 1.0) == 18

    def test_mu_scales_before_clamping(self):
        assert gal_count([(10, 12, 24)], 24, 2.0) == 24
        assert gal_count([(10, 12, 24)], 24, 1.0) == 12

    def test_huge_mu_clamps_before_rounding(self):
        # mu * acc / total overflows to inf for this finite mu; the clamp to
        # the layer count comes before int(round(...)) sees it
        assert gal_count([(10, 1, 4)], 3, 1e308) == 3

    def test_weighted_across_devices(self):
        # (1 - r/R) * L of 8 and 0, weighted 3:1 -> 6
        assert gal_count([(3, 2, 10), (1, 10, 10)], 10, 1.0) == 6

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ValueError):
            gal_count([(10, 5, 0)], 8, 1.0)
        with pytest.raises(ValueError):
            gal_count([(10, 9, 5)], 8, 1.0)
        with pytest.raises(ValueError):
            gal_count([(10, 1, 5)], 8, 0.0)


class TestSelectGal:
    def test_all_layers_when_n_star_equals_count(self):
        assert select_gal([0.2, 0.1, 0.9], 3) == {0, 1, 2}

    def test_top_two(self):
        assert select_gal([0.1, 0.9, 0.5], 2) == {1, 2}

    def test_ties_prefer_lower_index(self):
        assert select_gal([0.4, 0.4, 0.4], 2) == {0, 1}

    def test_scale_invariant(self):
        scores = [0.03, 0.9, 0.31, 0.28]
        for c in (0.5, 2.0, 1e6):
            assert select_gal(list(c * np.array(scores)), 2) == \
                select_gal(scores, 2)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            select_gal([0.1, 0.2], 3)
