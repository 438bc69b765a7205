import hashlib

import numpy as np
import pytest

from conftest import flat_loss_fn, random_small_net, single_identity_layer_net
from fedlora.linalg import finite_diff_gradient, make_rng
from fedlora.network import (LoraLayer, LoraNetwork, apply_update, backward,
                             build_network, clone_network,
                             dataset_loss_grad_flat, flatten_lora, forward,
                             lora_slices, set_lora_flat)


def frozen_digest(net):
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.w_base.tobytes())
        h.update(layer.bias.tobytes())
    return h.hexdigest()


class TestForward:
    def test_zero_adapter_matches_frozen_base(self, rng):
        net = build_network(5, [4], 3, seed=1)
        for layer in net.layers:
            layer.b = rng.normal(size=layer.b.shape)
            layer.a = np.zeros_like(layer.a)
        x = rng.normal(size=5)
        got = forward(net, x).logits
        want = x
        for layer in net.layers:
            want = layer.w_base @ want + layer.bias
            if layer.activation == "relu":
                want = np.maximum(want, 0.0)
        assert np.array_equal(got, want)

    def test_identity_base_plus_identity_adapter_doubles_input(self):
        net = single_identity_layer_net(2)
        net.layers[0].a = np.array([[1.0, 0.0], [0.0, 1.0]])
        net.layers[0].b = np.eye(2)
        assert np.allclose(forward(net, np.array([1.0, 2.0])).logits, [2.0, 4.0])

    def test_repeated_calls_are_identical(self, rng):
        net, x, label = random_small_net(rng)
        t1 = forward(net, x, label)
        t2 = forward(net, x, label)
        assert t1.loss == t2.loss
        assert np.array_equal(t1.logits, t2.logits)
        for h1, h2 in zip(t1.hidden, t2.hidden):
            assert np.array_equal(h1, h2)

    def test_dimension_mismatch_rejected(self):
        net = build_network(4, [3], 2, seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros(5))

    def test_hidden_count_matches_layer_count(self, rng):
        net, x, label = random_small_net(rng)
        assert len(forward(net, x).hidden) == len(net.layers)


class TestBackward:
    def test_matches_finite_difference_on_adapters(self, rng):
        for _ in range(5):
            net, x, label = random_small_net(rng)
            g = backward(net, x, label)
            flat_analytic = np.concatenate(
                [np.concatenate([g.da[i].ravel(), g.db[i].ravel()])
                 for i in range(len(net.layers))])
            flat_numeric = finite_diff_gradient(flat_loss_fn(net, x, label),
                                                flatten_lora(net))
            err = np.abs(flat_analytic - flat_numeric)
            tol = np.maximum(1e-4, 1e-3 * np.abs(flat_numeric))
            assert np.all(err <= tol)

    def test_input_gradient_matches_finite_difference(self, rng):
        net, x, label = random_small_net(rng)
        g = backward(net, x, label)
        num = finite_diff_gradient(lambda v: forward(net, v, label).loss, x)
        assert np.allclose(g.d_input, num, atol=1e-4)

    def test_gradient_vanishes_at_saturated_softmax(self):
        net = single_identity_layer_net(2)
        # adapter pushes the true logit far above the other one
        net.layers[0].a = np.array([[1.0, 0.0]])
        net.layers[0].b = np.array([[40.0], [-40.0]])
        g = backward(net, np.array([1.0, 0.0]), 0)
        total = sum(np.linalg.norm(g.da[i]) + np.linalg.norm(g.db[i])
                    for i in range(1))
        assert total < 1e-6

    def test_summed_duplicate_sample_doubles_gradients(self, rng):
        net, x, label = random_small_net(rng)
        g = backward(net, x, label)
        for arr in (g.da[0], g.db[0], g.d_input):
            assert np.allclose(2.0 * arr, arr + arr)
        # two backward passes at the same point literally sum to double
        g2 = backward(net, x, label)
        assert np.array_equal(g.da[0] + g2.da[0], 2.0 * g.da[0])

    def test_loss_recorded_on_gradients(self, rng):
        net, x, label = random_small_net(rng)
        assert backward(net, x, label).loss == forward(net, x, label).loss


class TestBatched:
    def sample_batch(self, rng, n=7):
        net, _, _ = random_small_net(rng)
        xs = rng.normal(size=(n, net.input_dim))
        ys = rng.integers(0, net.num_classes, size=n)
        return net, xs, ys

    def test_backward_equals_sum_of_single_sample_calls(self, rng):
        for _ in range(5):
            net, xs, ys = self.sample_batch(rng)
            mask = [rng.random(l.d_out) < 0.5 for l in net.layers]
            for m in (None, mask):
                batched = backward(net, xs, ys, mask=m)
                singles = [backward(net, x, int(y), mask=m)
                           for x, y in zip(xs, ys)]
                for li in range(len(net.layers)):
                    for name in ("da", "db"):
                        want = sum(getattr(g, name)[li] for g in singles)
                        assert np.allclose(getattr(batched, name)[li], want,
                                           rtol=1e-12, atol=1e-12)
                    for i, g in enumerate(singles):
                        assert np.allclose(batched.fim_rows[li][i],
                                           g.fim_rows[li], rtol=1e-12, atol=0)
                for i, g in enumerate(singles):
                    assert abs(batched.loss[i] - g.loss) <= 1e-12
                    assert np.allclose(batched.d_input[i], g.d_input,
                                       rtol=1e-12, atol=1e-12)

    def test_forward_rows_match_single_sample_calls(self, rng):
        net, xs, ys = self.sample_batch(rng)
        batched = forward(net, xs, ys)
        for i, (x, y) in enumerate(zip(xs, ys)):
            single = forward(net, x, int(y))
            assert np.allclose(batched.logits[i], single.logits, rtol=1e-12,
                               atol=1e-12)
            assert abs(batched.loss[i] - single.loss) <= 1e-12

    def test_one_row_matrix_keeps_matrix_shapes(self, rng):
        net, x, label = random_small_net(rng)
        g = backward(net, x[None, :], [label])
        assert g.d_input.shape == (1, net.input_dim)
        assert g.loss.shape == (1,)
        assert np.array_equal(g.d_input[0], backward(net, x, label).d_input)

    def test_dataset_gradient_is_the_mean(self, rng):
        net, xs, ys = self.sample_batch(rng)
        g = backward(net, xs, ys)
        want = np.concatenate([np.concatenate([da.ravel(), db.ravel()])
                               for da, db in zip(g.da, g.db)]) / len(ys)
        assert np.array_equal(dataset_loss_grad_flat(net, xs, ys), want)

    def test_params_override_replaces_the_adapter(self, rng):
        net, x, _ = random_small_net(rng)
        other = clone_network(net)
        other.layers[0].a = rng.normal(size=other.layers[0].a.shape)
        got = forward(net, x, params={0: (other.layers[0].a, other.layers[0].b)})
        assert np.array_equal(got.logits, forward(other, x).logits)


class TestApplyUpdate:
    def test_all_false_mask_leaves_network_bitwise_unchanged(self, rng):
        net, x, label = random_small_net(rng)
        mask = [np.zeros(l.d_out, dtype=bool) for l in net.layers]
        before = flatten_lora(net).copy()
        apply_update(net, backward(net, x, label, mask=mask), 0.1)
        assert flatten_lora(net).tobytes() == before.tobytes()

    def test_unmasked_step_is_plain_sgd(self, rng):
        net, x, label = random_small_net(rng)
        g = backward(net, x, label)
        a0 = [l.a.copy() for l in net.layers]
        b0 = [l.b.copy() for l in net.layers]
        apply_update(net, g, 1.0)
        for i, layer in enumerate(net.layers):
            assert np.array_equal(layer.a, a0[i] - g.da[i])
            assert np.array_equal(layer.b, b0[i] - g.db[i])

    def test_masked_out_rows_of_b_frozen(self, rng):
        for _ in range(10):
            net, _, _ = random_small_net(rng)
            xs = rng.normal(size=(5, net.input_dim))
            ys = rng.integers(0, net.num_classes, size=5)
            mask = [rng.random(l.d_out) < 0.5 for l in net.layers]
            before = [l.b.copy() for l in net.layers]
            unmasked = backward(net, xs, ys)
            apply_update(net, backward(net, xs, ys, mask=mask), 0.5)
            for li, (layer, m) in enumerate(zip(net.layers, mask)):
                assert layer.b[~m].tobytes() == before[li][~m].tobytes()
                assert np.allclose(layer.b[m], before[li][m] - 0.5 * unmasked.db[li][m],
                                   rtol=1e-12, atol=1e-15)

    def test_masked_da_uses_only_masked_in_rows(self, rng):
        for _ in range(10):
            net, x, label = random_small_net(rng)
            top = len(net.layers) - 1
            layer = net.layers[top]
            m = rng.random(layer.d_out) < 0.5
            mask = [None] * top + [m]
            # oracle: dA = sum over kept neurons mu of b[mu] * delta[mu] x^T,
            # with the top layer's delta = softmax - one-hot
            delta = forward(net, x, label).probs - np.eye(net.num_classes)[label]
            x_in = forward(net, x).hidden[top - 1]
            want = np.outer(layer.b[m].T @ delta[m], x_in)
            g = backward(net, x, label, mask=mask)
            assert np.allclose(g.da[top], want, rtol=1e-12, atol=1e-14)
            # layers below see the unmasked delta; a full mask changes nothing
            unmasked = backward(net, x, label)
            assert np.array_equal(g.da[0], unmasked.da[0])
            full = [np.ones(l.d_out, dtype=bool) for l in net.layers]
            assert np.array_equal(backward(net, x, label, mask=full).da[top],
                                  unmasked.da[top])

    def test_lr_zero_is_a_noop_and_negative_rejected(self, rng):
        net, x, label = random_small_net(rng)
        g = backward(net, x, label)
        before = flatten_lora(net).copy()
        apply_update(net, g, 0.0)
        assert np.array_equal(flatten_lora(net), before)
        with pytest.raises(ValueError):
            apply_update(net, g, -0.1)

    def test_frozen_base_never_changes(self, rng):
        net, x, label = random_small_net(rng)
        digest = frozen_digest(net)
        for _ in range(20):
            apply_update(net, backward(net, x, label), 0.05)
        assert frozen_digest(net) == digest

    def test_mask_shape_mismatch_rejected(self, rng):
        net, x, label = random_small_net(rng)
        mask = [np.ones(net.layers[0].d_out + 1, dtype=bool)] + \
            [None] * (len(net.layers) - 1)
        with pytest.raises(ValueError):
            backward(net, x, label, mask=mask)


class TestFlatViews:
    def test_roundtrip(self, rng):
        net, _, _ = random_small_net(rng)
        vec = flatten_lora(net)
        other = clone_network(net)
        for layer in other.layers:
            layer.a = np.zeros_like(layer.a)
            layer.b = np.zeros_like(layer.b)
        set_lora_flat(other, vec)
        assert np.array_equal(flatten_lora(other), vec)

    def test_slices_partition_the_vector(self, rng):
        net, _, _ = random_small_net(rng)
        slices = lora_slices(net)
        assert slices[0][0].start == 0
        assert slices[-1][1].stop == flatten_lora(net).size
        covered = sum(s.stop - s.start for pair in slices for s in pair)
        assert covered == flatten_lora(net).size


def test_rank_exceeding_dims_rejected():
    with pytest.raises(AssertionError):
        LoraLayer(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3)),
                  np.zeros(2), "relu")


def test_incompatible_consecutive_layers_rejected():
    l1 = LoraLayer(np.zeros((3, 4)), np.zeros((1, 4)), np.zeros((3, 1)),
                   np.zeros(3), "relu")
    l2 = LoraLayer(np.zeros((2, 5)), np.zeros((1, 5)), np.zeros((2, 1)),
                   np.zeros(2), "identity")
    with pytest.raises(AssertionError):
        LoraNetwork([l1, l2], num_classes=2)
