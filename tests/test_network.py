import hashlib
import re

import numpy as np
import pytest

from conftest import (copy_network, flat_loss_fn, random_small_net,
                      single_identity_layer_net)
from fedlora.linalg import default_step, finite_diff_hessian, make_rng
from fedlora.network import (LoraLayer, LoraNetwork, apply_update, backward,
                             build_network, clone_network,
                             dataset_loss_grad_flat, flatten_lora, forward,
                             lora_slices, lora_views, set_lora_flat)
from oracles import cross_entropy, finite_diff_gradient


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
        x = rng.normal(size=(1, 5))
        got = forward(net, x).logits
        want = x
        for layer in net.layers:
            want = want @ layer.w_base.T + layer.bias
            if layer.activation == "relu":
                want = np.maximum(want, 0.0)
        assert np.array_equal(got, want)

    def test_identity_base_plus_identity_adapter_doubles_input(self):
        net = single_identity_layer_net(2)
        net.layers[0].a = np.array([[1.0, 0.0], [0.0, 1.0]])
        net.layers[0].b = np.eye(2)
        assert np.allclose(forward(net, np.array([[1.0, 2.0]])).logits,
                           [[2.0, 4.0]])

    def test_repeated_calls_are_identical(self, rng):
        net, x, label = random_small_net(rng)
        t1 = forward(net, x)
        t2 = forward(net, x)
        assert np.array_equal(cross_entropy(t1.logits, label),
                              cross_entropy(t2.logits, label))
        assert np.array_equal(t1.logits, t2.logits)
        for h1, h2 in zip(t1.hidden, t2.hidden):
            assert np.array_equal(h1, h2)

    def test_dimension_mismatch_rejected(self):
        # a wrong width, and a 1-D sample or a 4-D input of the right width:
        # both passes take only an (n, d) matrix or a (K, n, d) stack
        net = build_network(4, [3], 2, seed=0)
        for x in (np.zeros((1, 5)), np.zeros(4), np.zeros((2, 1, 1, 4))):
            labels = np.zeros(x.shape[:-1], dtype=int)
            for call in (lambda: forward(net, x),
                         lambda: backward(net, x, labels)):
                with pytest.raises(ValueError,
                                   match=re.escape(f"input shape {x.shape}")):
                    call()

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
        num = finite_diff_gradient(
            lambda v: cross_entropy(forward(net, v[None]).logits, label)[0],
            x[0])
        assert np.allclose(g.d_input[0], num, atol=1e-4)

    def test_gradient_vanishes_at_saturated_softmax(self):
        net = single_identity_layer_net(2)
        # adapter pushes the true logit far above the other one
        net.layers[0].a = np.array([[1.0, 0.0]])
        net.layers[0].b = np.array([[40.0], [-40.0]])
        g = backward(net, np.array([[1.0, 0.0]]), [0])
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
        assert np.array_equal(backward(net, x, label).loss,
                              cross_entropy(forward(net, x).logits, label))


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
                singles = [backward(net, x[None], [y], mask=m)
                           for x, y in zip(xs, ys)]
                for li in range(len(net.layers)):
                    for name in ("da", "db"):
                        want = sum(getattr(g, name)[li] for g in singles)
                        assert np.allclose(getattr(batched, name)[li], want,
                                           rtol=1e-12, atol=1e-12)
                    for i, g in enumerate(singles):
                        assert np.allclose(batched.fim_rows[li][i],
                                           g.fim_rows[li][0], rtol=1e-12,
                                           atol=0)
                for i, g in enumerate(singles):
                    assert abs(batched.loss[i] - g.loss[0]) <= 1e-12
                    assert np.allclose(batched.d_input[i], g.d_input[0],
                                       rtol=1e-12, atol=1e-12)

    def test_forward_rows_match_single_sample_calls(self, rng):
        net, xs, ys = self.sample_batch(rng)
        batched = forward(net, xs).logits
        for i, (x, y) in enumerate(zip(xs, ys)):
            single = forward(net, x[None]).logits
            assert np.allclose(batched[i], single[0], rtol=1e-12, atol=1e-12)
            assert abs(cross_entropy(batched, ys)[i]
                       - cross_entropy(single, [y])[0]) <= 1e-12

    def test_one_row_matrix_keeps_matrix_shapes(self, rng):
        net, x, label = random_small_net(rng)
        g = backward(net, x, label)
        assert g.d_input.shape == (1, net.input_dim)
        assert g.loss.shape == (1,)
        # the same row as the one matrix of a (1, 1, d) stack
        assert np.array_equal(g.d_input[0],
                              backward(net, x[None], label[None]).d_input[0, 0])

    def test_dataset_gradient_is_the_mean(self, rng):
        net, xs, ys = self.sample_batch(rng)
        g = backward(net, xs, ys)
        want = np.concatenate([np.concatenate([da.ravel(), db.ravel()])
                               for da, db in zip(g.da, g.db)]) / len(ys)
        assert np.array_equal(
            dataset_loss_grad_flat(net, xs, ys, flatten_lora(net)[None])[0], want)

    def test_stacked_adapters_equal_single_adapter_calls(self, rng):
        k = 4
        for _ in range(5):
            net, xs, ys = self.sample_batch(rng)
            stack = {li: (rng.normal(0.0, 0.3, size=(k,) + l.a.shape),
                          rng.normal(0.0, 0.3, size=(k,) + l.b.shape))
                     for li, l in enumerate(net.layers)}
            mask = [rng.random(l.d_out) < 0.5 for l in net.layers]
            for m in (None, mask):
                stacked = backward(net, xs, ys, mask=m, params=stack)
                for i in range(k):
                    single_net = copy_network(net)
                    for li, (a, b) in stack.items():
                        single_net.layers[li].a = a[i].copy()
                        single_net.layers[li].b = b[i].copy()
                    single = backward(single_net, xs, ys, mask=m)
                    for name in ("da", "db", "fim_rows"):
                        for got, want in zip(getattr(stacked, name),
                                             getattr(single, name)):
                            assert np.array_equal(got[i], want)
                    for name in ("d_input", "loss"):
                        assert np.array_equal(getattr(stacked, name)[i],
                                              getattr(single, name))

    def test_adapters_only_equals_the_full_path(self, rng):
        k = 4
        for _ in range(5):
            net, xs, ys = self.sample_batch(rng)
            stack = {li: (rng.normal(0.0, 0.3, size=(k,) + l.a.shape),
                          rng.normal(0.0, 0.3, size=(k,) + l.b.shape))
                     for li, l in enumerate(net.layers)}
            mask = [rng.random(l.d_out) < 0.5 for l in net.layers]
            for m in (None, mask):
                for params in (None, stack):
                    full = backward(net, xs, ys, mask=m, params=params)
                    lean = backward(net, xs, ys, mask=m, params=params,
                                    adapters_only=True)
                    assert lean.fim_rows is None and lean.d_input is None
                    assert full.fim_rows is not None
                    assert full.d_input is not None
                    assert np.array_equal(lean.loss, full.loss)
                    for name in ("da", "db"):
                        for got, want in zip(getattr(lean, name),
                                             getattr(full, name)):
                            assert np.array_equal(got, want)

    def test_grad_holds_the_gradients_in_flat_order(self, rng):
        k = 4
        for _ in range(5):
            net, xs, ys = self.sample_batch(rng)
            p = net.lora_param_count()
            mask = [rng.random(l.d_out) < 0.5 for l in net.layers]
            stack = {li: (rng.normal(0.0, 0.3, size=(k,) + l.a.shape),
                          rng.normal(0.0, 0.3, size=(k,) + l.b.shape))
                     for li, l in enumerate(net.layers)}
            for m in (None, mask):
                for x, y in ((xs, ys), (xs[:1], ys[:1])):
                    for params, lead in ((None, ()), (stack, (k,))):
                        full = backward(net, x, y, mask=m, params=params)
                        lean = backward(net, x, y, mask=m, params=params,
                                        adapters_only=True)
                        assert lean.grad.tobytes() == full.grad.tobytes()
                        for g in (full, lean):
                            assert g.grad.shape == lead + (p,)
                            assert g.grad.dtype == np.float64
                            # flatten_lora order: each layer's A, then B
                            views = lora_views(net, g.grad)
                            for li, layer in enumerate(net.layers):
                                da, db = g.da[li], g.db[li]
                                assert da.shape == lead + layer.a.shape
                                assert db.shape == lead + layer.b.shape
                                assert np.array_equal(da, views[li][0])
                                assert np.array_equal(db, views[li][1])
                        for i in range(k if params else 0):
                            single = backward(
                                net, x, y, mask=m, params={
                                    li: (a[i], b[i])
                                    for li, (a, b) in stack.items()})
                            assert (full.grad[i].tobytes()
                                    == single.grad.tobytes())
                        # da and db are views into grad, not copies of it
                        full.grad[...] = 0.0
                        assert not any(v.any() for v in full.da + full.db)

    def test_stacked_input_pairs_each_matrix_with_its_adapter(self, rng):
        k, n = 3, 5
        for _ in range(5):
            net, _, _ = random_small_net(rng)
            xs = rng.normal(size=(k, n, net.input_dim))
            # layer 0 shared by every matrix, the others stacked
            params = {li: (rng.normal(0.0, 0.3, size=(k,) + l.a.shape),
                           rng.normal(0.0, 0.3, size=(k,) + l.b.shape))
                      for li, l in enumerate(net.layers) if li}
            params[0] = (net.layers[0].a, net.layers[0].b)
            got = forward(net, xs, params=params).logits
            assert got.shape == (k, n, net.num_classes)
            for i in range(k):
                single = {li: (a if a.ndim == 2 else a[i],
                               b if b.ndim == 2 else b[i])
                          for li, (a, b) in params.items()}
                want = forward(net, xs[i], params=single).logits
                assert np.allclose(got[i], want, rtol=1e-12, atol=1e-12)

    def test_stacked_labels_equal_the_per_device_loop_bitwise(self, rng):
        # (K, n) labels with a (K, n, d) input: row j of matrix k is scored
        # against ys[k, j], as if each device ran its own backward
        k, n = 5, 8
        desk = build_network(16, [16, 12], 10, seed=3)
        for layer in desk.layers:  # move B off its zero init
            layer.b = rng.normal(0.0, 0.3, size=layer.b.shape)
        nets = [desk] + [random_small_net(rng)[0] for _ in range(9)]
        for net in nets:
            xs = rng.normal(size=(k, n, net.input_dim))
            ys = rng.integers(0, net.num_classes, size=(k, n))
            stack = {li: (rng.normal(0.0, 0.3, size=(k,) + l.a.shape),
                          rng.normal(0.0, 0.3, size=(k,) + l.b.shape))
                     for li, l in enumerate(net.layers)}
            mask = [rng.random(l.d_out) < 0.5 for l in net.layers]
            # the adapter stack of the warmup steps, and the network's own
            # 2-D adapters of the noise probes
            for m, params in ((None, stack), (mask, stack), (None, None),
                              (mask, None)):
                stacked = backward(net, xs, ys, mask=m, params=params)
                assert stacked.loss.shape == (k, n)
                assert stacked.grad.shape == (k, net.lora_param_count())
                for i in range(k):
                    single = backward(net, xs[i], ys[i], mask=m, params={
                        li: (a[i], b[i]) for li, (a, b) in stack.items()}
                        if params else None)
                    for name in ("da", "db", "fim_rows"):
                        for got, want in zip(getattr(stacked, name),
                                             getattr(single, name)):
                            assert np.array_equal(got[i], want)
                    for name in ("d_input", "loss"):
                        assert np.array_equal(getattr(stacked, name)[i],
                                              getattr(single, name))

    def test_label_shape_must_match_the_sample_axes(self, rng):
        k, n = 3, 4
        net, x, label = random_small_net(rng)
        xs = rng.normal(size=(k, n, net.input_dim))
        ys = rng.integers(0, net.num_classes, size=(k, n))
        for inputs, labels in ((xs, ys[0]), (xs, ys[:, :-1]), (xs[0], ys),
                               (xs[0], ys[0, :-1]), (x, [label]),
                               (xs[0, :1], ys[0])):
            with pytest.raises(ValueError, match="label shape"):
                backward(net, inputs, labels)

    def test_label_outside_the_classes_rejected(self, rng):
        # the pass reads each label's logit at sample * C + label, so a
        # label outside [0, C) must not reach a neighbouring sample's logits
        k = 3
        net, x, _ = random_small_net(rng)
        xs = np.concatenate([x, x])
        stack = {li: (rng.normal(0.0, 0.3, size=(k,) + l.a.shape),
                      rng.normal(0.0, 0.3, size=(k,) + l.b.shape))
                 for li, l in enumerate(net.layers)}
        for labels, bad in (([net.num_classes, 0], net.num_classes),
                            ([0, -1], -1)):
            for call in (
                    lambda: backward(net, xs, labels),
                    # a (K, n, d) stack, with and without stacked adapters
                    lambda: backward(net, np.stack([xs] * k), [labels] * k),
                    lambda: backward(net, np.stack([xs] * k), [labels] * k,
                                     params=stack),
                    # a 2-D input under stacked adapters
                    lambda: backward(net, xs, labels, params=stack),
                    # one sample
                    lambda: backward(net, x, [bad])):
                with pytest.raises(ValueError):
                    call()

    def test_stacked_dataset_gradient_rows_match_probe_clones(self, rng):
        net, xs, ys = self.sample_batch(rng)
        vecs = flatten_lora(net) + rng.normal(
            0.0, 0.3, size=(5, net.lora_param_count()))
        got = dataset_loss_grad_flat(net, xs, ys, vecs)
        assert got.shape == vecs.shape
        probe = copy_network(net)
        for row, vec in zip(got, vecs):
            set_lora_flat(probe, vec)
            g = backward(probe, xs, ys)
            want = np.concatenate([np.concatenate([da.ravel(), db.ravel()])
                                   for da, db in zip(g.da, g.db)]) / len(ys)
            assert np.allclose(row, want, rtol=1e-12, atol=1e-12)

    def test_stacked_hessian_equals_per_point_stencil(self, rng):
        net, xs, ys = self.sample_batch(rng)
        x = flatten_lora(net)
        got = finite_diff_hessian(
            lambda v: dataset_loss_grad_flat(net, xs, ys, v), x)
        # reference: one probe clone per stencil point, one component a row
        probe = copy_network(net)

        def grad_at(vec):
            set_lora_flat(probe, vec)
            g = backward(probe, xs, ys)
            return np.concatenate([np.concatenate([da.ravel(), db.ravel()])
                                   for da, db in zip(g.da, g.db)]) / len(ys)

        h = default_step(x)
        jac = np.array([(grad_at(x + h * e) - grad_at(x - h * e)) / (2.0 * h)
                        for e in np.eye(x.size)])
        assert np.allclose(got, 0.5 * (jac + jac.T), rtol=1e-9, atol=1e-9)

    def test_params_override_replaces_the_adapter(self, rng):
        net, x, _ = random_small_net(rng)
        other = copy_network(net)
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
            trace = forward(net, x)
            e = np.exp(trace.logits[0] - trace.logits[0].max())
            delta = e / e.sum() - np.eye(net.num_classes)[label[0]]
            x_in = trace.hidden[top - 1][0]
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

    @pytest.mark.parametrize("mask", [
        [None] * 5,                                  # more entries than layers
        [np.ones(3, dtype=bool)],                    # layer 1 left unmasked
        [None, None, np.ones(2, dtype=bool)],
    ])
    def test_mask_length_must_match_the_layer_count(self, mask):
        net = build_network(4, [3], 2)
        xs = make_rng(5).normal(size=(3, 4))
        for x, labels in ((xs, [0, 1, 0]), (xs[None], [[0, 1, 0]])):
            with pytest.raises(ValueError, match=f"mask has {len(mask)} "
                                                 "entries for 2 layers"):
                backward(net, x, labels, mask=mask)


class TestFlatViews:
    def test_roundtrip(self, rng):
        net, _, _ = random_small_net(rng)
        vec = flatten_lora(net)
        other = copy_network(net)
        for layer in other.layers:
            layer.a = np.zeros_like(layer.a)
            layer.b = np.zeros_like(layer.b)
        set_lora_flat(other, vec)
        assert np.array_equal(flatten_lora(other), vec)

    def test_clones_view_the_rows_of_their_store(self, rng):
        net, _, _ = random_small_net(rng)
        store = flatten_lora(net) + rng.normal(
            size=(3, net.lora_param_count()))
        clones = clone_network(net, store)
        assert len(clones) == len(store)
        a0 = lora_slices(net)[0][0]
        for clone, row in zip(clones, store):
            for layer, ref in zip(clone.layers, net.layers, strict=True):
                assert layer.w_base is ref.w_base and layer.bias is ref.bias
                assert np.shares_memory(layer.a, row)
                assert np.shares_memory(layer.b, row)
            assert np.array_equal(flatten_lora(clone), row)
            row += 1.0  # a write to the row is seen through the layers
            assert np.array_equal(flatten_lora(clone), row)
            clone.layers[0].a[...] = 0.0  # and a write to a layer in the row
            assert not row[a0].any()
        assert all(np.array_equal(l.a, r.a) and np.array_equal(l.b, r.b)
                   for l, r in zip(net.layers, copy_network(net).layers))

    @pytest.mark.parametrize("size", [23, 25, 29])
    def test_vector_length_must_match_the_adapter_count(self, size):
        net = build_network(4, [3], 2)  # 24 adapter parameters
        xs = make_rng(5).normal(size=(3, 4))
        message = f"flat adapter vector of {size} entries for 24 adapter"
        with pytest.raises(ValueError, match=message):
            set_lora_flat(net, np.zeros(size))
        with pytest.raises(ValueError, match=message):
            dataset_loss_grad_flat(net, xs, [0, 1, 0], np.zeros((3, size)))
        with pytest.raises(ValueError, match=message):
            lora_views(net, np.zeros(size))

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
