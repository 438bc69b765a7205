import numpy as np
import pytest

from conftest import random_small_net
from fedlora.fisher import (BatchScore, FimDiag, average_fim, batch_score,
                            mean_row_fim, momentum_update, neuron_scores,
                            sample_fim_diag, sample_score)
from fedlora.network import backward, forward


def make_fd(vectors, shapes):
    return FimDiag([np.asarray(v, dtype=np.float64) for v in vectors],
                   list(shapes))


class TestSampleFimDiag:
    def test_entries_are_squared_full_weight_gradients(self, rng):
        # one sample's full-weight gradient is the outer product delta x^T,
        # so its squared entries are delta_i^2 x_j^2 = fim_rows_i x_j^2/||x||^2
        for _ in range(10):
            net, x, label = random_small_net(rng)
            fd = sample_fim_diag(net, x, label)
            g = backward(net, x, label)
            inputs = [x] + forward(net, x).hidden[:-1]
            for li, x_in in enumerate(inputs):
                if not x_in.any():  # dead layer input: no gradient
                    assert not fd.per_layer[li].any()
                    continue
                want = np.outer(g.fim_rows[li], x_in ** 2 / (x_in @ x_in))
                assert fd.layer_shapes[li] == want.shape
                assert np.allclose(fd.per_layer[li], want.ravel(),
                                   rtol=1e-12, atol=1e-300)

    def test_nonnegative_and_finite(self, rng):
        net, x, label = random_small_net(rng)
        fd = sample_fim_diag(net, x, label)
        for v in fd.per_layer:
            assert np.all(v >= 0)
            assert np.all(np.isfinite(v))

    def test_trace_equals_squared_gradient_norm(self, rng):
        # closed form: trace = sum over layers of ||delta||^2 ||x||^2
        for _ in range(10):
            net, x, label = random_small_net(rng)
            fd = sample_fim_diag(net, x, label)
            g = backward(net, x, label)
            closed = float(sum(rows.sum() for rows in g.fim_rows))
            assert abs(fd.total() - closed) <= 1e-12 * fd.total()

    def test_closed_form_row_sums_match_per_sample(self, rng):
        for _ in range(10):
            net, _, _ = random_small_net(rng)
            xs = rng.normal(size=(6, net.input_dim))
            ys = rng.integers(0, net.num_classes, size=6)
            g = backward(net, xs, ys)
            traces = sum(rows.sum(axis=1) for rows in g.fim_rows)
            for i, (x, y) in enumerate(zip(xs, ys)):
                fd = sample_fim_diag(net, x, int(y))
                for li in range(len(net.layers)):
                    want = neuron_scores(fd, li)
                    assert np.allclose(g.fim_rows[li][i], want, rtol=1e-12,
                                       atol=1e-300)
                assert abs(traces[i] - fd.total()) <= 1e-12 * fd.total()
            device = mean_row_fim(g.fim_rows)
            full = average_fim([sample_fim_diag(net, x, int(y))
                                for x, y in zip(xs, ys)])
            for li in range(len(net.layers)):
                assert np.allclose(neuron_scores(device, li),
                                   neuron_scores(full, li), rtol=1e-12,
                                   atol=1e-300)


class TestSampleScore:
    def test_zero_fim_scores_zero(self):
        fd = make_fd([np.zeros(6)], [(2, 3)])
        assert sample_score(fd) == 0.0

    def test_sums_entries(self):
        fd = make_fd([[1.0, 2.0, 3.0]], [(1, 3)])
        assert sample_score(fd) == 6.0


class TestBatchScore:
    def test_singleton(self):
        assert batch_score([5.0]) == 5.0

    def test_sums(self):
        assert batch_score([1.0, 2.0, 3.0]) == 6.0

    def test_permutation_invariant(self):
        assert batch_score([3.0, 1.0, 2.0]) == batch_score([1.0, 2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_score([])


class TestMomentumUpdate:
    def test_gamma_zero_returns_fresh(self):
        prev = make_fd([[2.0]], [(1, 1)])
        fresh = make_fd([[4.0]], [(1, 1)])
        assert momentum_update(prev, fresh, 0.0).per_layer[0][0] == 4.0

    def test_gamma_one_returns_prev(self):
        prev = make_fd([[2.0]], [(1, 1)])
        fresh = make_fd([[4.0]], [(1, 1)])
        assert momentum_update(prev, fresh, 1.0).per_layer[0][0] == 2.0

    def test_halfway_mix(self):
        prev = make_fd([[2.0]], [(1, 1)])
        fresh = make_fd([[4.0]], [(1, 1)])
        assert momentum_update(prev, fresh, 0.5).per_layer[0][0] == 3.0

    def test_first_window_passes_fresh_through(self):
        fresh = make_fd([[4.0, 1.0]], [(1, 2)])
        out = momentum_update(None, fresh, 0.9)
        assert np.array_equal(out.per_layer[0], fresh.per_layer[0])
        out.per_layer[0][0] = -1.0  # must be an independent copy
        assert fresh.per_layer[0][0] == 4.0

    def test_shape_mismatch_rejected(self):
        prev = make_fd([[1.0, 2.0]], [(1, 2)])
        fresh = make_fd([[1.0]], [(1, 1)])
        with pytest.raises(ValueError):
            momentum_update(prev, fresh, 0.5)

    def test_coefficient_range_enforced(self):
        fresh = make_fd([[1.0]], [(1, 1)])
        with pytest.raises(ValueError):
            momentum_update(None, fresh, 1.5)


class TestAverageFim:
    def test_mean_of_two(self):
        a = make_fd([[2.0, 0.0]], [(1, 2)])
        b = make_fd([[4.0, 2.0]], [(1, 2)])
        out = average_fim([a, b])
        assert np.array_equal(out.per_layer[0], [3.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_fim([])


class TestNeuronScores:
    def test_row_sums(self):
        fd = make_fd([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]], [(2, 3)])
        assert np.array_equal(neuron_scores(fd, 0), [6.0, 15.0])

    def test_zero_layer(self):
        fd = make_fd([np.zeros(6)], [(3, 2)])
        assert np.array_equal(neuron_scores(fd, 0), np.zeros(3))

    def test_scores_partition_the_layer_trace(self, rng):
        net, x, label = random_small_net(rng)
        fd = sample_fim_diag(net, x, label)
        for li in range(len(net.layers)):
            assert abs(neuron_scores(fd, li).sum() - fd.per_layer[li].sum()) < 1e-12

    def test_out_of_range_layer_rejected(self):
        fd = make_fd([[1.0]], [(1, 1)])
        with pytest.raises(IndexError):
            neuron_scores(fd, 1)


def test_batch_scores_sort_deterministically():
    scores = [BatchScore(0, 2.0), BatchScore(1, 2.0), BatchScore(2, 1.0)]
    from fedlora.curriculum import sort_batches
    assert sort_batches(scores) == [2, 0, 1]
