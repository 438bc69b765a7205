import numpy as np
import pytest

from conftest import random_small_net
from fedlora.curriculum import sort_batches
from fedlora.fisher import (average_fim, momentum_update, neuron_scores,
                            sample_fim_diag)
from fedlora.network import backward, forward
from oracles import fim_trace


def make_fim(*layers):
    return [np.asarray(v, dtype=np.float64) for v in layers]


class TestSampleFimDiag:
    def test_entries_are_squared_full_weight_gradients(self, rng):
        # one sample's full-weight gradient is the outer product delta x^T,
        # so its squared entries are delta_i^2 x_j^2 = fim_rows_i x_j^2/||x||^2
        for _ in range(10):
            net, x, label = random_small_net(rng)
            fd = sample_fim_diag(net, x[0], label[0])
            g = backward(net, x, label)
            inputs = [x[0]] + [h[0] for h in forward(net, x).hidden[:-1]]
            for li, x_in in enumerate(inputs):
                if not x_in.any():  # dead layer input: no gradient
                    assert not fd[li].any()
                    continue
                want = np.outer(g.fim_rows[li][0], x_in ** 2 / (x_in @ x_in))
                assert fd[li].shape == want.shape
                assert np.allclose(fd[li], want, rtol=1e-12, atol=1e-300)

    def test_nonnegative_and_finite(self, rng):
        net, x, label = random_small_net(rng)
        fd = sample_fim_diag(net, x[0], label[0])
        for v in fd:
            assert np.all(v >= 0)
            assert np.all(np.isfinite(v))

    def test_trace_equals_squared_gradient_norm(self, rng):
        # closed form: trace = sum over layers of ||delta||^2 ||x||^2
        for _ in range(10):
            net, x, label = random_small_net(rng)
            fd = sample_fim_diag(net, x[0], label[0])
            g = backward(net, x, label)
            closed = float(sum(rows.sum() for rows in g.fim_rows))
            assert abs(fim_trace(fd) - closed) <= 1e-12 * fim_trace(fd)

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
                assert abs(traces[i] - fim_trace(fd)) <= 1e-12 * fim_trace(fd)
            # the engine's device FIM: mean per-sample rows, (d_out, 1)
            device = [rows.mean(axis=-2)[..., None] for rows in g.fim_rows]
            full = average_fim([sample_fim_diag(net, x, int(y))
                                for x, y in zip(xs, ys)])
            for li in range(len(net.layers)):
                assert np.allclose(neuron_scores(device, li),
                                   neuron_scores(full, li), rtol=1e-12,
                                   atol=1e-300)


class TestSampleScore:
    def test_zero_fim_scores_zero(self):
        fd = make_fim(np.zeros((2, 3)))
        assert fim_trace(fd) == 0.0

    def test_sums_entries(self):
        fd = make_fim([[1.0, 2.0, 3.0]])
        assert fim_trace(fd) == 6.0


class TestMomentumUpdate:
    def test_gamma_zero_returns_fresh(self):
        prev, fresh = make_fim([[2.0]]), make_fim([[4.0]])
        assert momentum_update(prev, fresh, 0.0)[0][0, 0] == 4.0

    def test_gamma_one_returns_prev(self):
        prev, fresh = make_fim([[2.0]]), make_fim([[4.0]])
        assert momentum_update(prev, fresh, 1.0)[0][0, 0] == 2.0

    def test_halfway_mix(self):
        prev, fresh = make_fim([[2.0]]), make_fim([[4.0]])
        assert momentum_update(prev, fresh, 0.5)[0][0, 0] == 3.0

    def test_first_window_passes_fresh_through(self):
        fresh = make_fim([[4.0, 1.0]])
        out = momentum_update(None, fresh, 0.9)
        assert np.array_equal(out[0], fresh[0])
        out[0][0, 0] = -1.0  # must be an independent copy
        assert fresh[0][0, 0] == 4.0


class TestAverageFim:
    def test_mean_of_two(self):
        a = make_fim([[2.0, 0.0]])
        b = make_fim([[4.0, 2.0]])
        out = average_fim([a, b])
        assert np.array_equal(out[0], [[3.0, 1.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_fim([])


class TestNeuronScores:
    def test_row_sums(self):
        fd = make_fim([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(neuron_scores(fd, 0), [6.0, 15.0])

    def test_row_sum_layout_reads_back(self):
        # a (D, d_out, 1) stack of row sums gives (D, d_out) scores as is
        rows = np.arange(6.0).reshape(2, 3, 1)
        assert np.array_equal(neuron_scores(make_fim(rows), 0), rows[..., 0])

    def test_zero_layer(self):
        fd = make_fim(np.zeros((3, 2)))
        assert np.array_equal(neuron_scores(fd, 0), np.zeros(3))

    def test_scores_partition_the_layer_trace(self, rng):
        net, x, label = random_small_net(rng)
        fd = sample_fim_diag(net, x[0], label[0])
        for li in range(len(net.layers)):
            assert abs(neuron_scores(fd, li).sum() - fd[li].sum()) < 1e-12

    def test_out_of_range_layer_rejected(self):
        fd = make_fim([[1.0]])
        with pytest.raises(IndexError):
            neuron_scores(fd, 1)


def test_batch_scores_sort_deterministically():
    assert sort_batches([2.0, 2.0, 1.0]) == [2, 0, 1]
