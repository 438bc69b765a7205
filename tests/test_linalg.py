from functools import partial

import numpy as np
import pytest

from conftest import random_small_net
from fedlora.linalg import (default_step, eigh_symmetric, finite_diff_hessian,
                            make_rng)
from fedlora.network import dataset_loss_grad_flat, flatten_lora
from oracles import finite_diff_gradient


class TestMakeRng:
    def test_equal_seeds_give_bitwise_equal_streams(self):
        a = make_rng(123).random(1_000_000)
        b = make_rng(123).random(1_000_000)
        assert np.array_equal(a, b)

    def test_substreams_differ_from_root_and_each_other(self):
        root = make_rng(7).random(100)
        s1 = make_rng(7, 1).random(100)
        s2 = make_rng(7, 2).random(100)
        assert not np.array_equal(root, s1)
        assert not np.array_equal(s1, s2)


class TestEighSymmetric:
    def test_identity(self):
        w, _ = eigh_symmetric(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        w, _ = eigh_symmetric(np.diag([3.0, -1.0]))
        assert np.allclose(w, [-1.0, 3.0])

    def test_two_by_two_hand_case(self):
        w, _ = eigh_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [1.0, 3.0])

    def test_reconstruction_trace_and_orthonormality(self):
        rng = make_rng(0)
        m = rng.normal(size=(12, 12))
        m = m + m.T
        w, v = eigh_symmetric(m)
        assert np.all(np.diff(w) >= 0)
        recon = v @ np.diag(w) @ v.T
        assert np.linalg.norm(recon - m) <= 1e-8 * max(1.0, np.linalg.norm(m))
        assert abs(w.sum() - np.trace(m)) <= 1e-8 * max(1.0, abs(np.trace(m)))
        assert np.linalg.norm(v.T @ v - np.eye(12)) < 1e-8

    def test_eigenvalues_alone_match_the_decomposition(self):
        # the engine reads its spectra with eigvalsh alone
        rng = make_rng(1)
        for n in (1, 2, 7, 40):
            m = rng.normal(size=(n, n))
            m = m + m.T
            w = np.linalg.eigvalsh(m)
            assert np.all(np.diff(w) >= 0)
            ref, _ = eigh_symmetric(m)
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_rejects_asymmetric_and_nonsquare(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eigh_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            eigh_symmetric(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="square"):
            eigh_symmetric(np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            eigh_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            eigh_symmetric(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestFiniteDiffGradient:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda v: float(v @ v), np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-6)

    def test_constant_function_is_flat(self):
        g = finite_diff_gradient(lambda v: 3.0, np.array([0.3, -2.0, 5.0]))
        assert np.allclose(g, 0.0)

    def test_product_rule(self):
        g = finite_diff_gradient(lambda v: float(v[0] * v[1]), np.array([3.0, 5.0]))
        assert np.allclose(g, [5.0, 3.0], atol=1e-6)

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(ArithmeticError):
            finite_diff_gradient(lambda v: float("nan"), np.array([1.0]))


class TestFiniteDiffHessian:
    def test_quadratic_hessian(self):
        h = finite_diff_hessian(lambda v: 2.0 * v, np.array([0.5, -1.0]))
        assert np.allclose(h, 2.0 * np.eye(2), atol=1e-4)

    def test_linear_gradient_gives_symmetrized_jacobian(self):
        j = np.array([[1.0, 2.0], [5.0, -3.0]])
        h = finite_diff_hessian(lambda v: v @ j.T, np.array([0.0, 0.0]))
        assert np.allclose(h, 0.5 * (j + j.T), atol=1e-8)

    def test_cubic_cross_terms(self):
        # f = x0^2 * x1, grad = (2 x0 x1, x0^2), one point per row
        grad = lambda v: np.stack([2.0 * v[:, 0] * v[:, 1], v[:, 0] ** 2],
                                  axis=1)
        h = finite_diff_hessian(grad, np.array([1.0, 1.0]))
        assert np.allclose(h, [[2.0, 2.0], [2.0, 0.0]], atol=1e-3)

    def test_output_is_symmetric(self):
        rng = make_rng(3)
        j = rng.normal(size=(5, 5))
        h = finite_diff_hessian(lambda v: v @ j.T, rng.normal(size=5))
        assert np.array_equal(h, h.T)

    def test_engine_hessian_of_a_random_network_is_exactly_symmetric(self):
        # the engine reads this matrix's spectrum with no symmetry check
        rng = make_rng(4)
        for _ in range(10):
            net, x, label = random_small_net(rng)
            grad = partial(dataset_loss_grad_flat, net, x[None], [label])
            h = finite_diff_hessian(grad, flatten_lora(net))
            assert np.array_equal(h, h.T)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_result_of_finite_sides_raises(self):
        # each side is finite, but (gp - gm) / 2h overflows
        with pytest.raises(ArithmeticError, match="non-finite Hessian"):
            finite_diff_hessian(lambda v: np.where(v > 0.0, 1e308, -1e308),
                                np.zeros(2), h=1.0)
        # the Jacobian is finite, but its symmetrizing sum overflows
        j = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
        with pytest.raises(ArithmeticError, match="non-finite Hessian"):
            finite_diff_hessian(lambda v: v @ j.T, np.zeros(2), h=0.25)

    def test_one_call_per_stencil_side(self):
        x = np.array([0.5, -1.0, 2.0, 0.0])
        h = 1e-3
        calls = []

        def grad(v):
            calls.append(v.copy())
            return 2.0 * v

        finite_diff_hessian(grad, x, h=h)
        assert len(calls) == 2
        assert np.array_equal(calls[0], x + h * np.eye(4))
        assert np.array_equal(calls[1], x - h * np.eye(4))

    def test_nonfinite_stencil_row_names_the_first_component(self):
        # NaN rows where component 1 steps up and component 3 steps down
        def grad(v):
            bad = (v[:, 1] > 0.0) | (v[:, 3] < 0.0)
            return np.where(bad[:, None], np.nan, 2.0 * v)

        with pytest.raises(ArithmeticError, match="at component 1$"):
            finite_diff_hessian(grad, np.zeros(4))
        # a non-finite row on the minus side alone is caught too
        with pytest.raises(ArithmeticError, match="at component 3$"):
            finite_diff_hessian(lambda v: np.where((v[:, 3] < 0.0)[:, None],
                                                   np.inf, v), np.zeros(4))


def test_default_step_scales_with_magnitude():
    assert default_step(np.array([0.1])) == 1e-5
    assert default_step(np.array([200.0])) == 1e-5 * 200.0
