import weakref

import numpy as np
import pytest

from vulngraph import tensor
from vulngraph.errors import GradientError, ShapeError
from vulngraph.tensor import Matrix, Parameter, from_op
from oracles import mean_all, mul, relu, sum_all


class TestOps:
    def test_matmul_identity(self):
        m = Matrix(np.arange(6.0).reshape(2, 3))
        out = tensor.matmul(Matrix(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_relu(self):
        out = relu(Matrix([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 3\)"):
            tensor.add(Matrix(np.zeros((2, 3))), Matrix(np.zeros((3, 3))))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            tensor.matmul(Matrix(np.zeros((2, 3))), Matrix(np.zeros((2, 3))))

    def test_mean_rows_averages_every_row(self):
        m = Matrix([[1.0, 2.0], [3.0, 4.0], [101.0, 102.0]])
        out = tensor.mean_rows(m)
        np.testing.assert_allclose(out.data, [[35.0, 36.0]])
        with pytest.raises(ShapeError, match="no rows"):
            tensor.mean_rows(Matrix(np.zeros((0, 2))))

    def test_gather_rows_bounds(self):
        table = Matrix(np.arange(6.0).reshape(3, 2))
        with pytest.raises(ShapeError, match="out of range"):
            tensor.gather_rows(table, np.array([0, 3]))

    def test_non_finite_rejected(self):
        with pytest.raises(GradientError):
            Matrix([[np.inf, 0.0]])


class TestBackward:
    def test_linear_loss_broadcasts_input(self):
        w = Parameter(np.ones((3, 4)), "w")
        x = Matrix(np.array([[1.0], [2.0], [3.0], [4.0]]))
        loss = sum_all(tensor.matmul(w.value, x))
        tensor.backward(loss)
        np.testing.assert_array_equal(
            w.grad, np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (3, 1)))

    def test_unused_parameter_keeps_zero_grad(self):
        used = Parameter(np.ones((2, 2)), "used")
        unused = Parameter(np.ones((2, 2)), "unused")
        loss = sum_all(used.value)
        tensor.backward(loss)
        np.testing.assert_array_equal(unused.grad, np.zeros((2, 2)))

    def test_backward_twice_raises(self):
        w = Parameter(np.ones((2, 2)), "w")
        loss = sum_all(w.value)
        tensor.backward(loss)
        with pytest.raises(GradientError, match="already"):
            tensor.backward(loss)

    def test_node_is_freed_once_it_has_pushed(self):
        # ``middle`` pushes before ``first``; by then nothing holds it, so
        # its value, which only the node holds, is gone too (a Matrix has
        # slots and no weak references)
        w = Parameter(np.ones((2, 2)), "w")
        reachable = []

        def push(g):
            reachable.append(middle_ref() is not None)
            w.value._accumulate(2.0 * g)

        first = from_op(2.0 * w.data, (w.value,), push)
        middle = tensor.scale(first, 3.0)
        middle_ref = weakref.ref(middle.data)
        loss = sum_all(middle)
        del first, middle
        tensor.backward(loss)
        assert reachable == [False]
        np.testing.assert_array_equal(w.grad, np.full((2, 2), 6.0))

    def test_grads_accumulate_until_zeroed(self):
        w = Parameter(np.ones((1, 2)), "w")
        for expected in (1.0, 2.0):
            tensor.backward(sum_all(w.value))
            np.testing.assert_array_equal(w.grad, np.full((1, 2), expected))
        w.zero_grad()
        np.testing.assert_array_equal(w.grad, np.zeros((1, 2)))

    def test_three_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        w1 = Parameter(rng.normal(size=(4, 5)), "w1")
        w2 = Parameter(rng.normal(size=(5, 4)), "w2")
        w3 = Parameter(rng.normal(size=(4, 2)), "w3")
        x = Matrix(rng.normal(size=(3, 4)))

        def f():
            h = relu(tensor.matmul(x, w1.value))
            h = relu(tensor.matmul(h, w2.value))
            out = tensor.sigmoid(tensor.matmul(h, w3.value))
            return mean_all(mul(out, out))

        report = tensor.grad_check(f, [w1, w2, w3], h=1e-5, tol=1e-4)
        assert report.passed, report
        assert report.max_rel_error < 1e-4

    def test_deterministic_forward(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        a1 = tensor.glorot_uniform(6, 6, rng1)
        a2 = tensor.glorot_uniform(6, 6, rng2)
        assert np.array_equal(a1, a2)


class TestGradCheck:
    def test_quadratic_closed_form(self):
        theta = Parameter(np.array([[1.0, 2.0]]), "theta")

        def f():
            return sum_all(mul(theta.value, theta.value))

        theta.zero_grad()
        loss = f()
        tensor.backward(loss)
        np.testing.assert_array_equal(theta.grad, [[2.0, 4.0]])
        report = tensor.grad_check(f, [theta], h=1e-5)
        assert report.max_rel_error < 1e-8

    def test_constant_function(self):
        theta = Parameter(np.ones((2, 2)), "theta")
        constant = Matrix([[5.0]])
        report = tensor.grad_check(lambda: tensor.scale(constant, 1.0), [theta])
        assert report.max_rel_error == 0.0
        np.testing.assert_array_equal(theta.grad, np.zeros((2, 2)))

    def test_relu_kink_is_skipped(self):
        theta = Parameter(np.array([[0.0, 1.0]]), "theta")

        def f():
            return sum_all(relu(theta.value))

        report = tensor.grad_check(f, [theta], h=1e-5)
        assert report.n_skipped == 1  # the coordinate sitting on the kink
        assert report.n_checked == 1
        assert report.passed

    def test_randomized_small_shapes(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            rows, inner, cols = rng.integers(2, 9, size=3)
            w = Parameter(rng.normal(size=(rows, inner)), "w")
            b = Parameter(rng.normal(size=(1, cols)), "b")
            v = Parameter(rng.normal(size=(inner, cols)), "v")
            x = Matrix(rng.normal(size=(1, rows)))

            def f():
                h = tensor.sigmoid(tensor.matmul(x, w.value))
                out = tensor.add(tensor.matmul(h, v.value), b.value)
                return mean_all(mul(out, out))

            report = tensor.grad_check(f, [w, b, v], tol=1e-4)
            assert report.passed, (seed, report)

    def test_sampled_coordinates_are_deterministic(self):
        rng = np.random.default_rng(0)
        w = Parameter(rng.normal(size=(8, 8)), "w")

        def f():
            return mean_all(mul(w.value, w.value))

        r1 = tensor.grad_check(f, [w], max_coords_per_param=10,
                               rng=np.random.default_rng(3))
        r2 = tensor.grad_check(f, [w], max_coords_per_param=10,
                               rng=np.random.default_rng(3))
        assert r1.n_checked == r2.n_checked == 10
        assert r1.max_rel_error == r2.max_rel_error


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        params = [Parameter(rng.normal(size=(3, 5)) * 1e-7, "a"),
                  Parameter(rng.normal(size=(2, 2)) * 1e9, "b")]
        path = tmp_path / "params.npz"
        tensor.save_params(path, params)
        loaded = tensor.load_params(path)
        for p in params:
            assert np.array_equal(loaded[p.name], p.data)
            assert loaded[p.name].dtype == np.float64

    def test_duplicate_names_rejected(self, tmp_path):
        params = [Parameter(np.zeros((1, 1)), "x"),
                  Parameter(np.zeros((1, 1)), "x")]
        with pytest.raises(GradientError, match="duplicate"):
            tensor.save_params(tmp_path / "p.npz", params)


class TestGradientOwnership:
    """A node keeps the first gradient pushed to it, uncopied; no op may
    then write into an array that another node or a view also holds."""

    @staticmethod
    def backward_keeps_buffers(loss, params):
        buffers = [p.grad for p in params]
        tensor.backward(loss)
        assert all(p.grad is buffer for p, buffer in zip(params, buffers))
        grads = [p.grad.copy() for p in params]
        for p, buffer in zip(params, buffers):
            p.zero_grad()
            assert p.grad is buffer
        return grads

    def test_add_of_a_node_to_itself(self):
        x = Matrix([[1.0, -2.0], [3.0, 0.5]])
        w = Parameter([[2.0, 1.0], [-1.0, 4.0]], "w")
        h = tensor.matmul(x, w.value)
        (grad,) = self.backward_keeps_buffers(
            sum_all(tensor.add(h, h)), [w])
        np.testing.assert_array_equal(grad, 2.0 * x.data.T @ np.ones((2, 2)))

    def test_branches_sharing_one_pushed_array(self):
        # add pushes one array to a and b; each is then read once more
        rng = np.random.default_rng(5)
        x = Matrix(rng.normal(size=(3, 4)))
        w1 = Parameter(rng.normal(size=(4, 2)), "w1")
        w2 = Parameter(rng.normal(size=(4, 2)), "w2")

        def f():
            a = tensor.matmul(x, w1.value)
            b = tensor.matmul(x, w2.value)
            squares = tensor.add(mul(a, a), mul(b, b))
            return sum_all(tensor.add(tensor.add(a, b), squares))

        a = x.data @ w1.data
        b = x.data @ w2.data
        grads = self.backward_keeps_buffers(f(), [w1, w2])
        np.testing.assert_allclose(grads[0], x.data.T @ (1.0 + 2.0 * a),
                                   rtol=1e-13)
        np.testing.assert_allclose(grads[1], x.data.T @ (1.0 + 2.0 * b),
                                   rtol=1e-13)
        report = tensor.grad_check(f, [w1, w2])
        assert report.passed, report

    def test_residual_node_read_by_two_ops(self):
        rng = np.random.default_rng(6)
        x = Matrix(rng.normal(size=(5, 3)))
        operator = Matrix(rng.uniform(size=(5, 5)))
        w_in = Parameter(rng.normal(size=(3, 4)), "w_in")
        w = Parameter(rng.normal(size=(4, 4)), "w")

        def f():
            h = tensor.matmul(x, w_in.value)
            mixed = tensor.matmul(tensor.matmul(operator, h), w.value)
            out = tensor.add(h, relu(mixed))
            return mean_all(mul(out, out))

        self.backward_keeps_buffers(f(), [w_in, w])
        report = tensor.grad_check(f, [w_in, w])
        assert report.passed, report
        assert report.n_checked > 20

    @pytest.mark.parametrize("view_first", [True, False])
    def test_mean_rows_view_then_another_gradient(self, view_first):
        x = Matrix([[1.0, 2.0], [0.5, -1.0], [3.0, 1.0]])
        w = Parameter([[1.0, -1.0, 2.0], [0.5, 1.5, -2.0]], "w")
        h = tensor.matmul(x, w.value)
        terms = [sum_all(tensor.mean_rows(h)),
                 sum_all(mul(h, h))]
        if not view_first:
            terms.reverse()
        (grad,) = self.backward_keeps_buffers(tensor.add(*terms), [w])
        np.testing.assert_allclose(grad, x.data.T @ (1.0 / 3.0 + 2.0 * h.data),
                                   rtol=1e-13)

    @pytest.mark.parametrize("gather_first", [True, False])
    def test_gather_rows_into_a_received_gradient(self, gather_first):
        x = Matrix([[1.0, 2.0], [0.5, -1.0], [3.0, 1.0]])
        w = Parameter([[1.0, -1.0], [0.5, 1.5]], "w")
        table = tensor.matmul(x, w.value)
        ids = np.array([2, 0, 2, 2])
        terms = [sum_all(tensor.gather_rows(table, ids)),
                 sum_all(tensor.mean_rows(table))]
        if not gather_first:
            terms.reverse()
        (grad,) = self.backward_keeps_buffers(tensor.add(*terms), [w])
        counts = np.bincount(ids, minlength=3)[:, None] * np.ones((1, 2))
        np.testing.assert_array_equal(grad, x.data.T @ (counts + 1.0 / 3.0))

    def test_segment_sum_equals_add_at_into_zeros(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 5))
        segments = rng.integers(0, 6, size=40)
        expected = np.zeros((7, 5))
        np.add.at(expected, segments, values)
        assert np.array_equal(tensor.segment_sum(values, segments, 7),
                              expected)
