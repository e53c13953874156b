import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from vulngraph import runfiles, tensor
from vulngraph.errors import DataError, GradientError, ShapeError
from vulngraph.lexer import tokenize
from vulngraph.semgraph import build_graph
from vulngraph.tensor import DENSE_ROWS, Matrix, from_op, leaf
from conftest import HUB_SOURCE, LONG_SOURCE, operator_from_dense
from oracles import grad_check, mean_all, mul, sum_all

#: Column counts of ``segment_sum`` inputs: none, one block of
#: ``tensor.SEGMENT_BLOCK`` (64) columns or less, and past it, ending in
#: a full or a narrower block.
SEGMENT_WIDTHS = [0, 1, 5, 63, 64, 65, 129, 512]


def segment_case(seed, width, dtype=np.float64):
    """40 rows in unsorted, repeated segments of 7, of which no row names
    segment 3, and their sums by ``np.add.at`` into float64 zeros."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(40, width)).astype(dtype)
    segments = rng.integers(0, 6, size=40)
    segments[segments == 3] = 6
    expected = np.zeros((7, width))
    np.add.at(expected, segments, values)
    return values, segments, expected


class TestOps:
    def test_matmul_identity(self):
        m = Matrix(np.arange(6.0).reshape(2, 3))
        out = tensor.matmul(Matrix(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_relu(self):
        out = tensor.relu(Matrix([[-1.0, 2.0]]))
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

    def test_sparse_product_pushes_its_transpose(self):
        rng = np.random.default_rng(8)
        dense = rng.uniform(0.5, 1.0, size=(5, 5))
        outer = rng.normal(size=(5, 3))
        w = leaf(rng.normal(size=(5, 3)))
        product = tensor.apply(operator_from_dense(dense), w)
        np.testing.assert_allclose(product.data, dense @ w.data, rtol=1e-14)
        tensor.backward(sum_all(mul(product, Matrix(outer))))
        np.testing.assert_allclose(w.grad, dense.T @ outer, rtol=1e-14)
        with pytest.raises(ShapeError, match=r"5 rows.*\(4, 3\)"):
            tensor.apply(operator_from_dense(dense), Matrix(np.zeros((4, 3))))

    def test_non_finite_rejected(self):
        with pytest.raises(GradientError):
            Matrix([[np.inf, 0.0]])


class TestBackward:
    def test_linear_loss_broadcasts_input(self):
        w = leaf(np.ones((3, 4)))
        x = Matrix(np.array([[1.0], [2.0], [3.0], [4.0]]))
        loss = sum_all(tensor.matmul(w, x))
        tensor.backward(loss)
        np.testing.assert_array_equal(
            w.grad, np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (3, 1)))

    def test_unused_parameter_keeps_zero_grad(self):
        # a leaf that nothing pushes to has no gradient: zero
        used, unused = leaf(np.ones((2, 2))), leaf(np.ones((2, 2)))
        loss = sum_all(used)
        tensor.backward(loss)
        np.testing.assert_array_equal(used.grad, np.ones((2, 2)))
        assert unused.grad is None

    def test_backward_twice_raises(self):
        loss = sum_all(leaf(np.ones((2, 2))))
        tensor.backward(loss)
        with pytest.raises(GradientError, match="already"):
            tensor.backward(loss)

    def test_node_is_freed_once_it_has_pushed(self):
        # ``middle`` pushes before ``first``; by then nothing holds it, so
        # its value, which only the node holds, is gone too (a Matrix has
        # slots and no weak references)
        node = leaf(np.ones((2, 2)))
        reachable = []

        def push(g):
            reachable.append(middle_ref() is not None)
            node._accumulate(2.0 * g)

        first = from_op(2.0 * node.data, (node,), push)
        middle = tensor.scale(first, 3.0)
        middle_ref = weakref.ref(middle.data)
        loss = sum_all(middle)
        del first, middle
        tensor.backward(loss)
        assert reachable == [False]
        np.testing.assert_array_equal(node.grad, np.full((2, 2), 6.0))

    def test_grads_accumulate_until_zeroed(self):
        # a leaf's gradient adds every loss's, in place, until it is reset
        w = leaf(np.ones((1, 2)))
        for expected in (1.0, 2.0):
            tensor.backward(sum_all(w))
            np.testing.assert_array_equal(w.grad, np.full((1, 2), expected))
        held = w.grad
        w.grad[...] = 0.0
        tensor.backward(sum_all(w))
        assert w.grad is held
        np.testing.assert_array_equal(w.grad, np.ones((1, 2)))

    def test_three_layer_composition_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        params = {"w1": rng.normal(size=(4, 5)), "w2": rng.normal(size=(5, 4)),
                  "w3": rng.normal(size=(4, 2))}
        x = Matrix(rng.normal(size=(3, 4)))

        def f():
            leaves = {name: leaf(values) for name, values in params.items()}
            h = tensor.relu(tensor.matmul(x, leaves["w1"]))
            h = tensor.relu(tensor.matmul(h, leaves["w2"]))
            out = tensor.sigmoid(tensor.matmul(h, leaves["w3"]))
            return mean_all(mul(out, out)), leaves

        report = grad_check(f, params, h=1e-5, tol=1e-4)
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
        theta = np.array([[1.0, 2.0]])

        def f():
            node = leaf(theta)
            return sum_all(mul(node, node)), {"theta": node}

        loss, leaves = f()
        tensor.backward(loss)
        np.testing.assert_array_equal(leaves["theta"].grad, [[2.0, 4.0]])
        report = grad_check(f, {"theta": theta}, h=1e-5)
        assert report.max_rel_error < 1e-8

    def test_constant_function(self):
        theta = leaf(np.ones((2, 2)))
        constant = Matrix([[5.0]])
        report = grad_check(lambda: (tensor.scale(constant, 1.0),
                                     {"theta": theta}),
                            {"theta": theta.data})
        assert report.max_rel_error == 0.0
        assert theta.grad is None

    def test_relu_kink_is_skipped(self):
        theta = np.array([[0.0, 1.0]])

        def f():
            node = leaf(theta)
            return sum_all(tensor.relu(node)), {"theta": node}

        report = grad_check(f, {"theta": theta}, h=1e-5)
        assert report.n_skipped == 1  # the coordinate sitting on the kink
        assert report.n_checked == 1
        assert report.passed

    def test_randomized_small_shapes(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            rows, inner, cols = rng.integers(2, 9, size=3)
            params = {"w": rng.normal(size=(rows, inner)),
                      "b": rng.normal(size=(1, cols)),
                      "v": rng.normal(size=(inner, cols))}
            x = Matrix(rng.normal(size=(1, rows)))

            def f():
                leaves = {name: leaf(values)
                          for name, values in params.items()}
                h = tensor.sigmoid(tensor.matmul(x, leaves["w"]))
                out = tensor.add(tensor.matmul(h, leaves["v"]), leaves["b"])
                return mean_all(mul(out, out)), leaves

            report = grad_check(f, params, tol=1e-4)
            assert report.passed, (seed, report)

    def test_sampled_coordinates_are_deterministic(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 8))

        def f():
            node = leaf(w)
            return mean_all(mul(node, node)), {"w": node}

        r1 = grad_check(f, {"w": w}, max_coords_per_param=10,
                        rng=np.random.default_rng(3))
        r2 = grad_check(f, {"w": w}, max_coords_per_param=10,
                        rng=np.random.default_rng(3))
        assert r1.n_checked == r2.n_checked == 10
        assert r1.max_rel_error == r2.max_rel_error


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        params = {"a": rng.normal(size=(3, 5)) * 1e-7,
                  "b": rng.normal(size=(2, 2)) * 1e9}
        path = tmp_path / "params.npz"
        runfiles.save_params(path, params)
        loaded = runfiles.load_params(path)
        assert loaded.keys() == params.keys()
        for name, values in params.items():
            assert np.array_equal(loaded[name], values)
            assert loaded[name].dtype == np.float64

    @pytest.mark.parametrize("entries, message", [
        pytest.param(dict(a=np.array(["1.5", "2"])), "not real numbers",
                     id="numeral-strings"),
        pytest.param(dict(a=np.array([1.5 + 2j, 2.0])), "not real numbers",
                     id="complex"),
        pytest.param(dict(__format_version__=np.array([1.7]),
                          a=np.zeros(2)), "not integers", id="float-version"),
        pytest.param(dict(__format_version__=np.array([[1]]),
                          a=np.zeros(2)), "not one integer",
                     id="non-scalar-version"),
    ])
    def test_entries_that_are_not_real_numbers_rejected(self, tmp_path,
                                                        entries, message):
        path = tmp_path / "params.npz"
        np.savez(path, **{"__format_version__": np.array(
            [runfiles.CHECKPOINT_FORMAT_VERSION]), **entries})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=message):
                runfiles.load_params(path)


class TestGradientOwnership:
    """A node copies the first gradient pushed to it and adds later ones
    in place, so no op writes into an array that another node or a view
    also holds; a leaf given a gradient adds into that array."""

    @staticmethod
    def backward_keeps_buffers(loss, leaves):
        """Each leaf's gradient of ``loss``, added into preset zeros that
        stay the leaf's."""
        buffers = [np.zeros(node.shape) for node in leaves]
        for node, buffer in zip(leaves, buffers):
            node.grad = buffer
        tensor.backward(loss)
        assert all(node.grad is buffer
                   for node, buffer in zip(leaves, buffers))
        return buffers

    def test_add_of_a_node_to_itself(self):
        x = Matrix([[1.0, -2.0], [3.0, 0.5]])
        w = leaf(np.array([[2.0, 1.0], [-1.0, 4.0]]))
        h = tensor.matmul(x, w)
        (grad,) = self.backward_keeps_buffers(
            sum_all(tensor.add(h, h)), [w])
        np.testing.assert_array_equal(grad, 2.0 * x.data.T @ np.ones((2, 2)))

    def test_branches_sharing_one_pushed_array(self):
        # add pushes one array to a and b; each is then read once more
        rng = np.random.default_rng(5)
        x = Matrix(rng.normal(size=(3, 4)))
        params = {"w1": rng.normal(size=(4, 2)), "w2": rng.normal(size=(4, 2))}

        def f():
            leaves = {name: leaf(values) for name, values in params.items()}
            a = tensor.matmul(x, leaves["w1"])
            b = tensor.matmul(x, leaves["w2"])
            squares = tensor.add(mul(a, a), mul(b, b))
            return sum_all(tensor.add(tensor.add(a, b), squares)), leaves

        a = x.data @ params["w1"]
        b = x.data @ params["w2"]
        loss, leaves = f()
        grads = self.backward_keeps_buffers(loss, list(leaves.values()))
        np.testing.assert_allclose(grads[0], x.data.T @ (1.0 + 2.0 * a),
                                   rtol=1e-13)
        np.testing.assert_allclose(grads[1], x.data.T @ (1.0 + 2.0 * b),
                                   rtol=1e-13)
        report = grad_check(f, params)
        assert report.passed, report

    def test_residual_node_read_by_two_ops(self):
        rng = np.random.default_rng(6)
        x = Matrix(rng.normal(size=(5, 3)))
        operator = Matrix(rng.uniform(size=(5, 5)))
        params = {"w_in": rng.normal(size=(3, 4)),
                  "w": rng.normal(size=(4, 4))}

        def f():
            leaves = {name: leaf(values) for name, values in params.items()}
            h = tensor.matmul(x, leaves["w_in"])
            mixed = tensor.matmul(tensor.matmul(operator, h), leaves["w"])
            out = tensor.add(h, tensor.relu(mixed))
            return mean_all(mul(out, out)), leaves

        loss, leaves = f()
        self.backward_keeps_buffers(loss, list(leaves.values()))
        report = grad_check(f, params)
        assert report.passed, report
        assert report.n_checked > 20

    @pytest.mark.parametrize("view_first", [True, False])
    def test_mean_rows_view_then_another_gradient(self, view_first):
        x = Matrix([[1.0, 2.0], [0.5, -1.0], [3.0, 1.0]])
        w = leaf(np.array([[1.0, -1.0, 2.0], [0.5, 1.5, -2.0]]))
        h = tensor.matmul(x, w)
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
        w = leaf(np.array([[1.0, -1.0], [0.5, 1.5]]))
        table = tensor.matmul(x, w)
        ids = np.array([2, 0, 2, 2])
        terms = [sum_all(tensor.gather_rows(table, ids)),
                 sum_all(tensor.mean_rows(table))]
        if not gather_first:
            terms.reverse()
        (grad,) = self.backward_keeps_buffers(tensor.add(*terms), [w])
        counts = np.bincount(ids, minlength=3)[:, None] * np.ones((1, 2))
        np.testing.assert_array_equal(grad, x.data.T @ (counts + 1.0 / 3.0))

    @pytest.mark.parametrize("width", SEGMENT_WIDTHS)
    def test_segment_sum_equals_add_at_into_zeros(self, width):
        values, segments, expected = segment_case(7, width)
        assert np.array_equal(tensor.segment_sum(values, segments, 7),
                              expected)



#: A function short enough for the dense product path.
SHORT_SOURCE = "int f(int a) {\n    return a + 1;\n}"


def float64_product(operator, x, transposed):
    """The float64 product spelled out as the operator computed it before
    its products kept their input's dtype: the dense copy through BLAS,
    or the padded lists into a float64 array, plus the remainder's
    entries added into zeros in order."""
    if operator._dense is not None:
        return (operator._dense.T if transposed else operator._dense) @ x
    ell = operator._ell_mirror if transposed else operator._ell_weights
    rest = operator._rest_mirror if transposed else operator._rest_weights
    out = np.empty((operator.n, 1, x.shape[1]))
    np.matmul(ell, np.take(x, operator._ell_cols, axis=0), out=out)
    out = out.reshape(operator.n, x.shape[1])
    sums = np.zeros((operator._rest_rows.size, x.shape[1]))
    np.add.at(sums, operator._rest_segments,
              rest[:, None] * x[operator._rest_cols])
    out[operator._rest_rows] += sums
    return out


class TestDtypes:
    """Products and segment sums return their input's dtype on each
    product path, and in float64 compute what they always did."""

    @pytest.fixture(scope="class")
    def operators(self):
        operators = {name: build_graph(tokenize(source))
                     for name, source in (("dense", SHORT_SOURCE),
                                          ("ell", LONG_SOURCE),
                                          ("ell-rest", HUB_SOURCE))}
        assert operators["dense"].n <= DENSE_ROWS
        for name in ("ell", "ell-rest"):
            assert operators[name]._dense is None
        assert operators["ell"]._rest_rows.size == 0
        assert operators["ell-rest"]._rest_rows.size > 0
        return operators

    @pytest.mark.parametrize("path", ["dense", "ell", "ell-rest"])
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["apply", "apply_transposed"])
    def test_float32_in_float32_out(self, operators, path, transposed):
        operator = operators[path]
        x = np.random.default_rng(3).normal(size=(operator.n, 7))
        single = operator.astype(np.float32)
        product = (single.apply_transposed if transposed else single.apply)(
            x.astype(np.float32))
        assert product.dtype == np.float32
        expected = float64_product(operator, x, transposed)
        np.testing.assert_allclose(product, expected, rtol=1e-5,
                                   atol=1e-5 * np.abs(expected).max())

    @pytest.mark.parametrize("path", ["dense", "ell", "ell-rest"])
    @pytest.mark.parametrize("transposed", [False, True],
                             ids=["apply", "apply_transposed"])
    def test_float64_bits_unchanged(self, operators, path, transposed):
        operator = operators[path]
        x = np.random.default_rng(4).normal(size=(operator.n, 48))
        product = (operator.apply_transposed if transposed
                   else operator.apply)(x)
        assert product.dtype == np.float64
        assert np.array_equal(product,
                              float64_product(operator, x, transposed))

    @pytest.mark.parametrize("width", SEGMENT_WIDTHS)
    def test_segment_sum_of_float32_is_float32(self, width):
        # it adds in float64 and rounds each sum once
        values, segments, expected = segment_case(5, width, np.float32)
        sums = tensor.segment_sum(values, segments, 7)
        assert sums.dtype == np.float32
        assert np.array_equal(sums, expected.astype(np.float32))

    def test_segment_sum_memory_is_block_sized(self):
        # one bincount over all 512 columns traced 4.3 MiB
        rng = np.random.default_rng(6)
        values = rng.normal(size=(512, 512)).astype(np.float32)
        segments = rng.integers(0, 70, size=512)
        tracemalloc.start()
        try:
            tensor.segment_sum(values, segments, 70)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20
