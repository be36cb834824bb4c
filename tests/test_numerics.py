import numpy as np
import pytest

from alertanet import numerics as nx
from alertanet.errors import DimensionError, UsageError

from testutil import finite_difference_grads, max_grad_violation


def triple_loop_matmul(a, b):
    m, inner = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def masked_sigmoid(x):
    """The former mask-and-scatter body of ``sigmoid_values``, kept as its oracle."""
    out = np.empty_like(x)
    pos = x >= 0
    neg = ~pos
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[neg])
    out[neg] = ex / (1.0 + ex)
    return out


class TestMatmul:
    def test_identity(self):
        a = nx.constant([[1.0, 2.0], [3.0, 4.0]])
        eye = nx.constant(np.eye(2))
        assert np.array_equal(nx.matmul(a, eye).value, a.value)

    def test_hand_arithmetic(self):
        a = nx.constant([[1.0, 2.0]])
        b = nx.constant([[3.0], [4.0]])
        assert nx.matmul(a, b).value[0, 0] == pytest.approx(11.0)

    def test_matches_triple_loop_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(7, 5))
            b = rng.normal(size=(5, 3))
            ours = nx.matmul(nx.constant(a), nx.constant(b)).value
            assert np.array_equal(ours, triple_loop_matmul(a, b))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            nx.matmul(nx.constant(np.ones((2, 3))), nx.constant(np.ones((2, 3))))

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(13, 17)), rng.normal(size=(17, 11))
        first = nx.matmul(nx.constant(a), nx.constant(b)).value
        second = nx.matmul(nx.constant(a.copy()), nx.constant(b.copy())).value
        assert np.array_equal(first, second)


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert nx.sigmoid(nx.constant([[0.0]])).value[0, 0] == 0.5

    def test_tanh_at_zero(self):
        assert nx.tanh(nx.constant([[0.0]])).value[0, 0] == 0.0

    def test_sigmoid_extremes_no_overflow(self):
        import mpmath

        with np.errstate(over="raise"):
            got = nx.sigmoid(nx.constant([[40.0, -40.0]])).value
        expected_hi = float(1 / (1 + mpmath.exp(-40)))
        expected_lo = float(1 / (1 + mpmath.exp(40)))
        assert abs(got[0, 0] - 1.0) < 1e-15 and abs(got[0, 1] - 0.0) < 1e-15
        assert got[0, 0] == pytest.approx(expected_hi, abs=1e-17)
        assert got[0, 1] == pytest.approx(expected_lo, rel=1e-12)

    def test_sigmoid_finite_for_huge_inputs(self):
        got = nx.sigmoid(nx.constant([[1e308, -1e308]])).value
        assert np.all(np.isfinite(got))

    def test_sigmoid_bit_identical_to_masked_oracle(self):
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308])
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 7, 8, 15, 16, 17, 31, 64, 100, 1000, 4097):
            x = np.concatenate([special, rng.normal(scale=10.0, size=n), rng.uniform(-800, 800, size=n)])
            x = rng.permutation(x).reshape(1, -1)
            got = nx.sigmoid_values(x)
            assert np.array_equal(got.view(np.int64), masked_sigmoid(x).view(np.int64))

    def test_binary_ops_reject_shape_mismatch(self):
        a, b = nx.constant(np.ones((2, 3))), nx.constant(np.ones((2, 1)))
        for op in (nx.add, nx.mul):
            with pytest.raises(DimensionError):
                op(a, b)

    def test_elementwise_values(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert np.array_equal(nx.add(nx.constant(a), nx.constant(b)).value, a + b)
        assert np.array_equal(nx.mul(nx.constant(a), nx.constant(b)).value, a * b)


class TestBackprop:
    def test_linear_map_gradient_is_ones_outer_x(self):
        # loss = sum(W @ x): dloss/dW[i, k] = x[k]
        params = nx.ParamStore()
        w = params.add("W", np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        x = nx.constant([[0.5], [-2.0]])
        loss = nx.total_sum(nx.matmul(w, x))
        nx.backward(loss)
        expected = np.outer(np.ones(3), x.value[:, 0])
        assert np.array_equal(params.grad("W"), expected)

    def test_untouched_parameter_gets_exact_zero_gradient(self):
        params = nx.ParamStore()
        used = params.add("used", np.ones((2, 2)))
        unused = params.add("unused", np.ones((2, 2)))
        loss = nx.total_sum(nx.mul(used, used))
        params.zero_grads()
        nx.backward(loss)
        assert np.array_equal(params.grad("unused"), np.zeros((2, 2)))
        assert np.array_equal(params.grad("used"), 2.0 * np.ones((2, 2)))

    def test_backward_requires_scalar(self):
        params = nx.ParamStore()
        w = params.add("W", np.ones((2, 2)))
        with pytest.raises(UsageError):
            nx.backward(nx.add(w, w))

    def test_backward_requires_recorded_computation(self):
        with pytest.raises(UsageError):
            nx.backward(nx.constant([[1.0]]))

    def test_gradient_accumulates_over_shared_subexpressions(self):
        params = nx.ParamStore()
        w = params.add("W", np.array([[2.0]]))
        y = nx.mul(w, w)  # w^2
        loss = nx.total_sum(nx.add(y, y))  # 2 w^2 -> d/dw = 4w = 8
        params.zero_grads()
        nx.backward(loss)
        assert params.grad("W")[0, 0] == pytest.approx(8.0)

    def test_composite_ops_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = nx.ParamStore()
        a = params.add("a", rng.normal(size=(3, 4)))
        b = params.add("b", rng.normal(size=(4, 2)))
        bias = params.add("bias", rng.normal(size=(3, 1)))
        target = rng.integers(0, 2, size=(1, 2)).astype(float)

        def compute():
            h = nx.tanh(nx.bias_add(nx.matmul(params["a"], params["b"]), params["bias"]))
            s = nx.sigmoid(nx.affine(h, 0.7, -0.1))
            mixed = nx.linear_combination([h, s], [0.3, 1.2])
            row = nx.concat_rows([mixed, s])
            picked = nx.matmul(nx.constant(np.ones((1, 6))), row)
            return nx.total_sum(nx.bce_with_logits(picked, target, pos_weight=1.7))

        params.zero_grads()
        nx.backward(compute())
        analytic = {name: t.grad.copy() for name, t in params.items()}
        numeric = finite_difference_grads(lambda: compute().item(), params)
        assert max_grad_violation(analytic, numeric) <= 1.0


class TestParamStore:
    def test_rejects_duplicate_names(self):
        params = nx.ParamStore()
        params.add("w", np.ones((1, 1)))
        with pytest.raises(UsageError):
            params.add("w", np.ones((1, 1)))

    def test_gradient_slots_match_shapes(self):
        params = nx.ParamStore()
        params.add("w", np.ones((2, 3)))
        params.add("b", np.ones((2, 1)))
        for name, tensor in params.items():
            assert tensor.grad.shape == tensor.value.shape
            assert np.array_equal(tensor.grad, np.zeros_like(tensor.value))

    def test_load_values_shape_checked(self):
        params = nx.ParamStore()
        params.add("w", np.ones((2, 3)))
        with pytest.raises(DimensionError):
            params.load_values({"w": np.ones((3, 2))})


def test_non_finite_input_rejected():
    with pytest.raises(DimensionError):
        nx.constant([[np.nan]])
    with pytest.raises(DimensionError):
        nx.constant([[np.inf, 1.0]])
