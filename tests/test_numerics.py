import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from alertanet import numerics as nx
from alertanet.errors import DimensionError, UsageError

from testutil import (
    add, affine, bias_add, concat_rows, finite_difference_grads, matmul, max_grad_violation, mul, mul_const,
    sigmoid, sigmoid_values_oracle, tanh, total_sum,
)


def triple_loop_matmul(a, b):
    """The scalar triple loop: ``acc += a[i, k] * b[k, j]`` in numpy float64 scalars, k in order."""
    out = np.zeros((a.shape[0], b.shape[1]))
    cols = [list(col) for col in b.T]
    for i, row in enumerate(a):
        row = list(row)
        for j, col in enumerate(cols):
            acc = 0.0
            for x, y in zip(row, col):
                acc += x * y
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


# every value class a product or a sum can meet; nan is numpy's default quiet nan
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308, -1e308, 10.0])


def _sprinkled(rng, shape, share=0.2):
    """Normal entries with a share of them replaced by special values."""
    x = rng.normal(size=shape)
    hit = rng.random(shape) < share
    x[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return x


def _assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _assert_nan_payloads_aside(got, want):
    """Bits equal except that an entry nan on both sides may keep either nan."""
    both_nan = np.isnan(got) & np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got.view(np.int64)[~both_nan], want.view(np.int64)[~both_nan])


# (m, inner, n): one, two and three columns, one row, empty and single
# contraction, the benchmark's widths, and the former column-block edges
KERNEL_SHAPES = [
    (5, 4, 1), (5, 4, 2), (5, 4, 3), (1, 6, 1), (1, 6, 2), (1, 6, 3), (4, 0, 3), (4, 1, 3), (1, 0, 1),
    (64, 32, 512), (96, 8, 5120),
    (64, 32, 63), (64, 32, 64), (64, 32, 65), (96, 8, 41), (96, 8, 42), (96, 8, 43),
    (3, 4, 1364), (3, 4, 1365), (3, 4, 1366), (4103, 3, 4), (1, 5, 9), (1, 1, 1), (6, 0, 5), (6, 1, 5), (7, 3, 1),
]


@functools.lru_cache(maxsize=None)
def _special_case(m, inner, n, share):
    """Seeded operands with a share of special values, and their triple-loop product."""
    rng = np.random.default_rng([m, inner, n, int(share * 100)])
    a, b = _sprinkled(rng, (m, inner), share), _sprinkled(rng, (inner, n), share)
    with np.errstate(all="ignore"):
        return a, b, triple_loop_matmul(a, b)


@pytest.fixture(params=["einsum", "loop"])
def kernel(request):
    """Each fixed-order path, called directly: the einsum pass and its fallback.

    The fallback's ``np.add`` keeps the product's nan in its vector body but
    may keep the sum's in its scalar tail, so its test sets nan payloads aside.
    """
    if request.param == "loop":
        return nx._loop_product, _assert_nan_payloads_aside
    if not nx._einsum_is_fixed_order():
        pytest.skip("numpy's einsum fuses or reorders on this CPU; matmul_values uses the loop")
    return nx._einsum_product, _assert_bits_equal


class TestFixedOrderKernelsMatchTripleLoop:
    @pytest.mark.parametrize("m,inner,n", KERNEL_SHAPES)
    def test_bit_identical_with_special_values(self, kernel, m, inner, n):
        product, assert_same = kernel
        for share in (0.0, 0.2, 0.5):
            a, b, want = _special_case(m, inner, n, share)
            with np.errstate(all="ignore"):
                got = product(a, b)
            assert got.flags.c_contiguous
            assert_same(got, want)

    def test_matmul_values_takes_the_probed_path(self):
        rng = np.random.default_rng(65)
        a, b = _sprinkled(rng, (64, 32)), _sprinkled(rng, (32, 65))
        with np.errstate(all="ignore"):
            direct = np.array_equal(nx._einsum_product(a, b).view(np.int64), triple_loop_matmul(a, b).view(np.int64))
            _assert_bits_equal(nx.matmul_values(a, b), nx._fixed_order_product(a, b))
        assert nx._einsum_is_fixed_order() == direct
        assert nx._fixed_order_product is (nx._einsum_product if direct else nx._loop_product)

    @pytest.mark.parametrize("impostor", ["fused", "reversed", "zero_skips_inf"])
    def test_probe_rejects_products_that_are_not_the_scalar_loop(self, monkeypatch, impostor):
        def fused(a, b):  # one rounding per step: exact a*b + acc, as an FMA gives
            out = np.zeros((a.shape[0], b.shape[1]))
            for (i, j), _ in np.ndenumerate(out):
                acc = 0.0
                for x, y in zip(a[i].tolist(), b[:, j].tolist()):
                    exact = math.isfinite(acc) and math.isfinite(x) and math.isfinite(y)
                    acc = float(Fraction(acc) + Fraction(x) * Fraction(y)) if exact else acc + x * y
                out[i, j] = acc
            return out

        impostors = {
            "fused": fused,
            "reversed": lambda a, b: nx._loop_product(a[:, ::-1], b[::-1]),
            "zero_skips_inf": lambda a, b: nx._loop_product(a, np.where(np.isinf(b), 0.0, b)),
        }
        monkeypatch.setattr(nx, "_einsum_product", impostors[impostor])
        assert not nx._einsum_is_fixed_order()

    def test_bit_identical_to_triple_loop_on_small_shapes(self, kernel):
        product, assert_same = kernel
        for m, inner, n in [(1, 5, 9), (6, 1, 5), (7, 3, 1), (4, 6, 5), (6, 0, 5)]:
            rng = np.random.default_rng(m + inner + n)
            a, b = _sprinkled(rng, (m, inner), 0.3), _sprinkled(rng, (inner, n), 0.3)
            with np.errstate(all="ignore"):
                assert_same(product(a, b), triple_loop_matmul(a, b))

    @pytest.mark.parametrize("m,inner,n", [(5, 4, 1), (1, 6, 2), (64, 32, 63), (64, 32, 512), (7, 3, 1)])
    def test_out_block_gets_the_bits_of_a_new_result(self, kernel, m, inner, n):
        """A reused block full of nan, as the GRU cell passes one, ends with the same bits as a new result."""
        product, assert_same = kernel
        a, b, want = _special_case(m, inner, n, 0.2)
        block = np.full((m, n), np.nan)
        with np.errstate(all="ignore"):
            assert product(a, b, block) is block
        assert_same(block, want)

    def test_matmul_values_rejects_an_out_block_that_does_not_fit(self):
        a, b = np.ones((3, 2)), np.ones((2, 4))
        for block in (np.empty((3, 5)), np.empty((4, 3)).T, np.empty((3, 8))[:, ::2]):
            with pytest.raises(DimensionError, match=r"matmul: out \(\d, \d\) is not a C-contiguous block"):
                nx.matmul_values(a, b, out=block)

    def test_zero_times_infinity_is_nan_in_every_layout(self, kernel):
        product, _ = kernel
        for m, n in ((1, 1), (1, 4), (4, 1), (4, 4)):
            a = np.zeros((m, 2))
            b = np.full((2, n), np.inf)
            with np.errstate(invalid="ignore"):
                assert np.all(np.isnan(product(a, b)))

    def test_overflow_and_signed_zeros(self, kernel):
        product, assert_same = kernel
        a = np.array([[1e308, 1e308], [-0.0, -0.0], [1e308, -1e308]] * 30)
        b = np.array([[10.0, 1.0, -0.0], [1.0, 1.0, 5e-324]])
        with np.errstate(all="ignore"):
            got = product(a, b)
            assert_same(got, triple_loop_matmul(a, b))
        assert np.isposinf(got[0, 0]) and np.isposinf(got[0, 1])
        assert got[1, 2] == 0.0 and not np.signbit(got[1, 2])  # a sum from +0.0 never gives -0.0

    def test_transposed_and_sliced_inputs(self, kernel):
        product, assert_same = kernel
        rng = np.random.default_rng(3)
        base_a, base_b = _sprinkled(rng, (32, 70)), _sprinkled(rng, (32, 300))
        cases = [
            (base_a.T[:64], base_b[:, 1:201]),   # transposed, column window
            (base_a[:, ::2].T, base_b[:, ::3]),  # strided columns on both sides
            (base_a.T[::3, :31], np.asfortranarray(base_b[:31, :90])),
            (base_a.T[:5], np.asfortranarray(base_b[:, :1])),
        ]
        for a, b in cases:
            assert not (a.flags.c_contiguous and b.flags.c_contiguous)
            with np.errstate(all="ignore"):
                assert_same(product(a, b), triple_loop_matmul(a, b))

    def test_repeated_calls_give_the_same_bits(self):
        rng = np.random.default_rng(9)
        first = (rng.normal(size=(64, 32)), rng.normal(size=(32, 129)))
        second = (rng.normal(size=(96, 8)), rng.normal(size=(8, 43)))
        want = [triple_loop_matmul(*first), triple_loop_matmul(*second)]
        for _ in range(3):
            _assert_bits_equal(nx.matmul_values(*first), want[0])
            _assert_bits_equal(nx.matmul_values(*second), want[1])

    def test_inputs_are_not_modified(self, kernel):
        product, _ = kernel
        rng = np.random.default_rng(4)
        for shape_b in ((32, 65), (32, 1)):
            a, b = rng.normal(size=(64, 32)), np.asfortranarray(rng.normal(size=shape_b))
            a_copy, b_copy = a.copy(), b.copy()
            product(a, b)
            assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy)


def python_float_matmul(a, b):
    """A triple loop over Python floats, ``total = total + x * y``, as perfbench's kernel check runs it."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i, row in enumerate(a.tolist()):
        for j, col in enumerate(b.T.tolist()):
            total = 0.0
            for x, y in zip(row, col):
                total = total + x * y
            out[i, j] = total
    return out


def test_which_nan_survives_where_two_meet_is_not_fixed():
    """Entry (0, 5) sums ``inf * 0``, a nan the CPU makes, and ``nan * y``, numpy's nan.

    The einsum pass keeps 0x7ff8...; perfbench's Python loop, warmed up,
    has kept 0xfff8..., and the same loop at module level 0x7ff8.... So the
    product is compared with Python loops with nan payloads set aside, and
    every other entry keeps its bits.
    """
    rng = np.random.default_rng(0)
    a, b = rng.uniform(-1, 1, (64, 32)), rng.uniform(-1, 1, (32, 64))
    a[0, :3] = [-0.0, np.inf, np.nan]
    b[1, 5], b[0] = 0.0, 1e308
    with np.errstate(all="ignore"):
        got = nx.matmul_values(a, b)
        for want in (python_float_matmul(a, b), triple_loop_matmul(a, b)):
            _assert_nan_payloads_aside(got, want)
    assert np.isnan(got[0]).all() and not np.isnan(got[1:]).any()


class TestOneRowProductsMatchTripleLoop:
    """One-row products, such as the heads' ``W f``, through ``matmul_values``."""

    SHAPES = [(1, 64, 64), (1, 65, 64), (1, 64, 512), (1, 65, 512), (1, 9, 2), (1, 0, 3)]

    @pytest.mark.parametrize("m,inner,n", SHAPES)
    def test_bit_identical_with_special_values(self, m, inner, n):
        rng = np.random.default_rng(inner * 1000 + n)
        for share in (0.0, 0.2):
            a, b = _sprinkled(rng, (m, inner), share), _sprinkled(rng, (inner, n), share)
            with np.errstate(all="ignore"):
                got, want = nx.matmul_values(a, b), triple_loop_matmul(a, b)
            # the loop fallback may keep either nan of a sum of two nans
            _assert_nan_payloads_aside(got, want)

    @pytest.mark.parametrize("inner, n", [(64, 64), (65, 512), (17, 2)])
    def test_sum_runs_left_to_right(self, inner, n):
        """Cancelling terms give 0 only when the products are added in index order, one at a time."""
        a = np.ones((1, inner))
        a[0, 0], a[0, -1] = 1e16, -1e16
        b = np.ones((inner, n))
        got = nx.matmul_values(a, b)
        _assert_bits_equal(got, triple_loop_matmul(a, b))
        assert np.array_equal(got, np.zeros((1, n)))
        _assert_bits_equal(nx.matmul_values(a[:, ::-1], b), triple_loop_matmul(a[:, ::-1], b))

    def test_signed_zeros_and_zero_times_infinity(self):
        a = np.array([[-0.0, 0.0, -0.0]])
        b = np.array([[1.0, np.inf, -0.0, 1.0], [-1.0, 1.0, -0.0, 1.0], [1.0, 1.0, 1.0, -0.0]])
        with np.errstate(invalid="ignore"):
            got = nx.matmul_values(a, b)
        _assert_bits_equal(np.where(np.isnan(got), 0.0, got), np.array([[0.0, 0.0, 0.0, 0.0]]))
        assert np.isnan(got[0, 1]) and not np.signbit(got[0, 0])  # a sum from +0.0 never gives -0.0


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(nx.constant([[0.0]])).value[0, 0] == 0.5

    def test_tanh_at_zero(self):
        assert tanh(nx.constant([[0.0]])).value[0, 0] == 0.0

    def test_sigmoid_extremes_no_overflow(self):
        import mpmath

        with np.errstate(over="raise"):
            got = sigmoid(nx.constant([[40.0, -40.0]])).value
        expected_hi = float(1 / (1 + mpmath.exp(-40)))
        expected_lo = float(1 / (1 + mpmath.exp(40)))
        assert abs(got[0, 0] - 1.0) < 1e-15 and abs(got[0, 1] - 0.0) < 1e-15
        assert got[0, 0] == pytest.approx(expected_hi, abs=1e-17)
        assert got[0, 1] == pytest.approx(expected_lo, rel=1e-12)

    def test_sigmoid_finite_for_huge_inputs(self):
        got = sigmoid(nx.constant([[1e308, -1e308]])).value
        assert np.all(np.isfinite(got))

    def test_sigmoid_bit_identical_to_masked_oracle(self):
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308])
        rng = np.random.default_rng(21)
        for n in (1, 2, 3, 7, 8, 15, 16, 17, 31, 64, 100, 1000, 4097):
            x = np.concatenate([special, rng.normal(scale=10.0, size=n), rng.uniform(-800, 800, size=n)])
            x = rng.permutation(x).reshape(1, -1)
            got = nx.sigmoid_values(x)
            assert np.array_equal(got.view(np.int64), masked_sigmoid(x).view(np.int64))

    def test_sigmoid_bit_identical_to_two_division_oracle(self):
        tiny = np.finfo(np.float64).smallest_normal
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 745.2, -745.2,
                   5e-324, -5e-324, tiny / 3, -tiny / 3, 1e308, -1e308]
        # quiet and signalling nans of both signs, with payloads
        nans = np.array([0x7FF8000000000001, 0xFFF8000000000123, 0x7FF0000000000001, 0xFFF400000ABCDEF0,
                         0x7FF8DEAD00000000, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
        x = np.concatenate([special, nans, np.random.default_rng(50).uniform(-50.0, 50.0, size=10_000)])
        for shape in ((1, -1), (-1, 1)):
            got = nx.sigmoid_values(x.reshape(shape))
            assert np.array_equal(got.view(np.int64), sigmoid_values_oracle(x.reshape(shape)).view(np.int64))
            # in place, with reused scratch blocks that hold stale values
            block, scratch = x.reshape(shape).copy(), np.full(got.shape, np.nan)
            mask = np.random.default_rng(51).random(got.shape) < 0.5
            assert nx.sigmoid_values(block, out=block, scratch=scratch, mask=mask) is block
            assert np.array_equal(block.view(np.int64), got.view(np.int64))

    def test_bce_pos_weight_column_weights_each_row(self):
        rng = np.random.default_rng(8)
        z = nx.constant(rng.normal(size=(2, 9)) * 3.0)
        y = rng.integers(0, 2, size=(2, 9)).astype(float)
        both = nx.bce_with_logits(z, y, np.array([[1.0], [2.5]])).value
        for row, weight in ((0, 1.0), (1, 2.5)):
            alone = nx.bce_with_logits(nx.constant(z.value[row : row + 1]), y[row : row + 1], np.array([[weight]]))
            assert np.array_equal(both[row : row + 1], alone.value)
        for bad in (np.ones((1, 9)), 2.5, np.ones((1, 1))):
            with pytest.raises(DimensionError, match="pos_weight"):
                nx.bce_with_logits(z, y, bad)

    def test_binary_ops_reject_shape_mismatch(self):
        a, b = nx.constant(np.ones((2, 3))), nx.constant(np.ones((2, 1)))
        for op in (add, mul):
            with pytest.raises(DimensionError):
                op(a, b)

    def test_elementwise_values(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        assert np.array_equal(add(nx.constant(a), nx.constant(b)).value, a + b)
        assert np.array_equal(mul(nx.constant(a), nx.constant(b)).value, a * b)


class TestBackprop:
    def test_linear_map_gradient_is_ones_outer_x(self):
        # loss = sum(W @ x): dloss/dW[i, k] = x[k]
        params = nx.ParamStore()
        w = params.add("W", np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        x = nx.constant([[0.5], [-2.0]])
        loss = total_sum(nx.matmul(w, x))
        nx.backward(loss)
        expected = np.outer(np.ones(3), x.value[:, 0])
        assert np.array_equal(params["W"].grad, expected)

    def test_untouched_parameter_gets_exact_zero_gradient(self):
        params = nx.ParamStore()
        used = params.add("used", np.ones((2, 2)))
        unused = params.add("unused", np.ones((2, 2)))
        loss = total_sum(mul(used, used))
        params.zero_grads()
        nx.backward(loss)
        assert np.array_equal(params["unused"].grad, np.zeros((2, 2)))
        assert np.array_equal(params["used"].grad, 2.0 * np.ones((2, 2)))

    def test_backward_requires_scalar(self):
        params = nx.ParamStore()
        w = params.add("W", np.ones((2, 2)))
        with pytest.raises(UsageError):
            nx.backward(add(w, w))

    def test_backward_requires_recorded_computation(self):
        with pytest.raises(UsageError):
            nx.backward(nx.constant([[1.0]]))

    def test_gradient_accumulates_over_shared_subexpressions(self):
        params = nx.ParamStore()
        w = params.add("W", np.array([[2.0]]))
        y = mul(w, w)  # w^2
        loss = total_sum(add(y, y))  # 2 w^2 -> d/dw = 4w = 8
        params.zero_grads()
        nx.backward(loss)
        assert params["W"].grad[0, 0] == pytest.approx(8.0)

    def test_composite_ops_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = nx.ParamStore()
        a = params.add("a", rng.normal(size=(3, 4)))
        b = params.add("b", rng.normal(size=(4, 2)))
        bias = params.add("bias", rng.normal(size=(3, 1)))
        target = rng.integers(0, 2, size=(1, 2)).astype(float)

        def compute():
            h = tanh(bias_add(matmul(params["a"], params["b"]), params["bias"]))
            s = sigmoid(affine(h, 0.7, -0.1))
            mixed = nx.linear_combination([h, s], [0.3, 1.2])
            row = concat_rows([mixed, s])
            picked = matmul(nx.constant(np.ones((1, 6))), row)
            return total_sum(nx.bce_with_logits(picked, target, pos_weight=np.array([[1.7]])))

        params.zero_grads()
        nx.backward(compute())
        analytic = {name: t.grad.copy() for name, t in params.items()}
        numeric = finite_difference_grads(lambda: compute().item(), params)
        assert max_grad_violation(analytic, numeric) <= 1.0


class TestTapeKeepsOnlyActiveNodes:
    """A node keeps its parents and backward closure only when some input requires a gradient."""

    @staticmethod
    def ops(w, x):
        """Each tape op with ``w`` as its first operand and the constant ``x`` as the rest."""
        return {
            "matmul": nx.matmul(w, x),
            "linear_combination": nx.linear_combination([w, nx.constant(w.value)], [0.5, 2.0]),
            "bce_with_logits": nx.bce_with_logits(w, np.array([[1.0, 0.0]]), np.array([[1.5]])),
        }

    def test_an_op_on_constants_keeps_no_record(self):
        w, x = nx.constant([[1.0, -2.0]]), nx.constant([[0.5], [3.0]])
        for name, out in self.ops(w, x).items():
            assert not out.requires_grad, name
            assert out._parents == () and out._backward_fn is None, name
            assert out.grad is None, name

    def test_an_op_with_one_active_input_keeps_parents_and_closure(self):
        params = nx.ParamStore()
        w, x = params.add("W", np.array([[1.0, -2.0]])), nx.constant([[0.5], [3.0]])
        for name, out in self.ops(w, x).items():
            assert out.requires_grad, name
            assert out._parents[0] is w and out._backward_fn is not None, name

    def test_pass_over_constants_has_the_taped_bits_and_rejects_backward(self):
        rng = np.random.default_rng(5)
        params = nx.ParamStore()
        params.add("W", rng.normal(size=(3, 4)))
        x = nx.constant(rng.normal(size=(4, 6)))

        def loss_of(store):
            return total_sum(nx.bce_with_logits(nx.matmul(store["W"], x), np.ones((3, 6)), np.full((3, 1), 1.7)))

        taped, untaped = loss_of(params), loss_of(params.constants())
        assert np.array_equal(untaped.value.view(np.int64), taped.value.view(np.int64))
        assert not untaped.requires_grad and untaped._parents == ()
        with pytest.raises(UsageError, match="no recorded computation"):
            nx.backward(untaped)

    def test_constants_share_values_allocate_no_gradients_and_leave_training_alone(self):
        rng = np.random.default_rng(6)
        x = nx.constant(rng.normal(size=(4, 2)))

        def store():
            params = nx.ParamStore()
            params.add("W", np.random.default_rng(7).normal(size=(3, 4)))
            params.add("b", np.ones((3, 1)))
            return params

        def grads(params):
            params.zero_grads()
            nx.backward(total_sum(bias_add(nx.matmul(params["W"], x), params["b"])))
            return {name: params[name].grad.copy() for name in params.names()}

        params = store()
        consts = params.constants()
        assert consts.names() == params.names()
        for name, tensor in consts.items():
            assert tensor.value is params[name].value
            assert not tensor.requires_grad and tensor.grad is None
        total_sum(nx.matmul(consts["W"], x))
        got, want = grads(params), grads(store())
        for name in want:
            assert np.array_equal(got[name], want[name])
        assert all(tensor.grad is None for _, tensor in consts.items())


class TestMatmulGatheredColumns:
    COLS = np.array([2, 0, 2, 3, 2, 1, 0])

    def test_right_operand_that_requires_a_gradient_is_rejected(self):
        params = nx.ParamStore()
        a, b = params.add("a", np.ones((2, 3))), params.add("b", np.ones((3, 4)))
        for left in (a, nx.constant(a.value)):
            with pytest.raises(UsageError, match="only the left operand"):
                nx.matmul(left, b)

    def test_value_into_an_out_block_has_the_bits_of_a_new_one_and_the_same_gradient(self):
        rng = np.random.default_rng(8)
        params = nx.ParamStore()
        a = params.add("a", rng.normal(size=(5, 3)))
        b, g = nx.constant(rng.normal(size=(3, 7))), rng.normal(size=(5, 7))
        grads = []
        for out in (None, np.full((5, 7), np.nan)):
            got = nx.matmul(a, b, out=out)
            assert out is None or got.value is out
            params.zero_grads()
            nx.backward(total_sum(mul_const(got, g)))
            grads.append((got.value.copy(), a.grad.copy()))
        (new_value, new_grad), (out_value, out_grad) = grads
        assert np.array_equal(out_value.view(np.int64), new_value.view(np.int64))
        assert np.array_equal(out_grad.view(np.int64), new_grad.view(np.int64))

    def test_oracle_right_gradient_sums_over_repeated_columns(self):
        """The per-op oracles' ``matmul`` gives ``b`` the gradient that ``nx.matmul`` declines to."""
        rng = np.random.default_rng(9)
        params = nx.ParamStore()
        params.add("a", rng.normal(size=(5, 3)))
        params.add("b", rng.normal(size=(3, 4)))
        g = rng.normal(size=(5, len(self.COLS)))

        def compute():
            return total_sum(mul_const(matmul(params["a"], params["b"], cols=self.COLS), g))

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

    def test_recorded_nodes_get_gradient_buffers_only_from_backward(self):
        params = nx.ParamStore()
        w = params.add("w", np.ones((2, 2)))
        leaf = nx.Tensor(np.ones((2, 1)), requires_grad=True)
        y = matmul(w, leaf)
        loss = total_sum(y)
        assert w.grad is not None and leaf.grad is not None
        assert y.grad is None and loss.grad is None
        nx.backward(loss)
        assert np.array_equal(y.grad, np.ones((2, 1))) and np.array_equal(w.grad, np.ones((2, 2)))

    def test_views_alias_the_flat_buffers_after_later_adds_loads_and_in_constants(self):
        params = nx.ParamStore()
        w = params.add("w", np.arange(6.0).reshape(2, 3))
        b = params.add("b", np.full((2, 1), -1.0))
        params.add("c", np.ones((1, 4)))
        assert np.array_equal(params.flat_values, np.r_[np.arange(6.0), -1.0, -1.0, np.ones(4)])
        assert params.flat_grads.shape == (12,) and not params.flat_grads.any()
        for name, t in params.items():
            assert t.value.flags.c_contiguous and t.grad.flags.c_contiguous, name
            assert np.shares_memory(t.value, params.flat_values) and np.shares_memory(t.grad, params.flat_grads)
        w.grad[1, 2] = 3.0
        assert params.flat_grads[5] == 3.0
        params.zero_grads()
        assert not w.grad.any()
        params.flat_values[:] = np.r_[np.full(6, 7.0), np.zeros(2), np.full(4, 2.0)]  # as train restores a best epoch
        assert params["w"] is w and np.array_equal(w.value, np.full((2, 3), 7.0))
        consts = params.constants()
        assert all(np.shares_memory(t.value, params.flat_values) and t.grad is None for _, t in consts.items())
        b.value[0, 0] = 9.0
        assert consts["b"].value[0, 0] == 9.0

    def test_span_of_adjacent_names_is_one_slice(self):
        params = nx.ParamStore()
        for name, size in (("a", 2), ("b", 3), ("c", 1), ("d", 4)):
            params.add(name, np.ones((1, size)))
        assert params.span(params.names()) == slice(0, 10)
        assert params.span(["c", "d"]) == slice(5, 10)
        assert params.span(["b"]) == slice(2, 5)
        for names in (["a", "c"], ["b", "a"], ["a", "b", "d"], []):
            with pytest.raises(UsageError, match="not adjacent"):
                params.span(names)
        with pytest.raises(UsageError, match="unknown parameter 'z'"):
            params.span(["a", "z"])


class TestArena:
    def test_blocks_are_c_contiguous_at_64_byte_offsets_and_reused_after_reset(self):
        arena = nx.Arena()
        shapes = [((3, 5), np.float64), ((7, 1), bool), ((2, 9), np.float64)]
        first = [arena.take(shape, dtype) for shape, dtype in shapes]  # no buffer yet: new arrays
        assert not any(np.shares_memory(a, b) for a in first for b in first if a is not b)
        arena.reset()
        second = [arena.take(shape, dtype) for shape, dtype in shapes]
        for block, (shape, dtype) in zip(second, shapes):
            assert block.shape == shape and block.dtype == dtype and block.flags.c_contiguous
            assert block.ctypes.data % 64 == 0 and np.shares_memory(block, arena._buffer)
            assert not any(np.shares_memory(block, old) for old in first)
        assert not any(np.shares_memory(a, b) for a in second for b in second if a is not b)
        arena.reset()
        assert all(arena.take(shape, dtype).ctypes.data == block.ctypes.data
                   for block, (shape, dtype) in zip(second, shapes))

    def test_a_wider_pass_gets_new_blocks_past_the_end_then_a_larger_buffer(self):
        arena = nx.Arena()
        arena.take((4, 4))
        arena.reset()
        inside, outside = arena.take((4, 4)), arena.take((4, 4))
        assert np.shares_memory(inside, arena._buffer) and not np.shares_memory(outside, arena._buffer)
        arena.reset()
        blocks = [arena.take((4, 4)), arena.take((2, 2))]  # a narrower pass after the wide one
        assert all(np.shares_memory(block, arena._buffer) for block in blocks)
        assert not arena.zeros((3, 2)).any()

    def test_blocks_taken_in_a_scope_are_handed_out_again_after_it(self):
        arena = nx.Arena()
        for _ in range(2):  # the first pass sizes the buffer
            arena.reset()
            kept = arena.take((2, 8))
            with arena.scope():
                scratch = arena.take((4, 8))
            after = arena.take((4, 8))
        assert np.shares_memory(scratch, after) and not np.shares_memory(kept, after)
        assert arena._buffer.size == (2 * 8 + 4 * 8) * 8 + 64  # the widest moment of a pass, and room to align

    def test_a_pass_that_does_not_fit_gets_the_same_block_again_after_a_scope(self):
        arena = nx.Arena()
        arena.take((1, 8))
        arena.reset()  # a buffer too small for the pass below
        kept, scratch = arena.take((2, 8)), []
        for _ in range(3):
            with arena.scope():
                scratch.append((arena.take((4, 8)), arena.take((3, 8), bool)))
        # past the end, so new arrays, each made once for the three scopes
        assert all(block is first for blocks in scratch for block, first in zip(blocks, scratch[0]))
        assert not any(np.shares_memory(block, arena._buffer) for block in (kept, *scratch[0]))
        assert arena.take((4, 8)) is scratch[0][0]  # the same request at the same offset after a scope
        wide = arena.take((5, 8))
        arena.reset()  # grows the buffer to the widest moment of the pass, as before
        assert arena._buffer.size == (2 + 4 + 5) * 8 * 8 + 64
        blocks = [arena.take((2, 8)), arena.take((4, 8)), arena.take((5, 8))]
        assert all(np.shares_memory(block, arena._buffer) for block in blocks)
        assert not any(np.shares_memory(block, old) for block in blocks for old in (kept, *scratch[0], wide))


def test_non_finite_input_rejected():
    with pytest.raises(DimensionError):
        nx.constant([[np.nan]])
    with pytest.raises(DimensionError):
        nx.constant([[np.inf, 1.0]])
