"""Dense float64 matrix arithmetic with reverse-mode gradients.

Everything here is strictly two-dimensional and strictly shape-checked: there
is no implicit broadcasting, and any shape violation raises
:class:`~alertanet.errors.DimensionError` naming both shapes.  ``matmul``
forms its value with a fixed left-to-right sum over the contraction index and
no BLAS call, so values are bit-identical to a naive triple loop on any CPU,
except which nan survives where two meet; only its backward uses the library
product.  A forward-only pass (see :meth:`ParamStore.constants`) projects with
``matmul`` and no ``cols``, and gathers a step's columns as the step runs.

Gradients are computed with a small tape: every operation returns a
:class:`Tensor` that remembers its parents and how to push gradients back to
them.  Calling :func:`backward` on a 1x1 scalar walks the tape in reverse
topological order.  A node that no gradient can reach keeps neither, so a
pass over :meth:`ParamStore.constants` frees each op's intermediates as soon
as it is done with them.  Parameters live in a :class:`ParamStore`: every
value is a view into one flat buffer and every gradient a view into another,
so the optimizer updates a run of parameters in one pass.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, UsageError


def as_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a 2-D C-contiguous float64 array."""
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={arr.ndim} shape={arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DimensionError("matrix contains non-finite entries")
    return arr


class Tensor:
    """A float64 matrix plus the bookkeeping needed for reverse mode.

    ``requires_grad`` is inherited from parents; a tensor without it is out
    of every backward walk, so it keeps no parents and no backward closure.
    ``grad`` is a zeroed buffer from the start only for leaves that require
    it, such as :class:`ParamStore` entries; a recorded node gets one from
    :func:`backward`, so a forward-only pass allocates none.
    """

    __slots__ = ("value", "grad", "requires_grad", "name", "_parents", "_backward_fn")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        name: str | None = None,
        _validate: bool = True,
    ):
        self.value = as_matrix(value) if _validate else value
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.grad = np.zeros_like(self.value) if requires_grad and not parents else None
        self.name = name
        self._parents = parents if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise UsageError(f"item() requires a 1x1 tensor, got shape {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.value.shape}{tag}, requires_grad={self.requires_grad})"


def constant(value) -> Tensor:
    """Wrap a value as a non-trainable tape leaf."""
    return Tensor(value)


def record(value: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Put an op's output on the tape with the function that pushes its gradient to ``parents``.

    When no parent requires a gradient the output keeps neither, and
    ``backward_fn``'s closure, with every array it holds, is dropped at once.
    Op outputs skip re-validation; their inputs were already validated.
    """
    return Tensor(value, parents=parents, backward_fn=backward_fn, _validate=False)


def _einsum_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One ``np.einsum`` pass, in which numpy runs j innermost on C-contiguous operands.

    Each step is then ``out[i, j:] = a[i, k] * b[k, j:] + out[i, j:]``, k in
    order.  One column, or an F-ordered ``b``, would put k innermost, where
    numpy sums SIMD lanes in parallel, so ``b`` is made contiguous and a
    single column is duplicated.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if b.shape[1] == 1:
        return np.einsum("ik,kj->ij", a, np.repeat(b, 2, axis=1), optimize=False)[:, :1].copy()
    return np.einsum("ik,kj->ij", a, b, optimize=False)


def _loop_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The fallback: k rank-1 steps of elementwise ufuncs, each product added first."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        np.add(np.multiply(a[:, k : k + 1], b[k : k + 1]), out, out=out)
    return out


def _einsum_is_fixed_order() -> bool:
    """Whether :func:`_einsum_product` gives a Python scalar loop's bits.

    Row 0 sums to 0 unfused and 2**-60 under a fused multiply-add, row 1's
    cancelling 1e16 terms leave 1 only in order, and column 2 needs ``0 * inf``.
    """
    a, b = np.zeros((3, 18)), np.ones((18, 3))
    a[0, :2], b[1] = (-(1 + 2.0**-29), 1 + 2.0**-30), 1 + 2.0**-30
    a[1, 2:], a[1, 2], a[1, -2] = 1.0, 1e16, -1e16
    b[0, 2] = np.inf
    want = np.zeros((3, 3))
    for (i, j), _ in np.ndenumerate(want):
        for x, y in zip(a[i].tolist(), b[:, j].tolist()):
            want[i, j] += x * y
    with np.errstate(all="ignore"):
        return np.array_equal(_einsum_product(a, b).view(np.int64), want.view(np.int64))


_fixed_order_product = _einsum_product if _einsum_is_fixed_order() else _loop_product


def matmul_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with left-to-right accumulation over the inner index.

    Each output entry is ``((0 + a[i,0]*b[0,j]) + a[i,1]*b[1,j]) + ...``, one
    rounded multiply and one rounded add per step, so the result is
    bit-identical to a scalar triple loop: the +0.0 start never gives -0.0,
    and ``0 * inf`` gives nan.  Where two nans meet in a sum, either one's
    sign and payload may survive, on every path and in a Python loop too,
    whose survivor depends on how CPython's float add orders its operands.
    It is one einsum pass wherever the import-time probe finds numpy's loop
    unfused and in order (not on aarch64, whose NEON fuses), and otherwise
    k rank-1 ufunc steps, 4-20 times slower.  The result is C-contiguous.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return _fixed_order_product(a, b)


def matmul(a: Tensor, b: Tensor, cols: np.ndarray | None = None) -> Tensor:
    """Product whose forward value uses the fixed left-to-right contraction.

    ``cols`` (an int array) makes column ``k`` of the result column
    ``cols[k]`` of ``a b``, so each column of ``b`` is multiplied once however
    often ``cols`` repeats it.  ``matmul_values`` forms every column on its
    own, so the value is bit-identical to the product with the gathered
    ``b``.  ``np.take`` keeps the result C-ordered; an F-ordered one would
    pass its layout to the gradient buffer and change the backward's bits.

    The backward accumulation uses the library product instead: gradient
    summation order is unconstrained as long as it is deterministic for a
    fixed thread count, and it sits on the training hot path.  With ``cols``
    it gathers ``b`` before the product, so ``a``'s gradient multiplies the
    same operands as without them; summing the gradients of repeated columns
    first would regroup the sum and change its bits.
    """
    out = matmul_values(a.value, b.value)
    if cols is not None:
        out = np.take(out, cols, axis=1)

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += np.dot(grad, (b.value if cols is None else np.take(b.value, cols, axis=1)).T)
        if b.requires_grad:
            d_b = np.dot(a.value.T, grad)
            if cols is None:
                b.grad += d_b
            else:
                np.add.at(b.grad, (slice(None), cols), d_b)

    return record(out, (a, b), backward_fn)


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no overflow for any float64).

    ``exp(-|x|)`` never overflows, and for negative ``x`` it is ``exp(x)``, so
    the two branches are ``1/(1+exp(-x))`` and ``exp(x)/(1+exp(x))``.  As
    ``0 <= e <= 1``, the numerator ``max(e, x >= 0)`` picks 1 or ``e`` without
    a branch, and a nan ``x`` keeps ``e``'s nan.
    """
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.maximum(e, x >= 0) / d


def linear_combination(parts: Sequence[Tensor], coeffs: Sequence[float]) -> Tensor:
    """``sum(c_i * M_i)`` accumulated left to right over same-shaped matrices."""
    if not parts:
        raise UsageError("linear_combination: empty input")
    if len(parts) != len(coeffs):
        raise UsageError(f"linear_combination: {len(parts)} matrices vs {len(coeffs)} coefficients")
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise DimensionError(f"linear_combination: shape {p.shape} does not match shape {shape}")
    coeffs = [float(c) for c in coeffs]
    out = np.zeros(shape)
    for p, c in zip(parts, coeffs):
        out += c * p.value

    def backward_fn(grad):
        for p, c in zip(parts, coeffs):
            if p.requires_grad:
                p.grad += c * grad

    return record(out, tuple(parts), backward_fn)


def softplus_values(x: np.ndarray) -> np.ndarray:
    """``log(1 + exp(x))`` computed as ``max(x, 0) + log1p(exp(-|x|))``."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def bce_with_logits(logits: Tensor, targets: np.ndarray, pos_weight: np.ndarray) -> Tensor:
    """Elementwise binary cross-entropy computed in logit space.

    ``pos_weight`` scales the positive-class term, for imbalanced targets: an
    (m x 1) column with one weight per row of the m x n logits.  Where the
    weight is 1 each entry equals the standard stable form
    ``max(z, 0) - z*y + log(1 + exp(-|z|))``.
    """
    targets = as_matrix(targets)
    if targets.shape != logits.shape:
        raise DimensionError(f"bce_with_logits: targets {targets.shape} vs logits {logits.shape}")
    pos_weight = np.asarray(pos_weight, dtype=np.float64)
    if pos_weight.shape != (logits.rows, 1):
        raise DimensionError(f"bce_with_logits: pos_weight {pos_weight.shape} vs logits {logits.shape}")
    z = logits.value
    out = pos_weight * targets * softplus_values(-z) + (1.0 - targets) * softplus_values(z)

    def backward_fn(grad):
        if logits.requires_grad:
            dz = (1.0 - targets) * sigmoid_values(z) - pos_weight * targets * sigmoid_values(-z)
            logits.grad += grad * dz

    return record(out, (logits,), backward_fn)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate gradients of every trainable tensor reachable from ``loss``.

    ``loss`` must be a 1x1 scalar recorded from an input that requires a
    gradient.  Every node on the walk that has no ``grad`` buffer yet gets a
    zeroed one first; gradients accumulate into existing buffers, so call
    :meth:`ParamStore.zero_grads` first when starting a fresh step.
    """
    if loss.value.shape != (1, 1):
        raise UsageError(f"backward requires a 1x1 scalar loss, got shape {loss.value.shape}")
    if loss._backward_fn is None and not loss._parents:
        raise UsageError("backward called on a tensor with no recorded computation")
    order = _topo_order(loss)
    for node in order:
        if node.grad is None:
            node.grad = np.zeros_like(node.value)
    loss.grad += 1.0
    for node in reversed(order):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


class ParamStore:
    """Named parameter matrices, each a C-contiguous view into the flat buffer :attr:`flat_values`,
    with gradient slots viewing :attr:`flat_grads` in the same places.

    Insertion order, everywhere, keeps seeded initialization, gradient norms
    and serialization deterministic.
    """

    def __init__(self):
        self._slots: dict[str, Tensor] = {}
        self._spans: dict[str, slice] = {}  # each name's entries in the flat buffers
        self.flat_values, self.flat_grads = np.zeros(0), np.zeros(0)

    def add(self, name: str, value) -> Tensor:
        """Append a parameter; the buffers grow and every earlier view is re-pointed into them."""
        if name in self._slots:
            raise UsageError(f"duplicate parameter name {name!r}")
        tensor = Tensor(value, requires_grad=True, name=name)
        n = self.flat_values.size
        self._spans[name] = slice(n, n + tensor.value.size)
        self.flat_values = np.concatenate([self.flat_values, tensor.value.reshape(-1)])
        self.flat_grads = np.concatenate([self.flat_grads, tensor.grad.reshape(-1)])
        self._slots[name] = tensor
        for key, t in self._slots.items():
            t.value = self.flat_values[self._spans[key]].reshape(t.value.shape)
            t.grad = self.flat_grads[self._spans[key]].reshape(t.value.shape)
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        if name not in self._slots:
            raise UsageError(f"unknown parameter {name!r}")
        return self._slots[name]

    def names(self) -> list[str]:
        return list(self._slots)

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._slots.items()

    def runs(self, names: Iterable[str]) -> list[slice]:
        """The flat-buffer slices of ``names``, in order, with adjacent ones merged."""
        runs: list[slice] = []
        for name in names:
            span = self._spans[self[name].name]  # self[name] rejects an unknown name
            if runs and runs[-1].stop == span.start:
                runs[-1] = slice(runs[-1].start, span.stop)
            else:
                runs.append(span)
        return runs

    def constants(self) -> ParamStore:
        """The same parameters as non-grad leaves over the same value arrays.

        A pass over it records no tape and allocates no gradient buffers, and
        it reads every later update to this store's values.
        """
        store = ParamStore()
        store._slots = {name: Tensor(t.value, name=name, _validate=False) for name, t in self._slots.items()}
        return store

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: tensor.value.copy() for name, tensor in self._slots.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        missing = [name for name in self._slots if name not in values]
        if missing:
            raise UsageError(f"missing parameter values for {missing}")
        for name, tensor in self._slots.items():
            arr = as_matrix(values[name])
            if arr.shape != tensor.value.shape:
                raise DimensionError(
                    f"parameter {name!r}: stored shape {arr.shape} vs expected {tensor.value.shape}"
                )
            tensor.value[...] = arr
