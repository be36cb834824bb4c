"""Dense float64 matrix arithmetic with reverse-mode gradients.

Everything here is strictly two-dimensional and strictly shape-checked: there
is no implicit broadcasting, and any shape violation raises
:class:`~alertanet.errors.DimensionError` naming both shapes.  ``matmul``
forms its value with a fixed left-to-right sum over the contraction index and
no BLAS call, so values are bit-identical to a naive triple loop on any CPU,
except which nan survives where two meet; only its backward uses the library
product.  ``matmul`` writes its value into an ``out`` block when given one.

Gradients are computed with a small tape: every operation returns a
:class:`Tensor` that remembers its parents and how to push gradients back to
them.  Calling :func:`backward` on a 1x1 scalar walks the nodes it reaches
in reverse creation order: a node is made after its parents, so that order
is topological.  A node that no gradient can reach keeps neither, so a
pass over :meth:`ParamStore.constants` frees each op's intermediates as soon
as it is done with them.  Parameters live in a :class:`ParamStore`: every
value is a view into one flat buffer and every gradient a view into another,
so the optimizer updates adjacent parameters in one pass.

An :class:`Arena` hands out the blocks of one pass after another from one
flat buffer, so that passes of the same shapes reuse the same memory: a
training step takes its projection, its cells' blocks, the gradient buffers
:func:`backward` makes and the cells' backward scratch from one.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
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


# every Tensor takes the next number, so a node's number is above its parents'; only that order is used,
# so one counter serves every thread, and forward-only threads, which record no tape, use numbers up harmlessly
_creation_index = itertools.count()


class Tensor:
    """A float64 matrix plus the bookkeeping needed for reverse mode.

    ``requires_grad`` is inherited from parents; a tensor without it is out
    of every backward walk, so it keeps no parents and no backward closure.
    ``grad`` is a zeroed buffer from the start only for leaves that require
    it, such as :class:`ParamStore` entries; a recorded node gets one from
    :func:`backward`, so a forward-only pass allocates none.  ``_index``
    counts creation across the process; :func:`backward` walks by it.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward_fn", "_index")

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        _validate: bool = True,
    ):
        self.value = as_matrix(value) if _validate else value
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.grad = np.zeros_like(self.value) if requires_grad and not parents else None
        self._parents = parents if self.requires_grad else ()
        self._backward_fn = backward_fn if self.requires_grad else None
        self._index = next(_creation_index)

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


def _einsum_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One ``np.einsum`` pass, in which numpy runs j innermost on C-contiguous operands.

    Each step is then ``out[i, j:] = a[i, k] * b[k, j:] + out[i, j:]``, k in
    order.  One column, or an F-ordered ``b``, would put k innermost, where
    numpy sums SIMD lanes in parallel, so ``b`` is made contiguous and a
    single column is duplicated, its product then copied to ``out``.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if b.shape[1] == 1:
        out = np.empty((a.shape[0], 1)) if out is None else out
        out[...] = np.einsum("ik,kj->ij", a, np.repeat(b, 2, axis=1), optimize=False)[:, :1]
        return out
    return np.einsum("ik,kj->ij", a, b, optimize=False, out=out)


def _loop_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The fallback: k rank-1 steps of elementwise ufuncs, each product added first."""
    out = np.empty((a.shape[0], b.shape[1])) if out is None else out
    out.fill(0.0)
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


def matmul_values(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
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

    ``out``, a C-contiguous float64 block of the result's shape that shares
    no memory with ``a`` or ``b``, receives the product, which is returned;
    its old contents are never read.  Its bits are the same as without it.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    if out is not None and (out.shape != (a.shape[0], b.shape[1]) or not out.flags.c_contiguous):
        raise DimensionError(f"matmul: out {out.shape} is not a C-contiguous block for {a.shape} x {b.shape}")
    return _fixed_order_product(a, b, out)


def matmul(a: Tensor, b: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Product whose forward value uses the fixed left-to-right contraction.

    ``out``, as for :func:`matmul_values`, receives the value, which the
    returned tensor then holds.  Only ``a`` gets a gradient: the model's one
    product is ``W x`` over a constant input, so a ``b`` that requires a
    gradient is a :class:`UsageError` rather than a gradient silently
    dropped.  The backward accumulation uses the library product: gradient
    summation order is unconstrained as long as it is deterministic for a
    fixed thread count, and it sits on the training hot path.
    """
    if b.requires_grad:
        raise UsageError("matmul: only the left operand may require a gradient")

    def backward_fn(grad):
        a.grad += np.dot(grad, b.value.T)

    return record(matmul_values(a.value, b.value, out=out), (a,), backward_fn)


def sigmoid_values(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None,
                   mask: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function (no overflow for any float64).

    ``exp(-|x|)`` never overflows, and for negative ``x`` it is ``exp(x)``, so
    the two branches are ``1/(1+exp(-x))`` and ``exp(x)/(1+exp(x))``.  As
    ``0 <= e <= 1``, the numerator ``max(e, x >= 0)`` picks 1 or ``e`` without
    a branch, and a nan ``x`` keeps ``e``'s nan.

    Blocks of ``x``'s shape may stand in for new arrays: ``out`` gets the
    result and may be ``x`` itself, the float64 ``scratch`` holds ``e`` and
    then ``1 + e``, and the boolean ``mask`` holds ``x >= 0``.  The bits are
    the same with them or without.
    """
    e = np.exp(np.negative(np.abs(x, out=scratch), out=scratch), out=scratch)
    out = np.maximum(e, np.greater_equal(x, 0, out=mask), out=out)
    return np.divide(out, np.add(1.0, e, out=e), out=out)


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
        dz = (1.0 - targets) * sigmoid_values(z) - pos_weight * targets * sigmoid_values(-z)
        logits.grad += grad * dz

    return record(out, (logits,), backward_fn)


def backward(loss: Tensor, arena: Arena | None = None) -> None:
    """Populate gradients of every trainable tensor reachable from ``loss``.

    ``loss`` must be a 1x1 scalar recorded from an input that requires a
    gradient.  Every node on the walk that has no ``grad`` buffer yet gets a
    zeroed one first: from ``arena``, C-ordered as every recorded value of
    the model is, or else made with ``np.zeros_like``.  Gradients accumulate
    into existing buffers, so call :meth:`ParamStore.zero_grads` first when
    starting a fresh step.  Nodes push their gradients in reverse creation
    order, so each has all of its gradient before it pushes, and shared
    gradients sum in a fixed order.
    """
    if loss.value.shape != (1, 1):
        raise UsageError(f"backward requires a 1x1 scalar loss, got shape {loss.value.shape}")
    if loss._backward_fn is None and not loss._parents:
        raise UsageError("backward called on a tensor with no recorded computation")
    reached, stack = {loss}, [loss]  # a Tensor hashes and compares by identity
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and parent not in reached:
                reached.add(parent)
                stack.append(parent)
    order = sorted(reached, key=lambda node: node._index, reverse=True)
    for node in order:
        if node.grad is None:
            node.grad = np.zeros_like(node.value) if arena is None else arena.zeros(node.value.shape)
    loss.grad += 1.0
    for node in order:
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


class Arena:
    """Blocks for passes that take blocks of the same sizes, one pass after another.

    :meth:`take` cuts each block, C-contiguous and at a 64-byte offset, from
    one flat buffer, in request order, and :meth:`reset` starts the next pass
    at the buffer's start: every block handed out before is then handed out
    again, so whatever a pass left in its blocks is valid only until the next
    reset.  A block past the buffer's end is a new array, and the next reset
    makes the buffer as large as the widest pass so far; so an arena with no
    buffer yet hands out new arrays, and its first pass sizes it.  The arena
    keeps each block it hands out until the buffer changes, so a request
    repeated at the same offset gets the same array back: in a later pass,
    and, for a block past the end, after a :meth:`scope` of the same pass,
    whose scratch is then made once however often the scope runs.
    """

    ALIGN = 64

    def __init__(self):
        self._buffer = np.empty(0, dtype=np.uint8)
        self._base = self._capacity = 0  # the buffer's first 64-byte boundary, and the bytes after it
        self._used = self._peak = 0  # bytes taken in this pass, and in the widest pass so far
        self._views: dict[tuple, tuple[np.ndarray, int]] = {}  # (offset, shape, dtype) -> (block, offset after it)

    def reset(self) -> None:
        if self._peak > self._capacity:
            self._views = {}
            self._buffer = None  # frees the old buffer, unless a block still holds it, before the new one is made
            self._buffer = np.empty(self._peak + self.ALIGN, dtype=np.uint8)
            self._base, self._capacity = -self._buffer.ctypes.data % self.ALIGN, self._peak
        self._used = 0

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The pass's next block of ``shape``; its old contents are undefined."""
        key = (self._used, shape, dtype)
        view = self._views.get(key)
        if view is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            end = self._used + -(-nbytes // self.ALIGN) * self.ALIGN
            self._peak = max(self._peak, end)
            block = np.ndarray(shape, dtype, self._buffer, self._base + self._used) if end <= self._capacity else (
                np.empty(shape, dtype))
            view = self._views[key] = block, end
        block, self._used = view
        return block

    def zeros(self, shape: tuple[int, int]) -> np.ndarray:
        block = self.take(shape)
        block.fill(0.0)
        return block

    @contextmanager
    def scope(self):
        """Blocks taken inside are handed out again after it ends, as scratch that no later block outlives."""
        used = self._used
        try:
            yield
        finally:
            self._used = used


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
        tensor = Tensor(value, requires_grad=True)
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

    def span(self, names: Sequence[str]) -> slice:
        """The one flat-buffer slice of ``names``, which must be adjacent and in store order."""
        for name in names:
            self[name]  # rejects an unknown name
        spans = [self._spans[name] for name in names]
        if not spans or any(a.stop != b.start for a, b in zip(spans, spans[1:])):
            raise UsageError(f"parameters {list(names)} are not adjacent in the store")
        return slice(spans[0].start, spans[-1].stop)

    def constants(self) -> ParamStore:
        """The same parameters as non-grad leaves over the same value arrays.

        A pass over it records no tape and allocates no gradient buffers, and
        it reads every later update to this store's values.
        """
        store = ParamStore()
        store._slots = {name: Tensor(t.value, _validate=False) for name, t in self._slots.items()}
        return store

    def zero_grads(self) -> None:
        self.flat_grads.fill(0.0)
