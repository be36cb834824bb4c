"""Shared test helpers: finite-difference gradients, tolerance checks, fixtures,
and the tape ops that only the tests compose."""

from fractions import Fraction

import numpy as np

from alertanet import numerics as nx
from alertanet.errors import DimensionError

# 51 hand-picked prices -> 50 labeled days.  Covers both dead-zone edges
# (+0.5%, -0.5%), both outlier edges (+5%, -5%) at float-exact price pairs,
# just-inside/just-outside cases (0.49%, 4.99%), and ordinary moves.
GOLDEN_PRICES = [
    "100", "101", "99.99", "100.3", "100", "100.5", "100", "99.5", "100",
    "105", "100", "95", "100", "104.99", "100", "106", "100", "102", "100",
    "100.49", "100", "99.51", "100", "107.3", "100", "200", "201", "200",
    "190", "200", "100", "100.2", "100.7", "101.8", "101", "96", "120",
    "114", "120", "126", "119", "121.38", "115", "115.92", "116", "110",
    "111.1", "111", "105", "106", "105.5",
]


def golden_label_oracle(price_strings, abstain, dead=Fraction(1, 200), outlier=Fraction(1, 20)):
    """Exact rational labeling of consecutive price pairs (spreadsheet-style)."""
    movement, volatility = [], []
    for prev, cur in zip(price_strings, price_strings[1:]):
        r = (Fraction(cur) - Fraction(prev)) / Fraction(prev)
        if -dead < r < dead:
            movement.append(abstain)
        elif r >= dead:
            movement.append(1)
        else:
            movement.append(0)
        volatility.append(1 if abs(r) >= outlier else 0)
    return movement, volatility


def finite_difference_grads(loss_fn, params, h=1e-6):
    """Central-difference gradient of a scalar loss for every parameter entry.

    ``loss_fn`` must recompute the loss from the params' current values; the
    perturbation is done in place and always restored.
    """
    grads = {}
    for name, tensor in params.items():
        flat = tensor.value.ravel()
        grad = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            loss_plus = loss_fn()
            flat[i] = orig - h
            loss_minus = loss_fn()
            flat[i] = orig
            grad[i] = (loss_plus - loss_minus) / (2.0 * h)
        grads[name] = grad.reshape(tensor.value.shape)
    return grads


def max_grad_violation(analytic, numeric, rel=1e-5, floor=1e-8):
    """Worst ratio |a - n| / allowed, where allowed = max(floor, rel*max(|a|,|n|)).

    A return value <= 1 means every entry is within tolerance.
    """
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        allowed = np.maximum(floor, rel * np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / allowed)))
    return worst


def mul(a, b):
    """Elementwise (Hadamard) product on the tape, for the per-gate cell oracle."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shape {a.shape} does not match shape {b.shape}")

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad * b.value
        if b.requires_grad:
            b.grad += grad * a.value

    return nx.record(a.value * b.value, (a, b), backward_fn)


def tanh(a):
    """Elementwise tanh on the tape, for the per-gate cell oracle."""
    out = np.tanh(a.value)

    def backward_fn(grad):
        if a.requires_grad:
            a.grad += grad * (1.0 - out * out)

    return nx.record(out, (a,), backward_fn)
