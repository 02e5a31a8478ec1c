"""The style removal gate: a residual squeeze-excitation bottleneck.

Given a C-dim feature v, two bias-free linear layers produce per-channel
gates a(v) = sigmoid(relu(v W1) W2) in (0, 1), and the output is
R(v) = a(v) * v + v.  Channels carrying style information get small
gates; the residual keeps every channel's sign and never shrinks it.

The backward pass is written by hand (the trainer does not use an
autograd framework) and is checked against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_DTYPE


@dataclass
class StyleRemoverParams:
    """Weights of the two gate layers: W1 is (C, C//r), W2 is (C//r, C)."""

    W1: np.ndarray
    W2: np.ndarray
    ratio: int

    @property
    def dim(self) -> int:
        return self.W1.shape[0]


def remover_init(dim: int, ratio: int, rng: np.random.Generator) -> StyleRemoverParams:
    """Xavier-uniform initialization with each matrix's natural fans."""
    hidden = dim // ratio
    if hidden < 1:
        raise ValueError(f"bottleneck width {dim}//{ratio} collapses to zero")

    def xavier(fan_in: int, fan_out: int) -> np.ndarray:
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(DEFAULT_DTYPE)

    return StyleRemoverParams(W1=xavier(dim, hidden), W2=xavier(hidden, dim), ratio=ratio)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(0.5 x)), written over the float array ``x``.  The tanh
    form cannot overflow, so it needs no branch on the sign."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def remover_forward(v: np.ndarray, params: StyleRemoverParams) -> np.ndarray:
    """Apply the gate: R(v) = (1 + sigmoid(relu(v W1) W2)) * v.

    Accepts a single vector (C,) or a batch (B, C).
    """
    return remover_forward_cached(v, params)[0]


def remover_forward_cached(v: np.ndarray, params: StyleRemoverParams) -> tuple[np.ndarray, tuple]:
    """R(v) and the cache (v, relu(v W1), gate) that ``remover_weight_grads`` reuses."""
    v = np.asarray(v)
    if v.shape[-1] != params.dim:
        raise ValueError(f"feature dim {v.shape[-1]} != remover dim {params.dim}")
    hidden = v @ params.W1
    np.maximum(hidden, 0, out=hidden)
    gate = _sigmoid(hidden @ params.W2)
    removed = gate * v
    removed += v
    return removed, (v, hidden, gate)


def remover_weight_grads(
    cache: tuple, params: StyleRemoverParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_pre, d_W1, d_W2) of sum(upstream * R(v)), from a (B, C) forward cache.

    d_pre, at the first layer's pre-activation, is all ``remover_backward``
    needs for d_v, which training skips (the encoder is frozen).  relu'(0) = 0.
    """
    v, hidden, gate = cache
    d_s = upstream * v * gate  # of the widest dtype, so the in-place product keeps it
    d_s *= 1.0 - gate
    d_W2 = hidden.T @ d_s
    d_pre = d_s @ params.W2.T
    d_pre *= hidden > 0
    return d_pre, v.T @ d_pre, d_W2


def remover_backward(
    v: np.ndarray, params: StyleRemoverParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * R(v)) w.r.t. (v, W1, W2); shapes follow the inputs."""
    v = np.asarray(v)
    upstream = np.asarray(upstream)
    if v.shape != upstream.shape:
        raise ValueError(f"upstream shape {upstream.shape} != input shape {v.shape}")
    _, cache = remover_forward_cached(np.atleast_2d(v), params)
    d_pre, d_W1, d_W2 = remover_weight_grads(cache, params, np.atleast_2d(upstream))
    d_v = upstream * (1.0 + cache[2]) + d_pre @ params.W1.T  # cache[2] is the gate
    return (d_v[0] if v.ndim == 1 else d_v), d_W1, d_W2
