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

    def copy(self) -> "StyleRemoverParams":
        return StyleRemoverParams(self.W1.copy(), self.W2.copy(), self.ratio)


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
    # The tanh form cannot overflow, so it needs no branch on the sign.
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def remover_forward(v: np.ndarray, params: StyleRemoverParams) -> np.ndarray:
    """Apply the gate: R(v) = (1 + sigmoid(relu(v W1) W2)) * v.

    Accepts a single vector (C,) or a batch (B, C).
    """
    v = np.asarray(v)
    if v.shape[-1] != params.dim:
        raise ValueError(f"feature dim {v.shape[-1]} != remover dim {params.dim}")
    hidden = np.maximum(v @ params.W1, 0)
    gate = _sigmoid(hidden @ params.W2)
    return v + gate * v


def remover_backward(
    v: np.ndarray, params: StyleRemoverParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(upstream * R(v)) w.r.t. (v, W1, W2).

    relu'(0) is taken as 0.  Shapes follow the inputs; batched rows are
    summed into the weight gradients.
    """
    v = np.asarray(v)
    upstream = np.asarray(upstream)
    if v.shape != upstream.shape:
        raise ValueError(f"upstream shape {upstream.shape} != input shape {v.shape}")
    if v.shape[-1] != params.dim:
        raise ValueError(f"feature dim {v.shape[-1]} != remover dim {params.dim}")
    squeeze = v.ndim == 1
    v2 = v[None, :] if squeeze else v
    up2 = upstream[None, :] if squeeze else upstream

    pre = v2 @ params.W1
    hidden = np.maximum(pre, 0)
    s = hidden @ params.W2
    gate = _sigmoid(s)

    d_gate = up2 * v2
    d_s = d_gate * gate * (1.0 - gate)
    d_W2 = hidden.T @ d_s
    d_hidden = d_s @ params.W2.T
    d_pre = d_hidden * (pre > 0)
    d_W1 = v2.T @ d_pre
    d_v = up2 * (1.0 + gate) + d_pre @ params.W1.T

    if squeeze:
        d_v = d_v[0]
    return d_v, d_W1, d_W2
