"""Training objective: domain-uncertainty entropy loss + ArcFace classification.

A feature that has passed the style remover is scored two ways:

- against the K encoded style prompts (cosine → softmax → Σ p log p);
  pushing this down makes the feature equally similar to every style,
  i.e. domain-ambiguous;
- against the per-class weight rows of a linear head with an additive
  angular margin on the target class (ArcFace), in cosine space.

The total objective is the unweighted sum.  ``loss_gradients`` returns
the exact analytic gradients of the mean total loss over a batch, with
the style-prompt features held constant (nothing flows back into the
frozen encoder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_DTYPE, ZERO_NORM_EPS, DegenerateEmbeddingError, cosine_similarity,
                   l2_normalize, row_norms, softmax)

# Keep |cos| away from 1 so the angle-addition identity stays differentiable.
COS_CLAMP = 1e-7


@dataclass
class ClassifierHead:
    """One weight row per class; cosine similarity is taken against rows.

    A zero row has no direction: ``core.row_norms``, which takes the row
    norms wherever they are divided by, rejects it.
    """

    weights: np.ndarray  # (M, C)

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 2:
            raise ValueError("head weights must be (M, C)")
        self.weights = w

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]


def head_init(num_classes: int, dim: int, rng: np.random.Generator) -> ClassifierHead:
    bound = np.sqrt(6.0 / (num_classes + dim))
    w = rng.uniform(-bound, bound, size=(num_classes, dim)).astype(DEFAULT_DTYPE)
    return ClassifierHead(weights=w)


@dataclass(frozen=True)
class ArcFaceConfig:
    scale: float = 5.0
    margin: float = 0.5  # radians

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if not (0 <= self.margin < np.pi):
            raise ValueError("margin must be in [0, pi)")


@dataclass(frozen=True)
class DomainProbe:
    """Text features of the K current style prompts, one row per style, unit-normed here."""

    style_text_features: np.ndarray  # (K, C)

    def __post_init__(self):
        feats = np.asarray(self.style_text_features)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("probe must be a non-empty (K, C) array")
        object.__setattr__(self, "style_text_features", l2_normalize(feats))


def domain_logits(feature: np.ndarray, probe: DomainProbe) -> np.ndarray:
    """Cosine similarity of a removed feature to each style prompt feature."""
    return np.array(
        [cosine_similarity(feature, t) for t in probe.style_text_features]
    )


def domain_uncertainty_loss(p: np.ndarray) -> float:
    """Negative entropy Σ p log p (natural log, 0·log 0 = 0), in [-log K, 0]."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-5:
        raise ValueError("probabilities must sum to 1")
    nz = p[p > 0]
    return float(np.sum(nz * np.log(nz)))


def _arcface_logits(
    cos_raw: np.ndarray, target: int, config: ArcFaceConfig
) -> np.ndarray:
    """Modified logits: s·cos(θ_y + m) for the target, s·cos θ elsewhere."""
    c = np.clip(cos_raw, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
    logits = config.scale * c
    cy = c[target]
    sin_y = np.sqrt(max(1.0 - cy * cy, 0.0))
    logits = logits.copy()
    logits[target] = config.scale * (
        cy * np.cos(config.margin) - sin_y * np.sin(config.margin)
    )
    return logits


def arcface_loss(
    feature: np.ndarray,
    head: ClassifierHead,
    target: int,
    config: ArcFaceConfig,
) -> tuple[float, np.ndarray]:
    """Cross-entropy over margin-modified cosine logits.

    Returns (loss, modified logits).  Feature and head rows are
    L2-normalized here; callers pass raw (or removed) features.
    """
    if not 0 <= target < head.num_classes:
        raise ValueError(f"target {target} out of range for M={head.num_classes}")
    fn = l2_normalize(np.asarray(feature, dtype=float))
    wn = l2_normalize(np.asarray(head.weights, dtype=float))
    cos_raw = wn @ fn
    logits = _arcface_logits(cos_raw, target, config)
    shifted = logits - logits.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    return float(-log_probs[target]), logits


@dataclass
class LossBreakdown:
    """Mean losses over a batch plus gradients for the trainable tensors."""

    loss_uncertainty: float
    loss_classification: float
    d_features: np.ndarray  # (B, C): gradient w.r.t. the removed features
    d_head: np.ndarray  # (M, C)


def loss_gradients(
    features: np.ndarray,
    probe: DomainProbe,
    head: ClassifierHead,
    targets: np.ndarray,
    config: ArcFaceConfig,
) -> LossBreakdown:
    """Analytic gradients of mean(L_U + L_C) over a batch of removed features.

    features: (B, C) removed features (pre-normalization; both losses
    normalize internally).  targets: (B,) class indices.  The probe is a
    constant.  Computation runs in the features' dtype, float64 when the
    finite-difference suite calls it.
    """
    F = np.asarray(features)
    if F.ndim != 2:
        raise ValueError("features must be (B, C)")
    targets = np.asarray(targets)
    if targets.shape != (F.shape[0],):
        raise ValueError("targets must be (B,)")
    if np.any(targets < 0) or np.any(targets >= head.num_classes):
        raise ValueError("target index out of range")
    B, C = F.shape
    if probe.style_text_features.shape[1] != C or head.weights.shape[1] != C:
        raise ValueError("feature dim mismatch between features, probe, and head")

    norms = np.linalg.norm(F, axis=1, keepdims=True)
    if np.any(norms < ZERO_NORM_EPS):
        raise DegenerateEmbeddingError("zero-norm feature in batch")
    FN = F / norms

    # Domain uncertainty part.
    TN = probe.style_text_features.astype(F.dtype, copy=False)
    Z = FN @ TN.T  # (B, K)
    P = softmax(Z)
    logP = np.log(P)
    LU_per = np.sum(P * logP, axis=1)  # (B,)
    dLU_dZ = P * (logP - LU_per[:, None])

    # ArcFace part.  Head-row norms are folded into (B, M) arrays; no unit-row head is built.
    W = head.weights.astype(F.dtype, copy=False)
    wnorms = row_norms(W)  # (M,)
    cos_raw = (FN @ W.T) / wnorms  # (B, M)
    cos_c = np.clip(cos_raw, -1.0 + COS_CLAMP, 1.0 - COS_CLAMP)
    clamp_mask = (cos_raw > -1.0 + COS_CLAMP) & (cos_raw < 1.0 - COS_CLAMP)

    rows = np.arange(B)
    cy = cos_c[rows, targets]
    sin_y = np.sqrt(np.maximum(1.0 - cy * cy, 0.0))
    cos_m, sin_m = np.cos(config.margin), np.sin(config.margin)
    logits = config.scale * cos_c
    logits[rows, targets] = config.scale * (cy * cos_m - sin_y * sin_m)

    shifted = logits - logits.max(axis=1, keepdims=True)
    logZsum = np.log(np.exp(shifted).sum(axis=1))
    LC_per = logZsum - shifted[rows, targets]
    dL_dlogits = np.exp(shifted) / np.exp(logZsum)[:, None]
    dL_dlogits[rows, targets] -= 1.0

    # d logit / d cos: s off-target; s(cos m + cos θ_y sin m / sin θ_y) on target.
    dlogit_dcos = np.full_like(cos_c, config.scale)
    # Clamping keeps |cos θ_y| < 1, so sin_y is strictly positive.
    dlogit_dcos[rows, targets] = config.scale * (cos_m + cy / sin_y * sin_m)
    G = dL_dlogits * dlogit_dcos * clamp_mask  # (B, M), d L_C / d cos_raw

    # d z_k / d f = (t_k - z_k fn) / ||f||;  d cos_j / d f = (W_j / ||W_j|| - cos_j fn) / ||f||.
    # The mean's 1/B and the norms scale the (B, K) and (B, M) operands, not (B, C) results.
    G_w = G / (wnorms * B)  # (B, M)
    inv_f = 1.0 / norms  # (B, 1)
    radial = np.sum(dLU_dZ * Z, axis=1, keepdims=True) + np.sum(G * cos_raw, axis=1)[:, None]
    d_features = (dLU_dZ * (inv_f / B)) @ TN
    d_features += (G_w * inv_f) @ W
    d_features -= (radial * (inv_f / B)) * FN
    # d cos[b, j] / d W_j = (fn_b - cos[b, j] W_j / ||W_j||) / ||W_j||
    d_head = G_w.T @ FN
    d_head -= (np.sum(G_w * cos_raw, axis=0) / wnorms)[:, None] * W
    return LossBreakdown(
        loss_uncertainty=float(LU_per.mean()),
        loss_classification=float(LC_per.mean()),
        d_features=d_features,
        d_head=d_head,
    )
