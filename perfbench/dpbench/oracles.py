"""Independent NumPy references the benchmark checks the program against.

Nothing here calls dpstyler's scoring, gate or fusion code.  Scores are
recomputed in float64 from the float32 inputs; a program prediction that
differs from the reference is excepted only when its best score is
within ``TIE_TOL`` of the reference maximum, i.e. a near-tie that float32
rounding may break either way.
"""

from __future__ import annotations

import numpy as np

TIE_TOL = 1e-5


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def gate(v: np.ndarray, W1: np.ndarray, W2: np.ndarray) -> np.ndarray:
    """R(v) = (1 + sigmoid(relu(v W1) W2)) * v, row-wise, in float64."""
    v = v.astype(np.float64)
    s = np.maximum(v @ W1.astype(np.float64), 0.0) @ W2.astype(np.float64)
    return v * (1.0 + 1.0 / (1.0 + np.exp(-s)))


def ensemble_reference(embeddings: np.ndarray, members):
    """Max-fusion predictions and per-class fused scores for (N, C) embeddings.

    ``members`` holds (W1, W2, head) triples.  The fused score of a class
    is its best score over members; the prediction is the global maximum
    over (member, class), ties going to the lowest class.
    """
    scores = np.stack(
        [
            _unit_rows(gate(embeddings, W1, W2)) @ _unit_rows(head.astype(np.float64)).T
            for W1, W2, head in members
        ],
        axis=1,
    )  # (N, members, M)
    class_scores = scores.max(axis=1)
    best = class_scores.max(axis=1, keepdims=True)
    return (class_scores == best).argmax(axis=1), class_scores


def zeroshot_reference(embeddings: np.ndarray, text_features: np.ndarray):
    """Argmax predictions and (N, M) cosines against class-prompt features."""
    scores = _unit_rows(embeddings.astype(np.float64)) @ _unit_rows(
        text_features.astype(np.float64)
    ).T
    return scores.argmax(axis=1), scores


def mismatches(predicted: np.ndarray, reference: np.ndarray, class_scores: np.ndarray):
    """Return (mismatch count, excepted near-tie count)."""
    predicted = np.asarray(predicted)
    differ = predicted != reference
    rows = np.arange(len(predicted))
    gap = class_scores[rows, reference] - class_scores[rows, predicted]
    near_tie = differ & (gap <= TIE_TOL)
    return int(np.count_nonzero(differ & ~near_tie)), int(np.count_nonzero(near_tie))


def checkpoint_differences(a, b) -> list[str]:
    """Fields of two checkpoints that are not bitwise equal."""
    diffs = []
    for field, x, y in (
        ("W1", a.remover.W1, b.remover.W1),
        ("W2", a.remover.W2, b.remover.W2),
        ("head", a.head.weights, b.head.weights),
    ):
        if x.shape != y.shape or x.astype("<f4").tobytes() != y.astype("<f4").tobytes():
            diffs.append(field)
    for field in ("template_id", "template_pattern", "class_names", "dim_joint",
                  "dim_token", "backend_tag", "seed", "config_snapshot"):
        if getattr(a, field) != getattr(b, field):
            diffs.append(field)
    if a.remover.ratio != b.remover.ratio:
        diffs.append("ratio")
    return diffs
