"""Shared vector types and hypersphere arithmetic.

Everything downstream (style generation, the removal gate, the losses,
the encoders) works with plain numpy arrays in a C-dimensional joint
embedding space or a D-dimensional token embedding space.  The helpers
here are the only linear-algebra surface the rest of the package uses.

Default precision is float32; callers that need tighter arithmetic
(e.g. the finite-difference gradient checks) pass float64 arrays and the
functions compute in the input dtype.

``atomic_write`` is the one way the package writes an output file.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

# Norms below this are treated as the zero vector.
ZERO_NORM_EPS = 1e-12

DEFAULT_DTYPE = np.float32


class DegenerateEmbeddingError(ValueError):
    """Raised when a vector that must carry direction is (numerically) zero."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new file beside ``path`` and, if the block completes, move it onto ``path``.

    Readers see either the previous file or the complete new one, never
    a partial write; on an exception the previous file is left as it was
    and the temporary file is removed.  There is no fsync: this guards
    against a failed or interrupted writer, not against a power loss.
    A symlink is written through (its target is replaced, not the link),
    and an existing non-regular file, such as a pipe or ``/dev/stdout``,
    cannot be replaced and is written in place.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, **open_kwargs) as fh:
            yield fh
        return
    path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Project a vector (or a batch of row vectors) onto the unit sphere.

    Raises DegenerateEmbeddingError if any row has norm below ZERO_NORM_EPS.
    """
    v = np.asarray(v)
    if v.ndim == 1:
        norm = np.linalg.norm(v)
        if norm < ZERO_NORM_EPS:
            raise DegenerateEmbeddingError("cannot normalize a zero vector")
        return v / norm
    norms = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(norms < ZERO_NORM_EPS):
        raise DegenerateEmbeddingError("cannot normalize a zero row")
    return v / norms


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of the angle between two vectors, in [-1, 1]."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(l2_normalize(u), l2_normalize(v)))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    z = np.asarray(z)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class TaskDefinition:
    """The classification task: an ordered list of class names."""

    class_names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.class_names)
        object.__setattr__(self, "class_names", names)
        if len(names) < 2:
            raise ValueError("a task needs at least 2 classes")
        if len(set(names)) != len(names):
            raise ValueError("class names must be unique")
        if any(not n for n in names):
            raise ValueError("class names must be non-empty")
        padded = [n for n in names if n != n.strip()]
        if padded:
            raise ValueError(f"class names must not start or end with whitespace: {padded}")

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


CLASS_PLACEHOLDER = "[class]"
STYLE_PLACEHOLDER = "S*"


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt pattern holding one class slot and one style slot.

    Example: ``"a [class] in a S* style"``.  The style slot marks the
    token position where a style word vector is injected after
    tokenization.
    """

    pattern: str
    id: str

    def __post_init__(self):
        if self.pattern.count(CLASS_PLACEHOLDER) != 1:
            raise ValueError(
                f"pattern must contain {CLASS_PLACEHOLDER!r} exactly once: {self.pattern!r}"
            )
        if self.pattern.count(STYLE_PLACEHOLDER) != 1:
            raise ValueError(
                f"pattern must contain {STYLE_PLACEHOLDER!r} exactly once: {self.pattern!r}"
            )

    @classmethod
    def from_pattern(cls, pattern: str) -> "PromptTemplate":
        """Build a template with a stable id derived from the pattern text."""
        import hashlib

        digest = hashlib.sha256(pattern.encode("utf-8")).hexdigest()[:8]
        return cls(pattern=pattern, id=f"tpl-{digest}")
