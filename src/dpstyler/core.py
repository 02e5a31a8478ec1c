"""Shared vector types and hypersphere arithmetic.

Everything downstream (style generation, the removal gate, the losses,
the encoders) works with plain numpy arrays in a C-dimensional joint
embedding space or a D-dimensional token embedding space.  ``l2_norms``,
``l2_normalize`` and ``row_norms`` are the norm helpers; the last two reject
a zero row.

Default precision is float32; callers that need tighter arithmetic
(e.g. the finite-difference gradient checks) pass float64 arrays and the
functions compute in the input dtype.

``atomic_write`` is the one way the package writes an output file,
``seeded_rng`` the one way it builds a random generator, and ``InputError``
the root of every refusal of a bad input.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import os
from dataclasses import dataclass

import numpy as np

# Norms below this are treated as the zero vector.
ZERO_NORM_EPS = 1e-12

DEFAULT_DTYPE = np.float32
DTYPE_MAX = float(np.finfo(DEFAULT_DTYPE).max)  # the largest finite DEFAULT_DTYPE value


@enum.unique
class Stream(enum.IntEnum):
    """Each random stream's tag, its first word after the seed; the values fix every draw."""

    STYLE_COIN = 0  # random_mix's per-epoch choice
    STYLE_DRAWS = 1  # the vectors of each epoch's refresh
    STYLE_FROZEN = 2  # the frozen strategy's one bank
    REMOVER_INIT = 10
    HEAD_INIT = 11
    SHUFFLE = 12  # each epoch's prompt order
    TOY_DATASET = 977


def seeded_rng(seed: int, *words: int) -> np.random.Generator:
    """The generator for ``seed`` then ``words``; NumPy zero-pads, so (s, t) is (s, t, 0)."""
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


class InputError(ValueError):
    """Raised for an input the package refuses: a malformed file, setting or
    backend output.  The CLI reports it in one line and exits 2; any other
    ``ValueError`` is a bug, and surfaces with its traceback."""


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


def l2_norms(v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Norms along the last axis: ``sqrt(add.reduce(v*v))``, which is bitwise
    ``np.linalg.norm(v, axis=-1)`` without its conj copy."""
    return np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=keepdims))


def l2_normalize(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Project each row of ``v`` onto the unit sphere; a (C,) vector is one row.
    ``out=v`` normalizes a float array in place.

    Raises DegenerateEmbeddingError if any row has norm below ZERO_NORM_EPS.
    """
    v = np.asarray(v)
    norms = l2_norms(v, keepdims=True)
    if np.any(norms < ZERO_NORM_EPS):
        raise DegenerateEmbeddingError("cannot normalize a zero row")
    return np.divide(v, norms, out=out)


def row_norms(W: np.ndarray) -> np.ndarray:
    """(M,) norms of a head's (M, C) rows; DegenerateEmbeddingError for a zero row."""
    norms = np.sqrt(np.einsum("mc,mc->m", W, W))
    if np.any(norms < ZERO_NORM_EPS):
        raise DegenerateEmbeddingError("head rows must be nonzero")
    return norms


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

    def __post_init__(self):
        if self.pattern.count(CLASS_PLACEHOLDER) != 1:
            raise ValueError(
                f"pattern must contain {CLASS_PLACEHOLDER!r} exactly once: {self.pattern!r}"
            )
        if self.pattern.count(STYLE_PLACEHOLDER) != 1:
            raise ValueError(
                f"pattern must contain {STYLE_PLACEHOLDER!r} exactly once: {self.pattern!r}"
            )

    @property
    def id(self) -> str:
        return template_id(self.pattern)


def template_id(pattern: str) -> str:
    """A pattern's stable id: ``tpl-`` and the first 8 hex digits of its SHA-256."""
    return f"tpl-{hashlib.sha256(pattern.encode('utf-8')).hexdigest()[:8]}"
