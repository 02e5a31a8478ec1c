"""Frozen joint vision-language encoder backends.

The pipeline needs five operations from a backend: encode chosen rows
of the class-prompt grid (every class name crossed with every style
vector, each injected at the style token's position, row ``m*K + i``
for class m and style i), encode a batch of style-only prompts, load an
image file, encode a batch of loaded images, and look up a word's token
embedding.  Training encodes each batch's B prompts as it reaches them,
so every (class, style) pair is encoded once per epoch and the M*K grid
is never held.  Zero-shot scoring encodes its M class prompts as rows
0..M-1 of a pattern with no style slot, and evaluation encodes images a
chunk at a time.  Backends are immutable after construction; ``ToyBackend``
builds one read-only (M, C) content table per (context, class list) at
its first encode, and keeps the projection of the last style matrix it
saw, neither of which changes any output.

``ToyBackend`` is a seeded linear construction for desk-scale tests.
Text features are ``l2(content(class, template) + V @ l2(style))`` and
image features ``l2(content_img(class) + V @ l2(nuisance) + noise)``,
where the content maps share a common per-class base vector and the
style subspace ``V`` is shared between modalities.  This gives the
removal gate a real style signal to suppress while keeping classes
linearly separable.

No pretrained weights ship with the package: a pretrained encoder is
wrapped by subclassing ``EncoderBackend`` (see the README's integration
recipe).
"""

from __future__ import annotations

import abc
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_DTYPE, DTYPE_MAX, STYLE_PLACEHOLDER, ZERO_NORM_EPS, InputError,
                   atomic_write, l2_normalize, seeded_rng)


class ImageDecodeError(InputError):
    """Raised for malformed image records."""


class EncoderBackend(abc.ABC):
    """Frozen text/image encoder pair sharing one joint embedding space."""

    @property
    @abc.abstractmethod
    def dim_joint(self) -> int:
        """C: dimensionality of the joint vision-language space."""

    @property
    @abc.abstractmethod
    def dim_token(self) -> int:
        """D: dimensionality of the token word-embedding space."""

    @abc.abstractmethod
    def encode_prompt_rows(
        self,
        pattern: str,
        class_names: Sequence[str],
        styles: np.ndarray | None,
        index: np.ndarray,
    ) -> np.ndarray:
        """Encode the (class, style) prompts at flat ``index``: (len(index), C).

        ``styles`` is (K, D); flat index ``m*K + i`` is the prompt for
        class m with style row i injected at its style token.  ``styles``
        is ``None`` for a pattern with no style slot, which gives K=1.
        Raises ``ValueError`` when a style slot has no styles, the rows
        are not D long, or ``index`` is not a 1-D integer array in
        [0, M*K).
        """

    @abc.abstractmethod
    def encode_style_prompts(self, styles: np.ndarray) -> np.ndarray:
        """Encode the style-only prompt for each (K, D) style row: (K, C)."""

    @abc.abstractmethod
    def load_image(self, path):
        """Decode an image file; raises ``ImageDecodeError`` if it cannot be encoded."""

    @abc.abstractmethod
    def encode_images(self, images: Sequence) -> np.ndarray:
        """Encode loaded images into the joint space: (N, C), or (0, C) for none."""

    @abc.abstractmethod
    def token_embedding_lookup(self, word: str) -> np.ndarray:
        """Embedding-table row for a single-token word; ``InputError`` for another word."""


def check_rows(what: str, rows: np.ndarray, shape: tuple) -> None:
    """Raise ``InputError`` unless ``rows``, from the backend method ``what``, has ``shape``."""
    if np.shape(rows) != shape:
        raise InputError(f"{what} returned shape {np.shape(rows)}, expected {shape}")


def usable_rows(what: str, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """``check_rows``, then the mask of rows whose norm is finite and at least ``ZERO_NORM_EPS``."""
    check_rows(what, rows, shape)
    with np.errstate(over="ignore"):  # a norm past float range is inf, so not usable
        norms = np.linalg.norm(rows, axis=1)
    return np.isfinite(norms) & (norms >= ZERO_NORM_EPS)


def unusable_row(what: str, rows: np.ndarray, shape: tuple) -> tuple[int, str] | None:
    """``usable_rows``' first refused row as (index, "zero" or "non-finite"), or None."""
    good = usable_rows(what, rows, shape)
    if good.all():
        return None
    row = int(np.argmin(good))
    with np.errstate(over="ignore"):
        return row, "zero" if np.linalg.norm(rows[row]) < ZERO_NORM_EPS else "non-finite"


def _hashed_rng(seed: int, data: bytes) -> np.random.Generator:
    """A generator seeded by ``seed`` and the four 64-bit words of SHA-256(``data``)."""
    h = hashlib.sha256(data).digest()
    words = [int.from_bytes(h[i : i + 8], "little") for i in range(0, 32, 8)]
    return seeded_rng(seed, *words)


def _tagged_rng(seed: int, *parts: str) -> np.random.Generator:
    return _hashed_rng(seed, "\x1f".join(parts).encode("utf-8"))


@dataclass(frozen=True)
class ToyBackendSpec:
    dim_joint: int = 64
    dim_token: int = 32
    max_classes: int = 16
    noise_level: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.dim_joint < 1 or self.dim_token < 1:
            raise ValueError("dim_joint and dim_token must be >= 1")
        if self.noise_level < 0:
            raise ValueError("noise_level must be >= 0")
        if self.seed < 0:
            raise ValueError("backend seed must be >= 0")


@dataclass(frozen=True)
class ToyImage:
    """A synthetic image: a class index plus a D-dim nuisance style vector.

    ``content_strength`` models how much the stylization obscures the
    class evidence: 1.0 is a clean depiction, smaller values fade the
    content relative to the style and noise.
    """

    class_index: int
    nuisance: np.ndarray  # (D,)
    content_strength: float = 1.0


def toy_image_load(path) -> ToyImage:
    """Decode a synthetic-image record file (JSON with class_index, nuisance)."""
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        idx, strength = record["class_index"], record.get("content_strength", 1.0)
        values = record["nuisance"]
        # Exact types, so a bool, a float index or a numeric string is not
        # coerced.  asarray would turn a bool among numbers into 1.0, so the
        # element types are looked at first; the dtype check covers the rest.
        if bool in set(map(type, values)):
            raise TypeError("nuisance must hold numbers, not booleans")
        nuisance = np.asarray(values)
        if type(idx) is not int or type(strength) not in (int, float) \
                or nuisance.dtype.kind not in "iuf":
            raise TypeError("class_index must be an integer, nuisance and content_strength numbers")
        with np.errstate(over="ignore"):  # beyond float32 is inf, rejected below
            nuisance = nuisance.astype(DEFAULT_DTYPE)
        strength = float(strength)
    # OverflowError: an integer beyond float range (content_strength
    # 10**400); RecursionError: JSON nested deeper than the decoder's limit.
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ImageDecodeError(f"malformed toy image {path}: {exc}") from exc
    if nuisance.ndim != 1:
        raise ImageDecodeError(f"malformed toy image {path}: nuisance must be 1-D")
    # json.load accepts NaN and Infinity, which the encoder cannot take; a
    # content_strength beyond float32 range is refused as the nuisance is.
    if not (np.isfinite(nuisance).all() and abs(strength) <= DTYPE_MAX):
        raise ImageDecodeError(f"malformed toy image {path}: non-finite value")
    if strength < 0:
        raise ImageDecodeError(f"malformed toy image {path}: negative content_strength")
    return ToyImage(class_index=idx, nuisance=nuisance, content_strength=strength)


def toy_image_save(image: ToyImage, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "class_index": image.class_index,
                "nuisance": [float(x) for x in image.nuisance],
                "content_strength": image.content_strength,
            },
            fh,
        )


class ToyBackend(EncoderBackend):
    """Deterministic linear test double for the frozen encoder pair.

    All frozen matrices derive from (spec, seed) via hashed seed
    sequences, so identically-configured backends produce bit-identical
    features across processes.  Content is one read-only (M, C) table per
    (context, class list), built at first use and gathered by class index.
    """

    # Relative weight of per-template / per-modality content perturbations.
    PERTURBATION = 0.1
    # Norm of the style term relative to the unit-norm content term; >1
    # makes features style-dominated, as real encoder features are.
    STYLE_STRENGTH = 1.0
    # Norm of every emitted feature.  Downstream losses are cosine-based
    # and therefore scale-invariant, but gradients through the removal
    # gate grow with the feature norm, so a realistic (pretrained joint
    # encoders emit features with norms in the tens) magnitude is needed
    # for the gate to train within desk-scale step budgets.
    OUTPUT_GAIN = 32.0

    def __init__(self, spec: ToyBackendSpec, class_names):
        self.spec = spec
        self.class_names = tuple(class_names)
        if len(self.class_names) > spec.max_classes:
            raise InputError(
                f"{len(self.class_names)} classes exceed max_classes={spec.max_classes}"
            )
        C, D = spec.dim_joint, spec.dim_token
        scale = 1.0 / np.sqrt(C)
        rng = _tagged_rng(spec.seed, "style-subspace")
        # Shared style subspace between text and image modalities.  Style
        # feeds only the upper half of the channels (content stays dense
        # over all of them), so style information is channel-coded and a
        # per-channel gate has something real to suppress.  Built in float64
        # and cast: a float32 build is bitwise the same, but frees no 4 MB
        # block during set-up, so glibc's dynamic mmap threshold stays lower
        # and training maps and faults its buffers afresh: over 40 train-pacs
        # units (seed 5, 1 BLAS thread, resource.getrusage per unit), a mean
        # of 66 minor faults per unit (median 0) with this build, against
        # ~1,460 and ~3 ms more system time per unit with a float32 one.
        block = C // 2
        V = np.zeros((C, D))
        V[block:] = rng.standard_normal((C - block, D)) / np.sqrt(C - block)
        self._V = V.astype(DEFAULT_DTYPE)
        rng = _tagged_rng(spec.seed, "style-prompt-base")
        self._style_prompt_base = (rng.standard_normal(C) * scale).astype(DEFAULT_DTYPE)
        self._content: dict[tuple[str, tuple[str, ...]], np.ndarray] = {}
        # The last styles projected, as a private copy, and their terms.
        self._terms_key: np.ndarray | None = None
        self._terms: np.ndarray | None = None

    @property
    def dim_joint(self) -> int:
        return self.spec.dim_joint

    @property
    def dim_token(self) -> int:
        return self.spec.dim_token

    def _content_table(self, tag: str, class_names: tuple[str, ...]) -> np.ndarray:
        """(M, C) read-only content of context ``tag``: row m is the base vector of
        ``class_names[m]`` plus a small perturbation of the (tag, class) pair."""
        table = self._content.get((tag, class_names))
        if table is None:
            C = self.spec.dim_joint
            scale = 1.0 / np.sqrt(C)
            table = np.empty((len(class_names), C), dtype=DEFAULT_DTYPE)
            for row, name in zip(table, class_names):
                base = _tagged_rng(self.spec.seed, "content", name).standard_normal(C) * scale
                pert = _tagged_rng(self.spec.seed, "pert", tag, name).standard_normal(C) * scale
                row[...] = base + self.PERTURBATION * pert
            table.flags.writeable = False
            self._content[(tag, class_names)] = table
        return table

    def _style_terms(self, styles: np.ndarray) -> np.ndarray:
        """(K, C) projections of the direction-normalized style rows, read-only.

        A zero style row contributes nothing rather than erroring, so
        the style path can be switched off in tests.  The last result is
        reused while the styles are bitwise the same, so an epoch's probe
        and all its prompt batches project the K styles once.
        """
        styles = np.asarray(styles, dtype=DEFAULT_DTYPE)
        if styles.ndim != 2 or styles.shape[1] != self.spec.dim_token:
            raise ValueError(f"styles shape {styles.shape} != (K, D={self.spec.dim_token})")
        key = self._terms_key
        if key is not None and np.array_equal(key.view(np.uint32), styles.view(np.uint32)):
            return self._terms
        norms = np.linalg.norm(styles, axis=1, keepdims=True)
        unit = np.divide(styles, norms, out=np.zeros_like(styles), where=norms >= ZERO_NORM_EPS)
        terms = self.STYLE_STRENGTH * (unit @ self._V.T)
        terms.flags.writeable = False
        self._terms_key, self._terms = styles.copy(), terms
        return terms

    def encode_prompt_rows(
        self,
        pattern: str,
        class_names: Sequence[str],
        styles: np.ndarray | None,
        index: np.ndarray,
    ) -> np.ndarray:
        C = self.spec.dim_joint
        if STYLE_PLACEHOLDER in pattern:
            if styles is None:
                raise ValueError("pattern has a style slot but no styles were given")
            terms = self._style_terms(styles)
        else:
            terms = np.zeros((1 if styles is None else len(styles), C), dtype=DEFAULT_DTYPE)
        # Checked here, since NumPy would wrap a negative index silently.
        index, count = np.asarray(index), len(class_names) * len(terms)
        if index.ndim != 1 or index.dtype.kind not in "iu" \
                or (index.size and not 0 <= index.min() <= index.max() < count):
            raise ValueError(f"prompt index must be 1-D integers in [0, {count})")
        classes, columns = np.divmod(index, len(terms))
        feature = self._content_table("text:" + pattern, tuple(class_names))[classes]
        feature += terms[columns]
        return self.OUTPUT_GAIN * l2_normalize(feature)

    def text_encode(self, pattern: str, class_name: str, style: np.ndarray | None = None):
        """Encode one prompt, ``style`` at the style token.  Only perfbench's
        zero-shot oracle calls it; ROADMAP item 11b deletes it once 11a lands."""
        styles = None if style is None else np.asarray(style)[None]
        return self.encode_prompt_rows(pattern, (class_name,), styles, np.arange(1))[0]

    def encode_style_prompts(self, styles: np.ndarray) -> np.ndarray:
        feature = self._style_prompt_base + self._style_terms(styles)
        return self.OUTPUT_GAIN * l2_normalize(feature)

    def _checked(self, image) -> ToyImage:
        if not isinstance(image, ToyImage):
            raise ImageDecodeError(f"toy backend cannot decode {type(image).__name__}")
        if not 0 <= image.class_index < len(self.class_names):
            raise ImageDecodeError(
                f"class index {image.class_index} outside task with "
                f"{len(self.class_names)} classes"
            )
        if np.shape(image.nuisance) != (self.spec.dim_token,):
            raise ImageDecodeError(
                f"nuisance length {np.shape(image.nuisance)} != D={self.spec.dim_token}"
            )
        return image

    def load_image(self, path) -> ToyImage:
        return self._checked(toy_image_load(path))

    def encode_images(self, images) -> np.ndarray:
        C, n = self.spec.dim_joint, len(images)
        classes, strength = np.empty(n, dtype=np.intp), np.empty((n, 1))
        nuisance = np.empty((n, self.spec.dim_token), dtype=DEFAULT_DTYPE)
        noise, sigma = np.zeros((n, C)), self.spec.noise_level / np.sqrt(C)
        # Each image's noise has its own generator, seeded by its record.
        for j, image in enumerate(map(self._checked, images)):
            classes[j], strength[j], nuisance[j] = \
                image.class_index, image.content_strength, image.nuisance
            if sigma > 0:
                data = nuisance[j].tobytes() + image.class_index.to_bytes(4, "little")
                noise[j] = _hashed_rng(self.spec.seed, data).standard_normal(C) * sigma
        feature = strength * self._content_table("image", self.class_names)[classes]
        feature += self._style_terms(nuisance)
        if sigma > 0:
            feature += noise
        # A zero feature stays zero, for the caller to count, not failing the batch.
        norms = np.linalg.norm(feature, axis=1, keepdims=True)
        unit = np.divide(feature, norms, out=np.zeros_like(feature), where=norms >= ZERO_NORM_EPS)
        return (self.OUTPUT_GAIN * unit).astype(DEFAULT_DTYPE)

    def style_preimage(self, target: np.ndarray) -> np.ndarray:
        """Least-squares nuisance whose style term best matches ``target``.

        Test-data hook: lets dataset builders craft domain styles that
        alias a given joint-space direction (e.g. another class's
        content), which is how real stylization confuses classifiers.
        """
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (self.spec.dim_joint,):
            raise ValueError(f"target shape {target.shape} != (C={self.spec.dim_joint},)")
        sol, *_ = np.linalg.lstsq(self._V.astype(np.float64), target, rcond=None)
        return sol.astype(DEFAULT_DTYPE)

    def class_content_direction(self, class_name: str) -> np.ndarray:
        """The image-modality content vector for a class, read-only (test-data hook)."""
        names = self.class_names if class_name in self.class_names else (class_name,)
        return self._content_table("image", names)[names.index(class_name)]

    def token_embedding_lookup(self, word: str) -> np.ndarray:
        if not word or len(word.split()) != 1:
            raise InputError(f"lexicon words must be single tokens, got {word!r}")
        rng = _tagged_rng(self.spec.seed, "token", word)
        return rng.standard_normal(self.spec.dim_token).astype(DEFAULT_DTYPE)

