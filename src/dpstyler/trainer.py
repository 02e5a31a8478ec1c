"""One-stage training loop over text prompts, plus checkpoint persistence.

Each epoch: refresh the style bank, re-encode the K style prompts (the
domain probe), then run SGD with momentum over shuffled batches of the
M*K (class, style) prompts, updating only the removal gate and the
classifier head.  The encoder is frozen, so each batch's prompts are
encoded by one backend call when the batch is reached: every pair is
encoded exactly once per epoch, and no (M, K, C) feature grid is held.

A full run is a deterministic function of (task, backend seed, config),
and the resulting checkpoint round-trips bit-exactly through the binary
format documented at ``save_checkpoint``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .backends import EncoderBackend
from .core import (
    DEFAULT_DTYPE,
    ZERO_NORM_EPS,
    DegenerateEmbeddingError,
    PromptTemplate,
    TaskDefinition,
    atomic_write,
)
from .losses import ArcFaceConfig, ClassifierHead, DomainProbe, head_init, loss_gradients
from .remover import StyleRemoverParams, remover_forward_cached, remover_init, remover_weight_grads
from .styles import (
    PredefinedLexicon,
    StyleBank,
    StyleGenConfig,
    initial_bank,
    load_lexicon,
    refresh_bank,
)

CHECKPOINT_MAGIC = b"DPSTYLR1"
CHECKPOINT_VERSION = 1

# RNG stream tags under the master seed.
_STREAM_REMOVER_INIT = 10
_STREAM_HEAD_INIT = 11
_STREAM_SHUFFLE = 12


class TrainingDivergedError(RuntimeError):
    """Raised when a loss turns non-finite; carries (epoch, batch, parts)."""

    def __init__(self, epoch: int, batch: int, loss_u: float, loss_c: float):
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch}: "
            f"L_U={loss_u}, L_C={loss_c}"
        )
        self.epoch = epoch
        self.batch = batch


class CheckpointError(ValueError):
    """Raised for unreadable, truncated, or inconsistent checkpoint files."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 0.008
    momentum: float = 0.9
    batch_size: int = 128
    ratio: int = 16
    style_gen: StyleGenConfig = field(default_factory=StyleGenConfig)
    arcface: ArcFaceConfig = field(default_factory=ArcFaceConfig)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.ratio < 1:
            raise ValueError("ratio must be >= 1")

    @property
    def num_styles(self) -> int:
        return self.style_gen.num_styles


@dataclass
class Checkpoint:
    """One trained (remover, head) pair with its provenance.

    The head is frozen once the checkpoint is scored: ``head_row_norms``
    is computed at first use and kept, so do not write to
    ``head.weights`` in place after that.
    """

    remover: StyleRemoverParams
    head: ClassifierHead
    template_id: str
    template_pattern: str
    class_names: tuple[str, ...]
    dim_joint: int
    dim_token: int
    backend_tag: str
    seed: int
    config_snapshot: dict = field(default_factory=dict)

    def __post_init__(self):
        self.class_names = tuple(self.class_names)

    @functools.cached_property
    def head_row_norms(self) -> np.ndarray:
        """(M,) Euclidean norms of the head rows, read-only.

        Raises ``DegenerateEmbeddingError`` for a zero row, which
        ``predict_scores`` would divide by.
        """
        W = self.head.weights
        norms = np.sqrt(np.einsum("mc,mc->m", W, W))
        if np.any(norms < ZERO_NORM_EPS):
            raise DegenerateEmbeddingError("head rows must be nonzero")
        norms.flags.writeable = False
        return norms


@dataclass
class EpochMetrics:
    epoch: int
    loss_uncertainty: float
    loss_classification: float
    loss_total: float
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "loss_uncertainty": round(self.loss_uncertainty, 6),
                "loss_classification": round(self.loss_classification, 6),
                "loss_total": round(self.loss_total, 6),
                "wall_time_s": round(self.wall_time_s, 4),
            }
        )


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    metrics: list[EpochMetrics]
    final_bank: StyleBank


def build_prompt_set(task: TaskDefinition, bank: StyleBank, seed: int, epoch: int) -> np.ndarray:
    """Full (class m, style i) cross product as flat ``m*K + i`` indices, shuffled per epoch."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SHUFFLE, epoch]))
    return rng.permutation(task.num_classes * bank.num_styles)


def sgd_step(
    param: np.ndarray,
    grad: np.ndarray,
    learning_rate: float,
    momentum: float,
    velocity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical momentum, in place: v <- mu*v - lr*g; p <- p + v.  Returns (p, v)."""
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ValueError("param, grad, and velocity shapes must match")
    velocity *= momentum
    velocity -= learning_rate * grad
    param += velocity
    return param, velocity


def encode_probe(backend: EncoderBackend, bank: StyleBank) -> DomainProbe:
    rows = backend.encode_style_prompts(bank.styles).astype(DEFAULT_DTYPE, copy=False)
    return DomainProbe(style_text_features=rows)


def train_one_model(
    task: TaskDefinition,
    backend: EncoderBackend,
    template: PromptTemplate,
    config: TrainConfig,
    lexicon: PredefinedLexicon | None = None,
    backend_tag: str = "toy",
    config_snapshot: dict | None = None,
) -> TrainResult:
    """Train remover + head for one prompt template; returns the checkpoint."""
    C, D = backend.dim_joint, backend.dim_token
    if config.style_gen.strategy in ("stylemix", "random_mix") and lexicon is None:
        lexicon = load_lexicon(backend)
    remover = remover_init(
        C,
        config.ratio,
        np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_REMOVER_INIT])),
    )
    head = head_init(
        task.num_classes,
        C,
        np.random.default_rng(np.random.SeedSequence([config.seed, _STREAM_HEAD_INIT])),
    )
    vel_w1 = np.zeros_like(remover.W1)
    vel_w2 = np.zeros_like(remover.W2)
    vel_head = np.zeros_like(head.weights)

    bank = initial_bank(config.style_gen, D, lexicon)
    metrics: list[EpochMetrics] = []

    for epoch in range(config.epochs):
        start = time.perf_counter()
        bank = refresh_bank(bank, config.style_gen, epoch, lexicon)
        probe = encode_probe(backend, bank)
        flat = build_prompt_set(task, bank, config.seed, epoch)

        sum_u = sum_c = 0.0
        n_samples = len(flat)
        for batch_idx, start_idx in enumerate(range(0, n_samples, config.batch_size)):
            index = flat[start_idx : start_idx + config.batch_size]
            # Raw encoder scale: the losses are cosine-based and normalize
            # internally, while the gate sees the encoder's native magnitudes.
            v = backend.encode_prompt_rows(template.pattern, task.class_names, bank.styles, index)
            if v.shape != (len(index), C):
                raise ValueError(
                    f"encode_prompt_rows returned shape {v.shape}, expected {(len(index), C)}"
                )
            y = index // bank.num_styles
            removed, cache = remover_forward_cached(v, remover)
            if not np.all(np.isfinite(removed)):
                raise TrainingDivergedError(epoch, batch_idx, float("nan"), float("nan"))
            breakdown = loss_gradients(removed, probe, head, y, config.arcface)
            if not (
                np.isfinite(breakdown.loss_uncertainty)
                and np.isfinite(breakdown.loss_classification)
            ):
                raise TrainingDivergedError(
                    epoch, batch_idx, breakdown.loss_uncertainty, breakdown.loss_classification
                )
            _, d_w1, d_w2 = remover_weight_grads(cache, remover, breakdown.d_features)
            for param, grad, vel in (
                (remover.W1, d_w1, vel_w1), (remover.W2, d_w2, vel_w2),
                (head.weights, breakdown.d_head, vel_head),
            ):
                sgd_step(param, grad, config.learning_rate, config.momentum, vel)
            weight = len(y)
            sum_u += breakdown.loss_uncertainty * weight
            sum_c += breakdown.loss_classification * weight

        mean_u, mean_c = sum_u / n_samples, sum_c / n_samples
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                loss_uncertainty=mean_u,
                loss_classification=mean_c,
                loss_total=mean_u + mean_c,
                wall_time_s=time.perf_counter() - start,
            )
        )

    checkpoint = Checkpoint(
        remover=remover,
        head=head,
        template_id=template.id,
        template_pattern=template.pattern,
        class_names=task.class_names,
        dim_joint=C,
        dim_token=D,
        backend_tag=backend_tag,
        seed=config.seed,
        config_snapshot=config_snapshot or {},
    )
    return TrainResult(checkpoint=checkpoint, metrics=metrics, final_bank=bank)


# Every checkpoint header key and its exact JSON type.  The keys named
# like a ``Checkpoint`` field carry that field; "arrays" is ``_layout``.
_HEADER = {
    "format_version": int, "dim_joint": int, "dim_token": int, "ratio": int,
    "num_classes": int, "template_id": str, "template_pattern": str, "class_names": list,
    "backend_tag": str, "seed": int, "config": dict, "arrays": list,
}
_FIELDS = [f.name for f in fields(Checkpoint) if f.name in _HEADER]


def _layout(dim_joint: int, ratio: int, num_classes: int) -> list[dict]:
    """Array manifest for these dims: W1 (C, C//r), W2 (C//r, C), head (M, C), back to back."""
    hidden, layout, offset = dim_joint // ratio, [], 0
    for name, shape in (("W1", [dim_joint, hidden]), ("W2", [hidden, dim_joint]),
                        ("head", [num_classes, dim_joint])):
        layout.append({"name": name, "shape": shape, "offset": offset})
        offset += 4 * math.prod(shape)
    return layout


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write the binary checkpoint format.

    Layout: 8-byte magic ``DPSTYLR1``; 4-byte little-endian header
    length; a UTF-8 JSON header with exactly the keys and types of
    ``_HEADER``, whose ``arrays`` value is the manifest
    ``_layout(dim_joint, ratio, num_classes)``; then the raw float32
    little-endian arrays W1, W2, head at the manifest's offsets, which
    are relative to the end of the header.  ``load_checkpoint`` requires
    every ``_HEADER`` key with its type, and accepts no other manifest
    and no trailing bytes; an array whose shape disagrees raises
    ``ValueError`` before the file is opened.
    """
    C, ratio = checkpoint.dim_joint, checkpoint.remover.ratio
    layout = _layout(C, ratio, checkpoint.head.num_classes)
    arrays = [np.ascontiguousarray(a, dtype="<f4") for a in
              (checkpoint.remover.W1, checkpoint.remover.W2, checkpoint.head.weights)]
    for entry, arr in zip(layout, arrays):
        if list(arr.shape) != entry["shape"]:
            raise ValueError(f"array {entry['name']!r} has shape {arr.shape}, expected "
                             f"{tuple(entry['shape'])} for C={C}, r={ratio}")
    header = {key: getattr(checkpoint, key) for key in _FIELDS}
    header.update(format_version=CHECKPOINT_VERSION, ratio=ratio, arrays=layout,
                  num_classes=checkpoint.head.num_classes, config=checkpoint.config_snapshot)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for arr in arrays:
            fh.write(arr.tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint written by ``save_checkpoint``.

    Each array is read from the file straight into its own aligned,
    writable float32 array, with no intermediate copy of the body.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(CHECKPOINT_MAGIC) + 4)
        if len(prefix) < len(CHECKPOINT_MAGIC) + 4:
            raise CheckpointError(f"{path}: truncated file")
        if prefix[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        (header_len,) = struct.unpack_from("<I", prefix, len(CHECKPOINT_MAGIC))
        body_start = len(prefix) + header_len
        if size < body_start:
            raise CheckpointError(f"{path}: truncated header")
        header = _read_header(path, fh.read(header_len))
        C, ratio, M = header["dim_joint"], header["ratio"], header["num_classes"]
        layout = _layout(C, ratio, M)
        # Compared as JSON text, so an offset of 0.0 or false is not the 0 written.
        if json.dumps(header["arrays"], sort_keys=True) != json.dumps(layout, sort_keys=True):
            raise CheckpointError(f"{path}: array manifest does not match C={C}, r={ratio}, M={M}")
        if len(header["class_names"]) != M:
            raise CheckpointError(f"{path}: class-name count != num_classes")
        # Before any allocation, since the dims come from the file.
        body_len = layout[-1]["offset"] + 4 * math.prod(layout[-1]["shape"])
        if size - body_start != body_len:
            raise CheckpointError(f"{path}: body is {size - body_start} bytes, not {body_len}")
        arrays = [np.empty(entry["shape"], dtype="<f4") for entry in layout]
        for entry, values in zip(layout, arrays):
            if fh.readinto(values) != values.nbytes:
                raise CheckpointError(f"{path}: array {entry['name']!r} is truncated")
            if not np.isfinite(values).all():
                raise CheckpointError(f"{path}: array {entry['name']!r} holds NaN or inf")

    W1, W2, head_w = arrays
    checkpoint = Checkpoint(
        remover=StyleRemoverParams(W1=W1, W2=W2, ratio=ratio),
        head=ClassifierHead(weights=head_w),
        config_snapshot=header["config"],
        **{key: header[key] for key in _FIELDS},
    )
    # The scoring norms are computed here, once, and checked: finite rows
    # near the float32 limit overflow their norm.
    try:
        with np.errstate(over="ignore"):
            norms = checkpoint.head_row_norms
    except DegenerateEmbeddingError as exc:
        raise CheckpointError(f"{path}: head has a zero row") from exc
    if not np.isfinite(norms).all():
        raise CheckpointError(f"{path}: head row norm overflows float32")
    return checkpoint


def _read_header(path, blob: bytes) -> dict:
    """Decode and type-check the JSON header of a checkpoint."""
    # ValueError covers bad UTF-8, bad JSON and an integer beyond Python's
    # int-string digit limit.
    try:
        header = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version!r} (expected {CHECKPOINT_VERSION})"
        )
    missing = [key for key in _HEADER if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {missing}")
    for key, kind in _HEADER.items():
        if type(header[key]) is not kind:  # exact, so a bool is not an int
            raise CheckpointError(
                f"{path}: header {key!r} is a {type(header[key]).__name__}, not {kind.__name__}"
            )

    for key in ("dim_joint", "dim_token", "ratio", "num_classes"):
        if header[key] < 1:
            raise CheckpointError(f"{path}: header {key!r} is {header[key]}, not positive")
    if header["ratio"] > header["dim_joint"]:  # a zero-width gate, as remover_init refuses
        raise CheckpointError(f"{path}: ratio {header['ratio']} exceeds dim_joint "
                              f"{header['dim_joint']}")
    if not all(type(name) is str for name in header["class_names"]):
        raise CheckpointError(f"{path}: header 'class_names' is not a list of strings")
    return header
