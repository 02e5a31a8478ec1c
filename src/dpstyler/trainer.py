"""One-stage training loop over text prompts, plus checkpoint persistence.

Each epoch: refresh the style bank, re-encode the K style prompts (the
domain probe) and all M*K class-prompt features, then run SGD with
momentum over shuffled batches, updating only the removal gate and the
classifier head.  The encoder is frozen, so every (class, style) pair is
encoded exactly once per epoch, in one batched backend call, and cached.

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
from dataclasses import dataclass, field

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
# Header keys that ``load_checkpoint`` reads without a default.
_HEADER_FIELDS = (
    "arrays", "dim_joint", "dim_token", "ratio", "num_classes", "template_id",
    "template_pattern", "class_names", "backend_tag", "seed",
)

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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

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


def build_prompt_set(
    task: TaskDefinition, bank: StyleBank, seed: int, epoch: int
) -> list[tuple[int, int]]:
    """Full (class, style) cross product, shuffled with the epoch's RNG."""
    pairs = [(m, i) for m in range(task.num_classes) for i in range(bank.num_styles)]
    rng = np.random.default_rng(np.random.SeedSequence([seed, _STREAM_SHUFFLE, epoch]))
    return [pairs[j] for j in rng.permutation(len(pairs))]


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


def _encode_epoch_features(
    backend: EncoderBackend,
    task: TaskDefinition,
    bank: StyleBank,
    template: PromptTemplate,
) -> np.ndarray:
    """Every (class, style) prompt feature for one epoch, as (M, K, C).

    Features stay at their raw encoder scale: the losses are cosine-based
    and normalize internally, while the removal gate sees (and should see)
    the encoder's native magnitudes.
    """
    feats = backend.encode_prompts(template.pattern, task.class_names, bank.styles)
    expected = (task.num_classes, bank.num_styles, backend.dim_joint)
    if feats.shape != expected:
        raise ValueError(f"encode_prompts returned shape {feats.shape}, expected {expected}")
    return feats


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
        feats = _encode_epoch_features(backend, task, bank, template)

        order = np.array(build_prompt_set(task, bank, config.seed, epoch))
        targets_all = order[:, 0]
        flat = targets_all * bank.num_styles + order[:, 1]
        flat_feats = feats.reshape(-1, C)

        sum_u = sum_c = 0.0
        n_samples = len(order)
        for batch_idx, start_idx in enumerate(range(0, n_samples, config.batch_size)):
            v = flat_feats[flat[start_idx : start_idx + config.batch_size]]
            y = targets_all[start_idx : start_idx + config.batch_size]
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
        # Free this epoch's (M, K, C) features before the next epoch
        # encodes its own, so two never coexist.
        del feats, flat_feats

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


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write the binary checkpoint format.

    Layout: 8-byte magic ``DPSTYLR1``; 4-byte little-endian header
    length; UTF-8 JSON header (version, dims, ratio, template, class
    names, backend tag, seed, array manifest with shapes and offsets);
    then the raw float32 little-endian arrays W1, W2, head in manifest
    order.  Offsets are relative to the end of the header.
    """
    arrays = [
        ("W1", np.ascontiguousarray(checkpoint.remover.W1, dtype="<f4")),
        ("W2", np.ascontiguousarray(checkpoint.remover.W2, dtype="<f4")),
        ("head", np.ascontiguousarray(checkpoint.head.weights, dtype="<f4")),
    ]
    manifest = []
    offset = 0
    for name, arr in arrays:
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = {
        "format_version": CHECKPOINT_VERSION,
        "dim_joint": checkpoint.dim_joint,
        "dim_token": checkpoint.dim_token,
        "ratio": checkpoint.remover.ratio,
        "num_classes": checkpoint.head.num_classes,
        "template_id": checkpoint.template_id,
        "template_pattern": checkpoint.template_pattern,
        "class_names": list(checkpoint.class_names),
        "backend_tag": checkpoint.backend_tag,
        "seed": checkpoint.seed,
        "config": checkpoint.config_snapshot,
        "arrays": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in arrays:
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
        arrays = _read_arrays(path, fh, header["arrays"], size - body_start)

    C, ratio = header["dim_joint"], header["ratio"]
    hidden = C // ratio
    try:
        W1, W2, head_w = arrays["W1"], arrays["W2"], arrays["head"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing array {exc}") from exc
    if W1.shape != (C, hidden) or W2.shape != (hidden, C):
        raise CheckpointError(
            f"{path}: gate shapes {W1.shape}/{W2.shape} inconsistent with C={C}, r={ratio}"
        )
    if head_w.shape != (header["num_classes"], C):
        raise CheckpointError(f"{path}: head shape {head_w.shape} inconsistent")
    if len(header["class_names"]) != header["num_classes"]:
        raise CheckpointError(f"{path}: class-name count != num_classes")
    checkpoint = Checkpoint(
        remover=StyleRemoverParams(W1=W1, W2=W2, ratio=ratio),
        head=ClassifierHead(weights=head_w),
        template_id=header["template_id"],
        template_pattern=header["template_pattern"],
        class_names=tuple(header["class_names"]),
        dim_joint=C,
        dim_token=header["dim_token"],
        backend_tag=header["backend_tag"],
        seed=header["seed"],
        config_snapshot=header.get("config", {}),
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
    try:
        header = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    version = header.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version!r} (expected {CHECKPOINT_VERSION})"
        )
    missing = [key for key in _HEADER_FIELDS if key not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {missing}")

    for key in ("dim_joint", "dim_token", "ratio", "num_classes"):
        if type(header[key]) is not int or header[key] < 1:
            raise CheckpointError(f"{path}: header {key!r} is {header[key]!r}, not a positive int")
    for key in ("template_id", "template_pattern", "backend_tag"):
        if not isinstance(header[key], str):
            raise CheckpointError(f"{path}: header {key!r} is {header[key]!r}, not a string")
    if type(header["seed"]) is not int:
        raise CheckpointError(f"{path}: header 'seed' is {header['seed']!r}, not an int")
    names = header["class_names"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise CheckpointError(f"{path}: header 'class_names' is not a list of strings")
    if not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: header 'arrays' is not a list")
    return header


def _read_arrays(path, fh, manifest: list, body_len: int) -> dict[str, np.ndarray]:
    """Read the manifest's arrays from ``fh``, positioned at the start of the body."""
    arrays: dict[str, np.ndarray] = {}
    end = 0  # where the previous array ended; save_checkpoint packs them back to back
    for entry in manifest:
        try:
            name, offset, shape = entry["name"], entry["offset"], tuple(entry["shape"])
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed array entry {entry!r}") from exc
        if name not in ("W1", "W2", "head") or name in arrays:
            raise CheckpointError(f"{path}: unexpected or repeated array {name!r}")
        if any(type(n) is not int for n in (offset, *shape)):
            raise CheckpointError(f"{path}: malformed array entry {entry!r}")
        nbytes = math.prod(shape) * 4
        if offset < 0 or min(shape, default=0) < 0 or offset + nbytes > body_len:
            raise CheckpointError(
                f"{path}: array {name!r} (shape {shape}, offset {offset}) lies outside the body"
            )
        if offset != end:
            raise CheckpointError(f"{path}: array {name!r} starts at {offset}, not at {end}")
        end = offset + nbytes
        # The arrays are contiguous, so the file position is already at this one.
        values = np.empty(shape, dtype="<f4")
        if fh.readinto(values) != nbytes:
            raise CheckpointError(f"{path}: array {name!r} is truncated")
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: array {name!r} holds NaN or inf")
        arrays[name] = values
    return arrays
