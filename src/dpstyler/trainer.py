"""One-stage training loop over text prompts, plus checkpoint persistence.

Each epoch: draw that epoch's style bank, encode its K style prompts (the
domain probe), then run SGD with momentum over shuffled batches of the
M*K (class, style) prompts, updating only the removal gate and the
classifier head.  The encoder is frozen, so each batch's prompts are
encoded by one backend call when the batch is reached: every pair is
encoded exactly once per epoch, and no (M, K, C) feature grid is held.

A full run is a deterministic function of (task, backend seed, config),
with ``config.seed`` seeding every draw, the style bank's too, and the
checkpoint round-trips bit-exactly through the binary format documented
at ``save_checkpoint``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .backends import EncoderBackend, check_rows, unusable_row
from .core import (
    DEFAULT_DTYPE,
    DegenerateEmbeddingError,
    PromptTemplate,
    Stream,
    TaskDefinition,
    atomic_write,
    l2_normalize,
    row_norms,
    seeded_rng,
    template_id,
)
from .losses import ArcFaceConfig, ClassifierHead, head_init, loss_gradients
from .remover import StyleRemoverParams, remover_forward_cached, remover_init, remover_weight_grads
from .styles import StyleGenConfig, refresh_bank

CHECKPOINT_MAGIC = b"DPSTYLR1"
CHECKPOINT_VERSION = 2


class TrainingDivergedError(RuntimeError):
    """Raised when a loss, feature or weight turns non-finite, or a style or
    training prompt encodes to a zero or non-finite row; carries (epoch, batch or None)."""

    def __init__(self, epoch: int, batch: int | None, what: str):
        where = f"epoch {epoch}" if batch is None else f"epoch {epoch}, batch {batch}"
        super().__init__(f"{what} at {where}")
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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def num_styles(self) -> int:
        return self.style_gen.num_styles


@dataclass
class Checkpoint:
    """One trained (remover, head) pair with its provenance.

    Built by training, in code or by ``load_checkpoint``, it raises
    ``ValueError`` unless the gate has a hidden unit, the arrays have the
    ``_layout`` shapes of (dim_joint, ratio, class count), every weight is
    finite and every head row norm is nonzero and finite in float32.  It
    keeps those norms, read-only, as ``head_row_norms`` for scoring: do
    not write to ``head.weights`` in place after construction.
    """

    remover: StyleRemoverParams
    head: ClassifierHead
    template_pattern: str
    class_names: tuple[str, ...]
    dim_token: int
    backend_tag: str
    seed: int
    config_snapshot: dict = field(default_factory=dict)
    head_row_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        self.class_names = tuple(self.class_names)
        C, ratio, M = self.dim_joint, self.remover.ratio, len(self.class_names)
        if not 1 <= ratio <= C:
            raise ValueError(f"ratio {ratio} exceeds dim_joint {C} or is below 1: "
                             "the gate has no hidden unit")
        arrays = (self.remover.W1, self.remover.W2, self.head.weights)
        for (name, shape), arr in zip(_layout(C, ratio, M), arrays):
            if arr.shape != shape:
                raise ValueError(f"array {name!r} has shape {arr.shape}, expected {shape} "
                                 f"for C={C}, r={ratio}, M={M}")
            if not np.isfinite(arr).all():
                raise ValueError(f"array {name!r} holds NaN or inf")
        # Finite rows near the float32 limit overflow their norm.
        with np.errstate(over="ignore"):
            norms = row_norms(self.head.weights)
        if not np.isfinite(norms).all():
            raise ValueError("head row norm overflows float32")
        norms.flags.writeable = False
        self.head_row_norms = norms

    @property
    def dim_joint(self) -> int:
        return self.remover.dim

    @property
    def template_id(self) -> str:
        return template_id(self.template_pattern)


@dataclass
class EpochMetrics:
    epoch: int
    loss_uncertainty: float
    loss_classification: float
    wall_time_s: float

    @property
    def loss_total(self) -> float:
        return self.loss_uncertainty + self.loss_classification

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


def build_prompt_set(task: TaskDefinition, num_styles: int, seed: int, epoch: int) -> np.ndarray:
    """Full (class m, style i) cross product as flat ``m*K + i`` indices, shuffled per epoch."""
    return seeded_rng(seed, Stream.SHUFFLE, epoch).permutation(task.num_classes * num_styles)


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


def encode_probe(backend: EncoderBackend, styles: np.ndarray, epoch: int) -> np.ndarray:
    """The domain probe: the (K, D) style bank's style prompts encoded, as (K, C) float32
    unit rows.  A row of another shape is a ``ValueError``, and a non-finite or zero row
    a ``TrainingDivergedError`` at ``epoch``."""
    rows = backend.encode_style_prompts(styles)
    bad = unusable_row("encode_style_prompts", rows, (len(styles), backend.dim_joint))
    if bad is not None:
        raise TrainingDivergedError(epoch, None, "encode_style_prompts row %d is %s" % bad)
    return l2_normalize(rows.astype(DEFAULT_DTYPE, copy=False))


def train_one_model(
    task: TaskDefinition,
    backend: EncoderBackend,
    template: PromptTemplate,
    config: TrainConfig,
    lexicon: np.ndarray | None = None,
    backend_tag: str = "toy",
    config_snapshot: dict | None = None,
) -> TrainResult:
    """Train remover + head for one prompt template; returns the checkpoint.

    ``lexicon``, the (L, D) array ``RunConfig.build_lexicon`` reads, is the only word
    list the run mixes: None means none, and a lexicon strategy is refused at epoch 0.
    """
    C, D, K = backend.dim_joint, backend.dim_token, config.num_styles
    remover = remover_init(C, config.ratio, seeded_rng(config.seed, Stream.REMOVER_INIT))
    head = head_init(task.num_classes, C, seeded_rng(config.seed, Stream.HEAD_INIT))
    vel_w1 = np.zeros_like(remover.W1)
    vel_w2 = np.zeros_like(remover.W2)
    vel_head = np.zeros_like(head.weights)

    metrics: list[EpochMetrics] = []

    for epoch in range(config.epochs):
        start = time.perf_counter()
        styles = refresh_bank(config.style_gen, D, config.seed, epoch, lexicon)
        probe = encode_probe(backend, styles, epoch)
        flat = build_prompt_set(task, K, config.seed, epoch)

        sum_u = sum_c = 0.0
        n_samples = len(flat)
        for batch_idx, start_idx in enumerate(range(0, n_samples, config.batch_size)):
            index = flat[start_idx : start_idx + config.batch_size]
            # Raw encoder scale: the losses are cosine-based and normalize
            # internally, while the gate sees the encoder's native magnitudes.
            v = backend.encode_prompt_rows(template.pattern, task.class_names, styles, index)
            check_rows("encode_prompt_rows", v, (len(index), C))
            y = index // K
            removed, cache = remover_forward_cached(v, remover)
            try:
                if not np.all(np.isfinite(removed)):
                    raise TrainingDivergedError(epoch, batch_idx, "non-finite gate output")
                breakdown = loss_gradients(removed, probe, head, y, config.arcface)
            except (TrainingDivergedError, DegenerateEmbeddingError):
                # Only a failing batch is searched for an encoder row at fault: an eager
                # check would add a (B, C) norm and its temporary to every clean batch.
                # A zero prompt row still fails here, since R(0) = 0 and loss_gradients
                # refuses a zero feature row.
                bad = unusable_row("encode_prompt_rows", v, (len(index), C))
                if bad is None:
                    raise
                row, kind = bad
                m, i = divmod(int(index[row]), K)
                pair = f"class {task.class_names[m]!r}, style {i}"
                raise TrainingDivergedError(epoch, batch_idx, f"encode_prompt_rows row {row} "
                                            f"is {kind} ({pair})") from None
            loss_u, loss_c = breakdown.loss_uncertainty, breakdown.loss_classification
            if not (np.isfinite(loss_u) and np.isfinite(loss_c)):
                raise TrainingDivergedError(epoch, batch_idx,
                                            f"non-finite loss: L_U={loss_u}, L_C={loss_c}")
            _, d_w1, d_w2 = remover_weight_grads(cache, remover, breakdown.d_features)
            for param, grad, vel in (
                (remover.W1, d_w1, vel_w1), (remover.W2, d_w2, vel_w2),
                (head.weights, breakdown.d_head, vel_head),
            ):
                sgd_step(param, grad, config.learning_rate, config.momentum, vel)
            sum_u += loss_u * len(y)
            sum_c += loss_c * len(y)

        metrics.append(EpochMetrics(epoch=epoch, loss_uncertainty=sum_u / n_samples,
                                    loss_classification=sum_c / n_samples,
                                    wall_time_s=time.perf_counter() - start))

    try:  # no per-batch check sees the weights the last SGD step leaves
        checkpoint = Checkpoint(
            remover=remover, head=head, template_pattern=template.pattern,
            class_names=task.class_names, dim_token=D, backend_tag=backend_tag,
            seed=config.seed, config_snapshot=config_snapshot or {},
        )
    except ValueError as exc:
        raise TrainingDivergedError(config.epochs - 1, None, f"non-finite weights ({exc})") from exc
    return TrainResult(checkpoint=checkpoint, metrics=metrics)


# Every checkpoint header key and its exact JSON type.  The keys named like a
# ``Checkpoint`` attribute carry it, and ``_FIELDS`` build one.
_HEADER = {
    "format_version": int, "dim_joint": int, "dim_token": int, "ratio": int,
    "template_pattern": str, "class_names": list, "backend_tag": str, "seed": int,
    "config": dict,
}
_FIELDS = [f.name for f in fields(Checkpoint) if f.name in _HEADER]


def _layout(dim_joint: int, ratio: int, num_classes: int) -> list[tuple[str, tuple[int, int]]]:
    """The body's arrays in order: W1 (C, C//r), W2 (C//r, C), head (M, C)."""
    hidden = dim_joint // ratio
    return [("W1", (dim_joint, hidden)), ("W2", (hidden, dim_joint)),
            ("head", (num_classes, dim_joint))]


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write the binary checkpoint format.

    Layout: 8-byte magic ``DPSTYLR1``; 4-byte little-endian header
    length; a UTF-8 JSON header with exactly the keys and types of
    ``_HEADER``; then the raw float32 little-endian arrays W1, W2, head
    of ``_layout(dim_joint, ratio, len(class_names))``, back to back.
    The header stores no offsets, shapes or class count: the dims fix
    them, and the ``Checkpoint`` constructor has checked the arrays
    against them.
    """
    arrays = [np.ascontiguousarray(a, dtype="<f4") for a in
              (checkpoint.remover.W1, checkpoint.remover.W2, checkpoint.head.weights)]
    header = {key: getattr(checkpoint, key) for key in _HEADER if hasattr(checkpoint, key)}
    header.update(format_version=CHECKPOINT_VERSION, ratio=checkpoint.remover.ratio,
                  config=checkpoint.config_snapshot)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for arr in arrays:  # through the buffer protocol, so the body is not copied
            fh.write(arr)


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint written by ``save_checkpoint``.

    Raises ``CheckpointError`` unless the header holds every ``_HEADER``
    key with its exact type, positive dims and a non-empty list of class
    names; the body is exactly the ``_layout`` those dims give, with no
    trailing bytes; and the ``Checkpoint`` constructor accepts the model.
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
        layout = _layout(header["dim_joint"], header["ratio"], len(header["class_names"]))
        # Before any allocation, since the dims come from the file.
        body_len = sum(4 * math.prod(shape) for _, shape in layout)
        if size - body_start != body_len:
            raise CheckpointError(f"{path}: body is {size - body_start} bytes, not {body_len}")
        arrays = [np.empty(shape, dtype="<f4") for _, shape in layout]
        for (name, _), values in zip(layout, arrays):
            if fh.readinto(values) != values.nbytes:
                raise CheckpointError(f"{path}: array {name!r} is truncated")

    W1, W2, head_w = arrays
    try:
        return Checkpoint(
            remover=StyleRemoverParams(W1=W1, W2=W2, ratio=header["ratio"]),
            head=ClassifierHead(weights=head_w),
            config_snapshot=header["config"],
            **{key: header[key] for key in _FIELDS},
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


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

    for key in ("dim_joint", "dim_token", "ratio"):
        if header[key] < 1:
            raise CheckpointError(f"{path}: header {key!r} is {header[key]}, not positive")
    names = header["class_names"]
    if not names or not all(type(name) is str for name in names):
        raise CheckpointError(f"{path}: header 'class_names' is not a non-empty list of strings")
    return header
