"""Inference and evaluation: transplant heads to images, fuse, report.

A trained (remover, classifier) pair is applied to L2-normalized image
features.  One model is trained per prompt template; an ensemble fuses
their per-class cosine scores either by taking the global maximum over
all members' scores or by averaging per class.  Zero-shot baselines
score images directly against class-name prompts.

Evaluation walks a dataset manifest (directory layout root/domain/class/
file, or a CSV with path,domain,class columns) and reports per-domain
top-1 accuracy plus the across-domain mean.  Records that fail to decode
or encode to a zero or non-finite row are counted and excluded; only a
manifest in which no record is kept aborts.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .backends import EncoderBackend, ImageDecodeError, checked_norms, unusable_row, usable
from .core import InputError, TaskDefinition, atomic_write, l2_normalize
from .remover import remover_forward
from .trainer import Checkpoint

ZEROSHOT_PATTERNS = {"C": "[class]", "PC": "a photo of a [class]"}

FUSION_MODES = ("max", "average")

# Records per encode_images call in an evaluation or export pass; bounds its memory.
_CHUNK = 64


@dataclass(frozen=True)
class EnsembleBundle:
    """N trained models that agree on the joint dimension and the class names."""

    members: tuple[Checkpoint, ...]
    fusion: str = "max"

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if len(members) < 1:
            raise ValueError("ensemble needs at least one member")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"unknown fusion mode {self.fusion!r}")
        first = members[0]
        for ckpt in members[1:]:
            if ckpt.dim_joint != first.dim_joint:
                raise ValueError("ensemble members disagree on joint dimension")
            if ckpt.class_names != first.class_names:
                raise ValueError("ensemble members disagree on class names")


def _gated(embeddings: np.ndarray, member: Checkpoint) -> np.ndarray:
    """``member``'s gate applied to embeddings; ``InputError`` naming its template if
    an output is not finite, as finite weights near the float32 limit can make it."""
    with np.errstate(over="ignore", invalid="ignore"):
        removed = remover_forward(embeddings, member.remover)
    if not np.isfinite(removed).all():
        raise InputError(f"the gate of the checkpoint for {member.template_pattern!r} "
                         "gives a non-finite output")
    return removed


def predict_scores(image_embedding: np.ndarray, member: Checkpoint) -> np.ndarray:
    """Per-class cosine scores of one model for one raw image embedding; an
    ``InputError`` if the model's gate output is not finite.

    No margin and no scale are applied: the margin is a training-time
    penalty only, and a positive scale cannot change the argmax.
    """
    emb = np.asarray(image_embedding)
    if emb.shape != (member.dim_joint,):
        raise ValueError(f"embedding shape {emb.shape} != (C={member.dim_joint},)")
    rn = l2_normalize(_gated(emb, member))
    # The head-row norms the member kept at construction scale the (M,)
    # result; no unit-row (M, C) head is built.
    return (member.head.weights @ rn) / member.head_row_norms


def ensemble_predict(image_embedding: np.ndarray, bundle: EnsembleBundle) -> int:
    """Fused class prediction; ties go to the lowest class."""
    scores = np.stack([predict_scores(image_embedding, m) for m in bundle.members])
    fused = scores.mean(axis=0) if bundle.fusion == "average" else scores.max(axis=0)
    return int(np.argmax(fused))


def zeroshot_predictor(backend: EncoderBackend, task: TaskDefinition, prompt_style: str = "PC"):
    """Classifier by cosine against class-name prompts ('C' or 'PC' pattern).

    The M class prompts are encoded, checked and normalized once, here;
    the returned ``predict(image_embedding) -> int`` only scores.
    """
    if prompt_style not in ZEROSHOT_PATTERNS:
        raise ValueError(f"prompt_style must be one of {sorted(ZEROSHOT_PATTERNS)}")
    M = task.num_classes
    text = backend.encode_prompt_rows(ZEROSHOT_PATTERNS[prompt_style], task.class_names,
                                      None, np.arange(M))
    bad = unusable_row("encode_prompt_rows", text, (M, backend.dim_joint))
    if bad is not None:
        row, kind = bad
        raise InputError(f"encode_prompt_rows returned a {kind} class-prompt row: "
                         f"row {row} ({task.class_names[row]!r})")
    text = l2_normalize(text)
    return lambda image_embedding: int(np.argmax(text @ l2_normalize(np.asarray(image_embedding))))


def zeroshot_predict(
    image_embedding: np.ndarray,
    backend: EncoderBackend,
    task: TaskDefinition,
    prompt_style: str = "PC",
) -> int:
    """``zeroshot_predictor``'s class for one embedding; a pass builds the predictor once."""
    return zeroshot_predictor(backend, task, prompt_style)(image_embedding)


@dataclass(frozen=True)
class DatasetManifest:
    """Resolved (path, domain, class-name) rows, sorted: the order evaluation walks."""

    entries: tuple[tuple[str, str, str], ...]  # (path, domain, class_name)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        if not self.entries:
            raise ValueError("manifest is empty")


def _manifest(source, entries: list) -> DatasetManifest:
    """``entries`` as a manifest; none is refused naming ``source``, the file or tree read."""
    if not entries:
        raise InputError(f"{source}: manifest is empty")
    return DatasetManifest(entries=tuple(entries))


def _subdirectories(path) -> list[os.DirEntry]:
    """Entries of ``path`` that are directories (symlinks followed)."""
    with os.scandir(path) as it:
        return [e for e in it if e.is_dir()]


def manifest_from_directory(root) -> DatasetManifest:
    """Discover root/domain/class/image-file."""
    entries = []
    for domain in _subdirectories(os.fspath(root)):
        for cls in _subdirectories(domain.path):
            for name in os.listdir(cls.path):
                entries.append((os.path.join(cls.path, name), domain.name, cls.name))
    return _manifest(root, entries)


def manifest_from_csv(path) -> DatasetManifest:
    """Load a delimited manifest: header 'path,domain,class', one row per image.

    Relative paths resolve against the manifest file's directory.
    """
    base = os.path.dirname(os.path.abspath(os.fspath(path)))
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["path", "domain", "class"]:
                raise InputError(f"{path}: manifest header must be 'path,domain,class'")
            for row in reader:
                if not row:
                    continue
                if len(row) != 3:
                    raise InputError(f"{path}: malformed manifest row {row!r}")
                p, domain, cls = (c.strip() for c in row)
                if not os.path.isabs(p):
                    p = os.path.join(base, p)
                entries.append((p, domain, cls))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise InputError(f"{path}: unreadable manifest at line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # decoded a block at a time, so no line number
            raise InputError(f"{path}: {exc}") from exc
    return _manifest(path, entries)


def load_manifest(path_or_root) -> DatasetManifest:
    p = os.fspath(path_or_root)
    if os.path.isdir(p):
        return manifest_from_directory(p)
    return manifest_from_csv(p)


@dataclass
class EvalReport:
    per_domain_counts: dict[str, tuple[int, int]]  # (correct, total scored)
    decode_errors: int
    config_fingerprint: str = ""
    seed: int | None = None
    predictor: str = ""

    @property
    def per_domain_accuracy(self) -> dict[str, float]:  # percent
        return {d: 100.0 * c / n for d, (c, n) in self.per_domain_counts.items()}

    @property
    def average_accuracy(self) -> float:
        return float(np.mean(list(self.per_domain_accuracy.values())))

    def to_dict(self) -> dict:
        return {
            "predictor": self.predictor,
            "per_domain_accuracy": {k: round(v, 4) for k, v in self.per_domain_accuracy.items()},
            "per_domain_counts": {k: list(v) for k, v in self.per_domain_counts.items()},
            "average_accuracy": round(self.average_accuracy, 4),
            "decode_errors": self.decode_errors,
            "config_fingerprint": self.config_fingerprint,
            "seed": self.seed,
        }

    def table(self) -> str:
        accuracy = self.per_domain_accuracy
        width = max(len("domain"), *(len(d) for d in accuracy))
        lines = [f"{'domain':<{width}}  top-1 (%)  correct/total"]
        for domain in sorted(accuracy):
            correct, total = self.per_domain_counts[domain]
            lines.append(f"{domain:<{width}}  {accuracy[domain]:9.2f}  {correct}/{total}")
        lines.append(f"{'average':<{width}}  {self.average_accuracy:9.2f}")
        if self.decode_errors:
            lines.append(f"decode errors: {self.decode_errors}")
        return "\n".join(lines)


def _encoded_chunks(manifest: DatasetManifest, backend: EncoderBackend):
    """Per chunk of the entries: (kept entries, their (n, C) embeddings, failures).

    An entry fails if it does not decode or its embedding has a zero or
    non-finite norm.  Raises ``InputError`` after the last chunk if none was kept.
    """
    entries, decoded = manifest.entries, 0
    for start in range(0, len(entries), _CHUNK):
        chunk, kept, images = entries[start : start + _CHUNK], [], []
        for entry in chunk:
            try:
                images.append(backend.load_image(entry[0]))
            except (ImageDecodeError, OSError):
                continue
            kept.append(entry)
        embeddings = backend.encode_images(images)
        good = usable(checked_norms("encode_images", embeddings, (len(kept), backend.dim_joint)))
        kept, embeddings = [e for e, g in zip(kept, good) if g], embeddings[good]
        decoded += len(kept)
        yield kept, embeddings, len(chunk) - len(kept)
    if not decoded:
        raise InputError("no image in the manifest could be decoded")


def evaluate(
    manifest: DatasetManifest,
    backend: EncoderBackend,
    task: TaskDefinition,
    predict_fn,
    config_fingerprint: str = "",
    seed: int | None = None,
    predictor_name: str = "",
) -> EvalReport:
    """Per-domain top-1 accuracy of ``predict_fn(raw_embedding)``.

    Iteration order is the manifest's sorted order; the records that
    ``_encoded_chunks`` drops are decode errors, excluded from the accuracy.
    Embeddings are passed at encoder scale; predictors normalize where
    their scoring requires it.
    """
    class_index = {name: i for i, name in enumerate(task.class_names)}
    unknown = {cls for _, _, cls in manifest.entries} - class_index.keys()
    if unknown:
        raise InputError(f"manifest labels not in task: {sorted(unknown)}")
    correct: dict[str, int] = {}
    total: dict[str, int] = {}
    errors = 0
    for kept, embeddings, failed in _encoded_chunks(manifest, backend):
        errors += failed
        for (_, domain, cls), embedding in zip(kept, embeddings):
            total[domain] = total.get(domain, 0) + 1
            if predict_fn(embedding) == class_index[cls]:
                correct[domain] = correct.get(domain, 0) + 1
    return EvalReport(
        per_domain_counts={d: (correct.get(d, 0), total[d]) for d in total},
        decode_errors=errors,
        config_fingerprint=config_fingerprint,
        seed=seed,
        predictor=predictor_name,
    )


def export_embeddings(
    manifest: DatasetManifest,
    backend: EncoderBackend,
    checkpoint: Checkpoint | None,
    path,
) -> tuple[int, int]:
    """Write per-image raw (and optionally removed) embeddings as CSV.

    Returns (rows written, failures); a record that ``_encoded_chunks``
    drops is skipped, and a non-finite gate output is an ``InputError``.
    Floats use 9 significant digits.
    """
    C = backend.dim_joint
    columns = ["path", "domain", "class"] + [f"raw_{i}" for i in range(C)]
    if checkpoint is not None:
        columns += [f"removed_{i}" for i in range(C)]
    rows = failures = 0
    try:
        with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for kept, emb, failed in _encoded_chunks(manifest, backend):
                if checkpoint is not None:  # one gate call per chunk
                    emb = np.hstack([emb, _gated(emb, checkpoint)])
                for entry, values in zip(kept, emb):
                    writer.writerow([*entry, *(f"{x:.9g}" for x in values)])
                rows += len(kept)
                failures += failed
    except OSError as exc:
        raise OSError(f"failed writing embeddings to {path}: {exc}") from exc
    return rows, failures
