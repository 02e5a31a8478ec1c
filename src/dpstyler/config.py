"""Run configuration: a single YAML document covering all commands.

All training hyperparameters default to the standard recipe (100
epochs, SGD lr 0.008 momentum 0.9, batch 128, K=80 styles, ArcFace
scale 5 margin 0.5, three prompt templates), so a minimal config only
names the backend and the task's class names:

.. code-block:: yaml

    backend:
      variant: toy
      dim_joint: 64
      dim_token: 32
    task:
      class_names: [dog, elephant, giraffe, guitar, horse]
    eval:
      manifest: path/to/data    # directory root or CSV manifest
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from .backends import EncoderBackend, ToyBackend, ToyBackendSpec
from .core import PromptTemplate, TaskDefinition
from .evaluation import FUSION_MODES
from .losses import ArcFaceConfig
from .styles import PredefinedLexicon, StyleGenConfig, load_lexicon
from .trainer import TrainConfig

DEFAULT_TEMPLATES = (
    "a [class] in a S* style",
    "a S* style of a [class]",
    "a photo of a [class] with S* like style",
)


class ConfigError(ValueError):
    """Raised for unreadable, invalid, or incomplete run configs."""


@dataclass
class RunConfig:
    backend_variant: str
    backend_spec: ToyBackendSpec
    task: TaskDefinition
    train: TrainConfig
    templates: tuple[PromptTemplate, ...]
    lexicon_path: str | None
    eval_manifest: str | None
    fusion: str
    output_dir: str
    raw: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        """Stable short hash of the merged config document."""
        blob = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:8]

    def build_backend(self) -> EncoderBackend:
        return ToyBackend(self.backend_spec, self.task.class_names)

    def build_lexicon(self, backend: EncoderBackend) -> PredefinedLexicon:
        return load_lexicon(backend, self.lexicon_path)


def _section(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return dict(value)


def load_run_config(path, seed_override: int | None = None, out_override: str | None = None,
                    fusion_override: str | None = None) -> RunConfig:
    """Parse and validate a YAML run config, applying CLI overrides."""
    import yaml

    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    backend_sec = _section(doc, "backend")
    task_sec = _section(doc, "task")
    train_sec = _section(doc, "train")
    styles_sec = _section(doc, "styles")
    eval_sec = _section(doc, "eval")

    try:
        seed = int(train_sec.get("seed", doc.get("seed", 0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid seed: {exc}") from exc
    if seed_override is not None:
        seed = seed_override

    variant = backend_sec.get("variant", "toy")
    if variant != "toy":
        raise ConfigError(f"backend.variant must be 'toy', got {variant!r}")

    class_names = task_sec.get("class_names")
    if not class_names:
        raise ConfigError("task.class_names is required")
    if not isinstance(class_names, list):
        raise ConfigError("task.class_names must be a list")
    try:
        task = TaskDefinition(class_names=tuple(str(n) for n in class_names))
    except ValueError as exc:
        raise ConfigError(f"invalid task: {exc}") from exc

    try:
        backend_spec = ToyBackendSpec(
            dim_joint=int(backend_sec.get("dim_joint", 64)),
            dim_token=int(backend_sec.get("dim_token", 32)),
            max_classes=int(backend_sec.get("max_classes", 16)),
            noise_level=float(backend_sec.get("noise_level", 0.1)),
            seed=int(backend_sec.get("seed", seed)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid backend section: {exc}") from exc

    try:
        style_gen = StyleGenConfig(
            num_styles=int(styles_sec.get("num_styles", 80)),
            strategy=str(styles_sec.get("strategy", "random_mix")),
            alpha=float(styles_sec.get("alpha", 0.1)),
            gaussian_std=float(styles_sec.get("gaussian_std", 0.02)),
            seed=seed,
        )
        train = TrainConfig(
            epochs=int(train_sec.get("epochs", 100)),
            learning_rate=float(train_sec.get("learning_rate", 0.008)),
            momentum=float(train_sec.get("momentum", 0.9)),
            batch_size=int(train_sec.get("batch_size", 128)),
            ratio=int(train_sec.get("ratio", 16)),
            style_gen=style_gen,
            arcface=ArcFaceConfig(
                scale=float(train_sec.get("arcface_scale", 5.0)),
                margin=float(train_sec.get("arcface_margin", 0.5)),
            ),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid train/styles section: {exc}") from exc

    patterns = doc.get("templates") or list(DEFAULT_TEMPLATES)
    if not isinstance(patterns, list):
        raise ConfigError("templates must be a list of patterns")
    try:
        templates = tuple(PromptTemplate.from_pattern(str(p)) for p in patterns)
    except ValueError as exc:
        raise ConfigError(f"invalid template: {exc}") from exc

    fusion = str(eval_sec.get("fusion", "max"))
    if fusion_override is not None:
        fusion = fusion_override
    if fusion not in FUSION_MODES:
        raise ConfigError(f"fusion must be one of {FUSION_MODES}, got {fusion!r}")

    lexicon_path = styles_sec.get("lexicon")
    manifest = eval_sec.get("manifest")
    output_dir = out_override or doc.get("output_dir", ".")
    # A non-string path would reach open() or os.makedirs(): an int opens
    # that file descriptor (0 is stdin), anything else is a TypeError.
    # The two optional paths may be null; output_dir may not.
    for key, value, optional in (("styles.lexicon", lexicon_path, True),
                                 ("eval.manifest", manifest, True),
                                 ("output_dir", output_dir, False)):
        if not (isinstance(value, str) or (optional and value is None)):
            raise ConfigError(f"{key} must be a path string, got {value!r}")

    merged = {
        "backend": backend_sec | {"variant": variant},
        "task": {"class_names": list(task.class_names)},
        "train": {
            "epochs": train.epochs,
            "learning_rate": train.learning_rate,
            "momentum": train.momentum,
            "batch_size": train.batch_size,
            "num_styles": style_gen.num_styles,
            "ratio": train.ratio,
            "arcface_scale": train.arcface.scale,
            "arcface_margin": train.arcface.margin,
            "seed": seed,
        },
        "styles": {
            "strategy": style_gen.strategy,
            "alpha": style_gen.alpha,
            "gaussian_std": style_gen.gaussian_std,
            "lexicon": lexicon_path,
        },
        "templates": [t.pattern for t in templates],
        "eval": {"manifest": manifest, "fusion": fusion},
        "output_dir": output_dir,
    }
    return RunConfig(
        backend_variant=variant,
        backend_spec=backend_spec,
        task=task,
        train=train,
        templates=templates,
        lexicon_path=lexicon_path,
        eval_manifest=manifest,
        fusion=fusion,
        output_dir=output_dir,
        raw=merged,
    )
