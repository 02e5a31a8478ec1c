"""Run configuration: a single YAML document covering all commands.

Every key is optional except ``task.class_names``; the others default
to the standard recipe.  ``dpstyler info --config run.yaml`` prints the
merged document with every key and its value, and that document loads
back to the same config.  A key not in ``_KEYS`` is a ``ConfigError``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

from .backends import EncoderBackend, ToyBackend, ToyBackendSpec
from .core import InputError, PromptTemplate, TaskDefinition
from .evaluation import FUSION_MODES
from .losses import ArcFaceConfig
from .styles import StyleGenConfig, lexicon_for
from .trainer import TrainConfig

DEFAULT_TEMPLATES = (
    "a [class] in a S* style",
    "a S* style of a [class]",
    "a photo of a [class] with S* like style",
)


class ConfigError(InputError):
    """Raised for unreadable, invalid, or incomplete run configs."""


@dataclass(kw_only=True)
class RunConfig:
    backend_variant: str = "toy"
    backend_spec: ToyBackendSpec
    task: TaskDefinition
    train: TrainConfig
    templates: tuple[PromptTemplate, ...] = field(
        default_factory=lambda: tuple(map(PromptTemplate, DEFAULT_TEMPLATES))
    )
    lexicon_path: str | None = None
    eval_manifest: str | None = None
    fusion: str = "max"
    output_dir: str = "."

    def __post_init__(self):
        if self.backend_variant != "toy":
            raise ValueError(f"backend.variant must be 'toy', got {self.backend_variant!r}")
        if self.fusion not in FUSION_MODES:
            raise ValueError(f"fusion must be one of {FUSION_MODES}, got {self.fusion!r}")
        seen = set()  # each template trains one checkpoint, named by its pattern
        for template in self.templates:
            if template.pattern in seen:
                raise ValueError(f"templates lists {template.pattern!r} more than once")
            seen.add(template.pattern)
        C, ratio = self.backend_spec.dim_joint, self.train.ratio
        if C // ratio < 1:
            raise ValueError(f"train.ratio {ratio} exceeds backend.dim_joint {C}, "
                             "which leaves the gate no hidden unit")

    @property
    def raw(self) -> dict:
        """The merged config document: every ``_KEYS`` key with its value, by section."""
        train = self.train
        built = {RunConfig: self, ToyBackendSpec: self.backend_spec, TaskDefinition: self.task,
                 TrainConfig: train, StyleGenConfig: train.style_gen, ArcFaceConfig: train.arcface}
        doc = {}
        for section, key, _, cls, name in _KEYS:
            value = getattr(built[cls], name)
            if isinstance(value, tuple):  # class names, or templates as their patterns
                value = [getattr(v, "pattern", v) for v in value]
            (doc.setdefault(section, {}) if section else doc)[key] = value
        return doc

    @property
    def fingerprint(self) -> str:
        """Stable short hash of the merged config document."""
        blob = json.dumps(self.raw, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:8]

    def build_backend(self) -> EncoderBackend:
        return ToyBackend(self.backend_spec, self.task.class_names)

    def build_lexicon(self, backend: EncoderBackend):
        """The (L, D) lexicon at ``styles.lexicon``, or None for a strategy that reads none."""
        return lexicon_for(self.train.style_gen, backend, self.lexicon_path)


_PATH = "path"  # a string handed to open() or os.makedirs()
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               _PATH: "a path string", list: "a non-empty list of strings"}

# Every key the loader honours: (section, key, kind, dataclass, field).
# Section None is the top level.  Defaults are the dataclass fields'.
_KEYS = (
    ("backend", "variant", str, RunConfig, "backend_variant"),
    ("backend", "dim_joint", int, ToyBackendSpec, "dim_joint"),
    ("backend", "dim_token", int, ToyBackendSpec, "dim_token"),
    ("backend", "max_classes", int, ToyBackendSpec, "max_classes"),
    ("backend", "noise_level", float, ToyBackendSpec, "noise_level"),
    ("backend", "seed", int, ToyBackendSpec, "seed"),
    ("task", "class_names", list, TaskDefinition, "class_names"),
    ("train", "seed", int, TrainConfig, "seed"),
    ("train", "epochs", int, TrainConfig, "epochs"),
    ("train", "learning_rate", float, TrainConfig, "learning_rate"),
    ("train", "momentum", float, TrainConfig, "momentum"),
    ("train", "batch_size", int, TrainConfig, "batch_size"),
    ("train", "ratio", int, TrainConfig, "ratio"),
    ("train", "arcface_scale", float, ArcFaceConfig, "scale"),
    ("train", "arcface_margin", float, ArcFaceConfig, "margin"),
    ("styles", "num_styles", int, StyleGenConfig, "num_styles"),
    ("styles", "strategy", str, StyleGenConfig, "strategy"),
    ("styles", "alpha", float, StyleGenConfig, "alpha"),
    ("styles", "lexicon", _PATH, RunConfig, "lexicon_path"),
    (None, "templates", list, RunConfig, "templates"),
    ("eval", "manifest", _PATH, RunConfig, "eval_manifest"),
    ("eval", "fusion", str, RunConfig, "fusion"),
    (None, "output_dir", _PATH, RunConfig, "output_dir"),
)
_MERGE_TAG = "tag:yaml.org,2002:merge"
_SECTIONS = tuple(dict.fromkeys(row[0] for row in _KEYS if row[0]))
_KNOWN = {(section, key) for section, key, *_ in _KEYS} | {(None, s) for s in _SECTIONS}


def _name(section, key) -> str:
    return f"{section}.{key}" if section else str(key)


def _default(cls, name: str):
    return next(f.default for f in fields(cls) if f.name == name)


def _checked(kind, name: str, value):
    """``value`` as a ``kind`` config value, or a ``ConfigError`` naming the key."""
    if kind is int and type(value) is int:  # not bool
        return value
    if kind is float and type(value) in (int, float, str):
        # PyYAML reads an exponent without a dot (1e-3) as a string.
        try:
            number = float(value)
        except (ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number):
            return number
    if kind in (str, _PATH) and isinstance(value, str) and (value or kind is str):
        return value
    if kind is list and isinstance(value, list) and value \
            and all(isinstance(v, str) for v in value):
        return value
    raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


@functools.cache  # one subclass per base: a class built per call makes the parse slower
def _no_repeated_keys(base):
    """``base`` rejecting a key repeated within one mapping, where PyYAML keeps the last.

    A mapping merged in with ``<<`` is checked too: PyYAML flattens it into
    its host without constructing it.  Each mapping node is checked once,
    before PyYAML flattens it, since a flattened node holds its merged keys
    next to the ones that override them.  Merged keys may be overridden.
    """
    import yaml

    class Loader(base):
        def construct_mapping(self, node, deep=False):
            self._check_keys(node)
            return super().construct_mapping(node, deep=deep)

        def _check_keys(self, node):
            checked = self.__dict__.setdefault("_checked_nodes", set())
            if node in checked:
                return
            checked.add(node)
            seen = set()
            for key_node, value_node in node.value:
                if key_node.tag == _MERGE_TAG:
                    sources = value_node.value if isinstance(value_node, yaml.SequenceNode) \
                        else [value_node]
                    for source in sources:
                        if isinstance(source, yaml.MappingNode):
                            self._check_keys(source)
                elif isinstance(key_node, yaml.ScalarNode):
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found repeated key {key!r}", key_node.start_mark)
                    seen.add(key)

    return Loader


def load_run_config(path, seed_override: int | None = None, out_override: str | None = None,
                    fusion_override: str | None = None) -> RunConfig:
    """Parse and validate a YAML run config, applying CLI overrides."""
    import yaml

    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # libyaml's parser when PyYAML was built with it: the same safe
    # constructors, so the same document, several times faster.
    loader = _no_repeated_keys(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=loader) or {}
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    sections = {None: doc}
    for name in _SECTIONS:
        sections[name] = {} if doc.get(name) is None else doc[name]
        if not isinstance(sections[name], dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
    unknown = [_name(s, k) for s, sec in sections.items() for k in sec if (s, k) not in _KNOWN]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    # A CLI override stands in for its YAML value and passes the same checks.
    for section, key, value in (("train", "seed", seed_override),
                                ("eval", "fusion", fusion_override),
                                (None, "output_dir", out_override)):
        if value is not None:
            sections[section][key] = value

    kwargs = {row[3]: {} for row in _KEYS}
    for section, key, kind, cls, name in _KEYS:
        sec = sections[section]
        # null stands for "unset" only where the default is null.
        if key in sec and not (sec[key] is None and _default(cls, name) is None):
            kwargs[cls][name] = _checked(kind, _name(section, key), sec[key])
    if not kwargs[TaskDefinition]:
        raise ConfigError("task.class_names is required")

    run = kwargs[RunConfig]
    try:
        if "templates" in run:
            run["templates"] = tuple(map(PromptTemplate, run["templates"]))
        train = TrainConfig(**kwargs[TrainConfig],
                            style_gen=StyleGenConfig(**kwargs[StyleGenConfig]),
                            arcface=ArcFaceConfig(**kwargs[ArcFaceConfig]))
        return RunConfig(**run, backend_spec=ToyBackendSpec(**kwargs[ToyBackendSpec]),
                         task=TaskDefinition(**kwargs[TaskDefinition]), train=train)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
