"""Shared fixtures for the dpstyler test suite.

The end-to-end configuration (backend seed, noise level, style strength,
dataset confusion) was frozen after pilot calibration runs; the trained
ensemble is session-scoped because several suites assert against it.
"""
from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from dpstyler.backends import ToyBackend, ToyBackendSpec
from dpstyler.config import DEFAULT_TEMPLATES
from dpstyler.core import PromptTemplate, TaskDefinition
from dpstyler.styles import StyleGenConfig
from dpstyler.toydata import make_toy_dataset
from dpstyler.trainer import TrainConfig, train_one_model

# Property tests run a fixed, derandomized example set with no example
# database, so the suite is reproducible.  Hypothesis's other caches go
# to a temporary directory that is removed at exit, not to ./.hypothesis.
settings.register_profile(
    "dpstyler", derandomize=True, database=None, deadline=None, max_examples=150
)
settings.load_profile("dpstyler")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="dpstyler-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

E2E_CLASS_NAMES = ("dog", "elephant", "giraffe", "guitar", "horse")
E2E_BACKEND_SPEC = ToyBackendSpec(
    dim_joint=64,
    dim_token=32,
    seed=11,
    noise_level=0.3,
    style_strength=3.0,
)
E2E_TRAIN_SEED = 123
E2E_NUM_STYLES = 8
E2E_EPOCHS = 100
E2E_DATASET = dict(images_per_domain=50, seed=11, confusion=2.0, content_strength=0.9)


def e2e_train_config(seed: int = E2E_TRAIN_SEED, epochs: int = E2E_EPOCHS) -> TrainConfig:
    return TrainConfig(
        epochs=epochs,
        style_gen=StyleGenConfig(
            num_styles=E2E_NUM_STYLES, strategy="random_mix", seed=seed
        ),
        seed=seed,
    )


def encode_grid(backend, pattern, class_names, styles) -> np.ndarray:
    """Every (class, style) prompt as an (M, K, C) grid, via ``encode_prompt_rows``."""
    M, K = len(class_names), 1 if styles is None else len(styles)
    rows = backend.encode_prompt_rows(pattern, class_names, styles, np.arange(M * K))
    return rows.reshape(M, K, backend.dim_joint)


@pytest.fixture(scope="session")
def task() -> TaskDefinition:
    return TaskDefinition(E2E_CLASS_NAMES)


@pytest.fixture(scope="session")
def templates() -> tuple[PromptTemplate, ...]:
    return tuple(PromptTemplate.from_pattern(p) for p in DEFAULT_TEMPLATES)


@pytest.fixture(scope="session")
def e2e_backend(task) -> ToyBackend:
    return ToyBackend(E2E_BACKEND_SPEC, task.class_names)


@pytest.fixture(scope="session")
def trained_models(task, templates, e2e_backend):
    """One trained model per default template, with wall time per model."""
    results = []
    for template in templates:
        results.append(train_one_model(task, e2e_backend, template, e2e_train_config()))
    return results


@pytest.fixture(scope="session")
def toy_dataset_root(tmp_path_factory, task, e2e_backend):
    root = tmp_path_factory.mktemp("toyset")
    make_toy_dataset(root, task, e2e_backend, **E2E_DATASET)
    return root


@pytest.fixture
def rng():
    return np.random.default_rng(0)
