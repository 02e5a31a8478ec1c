"""Synthetic multi-domain datasets for the toy backend.

Each domain gets a base nuisance direction in the token space; every
image perturbs it slightly, so domains act like distinct visual styles.
Optionally the styles are made adversarial: part of each image's
nuisance is the least-squares preimage of another class's content
direction (styles that make one class "look like" another), and
``content_strength`` below 1 fades the class evidence as heavy
stylization does.  Files are written in the directory layout
``root/domain/class/img_NNN.json`` that the manifest loader discovers.
"""

from __future__ import annotations

import os

import numpy as np

from .backends import ToyBackend, ToyImage, toy_image_save
from .core import DEFAULT_DTYPE, Stream, TaskDefinition, seeded_rng

# Std of each image's deviation from its domain's base nuisance direction.
JITTER = 0.3


def make_toy_dataset(
    root,
    task: TaskDefinition,
    backend: ToyBackend,
    domains: tuple[str, ...] = ("art", "cartoon", "photo", "sketch"),
    images_per_domain: int = 50,
    seed: int = 0,
    confusion: float = 0.0,
    content_strength: float = 1.0,
) -> None:
    """Write a balanced synthetic dataset under ``root``.

    ``confusion`` scales a per-image nuisance component aimed at a
    different class's content direction; 0 keeps styles class-neutral.
    """
    rng = seeded_rng(seed, Stream.TOY_DATASET)
    root = os.fspath(root)
    dim = backend.dim_token
    num_classes = task.num_classes
    for domain in domains:
        base = rng.standard_normal(dim)
        base /= np.linalg.norm(base)
        for idx in range(images_per_domain):
            class_index = idx % num_classes
            nuisance = base + JITTER * rng.standard_normal(dim)
            nuisance /= np.linalg.norm(nuisance)
            if confusion > 0:
                other = (class_index + 1 + rng.integers(num_classes - 1)) % num_classes
                aim = backend.style_preimage(
                    backend.class_content_direction(task.class_names[other])
                ).astype(np.float64)
                nuisance = nuisance + confusion * aim / np.linalg.norm(aim)
            cls_dir = os.path.join(root, domain, task.class_names[class_index])
            os.makedirs(cls_dir, exist_ok=True)
            toy_image_save(
                ToyImage(
                    class_index=class_index,
                    nuisance=nuisance.astype(DEFAULT_DTYPE),
                    content_strength=content_strength,
                ),
                os.path.join(cls_dir, f"img_{idx:04d}.json"),
            )
