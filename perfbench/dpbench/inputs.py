"""Seeded input generation: run configs, the eval manifest, ensemble members.

Everything here is a pure function of (workload inputs, shape, seed).
The program under test later receives only the files written here; the
expected values the checks need (the malformed records, digests of the
members' weights) are kept beside them in ``meta.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random

import numpy as np
import yaml

from dpstyler import config, toydata, trainer

from .workloads import BATCH_SIZE, DOMAINS, MAX_CLASSES, Shape

CONFIG_FILE = "run.yaml"
MANIFEST_DIR = "data"
ZEROSHOT_MANIFEST = "zeroshot.csv"
META_FILE = "meta.json"

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def class_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct pronounceable single-token names."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        name = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _write_config(path: str, shape: Shape, names: list[str], backend_seed: int,
                  train_seed: int, manifest: str | None) -> None:
    doc = {
        "backend": {
            "variant": "toy",
            "dim_joint": shape.dim_joint,
            "dim_token": shape.dim_token,
            "max_classes": MAX_CLASSES,
            "seed": backend_seed,
        },
        "task": {"class_names": names},
        "train": {"epochs": shape.epochs, "batch_size": BATCH_SIZE, "seed": train_seed},
        "styles": {"num_styles": shape.num_styles, "strategy": "random_mix"},
        "templates": list(config.DEFAULT_TEMPLATES[: shape.templates]),
        "eval": {"fusion": "max"} | ({"manifest": manifest} if manifest else {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)


def weight_digests(checkpoint) -> dict[str, str]:
    """SHA-256 of each weight array's little-endian float32 bytes."""
    arrays = {"W1": checkpoint.remover.W1, "W2": checkpoint.remover.W2,
              "head": checkpoint.head.weights}
    return {
        name: hashlib.sha256(np.ascontiguousarray(a, dtype="<f4").tobytes()).hexdigest()
        for name, a in arrays.items()
    }


def _corrupt(path: str, how: str) -> None:
    """Make one record undecodable: cut its JSON short, or shorten its nuisance."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if how == "truncated":
        text = text[: len(text) // 2]
    else:
        record = json.loads(text)
        record["nuisance"] = record["nuisance"][:-1]
        text = json.dumps(record)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def generate(out_dir: str, kind: str, shape: Shape, seed: int) -> None:
    """Write the inputs of a ``kind`` ("train" or "eval") workload into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(seed)
    names = class_names(rng, shape.num_classes)
    backend_seed, train_seed = rng.randrange(2**31), rng.randrange(2**31)
    manifest = MANIFEST_DIR if kind == "eval" else None
    config_path = os.path.join(out_dir, CONFIG_FILE)
    _write_config(config_path, shape, names, backend_seed, train_seed, manifest)
    if kind != "eval":
        return

    cfg = config.load_run_config(config_path)
    backend = cfg.build_backend()
    data_root = os.path.join(out_dir, MANIFEST_DIR)
    toydata.make_toy_dataset(
        data_root, cfg.task, backend, domains=DOMAINS,
        images_per_domain=shape.images_per_domain, seed=seed, confusion=0.0,
    )
    records = sorted(
        os.path.relpath(os.path.join(d, f), out_dir)
        for d, _, files in os.walk(data_root) for f in files
    )
    malformed = sorted(rng.sample(records, shape.malformed))
    for i, rel in enumerate(malformed):
        _corrupt(os.path.join(out_dir, rel), "truncated" if i % 2 == 0 else "short_nuisance")

    # The zero-shot subset holds its share of malformed records, at least one.
    bad_share = max(1, shape.zeroshot_records * shape.malformed // len(records))
    good = sorted(set(records) - set(malformed))
    subset = sorted(rng.sample(malformed, bad_share)
                    + rng.sample(good, shape.zeroshot_records - bad_share))
    with open(os.path.join(out_dir, ZEROSHOT_MANIFEST), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "domain", "class"])
        for rel in subset:
            _, domain, cls, _ = rel.split(os.sep)
            writer.writerow([rel, domain, cls])

    # Ensemble members: one short training run per template.  At M=345
    # any affordable recipe scores near chance, so the checks compare
    # predictions with a reference instead of asking for accuracy.
    lexicon = cfg.build_lexicon(backend)
    members, digests = [], []
    for i, template in enumerate(cfg.templates):
        result = trainer.train_one_model(
            cfg.task, backend, template, cfg.train, lexicon=lexicon,
            backend_tag=cfg.backend_variant, config_snapshot=cfg.raw,
        )
        name = f"member{i}.ckpt"
        trainer.save_checkpoint(result.checkpoint, os.path.join(out_dir, name))
        members.append(name)
        digests.append(weight_digests(result.checkpoint))

    meta = {
        "malformed": malformed,
        "members": members,
        "member_digests": digests,
    }
    with open(os.path.join(out_dir, META_FILE), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
