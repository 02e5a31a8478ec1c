"""One master seed drives every random stream.

``TrainConfig.seed`` seeds the style bank, the gate and head
initialisation and the prompt shuffle, each through its own
``core.seeded_rng`` stream.  The digests pin the bytes those streams
produce: a change to any stream's entropy moves one of them.
"""
import hashlib
import os

import numpy as np

from dpstyler.backends import ToyBackend, ToyBackendSpec
from dpstyler.config import load_run_config
from dpstyler.core import PromptTemplate, Stream, TaskDefinition, seeded_rng
from dpstyler.styles import StyleGenConfig, lexicon_for, refresh_bank
from dpstyler.toydata import make_toy_dataset
from dpstyler.trainer import TrainConfig, save_checkpoint, train_one_model

NAMES = ("cat", "dog", "fish")


def _tree_digest(root) -> str:
    """SHA-256 over every file under ``root``: relative path, then bytes, in sorted order."""
    sha = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            sha.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                sha.update(fh.read())
    return sha.hexdigest()


def test_stream_tags_are_pairwise_distinct():
    values = [int(tag) for tag in Stream.__members__.values()]
    assert len(set(values)) == len(values)


def test_seeded_rng_is_the_seed_sequence_stream():
    want = np.random.default_rng(np.random.SeedSequence([7, 12, 3])).random(4)
    np.testing.assert_array_equal(seeded_rng(7, Stream.SHUFFLE, 3).random(4), want)


class _StyleRecorder(ToyBackend):
    """A toy backend that keeps each style bank it is asked to encode."""

    def __init__(self, *args):
        super().__init__(*args)
        self.banks = []

    def encode_style_prompts(self, styles):
        self.banks.append(np.array(styles))
        return super().encode_style_prompts(styles)


def test_master_seed_reaches_style_generation():
    task = TaskDefinition(NAMES)
    template = PromptTemplate("a [class] in a S* style")
    backends = {seed: _StyleRecorder(ToyBackendSpec(), NAMES) for seed in (1, 2)}
    for seed, backend in backends.items():
        train_one_model(task, backend, template, TrainConfig(epochs=2, seed=seed),
                        lexicon=lexicon_for(StyleGenConfig(), backend))
    assert not np.array_equal(backends[1].banks[-1], backends[2].banks[-1])
    # The last bank is the master seed's refresh for the last epoch.
    cfg = StyleGenConfig()
    lexicon = lexicon_for(cfg, backends[2])
    want = refresh_bank(cfg, backends[2].dim_token, 2, 1, lexicon)
    np.testing.assert_array_equal(backends[2].banks[-1], want)


def test_training_checkpoint_is_pinned(tmp_path):
    # YAML -> load_run_config -> train_one_model -> save_checkpoint with
    # random_mix covers the remover, head, shuffle and style streams.
    # With no backend.seed the encoder is backend seed 0, not train.seed.
    path = tmp_path / "run.yaml"
    path.write_text(
        "backend: {dim_joint: 16, dim_token: 8, noise_level: 0.0}\n"
        "task: {class_names: [cat, dog, fish]}\n"
        "train: {epochs: 3, batch_size: 8, seed: 7}\n"
        "styles: {num_styles: 5, strategy: random_mix}\n"
    )
    rc = load_run_config(path)
    backend = rc.build_backend()
    result = train_one_model(rc.task, backend, rc.templates[0], rc.train,
                             lexicon=rc.build_lexicon(backend), config_snapshot=rc.raw)
    save_checkpoint(result.checkpoint, tmp_path / "model.ckpt")
    digest = hashlib.sha256((tmp_path / "model.ckpt").read_bytes()).hexdigest()
    assert digest == "6cd1e22cbfbe8d904a4a44ae779b1111670b9285878a5d63aca7a2d49f576840"


def test_toy_dataset_is_pinned(tmp_path):
    backend = ToyBackend(ToyBackendSpec(dim_joint=16, dim_token=8, seed=5), NAMES)
    make_toy_dataset(tmp_path, TaskDefinition(NAMES), backend, domains=("art", "photo"),
                     images_per_domain=4, seed=3, confusion=1.5)
    assert _tree_digest(tmp_path) == (
        "8f64487cbe9b9766a759ad65200b6dd9b7735cee9804311fd2043a30ae945275"
    )


def test_confusion_free_toy_dataset_is_pinned(tmp_path):
    # At confusion 0 no confusing class is drawn, so each image takes only its jitter.
    backend = ToyBackend(ToyBackendSpec(dim_joint=16, dim_token=8, seed=5), NAMES)
    make_toy_dataset(tmp_path, TaskDefinition(NAMES), backend, domains=("art", "photo"),
                     images_per_domain=4, seed=3)
    assert _tree_digest(tmp_path) == (
        "afe7c62da68f5faa891cd803024623de126da9ba20d734dacac7b84da6037451"
    )
