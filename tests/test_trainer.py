"""Training loop, SGD updates, and binary checkpoint persistence."""
import dataclasses
import json
import warnings

import numpy as np
import pytest

import dpstyler.styles as styles_mod
import dpstyler.trainer as trainer_mod
from dpstyler.backends import ToyBackend, ToyBackendSpec
from dpstyler.config import DEFAULT_TEMPLATES
from dpstyler.core import Stream, TaskDefinition, l2_normalize, seeded_rng, template_id
from dpstyler.losses import head_init, loss_gradients, softmax
from dpstyler.remover import remover_backward, remover_forward, remover_init
from dpstyler.styles import STRATEGIES, StyleGenConfig, lexicon_for, refresh_bank
from dpstyler.trainer import (
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    build_prompt_set,
    encode_probe,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_one_model,
)

from conftest import e2e_train_config, encode_grid


class TestBuildPromptSet:
    def test_full_cross_product(self):
        task = TaskDefinition(tuple(f"c{i}" for i in range(5)))
        flat = build_prompt_set(task, 80, seed=0, epoch=0)
        assert len(flat) == 400
        assert sorted({(m, i) for m, i in zip(flat // 80, flat % 80)}) == [
            (m, i) for m in range(5) for i in range(80)
        ]

    def test_single_pair(self):
        task = TaskDefinition(("a", "b"))
        flat = build_prompt_set(task, 1, seed=0, epoch=0)
        assert sorted(flat.tolist()) == [0, 1]  # (0, 0) and (1, 0)

    def test_epochs_shuffle_but_preserve_multiset(self):
        task = TaskDefinition(tuple(f"c{i}" for i in range(4)))
        a = build_prompt_set(task, 10, seed=3, epoch=0)
        b = build_prompt_set(task, 10, seed=3, epoch=1)
        assert not np.array_equal(a, b)
        assert sorted(a.tolist()) == sorted(b.tolist())

    def test_deterministic_per_epoch(self):
        task = TaskDefinition(("a", "b", "c"))
        a = build_prompt_set(task, 6, seed=3, epoch=2)
        b = build_prompt_set(task, 6, seed=3, epoch=2)
        assert np.array_equal(a, b)


class TestSgdStep:
    def test_zero_gradient_zero_velocity(self):
        p, v = sgd_step(np.array([1.0, 2.0]), np.zeros(2), 0.1, 0.9, np.zeros(2))
        np.testing.assert_array_equal(p, [1.0, 2.0])
        np.testing.assert_array_equal(v, np.zeros(2))

    def test_momentum_free_reduction(self):
        p, _ = sgd_step(np.array([1.0]), np.array([2.0]), 0.1, 0.0, np.zeros(1))
        assert p[0] == pytest.approx(0.8)

    def test_hand_iterated_two_steps(self):
        theta, vel = np.zeros(1), np.zeros(1)
        g = np.ones(1)
        theta, vel = sgd_step(theta, g, 0.1, 0.9, vel)
        assert theta[0] == pytest.approx(-0.1) and vel[0] == pytest.approx(-0.1)
        theta, vel = sgd_step(theta, g, 0.1, 0.9, vel)
        assert theta[0] == pytest.approx(-0.29) and vel[0] == pytest.approx(-0.19)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(3), 0.1, 0.9, np.zeros(2))

    def test_updates_given_arrays_in_place(self, rng):
        param, grad, vel = (rng.standard_normal((3, 4)).astype(np.float32) for _ in range(3))
        expected_vel = 0.9 * vel - 0.01 * grad
        expected_param = param + expected_vel
        p, v = sgd_step(param, grad, 0.01, 0.9, vel)
        assert p is param and v is vel
        np.testing.assert_array_equal(param, expected_param)
        np.testing.assert_array_equal(vel, expected_vel)


class TestTrainOneModel:
    def test_one_epoch_moves_remover(self, task, templates, e2e_backend):
        cfg = e2e_train_config(epochs=1)
        result = train_one_model(task, e2e_backend, templates[0], cfg)
        init = remover_init(
            e2e_backend.dim_joint, cfg.ratio, seeded_rng(cfg.seed, Stream.REMOVER_INIT)
        )
        assert np.abs(result.checkpoint.remover.W1 - init.W1).max() > 0
        assert np.abs(result.checkpoint.remover.W2 - init.W2).max() > 0

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_deterministic_checkpoints(self, task, templates, e2e_backend):
        a = train_one_model(task, e2e_backend, templates[0], e2e_train_config(epochs=3))
        b = train_one_model(task, e2e_backend, templates[0], e2e_train_config(epochs=3))
        np.testing.assert_array_equal(a.checkpoint.remover.W1, b.checkpoint.remover.W1)
        np.testing.assert_array_equal(a.checkpoint.remover.W2, b.checkpoint.remover.W2)
        np.testing.assert_array_equal(a.checkpoint.head.weights, b.checkpoint.head.weights)

    def test_metrics_log(self, trained_models):
        result = trained_models[0]
        assert len(result.metrics) == 100
        for i, m in enumerate(result.metrics):
            assert m.epoch == i
            assert m.wall_time_s >= 0
            record = json.loads(m.to_json())
            assert set(record) == {
                "epoch", "loss_uncertainty", "loss_classification", "loss_total", "wall_time_s",
            }

    def test_loss_decreases_by_half(self, trained_models):
        for result in trained_models:
            first, last = result.metrics[0].loss_total, result.metrics[-1].loss_total
            assert last <= first - 0.5 * abs(first)

    def test_final_training_prompt_accuracy(self, task, e2e_backend, trained_models, templates):
        # High top-1 on the final epoch's own prompt features.  The
        # strongest confusable styles keep this just under 100%, so gate
        # on >= 90% (measured 95% for every default template).
        cfg = e2e_train_config()
        styles = refresh_bank(cfg.style_gen, e2e_backend.dim_token, cfg.seed, cfg.epochs - 1,
                              lexicon_for(cfg.style_gen, e2e_backend))
        for template, result in zip(templates, trained_models):
            feats = encode_grid(e2e_backend, template.pattern, task.class_names, styles)
            feats = feats.reshape(-1, e2e_backend.dim_joint)
            removed = remover_forward(feats, result.checkpoint.remover)
            wn = l2_normalize(result.checkpoint.head.weights)
            pred = np.argmax(l2_normalize(removed) @ wn.T, axis=1)
            expected = np.repeat(np.arange(task.num_classes), len(styles))
            assert np.mean(pred == expected) >= 0.9

    def test_frozen_backend_untouched(self, task, templates):
        backend = ToyBackend(ToyBackendSpec(seed=2), task.class_names)
        rng = np.random.default_rng(0)
        probes = rng.standard_normal((5, 32))
        before = backend.encode_style_prompts(probes).copy()
        train_one_model(task, backend, templates[0], e2e_train_config(epochs=2))
        np.testing.assert_array_equal(backend.encode_style_prompts(probes), before)

    def test_divergence_raises(self, task, templates):
        class NaNBackend(ToyBackend):
            def encode_prompt_rows(self, pattern, class_names, styles, index):
                return super().encode_prompt_rows(pattern, class_names, styles, index) * np.nan

        backend = NaNBackend(ToyBackendSpec(), task.class_names)
        with pytest.raises(TrainingDivergedError):
            train_one_model(task, backend, templates[0], e2e_train_config(epochs=1))

    def test_non_finite_loss_diverges(self, task, templates, monkeypatch):
        real = trainer_mod.loss_gradients

        def nan_classification_loss(*args):
            return dataclasses.replace(real(*args), loss_classification=float("nan"))

        monkeypatch.setattr(trainer_mod, "loss_gradients", nan_classification_loss)
        backend = ToyBackend(ToyBackendSpec(), task.class_names)
        with pytest.raises(TrainingDivergedError, match="L_C=nan at epoch 0, batch 0") as info:
            train_one_model(task, backend, templates[0], e2e_train_config(epochs=1))
        assert (info.value.epoch, info.value.batch) == (0, 0)

    def test_non_finite_style_prompts_diverge(self, task, templates):
        # A NaN domain probe is a numeric failure at the epoch that drew it,
        # not softmax's bare ValueError.
        class NaNProbeBackend(ToyBackend):
            calls = 0

            def encode_style_prompts(self, styles):
                self.calls += 1
                rows = super().encode_style_prompts(styles)
                return rows * np.nan if self.calls == 2 else rows  # epoch 1's probe

        backend = NaNProbeBackend(ToyBackendSpec(), task.class_names)
        with pytest.raises(TrainingDivergedError, match="encode_style_prompts") as info:
            train_one_model(task, backend, templates[0], e2e_train_config(epochs=3))
        assert (info.value.epoch, info.value.batch) == (1, None)

    def test_wrong_style_prompt_width_rejected(self, task, templates):
        class NarrowProbeBackend(ToyBackend):
            def encode_style_prompts(self, styles):
                return super().encode_style_prompts(styles)[:, :-1]

        backend = NarrowProbeBackend(ToyBackendSpec(), task.class_names)
        with pytest.raises(ValueError, match=r"encode_style_prompts returned shape \(8, 63\)"):
            train_one_model(task, backend, templates[0], e2e_train_config(epochs=1))

    def test_wrong_feature_shape_rejected(self, task, templates):
        class ShortBackend(ToyBackend):
            def encode_prompt_rows(self, pattern, class_names, styles, index):
                return super().encode_prompt_rows(pattern, class_names, styles, index)[:, :-1]

        backend = ShortBackend(ToyBackendSpec(), task.class_names)
        with pytest.raises(ValueError, match="shape"):
            train_one_model(task, backend, templates[0], e2e_train_config(epochs=1))

    def test_encodes_each_prompt_once_per_batch(self, task, templates):
        # One epoch asks only for its batches' rows, each flat index once,
        # and never builds the (M, K, C) grid.
        class CountingBackend(ToyBackend):
            def __init__(self, *args):
                super().__init__(*args)
                self.rows = []

            def encode_prompt_rows(self, pattern, class_names, styles, index):
                self.rows.append(np.array(index))
                return super().encode_prompt_rows(pattern, class_names, styles, index)

        cfg = TrainConfig(
            epochs=1, batch_size=16, seed=3,
            style_gen=StyleGenConfig(num_styles=12, strategy="random"),
        )
        backend = CountingBackend(ToyBackendSpec(), task.class_names)
        train_one_model(task, backend, templates[0], cfg)
        assert max(len(rows) for rows in backend.rows) <= cfg.batch_size
        seen = np.concatenate(backend.rows)
        np.testing.assert_array_equal(np.sort(seen), np.arange(task.num_classes * 12))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_draws_one_bank_per_epoch(self, task, templates, monkeypatch, strategy):
        # No bank is drawn ahead of epoch 0, and frozen runs draw theirs each epoch.
        draws = []
        real = styles_mod._draw

        def spy(*args):
            draws.append(args[0])
            return real(*args)

        monkeypatch.setattr(styles_mod, "_draw", spy)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=3,
                          style_gen=StyleGenConfig(num_styles=4, strategy=strategy))
        train_one_model(task, ToyBackend(ToyBackendSpec(), task.class_names), templates[0], cfg)
        assert len(draws) == cfg.epochs


class TestFusedTrainingStep:
    def test_matches_reference_loop(self, task, templates, e2e_backend):
        # Two epochs of 40 prompts in batches of 16: the trainer's one-pass
        # gate and in-place SGD against the public forward, loss and
        # backward functions with out-of-place momentum.
        cfg = TrainConfig(
            epochs=2, batch_size=16, seed=5,
            style_gen=StyleGenConfig(num_styles=8, strategy="random"),
        )
        got = train_one_model(task, e2e_backend, templates[0], cfg).checkpoint

        C = e2e_backend.dim_joint
        remover = remover_init(C, cfg.ratio, seeded_rng(cfg.seed, Stream.REMOVER_INIT))
        head = head_init(task.num_classes, C, seeded_rng(cfg.seed, Stream.HEAD_INIT))
        params = [remover.W1, remover.W2, head.weights]
        velocities = [np.zeros_like(p) for p in params]
        for epoch in range(cfg.epochs):
            styles = refresh_bank(cfg.style_gen, e2e_backend.dim_token, cfg.seed, epoch)
            probe = encode_probe(e2e_backend, styles, epoch)
            feats = encode_grid(e2e_backend, templates[0].pattern, task.class_names, styles)
            flat = build_prompt_set(task, len(styles), cfg.seed, epoch)
            order = [divmod(j, len(styles)) for j in flat]  # (class, style) pairs
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                v = np.stack([feats[m, i] for m, i in batch])
                y = np.array([m for m, _ in batch])
                remover.W1, remover.W2, head.weights = params
                out = loss_gradients(remover_forward(v, remover), probe, head, y, cfg.arcface)
                _, d_w1, d_w2 = remover_backward(v, remover, out.d_features)
                for j, grad in enumerate((d_w1, d_w2, out.d_head)):
                    velocities[j] = cfg.momentum * velocities[j] - cfg.learning_rate * grad
                    params[j] = params[j] + velocities[j]
        for trained, reference in zip((got.remover.W1, got.remover.W2, got.head.weights), params):
            np.testing.assert_allclose(trained, reference, rtol=0, atol=1e-6)


class TestDomainUncertaintyEffect:
    def test_remover_lowers_held_out_entropy_loss(self, templates):
        # After training, held-out prompt features sit closer to the
        # uniform distribution over style prompts than raw features do.
        task = TaskDefinition(("dog", "elephant", "giraffe", "guitar", "horse"))
        backend = ToyBackend(ToyBackendSpec(), task.class_names)
        held = refresh_bank(StyleGenConfig(num_styles=8, strategy="frozen"), 32, 9999, epoch=0)
        probe = encode_probe(backend, held, 0)
        tn = l2_normalize(probe.style_text_features)
        feats = encode_grid(backend, templates[0].pattern, task.class_names, held)
        feats = feats.reshape(-1, backend.dim_joint)

        def mean_lu(x):
            p = softmax(l2_normalize(x) @ tn.T)
            return float(np.mean(np.sum(p * np.log(p), axis=1)))

        for seed in (0, 1, 2):
            result = train_one_model(task, backend, templates[0], e2e_train_config(seed=seed))
            removed = remover_forward(feats, result.checkpoint.remover)
            assert mean_lu(removed) < mean_lu(feats)


class TestCheckpointPersistence:
    def test_round_trip_bitwise(self, trained_models, tmp_path):
        ckpt = trained_models[0].checkpoint
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        np.testing.assert_array_equal(back.remover.W1, ckpt.remover.W1)
        np.testing.assert_array_equal(back.remover.W2, ckpt.remover.W2)
        np.testing.assert_array_equal(back.head.weights, ckpt.head.weights)
        assert back.template_id == ckpt.template_id
        assert back.class_names == ckpt.class_names

    def test_loaded_arrays_are_separate_aligned_copies(self, trained_models, tmp_path):
        ckpt = trained_models[0].checkpoint
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        loaded = [back.remover.W1, back.remover.W2, back.head.weights]
        saved = [ckpt.remover.W1, ckpt.remover.W2, ckpt.head.weights]
        for got, want in zip(loaded, saved):
            assert got.dtype == np.dtype("<f4") and got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want, dtype="<f4").tobytes()
            assert got.flags.c_contiguous and got.flags.aligned and got.flags.writeable
            assert got.flags.owndata
        for i, a in enumerate(loaded):
            for b in loaded[i + 1 :]:
                assert not np.shares_memory(a, b)
        # The scoring norms were computed and checked at construction, and kept.
        norms = vars(back)["head_row_norms"]
        W = back.head.weights
        assert np.array_equal(norms, np.sqrt(np.einsum("mc,mc->m", W, W)))
        assert not norms.flags.writeable

    def test_save_failing_mid_write_keeps_previous_file(self, trained_models, tmp_path,
                                                        monkeypatch):
        import dpstyler.trainer as trainer

        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        before = path.read_bytes()

        def boom(*args):  # called after the magic bytes are written
            raise OSError("disk full")

        monkeypatch.setattr(trainer.struct, "pack", boom)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trained_models[1].checkpoint, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_truncated_file(self, trained_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, trained_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 999])
    def test_unknown_version(self, trained_models, tmp_path, version):
        # Version 1 stored an array manifest, num_classes and template_id;
        # no reader for it is kept.
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, lambda h: h.update(format_version=version))
        with pytest.raises(CheckpointError,
                           match=rf"unsupported format version {version} \(expected 2\)"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            {"format_version": 2, "dim_joint": 64},  # no other key
            [1, 2],  # not an object
            "checkpoint",
        ],
        ids=["no-arrays", "list", "string"],
    )
    def test_malformed_header_is_typed(self, trained_models, tmp_path, header):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _write_header(path, header)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.pop("dim_joint"),
            lambda h: h.pop("class_names"),
            lambda h: h.pop("seed"),
        ],
        ids=["no-dim_joint", "no-class_names", "no-seed"],
    )
    def test_incomplete_header_is_typed(self, trained_models, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ratio", "4"),
            ("ratio", True),
            ("ratio", 1000),
            ("ratio", 0),
            ("ratio", -16),
            ("dim_joint", 0),
            ("dim_joint", -64),
            ("dim_token", 0),
            ("dim_token", 2.5),
            ("class_names", 3),
            ("class_names", [1, 2, 3, 4, 5]),
            ("class_names", []),
            ("template_pattern", None),
            ("backend_tag", [1]),
            ("seed", "x"),
            ("seed", True),
            ("seed", 1.0),
        ],
        ids=["ratio-str", "ratio-bool", "ratio-collapses-bottleneck", "ratio-zero",
             "ratio-negative", "dim_joint-zero", "dim_joint-negative", "dim_token-zero",
             "dim_token-float", "class_names-int", "class_names-not-str", "class_names-empty",
             "template_pattern-null", "backend_tag-list", "seed-str", "seed-bool", "seed-float"],
    )
    def test_bad_header_value_is_typed(self, trained_models, tmp_path, key, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, lambda h: h.update({key: value}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\0" * 8, b"\0"], ids=["8-zero-bytes", "1-byte"])
    def test_trailing_bytes_after_head_are_typed(self, trained_models, tmp_path, extra):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CheckpointError, match="body is"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.update(dim_joint=h["dim_joint"] + 1),
            lambda h: h.update(dim_joint=h["dim_joint"] - 1),
            lambda h: h.update(ratio=h["ratio"] * 2),
            lambda h: h.update(ratio=h["ratio"] // 2),
            lambda h: h["class_names"].append("zebra"),
            lambda h: h["class_names"].pop(),
        ],
        ids=["dim_joint-plus-1", "dim_joint-minus-1", "ratio-doubled", "ratio-halved",
             "one-more-class", "one-fewer-class"],
    )
    def test_dims_that_disagree_with_the_body_are_typed(self, trained_models, tmp_path, edit):
        # The header stores no shapes: its dims alone say where each array
        # lies, so a dim edited without its arrays must not be read.
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, edit)
        with pytest.raises(CheckpointError, match="body is"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", ["last-float", "head", "W2", "W1"])
    def test_truncated_body_is_typed(self, trained_models, tmp_path, cut):
        # The file ends at the last float, or just before the named array.
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        blob = path.read_bytes()
        end = len(blob) - 4 if cut == "last-float" else _locate(path, cut)[0]
        path.write_bytes(blob[:end])
        with pytest.raises(CheckpointError, match="body is"):
            load_checkpoint(path)

    @pytest.mark.parametrize("index", range(len(DEFAULT_TEMPLATES)))
    def test_loaded_checkpoint_derives_what_the_file_omits(self, trained_models, tmp_path,
                                                         index):
        # The class count, the template id and the dims of every array
        # are derived from the stored facts, and agree with the saved model.
        ckpt = trained_models[index].checkpoint
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        assert not {"arrays", "num_classes", "template_id"} & set(_read_header(path))
        back = load_checkpoint(path)
        assert back.template_id == template_id(back.template_pattern) == ckpt.template_id
        assert back.head.num_classes == len(back.class_names) == ckpt.head.num_classes
        assert back.dim_joint == ckpt.dim_joint == back.head.weights.shape[1]
        arrays = (back.remover.W1, back.remover.W2, back.head.weights)
        for name, array in zip(("W1", "W2", "head"), arrays):
            assert _locate(path, name)[1] == array.shape

    def test_template_id_follows_the_stored_pattern(self, trained_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, lambda h: h.update(template_pattern="a sketch of a [class]"))
        back = load_checkpoint(path)
        assert back.template_id == template_id("a sketch of a [class]")
        assert back.template_id != trained_models[0].checkpoint.template_id

    def test_save_rejects_shapes_that_disagree_with_dims(self, trained_models, tmp_path):
        # The constructor refuses the model, so there is nothing to save.
        ckpt = trained_models[0].checkpoint
        with pytest.raises(ValueError, match="array 'W1' has shape"):
            save_checkpoint(dataclasses.replace(ckpt, remover=dataclasses.replace(
                ckpt.remover, ratio=ckpt.remover.ratio * 2)), tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_save_rejects_a_head_of_another_class_count(self, trained_models, tmp_path):
        # The file stores the class names, and the head's row count is theirs.
        ckpt = trained_models[0].checkpoint
        with pytest.raises(ValueError, match="array 'head' has shape"):
            save_checkpoint(dataclasses.replace(ckpt, class_names=ckpt.class_names[:-1]),
                            tmp_path / "model.ckpt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "case, message",
        [
            ("zero-head-row", "head rows must be nonzero"),
            ("head-row-times-1e20", "head row norm overflows float32"),
            ("W1-nan", "array 'W1' holds NaN or inf"),
            ("head-inf", "array 'head' holds NaN or inf"),
            ("ratio-exceeds-dim_joint", "ratio 65 exceeds dim_joint 64"),
        ],
        ids=["zero-head-row", "head-row-times-1e20", "W1-nan", "head-inf",
             "ratio-exceeds-dim_joint"],
    )
    def test_construction_refuses_a_broken_model(self, trained_models, case, message):
        # Training, code and load_checkpoint all build a model this way.
        ckpt = trained_models[0].checkpoint
        W1, W2, head = (a.copy() for a in (ckpt.remover.W1, ckpt.remover.W2,
                                             ckpt.head.weights))
        ratio = ckpt.remover.ratio
        if case == "zero-head-row":
            head[1] = 0.0
        elif case == "head-row-times-1e20":  # finite weights, an overflowing norm
            head[1] *= 1e20
        elif case == "W1-nan":
            W1[0, 0] = np.nan
        elif case == "head-inf":
            head[-1, -1] = np.inf
        else:  # a gate with no hidden unit
            W1, W2, ratio = W1[:, :0], W2[:0], ckpt.dim_joint + 1
        remover = dataclasses.replace(ckpt.remover, W1=W1, W2=W2, ratio=ratio)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(ckpt, remover=remover, head=dataclasses.replace(
                ckpt.head, weights=head))

    @pytest.mark.parametrize(
        "array, index, value",
        [("W1", 0, np.nan), ("W2", 5, np.inf), ("head", -1, -np.inf)],
        ids=["W1-first-nan", "W2-inf", "head-last-neg-inf"],
    )
    def test_non_finite_weight_is_typed(self, trained_models, tmp_path, array, index, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        at, shape = _locate(path, array)
        at += 4 * (index % int(np.prod(shape)))
        blob = bytearray(path.read_bytes())
        blob[at : at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"array '{array}' holds NaN or inf"):
            load_checkpoint(path)

    def test_zero_head_row_is_typed(self, trained_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _set_second_head_row(path, 0.0)
        with pytest.raises(CheckpointError, match="head rows must be nonzero"):
            load_checkpoint(path)

    def test_overflowing_head_row_is_typed(self, trained_models, tmp_path):
        # Finite float32 values whose squares overflow: the row norm would
        # be inf, and predict_scores would score that class NaN.
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _set_second_head_row(path, 3e38)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CheckpointError, match="head row norm overflows"):
                load_checkpoint(path)


def _set_second_head_row(path, value):
    """Overwrite every float of the second class's head row with ``value``."""
    at, (_, C) = _locate(path, "head")
    row = np.full(C, value, dtype="<f4").tobytes()
    blob = bytearray(path.read_bytes())
    at += len(row)
    blob[at : at + len(row)] = row
    path.write_bytes(bytes(blob))


def _locate(path, name):
    """File offset and shape of array ``name``, from the header's dims alone:
    W1 (C, C//r), W2 (C//r, C) and head (M, C) follow the header back to back."""
    header = _read_header(path)
    C, M = header["dim_joint"], len(header["class_names"])
    hidden = C // header["ratio"]
    at = 12 + int.from_bytes(path.read_bytes()[8:12], "little")
    for key, shape in (("W1", (C, hidden)), ("W2", (hidden, C)), ("head", (M, C))):
        if key == name:
            return at, shape
        at += 4 * shape[0] * shape[1]
    raise KeyError(name)


def _read_header(path):
    blob = path.read_bytes()
    return json.loads(blob[12 : 12 + int.from_bytes(blob[8:12], "little")])


def _write_header(path, header):
    """Replace a checkpoint's JSON header, keeping its arrays."""
    blob = path.read_bytes()
    body = blob[12 + int.from_bytes(blob[8:12], "little") :]
    new_header = json.dumps(header).encode()
    path.write_bytes(blob[:8] + len(new_header).to_bytes(4, "little") + new_header + body)


def _edit_header(path, edit):
    header = _read_header(path)
    edit(header)
    _write_header(path, header)
