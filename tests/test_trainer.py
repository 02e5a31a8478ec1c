"""Training loop, SGD updates, and binary checkpoint persistence."""
import dataclasses
import json
import warnings

import numpy as np
import pytest

from dpstyler.backends import ToyBackend, ToyBackendSpec
from dpstyler.core import PromptTemplate, TaskDefinition, l2_normalize
from dpstyler.losses import head_init, loss_gradients, softmax
from dpstyler.remover import remover_backward, remover_forward, remover_init
from dpstyler.styles import StyleGenConfig, initial_bank, refresh_bank
from dpstyler.trainer import (
    _STREAM_HEAD_INIT,
    _STREAM_REMOVER_INIT,
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
    def _bank(self, K):
        cfg = StyleGenConfig(num_styles=K, strategy="random", seed=0)
        return initial_bank(cfg, 32)

    def test_full_cross_product(self):
        task = TaskDefinition(tuple(f"c{i}" for i in range(5)))
        flat = build_prompt_set(task, self._bank(80), seed=0, epoch=0)
        assert len(flat) == 400
        assert sorted({(m, i) for m, i in zip(flat // 80, flat % 80)}) == [
            (m, i) for m in range(5) for i in range(80)
        ]

    def test_single_pair(self):
        task = TaskDefinition(("a", "b"))
        flat = build_prompt_set(task, self._bank(1), seed=0, epoch=0)
        assert sorted(flat.tolist()) == [0, 1]  # (0, 0) and (1, 0)

    def test_epochs_shuffle_but_preserve_multiset(self):
        task = TaskDefinition(tuple(f"c{i}" for i in range(4)))
        a = build_prompt_set(task, self._bank(10), seed=3, epoch=0)
        b = build_prompt_set(task, self._bank(10), seed=3, epoch=1)
        assert not np.array_equal(a, b)
        assert sorted(a.tolist()) == sorted(b.tolist())

    def test_deterministic_per_epoch(self):
        task = TaskDefinition(("a", "b", "c"))
        a = build_prompt_set(task, self._bank(6), seed=3, epoch=2)
        b = build_prompt_set(task, self._bank(6), seed=3, epoch=2)
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
        from dpstyler.remover import remover_init
        from dpstyler.trainer import _STREAM_REMOVER_INIT

        cfg = e2e_train_config(epochs=1)
        result = train_one_model(task, e2e_backend, templates[0], cfg)
        init = remover_init(
            e2e_backend.dim_joint,
            cfg.ratio,
            np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_REMOVER_INIT])),
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
        for template, result in zip(templates, trained_models):
            bank = result.final_bank
            feats = np.stack([
                e2e_backend.text_encode(template.pattern, name, style)
                for name in task.class_names
                for style in bank.styles
            ])
            removed = remover_forward(feats, result.checkpoint.remover)
            wn = l2_normalize(result.checkpoint.head.weights)
            pred = np.argmax(l2_normalize(removed) @ wn.T, axis=1)
            expected = np.repeat(np.arange(task.num_classes), bank.num_styles)
            assert np.mean(pred == expected) >= 0.9

    def test_frozen_backend_untouched(self, task, templates):
        backend = ToyBackend(ToyBackendSpec(seed=2), task.class_names)
        rng = np.random.default_rng(0)
        probes = [rng.standard_normal(32) for _ in range(5)]
        before = [backend.style_text_encode(s).copy() for s in probes]
        train_one_model(task, backend, templates[0], e2e_train_config(epochs=2))
        after = [backend.style_text_encode(s) for s in probes]
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)

    def test_divergence_raises(self, task, templates):
        class NaNBackend(ToyBackend):
            def encode_prompt_rows(self, pattern, class_names, styles, index):
                return super().encode_prompt_rows(pattern, class_names, styles, index) * np.nan

        backend = NaNBackend(ToyBackendSpec(), task.class_names)
        with pytest.raises(TrainingDivergedError):
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
            style_gen=StyleGenConfig(num_styles=12, strategy="random", seed=3),
        )
        backend = CountingBackend(ToyBackendSpec(), task.class_names)
        train_one_model(task, backend, templates[0], cfg)
        assert max(len(rows) for rows in backend.rows) <= cfg.batch_size
        seen = np.concatenate(backend.rows)
        np.testing.assert_array_equal(np.sort(seen), np.arange(task.num_classes * 12))


class TestFusedTrainingStep:
    def test_matches_reference_loop(self, task, templates, e2e_backend):
        # Two epochs of 40 prompts in batches of 16: the trainer's one-pass
        # gate and in-place SGD against the public forward, loss and
        # backward functions with out-of-place momentum.
        cfg = TrainConfig(
            epochs=2, batch_size=16, seed=5,
            style_gen=StyleGenConfig(num_styles=8, strategy="random", seed=5),
        )
        got = train_one_model(task, e2e_backend, templates[0], cfg).checkpoint

        def stream(tag):
            return np.random.default_rng(np.random.SeedSequence([cfg.seed, tag]))

        C = e2e_backend.dim_joint
        remover = remover_init(C, cfg.ratio, stream(_STREAM_REMOVER_INIT))
        head = head_init(task.num_classes, C, stream(_STREAM_HEAD_INIT))
        params = [remover.W1, remover.W2, head.weights]
        velocities = [np.zeros_like(p) for p in params]
        bank = initial_bank(cfg.style_gen, e2e_backend.dim_token)
        for epoch in range(cfg.epochs):
            bank = refresh_bank(bank, cfg.style_gen, epoch)
            probe = encode_probe(e2e_backend, bank)
            feats = encode_grid(e2e_backend, templates[0].pattern, task.class_names, bank.styles)
            flat = build_prompt_set(task, bank, cfg.seed, epoch)
            order = [divmod(j, bank.num_styles) for j in flat]  # (class, style) pairs
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
        held = initial_bank(StyleGenConfig(num_styles=8, strategy="random", seed=9999), 32)
        probe = encode_probe(backend, held)
        tn = l2_normalize(probe.style_text_features)
        feats = np.stack([
            backend.text_encode(templates[0].pattern, n, s)
            for n in task.class_names
            for s in held.styles
        ])

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
        # The scoring norms were computed and checked at load, and cached.
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

    def test_unknown_version(self, trained_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, lambda h: h.update(format_version=999))
        with pytest.raises(CheckpointError, match="999"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            {"format_version": 1, "dim_joint": 64},  # no "arrays"
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
            lambda h: h.update(arrays=5),
            lambda h: h["arrays"][0].pop("shape"),
            lambda h: h["arrays"][0].update(offset="start"),
            lambda h: h["arrays"].__setitem__(0, "W1"),
        ],
        ids=["no-dim_joint", "no-class_names", "no-seed", "arrays-not-list",
             "entry-no-shape", "entry-bad-offset", "entry-not-object"],
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
            ("dim_joint", 0),
            ("dim_token", 2.5),
            ("num_classes", -5),
            ("class_names", 3),
            ("class_names", [1, 2, 3, 4, 5]),
            ("template_id", 5),
            ("template_pattern", None),
            ("backend_tag", [1]),
            ("seed", "x"),
            ("seed", True),
            ("seed", 1.0),
        ],
        ids=["ratio-str", "ratio-bool", "ratio-collapses-bottleneck", "dim_joint-zero",
             "dim_token-float", "num_classes-negative", "class_names-int",
             "class_names-not-str", "template_id-int", "template_pattern-null",
             "backend_tag-list", "seed-str", "seed-bool", "seed-float"],
    )
    def test_bad_header_value_is_typed(self, trained_models, tmp_path, key, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, lambda h: h.update({key: value}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h["arrays"][0].update(offset=-40),
            lambda h: h["arrays"][0].update(shape=[-d for d in h["arrays"][0]["shape"]]),
            lambda h: h["arrays"][2].update(offset=h["arrays"][2]["offset"] + 4),
        ],
        ids=["negative-offset", "negative-dims", "past-the-end"],
    )
    def test_array_outside_body_is_typed(self, trained_models, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, edit)
        with pytest.raises(CheckpointError, match="array manifest"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\0" * 8, b"\0"], ids=["8-zero-bytes", "1-byte"])
    def test_trailing_bytes_after_head_are_typed(self, trained_models, tmp_path, extra):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CheckpointError, match="body is"):
            load_checkpoint(path)

    def test_save_rejects_shapes_that_disagree_with_dims(self, trained_models, tmp_path):
        ckpt = dataclasses.replace(trained_models[0].checkpoint,
                                   dim_joint=trained_models[0].checkpoint.dim_joint * 2)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="array 'W1' has shape"):
            save_checkpoint(ckpt, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: h["arrays"][0].update(offset=1), "array manifest"),
            (lambda h: h["arrays"][1].update(offset=0), "array manifest"),
            (lambda h: h["arrays"][2].update(offset=h["arrays"][2]["offset"] - 4),
             "array manifest"),
            (lambda h: h["arrays"][0].update(offset=2.7), "array manifest"),
            (lambda h: h["arrays"][0].update(offset=0.0), "array manifest"),
            (lambda h: h["arrays"][0].update(offset=False), "array manifest"),
            (lambda h: h["arrays"][0].update(shape=[float(d) for d in h["arrays"][0]["shape"]]),
             "array manifest"),
            (lambda h: h["arrays"][1].update(name="W1"), "array manifest"),
            (lambda h: h["arrays"].append(dict(h["arrays"][2])), "array manifest"),
            (lambda h: h["arrays"][2].update(name="bias"), "array manifest"),
        ],
        ids=["W1-offset-1", "W2-overlaps-W1", "head-overlaps-W2", "offset-float",
             "offset-integral-float", "offset-bool", "shape-floats", "W1-twice", "head-twice",
             "unknown-name"],
    )
    def test_array_not_where_saved_is_typed(self, trained_models, tmp_path, edit, match):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _edit_header(path, edit)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "array, index, value",
        [("W1", 0, np.nan), ("W2", 5, np.inf), ("head", -1, -np.inf)],
        ids=["W1-first-nan", "W2-inf", "head-last-neg-inf"],
    )
    def test_non_finite_weight_is_typed(self, trained_models, tmp_path, array, index, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        header = _read_header(path)
        entry = next(e for e in header["arrays"] if e["name"] == array)
        count = int(np.prod(entry["shape"]))
        at = 12 + int.from_bytes(path.read_bytes()[8:12], "little") + entry["offset"]
        at += 4 * (index % count)
        blob = bytearray(path.read_bytes())
        blob[at : at + 4] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"array '{array}' holds NaN or inf"):
            load_checkpoint(path)

    def test_zero_head_row_is_typed(self, trained_models, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(trained_models[0].checkpoint, path)
        _set_second_head_row(path, 0.0)
        with pytest.raises(CheckpointError, match="zero row"):
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
    entry = next(e for e in _read_header(path)["arrays"] if e["name"] == "head")
    row = np.full(entry["shape"][1], value, dtype="<f4").tobytes()
    blob = bytearray(path.read_bytes())
    at = 12 + int.from_bytes(blob[8:12], "little") + entry["offset"] + len(row)
    blob[at : at + len(row)] = row
    path.write_bytes(bytes(blob))


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
