"""Ensemble fusion, zero-shot baselines, manifests, and evaluation reports."""
import csv
import os
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dpstyler.backends import (
    EncoderBackend,
    ImageDecodeError,
    ToyBackend,
    ToyBackendSpec,
    ToyImage,
    toy_image_load,
    toy_image_save,
)
from dpstyler.config import DEFAULT_TEMPLATES
from dpstyler.core import (DegenerateEmbeddingError, PromptTemplate, TaskDefinition, l2_normalize,
                           row_norms)
from dpstyler.evaluation import (
    _CHUNK,
    ZEROSHOT_PATTERNS,
    DatasetManifest,
    EnsembleBundle,
    ensemble_predict,
    evaluate,
    export_embeddings,
    load_manifest,
    manifest_from_csv,
    manifest_from_directory,
    predict_scores,
    zeroshot_predict,
    zeroshot_predictor,
)
from dpstyler.losses import ClassifierHead
from dpstyler.remover import StyleRemoverParams, remover_forward
from dpstyler.styles import StyleGenConfig, lexicon_for
from dpstyler.toydata import make_toy_dataset
from dpstyler.trainer import Checkpoint, TrainConfig, save_checkpoint, train_one_model


def _checkpoint(weights, C=None, remover=None, rng=None, dtype=np.float32):
    weights = np.asarray(weights, dtype=dtype)
    M, C = weights.shape
    if remover is None:
        remover = StyleRemoverParams(
            W1=np.zeros((C, 1), dtype=np.float32),
            W2=np.zeros((1, C), dtype=np.float32),
            ratio=C,
        )
    return Checkpoint(
        remover=remover,
        head=ClassifierHead(weights=weights),
        template_pattern="a [class] in a S* style",
        class_names=tuple(f"c{i}" for i in range(M)),
        backend_tag="toy",
        dim_token=32,
        seed=0,
    )


class TestPredictScores:
    def test_aligned_head_row_wins(self):
        ckpt = _checkpoint(np.eye(3, 4))
        scores = predict_scores(np.array([1.0, 0, 0, 0]), ckpt)
        assert scores[0] == pytest.approx(1.0, abs=1e-6)
        assert scores.argmax() == 0

    def test_brute_force_cosines(self, rng):
        w = rng.standard_normal((4, 8))
        p = StyleRemoverParams(
            W1=rng.standard_normal((8, 2)), W2=rng.standard_normal((2, 8)), ratio=4
        )
        ckpt = _checkpoint(w, remover=p)
        emb = rng.standard_normal(8)
        scores = predict_scores(emb, ckpt)
        removed = remover_forward(emb.astype(np.float32), p)
        expected = l2_normalize(w.astype(np.float32)) @ l2_normalize(removed)
        np.testing.assert_allclose(scores, expected, atol=1e-5)

    def test_scale_does_not_change_argmax(self, rng):
        ckpt = _checkpoint(rng.standard_normal((5, 8)))
        emb = rng.standard_normal(8)
        a = predict_scores(emb, ckpt)
        assert np.argmax(a) == np.argmax(5.0 * a)

    def test_dimension_mismatch(self, rng):
        ckpt = _checkpoint(rng.standard_normal((3, 8)))
        with pytest.raises(ValueError):
            predict_scores(rng.standard_normal(7), ckpt)

    def test_norm_fold_matches_unit_head_float64(self, rng):
        # Rows of very different norms, so an unfolded row norm would show.
        w = rng.standard_normal((6, 8)) * np.array([[1e-3], [1], [10], [1e3], [0.5], [7]])
        p = StyleRemoverParams(
            W1=rng.standard_normal((8, 2)), W2=rng.standard_normal((2, 8)), ratio=4
        )
        ckpt = Checkpoint(
            remover=p, head=ClassifierHead(weights=w),
            template_pattern="a [class] in a S* style",
            class_names=tuple(f"c{i}" for i in range(6)), backend_tag="toy",
            dim_token=32, seed=0,
        )
        before = w.copy()
        emb = rng.standard_normal(8)
        scores = predict_scores(emb, ckpt)
        expected = l2_normalize(w) @ l2_normalize(remover_forward(emb, p))
        assert scores.dtype == np.float64
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)
        assert ckpt.head.weights is w
        np.testing.assert_array_equal(w, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_norms_equal_the_row_norm_expression(self, rng, dtype):
        W = rng.standard_normal((6, 8)) * np.array([[1e-3], [1], [10], [1e3], [0.5], [7]])
        p = StyleRemoverParams(
            W1=rng.standard_normal((8, 2)).astype(dtype),
            W2=rng.standard_normal((2, 8)).astype(dtype), ratio=4,
        )
        ckpt = _checkpoint(W, remover=p, dtype=dtype)
        W = ckpt.head.weights
        emb = rng.standard_normal(8).astype(dtype)
        want = (W @ l2_normalize(remover_forward(emb, p))) / np.sqrt(np.einsum("mc,mc->m", W, W))
        for _ in range(2):  # both calls read the norms kept at construction
            got = predict_scores(emb, ckpt)
            assert got.dtype == dtype
            assert np.array_equal(got, want)


    def test_zero_head_row_rejected(self):
        # At construction, so no member can score with a zero norm.
        with pytest.raises(DegenerateEmbeddingError, match="nonzero"):
            _checkpoint(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestEnsemblePredict:
    def _patched(self, monkeypatch, score_rows):
        import dpstyler.evaluation as ev

        rows = [np.asarray(r, dtype=float) for r in score_rows]
        calls = {"i": 0}

        def fake_scores(emb, member):
            out = rows[calls["i"] % len(rows)]
            calls["i"] += 1
            return out

        monkeypatch.setattr(ev, "predict_scores", fake_scores)
        ckpt = _checkpoint(np.eye(len(rows[0])))
        return EnsembleBundle(tuple(ckpt for _ in rows), fusion="max"), EnsembleBundle(
            tuple(ckpt for _ in rows), fusion="average"
        )

    def test_spec_example(self, monkeypatch):
        mx, avg = self._patched(monkeypatch, [[0.2, 0.9], [0.95, 0.1]])
        assert ensemble_predict(np.zeros(2), mx) == 0
        assert ensemble_predict(np.zeros(2), avg) == 0

    def test_single_member_equals_argmax(self, rng):
        ckpt = _checkpoint(rng.standard_normal((4, 8)))
        emb = rng.standard_normal(8)
        mx = EnsembleBundle((ckpt,), fusion="max")
        avg = EnsembleBundle((ckpt,), fusion="average")
        expected = int(np.argmax(predict_scores(emb, ckpt)))
        assert ensemble_predict(emb, mx) == expected
        assert ensemble_predict(emb, avg) == expected

    def test_tie_breaks_to_lowest_class(self, monkeypatch):
        mx, avg = self._patched(monkeypatch, [[0.5, 0.5, 0.5]])
        assert ensemble_predict(np.zeros(3), mx) == 0
        assert ensemble_predict(np.zeros(3), avg) == 0

    def test_mismatched_members_rejected(self, rng):
        a = _checkpoint(rng.standard_normal((3, 8)))
        b = _checkpoint(rng.standard_normal((4, 8)))
        with pytest.raises(ValueError):
            EnsembleBundle((a, b), fusion="max")

    def test_empty_bundle_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            EnsembleBundle((), fusion="max")

    def test_members_of_different_widths_rejected(self, rng):
        a = _checkpoint(rng.standard_normal((3, 8)))
        b = _checkpoint(rng.standard_normal((3, 16)))
        with pytest.raises(ValueError, match="joint dimension"):
            EnsembleBundle((a, b), fusion="max")

    def test_invalid_fusion(self, rng):
        ckpt = _checkpoint(rng.standard_normal((3, 8)))
        with pytest.raises(ValueError):
            EnsembleBundle((ckpt,), fusion="median")


class TestZeroshot:
    def test_noiseless_images_classified(self):
        names = ("cat", "dog", "fish")
        b = ToyBackend(ToyBackendSpec(noise_level=0.0), names)
        task = TaskDefinition(names)
        rng = np.random.default_rng(1)
        for mode in ("C", "PC"):
            for ci in range(3):
                emb = b.encode_images([ToyImage(ci, rng.standard_normal(32))])[0]
                assert zeroshot_predict(emb, b, task, mode) == ci

    def test_identical_prompts_tie_to_class_zero(self, monkeypatch):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        task = TaskDefinition(names)
        monkeypatch.setattr(
            b, "encode_prompt_rows",
            lambda pattern, class_names, styles, index: np.ones((len(index), 64), np.float32),
        )
        emb = np.full(64, 0.5)
        assert zeroshot_predict(emb, b, task, "C") == 0

    def test_unknown_prompt_style(self, rng):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        with pytest.raises(ValueError):
            zeroshot_predict(rng.standard_normal(64), b, TaskDefinition(names), "XY")
        with pytest.raises(ValueError, match="prompt_style must be one of"):
            zeroshot_predictor(b, TaskDefinition(names), "XY")

    @pytest.mark.parametrize("style", sorted(ZEROSHOT_PATTERNS))
    def test_per_pass_predictor_matches_per_image_predict(self, task, e2e_backend,
                                                          toy_dataset_root, style):
        predict, pairs = zeroshot_predictor(e2e_backend, task, style), []

        def both(emb):
            pairs.append((predict(emb), zeroshot_predict(emb, e2e_backend, task, style)))
            return pairs[-1][0]

        evaluate(load_manifest(toy_dataset_root), e2e_backend, task, both)
        assert len(pairs) == 200 and len({ours for ours, _ in pairs}) > 1
        assert all(ours == theirs for ours, theirs in pairs)


def _write_toy_tree(root, backend, names, per=2):
    rng = np.random.default_rng(0)
    for domain in ("art", "photo"):
        for ci, name in enumerate(names):
            d = root / domain / name
            d.mkdir(parents=True)
            for i in range(per):
                toy_image_save(ToyImage(ci, rng.standard_normal(32)), d / f"{i}.json")


class TestManifests:
    def test_directory_discovery(self, tmp_path):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        _write_toy_tree(tmp_path, b, names)
        m = manifest_from_directory(tmp_path)
        assert len(m.entries) == 8

    def test_directory_walk_matches_listdir_reference(self, tmp_path):
        names = ("cat", "dog", "eel")
        _write_toy_tree(tmp_path, ToyBackend(ToyBackendSpec(), names), names[:2])
        (tmp_path / "README.txt").write_text("stray file at the root")
        (tmp_path / "art" / "notes.md").write_text("stray file at the domain level")
        (tmp_path / "photo" / "eel").mkdir()  # an empty class directory
        (tmp_path / "photo" / "dog" / "nested").mkdir()  # listed, as any class-dir entry

        def reference(root):
            entries = []
            for domain in sorted(os.listdir(root)):
                domain_dir = os.path.join(root, domain)
                if not os.path.isdir(domain_dir):
                    continue
                for cls in sorted(os.listdir(domain_dir)):
                    cls_dir = os.path.join(domain_dir, cls)
                    if not os.path.isdir(cls_dir):
                        continue
                    for name in sorted(os.listdir(cls_dir)):
                        entries.append((os.path.join(cls_dir, name), domain, cls))
            return tuple(entries)

        for root in (str(tmp_path), str(tmp_path) + os.sep, tmp_path):
            assert manifest_from_directory(root).entries == reference(os.fspath(root))
        assert len(manifest_from_directory(tmp_path).entries) == 9

    def test_csv_manifest(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,domain,class\n/a/x.json,art,cat\n/a/y.json,photo,dog\n")
        m = manifest_from_csv(p)
        assert len(m.entries) == 2

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,dom,label\n/a/x.json,art,cat\n")
        with pytest.raises(ValueError):
            manifest_from_csv(p)

    def test_csv_field_over_the_size_limit(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,domain,class\n" + '"' + "x" * (csv.field_size_limit() + 1) + '",a,b\n')
        with pytest.raises(ValueError, match="m.csv: unreadable manifest at line 2"):
            manifest_from_csv(p)

    def test_load_manifest_dispatch(self, tmp_path):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        _write_toy_tree(tmp_path, b, names)
        assert len(load_manifest(tmp_path).entries) == 8

    def test_a_tree_without_records_names_itself(self, tmp_path):
        (tmp_path / "art" / "cat").mkdir(parents=True)  # a class directory with no file
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}: manifest is empty$"):
            load_manifest(tmp_path)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest(entries=())

    def test_entries_are_sorted(self):
        entries = [(f"/d/{i:02d}.json", "art", ("cat", "dog")[i % 2]) for i in range(12)]
        shuffled = [entries[i] for i in np.random.default_rng(0).permutation(len(entries))]
        assert DatasetManifest(entries=shuffled).entries == tuple(sorted(entries))


class TestCsvManifestFuzz:
    """Any manifest text gives a ``DatasetManifest`` or a ``ValueError``."""

    @given(text=st.text('pathdomincls,"\n\r \x00/', max_size=120)
           | st.text('ab,"\n\r \x00/', max_size=120).map("path,domain,class\n".__add__))
    @example(text='path,domain,class\n"unterminated,a,b')
    def test_arbitrary_text(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            assert isinstance(manifest_from_csv(path), DatasetManifest)
        except ValueError:
            pass


class TestEvaluate:
    def _setup(self, tmp_path, noise=0.0):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(noise_level=noise), names)
        _write_toy_tree(tmp_path, b, names)
        return b, TaskDefinition(names), load_manifest(tmp_path)

    def test_oracle_predictor_scores_100(self, tmp_path):
        b, task, manifest = self._setup(tmp_path)
        report = evaluate(manifest, b, task, lambda e: zeroshot_predict(e, b, task, "PC"))
        assert report.average_accuracy == 100.0
        assert all(v == 100.0 for v in report.per_domain_accuracy.values())
        assert report.decode_errors == 0

    def test_partial_accuracy_arithmetic(self, tmp_path):
        b, task, manifest = self._setup(tmp_path)
        # Force wrong answers on one fixed class: 'dog' images get 'cat'.
        flips = {}

        def predictor(e):
            true = zeroshot_predict(e, b, task, "PC")
            return 0  # always predict cat: 2/4 right per domain

        report = evaluate(manifest, b, task, predictor)
        assert all(v == 50.0 for v in report.per_domain_accuracy.values())
        assert report.average_accuracy == 50.0

    def test_decode_failures_counted(self, tmp_path):
        b, task, manifest = self._setup(tmp_path)
        bad = tmp_path / "art" / "cat" / "0.json"
        bad.write_text("{broken")
        report = evaluate(manifest, b, task, lambda e: zeroshot_predict(e, b, task, "PC"))
        assert report.decode_errors == 1
        assert report.per_domain_counts["art"][1] == 3
        assert report.table().splitlines()[-1] == "decode errors: 1"

    def test_non_finite_records_are_decode_errors(self, tmp_path):
        b, task, manifest = self._setup(tmp_path)
        good = ", ".join(["0.5"] * 32)
        for rel, nuisance, strength in [
            ("art/cat/0.json", "NaN, " + good[5:], "1.0"),
            ("art/dog/1.json", "Infinity, " + good[5:], "1.0"),
            ("photo/cat/1.json", good, "NaN"),
            ("photo/dog/0.json", good, "1e300"),  # beyond float32
        ]:
            (tmp_path / rel).write_text(
                '{"class_index": 0, "nuisance": [%s], "content_strength": %s}'
                % (nuisance, strength)
            )
        seen = []

        def predictor(e):
            seen.append(e)
            return zeroshot_predict(e, b, task, "PC")

        report = evaluate(manifest, b, task, predictor)
        assert report.decode_errors == 4
        assert report.per_domain_counts["art"][1] == 2
        assert report.per_domain_counts["photo"][1] == 2
        assert len(seen) == 4 and all(np.isfinite(e).all() for e in seen)

    def test_row_order_invariance(self, tmp_path):
        b, task, manifest = self._setup(tmp_path)
        flipped = DatasetManifest(entries=tuple(reversed(manifest.entries)))
        fn = lambda e: zeroshot_predict(e, b, task, "PC")
        assert evaluate(manifest, b, task, fn).to_dict() == evaluate(flipped, b, task, fn).to_dict()

    def test_chunked_pass_matches_per_image_loop(self, tmp_path, monkeypatch):
        # More than two chunks, with malformed records on both sides of
        # each chunk boundary: cut-off JSON, a short nuisance and a class
        # index outside the task.
        names = ("cat", "dog", "fish")
        b = ToyBackend(ToyBackendSpec(), names)
        task = TaskDefinition(names)
        rng = np.random.default_rng(3)
        n = 2 * _CHUNK + 20
        bad = {_CHUNK - 1: "cut", _CHUNK: "short", 2 * _CHUNK - 1: "class", 2 * _CHUNK + 1: "cut"}
        for i in range(n):
            domain = ("art", "photo", "sketch")[i % 3]
            path = tmp_path / domain / names[i % 3] / f"{i:04d}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            toy_image_save(ToyImage(i % 3, rng.standard_normal(32)), path)
        manifest = load_manifest(tmp_path)
        entries = sorted(manifest.entries)
        for i, kind in bad.items():
            path = entries[i][0]
            if kind == "cut":
                with open(path) as fh:
                    text = fh.read()
                with open(path, "w") as fh:
                    fh.write(text[: len(text) // 2])
            else:
                image = toy_image_load(path)
                if kind == "short":
                    image = ToyImage(image.class_index, image.nuisance[:-1])
                else:
                    image = ToyImage(len(names), image.nuisance)
                toy_image_save(image, path)

        def predictor(e):
            return int(np.argmax(e[:3]))

        # Reference: one record at a time, each encoded alone.
        correct, total, errors = {}, {}, 0
        for path, domain, cls in entries:
            try:
                embedding = b.encode_images([toy_image_load(path)])[0]
            except ImageDecodeError:
                errors += 1
                continue
            total[domain] = total.get(domain, 0) + 1
            correct[domain] = correct.get(domain, 0) + (predictor(embedding) == names.index(cls))
        assert errors == len(bad)

        calls = {"encode_images": 0}
        encode_images = b.encode_images

        def counting(images):
            calls["encode_images"] += 1
            return encode_images(images)

        monkeypatch.setattr(b, "encode_images", counting)
        report = evaluate(manifest, b, task, predictor)
        assert report.decode_errors == len(bad)
        assert report.per_domain_counts == {d: (correct[d], total[d]) for d in total}
        assert calls["encode_images"] == -(-n // _CHUNK)

    def test_table_renders(self, tmp_path):
        b, task, manifest = self._setup(tmp_path)
        report = evaluate(manifest, b, task, lambda e: zeroshot_predict(e, b, task, "PC"))
        text = report.table()
        assert "average" in text and "art" in text
        assert "decode errors" not in text


class _ShortByOneRow(ToyBackend):
    """A toy backend whose batched encoders return one row fewer than asked for."""

    def encode_images(self, images):
        return super().encode_images(images)[:-1]

    def encode_prompt_rows(self, pattern, class_names, styles, index):
        return super().encode_prompt_rows(pattern, class_names, styles, index)[:-1]


class TestBackendRowCounts:
    def test_evaluate_rejects_a_short_image_batch(self, tmp_path):
        names = ("cat", "dog")
        backend = _ShortByOneRow(ToyBackendSpec(), names)
        _write_toy_tree(tmp_path, backend, names)
        with pytest.raises(ValueError,
                           match=r"encode_images returned shape \(7, 64\), expected \(8, 64\)"):
            evaluate(load_manifest(tmp_path), backend, TaskDefinition(names), lambda e: 0)

    def test_zeroshot_rejects_short_prompt_rows(self, rng):
        names = ("cat", "dog", "fish")
        backend = _ShortByOneRow(ToyBackendSpec(), names)
        with pytest.raises(ValueError, match=r"encode_prompt_rows returned shape \(2, 64\), "
                                             r"expected \(3, 64\)"):
            zeroshot_predict(rng.standard_normal(64), backend, TaskDefinition(names), "PC")


class _AbstractOnly(EncoderBackend):
    """Each abstract method of ``EncoderBackend``, delegated to a ``ToyBackend``; nothing else."""

    def __init__(self, inner):
        self._inner = inner

    dim_joint = property(lambda self: self._inner.dim_joint)
    dim_token = property(lambda self: self._inner.dim_token)

    def encode_prompt_rows(self, pattern, class_names, styles, index):
        return self._inner.encode_prompt_rows(pattern, class_names, styles, index)

    def encode_style_prompts(self, styles):
        return self._inner.encode_style_prompts(styles)

    def load_image(self, path):
        return self._inner.load_image(path)

    def encode_images(self, images):
        return self._inner.encode_images(images)

    def token_embedding_lookup(self, word):
        return self._inner.token_embedding_lookup(word)


class TestAbstractMethodsSuffice:
    """A backend with only the abstract methods runs the whole pipeline, bit for bit."""

    def _run(self, backend, task, manifest, out):
        config = TrainConfig(epochs=3, seed=5,
                             style_gen=StyleGenConfig(num_styles=4, strategy="random_mix"))
        lexicon = lexicon_for(config.style_gen, backend)
        members = []
        for i, pattern in enumerate(DEFAULT_TEMPLATES):
            result = train_one_model(task, backend, PromptTemplate(pattern), config,
                                     lexicon=lexicon)
            save_checkpoint(result.checkpoint, out / f"{i}.ckpt")
            members.append(result.checkpoint)
        bundle = EnsembleBundle(tuple(members))
        reports = [evaluate(manifest, backend, task, lambda e: ensemble_predict(e, bundle))]
        for style in ZEROSHOT_PATTERNS:
            reports.append(evaluate(manifest, backend, task,
                                    lambda e: zeroshot_predict(e, backend, task, style)))
        export_embeddings(manifest, backend, members[0], out / "emb.csv")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return [r.to_dict() for r in reports], files

    def test_the_protocol_is_its_abstract_methods(self):
        # So no inherited method is reached by _AbstractOnly either.
        assert {k for k in vars(EncoderBackend) if not k.startswith("_")} \
            == EncoderBackend.__abstractmethods__

    def test_matches_the_toy_backend(self, tmp_path):
        assert {k for k in vars(_AbstractOnly) if not k.startswith("_")} \
            == EncoderBackend.__abstractmethods__
        names = ("cat", "dog", "fish")
        task = TaskDefinition(names)
        make_toy_dataset(tmp_path / "data", task, ToyBackend(ToyBackendSpec(), names),
                         domains=("art", "photo"), images_per_domain=6, seed=3)
        manifest = load_manifest(tmp_path / "data")
        runs = []
        for backend in (ToyBackend(ToyBackendSpec(), names),
                        _AbstractOnly(ToyBackend(ToyBackendSpec(), names))):
            out = tmp_path / f"out{len(runs)}"
            out.mkdir()
            runs.append(self._run(backend, task, manifest, out))
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == len(DEFAULT_TEMPLATES) + 1


class TestFrozenStateReuse:
    """Head-row norms and toy content vectors are computed once, not per image."""

    NAMES = ("cat", "dog", "fish")

    def _setup(self, tmp_path):
        b = ToyBackend(ToyBackendSpec(), self.NAMES)
        _write_toy_tree(tmp_path, b, self.NAMES)
        rng = np.random.default_rng(4)
        members = tuple(_checkpoint(rng.standard_normal((3, 64))) for _ in range(3))
        return b, TaskDefinition(self.NAMES), load_manifest(tmp_path), EnsembleBundle(members)

    def test_head_row_norms_cached_per_member(self, tmp_path):
        b, task, manifest, bundle = self._setup(tmp_path)
        # Set at construction, read-only, and row_norms' values.
        kept = [m.head_row_norms for m in bundle.members]
        for m, norms in zip(bundle.members, kept):
            assert not norms.flags.writeable
            assert np.array_equal(norms, row_norms(m.head.weights))
        fn = lambda e: ensemble_predict(e, bundle)
        first = evaluate(manifest, b, task, fn)
        second = evaluate(manifest, b, task, fn)
        assert all(m.head_row_norms is norms for m, norms in zip(bundle.members, kept))
        assert first.to_dict() == second.to_dict()
        # predict_scores divides by that array; halving it doubles the scores.
        member, emb = bundle.members[0], np.random.default_rng(5).standard_normal(64)
        want = predict_scores(emb, member)
        member.head_row_norms = kept[0] / 2
        assert np.array_equal(predict_scores(emb, member), 2 * want)

    def test_content_vectors_built_once_per_class(self, tmp_path, monkeypatch):
        import dpstyler.backends as backends

        b, task, manifest, bundle = self._setup(tmp_path)
        bases, perturbations = [], []
        tagged_rng = backends._tagged_rng

        def counting(seed, *parts):
            if parts[0] == "content":
                bases.append(parts[1:])
            elif parts[0] == "pert":
                perturbations.append(parts[1:])
            return tagged_rng(seed, *parts)

        monkeypatch.setattr(backends, "_tagged_rng", counting)
        for _ in range(2):
            evaluate(manifest, b, task, lambda e: ensemble_predict(e, bundle))
        evaluate(manifest, b, task, lambda e: zeroshot_predict(e, b, task, "PC"))
        # 12 images and 3 passes, yet one image vector per class and one
        # text vector per class for the zero-shot prompts.
        text = "text:" + ZEROSHOT_PATTERNS["PC"]
        want = [(tag, name) for tag in ("image", text) for name in self.NAMES]
        assert sorted(perturbations) == sorted(want)
        assert sorted(bases) == sorted((name,) for _, name in want)


class TestExportEmbeddings:
    def test_raw_only(self, tmp_path, rng):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        _write_toy_tree(tmp_path, b, names)
        # Export reads no label space: a decodable record under a label the
        # task lacks is written; a record that fails to decode is counted.
        (tmp_path / "art" / "zebra").mkdir()
        toy_image_save(ToyImage(0, rng.standard_normal(32)), tmp_path / "art" / "zebra" / "0.json")
        (tmp_path / "photo" / "cat" / "broken.json").write_text("not an image")
        out = tmp_path / "emb.csv"
        assert export_embeddings(load_manifest(tmp_path), b, None, out) == (9, 1)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["path", "domain", "class"]
        assert len(rows) == 10
        assert [row[1:3] for row in rows].count(["art", "zebra"]) == 1
        assert not any(row[0].endswith("broken.json") for row in rows)
        assert not any(c.startswith("removed_") for c in rows[0])

    def test_removed_columns_match_remover(self, tmp_path, rng):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        _write_toy_tree(tmp_path, b, names)
        ckpt = _checkpoint(
            rng.standard_normal((2, 64)),
            remover=StyleRemoverParams(
                W1=rng.standard_normal((64, 4)).astype(np.float32),
                W2=rng.standard_normal((4, 64)).astype(np.float32),
                ratio=16,
            ),
        )
        out = tmp_path / "emb.csv"
        export_embeddings(load_manifest(tmp_path), b, ckpt, out)
        with open(out) as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                raw = np.array([float(row[f"raw_{i}"]) for i in range(64)], dtype=np.float32)
                removed = np.array([float(row[f"removed_{i}"]) for i in range(64)])
                np.testing.assert_allclose(
                    removed, remover_forward(raw, ckpt.remover), atol=1e-5
                )

    def test_failure_mid_write_keeps_previous_file(self, tmp_path):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        _write_toy_tree(tmp_path / "data", b, names, per=_CHUNK)  # several chunks
        manifest = load_manifest(tmp_path / "data")
        out = tmp_path / "out"
        out.mkdir()
        target = out / "emb.csv"
        target.write_text("previous export\n")

        class FailsOnSecondChunk(ToyBackend):
            calls = 0

            def encode_images(self, images):
                self.calls += 1
                if self.calls == 2:
                    raise ImageDecodeError("encoder failed mid-pass")
                return super().encode_images(images)

        with pytest.raises(ImageDecodeError):
            export_embeddings(manifest, FailsOnSecondChunk(ToyBackendSpec(), names), None, target)
        assert target.read_text() == "previous export\n"
        assert [p.name for p in out.iterdir()] == ["emb.csv"]
        assert export_embeddings(manifest, b, None, target) == (4 * _CHUNK, 0)
        assert len(target.read_text().splitlines()) == 4 * _CHUNK + 1

    def test_io_error(self, tmp_path):
        names = ("cat", "dog")
        b = ToyBackend(ToyBackendSpec(), names)
        _write_toy_tree(tmp_path, b, names)
        with pytest.raises(OSError):
            export_embeddings(load_manifest(tmp_path), b, None, tmp_path / "no" / "dir" / "x.csv")
