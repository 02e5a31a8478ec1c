"""The deterministic toy encoder pair and its synthetic-image format."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dpstyler.backends import (
    ImageDecodeError,
    ToyBackend,
    ToyBackendSpec,
    ToyImage,
    toy_image_load,
    toy_image_save,
    unusable_row,
)
from dpstyler.core import l2_normalize, seeded_rng

from conftest import encode_grid

NAMES = ("cat", "dog", "fish")
TEMPLATE = "a [class] in a S* style"


@pytest.fixture
def backend():
    return ToyBackend(ToyBackendSpec(), NAMES)


def _prompt(backend, pattern, name, style):
    """The one prompt for class ``name`` with ``style`` (or none) at its style token."""
    styles = None if style is None else np.asarray(style)[None]
    return backend.encode_prompt_rows(pattern, (name,), styles, np.arange(1))[0]


class TestTextEncode:
    def test_deterministic(self, backend, rng):
        s = rng.standard_normal(32)
        np.testing.assert_array_equal(
            _prompt(backend, TEMPLATE, "cat", s), _prompt(backend, TEMPLATE, "cat", s)
        )

    def test_distinct_classes_distinct_features(self, backend, rng):
        a, b = encode_grid(backend, TEMPLATE, ("cat", "dog"), rng.standard_normal((1, 32)))[:, 0]
        assert float(l2_normalize(a) @ l2_normalize(b)) < 1 - 1e-3

    def test_zero_style_depends_on_class_only(self, backend):
        a = _prompt(backend, TEMPLATE, "cat", np.zeros(32))
        b = _prompt(backend, "a photo of a [class]", "cat", None)
        # Same class content; different template perturbation only.
        assert float(l2_normalize(a) @ l2_normalize(b)) > 0.9

    def test_missing_style_for_style_slot(self, backend):
        with pytest.raises(ValueError):
            _prompt(backend, TEMPLATE, "cat", None)

    def test_wrong_style_length(self, backend):
        with pytest.raises(ValueError):
            _prompt(backend, TEMPLATE, "cat", np.zeros(31))

    def test_output_norm_is_gain(self, backend, rng):
        v = _prompt(backend, TEMPLATE, "cat", rng.standard_normal(32))
        assert np.linalg.norm(v) == pytest.approx(backend.OUTPUT_GAIN, rel=1e-5)

    def test_restart_identical(self, rng):
        s = rng.standard_normal(32)
        a = _prompt(ToyBackend(ToyBackendSpec(seed=4), NAMES), TEMPLATE, "cat", s)
        b = _prompt(ToyBackend(ToyBackendSpec(seed=4), NAMES), TEMPLATE, "cat", s)
        np.testing.assert_array_equal(a, b)


class TestStyleTextEncode:
    def test_deterministic(self, backend, rng):
        s = rng.standard_normal((1, 32))
        np.testing.assert_array_equal(
            backend.encode_style_prompts(s), backend.encode_style_prompts(s)
        )

    def test_equal_styles_equal_features(self, backend, rng):
        s = rng.standard_normal((1, 32))
        np.testing.assert_array_equal(
            backend.encode_style_prompts(s), backend.encode_style_prompts(s.copy())
        )

    def test_four_random_styles_distinct_units(self, backend, rng):
        feats = backend.encode_style_prompts(rng.standard_normal((4, 32)))
        assert feats.shape == (4, 64) and feats.dtype == np.float32
        feats = l2_normalize(feats)
        for f in feats:
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-6)
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(feats[i] @ feats[j]) < 1 - 1e-4


def _rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestBatchedEncode:
    """The batched methods against per-prompt calls and a float64 reference."""

    def _styles(self, rng, K=5):
        styles = rng.standard_normal((K, 32)).astype(np.float32)
        styles[2] = 0.0
        return styles

    def test_encode_prompts_matches_one_prompt_calls(self, backend, rng):
        styles = self._styles(rng)
        feats = encode_grid(backend, TEMPLATE, NAMES, styles)
        assert feats.shape == (len(NAMES), len(styles), 64)
        assert feats.dtype == np.float32
        for m, name in enumerate(NAMES):
            for i, style in enumerate(styles):
                assert _rel_err(feats[m, i], _prompt(backend, TEMPLATE, name, style)) < 1e-6

    def test_encode_prompts_matches_float64_reference(self, backend, rng):
        # l2(content(class, template) + strength * V @ l2(style)) * gain,
        # one prompt at a time in float64.
        styles = self._styles(rng)
        feats = encode_grid(backend, TEMPLATE, NAMES, styles)
        V = backend._V.astype(np.float64)
        for m, name in enumerate(NAMES):
            content = backend._content_table("text:" + TEMPLATE, NAMES)[m].astype(np.float64)
            for i, style in enumerate(styles.astype(np.float64)):
                norm = np.linalg.norm(style)
                term = V @ (style / norm) if norm > 0 else 0.0
                feature = content + backend.STYLE_STRENGTH * term
                want = backend.OUTPUT_GAIN * feature / np.linalg.norm(feature)
                assert _rel_err(feats[m, i], want) < 1e-6

    def test_zero_style_row_adds_nothing(self, backend, rng):
        styles = self._styles(rng)
        feats = encode_grid(backend, TEMPLATE, NAMES, styles)
        gain = backend.OUTPUT_GAIN
        for m, name in enumerate(NAMES):
            content = backend._content_table("text:" + TEMPLATE, NAMES)[m]
            assert _rel_err(feats[m, 2], gain * l2_normalize(content)) < 1e-6
        base = backend._style_prompt_base
        assert _rel_err(backend.encode_style_prompts(styles)[2], gain * l2_normalize(base)) < 1e-6

    def test_no_style_slot_gives_one_column(self, backend):
        feats = encode_grid(backend, "a photo of a [class]", NAMES, None)
        assert feats.shape == (len(NAMES), 1, 64)
        for m, name in enumerate(NAMES):
            np.testing.assert_array_equal(
                feats[m, 0], _prompt(backend, "a photo of a [class]", name, None)
            )

    def test_prompt_rows_equal_grid_rows(self, backend, rng):
        styles = self._styles(rng)
        grid = encode_grid(backend, TEMPLATE, NAMES, styles).reshape(-1, 64)
        index = np.array([14, 0, 7, 7, 3])
        rows = backend.encode_prompt_rows(TEMPLATE, NAMES, styles, index)
        assert rows.dtype == np.float32
        assert rows.tobytes() == grid[index].tobytes()
        # A cold backend, which projects the styles afresh, gives the same bits.
        cold = ToyBackend(ToyBackendSpec(), NAMES)
        assert cold.encode_prompt_rows(TEMPLATE, NAMES, styles, index).tobytes() == rows.tobytes()
        assert backend.encode_prompt_rows(TEMPLATE, NAMES, styles, index[:0]).shape == (0, 64)

    def test_style_memo_follows_the_styles(self, backend, rng):
        # Styles changed in place after a call are projected afresh.
        styles = self._styles(rng)
        index = np.arange(len(NAMES) * len(styles))
        backend.encode_style_prompts(styles)
        styles[0] *= -1.0
        got = backend.encode_prompt_rows(TEMPLATE, NAMES, styles, index)
        want = ToyBackend(ToyBackendSpec(), NAMES).encode_prompt_rows(TEMPLATE, NAMES, styles, index)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "index",
        [[-1], [15], [0, 2**40], [0.0, 1.0], [True], [[0, 1]], np.array([1], np.float32)],
        ids=["negative", "at-end", "huge", "float", "bool", "2-d", "float32"],
    )
    def test_bad_prompt_index(self, backend, rng, index):
        with pytest.raises(ValueError, match="prompt index"):
            backend.encode_prompt_rows(TEMPLATE, NAMES, self._styles(rng), index)

    def test_none_styles_for_style_slot(self, backend):
        with pytest.raises(ValueError):
            encode_grid(backend, TEMPLATE, NAMES, None)
        with pytest.raises(ValueError):
            backend.encode_prompt_rows(TEMPLATE, NAMES, None, [0])

    def test_style_dim_mismatch(self, backend, rng):
        with pytest.raises(ValueError):
            encode_grid(backend, TEMPLATE, NAMES, rng.standard_normal((4, 31)))
        with pytest.raises(ValueError):
            backend.encode_prompt_rows(TEMPLATE, NAMES, rng.standard_normal((4, 31)), [0])
        with pytest.raises(ValueError):
            backend.encode_style_prompts(rng.standard_normal((4, 31)))


class TestContentCache:
    """Memoized content vectors change no output and cannot be written through."""

    def _encode(self, backend):
        rng = np.random.default_rng(5)
        styles = rng.standard_normal((4, 32)).astype(np.float32)
        images = [ToyImage(i % len(NAMES), rng.standard_normal(32), 0.8) for i in range(6)]
        return [
            encode_grid(backend, TEMPLATE, NAMES, styles),
            encode_grid(backend, "a photo of a [class]", NAMES, None),
            backend.encode_images(images),
        ]

    def test_cold_and_warm_cache_bitwise_equal(self):
        first = ToyBackend(ToyBackendSpec(), NAMES)
        cold = self._encode(first)
        warm = self._encode(first)
        # A second backend with the same spec, its cache filled in another order.
        second = ToyBackend(ToyBackendSpec(), NAMES)
        second.encode_images([ToyImage(2, np.ones(32)), ToyImage(0, np.ones(32))])
        encode_grid(second, TEMPLATE, NAMES[::-1], np.ones((1, 32)))
        other = self._encode(second)
        for a, b, c in zip(cold, warm, other):
            assert a.dtype == b.dtype == c.dtype == np.float32
            assert a.tobytes() == b.tobytes() == c.tobytes()

    def test_content_direction_is_read_only(self, backend):
        direction = backend.class_content_direction("cat")
        before = direction.copy()
        with pytest.raises(ValueError):
            direction += 1.0
        with pytest.raises(ValueError):
            direction[0] = 0.0
        np.testing.assert_array_equal(backend.class_content_direction("cat"), before)


class TestTokenLookup:
    def test_deterministic_and_distinct(self, backend):
        a = backend.token_embedding_lookup("white")
        b = backend.token_embedding_lookup("white")
        c = backend.token_embedding_lookup("cartoon")
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - c).max() > 1e-6

    def test_restart_identical(self):
        a = ToyBackend(ToyBackendSpec(seed=9), NAMES).token_embedding_lookup("blurry")
        b = ToyBackend(ToyBackendSpec(seed=9), NAMES).token_embedding_lookup("blurry")
        np.testing.assert_array_equal(a, b)

    def test_multi_token_word_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.token_embedding_lookup("two words")


class TestImageEncode:
    def test_deterministic(self, backend, rng):
        img = ToyImage(0, rng.standard_normal(32))
        np.testing.assert_array_equal(backend.encode_images([img]), backend.encode_images([img]))

    def test_class_alignment_100_draws(self, backend, rng):
        text = l2_normalize(encode_grid(backend, "a photo of a [class]", NAMES, None)[:, 0])
        for _ in range(100):
            ci = int(rng.integers(len(NAMES)))
            e = l2_normalize(backend.encode_images([ToyImage(ci, rng.standard_normal(32))])[0])
            cos = text @ e
            assert cos[ci] == cos.max()

    def test_bad_class_index(self, backend, rng):
        with pytest.raises(ImageDecodeError):
            backend.encode_images([ToyImage(7, rng.standard_normal(32))])

    def test_bad_nuisance_length(self, backend, rng):
        with pytest.raises(ImageDecodeError):
            backend.encode_images([ToyImage(0, rng.standard_normal(30))])

    def test_non_toy_input(self, backend):
        with pytest.raises(ImageDecodeError):
            backend.encode_images(["not an image"])

    @pytest.mark.parametrize("shape", [(63,), (64, 1), ()], ids=["short", "2d", "scalar"])
    def test_style_preimage_target_shape(self, backend, shape):
        with pytest.raises(ValueError, match="target shape"):
            backend.style_preimage(np.ones(shape))


class TestEncodeImages:
    """The batched image encoder against per-image calls and a float64 reference."""

    def _images(self, rng, n=9):
        images = [
            ToyImage(i % len(NAMES), rng.standard_normal(32), float(rng.uniform(0.5, 1.0)))
            for i in range(n)
        ]
        images[4] = ToyImage(1, np.zeros(32))  # no style term
        return images

    def _reference(self, backend, image):
        # The per-image formula in float64: l2(strength * content_img(class)
        # + strength_style * V @ l2(nuisance) + noise) * gain, where the
        # noise is seeded by the float32 nuisance bytes and the class index.
        spec, C = backend.spec, backend.spec.dim_joint
        nuisance = np.asarray(image.nuisance, dtype=np.float32)
        feature = image.content_strength * backend.class_content_direction(
            NAMES[image.class_index]
        ).astype(np.float64)
        norm = np.linalg.norm(nuisance.astype(np.float64))
        if norm > 0:
            feature += backend.STYLE_STRENGTH * (
                backend._V.astype(np.float64) @ (nuisance.astype(np.float64) / norm)
            )
        digest = hashlib.sha256(
            nuisance.tobytes() + image.class_index.to_bytes(4, "little")
        ).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        rng = seeded_rng(spec.seed, *words)
        feature += rng.standard_normal(C) * (spec.noise_level / np.sqrt(C))
        return backend.OUTPUT_GAIN * feature / np.linalg.norm(feature)

    def test_matches_float64_reference(self, backend, rng):
        images = self._images(rng)
        feats = backend.encode_images(images)
        assert feats.shape == (len(images), 64)
        assert feats.dtype == np.float32
        for feat, image in zip(feats, images):
            assert _rel_err(feat, self._reference(backend, image)) < 1e-6

    def test_independent_of_batch_mates(self, backend, rng):
        images = self._images(rng)
        others = self._images(np.random.default_rng(1), n=5)
        alone = backend.encode_images(images[:1])[0]
        first = backend.encode_images(images)[0]
        last = backend.encode_images(others + images[:1])[-1]
        assert _rel_err(first, alone) < 1e-6
        assert _rel_err(last, alone) < 1e-6

    def test_zero_feature_stays_zero(self, rng):
        # No content, no style and no noise: that row is zero, its batch mates unchanged.
        backend = ToyBackend(ToyBackendSpec(noise_level=0.0), NAMES)
        images = self._images(rng)
        feats = backend.encode_images(images[:2] + [ToyImage(0, np.zeros(32), 0.0)] + images[2:])
        assert not feats[2].any()
        assert np.delete(feats, 2, axis=0).tobytes() == backend.encode_images(images).tobytes()

    def test_empty_batch(self, backend):
        feats = backend.encode_images([])
        assert feats.shape == (0, 64)
        assert feats.dtype == np.float32

    def test_bad_image_in_batch(self, backend, rng):
        images = self._images(rng) + [ToyImage(7, rng.standard_normal(32))]
        with pytest.raises(ImageDecodeError):
            backend.encode_images(images)


class TestLoadImage:
    def test_round_trip(self, backend, tmp_path, rng):
        img = ToyImage(1, rng.standard_normal(32).astype(np.float32), content_strength=0.6)
        toy_image_save(img, tmp_path / "img.json")
        np.testing.assert_array_equal(
            backend.encode_images([backend.load_image(tmp_path / "img.json")]),
            backend.encode_images([img]),
        )

    @pytest.mark.parametrize(
        "text",
        [
            '{"class_index": 0, "nuisance": [0.5, 0.25]}',
            '{"class_index": 3, "nuisance": [%s]}' % ", ".join(["0.5"] * 32),
            '{"class_index": 0, "nuisance": [0.5, 0.2',
            '{"class_index": 0, "nuisance": [[0.5, 0.25], [0.5, 0.25]], "content_strength": 1}',
        ],
        ids=["short-nuisance", "class-index-out-of-range", "truncated-json", "2d-nuisance"],
    )
    def test_unencodable_record_is_a_decode_error(self, backend, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ImageDecodeError):
            backend.load_image(path)

    @pytest.mark.parametrize(
        "nuisance_head, strength",
        [("NaN", "1.0"), ("Infinity", "1.0"), ("0.5", "NaN"), ("1e300", "1.0"), ("0.5", "1e300")],
        ids=["nan-nuisance", "inf-nuisance", "nan-content-strength", "float32-overflow",
             "content-strength-float32-overflow"],
    )
    def test_non_finite_record_is_a_decode_error(self, backend, tmp_path, nuisance_head, strength):
        # json.load accepts NaN and Infinity; the encoder must not.
        nuisance = ", ".join([nuisance_head] + ["0.5"] * 31)
        path = tmp_path / "bad.json"
        path.write_text(
            '{"class_index": 0, "nuisance": [%s], "content_strength": %s}' % (nuisance, strength)
        )
        with pytest.raises(ImageDecodeError, match="non-finite"):
            backend.load_image(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("class_index", "1.9"), ("class_index", "true"), ("class_index", '"2"'),
            ("content_strength", "-3"), ("content_strength", '"2"'),
            ("content_strength", "false"), ("nuisance", '"0.5"'),
            ("nuisance", "[%s]" % ", ".join(['"1"'] * 32)),
            ("nuisance", "[%s]" % ", ".join(["true", "false"] * 16)),
            ("nuisance", "[%s]" % ", ".join(["1", "true"] + ["0.5"] * 30)),
            ("nuisance", "[%s]" % ", ".join(["0.5"] * 31 + ["null"])),
        ],
        ids=["index-float", "index-bool", "index-str", "strength-negative", "strength-str",
             "strength-bool", "nuisance-str", "nuisance-strs", "nuisance-bools",
             "nuisance-bool-among-numbers", "nuisance-null"],
    )
    def test_mistyped_record_is_a_decode_error(self, backend, tmp_path, field, value):
        record = {"class_index": "1", "nuisance": "[%s]" % ", ".join(["0.5"] * 32),
                  "content_strength": "0.5"} | {field: value}
        path = tmp_path / "bad.json"
        path.write_text("{%s}" % ", ".join(f'"{k}": {v}' for k, v in record.items()))
        with pytest.raises(ImageDecodeError):
            backend.load_image(path)

    def test_integer_values_are_numbers(self, backend, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text('{"class_index": 2, "nuisance": [%s], "content_strength": 0}'
                        % ", ".join(["1"] * 32))
        image = backend.load_image(path)
        assert (image.class_index, image.content_strength) == (2, 0.0)
        assert image.nuisance.dtype == np.float32 and (image.nuisance == 1).all()


# A small alphabet keeps Hypothesis from building full-Unicode tables.
_keys = st.sampled_from(["class_index", "nuisance", "content_strength"]) | st.text("abc", max_size=3)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("0.5e-x", max_size=6),
    lambda inner: st.lists(inner, max_size=34) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=40,
)


def _decodes_or_typed_error(path):
    try:
        assert isinstance(toy_image_load(path), ToyImage)
    except ImageDecodeError:
        pass


class TestToyImageFuzz:
    """Any file content gives a ``ToyImage`` or an ``ImageDecodeError``."""

    @given(data=st.binary(max_size=200))
    def test_arbitrary_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz-bytes.json"
        path.write_bytes(data)
        _decodes_or_typed_error(path)

    @given(record=_json_values)
    @example(record={"class_index": 10**400, "nuisance": [0.5]})
    @example(record={"class_index": 0, "nuisance": [10**400]})
    @example(record={"class_index": 0, "nuisance": [0.5], "content_strength": 10**400})
    def test_arbitrary_json_record(self, tmp_path_factory, record):
        path = tmp_path_factory.getbasetemp() / "fuzz-record.json"
        path.write_text(json.dumps(record))
        _decodes_or_typed_error(path)

    @pytest.mark.parametrize(
        "text",
        ['{"class_index": 1e400, "nuisance": [0.5]}', "[" * 100_000],
        ids=["class-index-overflow", "deep-nesting"],
    )
    def test_escaping_errors_are_decode_errors(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ImageDecodeError):
            toy_image_load(path)


class TestToyImageFormat:
    def test_round_trip(self, tmp_path, rng):
        img = ToyImage(2, rng.standard_normal(32).astype(np.float32), content_strength=0.7)
        path = tmp_path / "img.json"
        toy_image_save(img, path)
        back = toy_image_load(path)
        assert back.class_index == 2
        assert back.content_strength == pytest.approx(0.7)
        np.testing.assert_allclose(back.nuisance, img.nuisance, rtol=1e-6)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ImageDecodeError):
            toy_image_load(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"class_index": 0}')
        with pytest.raises(ImageDecodeError):
            toy_image_load(path)


class TestJointSpaceStructure:
    @pytest.mark.parametrize("M,C", [(4, 16), (8, 32), (16, 64)])
    def test_least_squares_separability(self, M, C):
        # Class signal stays linearly separable up to M=16 with C >= 4M.
        names = tuple(f"c{i}" for i in range(M))
        b = ToyBackend(ToyBackendSpec(dim_joint=C, dim_token=32), names)
        rng = np.random.default_rng(5)
        per = 20
        X = np.concatenate([
            l2_normalize(encode_grid(b, TEMPLATE, (n,), rng.standard_normal((per, 32)))[0])
            for n in names
        ])
        Y = np.repeat(np.eye(M), per, axis=0)
        W, *_ = np.linalg.lstsq(X, Y, rcond=None)
        pred = np.argmax(X @ W, axis=1)
        assert np.all(pred == np.repeat(np.arange(M), per))

    def test_text_image_alignment_gap(self):
        # Matching-class cosine beats non-matching by >= 0.2 on average
        # under the default spec (noise level 0.1).
        b = ToyBackend(ToyBackendSpec(), NAMES)
        text = l2_normalize(encode_grid(b, "a photo of a [class]", NAMES, None)[:, 0])
        rng = np.random.default_rng(6)
        gaps = []
        for _ in range(100):
            ci = int(rng.integers(len(NAMES)))
            e = l2_normalize(b.encode_images([ToyImage(ci, rng.standard_normal(32))])[0])
            cos = text @ e
            gaps.append(cos[ci] - np.delete(cos, ci).mean())
        assert np.mean(gaps) >= 0.2

    def test_max_classes_enforced(self):
        names = tuple(f"c{i}" for i in range(17))
        with pytest.raises(ValueError):
            ToyBackend(ToyBackendSpec(max_classes=16), names)


class TestUnusableRow:
    def test_first_refused_row_and_its_kind(self):
        rows = np.ones((4, 3), dtype=np.float32)
        assert unusable_row("encode_images", rows, (4, 3)) is None
        rows[3, 1] = np.nan
        assert unusable_row("encode_images", rows, (4, 3)) == (3, "non-finite")
        rows[2] = 0.0
        assert unusable_row("encode_images", rows, (4, 3)) == (2, "zero")
        rows[1] = 3e38  # finite, but its norm overflows float32
        assert unusable_row("encode_images", rows, (4, 3)) == (1, "non-finite")
        with pytest.raises(ValueError, match=r"^encode_images returned shape \(4, 3\), "
                                             r"expected \(4, 2\)$"):
            unusable_row("encode_images", rows, (4, 2))
