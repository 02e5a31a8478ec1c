"""Hypersphere arithmetic, shared prompt/task types and atomic file writes."""
import os
import threading

import numpy as np
import pytest

from dpstyler.backends import ImageDecodeError
from dpstyler.config import ConfigError
from dpstyler.core import (
    DegenerateEmbeddingError,
    InputError,
    PromptTemplate,
    TaskDefinition,
    atomic_write,
    cosine_similarity,
    l2_normalize,
    softmax,
)
from dpstyler.trainer import CheckpointError


@pytest.mark.parametrize("error", [ConfigError, CheckpointError, ImageDecodeError])
def test_typed_refusals_are_input_errors_and_value_errors(error):
    # InputError is what the CLI reports as a bad input (exit 2); as a ValueError,
    # each is still caught by a library caller's ``except ValueError``.
    assert issubclass(error, InputError) and issubclass(error, ValueError)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-7)

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize(np.array([1.0, 0.0, 0.0])), [1, 0, 0], atol=1e-7)

    def test_sign_preserved(self):
        np.testing.assert_allclose(l2_normalize(np.array([-2.0, 0.0])), [-1, 0], atol=1e-7)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateEmbeddingError, match="zero row"):
            l2_normalize(np.zeros(4))

    def test_below_threshold_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            l2_normalize(np.full(4, 1e-14))

    def test_zero_row_of_a_batch_rejected(self):
        with pytest.raises(DegenerateEmbeddingError, match="zero row"):
            l2_normalize(np.array([[3.0, 4.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_vector_normalizes_as_a_one_row_batch(self, rng, dtype):
        for _ in range(200):
            v = rng.standard_normal(1024).astype(dtype)
            alone, as_row = l2_normalize(v), l2_normalize(v[None])[0]
            assert alone.dtype == as_row.dtype == dtype
            np.testing.assert_array_equal(alone.view(np.uint8), as_row.view(np.uint8))

    def test_unit_norm_and_idempotent(self, rng):
        for _ in range(20):
            v = rng.standard_normal(16)
            n = l2_normalize(v)
            assert abs(np.linalg.norm(n) - 1.0) < 1e-6
            np.testing.assert_allclose(l2_normalize(n), n, atol=1e-6)


class TestCosineSimilarity:
    def test_identical_direction(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-7)

    def test_arithmetic_example(self):
        # 32 / (sqrt(14) * sqrt(77))
        got = cosine_similarity(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert got == pytest.approx(0.974632, abs=1e-6)

    def test_symmetric(self, rng):
        u, v = rng.standard_normal(8), rng.standard_normal(8)
        assert cosine_similarity(u, v) == pytest.approx(cosine_similarity(v, u), abs=1e-7)

    def test_self_similarity_of_random_units(self, rng):
        for _ in range(10):
            u = l2_normalize(rng.standard_normal(12))
            assert cosine_similarity(u, u) == pytest.approx(1.0, abs=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_zero_vector(self):
        with pytest.raises(DegenerateEmbeddingError):
            cosine_similarity(np.zeros(3), np.ones(3))


class TestSoftmax:
    def test_equal_logits(self):
        np.testing.assert_allclose(softmax(np.array([1.0, 1.0, 1.0])), np.full(3, 1 / 3), atol=1e-7)

    def test_singleton(self):
        np.testing.assert_allclose(softmax(np.array([0.0])), [1.0], atol=1e-7)

    def test_log_three(self):
        np.testing.assert_allclose(softmax(np.array([0.0, np.log(3.0)])), [0.25, 0.75], atol=1e-6)

    def test_shift_invariance(self, rng):
        z = rng.standard_normal(6)
        np.testing.assert_allclose(softmax(z), softmax(z + 17.3), atol=1e-6)

    def test_matches_naive_formula(self, rng):
        z = rng.uniform(-20, 20, size=9)
        naive = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(softmax(z), naive, atol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            softmax(np.array([[0.0, 1.0], [bad, 0.0]]))

    def test_no_overflow_at_large_magnitude(self):
        p = softmax(np.array([1e4, -1e4, 0.0]))
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-6)


class TestTaskDefinition:
    def test_basic(self):
        t = TaskDefinition(("cat", "dog"))
        assert t.num_classes == 2

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            TaskDefinition(("cat", "cat"))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            TaskDefinition(("cat",))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            TaskDefinition(("cat", ""))

    @pytest.mark.parametrize("name", ["cat ", " cat", "cat\n", "\tcat"])
    def test_padded_name_rejected(self, name):
        with pytest.raises(ValueError, match="whitespace"):
            TaskDefinition((name, "dog"))


class TestPromptTemplate:
    def test_valid_pattern(self):
        t = PromptTemplate("a [class] in a S* style")
        assert t.id.startswith("tpl-")

    def test_id_is_stable(self):
        a = PromptTemplate("a [class] in a S* style")
        b = PromptTemplate("a [class] in a S* style")
        assert a.id == b.id

    def test_distinct_patterns_distinct_ids(self):
        a = PromptTemplate("a [class] in a S* style")
        b = PromptTemplate("a S* style of a [class]")
        assert a.id != b.id

    @pytest.mark.parametrize(
        "pattern",
        [
            "no placeholders at all",
            "just a [class]",
            "just a S* style",
            "[class] and [class] with S*",
            "[class] with S* and S*",
        ],
    )
    def test_invalid_patterns(self, pattern):
        with pytest.raises(ValueError):
            PromptTemplate(pattern)


class TestAtomicWrite:
    @pytest.mark.parametrize("mode, payload", [("w", "new text\n"), ("wb", b"\x00new bytes")])
    def test_replaces_on_success(self, tmp_path, mode, payload):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with atomic_write(path, mode) as fh:
            fh.write(payload)
            assert path.read_bytes() == b"old"  # not visible until the block ends
        assert path.read_bytes() == (payload.encode() if mode == "w" else payload)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("previous", [b"previous \xff bytes", None], ids=["replace", "create"])
    def test_exception_mid_write_leaves_previous_file(self, tmp_path, exc, previous):
        path = tmp_path / "out"
        if previous is not None:
            path.write_bytes(previous)
        with pytest.raises(exc):
            with atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                fh.flush()
                raise exc("mid-write")
        if previous is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["out"])

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target"
        target.write_text("old")
        link = tmp_path / "link"
        link.symlink_to(target)
        with atomic_write(link) as fh:
            fh.write("new")
        assert link.is_symlink() and target.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]

    def test_non_regular_file_is_written_in_place(self, tmp_path):
        # A FIFO cannot be replaced by a rename; its reader must get the data.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with atomic_write(fifo, "wb") as fh:
            fh.write(b"through the pipe")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"through the pipe"]
        assert fifo.is_fifo()
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_missing_directory_is_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with atomic_write(tmp_path / "no" / "out"):
                pass
