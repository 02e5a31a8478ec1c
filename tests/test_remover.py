"""Structural and gradient tests for the residual channel-gating head."""
import numpy as np
import pytest

from dpstyler.remover import (
    StyleRemoverParams,
    _sigmoid as remover_sigmoid,
    remover_backward,
    remover_forward,
    remover_init,
)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _zero_params(C, hidden=2):
    return StyleRemoverParams(
        W1=np.zeros((C, hidden)), W2=np.zeros((hidden, C)), ratio=C // hidden
    )


class TestInit:
    def test_shapes(self):
        p = remover_init(64, 16, np.random.default_rng(0))
        assert p.W1.shape == (64, 4)
        assert p.W2.shape == (4, 64)

    def test_collapsed_bottleneck_rejected(self):
        with pytest.raises(ValueError):
            remover_init(4, 8, np.random.default_rng(0))

    def test_deterministic(self):
        a = remover_init(32, 4, np.random.default_rng(3))
        b = remover_init(32, 4, np.random.default_rng(3))
        np.testing.assert_array_equal(a.W1, b.W1)
        np.testing.assert_array_equal(a.W2, b.W2)


class TestForward:
    def test_zero_weights_is_one_point_five(self, rng):
        v = rng.standard_normal(16)
        np.testing.assert_array_equal(remover_forward(v, _zero_params(16)), 1.5 * v)

    def test_zero_coordinates_are_fixed_points(self, rng):
        p = remover_init(16, 4, rng)
        v = rng.standard_normal(16)
        v[[0, 5, 9]] = 0.0
        out = remover_forward(v, p)
        assert np.all(out[[0, 5, 9]] == 0.0)

    def test_a_zero_row_stays_zero(self, rng):
        # Training relies on R(0) = 0: a zero prompt row reaches the loss as a
        # zero row, which refuses it, so clean batches need no row check.
        for _ in range(20):
            p = remover_init(64, 4, rng)
            batch = rng.standard_normal((5, 64)).astype(np.float32)
            batch[2] = 0.0
            out = remover_forward(batch, p)
            np.testing.assert_array_equal(out[2], np.zeros(64, dtype=np.float32))
            assert np.all(out[[0, 1, 3, 4]] != 0)

    def test_sign_preserved_and_gate_bounded(self, rng):
        p = remover_init(32, 8, rng)
        for _ in range(50):
            v = rng.standard_normal(32) * rng.uniform(0.1, 30)
            out = remover_forward(v, p)
            nz = v != 0
            assert np.all(np.sign(out[nz]) == np.sign(v[nz]))
            ratio = np.abs(out[nz]) / np.abs(v[nz])
            # Mathematically the gate lives in the open interval (1, 2);
            # float32 sigmoid saturation can land exactly on the endpoints.
            assert np.all(ratio >= 1.0) and np.all(ratio <= 2.0)
            assert np.linalg.norm(v) < np.linalg.norm(out) < 2 * np.linalg.norm(v)

    def test_hand_computed_example(self):
        # C=2, bottleneck width 1: hidden = relu([1,1]@[[1],[0]]) = [1],
        # gate = sigmoid([1]@[[1,0]]) = [sigma(1), sigma(0)].
        p = StyleRemoverParams(W1=np.array([[1.0], [0.0]]), W2=np.array([[1.0, 0.0]]), ratio=2)
        out = remover_forward(np.array([1.0, 1.0]), p)
        np.testing.assert_allclose(out, [1.731059, 1.5], atol=1e-6)

    def test_batch_equals_rowwise(self, rng):
        p = remover_init(16, 4, rng)
        batch = rng.standard_normal((7, 16))
        out = remover_forward(batch, p)
        for i in range(7):
            np.testing.assert_allclose(out[i], remover_forward(batch[i], p), atol=1e-7)

    def test_dimension_mismatch(self, rng):
        p = remover_init(16, 4, rng)
        with pytest.raises(ValueError):
            remover_forward(rng.standard_normal(15), p)


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_logistic_without_overflow(self, dtype):
        x = np.concatenate([np.linspace(-40, 40, 801), [-1e4, 1e4]]).astype(dtype)
        with np.errstate(over="raise", invalid="raise"):
            got = remover_sigmoid(x.copy())  # it writes over its argument
        # 1 / (1 + e^-x) in float64, via logaddexp so it cannot overflow.
        want = np.exp(-np.logaddexp(0.0, -x.astype(np.float64)))
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.finfo(dtype).eps)


class TestBackward:
    def test_zero_weights_jacobian(self, rng):
        # With W2 = 0 the gate is constant 0.5 with no local W-path slope
        # through the input, so dR/dv = 1.5 I.
        C = 8
        up = rng.standard_normal(C)
        d_v, d_W1, d_W2 = remover_backward(rng.standard_normal(C), _zero_params(C), up)
        np.testing.assert_allclose(d_v, 1.5 * up, atol=1e-7)
        np.testing.assert_array_equal(d_W1, np.zeros_like(d_W1))

    def test_zero_upstream_zero_gradients(self, rng):
        p = remover_init(16, 4, rng)
        v = rng.standard_normal(16)
        d_v, d_W1, d_W2 = remover_backward(v, p, np.zeros(16))
        assert not d_v.any() and not d_W1.any() and not d_W2.any()

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        eps = 1e-6
        for _ in range(100):
            C = int(rng.integers(4, 12))
            hidden = int(rng.integers(1, C))
            p = StyleRemoverParams(
                W1=rng.standard_normal((C, hidden)),
                W2=rng.standard_normal((hidden, C)),
                ratio=max(1, C // hidden),
            )
            v = rng.standard_normal(C)
            up = rng.standard_normal(C)
            d_v, d_W1, d_W2 = remover_backward(v, p, up)

            def loss(vv, W1, W2):
                q = StyleRemoverParams(W1=W1, W2=W2, ratio=p.ratio)
                return float(up @ remover_forward(vv, q))

            for analytic, base, rebuild in (
                (d_v, v, lambda x: loss(x, p.W1, p.W2)),
                (d_W1, p.W1, lambda x: loss(v, x, p.W2)),
                (d_W2, p.W2, lambda x: loss(v, p.W1, x)),
            ):
                flat = base.ravel()
                numeric = np.zeros_like(flat)
                for i in range(flat.size):
                    bump = base.copy().ravel()
                    bump[i] += eps
                    hi = rebuild(bump.reshape(base.shape))
                    bump[i] -= 2 * eps
                    lo = rebuild(bump.reshape(base.shape))
                    numeric[i] = (hi - lo) / (2 * eps)
                denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
                rel = np.abs(analytic.ravel() - numeric).max() / denom
                assert rel < 1e-5

    def test_shape_mismatch(self, rng):
        p = remover_init(16, 4, rng)
        with pytest.raises(ValueError):
            remover_backward(rng.standard_normal(16), p, rng.standard_normal(15))
