"""Domain-uncertainty loss, angular-margin classification loss, and the
batched analytic gradients that drive training."""
import numpy as np
import pytest

from dpstyler.core import DegenerateEmbeddingError, l2_normalize, softmax
from dpstyler.losses import (
    ArcFaceConfig,
    ClassifierHead,
    arcface_loss,
    domain_logits,
    domain_uncertainty_loss,
    head_init,
    loss_gradients,
)

COS_CLAMP = 1.0 - 1e-7


def _aligned_head():
    w = np.zeros((2, 4))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    return ClassifierHead(weights=w)


class TestDomainLogits:
    def test_alignment(self):
        probe = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(domain_logits(np.array([1.0, 0.0]), probe), [1.0, 0.0], atol=1e-7)

    def test_scale_invariance(self, rng):
        probe = rng.standard_normal((4, 8))
        f = rng.standard_normal(8)
        np.testing.assert_allclose(domain_logits(f, probe), domain_logits(7.0 * f, probe), atol=1e-6)

    def test_brute_force(self, rng):
        rows = np.stack([l2_normalize(rng.standard_normal(6)) for _ in range(3)])
        f = rows[0] + rows[1]
        expected = rows @ (f / np.linalg.norm(f))
        np.testing.assert_allclose(domain_logits(f, rows), expected, atol=1e-6)
        assert np.all(np.abs(domain_logits(f, rows)) <= 1 + 1e-7)


class TestDomainUncertaintyLoss:
    def test_uniform_k80(self):
        assert domain_uncertainty_loss(np.full(80, 1 / 80)) == pytest.approx(-4.38203, abs=1e-5)

    def test_one_hot(self):
        p = np.zeros(5)
        p[2] = 1.0
        assert domain_uncertainty_loss(p) == 0.0

    def test_arithmetic_example(self):
        assert domain_uncertainty_loss(np.array([0.7, 0.2, 0.1])) == pytest.approx(-0.80182, abs=1e-5)

    def test_range_and_uniform_minimum(self, rng):
        for k in (2, 8, 80):
            uniform_value = -np.log(k)
            for _ in range(50):
                p = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 5))
                val = domain_uncertainty_loss(p)
                assert uniform_value - 1e-6 <= val <= 1e-9
                assert val >= domain_uncertainty_loss(np.full(k, 1 / k)) - 1e-6

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            domain_uncertainty_loss(np.array([1.2, -0.2]))

    def test_off_simplex_rejected(self):
        with pytest.raises(ValueError):
            domain_uncertainty_loss(np.array([0.7, 0.7]))


class TestArcFaceLoss:
    def test_margin_zero_is_cross_entropy(self, rng):
        cfg = ArcFaceConfig(scale=5.0, margin=0.0)
        for _ in range(20):
            head = head_init(4, 8, rng)
            f = rng.standard_normal(8)
            target = int(rng.integers(4))
            loss, logits = arcface_loss(f, head, target, cfg)
            wn = head.weights / np.linalg.norm(head.weights, axis=1, keepdims=True)
            ce_logits = 5.0 * np.clip(wn @ (f / np.linalg.norm(f)), -COS_CLAMP, COS_CLAMP)
            expected = -np.log(softmax(ce_logits)[target])
            assert loss == pytest.approx(expected, abs=1e-6)

    def test_aligned_target_logit(self):
        loss, logits = arcface_loss(
            np.array([1.0, 0, 0, 0]), _aligned_head(), 0, ArcFaceConfig(scale=5.0, margin=0.5)
        )
        # 5*cos(0.5) = 4.38791 up to the cos clamp at 1 - 1e-7, which
        # pulls in a sin term of 5*sin(0.5)*sqrt(2e-7).
        assert logits[0] == pytest.approx(5 * np.cos(0.5), abs=2e-3)
        exact = 5 * (COS_CLAMP * np.cos(0.5) - np.sqrt(1 - COS_CLAMP**2) * np.sin(0.5))
        assert logits[0] == pytest.approx(exact, abs=1e-9)

    def test_aligned_two_class_loss(self):
        loss, _ = arcface_loss(
            np.array([1.0, 0, 0, 0]), _aligned_head(), 0, ArcFaceConfig(scale=5.0, margin=0.5)
        )
        exact_logit = 5 * (COS_CLAMP * np.cos(0.5) - np.sqrt(1 - COS_CLAMP**2) * np.sin(0.5))
        assert loss == pytest.approx(np.log1p(np.exp(-exact_logit)), abs=1e-9)
        assert loss == pytest.approx(0.01234, abs=1e-4)

    def test_margin_only_penalizes(self, rng):
        for _ in range(30):
            head = head_init(3, 6, rng)
            f = rng.standard_normal(6)
            target = int(rng.integers(3))
            with_margin, _ = arcface_loss(f, head, target, ArcFaceConfig(5.0, 0.5))
            without, _ = arcface_loss(f, head, target, ArcFaceConfig(5.0, 0.0))
            assert with_margin >= without - 1e-7

    def test_feature_scale_invariance(self, rng):
        head = head_init(3, 6, rng)
        f = rng.standard_normal(6)
        a, _ = arcface_loss(f, head, 1, ArcFaceConfig(5.0, 0.5))
        b, _ = arcface_loss(123.0 * f, head, 1, ArcFaceConfig(5.0, 0.5))
        assert a == pytest.approx(b, abs=1e-6)

    def test_target_out_of_range(self, rng):
        head = head_init(3, 6, rng)
        with pytest.raises(ValueError):
            arcface_loss(rng.standard_normal(6), head, 3, ArcFaceConfig())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ArcFaceConfig(scale=0.0)
        with pytest.raises(ValueError):
            ArcFaceConfig(margin=4.0)
        with pytest.raises(ValueError, match=r"margin must be in \[0, pi\)"):
            ArcFaceConfig(margin=np.pi)


class TestLossGradients:
    def _random_instance(self, rng, B=4, C=8, K=4, M=3):
        features = rng.standard_normal((B, C))
        probe = l2_normalize(rng.standard_normal((K, C)))
        head = head_init(M, C, rng)
        head = ClassifierHead(weights=head.weights.astype(np.float64))
        targets = rng.integers(M, size=B)
        return features, probe, head, targets

    @staticmethod
    def _assert_matches_finite_differences(features, probe, head, targets, cfg, eps=1e-6):
        breakdown = loss_gradients(features, probe, head, targets, cfg)

        def objective(feats, weights):
            h = ClassifierHead(weights=weights)
            lu = np.mean([
                domain_uncertainty_loss(softmax(domain_logits(f, probe)))
                for f in feats
            ])
            lc = np.mean([
                arcface_loss(f, h, int(t), cfg)[0] for f, t in zip(feats, targets)
            ])
            return lu + lc

        for analytic, base, rebuild in (
            (breakdown.d_features, features, lambda x: objective(x, head.weights)),
            (breakdown.d_head, head.weights, lambda x: objective(features, x)),
        ):
            flat = base.ravel()
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                bump = flat.copy()
                bump[i] += eps
                hi = rebuild(bump.reshape(base.shape))
                bump[i] -= 2 * eps
                lo = rebuild(bump.reshape(base.shape))
                numeric[i] = (hi - lo) / (2 * eps)
            denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
            assert np.abs(analytic.ravel() - numeric).max() / denom < 1e-5
        return breakdown

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        cfg = ArcFaceConfig(5.0, 0.5)
        for _ in range(20):
            self._assert_matches_finite_differences(*self._random_instance(rng), cfg)

    @pytest.mark.parametrize("gap", [0.0, 1e-9], ids=["at-1", "inside-the-clamp"])
    def test_target_cosine_at_plus_and_minus_one(self, rng, gap):
        # One feature parallel and one antiparallel to its target head row (or
        # tilted off it by 1 - |cos| = gap, still inside the clamp band).
        _, probe, head, _ = self._random_instance(rng)
        targets = np.array([0, 2])
        wn = l2_normalize(head.weights[targets])
        tilt = l2_normalize(rng.standard_normal((2, 8)))
        tilt = l2_normalize(tilt - np.sum(tilt * wn, axis=1, keepdims=True) * wn)
        cos = 1.0 - gap
        features = np.array([[3.0], [-2.0]]) * (cos * wn + np.sqrt(1 - cos * cos) * tilt)
        assert np.all(np.abs(np.sum(l2_normalize(features) * wn, axis=1)) > COS_CLAMP)
        cfg = ArcFaceConfig(5.0, 0.5)
        breakdown = self._assert_matches_finite_differences(features, probe, head, targets, cfg)
        oracle = np.mean([arcface_loss(f, head, int(t), cfg)[0] for f, t in zip(features, targets)])
        assert breakdown.loss_classification == pytest.approx(oracle, rel=1e-12)

    def test_zero_margin_single_sample_is_softmax_ce(self, rng):
        cfg = ArcFaceConfig(5.0, 0.0)
        features, probe, head, targets = self._random_instance(rng, B=1)
        breakdown = loss_gradients(features, probe, head, targets, cfg)
        # Closed-form head gradient of CE over s*cos logits for the lone sample.
        f = features[0]
        fn = f / np.linalg.norm(f)
        norms = np.linalg.norm(head.weights, axis=1, keepdims=True)
        wn = head.weights / norms
        cos = np.clip(wn @ fn, -COS_CLAMP, COS_CLAMP)
        p = softmax(5.0 * cos)
        p[targets[0]] -= 1.0
        d_cos = 5.0 * p
        d_head = d_cos[:, None] * (fn[None, :] - cos[:, None] * wn) / norms
        np.testing.assert_allclose(breakdown.d_head, d_head, atol=1e-6)

    def test_uniform_distribution_is_stationary_for_entropy(self):
        # If every domain cosine ties, p is uniform and dL_U/dz vanishes:
        # p_j (log p_j - L_U) = (1/K)(log 1/K - (-log K)) = 0.
        K = 6
        p = np.full(K, 1 / K)
        lu = domain_uncertainty_loss(p)
        grad = p * (np.log(p) - lu)
        np.testing.assert_allclose(grad, np.zeros(K), atol=1e-12)

    def test_batch_order_invariance(self, rng):
        cfg = ArcFaceConfig(5.0, 0.5)
        features, probe, head, targets = self._random_instance(rng, B=6)
        a = loss_gradients(features, probe, head, targets, cfg)
        perm = rng.permutation(6)
        b = loss_gradients(features[perm], probe, head, targets[perm], cfg)
        np.testing.assert_allclose(a.d_features[perm], b.d_features, atol=1e-6)
        np.testing.assert_allclose(a.d_head, b.d_head, atol=1e-6)

    def test_zero_head_row_rejected(self, rng):
        probe = l2_normalize(rng.standard_normal((3, 4)))
        head = ClassifierHead(weights=np.vstack([rng.standard_normal(4), np.zeros(4)]))
        with pytest.raises(DegenerateEmbeddingError, match="head row"):
            loss_gradients(rng.standard_normal((2, 4)), probe, head, np.array([0, 1]),
                           ArcFaceConfig())

    def test_shape_mismatch(self, rng):
        cfg = ArcFaceConfig()
        features, probe, head, targets = self._random_instance(rng)
        with pytest.raises(ValueError):
            loss_gradients(features[:, :4], probe, head, targets, cfg)

    @pytest.mark.parametrize(
        "edit, error, match",
        [
            (lambda f, t: (f[0], t), ValueError, r"features must be \(B, C\)"),
            (lambda f, t: (f, t[:-1]), ValueError, r"targets must be \(B,\)"),
            (lambda f, t: (f, t[:, None]), ValueError, r"targets must be \(B,\)"),
            (lambda f, t: (f, np.where(np.arange(len(t)) == 0, 3, t)), ValueError,
             "target index out of range"),
            (lambda f, t: (f, np.where(np.arange(len(t)) == 0, -1, t)), ValueError,
             "target index out of range"),
            (lambda f, t: (np.vstack([np.zeros(f.shape[1]), f[1:]]), t),
             DegenerateEmbeddingError, "zero-norm feature"),
        ],
        ids=["features-1d", "targets-short", "targets-2d", "target-too-large",
             "target-negative", "zero-feature"],
    )
    def test_malformed_batch_rejected(self, rng, edit, error, match):
        features, probe, head, targets = self._random_instance(rng)
        features, targets = edit(features, targets)
        with pytest.raises(error, match=match):
            loss_gradients(features, probe, head, targets, ArcFaceConfig())

    def test_one_dimensional_head_rejected(self, rng):
        with pytest.raises(ValueError, match=r"head weights must be \(M, C\)"):
            ClassifierHead(weights=rng.standard_normal(4))

    @pytest.mark.parametrize("shape", [(0, 8), (8,)], ids=["empty", "1d"])
    def test_empty_or_one_dimensional_probe_rejected(self, rng, shape):
        features, _, head, targets = self._random_instance(rng)
        with pytest.raises(ValueError, match=r"^probe must be a non-empty \(K, C\) array$"):
            loss_gradients(features, np.ones(shape), head, targets, ArcFaceConfig())

    def test_inputs_left_unchanged(self, rng):
        features, probe, head, targets = self._random_instance(rng, B=6)
        before = (features.copy(), probe.copy(), head.weights.copy())
        loss_gradients(features, probe, head, targets, ArcFaceConfig(5.0, 0.5))
        for was, now in zip(before, (features, probe, head.weights)):
            np.testing.assert_array_equal(was, now)

    def test_float32_in_float32_out(self, rng):
        features, _, _, targets = self._random_instance(rng, B=6)
        probe = l2_normalize(rng.standard_normal((4, 8)).astype(np.float32))
        head = head_init(3, 8, rng)
        out = loss_gradients(
            features.astype(np.float32), probe, head, targets, ArcFaceConfig(5.0, 0.5)
        )
        assert out.d_features.dtype == np.float32
        assert out.d_head.dtype == np.float32
