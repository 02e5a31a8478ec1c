"""Style vector generation: the five random initializers, Gaussian draws,
StyleMix convex combinations, and the per-epoch bank refresh."""
import hashlib

import numpy as np
import pytest

import dpstyler.styles as styles_mod
from dpstyler.backends import ToyBackend, ToyBackendSpec
from dpstyler.styles import (
    PredefinedLexicon,
    StyleGenConfig,
    gaussian_style,
    initial_bank,
    load_lexicon,
    load_lexicon_words,
    random_style,
    refresh_bank,
    stylemix_style,
)

D = 32


def _lexicon(rng, size=4, dim=D):
    return PredefinedLexicon(
        labels=tuple(f"w{i}" for i in range(size)),
        vectors=rng.standard_normal((size, dim)),
    )


class TestRandomStyle:
    def test_normal_moments(self):
        rng = np.random.default_rng(1)
        draws = np.concatenate([random_style("normal", 4, rng) for _ in range(25000)])
        assert draws.size == 100_000
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_xavier_uniform_bound(self):
        rng = np.random.default_rng(2)
        bound = np.sqrt(6.0 / 101.0)  # fan_in=100, fan_out=1
        for _ in range(50):
            v = random_style("xavier_uniform", 100, rng)
            assert np.all(np.abs(v) <= bound)

    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(3)
        bound = np.sqrt(6.0 / 100.0)
        for _ in range(50):
            v = random_style("kaiming_uniform", 100, rng)
            assert np.all(np.abs(v) <= bound)

    def test_deterministic(self):
        a = random_style("xavier_normal", D, np.random.default_rng(7))
        b = random_style("xavier_normal", D, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            random_style("cauchy", D, np.random.default_rng(0))


class TestGaussianStyle:
    def test_std_estimate(self):
        rng = np.random.default_rng(4)
        v = gaussian_style(100_000, 0.02, rng)
        assert 0.0195 <= v.std() <= 0.0205

    def test_scaling_identity(self):
        scaled = gaussian_style(3, 0.02, np.random.default_rng(5))
        unit = gaussian_style(3, 1.0, np.random.default_rng(5))
        np.testing.assert_allclose(scaled, 0.02 * unit, rtol=1e-6)

    def test_deterministic(self):
        a = gaussian_style(D, 0.02, np.random.default_rng(6))
        b = gaussian_style(D, 0.02, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_nonpositive_std(self):
        with pytest.raises(ValueError):
            gaussian_style(D, 0.0, np.random.default_rng(0))


class TestStylemixStyle:
    def test_convex_hull_bounds_many_draws(self, rng):
        lex = _lexicon(rng)
        lo = lex.vectors.min(axis=0) - 1e-6
        hi = lex.vectors.max(axis=0) + 1e-6
        draw_rng = np.random.default_rng(8)
        for _ in range(10_000):
            v = stylemix_style(lex, 0.1, draw_rng)
            assert np.all(v >= lo) and np.all(v <= hi)

    def test_weight_sum_is_one(self, rng):
        # With all lexicon vectors equal to a constant c, any unit-sum
        # convex combination returns exactly c; this pins sum(lambda)=1.
        c = rng.standard_normal(D)
        lex = PredefinedLexicon(("a", "b", "c"), np.tile(c, (3, 1)))
        for seed in range(50):
            v = stylemix_style(lex, 0.1, np.random.default_rng(seed))
            np.testing.assert_allclose(v, c, atol=1e-6)

    def test_two_vector_hull_midline(self):
        lex = PredefinedLexicon(("lo", "hi"), np.array([[0.0, 0.0], [2.0, 2.0]]))
        v = stylemix_style(lex, 0.1, np.random.default_rng(9))
        # Output must sit on the segment between the two lexicon points.
        assert np.all(v >= 0.0) and np.all(v <= 2.0)
        assert v[0] == pytest.approx(v[1], abs=1e-6)

    def test_deterministic(self, rng):
        lex = _lexicon(rng)
        a = stylemix_style(lex, 0.1, np.random.default_rng(10))
        b = stylemix_style(lex, 0.1, np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)


class TestRefreshBank:
    def _config(self, strategy, seed=0, num=8):
        return StyleGenConfig(num_styles=num, strategy=strategy, seed=seed)

    def test_frozen_is_noop(self, rng):
        cfg = self._config("frozen")
        bank = initial_bank(cfg, D)
        out = refresh_bank(bank, cfg, epoch=3)
        np.testing.assert_array_equal(out.styles, bank.styles)

    def test_bank_shape_and_finite(self, rng):
        lex = _lexicon(rng, size=8)
        for strategy in ("random", "stylemix", "gaussian", "random_mix"):
            cfg = self._config(strategy)
            bank = initial_bank(cfg, D, lexicon=lex)
            out = refresh_bank(bank, cfg, epoch=0, lexicon=lex)
            assert out.styles.shape == (8, D)
            assert np.all(np.isfinite(out.styles))

    def test_bit_identical_under_same_seed(self, rng):
        lex = _lexicon(rng, size=8)
        cfg = self._config("random_mix", seed=21)
        for epoch in (0, 1, 17):
            a = refresh_bank(initial_bank(cfg, D, lexicon=lex), cfg, epoch, lexicon=lex)
            b = refresh_bank(initial_bank(cfg, D, lexicon=lex), cfg, epoch, lexicon=lex)
            np.testing.assert_array_equal(a.styles, b.styles)
            assert a.method_of_last_refresh == b.method_of_last_refresh

    def test_random_mix_coin_frequency(self, rng):
        lex = _lexicon(rng, size=8)
        cfg = self._config("random_mix", num=1)
        bank = initial_bank(cfg, D, lexicon=lex)
        hits = 0
        epochs = 10_000
        for epoch in range(epochs):
            out = refresh_bank(bank, cfg, epoch, lexicon=lex)
            assert out.method_of_last_refresh in ("random", "stylemix")
            hits += out.method_of_last_refresh == "random"
        assert abs(hits / epochs - 0.5) <= 0.02

    def test_five_distribution_frequency(self, rng, monkeypatch):
        picked = []
        real = random_style

        def spy(dist, dim, r):
            picked.append(dist)
            return real(dist, dim, r)

        monkeypatch.setattr(styles_mod, "random_style", spy)
        cfg = self._config("random", num=10)
        bank = initial_bank(cfg, D)
        for epoch in range(1000):
            refresh_bank(bank, cfg, epoch)
        assert len(picked) >= 10_000
        counts = {d: picked.count(d) for d in styles_mod.RANDOM_DISTRIBUTIONS}
        for dist, n in counts.items():
            assert abs(n / len(picked) - 0.2) <= 0.02, (dist, n)

    def test_consecutive_epochs_change_every_vector(self, rng):
        lex = _lexicon(rng, size=8)
        cfg = self._config("random_mix", seed=5)
        bank = initial_bank(cfg, D, lexicon=lex)
        prev = refresh_bank(bank, cfg, 0, lexicon=lex)
        for epoch in range(1, 30):
            cur = refresh_bank(prev, cfg, epoch, lexicon=lex)
            deltas = np.abs(cur.styles - prev.styles).max(axis=1)
            assert np.all(deltas > 1e-9)
            prev = cur

    @pytest.mark.parametrize(
        "strategy, digest",
        [
            ("random", "7db2a608315104fb8ff1f16f24b16a35a1d657a082f7088af11c5fd19fb8a7b6"),
            ("stylemix", "00927d926d941518affef0b9ac4cfccf7c46445d8495a2ea8dc8e5e6390e5c43"),
            ("random_mix", "314abd9485bf5952b8076f9eb11a1c3b2a9d489d2cd5026d1ff9e06857b7d4ad"),
            ("gaussian", "c2b5fa6600ce9c4892adc3b13224b9f68101960a2e8f87a1ab96e94af83cfac7"),
            ("frozen", "958d33bfca8ae0a8a2a23eb5831c2bc8a25f9f6df9c2fbcfe493946d4ee917b1"),
        ],
    )
    def test_banks_are_pinned(self, strategy, digest):
        # The initial bank and 6 refreshes, for seeds 0-2, bit for bit.
        lex = _lexicon(np.random.default_rng(0), size=8)
        sha = hashlib.sha256()
        for seed in (0, 1, 2):
            cfg = self._config(strategy, seed=seed)
            bank = initial_bank(cfg, D, lexicon=lex)
            sha.update(bank.styles.tobytes())
            for epoch in range(6):
                bank = refresh_bank(bank, cfg, epoch, lexicon=lex)
                sha.update(bank.method_of_last_refresh.encode() + bank.styles.tobytes())
        assert sha.hexdigest() == digest

    def test_stylemix_without_lexicon_raises(self):
        cfg = self._config("stylemix")
        with pytest.raises(ValueError, match="lexicon"):
            initial_bank(cfg, D)
        bank = initial_bank(cfg, D, lexicon=_lexicon(np.random.default_rng(0)))
        with pytest.raises(ValueError, match="lexicon"):
            refresh_bank(bank, cfg, 0)

    def test_metadata_updated(self, rng):
        cfg = self._config("gaussian")
        bank = initial_bank(cfg, D)
        out = refresh_bank(bank, cfg, epoch=4)
        assert out.epoch_of_last_refresh == 4
        assert out.method_of_last_refresh == "gaussian"


class TestLexicon:
    def test_load_words_skips_comments(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("# comment\nwhite\ncartoon\n\nsketchy\n")
        assert load_lexicon_words(p) == ["white", "cartoon", "sketchy"]

    def test_default_lexicon_has_eight_single_token_words(self, task):
        backend = ToyBackend(ToyBackendSpec(), task.class_names)
        lex = load_lexicon(backend)
        assert len(lex) == 8
        assert lex.vectors.shape == (8, backend.dim_token)
        assert all(" " not in w for w in lex.labels)

    def test_user_lexicon_keeps_file_order_at_any_size(self, task, tmp_path):
        backend = ToyBackend(ToyBackendSpec(), task.class_names)
        p = tmp_path / "lex.txt"
        p.write_text("sketchy\n# comment\nwhite\ncartoon\n")
        lex = load_lexicon(backend, p)
        assert lex.labels == ("sketchy", "white", "cartoon")
        np.testing.assert_array_equal(
            lex.vectors, np.stack([backend.token_embedding_lookup(w) for w in lex.labels])
        )

    def test_duplicate_labels_rejected(self, rng):
        with pytest.raises(ValueError):
            PredefinedLexicon(("a", "a"), rng.standard_normal((2, D)))

    def test_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            PredefinedLexicon(("a",), rng.standard_normal((1, D)))


class TestStyleGenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_styles=0),
            dict(strategy="learned"),
            dict(alpha=0.0),
            dict(gaussian_std=-1.0),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            StyleGenConfig(**kwargs)
