"""Style vector generation: the five random initializers, StyleMix convex
combinations, and each epoch's bank."""
import hashlib
import re

import numpy as np
import pytest

import dpstyler.styles as styles_mod
from dpstyler.backends import ToyBackend, ToyBackendSpec
from dpstyler.core import seeded_rng
from dpstyler.styles import (
    RANDOM_DISTRIBUTIONS,
    STRATEGIES,
    StyleGenConfig,
    lexicon_for,
    random_style,
    refresh_bank,
    stylemix_style,
)

D = 32


def _lexicon(rng, size=4, dim=D):
    return rng.standard_normal((size, dim))


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

    DRAW_DIGESTS = {
        "normal": "64cddc0c22fa3db525322b29b3f35c48f2fd1edde2f311f203b74e3570b0f65e",
        "xavier_uniform": "e919607c1ddcd349c080f7cd9b4d511796d61aa251a332b2a33dd81977035eea",
        "xavier_normal": "a50712559fc739d76f47360e72ad538e08c85410adca9135066f7e88daac0821",
        "kaiming_normal": "20b4e4dbb9c1e38f6bc00aa516a7b0815ce32ed058e228315265512ef50bf198",
        "kaiming_uniform": "4da18572d35f0fb2d3ed172cb39e0097e7af70cd321938d7564f072543fd32d9",
    }

    @pytest.mark.parametrize("dist", RANDOM_DISTRIBUTIONS)
    def test_draws_are_pinned(self, dist):
        v = random_style(dist, D, seeded_rng(0))
        assert v.dtype == np.float32 and v.shape == (D,)
        assert hashlib.sha256(v.tobytes()).hexdigest() == self.DRAW_DIGESTS[dist]


class TestStylemixStyle:
    def test_convex_hull_bounds_many_draws(self, rng):
        lex = _lexicon(rng)
        lo = lex.min(axis=0) - 1e-6
        hi = lex.max(axis=0) + 1e-6
        draw_rng = np.random.default_rng(8)
        for _ in range(10_000):
            v = stylemix_style(lex, 0.1, draw_rng)
            assert np.all(v >= lo) and np.all(v <= hi)

    def test_weight_sum_is_one(self, rng):
        # With all lexicon vectors equal to a constant c, any unit-sum
        # convex combination returns exactly c; this pins sum(lambda)=1.
        c = rng.standard_normal(D)
        lex = np.tile(c, (3, 1))
        for seed in range(50):
            v = stylemix_style(lex, 0.1, np.random.default_rng(seed))
            np.testing.assert_allclose(v, c, atol=1e-6)

    def test_two_vector_hull_midline(self):
        lex = np.array([[0.0, 0.0], [2.0, 2.0]])
        v = stylemix_style(lex, 0.1, np.random.default_rng(9))
        # Output must sit on the segment between the two lexicon points.
        assert np.all(v >= 0.0) and np.all(v <= 2.0)
        assert v[0] == pytest.approx(v[1], abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_non_positive_alpha_rejected(self, rng, alpha):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            stylemix_style(_lexicon(rng), alpha, np.random.default_rng(0))

    def test_degenerate_weight_draws_raise_after_the_retries(self, rng):
        class ZeroBeta:
            draws = 0

            def beta(self, a, b, size):
                self.draws += 1
                return np.zeros(size)

        gen = ZeroBeta()
        with pytest.raises(ValueError, match="^Beta weight draws degenerate after retries$"):
            stylemix_style(_lexicon(rng), 0.1, gen)
        assert gen.draws == styles_mod.STYLEMIX_RETRIES

    def test_deterministic(self, rng):
        lex = _lexicon(rng)
        a = stylemix_style(lex, 0.1, np.random.default_rng(10))
        b = stylemix_style(lex, 0.1, np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)


class TestRefreshBank:
    def _config(self, strategy, num=8):
        return StyleGenConfig(num_styles=num, strategy=strategy)

    def test_frozen_is_noop(self, rng):
        cfg = self._config("frozen")
        first = refresh_bank(cfg, D, 0, epoch=0)
        out = refresh_bank(cfg, D, 0, epoch=3)
        np.testing.assert_array_equal(out, first)

    def test_bank_shape_and_finite(self, rng):
        lex = _lexicon(rng, size=8)
        for strategy in STRATEGIES:
            out = refresh_bank(self._config(strategy), D, 0, epoch=0, lexicon=lex)
            assert type(out) is np.ndarray
            assert out.dtype == np.float32 and out.shape == (8, D)
            assert np.all(np.isfinite(out))

    def test_bit_identical_under_same_seed(self, rng):
        lex = _lexicon(rng, size=8)
        cfg = self._config("random_mix")
        for epoch in (0, 1, 17):
            a = refresh_bank(cfg, D, 21, epoch, lexicon=lex)
            b = refresh_bank(cfg, D, 21, epoch, lexicon=lex)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_epoch_order_does_not_matter(self, strategy):
        lex = _lexicon(np.random.default_rng(0), size=8)
        cfg = self._config(strategy)
        epochs = list(range(8))
        in_order = {e: refresh_bank(cfg, D, 3, e, lexicon=lex) for e in epochs}
        np.random.default_rng(1).shuffle(epochs)
        for e in epochs:
            bank = refresh_bank(cfg, D, 3, e, lexicon=lex)
            np.testing.assert_array_equal(bank, in_order[e])

    def test_random_mix_coin_frequency(self, rng):
        # Both branches draw from the same (seed, epoch) stream, so each
        # epoch's bank equals exactly one branch's bank: the coin's pick.
        lex = _lexicon(rng, size=8)
        branches = {s: self._config(s, num=1) for s in ("random_mix", "random", "stylemix")}
        hits = 0
        epochs = 10_000
        for epoch in range(epochs):
            mixed, random_bank, stylemix_bank = (
                refresh_bank(cfg, D, 0, epoch, lexicon=lex) for cfg in branches.values()
            )
            is_random = np.array_equal(mixed, random_bank)
            assert is_random != np.array_equal(mixed, stylemix_bank), epoch
            hits += is_random
        assert abs(hits / epochs - 0.5) <= 0.02

    def test_five_distribution_frequency(self, rng, monkeypatch):
        picked = []
        real = random_style

        def spy(dist, dim, r):
            picked.append(dist)
            return real(dist, dim, r)

        monkeypatch.setattr(styles_mod, "random_style", spy)
        cfg = self._config("random", num=10)
        for epoch in range(1000):
            refresh_bank(cfg, D, 0, epoch)
        assert len(picked) >= 10_000
        counts = {d: picked.count(d) for d in styles_mod.RANDOM_DISTRIBUTIONS}
        for dist, n in counts.items():
            assert abs(n / len(picked) - 0.2) <= 0.02, (dist, n)

    def test_consecutive_epochs_change_every_vector(self, rng):
        lex = _lexicon(rng, size=8)
        cfg = self._config("random_mix")
        prev = refresh_bank(cfg, D, 5, 0, lexicon=lex)
        for epoch in range(1, 30):
            cur = refresh_bank(cfg, D, 5, epoch, lexicon=lex)
            deltas = np.abs(cur - prev).max(axis=1)
            assert np.all(deltas > 1e-9)
            prev = cur

    BANK_DIGESTS = {
        "random": "efca2eeb58f44802218761497a9e08710c12ba46ee2da5e2bc7914b5d047f618",
        "stylemix": "b324fd56d8b6df92fad7770b45c78e67a2c54006f8952f7639e2d7e707f5d73d",
        "random_mix": "670e5c9ed5a4d572db8c12d132342456362a48e7ac9861a7f70ccddb54287eb9",
        "frozen": "777a5b311fbf81b455f7874e1593bdcab0a148c186c8a6e5b369f24760f64b46",
    }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_banks_are_pinned(self, strategy):
        # Epochs 0-5, for seeds 0-2, bit for bit.
        lex = _lexicon(np.random.default_rng(0), size=8)
        sha = hashlib.sha256()
        cfg = self._config(strategy)
        for seed in (0, 1, 2):
            for epoch in range(6):
                sha.update(refresh_bank(cfg, D, seed, epoch, lexicon=lex).tobytes())
        assert sha.hexdigest() == self.BANK_DIGESTS[strategy]

    def test_every_strategy_has_a_bank_pin(self):
        assert tuple(self.BANK_DIGESTS) == STRATEGIES

    def test_stylemix_without_lexicon_raises(self):
        with pytest.raises(ValueError, match="requires a lexicon"):
            refresh_bank(self._config("stylemix"), D, 0, 0)

    def test_random_mix_without_lexicon_raises_at_every_epoch(self):
        # Also on the epochs whose coin picks ``random`` (2 and 4 at seed 0).
        for epoch in range(6):
            with pytest.raises(ValueError, match="requires a lexicon"):
                refresh_bank(self._config("random_mix"), D, 0, epoch)


def _lookups(backend, words):
    return np.stack([backend.token_embedding_lookup(w) for w in words])


class TestLexicon:
    def test_load_words_skips_comments(self, task, tmp_path):
        backend = ToyBackend(ToyBackendSpec(), task.class_names)
        p = tmp_path / "lex.txt"
        p.write_text("# comment\nwhite\ncartoon\n\nsketchy\n")
        np.testing.assert_array_equal(lexicon_for(StyleGenConfig(), backend, p),
                                      _lookups(backend, ("white", "cartoon", "sketchy")))

    def test_default_lexicon_has_eight_single_token_words(self, task):
        backend = ToyBackend(ToyBackendSpec(), task.class_names)
        lex = lexicon_for(StyleGenConfig(), backend)
        assert type(lex) is np.ndarray
        assert lex.dtype == np.float32 and lex.shape == (8, backend.dim_token)

    def test_user_lexicon_keeps_file_order_at_any_size(self, task, tmp_path):
        backend = ToyBackend(ToyBackendSpec(), task.class_names)
        p = tmp_path / "lex.txt"
        p.write_text("sketchy\n# comment\nwhite\ncartoon\n")
        np.testing.assert_array_equal(lexicon_for(StyleGenConfig(), backend, p),
                                      _lookups(backend, ("sketchy", "white", "cartoon")))

    def test_wrong_width_rejected_after_the_word_checks(self, task, tmp_path):
        class WideBackend(ToyBackend):
            def token_embedding_lookup(self, word):
                return np.append(super().token_embedding_lookup(word), 0.0)

        backend = WideBackend(ToyBackendSpec(), task.class_names)
        p = tmp_path / "lex.txt"
        p.write_text("white\ncartoon\n")
        with pytest.raises(ValueError, match=r"^token_embedding_lookup returned shape \(2, 33\), "
                                             r"expected \(2, 32\)$"):
            lexicon_for(StyleGenConfig(), backend, p)
        p.write_text("white\n")
        with pytest.raises(ValueError, match="lexicon needs at least 2 entries"):
            lexicon_for(StyleGenConfig(), backend, p)

    @pytest.mark.parametrize("words, message", [
        ("white\nsketchy\nwhite\n", "lexicon labels must be unique"),
        ("white\n", "lexicon needs at least 2 entries"),
    ], ids=["duplicate", "too-small"])
    def test_word_list_faults_name_the_file(self, task, tmp_path, words, message):
        p = tmp_path / "lex.txt"
        p.write_text(words)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {message}$"):
            lexicon_for(StyleGenConfig(), ToyBackend(ToyBackendSpec(), task.class_names), p)

    def test_uneven_lookups_name_the_word(self, task, tmp_path):
        # One short lookup, not NumPy's "inhomogeneous shape" error.
        class ShortWordBackend(ToyBackend):
            def token_embedding_lookup(self, word):
                vector = super().token_embedding_lookup(word)
                return vector[:-1] if word == "cartoon" else vector

        p = tmp_path / "lex.txt"
        p.write_text("white\ncartoon\nsketchy\n")
        message = (f"{p}: token_embedding_lookup returned shape (31,) for 'cartoon' "
                   "but (32,) for 'white'")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lexicon_for(StyleGenConfig(), ShortWordBackend(ToyBackendSpec(), task.class_names), p)

    @pytest.mark.parametrize(
        "value, match",
        [
            (np.nan, "finite"),
            (-np.inf, "finite"),
            # Finite in float64, but inf once StyleMix casts it to float32.
            (1e39, "finite in float32"),
        ],
        ids=["nan", "inf", "float32-overflow"],
    )
    def test_bad_vectors_rejected(self, task, tmp_path, value, match):
        class BadWordBackend(ToyBackend):
            def token_embedding_lookup(self, word):
                vector = super().token_embedding_lookup(word).astype(np.float64)
                if word == "cartoon":
                    vector[1] = value
                return vector

        p = tmp_path / "lex.txt"
        p.write_text("white\ncartoon\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: lexicon vectors must be {match}"):
            lexicon_for(StyleGenConfig(), BadWordBackend(ToyBackendSpec(), task.class_names), p)


class TestStyleGenConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_styles=0),
            dict(num_styles=-1),
            dict(strategy="learned"),
            dict(strategy="gaussian"),
            dict(alpha=0.0),
            dict(alpha=-0.1),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            StyleGenConfig(**kwargs)

    def test_unknown_strategy_lists_the_valid_ones(self):
        with pytest.raises(ValueError, match="valid strategies: " + ", ".join(STRATEGIES)):
            StyleGenConfig(strategy="gaussian")
