"""Style word vector generation and the per-epoch style bank refresh.

A style bank holds K vectors in the token-embedding space (dimension D).
Refresh strategies:

- ``random``: each vector sampled from one of five classic initializer
  distributions (normal, xavier uniform/normal, kaiming normal/uniform),
  picked uniformly per vector.
- ``stylemix``: each vector is a unit-sum Beta-weighted combination of a
  small predefined adjective lexicon.
- ``random_mix``: a fair coin per epoch selects Random or StyleMix for
  the whole bank.
- ``gaussian``: i.i.d. zero-mean normal with a small std.
- ``frozen``: the bank is never touched after its initial fill.

All draws are reproducible: the RNG streams for the epoch coin and the
per-style draws are derived independently from (seed, epoch), so the
same (config, seed, epoch) always yields a bit-identical bank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .core import DEFAULT_DTYPE

RANDOM_DISTRIBUTIONS = (
    "normal",
    "xavier_uniform",
    "xavier_normal",
    "kaiming_normal",
    "kaiming_uniform",
)

STRATEGIES = ("random", "stylemix", "random_mix", "gaussian", "frozen")

# Stream tags mixed into the seed so each concern gets its own RNG.
_STREAM_COIN = 0
_STREAM_DRAWS = 1
_STREAM_INITIAL = 2


@dataclass(frozen=True)
class PredefinedLexicon:
    """Ordered (adjective, token-embedding vector) pairs used by StyleMix."""

    labels: tuple[str, ...]
    vectors: np.ndarray  # (L, D)

    def __post_init__(self):
        vecs = np.asarray(self.vectors)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "vectors", vecs)
        if len(self.labels) < 2:
            raise ValueError("lexicon needs at least 2 entries")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("lexicon labels must be unique")
        if vecs.ndim != 2 or vecs.shape[0] != len(self.labels):
            raise ValueError("lexicon vectors must be an (L, D) array")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("lexicon vectors must be finite")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class StyleGenConfig:
    num_styles: int = 80
    strategy: str = "random_mix"
    alpha: float = 0.1
    gaussian_std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.num_styles < 1:
            raise ValueError("num_styles must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.gaussian_std <= 0:
            raise ValueError("gaussian_std must be > 0")


@dataclass(frozen=True)
class StyleBank:
    styles: np.ndarray  # (K, D)
    epoch_of_last_refresh: int = -1
    method_of_last_refresh: str = "none"

    def __post_init__(self):
        arr = np.asarray(self.styles)
        object.__setattr__(self, "styles", arr)
        if arr.ndim != 2:
            raise ValueError("styles must be a (K, D) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("style vectors must be finite")

    @property
    def num_styles(self) -> int:
        return self.styles.shape[0]

    @property
    def dim(self) -> int:
        return self.styles.shape[1]


def random_style(dist: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one style vector from a named initializer distribution.

    The vector is treated as a (1, dim) weight matrix, i.e. fan_in = dim
    and fan_out = 1, which fixes the Xavier/Kaiming scales.
    """
    if dist not in RANDOM_DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    fan_in, fan_out = dim, 1
    if dist == "normal":
        v = rng.standard_normal(dim)
    elif dist == "xavier_uniform":
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        v = rng.uniform(-bound, bound, size=dim)
    elif dist == "xavier_normal":
        std = np.sqrt(2.0 / (fan_in + fan_out))
        v = rng.standard_normal(dim) * std
    elif dist == "kaiming_normal":
        std = np.sqrt(2.0 / fan_in)
        v = rng.standard_normal(dim) * std
    else:  # kaiming_uniform
        bound = np.sqrt(6.0 / fan_in)
        v = rng.uniform(-bound, bound, size=dim)
    return v.astype(DEFAULT_DTYPE)


def gaussian_style(dim: int, std: float, rng: np.random.Generator) -> np.ndarray:
    """Draw one style vector i.i.d. normal(0, std^2) per coordinate."""
    if std <= 0:
        raise ValueError("std must be > 0")
    return (rng.standard_normal(dim) * std).astype(DEFAULT_DTYPE)


def stylemix_style(
    lexicon: PredefinedLexicon,
    alpha: float,
    rng: np.random.Generator,
    max_retries: int = 16,
) -> np.ndarray:
    """Mix the lexicon vectors with unit-sum Beta(alpha, alpha) weights.

    Raw weights are drawn independently per lexicon entry and normalized
    by their sum, so the output lies in the convex hull of the lexicon.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    num = len(lexicon)
    for _ in range(max_retries):
        raw = rng.beta(alpha, alpha, size=num)
        total = raw.sum()
        if total >= 1e-12:
            weights = raw / total
            return (weights @ lexicon.vectors).astype(DEFAULT_DTYPE)
    raise ValueError("Beta weight draws degenerate after retries")


def _stream(seed: int, stream: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, epoch]))


def _draw(strategy: str, config: StyleGenConfig, dim: int,
          lexicon: PredefinedLexicon | None, rng: np.random.Generator) -> np.ndarray:
    """``config.num_styles`` style vectors drawn by ``strategy``: (K, dim) float32."""
    K = config.num_styles
    if strategy == "random":
        styles = np.empty((K, dim), dtype=DEFAULT_DTYPE)
        for i in range(K):
            dist = RANDOM_DISTRIBUTIONS[rng.integers(len(RANDOM_DISTRIBUTIONS))]
            styles[i] = random_style(dist, dim, rng)
        return styles
    if strategy == "stylemix":
        if lexicon is None:
            raise ValueError("stylemix draws require a lexicon")
        return np.stack([stylemix_style(lexicon, config.alpha, rng) for _ in range(K)])
    if strategy == "gaussian":
        return np.stack([gaussian_style(dim, config.gaussian_std, rng) for _ in range(K)])
    raise ValueError(f"unknown strategy {strategy!r}")


def refresh_bank(
    bank: StyleBank,
    config: StyleGenConfig,
    epoch: int,
    lexicon: PredefinedLexicon | None = None,
) -> StyleBank:
    """Regenerate all style vectors for a new epoch per the configured strategy.

    ``frozen`` returns the bank unchanged apart from metadata.  The RNG
    state is derived from (config.seed, epoch) only, so refreshes are
    reproducible and independent of call history.
    """
    if config.num_styles != bank.num_styles:
        raise ValueError("bank size does not match config.num_styles")
    strategy = config.strategy
    if strategy == "frozen":
        return replace(bank, epoch_of_last_refresh=epoch, method_of_last_refresh="frozen")

    if strategy == "random_mix":
        coin = _stream(config.seed, _STREAM_COIN, epoch)
        strategy = "random" if coin.integers(2) == 0 else "stylemix"

    styles = _draw(strategy, config, bank.dim, lexicon, _stream(config.seed, _STREAM_DRAWS, epoch))
    return StyleBank(
        styles=styles, epoch_of_last_refresh=epoch, method_of_last_refresh=strategy
    )


def initial_bank(config: StyleGenConfig, dim: int, lexicon: PredefinedLexicon | None = None) -> StyleBank:
    """Build the epoch-(-1) bank; frozen runs keep these vectors forever."""
    strategy = config.strategy if config.strategy in ("stylemix", "gaussian") else "random"
    styles = _draw(strategy, config, dim, lexicon, _stream(config.seed, _STREAM_INITIAL, 0))
    return StyleBank(styles=styles, epoch_of_last_refresh=-1, method_of_last_refresh="initial")


def load_lexicon(backend, path=None) -> PredefinedLexicon:
    """The word list at ``path`` (the packaged one if None), embedded via the backend."""
    if path is None:
        with resources.as_file(resources.files("dpstyler") / "data/lexicon.txt") as packaged:
            words = load_lexicon_words(packaged)
    else:
        words = load_lexicon_words(path)
    vectors = np.stack([backend.token_embedding_lookup(w) for w in words])
    return PredefinedLexicon(labels=tuple(words), vectors=vectors)


def load_lexicon_words(path) -> list[str]:
    """Read a lexicon word list: one adjective per line, '#' comments."""
    words: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            word = line.split("#", 1)[0].strip()
            if word:
                words.append(word)
    if len(words) < 2:
        raise ValueError(f"lexicon file {path} must list at least 2 words")
    return words
