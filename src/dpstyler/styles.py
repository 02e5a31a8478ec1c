"""Style word vector generation: each epoch's style bank.

A style bank is a (K, D) float32 array: K vectors in the token-embedding
space (dimension D).  Refresh strategies:

- ``random``: each vector sampled from one of five classic initializer
  distributions (normal, xavier uniform/normal, kaiming normal/uniform),
  picked uniformly per vector.
- ``stylemix``: each vector is a unit-sum Beta-weighted combination of the
  rows of a lexicon: the (L, D) float32 token embeddings of a small list
  of adjectives, as ``lexicon_for`` reads them.
- ``random_mix``: a fair coin per epoch selects Random or StyleMix for
  the whole bank.
- ``frozen``: one ``random`` bank, the same at every epoch.

An epoch's bank is a pure function of (config, dim, seed, epoch): the
coin, the per-epoch draws and the frozen bank each take their own
``core.seeded_rng`` stream of the run's master seed, so any epoch's bank
can be drawn alone, in any order, and is always bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .backends import check_rows
from .core import DEFAULT_DTYPE, DTYPE_MAX, InputError, Stream, seeded_rng

RANDOM_DISTRIBUTIONS = (
    "normal",
    "xavier_uniform",
    "xavier_normal",
    "kaiming_normal",
    "kaiming_uniform",
)

STRATEGIES = ("random", "stylemix", "random_mix", "frozen")
LEXICON_STRATEGIES = ("stylemix", "random_mix")  # the strategies that need a lexicon
STYLEMIX_RETRIES = 16  # Beta weight draws tried before a degenerate (all ~0) draw raises


@dataclass(frozen=True)
class StyleGenConfig:
    num_styles: int = 80
    strategy: str = "random_mix"
    alpha: float = 0.1

    def __post_init__(self):
        if self.num_styles < 1:
            raise ValueError("num_styles must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; "
                             f"valid strategies: {', '.join(STRATEGIES)}")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")


def random_style(dist: str, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one style vector from a named initializer distribution.

    The vector is treated as a (1, dim) weight matrix, i.e. fan_in = dim
    and fan_out = 1.  The scale is the std of a normal or the bound of a
    uniform: 1 for ``normal``, else sqrt(2 / fan) for a normal and
    sqrt(6 / fan) for a uniform, with fan = fan_in + fan_out for Xavier
    and fan_in for Kaiming.
    """
    if dist not in RANDOM_DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {dist!r}")
    fan = dim + 1 if dist.startswith("xavier") else dim
    uniform = dist.endswith("uniform")
    scale = 1.0 if dist == "normal" else np.sqrt((6.0 if uniform else 2.0) / fan)
    v = rng.uniform(-scale, scale, size=dim) if uniform else rng.standard_normal(dim) * scale
    return v.astype(DEFAULT_DTYPE)


def stylemix_style(lexicon: np.ndarray, alpha: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Mix the (L, D) lexicon's rows with unit-sum Beta(alpha, alpha) weights.

    Raw weights are drawn independently per lexicon entry and normalized
    by their sum, so the output lies in the convex hull of the lexicon.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    num = len(lexicon)
    for _ in range(STYLEMIX_RETRIES):
        raw = rng.beta(alpha, alpha, size=num)
        total = raw.sum()
        if total >= 1e-12:
            weights = raw / total
            return (weights @ lexicon).astype(DEFAULT_DTYPE)
    raise InputError("Beta weight draws degenerate after retries")


def _draw(strategy: str, config: StyleGenConfig, dim: int,
          lexicon: np.ndarray | None, rng: np.random.Generator) -> np.ndarray:
    """(K, dim) float32: ``config.num_styles`` vectors drawn by ``strategy``,
    which is ``random`` or ``stylemix``."""
    K = config.num_styles
    if strategy == "random":
        styles = np.empty((K, dim), dtype=DEFAULT_DTYPE)
        for i in range(K):
            dist = RANDOM_DISTRIBUTIONS[rng.integers(len(RANDOM_DISTRIBUTIONS))]
            styles[i] = random_style(dist, dim, rng)
        return styles
    return np.stack([stylemix_style(lexicon, config.alpha, rng) for _ in range(K)])


def refresh_bank(config: StyleGenConfig, dim: int, seed: int, epoch: int,
                 lexicon: np.ndarray | None = None) -> np.ndarray:
    """Epoch ``epoch``'s bank: ``config.num_styles`` vectors, a (K, dim) float32 array.

    A pure function of its arguments: the RNG state comes from (seed,
    epoch) only, and ``frozen`` draws the one ``random`` bank of its own
    stream at every epoch.  The lexicon strategies raise ``ValueError``
    without a lexicon, at every epoch.
    """
    strategy = config.strategy
    if strategy in LEXICON_STRATEGIES and lexicon is None:
        raise ValueError(f"the {strategy} strategy requires a lexicon")
    if strategy == "frozen":
        return _draw("random", config, dim, lexicon, seeded_rng(seed, Stream.STYLE_FROZEN))
    if strategy == "random_mix":
        coin = seeded_rng(seed, Stream.STYLE_COIN, epoch)
        strategy = "random" if coin.integers(2) == 0 else "stylemix"
    return _draw(strategy, config, dim, lexicon, seeded_rng(seed, Stream.STYLE_DRAWS, epoch))


def lexicon_for(config: StyleGenConfig, backend, path=None) -> np.ndarray | None:
    """The (L, D) float32 vectors of the word list at ``path`` (the packaged one
    if None), embedded via ``backend``, if ``config``'s strategy reads a lexicon;
    else None, and no file is opened.

    One adjective per line; '#' starts a comment.  Raises ``InputError`` for
    fewer than 2 words, a repeated word, lookups of differing shapes, vectors
    that are not D wide, or vectors that are not finite in float32, checked
    in that order.
    """
    if config.strategy not in LEXICON_STRATEGIES:
        return None
    source = resources.files("dpstyler") / "data/lexicon.txt" if path is None else Path(path)
    # read_text translates newlines as file iteration does; str.splitlines
    # would also split at form feeds and Unicode line separators.
    try:
        lines = source.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise InputError(f"{source}: {exc}") from exc
    words = [w for w in (line.split("#", 1)[0].strip() for line in lines) if w]
    lookups = [backend.token_embedding_lookup(w) for w in words]
    if len(words) < 2:
        raise InputError(f"{source}: lexicon needs at least 2 entries")
    if len(set(words)) != len(words):
        raise InputError(f"{source}: lexicon labels must be unique")
    shape = np.shape(lookups[0])
    for word, lookup in zip(words, lookups):
        if np.shape(lookup) != shape:
            raise InputError(f"{source}: token_embedding_lookup returned shape {np.shape(lookup)} "
                             f"for {word!r} but {shape} for {words[0]!r}")
    vectors = np.array(lookups)
    check_rows("token_embedding_lookup", vectors, (len(words), backend.dim_token))
    # Finite in float32, the dtype StyleMix mixes into: a convex mix of
    # such vectors then stays finite too.
    if not np.all(np.abs(vectors) <= DTYPE_MAX):
        raise InputError(f"{source}: lexicon vectors must be finite in float32")
    return vectors.astype(DEFAULT_DTYPE, copy=False)
