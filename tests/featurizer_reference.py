"""Reference oracles: the per-position featurizer and its scalar parts.

token_features is the featurizer copytag.embeddings replaced with its
cache of (offset, token) entries. It hashes every feature of every window
position afresh with the scalar fnv1a64, so tests can require the cached
bucket ids of each token to equal sorted(token_features(...).indices).
seeded_column is one weight column drawn the way its definition says,
from a fresh default_rng([seed, col]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from copytag.corpus import Sentence
from copytag.embeddings import (
    DEFAULT_BUCKETS,
    DEFAULT_WINDOW,
    FNV_OFFSET,
    FNV_PRIME,
    INIT_STD,
    NGRAM_SIZES,
    word_shape,
)

_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str, seed: int = 0) -> int:
    """Seeded 64-bit FNV-1a over the UTF-8 bytes of `text`."""
    h = (FNV_OFFSET ^ seed) & _U64
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & _U64
    return h


def surface_features(token: str) -> list[str]:
    """The features of one surface form, before offset prefixing:
    lowercased identity, shape code, and boundary-padded character
    n-grams, spelled as text."""
    low = token.lower()
    feats = [f"w|{low}", f"s|{word_shape(token)}"]
    padded = f"^{low}$"
    for n in NGRAM_SIZES:
        for i in range(len(padded) - n + 1):
            feats.append(f"g|{padded[i:i + n]}")
    return feats


def seeded_column(seed: int, col: int, dim: int) -> np.ndarray:
    """Column `col`'s initial weights under `seed`."""
    return np.random.default_rng([seed, col]).normal(0.0, INIT_STD, dim)


@dataclass(frozen=True)
class FeatureSet:
    """Hashed feature bucket ids active for one token position."""

    indices: frozenset[int]

    def sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))


def token_features(
    sentence: Sentence,
    position: int,
    window: int = DEFAULT_WINDOW,
    n_buckets: int = DEFAULT_BUCKETS,
    seed: int = 0,
) -> FeatureSet:
    """Bucket ids for the token at `position`, including window context.

    Each neighboring token within `window` contributes its features with
    the signed offset prefixed before hashing, so the same word at offset
    -1 and offset +1 lands in different buckets.
    """
    if not 0 <= position < len(sentence):
        raise ValueError(f"position {position} outside sentence of length {len(sentence)}")
    if window < 0:
        raise ValueError("window must be non-negative")
    if n_buckets < 1:
        raise ValueError("n_buckets must be positive")
    indices: set[int] = set()
    for offset in range(-window, window + 1):
        j = position + offset
        if not 0 <= j < len(sentence):
            continue
        for feat in surface_features(sentence.tokens[j]):
            indices.add(fnv1a64(f"{offset}|{feat}", seed) % n_buckets)
    return FeatureSet(frozenset(indices))
