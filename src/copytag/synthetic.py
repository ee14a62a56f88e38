"""Deterministic corpus generators for tests, demos, and the bundled data.

Two families:

* suffix_corpus: tokens are stem+suffix; the label is the suffix class,
  except that an -ing token directly after an -ous token gets the context
  class. Labels are decidable from a token and its left neighbor, which is
  exactly what a window embedder can learn.
* toy_ner_corpus: templated BIO sentences where every surface string plays
  one role only (a given name is always B-PER, an org head noun always
  I-ORG, and so on), so retrieval plus copying can reach high accuracy.
"""

from __future__ import annotations

import numpy as np

from .corpus import Dataset, build_dataset

SUFFIX_TYPES = {"ing": "ING", "est": "EST", "ion": "ION", "ous": "OUS", "ful": "FUL"}
CONTEXT_TYPE = "CTX"
CONTEXT_TRIGGER = "ous"

# ing and ous are drawn more often so the context pattern (ous then ing)
# shows up enough to be learnable; order matches SUFFIX_TYPES
_SUFFIX_WEIGHTS = (0.28, 0.16, 0.14, 0.28, 0.14)

# One shared stem pool: train and dev splits drawn with different seeds
# still share the pieces tokens are assembled from.
STEM_SEED = 714025

_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"


def _stem_pool(n_stems: int, rng: np.random.Generator) -> list[str]:
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < n_stems:
        n_syllables = 1 + int(rng.integers(0, 2))
        word = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(n_syllables)
        )
        if word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


def suffix_corpus(
    n_sentences: int,
    seed: int,
    n_stems: int = 60,
    min_len: int = 4,
    max_len: int = 9,
) -> Dataset:
    """Random sentences of stem+suffix tokens labeled by the suffix rule."""
    if n_sentences < 1:
        raise ValueError("need at least one sentence")
    if not 1 <= min_len <= max_len:
        raise ValueError("bad sentence length range")
    stems = _stem_pool(n_stems, np.random.default_rng(STEM_SEED))
    rng = np.random.default_rng(seed)
    suffixes = list(SUFFIX_TYPES)
    weights = np.array(_SUFFIX_WEIGHTS)
    rows = []
    for _ in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        chosen = [
            (
                stems[int(rng.integers(len(stems)))],
                suffixes[int(rng.choice(len(suffixes), p=weights))],
            )
            for _ in range(length)
        ]
        tokens = [stem + suffix for stem, suffix in chosen]
        tags = []
        for i, (_, suffix) in enumerate(chosen):
            if suffix == "ing" and i > 0 and chosen[i - 1][1] == CONTEXT_TRIGGER:
                tags.append(CONTEXT_TYPE)
            else:
                tags.append(SUFFIX_TYPES[suffix])
        rows.append((tokens, tags))
    return build_dataset(rows)


_PEOPLE = [
    ("Alice", "Kramer"),
    ("Bruno", "Malik"),
    ("Carla", "Jensen"),
    ("Derek", "Okafor"),
    ("Elena", "Voss"),
    ("Farid", "Nguyen"),
    ("Greta", "Solano"),
    ("Henry", "Ito"),
]

_PLACES = [
    "Camville",
    "Dorston",
    "Eastmere",
    "Felport",
    "Grimsby",
    "Halden",
]

_ORGS = [
    ("Vextra", "Labs"),
    ("Northwind", "Bank"),
    ("Quill", "Press"),
    ("Solara", "Energy"),
    ("Harbor", "Logistics"),
]

# Slots: P person, L place, G org; every literal word is an O token and
# never collides with an entity string.
_TEMPLATES = [
    ("P", "works", "at", "G", "in", "L", "."),
    ("P", "met", "P", "near", "L", "."),
    ("G", "opened", "an", "office", "in", "L", "."),
    ("P", "joined", "G", "last", "spring", "."),
    ("the", "team", "at", "G", "praised", "P", "."),
    ("P", "moved", "from", "L", "to", "L", "."),
    ("analysts", "at", "G", "visited", "L", "."),
    ("P", "and", "P", "founded", "G", "."),
]


def toy_ner_corpus(n_sentences: int, seed: int) -> Dataset:
    """Templated BIO sentences over a closed entity inventory."""
    if n_sentences < 1:
        raise ValueError("need at least one sentence")
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_sentences):
        template = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
        tokens: list[str] = []
        tags: list[str] = []
        for slot in template:
            if slot == "P":
                first, last = _PEOPLE[int(rng.integers(len(_PEOPLE)))]
                tokens += [first, last]
                tags += ["B-PER", "I-PER"]
            elif slot == "L":
                tokens.append(_PLACES[int(rng.integers(len(_PLACES)))])
                tags.append("B-LOC")
            elif slot == "G":
                head, tail = _ORGS[int(rng.integers(len(_ORGS)))]
                tokens += [head, tail]
                tags += ["B-ORG", "I-ORG"]
            else:
                tokens.append(slot)
                tags.append("O")
        rows.append((tokens, tags))
    return build_dataset(rows)

