"""Nearest-neighbor retrieval over sentence vectors.

The database is embedded once per provider revision, by build_index, and
the index is shared by every caller that asks for it again: the tagger,
the trainer and the sweep. The index keeps every sentence's token matrix
read-only, next to the L2-normalized mean of its rows that represents the
sentence; index row k is database sentence k. Queries are exact cosine
scans with deterministic tie-breaking by ascending sentence id. Retrieved
sentences are flattened into a single database of label tokens for the
copy model by slicing the kept token matrices; nothing is embedded per
query.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Dataset, LabeledSequence, Sentence
from .embeddings import embed_sentence

ZERO_NORM = 1e-12

# provider -> (dataset, index): the last index built with that provider
_LAST_BUILT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """One vector per database sentence, unit norm unless it is zero.

    Row k belongs to sentence id k. `token_matrices[k]` is the read-only
    token embedding matrix its sentence vector was pooled from.
    """

    vectors: np.ndarray
    provider_tag: str
    token_matrices: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return self.vectors.shape[0]


def build_index(dataset: Dataset, provider) -> NeighborIndex:
    """Embed every sentence once, keeping its token matrix, and mean-pool
    it into a unit-length sentence vector.

    Zero-norm sentence vectors are stored as-is rather than normalized, so
    query scores them 0. A matrix of the wrong width or with non-finite
    entries is rejected, naming the sentence.

    The last index built with each provider is kept while the provider
    lives and returned again for the same Dataset object (a frozen one)
    as long as `provider.tag` has not moved, the rule Tagger.analyze
    enforces. A provider that cannot be a weak key (not weakly
    referenceable, or unhashable) always builds.
    """
    try:
        last_db, last = _LAST_BUILT.get(provider, (None, None))
    except TypeError:
        return _embed_dataset(dataset, provider)
    if last_db is dataset and last.provider_tag == provider.tag:
        return last
    index = _embed_dataset(dataset, provider)
    _LAST_BUILT[provider] = (dataset, index)
    return index


def checked_embedding(provider, sentence: Sentence) -> np.ndarray:
    """`provider.embed(sentence)` as a float matrix, rejected, naming the
    sentence, if it has the wrong width or a non-finite entry."""
    matrix = np.array(provider.embed(sentence), dtype=float)
    if matrix.shape[1] != provider.dim:
        raise ValueError(
            f"sentence {sentence.uid}: provider returned width {matrix.shape[1]}, "
            f"expected {provider.dim}"
        )
    if not np.all(np.isfinite(matrix)):
        raise ValueError(
            f"sentence {sentence.uid}: provider returned non-finite embeddings"
        )
    return matrix


def _embed_dataset(dataset: Dataset, provider) -> NeighborIndex:
    if not dataset.items:
        raise ValueError("cannot build an index over an empty dataset")
    vectors = np.zeros((len(dataset.items), provider.dim))
    matrices = []
    for row, item in enumerate(dataset.items):
        matrix = checked_embedding(provider, item.sentence)
        matrix.setflags(write=False)
        matrices.append(matrix)
        vec = embed_sentence(matrix)
        norm = float(np.linalg.norm(vec))
        vectors[row] = vec if norm < ZERO_NORM else vec / norm
    vectors.setflags(write=False)
    return NeighborIndex(
        vectors=vectors,
        provider_tag=provider.tag,
        token_matrices=tuple(matrices),
    )


def query(
    index: NeighborIndex,
    query_vec: np.ndarray,
    count: int,
    exclude_ids: Iterable[int] = (),
) -> list[tuple[int, float]]:
    """Top `count` sentences by cosine, ties broken by ascending id.

    The scan is exact and brute force. Excluded ids are removed before the
    cut; fewer than `count` survivors (or an empty index after exclusion)
    yields a shorter, possibly empty, result.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    q = np.asarray(query_vec, dtype=float)
    if q.shape != (index.vectors.shape[1],):
        raise ValueError(
            f"query vector has shape {q.shape}, index dimension is "
            f"{index.vectors.shape[1]}"
        )
    norm = float(np.linalg.norm(q))
    if norm < ZERO_NORM:
        scores = np.zeros(len(index))
    else:
        scores = index.vectors @ (q / norm)
    excluded = set(exclude_ids)
    out: list[tuple[int, float]] = []
    for sid in np.argsort(-scores, kind="stable").tolist():
        if sid in excluded:
            continue
        out.append((sid, float(scores[sid])))
        if len(out) == count:
            break
    return out


@dataclass(frozen=True, eq=False)
class NeighborEntry:
    """One retrieved sentence with its labels and token embeddings."""

    sequence: LabeledSequence
    embeddings: np.ndarray


@dataclass(eq=False)
class NeighborSet:
    """Retrieved sentences flattened into one database of label tokens.

    Entry m occupies flat positions starts[m] to starts[m + 1] - 1, so
    flat position i is token i - starts[m] of that entry; flat_labels[i]
    and flat_embeddings[i] describe that token. flat_embeddings stacks the
    entries' matrices anew on every read, so a kept set holds no copy of
    them; an assembled set's matrices are the index's own.
    """

    entries: tuple[NeighborEntry, ...]
    flat_labels: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_entries(cls, entries: Sequence[NeighborEntry]) -> "NeighborSet":
        if not entries:
            raise ValueError("neighbor set must contain at least one entry")
        for m, entry in enumerate(entries):
            if entry.embeddings.shape[0] != len(entry.sequence):
                raise ValueError(
                    f"entry {m}: {entry.embeddings.shape[0]} embedding rows for "
                    f"{len(entry.sequence)} tokens"
                )
        flat_labels = np.concatenate(
            [np.asarray(e.sequence.labels, dtype=np.int64) for e in entries]
        )
        starts = np.zeros(len(entries) + 1, dtype=np.int64)
        np.cumsum([len(e.sequence) for e in entries], out=starts[1:])
        for array in (flat_labels, starts):
            array.setflags(write=False)
        return cls(tuple(entries), flat_labels, starts)

    @property
    def flat_embeddings(self) -> np.ndarray:
        """The entries' token rows stacked in flat order (read-only); read
        it once per use, as each read stacks them again."""
        stacked = np.vstack([e.embeddings for e in self.entries])
        stacked.setflags(write=False)
        return stacked

    @property
    def n_total(self) -> int:
        return int(self.flat_labels.shape[0])


def assemble_neighbor_set(
    dataset: Dataset, ids: Sequence[int], token_matrices: Sequence[np.ndarray]
) -> NeighborSet:
    """Materialize the retrieved sentences from already embedded rows.

    `token_matrices[sid]` is the token matrix of `dataset.items[sid]`,
    normally an index's `token_matrices`; nothing is embedded here.
    """
    if len(token_matrices) != len(dataset.items):
        raise ValueError(
            f"{len(token_matrices)} token matrices for {len(dataset.items)} "
            "sentences; build the index with build_index"
        )
    entries = []
    for sid in ids:
        if not 0 <= sid < len(dataset.items):
            raise ValueError(f"unknown sentence id {sid}")
        entries.append(NeighborEntry(dataset.items[sid], token_matrices[sid]))
    return NeighborSet.from_entries(entries)
