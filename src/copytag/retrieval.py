"""Nearest-neighbor retrieval over sentence vectors.

The database is embedded once per provider revision, by build_index, and
the index is shared by every caller that asks for it again: the tagger,
the trainer and the sweep. The index owns the dataset it embedded and
keeps every sentence's token rows in one read-only matrix, sentence after
sentence, with the label of each row beside it and the L2-normalized mean
of each sentence's rows as the vector that represents it; sentence k is
index row k. Its rows come from one provider.embed_batch call over the
whole dataset; the hashed embedder's parameters hold each distinct token
window's row, a query's too, until the weights move or MAX_HELD_ROWS is
reached, so a query sums only the windows not held. Queries are exact
cosine scans with deterministic tie-breaking by ascending sentence id. The
index also ranks every token's label window, its labels to the end of
its sentence, in lexicographic order once, so a segment dictionary over
any retrieved set starts from one sort of ranks. A set of retrieved
sentences is a list of row positions into that matrix: its layout,
labels and window ranks are gathered once and its positions grouped by
label type once, and the caller gathers the token rows it scores, so no
neighbor is embedded per query and a kept set holds no embedding rows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .corpus import Dataset, LabeledSequence, Sentence
from .embeddings import embed_sentence

ZERO_NORM = 1e-12

# provider -> the last index built with that provider
_LAST_BUILT: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class NeighborIndex:
    """One vector per sentence of `dataset`, unit norm unless it is zero.

    Row k of `vectors` belongs to sentence id k. `token_rows` holds the
    token embeddings its vector was pooled from: sentence k owns rows
    row_starts[k] to row_starts[k + 1] - 1, and flat_labels[i] is the label
    of the token behind row i. window_ranks[i] ranks the label window of
    row i, flat_labels[i:] up to the end of its sentence, among all the
    index's windows: lexicographic under type ids, a proper prefix first,
    and equal windows share a rank. All five arrays are read-only.
    """

    dataset: Dataset
    vectors: np.ndarray
    provider_tag: str
    token_rows: np.ndarray
    row_starts: np.ndarray
    flat_labels: np.ndarray
    window_ranks: np.ndarray

    def __len__(self) -> int:
        return self.vectors.shape[0]


def build_index(dataset: Dataset, provider) -> NeighborIndex:
    """Embed every sentence of `dataset` into the index's token rows in one
    batch, `provider.embed_batch` (the hashed embedder sums each distinct
    token window once), and mean-pool each sentence's rows into a
    unit-length sentence vector. The index keeps `dataset`, so a neighbor set needs nothing else.

    Zero-norm sentence vectors are stored as-is rather than normalized, so
    query scores them 0. A matrix of the wrong shape or with non-finite
    entries is rejected, naming the first such sentence, and so is a
    matrix count other than the sentence count.

    The last index built with each provider is kept while the provider
    lives and returned again for the same Dataset object (a frozen one)
    as long as `provider.tag` has not moved, the rule Tagger.analyze
    enforces. A provider that cannot be a weak key (not weakly
    referenceable, or unhashable) always builds.
    """
    try:
        last = _LAST_BUILT.get(provider)
    except TypeError:
        return _embed_dataset(dataset, provider)
    if last is not None and last.dataset is dataset and last.provider_tag == provider.tag:
        return last
    index = _embed_dataset(dataset, provider)
    _LAST_BUILT[provider] = index
    return index


def checked_embedding(provider, sentence: Sentence) -> np.ndarray:
    """`provider.embed(sentence)` as a float matrix, rejected, naming the
    sentence, unless it has one row per token, the provider's width and
    only finite entries."""
    return _checked(provider, sentence, np.array(provider.embed(sentence), dtype=float))


def _checked(provider, sentence: Sentence, matrix: np.ndarray) -> np.ndarray:
    if matrix.shape != (len(sentence), provider.dim):
        raise ValueError(
            f"sentence {sentence.uid}: provider returned shape {matrix.shape}, "
            f"expected {(len(sentence), provider.dim)}"
        )
    if not np.all(np.isfinite(matrix)):
        raise ValueError(
            f"sentence {sentence.uid}: provider returned non-finite embeddings"
        )
    return matrix


def _embed_dataset(dataset: Dataset, provider) -> NeighborIndex:
    if not dataset.items:
        raise ValueError("cannot build an index over an empty dataset")
    row_starts = np.zeros(len(dataset.items) + 1, dtype=np.int64)
    np.cumsum([len(item) for item in dataset.items], out=row_starts[1:])
    sentences = [item.sentence for item in dataset.items]
    token_rows = _checked_rows(provider, sentences, row_starts, provider.embed_batch(sentences))
    vectors = _pooled(token_rows, row_starts)
    # np.linalg.norm of a vector is the square root of its x.dot(x)
    norms = np.sqrt([vec.dot(vec) for vec in vectors])
    # x / 1.0 is x, so a zero-norm vector is kept as it is
    vectors /= np.where(norms < ZERO_NORM, 1.0, norms)[:, np.newaxis]
    flat_labels = np.fromiter(
        chain.from_iterable(item.labels for item in dataset.items),
        dtype=np.int64,
        count=token_rows.shape[0],
    )
    window_ranks = _window_ranks(flat_labels, row_starts)
    for array in (vectors, token_rows, row_starts, flat_labels, window_ranks):
        array.setflags(write=False)
    return NeighborIndex(
        dataset, vectors, provider.tag, token_rows, row_starts, flat_labels, window_ranks
    )


def _checked_rows(
    provider, sentences: list[Sentence], row_starts: np.ndarray, matrices
) -> np.ndarray:
    """The provider's matrices of `sentences`, one after another, as one
    float matrix. The first sentence whose matrix is of the wrong shape or
    holds a non-finite entry is named, with the first of the two faults
    it has, as checking sentence by sentence would; so is a matrix count
    other than the sentence count."""
    if len(matrices) != len(sentences):
        raise ValueError(
            f"provider returned {len(matrices)} matrices for {len(sentences)} sentences"
        )
    matrices = [np.asarray(matrix, dtype=float) for matrix in matrices]
    dim = provider.dim
    # the sentences before `shaped` all have matrices of their shape
    shaped = len(sentences)
    for sid, (sentence, matrix) in enumerate(zip(sentences, matrices)):
        if matrix.shape != (len(sentence), dim):
            shaped = sid
            break
    token_rows = np.empty((int(row_starts[-1]), dim))
    if shaped:
        np.concatenate(matrices[:shaped], out=token_rows[: row_starts[shaped]])
    fault = shaped
    non_finite = np.flatnonzero(~np.isfinite(token_rows[: row_starts[shaped]]).all(axis=1))
    if non_finite.size:
        # the sentence that owns the first non-finite row
        fault = int(np.searchsorted(row_starts, non_finite[0], side="right")) - 1
    if fault < len(sentences):
        _checked(provider, sentences[fault], matrices[fault])
    return token_rows


def _pooled(token_rows: np.ndarray, row_starts: np.ndarray) -> np.ndarray:
    """The mean of every sentence's rows, as embed_sentence takes it, bit
    for bit: numpy's mean over axis 0 adds the rows in order from the
    first, then divides by the count, so here each step adds row p of
    every sentence longer than p at once, sentences sorted longest first
    so those are a prefix. A one-column matrix is a vector to numpy, which
    sums it pairwise instead, so those are pooled sentence by sentence."""
    lengths = np.diff(row_starts)
    if token_rows.shape[1] == 1:
        return np.array([embed_sentence(token_rows[lo:hi]) for lo, hi in zip(row_starts[:-1], row_starts[1:])])
    order = np.argsort(-lengths, kind="stable")
    first = row_starts[:-1][order]
    sums = token_rows[first]
    # live[p]: how many sentences are longer than p
    live = np.searchsorted(-lengths[order], -np.arange(1, int(lengths.max())), side="left")
    for p, m in enumerate(live.tolist(), start=1):
        sums[:m] += token_rows[first[:m] + p]
    vectors = np.empty_like(sums)
    vectors[order] = sums / lengths[order][:, np.newaxis]
    return vectors


def _window_ranks(flat_labels: np.ndarray, row_starts: np.ndarray) -> np.ndarray:
    """Dense lexicographic ranks of every position's label window, by
    prefix doubling (Manber and Myers): ranks of the first h labels pair
    with the ranks h positions on, or with the lowest key past the end of
    the sentence, into the ranks of the first 2h labels. Memory is linear
    in the positions; any integer labels, negative ones too, are ranked.
    The pair keys stay below (n + 1) ** 2, inside int64 for n < 3e9."""
    _, rank = np.unique(flat_labels, return_inverse=True)
    n = rank.size
    ends = np.repeat(row_starts[1:], np.diff(row_starts))
    longest = int(np.diff(row_starts).max())
    h = 1
    while h < longest:
        nxt = np.arange(h, n + h)
        tail = np.where(nxt < ends, rank.take(nxt, mode="clip") + 1, 0)
        _, rank = np.unique(rank * (n + 1) + tail, return_inverse=True)
        h *= 2
    return rank


def query(
    index: NeighborIndex, query_vec: np.ndarray, count: int
) -> list[tuple[int, float]]:
    """Top `count` sentences by cosine, ties broken by ascending id.

    The scan is exact and brute force; an index of fewer than `count`
    sentences yields them all.
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
    top = np.argsort(-scores, kind="stable")[:count]
    return list(zip(top.tolist(), scores[top].tolist()))


@dataclass(frozen=True, eq=False)
class NeighborEntry:
    """One retrieved database sentence."""

    sequence: LabeledSequence


@dataclass(frozen=True, eq=False)
class NeighborSet:
    """Retrieved sentences flattened into one database of label tokens.

    Entry m is sentence ids[m] of `dataset`, the index's. It occupies flat
    positions starts[m] to starts[m + 1] - 1, and entry[i] is the entry of
    flat position i; locate reads a position's (entry, offset) from them.
    flat_labels[i] is the label of position i, rows[i] its row in the
    index's token_rows and window_ranks[i] the index's rank of its label
    window. `token_rows.take(rows, axis=0)`, or the same take from a
    matrix laid out like token_rows, gives the flat neighbor embeddings;
    the set itself holds no embedding rows. type_order, the stable
    argsort of flat_labels, groups the positions by label: type_ids[j],
    the j-th type present, labels the positions
    type_order[type_bounds[j] : type_bounds[j + 1]], in ascending order.
    """

    dataset: Dataset
    ids: np.ndarray
    flat_labels: np.ndarray
    starts: np.ndarray
    entry: np.ndarray
    rows: np.ndarray
    window_ranks: np.ndarray
    type_ids: tuple[int, ...]
    type_order: np.ndarray
    type_bounds: tuple[int, ...]

    @cached_property
    def entries(self) -> tuple[NeighborEntry, ...]:
        return tuple(NeighborEntry(self.dataset.items[sid]) for sid in self.ids.tolist())

    @property
    def n_total(self) -> int:
        return int(self.flat_labels.shape[0])

    def locate(self, pos: int) -> tuple[int, int]:
        """(entry, token offset within it) of flat position `pos`."""
        m = self.entry.item(pos)
        return m, pos - self.starts.item(m)


def assemble_neighbor_set(index: NeighborIndex, ids: Sequence[int]) -> NeighborSet:
    """Lay out the sentences `ids` of the index's dataset as flat positions.

    The set records which of the index's token rows each position is, and
    which entry, and gathers their labels and window ranks. Nothing is
    embedded or copied from the token rows here.
    """
    sids = np.array(ids, dtype=np.int64)
    if sids.size == 0:
        raise ValueError("neighbor set must contain at least one entry")
    unknown = (sids < 0) | (sids >= len(index))
    if unknown.any():
        raise ValueError(f"unknown sentence id {sids[unknown][0]}")
    first = index.row_starts[sids]
    lengths = index.row_starts[sids + 1] - first
    starts = np.zeros(sids.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    entry = np.repeat(np.arange(sids.size), lengths)
    rows = (first - starts[:-1]).take(entry) + np.arange(starts[-1])
    flat_labels = index.flat_labels[rows]
    window_ranks = index.window_ranks[rows]
    type_order = np.argsort(flat_labels, kind="stable")
    grouped = flat_labels[type_order]
    bounds = [0, *(np.flatnonzero(np.diff(grouped)) + 1).tolist(), grouped.size]
    for array in (sids, flat_labels, starts, entry, rows, window_ranks, type_order):
        array.setflags(write=False)
    return NeighborSet(
        index.dataset, sids, flat_labels, starts, entry, rows, window_ranks,
        tuple(grouped[bounds[:-1]].tolist()), type_order, tuple(bounds),
    )
