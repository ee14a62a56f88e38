"""Whole-sentence embedding kernels: the oracle for copytag.embeddings.

One gather and one reduceat over all of a sentence's rows, and one
np.add.at over every token occurrence. The library sums rows in runs of
tokens with contiguous whole-row adds that follow numpy's pairwise order,
and scatters gradients token by token; it must match these bit for bit.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from copytag.embeddings import ColumnGrads


def reference_column_sums(
    storage: np.ndarray, slots: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    return np.add.reduceat(storage[slots], starts, axis=0)


def reference_embed_columns(
    storage: np.ndarray, slots: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    return np.tanh(reference_column_sums(storage, slots, starts))


def flat_entries(entries) -> SimpleNamespace:
    """A sentence's window entries one after another: token t owns
    columns[starts[t] : starts[t] + counts[t]], their storage rows
    slots[...] likewise."""
    ids, slots = zip(*entries)
    counts = np.array([len(i) for i in ids], dtype=np.int64)
    return SimpleNamespace(
        columns=np.concatenate(ids),
        slots=np.concatenate(slots),
        starts=np.cumsum(counts) - counts,
        counts=counts,
    )


def reference_backprop_add_at(
    entries, d_output: np.ndarray, embeddings: np.ndarray
) -> ColumnGrads:
    """Backprop with every token's row spread over the ids of its window
    entry and summed into the unique columns by one np.add.at."""
    columns = flat_entries(entries)
    per_token = d_output * (1.0 - embeddings * embeddings)
    spread = np.repeat(per_token, columns.counts, axis=0)
    uniq, inverse = np.unique(columns.columns, return_inverse=True)
    grad = np.zeros((uniq.size, d_output.shape[1]))
    np.add.at(grad, inverse, spread)
    return ColumnGrads(columns=uniq, grad=grad)
