"""Whole-sentence embedding kernels: the oracle for copytag.embeddings.

One gather and one reduceat over all of a sentence's rows, and one
np.add.at over every token occurrence. The library sums rows in runs of
tokens with contiguous whole-row adds that follow numpy's pairwise order,
and scatters gradients token by token; it must match these bit for bit.
"""

from __future__ import annotations

import numpy as np

from copytag.embeddings import ColumnGrads, TokenColumns


def reference_column_sums(
    storage: np.ndarray, slots: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    return np.add.reduceat(storage[slots], starts, axis=0)


def reference_embed_columns(
    storage: np.ndarray, slots: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    return np.tanh(reference_column_sums(storage, slots, starts))


def reference_backprop_add_at(
    columns: TokenColumns, d_output: np.ndarray, embeddings: np.ndarray
) -> ColumnGrads:
    """Backprop with every token's row spread over its columns and summed
    into the unique columns by one np.add.at."""
    per_token = d_output * (1.0 - embeddings * embeddings)
    spread = np.repeat(per_token, columns.counts, axis=0)
    uniq, first, inverse = np.unique(
        columns.columns, return_index=True, return_inverse=True
    )
    grad = np.zeros((uniq.size, d_output.shape[1]))
    np.add.at(grad, inverse, spread)
    return ColumnGrads(columns=uniq, slots=columns.slots[first], grad=grad)
