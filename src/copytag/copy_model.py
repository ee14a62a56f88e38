"""Token-level copy scoring.

Each input token scores every label token in the flattened neighbor
database by inner product with that token's embedding row; the caller
gathers those rows in the neighbor set's flat order. A row softmax turns
the scores into a copy posterior, a read-only matrix of log probabilities.
Collapsing posterior mass by label type gives per-token type marginals,
one column per type present in ascending type id order, and the training
loss is the negative log of the mass placed on positions that carry the
gold type. Both read the one grouping of positions by label type that the
neighbor set holds. All probability arithmetic stays in log space with
max-subtraction; linear probabilities only appear at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .retrieval import NeighborSet


def _logsumexp(values: np.ndarray) -> float:
    top = float(values.max())
    return top + float(np.log(np.exp(values - top).sum()))


def copy_logits(input_embeddings: np.ndarray, neighbor_rows: np.ndarray) -> np.ndarray:
    """Raw copy scores: input rows against the flat neighbor embedding rows."""
    x = np.asarray(input_embeddings, dtype=float)
    if x.ndim != 2:
        raise ValueError("input embeddings must be a 2-d matrix")
    if x.shape[1] != neighbor_rows.shape[1]:
        raise ValueError(
            f"input width {x.shape[1]} does not match neighbor width "
            f"{neighbor_rows.shape[1]}"
        )
    return x @ neighbor_rows.T


def copy_posterior(logits: np.ndarray) -> np.ndarray:
    """Row log-softmax with max-subtraction, read-only; exp rows sum to one up to 1e-9."""
    scores = np.asarray(logits, dtype=float)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError("logits must be a 2-d matrix with at least one column")
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    log_probs.setflags(write=False)
    return log_probs


@dataclass(eq=False)
class MarginalMatrix:
    """Per-token probability of each label type present in the neighbors.

    `type_ids` names the type id behind each column; they ascend strictly,
    so the first column of a row's maximum is its lowest type id.
    """

    probs: np.ndarray
    type_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        ids = self.type_ids
        if any(b <= a for a, b in zip(ids, ids[1:])) or (ids and ids[0] < 0):
            raise ValueError(
                f"type ids must be non-negative and strictly ascending: {ids}"
            )


def marginal_over_types(log_probs: np.ndarray, neighbors: NeighborSet) -> MarginalMatrix:
    """Collapse the copy posterior's log probabilities by label type.

    The neighbor set's stable grouping by label lays each type's columns
    out as one block in flat order. Gathered the way a boolean mask
    gathers them, with the same memory layout, each block's row sum adds
    the same values in the same order as a row sum over that type's masked
    columns, bit for bit.
    """
    if log_probs.shape[1] != neighbors.n_total:
        raise ValueError(
            f"posterior has {log_probs.shape[1]} columns for "
            f"{neighbors.n_total} neighbor tokens"
        )
    bounds = neighbors.type_bounds
    grouped = np.exp(log_probs)[:, neighbors.type_order]
    matrix = np.empty((grouped.shape[0], len(bounds) - 1))
    for col, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        matrix[:, col] = grouped[:, lo:hi].sum(axis=1)
    matrix.setflags(write=False)
    return MarginalMatrix(matrix, neighbors.type_ids)


@dataclass(frozen=True)
class LossReport:
    """Summed negative log-likelihood of the gold types.

    Tokens whose gold type never occurs in the neighbor set cannot be
    scored; they contribute nothing to the sum and are counted in
    `skipped`.
    """

    nll: float
    skipped: int


def _gold_columns(neighbors: NeighborSet, gold: Sequence[int]) -> list[np.ndarray]:
    # Each token's neighbor columns of its gold type, ascending, as the
    # mask flat_labels == gold[t] selects them: that type's block of the
    # set's grouping, empty for a type the set lacks.
    order, bounds = neighbors.type_order, neighbors.type_bounds
    blocks = {g: order[lo:hi] for g, lo, hi in zip(neighbors.type_ids, bounds, bounds[1:])}
    return [blocks.get(gold_type, order[:0]) for gold_type in gold]


def nll(
    log_probs: np.ndarray, neighbors: NeighborSet, gold: Sequence[int]
) -> LossReport:
    """Negative log of the posterior mass on gold-typed neighbor tokens."""
    if len(gold) != log_probs.shape[0]:
        raise ValueError(f"{len(gold)} gold labels for {log_probs.shape[0]} posterior rows")
    total = 0.0
    skipped = 0
    for t, columns in enumerate(_gold_columns(neighbors, gold)):
        if not columns.size:
            skipped += 1
            continue
        total += -_logsumexp(log_probs[t, columns])
    return LossReport(total, skipped)


def grad_wrt_input(
    log_probs: np.ndarray,
    neighbors: NeighborSet,
    gold: Sequence[int],
    neighbor_rows: np.ndarray,
) -> np.ndarray:
    """Gradient of the summed nll with respect to the input embeddings.

    `neighbor_rows` are the flat neighbor embeddings the posterior was
    scored against. Only the input side receives gradient; neighbor
    embeddings are treated as constants. Rows of skipped tokens are
    exactly zero.
    """
    if len(gold) != log_probs.shape[0]:
        raise ValueError(f"{len(gold)} gold labels for {log_probs.shape[0]} posterior rows")
    residual = np.zeros_like(log_probs)
    for t, columns in enumerate(_gold_columns(neighbors, gold)):
        if not columns.size:
            continue
        log_row = log_probs[t]
        residual[t] = np.exp(log_row)
        log_support = _logsumexp(log_row[columns])
        residual[t, columns] -= np.exp(log_row[columns] - log_support)
    return residual @ neighbor_rows
