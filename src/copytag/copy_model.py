"""Token-level copy scoring.

Each input token scores every label token in the flattened neighbor
database by inner product; a row softmax turns the scores into a copy
posterior. Collapsing posterior mass by label type gives per-token type
marginals, one column per type present in ascending type id order, and
the training loss is the negative log of the mass placed on positions
that carry the gold type. All probability arithmetic stays in log space
with max-subtraction; linear probabilities only appear at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .retrieval import NeighborSet


def _logsumexp(values: np.ndarray) -> float:
    top = float(values.max())
    return top + float(np.log(np.exp(values - top).sum()))


def copy_logits(input_embeddings: np.ndarray, neighbors: NeighborSet) -> np.ndarray:
    """Raw copy scores: input rows against all flat neighbor embeddings."""
    x = np.asarray(input_embeddings, dtype=float)
    if x.ndim != 2:
        raise ValueError("input embeddings must be a 2-d matrix")
    flat = neighbors.flat_embeddings
    if x.shape[1] != flat.shape[1]:
        raise ValueError(
            f"input width {x.shape[1]} does not match neighbor width "
            f"{flat.shape[1]}"
        )
    return x @ flat.T


@dataclass(eq=False)
class CopyPosterior:
    """Row-normalized copy distribution, held in log space."""

    log_probs: np.ndarray

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    @property
    def n_tokens(self) -> int:
        return int(self.log_probs.shape[0])


def copy_posterior(logits: np.ndarray) -> CopyPosterior:
    """Row softmax with max-subtraction; rows sum to one up to 1e-9."""
    scores = np.asarray(logits, dtype=float)
    if scores.ndim != 2 or scores.shape[1] < 1:
        raise ValueError("logits must be a 2-d matrix with at least one column")
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    log_probs.setflags(write=False)
    return CopyPosterior(log_probs)


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


def marginal_over_types(posterior: CopyPosterior, neighbors: NeighborSet) -> MarginalMatrix:
    """Collapse the copy posterior by label type."""
    if posterior.log_probs.shape[1] != neighbors.n_total:
        raise ValueError(
            f"posterior has {posterior.log_probs.shape[1]} columns for "
            f"{neighbors.n_total} neighbor tokens"
        )
    probs = posterior.probs
    type_ids = np.unique(neighbors.flat_labels)
    columns = [
        probs[:, neighbors.flat_labels == tid].sum(axis=1) for tid in type_ids
    ]
    matrix = np.column_stack(columns)
    matrix.setflags(write=False)
    return MarginalMatrix(matrix, tuple(type_ids.tolist()))


@dataclass(frozen=True)
class LossReport:
    """Summed negative log-likelihood of the gold types.

    Tokens whose gold type never occurs in the neighbor set cannot be
    scored; they contribute nothing to the sum and are counted in
    `skipped`.
    """

    nll: float
    skipped: int


def nll(
    posterior: CopyPosterior, neighbors: NeighborSet, gold: Sequence[int]
) -> LossReport:
    """Negative log of the posterior mass on gold-typed neighbor tokens."""
    if len(gold) != posterior.n_tokens:
        raise ValueError(
            f"{len(gold)} gold labels for {posterior.n_tokens} posterior rows"
        )
    flat = neighbors.flat_labels
    total = 0.0
    skipped = 0
    for t, gold_type in enumerate(gold):
        mask = flat == gold_type
        if not mask.any():
            skipped += 1
            continue
        total += -_logsumexp(posterior.log_probs[t, mask])
    return LossReport(total, skipped)


def grad_wrt_input(
    posterior: CopyPosterior, neighbors: NeighborSet, gold: Sequence[int]
) -> np.ndarray:
    """Gradient of the summed nll with respect to the input embeddings.

    Only the input side receives gradient; neighbor embeddings are treated
    as constants. Rows of skipped tokens are exactly zero.
    """
    if len(gold) != posterior.n_tokens:
        raise ValueError(
            f"{len(gold)} gold labels for {posterior.n_tokens} posterior rows"
        )
    flat = neighbors.flat_labels
    residual = np.zeros_like(posterior.log_probs)
    for t, gold_type in enumerate(gold):
        mask = flat == gold_type
        if not mask.any():
            continue
        log_row = posterior.log_probs[t]
        residual[t] = np.exp(log_row)
        log_support = _logsumexp(log_row[mask])
        residual[t, mask] -= np.exp(log_row[mask] - log_support)
    return residual @ neighbors.flat_embeddings
