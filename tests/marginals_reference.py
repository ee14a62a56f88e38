"""Oracles for copy_model's sums over label types, one boolean mask each.

Each takes the posterior as copy_posterior returns it, a matrix of log
probabilities, and the neighbor set's flat labels as a plain array.
marginal_over_types_masked: each type's column is the row sum of the
posterior over the flat positions that carry that type, taken in flat
order; the columns follow ascending type id. nll_masked and
grad_masked build one mask per token, flat_labels == gold[t], as the loss
and its gradient once did. The library must match all three bit for bit.
"""

import numpy as np

from copytag.copy_model import MarginalMatrix, _logsumexp


def marginal_over_types_masked(
    log_probs: np.ndarray, flat_labels: np.ndarray
) -> MarginalMatrix:
    probs = np.exp(log_probs)
    type_ids = np.unique(flat_labels)
    columns = [probs[:, flat_labels == tid].sum(axis=1) for tid in type_ids]
    return MarginalMatrix(np.column_stack(columns), tuple(type_ids.tolist()))


def nll_masked(
    log_probs: np.ndarray, flat_labels: np.ndarray, gold
) -> tuple[float, int]:
    """(summed nll, skipped tokens)."""
    total = 0.0
    skipped = 0
    for t, gold_type in enumerate(gold):
        mask = flat_labels == gold_type
        if not mask.any():
            skipped += 1
            continue
        total += -_logsumexp(log_probs[t, mask])
    return total, skipped


def grad_masked(
    log_probs: np.ndarray, flat_labels: np.ndarray, gold, neighbor_rows: np.ndarray
) -> np.ndarray:
    residual = np.zeros_like(log_probs)
    for t, gold_type in enumerate(gold):
        mask = flat_labels == gold_type
        if not mask.any():
            continue
        log_row = log_probs[t]
        residual[t] = np.exp(log_row)
        log_support = _logsumexp(log_row[mask])
        residual[t, mask] -= np.exp(log_row[mask] - log_support)
    return residual @ neighbor_rows
