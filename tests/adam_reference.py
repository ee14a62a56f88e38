"""Column-at-a-time sparse Adam: the oracle for the vectorized trainer step.

This is the training step as it was before gradients and moments became
slot-aligned arrays: backprop results as {column: vector} dicts, a batch
summed by adding each sentence's vector in ascending sentence order, and
one Python round trip per column through the single-column helpers of
param_columns. The vectorized path must match it bit for bit on parameters,
moments, step, modified and revision.
"""

from __future__ import annotations

import numpy as np

from copytag.embeddings import (
    ColumnGrads,
    EmbedderParams,
    HashedWindowEmbedder,
    _embed_columns,
)
from copytag.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from param_columns import column, set_column


class ReferenceAdamState:
    """Moments per touched column, keyed by column id."""

    def __init__(self) -> None:
        self.step = 0
        self.mean: dict[int, np.ndarray] = {}
        self.var: dict[int, np.ndarray] = {}


def reference_adam_update(
    params: EmbedderParams,
    grads: dict[int, np.ndarray],
    state: ReferenceAdamState,
    learning_rate: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> None:
    state.step += 1
    correction1 = 1.0 - beta1**state.step
    correction2 = 1.0 - beta2**state.step
    for col in sorted(grads):
        grad = np.asarray(grads[col], dtype=float)
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient for column {col}")
        if not grad.any():
            continue
        mean = state.mean.get(col)
        if mean is None:
            mean = np.zeros(params.dim)
            var = np.zeros(params.dim)
        else:
            var = state.var[col]
        mean = beta1 * mean + (1.0 - beta1) * grad
        var = beta2 * var + (1.0 - beta2) * grad * grad
        state.mean[col] = mean
        state.var[col] = var
        step = learning_rate * (mean / correction1) / (
            np.sqrt(var / correction2) + eps
        )
        set_column(params, col, column(params, col) - step)


def reference_batch_sum(per_sentence: list[dict[int, np.ndarray]]) -> dict[int, np.ndarray]:
    """A batch's gradient: each sentence's vectors added in list order."""
    grads: dict[int, np.ndarray] = {}
    for sentence_grads in per_sentence:
        for col, vec in sentence_grads.items():
            acc = grads.get(col)
            if acc is None:
                grads[col] = vec.copy()
            else:
                acc += vec
    return grads


def as_dict(grads: ColumnGrads) -> dict[int, np.ndarray]:
    return {int(col): row for col, row in zip(grads.columns, grads.grad)}


def column_grads(params: EmbedderParams, grads: dict[int, np.ndarray]) -> ColumnGrads:
    """The ColumnGrads of a {column: vector} dict."""
    columns = np.array(sorted(grads), dtype=np.int64)
    block = np.array([grads[int(c)] for c in columns], dtype=float)
    return ColumnGrads(columns=columns, grad=block.reshape(len(columns), params.dim))


def reference_backprop(
    params: EmbedderParams, sentence, d_output: np.ndarray
) -> dict[int, np.ndarray]:
    """Backprop as {column: vector}, summed token by token in token order."""
    columns = HashedWindowEmbedder(params).token_columns(sentence)
    x = _embed_columns(params, columns)
    per_token = d_output * (1.0 - x * x)
    ids, _, starts = columns
    grads: dict[int, np.ndarray] = {}
    for t, token_ids in enumerate(np.split(ids, starts[1:])):
        for col in token_ids.tolist():
            grads.setdefault(col, np.zeros(params.dim))
            grads[col] += per_token[t]
    return grads
