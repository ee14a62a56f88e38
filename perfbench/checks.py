"""Output checks. Each returns a list of problems; empty means the output holds.

They recompute what they check from the program's own intermediate
results (marginals, retrieved neighbors) rather than trusting its answer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _label_problems(tagged, types: Sequence[str]) -> list[str]:
    n = len(tagged.sentence)
    if len(tagged.label_ids) != n:
        return [f"{len(tagged.label_ids)} labels for {n} tokens"]
    names = tuple(types[i] for i in tagged.label_ids)
    if names != tuple(tagged.label_names):
        return ["label names disagree with label ids"]
    return []


def argmax_labels(probs: np.ndarray, type_ids: Sequence[int]) -> tuple[int, ...]:
    """Per-row argmax over type columns, ties to the lowest type id."""
    ids = np.asarray(type_ids)
    return tuple(int(ids[row == row.max()].min()) for row in probs)


def check_marginal(tagged, types: Sequence[str]) -> list[str]:
    """Labels are the argmax of the sentence's own type marginals."""
    problems = _label_problems(tagged, types)
    marginals = tagged.analysis.marginals
    if argmax_labels(marginals.probs, marginals.type_ids) != tuple(tagged.label_ids):
        problems.append("labels are not the marginal argmax")
    return problems


def check_dp(tagged, types: Sequence[str]) -> list[str]:
    """Segments tile the sentence and copy the cited neighbor's labels."""
    problems = _label_problems(tagged, types)
    result = tagged.decode
    if result is None:
        return problems + ["dp decode returned no segments"]
    labels = tuple(result.labels)
    if labels != tuple(tagged.label_ids):
        problems.append("decode labels disagree with the tagged labels")
    if not np.isfinite(result.objective):
        problems.append("objective is not finite")
    entries = tagged.analysis.neighbors.entries
    pos = 0
    for seg in result.segments:
        if seg.start != pos or seg.length < 1:
            problems.append(f"segment at {seg.start} does not continue at {pos}")
            break
        if not 0 <= seg.neighbor < len(entries):
            problems.append(f"segment at {seg.start} cites unknown neighbor {seg.neighbor}")
            break
        source = entries[seg.neighbor].sequence.labels[seg.offset : seg.offset + seg.length]
        if tuple(source) != labels[seg.start : seg.start + seg.length]:
            problems.append(
                f"segment at {seg.start} differs from neighbor {seg.neighbor} "
                f"at offset {seg.offset}"
            )
        pos += seg.length
    if pos != len(tagged.sentence):
        problems.append(f"segments cover {pos} of {len(tagged.sentence)} tokens")
    return problems


def check_sweep(rows, grid: Sequence[float], marginal_accuracy: float) -> list[str]:
    """One row per grid point; at c=0 the DP reproduces the marginal argmax."""
    problems = []
    if [row.segment_cost for row in rows] != [float(c) for c in grid]:
        return ["sweep rows do not follow the c grid"]
    for row in rows:
        values = (row.precision, row.recall, row.f1, row.token_accuracy)
        if not all(0.0 <= v <= 1.0 for v in values) or row.avg_segments < 1.0:
            problems.append(f"row c={row.segment_cost} is out of range")
    if grid[0] == 0.0 and rows[0].token_accuracy != marginal_accuracy:
        problems.append(
            f"c=0 token accuracy {rows[0].token_accuracy} differs from the "
            f"marginal argmax {marginal_accuracy}"
        )
    return problems
