"""Reference decoders over the array segment dictionary.

copytag.decoder keeps only the decoder the tagger runs. The decoders here
share its objective and tie-breaking and exist for tests:

* per_level_segment_dict builds the segment dictionary one level at a
  time, with one np.unique per level, and stores every sequence's first
  occurrence; it is the oracle for build_segment_dict's sort-and-LCP
  construction and for SegmentDict.exemplar.
* brute_force_decode enumerates every segmentation of a small instance;
  it is the oracle for both dynamic programs.
* per_start_dp is the dynamic program without shared tables: from each
  start it sums and minimizes every dictionary sequence level by level,
  with three numpy calls per (start, length). It is the oracle for
  dp_decode_expected's tables and the engine of dp_reconstruct.
* dp_reconstruct is the exact dynamic program under 0/1 mismatch costs
  against a gold sequence: the cheapest way to rebuild gold by copying.
* greedy_reconstruct is the left-to-right comparator that dp_reconstruct
  never does worse than.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from copytag.copy_model import MarginalMatrix
from copytag.decoder import (
    DecodeResult,
    Segment,
    SegmentDict,
    _position_costs_expected,
)
from copytag.retrieval import NeighborSet

BRUTE_FORCE_MAX_POSITIONS = 12
BRUTE_FORCE_MAX_COMBOS = 10**6


@dataclass(frozen=True, eq=False)
class ExemplarLevel:
    """One length of per_level_segment_dict: Level's parent and label, and
    each sequence's first occurrence (neighbor[r], offset[r])."""

    parent: np.ndarray
    label: np.ndarray
    neighbor: np.ndarray
    offset: np.ndarray


@dataclass(frozen=True, eq=False)
class ExemplarDict:
    """per_level_segment_dict's dictionary, sized as SegmentDict is."""

    levels: tuple[ExemplarLevel, ...]

    @property
    def node_count(self) -> int:
        return 1 + sum(len(level.label) for level in self.levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def n_labels(self) -> int:
        return int(self.levels[0].label[-1]) + 1 if self.levels else 0


def per_level_segment_dict(neighbors: NeighborSet, max_len: int) -> ExemplarDict:
    """Every contiguous subsequence of length <= max_len, level by level.

    Every flat neighbor position starts one window. Level d groups the
    windows still inside their sentence by (rank of their first d - 1
    labels, d-th label); windows stay in (neighbor, start) order, so the
    first window of a group is the sequence's first occurrence.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if not neighbors.n_total:
        raise ValueError("neighbor set has no entries")
    flat = neighbors.flat_labels
    if flat.size and flat.min() < 0:
        raise ValueError("label ids must be non-negative")
    values, codes = np.unique(flat, return_inverse=True)
    starts = neighbors.starts
    entry = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    pos = np.arange(flat.size)
    room = starts[1:][entry] - pos  # the longest window from each start
    rank = np.zeros(flat.size, dtype=np.int64)
    levels = []
    for d in range(max_len):
        alive = room > d
        if not alive.any():
            break
        pos, room, rank = pos[alive], room[alive], rank[alive]
        keys = rank * len(values) + codes[pos + d]
        unique, first, rank = np.unique(keys, return_index=True, return_inverse=True)
        exemplar = pos[first]
        levels.append(
            ExemplarLevel(
                parent=unique // len(values),
                label=values[unique % len(values)],
                neighbor=entry[exemplar],
                offset=exemplar - starts[entry[exemplar]],
            )
        )
    return ExemplarDict(tuple(levels))


def sequences(seg_dict: SegmentDict) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """All stored sequences as (labels, exemplar neighbor, exemplar offset),
    shortest first and lexicographically within a length."""
    paths: list[tuple[int, ...]] = [()]
    for length, level in enumerate(seg_dict.levels, start=1):
        paths = [
            paths[p] + (lab,)
            for p, lab in zip(level.parent.tolist(), level.label.tolist())
        ]
        for rank, labels in enumerate(paths):
            yield (labels, *seg_dict.exemplar(length, rank))


def per_start_dp(
    seg_dict: SegmentDict,
    segment_cost: float,
    cost: np.ndarray,
    ties: Counter | None = None,
) -> DecodeResult:
    """Exact minimization over segmentations; cost[j, lab] prices label lab
    at position j.

    best_*[e] describe the best decode of the prefix ending at e under the
    ordering (objective, segment count, label tuple); prefix bests extend
    to full-sequence bests because all three components accumulate
    monotonically under segment concatenation. From one start, `step`
    holds the summed cost of every dictionary sequence of the current
    length in rank order, so the first minimum is the lexicographically
    smallest of the cheapest. Label tuples are built only to break exact
    ties; `ties`, if given, counts them as "won" by the new copy or
    "kept" by the held decode.
    """
    if not seg_dict.levels:
        raise ValueError("segment dictionary is empty")
    total = cost.shape[0]
    if total < 1:
        raise ValueError("nothing to decode")
    parents = [level.parent for level in seg_dict.levels]
    labels = [level.label for level in seg_dict.levels]

    best_cost: list[float | None] = [None] * (total + 1)
    best_segs = [0] * (total + 1)
    back: list[tuple[int, int, int] | None] = [None] * (total + 1)
    best_cost[0] = 0.0
    decoded = {0: ()}

    def labels_to(end: int) -> tuple[int, ...]:
        chain = []
        while end not in decoded:
            start, length, rank = back[end]
            chain.append((end, length, rank))
            end = start
        out = decoded[end]
        for end, length, rank in reversed(chain):
            out = out + seg_dict.path(length, rank)
            decoded[end] = out
        return out

    root = np.zeros(1)
    for start in range(total):
        base = best_cost[start] + segment_cost
        segs = best_segs[start] + 1
        step = root
        for d in range(min(seg_dict.depth, total - start)):
            step = step[parents[d]] + cost[start + d][labels[d]]
            candidate = base + step
            rank = int(candidate.argmin())
            value = float(candidate[rank])
            end = start + d + 1
            current = best_cost[end]
            if current is None or value < current:
                take = True
            elif value > current or segs > best_segs[end]:
                take = False
            elif segs < best_segs[end]:
                take = True
            else:
                take = labels_to(start) + seg_dict.path(d + 1, rank) < labels_to(end)
                if ties is not None:
                    ties["won" if take else "kept"] += 1
            if take:
                best_cost[end] = value
                best_segs[end] = segs
                back[end] = (start, d + 1, rank)
                decoded.pop(end, None)

    segments: list[Segment] = []
    end = total
    while end > 0:
        start, length, rank = back[end]
        segments.append(Segment(start, length, *seg_dict.exemplar(length, rank)))
        end = start
    segments.reverse()
    return DecodeResult(labels_to(total), tuple(segments), float(best_cost[total]))


def per_start_decode_expected(
    marginals: MarginalMatrix,
    seg_dict: SegmentDict,
    segment_cost: float,
    ties: Counter | None = None,
) -> DecodeResult:
    """per_start_dp under dp_decode_expected's expected mislabeling costs."""
    return per_start_dp(
        seg_dict, segment_cost, _position_costs_expected(marginals, seg_dict.n_labels), ties
    )


def dp_reconstruct(
    gold: Sequence[int], seg_dict: SegmentDict, segment_cost: float
) -> DecodeResult:
    """Cheapest reconstruction of `gold`, counting one per mislabeled position."""
    gold = tuple(int(g) for g in gold)
    cost = np.ones((len(gold), seg_dict.n_labels))
    for j, lab in enumerate(gold):
        if 0 <= lab < seg_dict.n_labels:
            cost[j, lab] = 0.0
    return per_start_dp(seg_dict, segment_cost, cost)


def greedy_reconstruct(
    gold: Sequence[int], seg_dict: SegmentDict, segment_cost: float
) -> DecodeResult:
    """Left-to-right greedy comparator for dp_reconstruct.

    At each position it takes the dictionary sequence with the fewest
    mislabelings, preferring the longest and then the lexicographically
    smallest among equals. Feasible but not optimal: committing to a
    locally clean short segment can force more segments overall than the
    dynamic program needs.
    """
    gold = tuple(int(g) for g in gold)
    if not seg_dict.levels:
        raise ValueError("segment dictionary is empty")
    if not gold:
        raise ValueError("nothing to decode")

    labels: list[int] = []
    segments: list[Segment] = []
    objective = 0.0
    pos = 0
    while pos < len(gold):
        best: tuple[int, int, int] | None = None
        miss = np.zeros(1, dtype=np.int64)
        for d in range(min(seg_dict.depth, len(gold) - pos)):
            level = seg_dict.levels[d]
            miss = miss[level.parent] + (level.label != gold[pos + d])
            # the first minimum is the smallest sequence of this length
            rank = int(miss.argmin())
            key = (int(miss[rank]), -(d + 1), rank)
            if best is None or key < best:
                best = key
        mismatches, neg_length, rank = best
        length = -neg_length
        labels.extend(seg_dict.path(length, rank))
        segments.append(Segment(pos, length, *seg_dict.exemplar(length, rank)))
        objective = (objective + segment_cost) + float(mismatches)
        pos += length
    return DecodeResult(tuple(labels), tuple(segments), objective)


def _count_combinations(total: int, per_length: dict[int, int]) -> int:
    counts = [0] * (total + 1)
    counts[0] = 1
    for pos in range(1, total + 1):
        acc = 0
        for length in range(1, pos + 1):
            n_seqs = per_length.get(length, 0)
            if n_seqs:
                acc += counts[pos - length] * n_seqs
        counts[pos] = acc
        if acc > BRUTE_FORCE_MAX_COMBOS:
            return acc
    return counts[total]


def _flat_labels(chosen) -> tuple[int, ...]:
    return tuple(lab for option in chosen for lab in option[2])


def brute_force_decode(
    seg_dict: SegmentDict,
    segment_cost: float,
    gold: Sequence[int] | None = None,
    marginals: MarginalMatrix | None = None,
) -> DecodeResult:
    """Exhaustive enumeration of every segmentation and sequence assignment.

    Serves as the oracle for both dynamic programs: pass `gold` to mirror
    dp_reconstruct or `marginals` to mirror dp_decode_expected. Guarded to
    at most 12 positions and 10**6 combinations; larger instances are
    refused.
    """
    if (gold is None) == (marginals is None):
        raise ValueError("pass exactly one of gold or marginals")
    if gold is not None:
        gold = tuple(int(g) for g in gold)
        total = len(gold)
    else:
        total = marginals.probs.shape[0]
    if total < 1:
        raise ValueError("nothing to decode")
    if total > BRUTE_FORCE_MAX_POSITIONS:
        raise ValueError(
            f"refusing brute force: {total} positions exceeds the guard of "
            f"{BRUTE_FORCE_MAX_POSITIONS}"
        )

    by_length: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}
    for labels, neighbor, offset in sequences(seg_dict):
        by_length.setdefault(len(labels), []).append((labels, neighbor, offset))
    for bucket in by_length.values():
        bucket.sort()

    combos = _count_combinations(total, {k: len(v) for k, v in by_length.items()})
    if combos > BRUTE_FORCE_MAX_COMBOS:
        raise ValueError(
            f"refusing brute force: {combos} combinations exceed the guard of "
            f"{BRUTE_FORCE_MAX_COMBOS}"
        )

    if gold is not None:

        def sequence_cost(labels: tuple[int, ...], start: int) -> float:
            acc = 0.0
            for j, lab in enumerate(labels):
                acc += 0.0 if gold[start + j] == lab else 1.0
            return acc

    else:
        probs = marginals.probs
        col_of = {tid: col for col, tid in enumerate(marginals.type_ids)}

        def sequence_cost(labels: tuple[int, ...], start: int) -> float:
            acc = 0.0
            for j, lab in enumerate(labels):
                col = col_of.get(lab)
                acc += 1.0 if col is None else 1.0 - float(probs[start + j, col])
            return acc

    # Per start position, every sequence that fits, in exploration order
    # (length, then label tuple), with its cost there computed once.
    options = [
        [
            (length, sequence_cost(labels, start), labels, neighbor, offset)
            for length in range(1, min(seg_dict.depth, total - start) + 1)
            for labels, neighbor, offset in by_length.get(length, ())
        ]
        for start in range(total)
    ]

    best_cost: float | None = None
    best_labels: tuple[int, ...] | None = None
    best_chosen: tuple = ()
    chosen: list = []

    def explore(pos: int, cost: float) -> None:
        nonlocal best_cost, best_labels, best_chosen
        if pos == total:
            take = False
            if best_cost is None or cost < best_cost:
                take = True
            elif cost == best_cost:
                if len(chosen) < len(best_chosen):
                    take = True
                elif len(chosen) == len(best_chosen):
                    take = _flat_labels(chosen) < best_labels
            if take:
                best_cost = cost
                best_labels = _flat_labels(chosen)
                best_chosen = tuple(chosen)
            return
        for option in options[pos]:
            chosen.append(option)
            explore(pos + option[0], (cost + segment_cost) + option[1])
            chosen.pop()

    explore(0, 0.0)
    if best_labels is None:
        raise ValueError("segment dictionary is empty")
    segments = []
    start = 0
    for length, _, _, neighbor, offset in best_chosen:
        segments.append(Segment(start, length, neighbor, offset))
        start += length
    return DecodeResult(best_labels, tuple(segments), float(best_cost))
