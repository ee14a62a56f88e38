"""Segment-based decoding over a dictionary of neighbor label sequences.

The dictionary is a prefix trie holding every contiguous label-type
subsequence (up to a length cap) of the retrieved sentences' label
sequences; every node remembers the first place its path occurs. Decoding
minimizes

    sum over chosen segments of (segment_cost + per-position label costs)

where the per-position cost is either a mismatch indicator against a gold
sequence or one minus the marginal probability of the segment's label.
The dynamic program over (position, trie node) states is exact; a greedy
left-to-right comparator and an exhaustive small-instance oracle share the
same objective and tie-breaking.

Ties are broken by fewer segments, then by the lexicographically smallest
label sequence under type ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .copy_model import MarginalMatrix
from .retrieval import NeighborSet

DEFAULT_MAX_SEGMENT_LEN = 64

BRUTE_FORCE_MAX_POSITIONS = 12
BRUTE_FORCE_MAX_COMBOS = 10**6


class _Node:
    __slots__ = ("children", "neighbor", "offset", "depth")

    def __init__(self, neighbor: int, offset: int, depth: int):
        self.children: dict[int, _Node] = {}
        self.neighbor = neighbor
        self.offset = offset
        self.depth = depth


class SegmentDict:
    """Trie over the distinct contiguous label subsequences of a neighbor set.

    Node exemplars record (neighbor position, start offset) of the first
    insertion, so every stored sequence can be traced back to a concrete
    place it was copied from.
    """

    def __init__(self, root: _Node, max_len: int, node_count: int, depth: int):
        self.root = root
        self.max_len = max_len
        self.node_count = node_count
        self.depth = depth

    def sequences(self) -> Iterator[tuple[tuple[int, ...], int, int]]:
        """All stored sequences as (labels, exemplar neighbor, exemplar offset)."""
        path: list[int] = []

        def walk(node: _Node) -> Iterator[tuple[tuple[int, ...], int, int]]:
            for label in sorted(node.children):
                child = node.children[label]
                path.append(label)
                yield tuple(path), child.neighbor, child.offset
                yield from walk(child)
                path.pop()

        yield from walk(self.root)


def build_segment_dict(
    neighbors: NeighborSet, max_len: int = DEFAULT_MAX_SEGMENT_LEN
) -> SegmentDict:
    """Insert every contiguous subsequence of length <= max_len."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if not neighbors.entries:
        raise ValueError("neighbor set has no entries")
    root = _Node(-1, -1, 0)
    count = 1
    deepest = 0
    for m, entry in enumerate(neighbors.entries):
        labels = entry.sequence.labels
        for start in range(len(labels)):
            node = root
            for pos in range(start, min(len(labels), start + max_len)):
                label = labels[pos]
                child = node.children.get(label)
                if child is None:
                    child = _Node(m, start, pos - start + 1)
                    node.children[label] = child
                    count += 1
                    deepest = max(deepest, child.depth)
                node = child
    return SegmentDict(root, max_len, count, deepest)


@dataclass(frozen=True)
class DPConfig:
    """Decoder settings: the per-segment cost and the segment length cap."""

    segment_cost: float
    max_len: int = DEFAULT_MAX_SEGMENT_LEN

    def __post_init__(self) -> None:
        if not np.isfinite(self.segment_cost) or self.segment_cost < 0:
            raise ValueError("segment_cost must be finite and non-negative")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


@dataclass(frozen=True)
class Segment:
    """One chosen segment and the neighbor position it copies from."""

    start: int
    length: int
    neighbor: int
    offset: int


@dataclass(frozen=True)
class DecodeResult:
    labels: tuple[int, ...]
    segments: tuple[Segment, ...]
    objective: float


def predict_marginal(marginals: MarginalMatrix) -> tuple[int, ...]:
    """Per-token argmax over type marginals; ties pick the lowest type id."""
    out: list[int] = []
    for row in marginals.probs:
        best = row.max()
        out.append(min(tid for tid, p in zip(marginals.type_ids, row) if p == best))
    return tuple(out)


def _position_costs_expected(marginals: MarginalMatrix) -> list[dict[int, float]]:
    probs = marginals.probs
    sums = probs.sum(axis=1)
    if probs.size and (np.any(probs < -1e-9) or np.any(np.abs(sums - 1.0) > 1e-6)):
        raise ValueError("marginal rows must be probability distributions")
    return [
        {tid: 1.0 - float(probs[t, col]) for tid, col in marginals.column_of.items()}
        for t in range(probs.shape[0])
    ]


def _dp(
    n_positions: int,
    seg_dict: SegmentDict,
    cfg: DPConfig,
    cost_at: Callable[[int, int], float],
) -> DecodeResult:
    """Exact minimization over segmentations via (position, trie node) states.

    best_*[e] describe the best decode of the prefix ending at e under the
    ordering (objective, segment count, label tuple); prefix bests extend
    to full-sequence bests because all three components accumulate
    monotonically under segment concatenation.
    """
    if not seg_dict.root.children:
        raise ValueError("segment dictionary is empty")
    if n_positions < 1:
        raise ValueError("nothing to decode")
    limit = min(cfg.max_len, seg_dict.depth)

    total = n_positions
    best_cost: list[float | None] = [None] * (total + 1)
    best_segs = [0] * (total + 1)
    best_labels: list[tuple[int, ...] | None] = [None] * (total + 1)
    back: list[tuple[int, int, int] | None] = [None] * (total + 1)
    best_cost[0] = 0.0
    best_labels[0] = ()

    path: list[int] = []
    for start in range(total):
        base_cost = best_cost[start]
        base_segs = best_segs[start]
        base_labels = best_labels[start]
        reach = min(limit, total - start)

        def walk(node: _Node, acc: float) -> None:
            depth = len(path)
            for label in sorted(node.children):
                child = node.children[label]
                step = acc + cost_at(start + depth, label)
                path.append(label)
                end = start + depth + 1
                candidate = (base_cost + cfg.segment_cost) + step
                current = best_cost[end]
                take = False
                if current is None or candidate < current:
                    take = True
                elif candidate == current:
                    segs = base_segs + 1
                    if segs < best_segs[end]:
                        take = True
                    elif segs == best_segs[end]:
                        labels = base_labels + tuple(path)
                        if labels < best_labels[end]:
                            take = True
                if take:
                    best_cost[end] = candidate
                    best_segs[end] = base_segs + 1
                    best_labels[end] = base_labels + tuple(path)
                    back[end] = (start, child.neighbor, child.offset)
                if depth + 1 < reach:
                    walk(child, step)
                path.pop()

        walk(seg_dict.root, 0.0)

    segments: list[Segment] = []
    end = total
    while end > 0:
        start, neighbor, offset = back[end]
        segments.append(Segment(start, end - start, neighbor, offset))
        end = start
    segments.reverse()
    return DecodeResult(best_labels[total], tuple(segments), float(best_cost[total]))


def dp_reconstruct(
    gold: Sequence[int], seg_dict: SegmentDict, cfg: DPConfig
) -> DecodeResult:
    """Cheapest reconstruction of `gold`, counting one per mislabeled position."""
    gold = tuple(int(g) for g in gold)
    return _dp(len(gold), seg_dict, cfg, lambda j, lab: 0.0 if gold[j] == lab else 1.0)


def dp_decode_expected(
    marginals: MarginalMatrix, seg_dict: SegmentDict, cfg: DPConfig
) -> DecodeResult:
    """Minimize expected mislabelings plus segment cost under the marginals.

    A label type with no marginal column costs a full unit at every
    position. With segment_cost 0 the result matches predict_marginal.
    """
    costs = _position_costs_expected(marginals)
    return _dp(
        marginals.n_tokens, seg_dict, cfg, lambda j, lab: costs[j].get(lab, 1.0)
    )


def greedy_reconstruct(
    gold: Sequence[int], seg_dict: SegmentDict, cfg: DPConfig
) -> DecodeResult:
    """Left-to-right greedy comparator for dp_reconstruct.

    At each position it takes the dictionary sequence with the fewest
    mislabelings, preferring the longest and then the lexicographically
    smallest among equals. Feasible but not optimal: committing to a
    locally clean short segment can force more segments overall than the
    dynamic program needs.
    """
    gold = tuple(int(g) for g in gold)
    if not seg_dict.root.children:
        raise ValueError("segment dictionary is empty")
    if not gold:
        raise ValueError("nothing to decode")
    limit = min(cfg.max_len, seg_dict.depth)

    labels: list[int] = []
    segments: list[Segment] = []
    objective = 0.0
    pos = 0
    while pos < len(gold):
        reach = min(limit, len(gold) - pos)
        path: list[int] = []
        best: tuple[int, int, tuple[int, ...]] | None = None
        best_pick: tuple[_Node, float] | None = None

        def walk(node: _Node, mismatches: int) -> None:
            nonlocal best, best_pick
            depth = len(path)
            for label in sorted(node.children):
                child = node.children[label]
                miss = mismatches + (0 if gold[pos + depth] == label else 1)
                path.append(label)
                key = (miss, -(depth + 1), tuple(path))
                if best is None or key < best:
                    best = key
                    best_pick = (child, float(miss))
                if depth + 1 < reach:
                    walk(child, miss)
                path.pop()

        walk(seg_dict.root, 0)
        node, cost = best_pick
        chosen = best[2]
        labels.extend(chosen)
        segments.append(Segment(pos, len(chosen), node.neighbor, node.offset))
        objective = (objective + cfg.segment_cost) + cost
        pos += len(chosen)
    return DecodeResult(tuple(labels), tuple(segments), objective)


def _count_combinations(total: int, per_length: dict[int, int], limit: int) -> int:
    counts = [0] * (total + 1)
    counts[0] = 1
    for pos in range(1, total + 1):
        acc = 0
        for length in range(1, min(limit, pos) + 1):
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
    cfg: DPConfig,
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
        total = marginals.n_tokens
    if total < 1:
        raise ValueError("nothing to decode")
    if total > BRUTE_FORCE_MAX_POSITIONS:
        raise ValueError(
            f"refusing brute force: {total} positions exceeds the guard of "
            f"{BRUTE_FORCE_MAX_POSITIONS}"
        )
    limit = min(cfg.max_len, seg_dict.depth)

    by_length: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}
    for labels, neighbor, offset in seg_dict.sequences():
        if len(labels) <= limit:
            by_length.setdefault(len(labels), []).append((labels, neighbor, offset))
    for bucket in by_length.values():
        bucket.sort()

    combos = _count_combinations(
        total, {k: len(v) for k, v in by_length.items()}, limit
    )
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
        col_of = marginals.column_of

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
            for length in range(1, min(limit, total - start) + 1)
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
            explore(pos + option[0], (cost + cfg.segment_cost) + option[1])
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


def provenance_lines(result: DecodeResult, type_names: Sequence[str]) -> list[str]:
    """Render segments as "seg <start> <len> from=neighbor:<m> offset:<k> labels=...".

    `type_names` maps type ids to their display strings.
    """
    lines = []
    for seg in result.segments:
        names = ",".join(
            type_names[lab]
            for lab in result.labels[seg.start : seg.start + seg.length]
        )
        lines.append(
            f"seg {seg.start} {seg.length} from=neighbor:{seg.neighbor} "
            f"offset:{seg.offset} labels={names}"
        )
    return lines
