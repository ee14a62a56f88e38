"""Segment-based decoding over a dictionary of neighbor label sequences.

The dictionary holds every contiguous label-type subsequence (up to a
length cap) of the retrieved sentences' label sequences, as one set of
arrays per length: each sequence is ranked lexicographically among those
of its length and points at the rank of its prefix one label shorter.
The build sorts once: every neighbor position starts a label window, the
retrieval index has ranked all windows lexicographically, and one stable
argsort of the set's ranks lines its windows up so that each sequence is
the shared prefix of a run of adjacent windows. The longest common
prefix (LCP) of each window with the one before it then says at which
lengths it starts a new sequence, for all lengths at once, as in suffix
arrays (Manber and Myers 1993). tests/decoder_reference.py keeps the
per-length construction it replaced as its oracle. First occurrences
are found on demand, for output segments only. Decoding minimizes

    sum over chosen segments of (segment_cost + per-position label costs)

where the per-position cost is one minus the marginal probability of the
segment's label. The dynamic program over (position, dictionary sequence)
states is exact; tests/decoder_reference.py also holds an exhaustive
small-instance oracle, the per-start dynamic program this one replaced,
and a greedy comparator, all with the same objective and tie-breaking.

Ties are broken by fewer segments, then by the lexicographically smallest
label sequence under type ids.

The DP runs in two passes. The table pass does not depend on the segment
cost c: level by level over the dictionary, for every start at once, it
sums step, the cost of each sequence of a length from a start, start-major
and with the same operands in the same order as a per-start loop would.
Per (start, length) it keeps the minimum step, its first argmin rank (the
lexicographically smallest of the cheapest), and the minimum over the
ranks before that one. The per-c pass is scalar: the best copy from a
prefix of cost b costs fl(b + c) + min. Rounded addition is monotone, so
no rank can cost less than that, and an earlier rank can cost the same
only if fl(fl(b + c) + earlier minimum) equals it. Exactly then the rank
is recomputed from that one start the per-start way, which keeps the
first-minimum rule. One call decodes at every c of a grid from one set of
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copy_model import MarginalMatrix
from .retrieval import NeighborSet

DEFAULT_MAX_SEGMENT_LEN = 64


@dataclass(eq=False, slots=True)
class Level:
    """The dictionary's sequences of one length, ranked lexicographically.

    Sequence r extends sequence parent[r] of the next shorter level (the
    empty sequence at length 1) by label[r]. window[r] is the first of the
    run of sorted label windows it prefixes.
    """

    parent: np.ndarray
    label: np.ndarray
    window: np.ndarray


@dataclass(eq=False)
class SegmentDict:
    """The distinct contiguous label subsequences of a neighbor set.

    levels[d - 1] holds the sequences of length d; none stores where it
    occurs. Sorted window j starts at flat position positions[j] of
    `neighbors` and shares lcp[j] labels with window j - 1 (lcp is 0 at
    both ends). path and exemplar read these and `labels`, the set's flat
    labels, through memoryviews, so no array is copied into a list.
    node_count counts the empty sequence too.
    """

    levels: tuple[Level, ...]
    neighbors: NeighborSet
    positions: memoryview
    lcp: memoryview

    def __post_init__(self) -> None:
        self.labels = memoryview(self.neighbors.flat_labels)
        self.node_count = 1 + sum(len(level.label) for level in self.levels)
        self.depth = len(self.levels)
        # level 1 holds every label, in ascending order
        self.n_labels = int(self.levels[0].label[-1]) + 1 if self.levels else 0

    def path(self, length: int, rank: int) -> tuple[int, ...]:
        """Labels of sequence `rank` of length `length`, read at its window."""
        pos = self.positions[self.levels[length - 1].window.item(rank)]
        return tuple(self.labels[pos : pos + length])

    def exemplar(self, length: int, rank: int) -> tuple[int, int]:
        """(neighbor, offset) of the first occurrence of path(length, rank):
        the least position in the run of windows that share its labels."""
        first = last = self.levels[length - 1].window.item(rank)
        while self.lcp[last + 1] >= length:
            last += 1
        return self.neighbors.locate(min(self.positions[first : last + 1]))


def build_segment_dict(neighbors: NeighborSet, max_len: int) -> SegmentDict:
    """Collect every contiguous subsequence of length <= max_len.

    The DP copies segments of any length the dictionary holds, so max_len
    is the decode's segment cap. The DP never reads a level longer than
    the query, so the tagger passes the query length, up to
    DEFAULT_MAX_SEGMENT_LEN.

    Every flat neighbor position starts one window: its labels to the end
    of its sentence, at most max_len of them. A stable argsort of the
    index's window ranks puts the windows in lexicographic order, so each
    sequence is the shared prefix of a run of adjacent windows. Window j
    of that order starts a new sequence of length d + 1 exactly when
    lcp_j <= d < room_j, where lcp_j is its longest common prefix with
    window j - 1 and room_j its length. On the (d, j) grid a cumsum along
    the windows ranks the new sequences, and a sequence's parent is the
    same window's rank one row up. First occurrences are not computed.
    """
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if not neighbors.n_total:
        raise ValueError("neighbor set has no entries")
    flat = neighbors.flat_labels
    if flat.size and flat.min() < 0:
        raise ValueError("label ids must be non-negative")
    pos = np.argsort(neighbors.window_ranks, kind="stable")
    room = np.minimum(neighbors.starts[1:][neighbors.entry[pos]] - pos, max_len)
    d = np.arange(room.max())[:, None]
    labels = flat.take(pos + d, mode="clip")  # cells outside a window are masked
    same = (labels[:, 1:] == labels[:, :-1]) & (d < np.minimum(room[1:], room[:-1]))
    lcp = np.zeros(pos.size + 1, dtype=np.int64)
    lcp[1:-1] = np.logical_and.accumulate(same, axis=0).sum(axis=0)
    new = (d < room) & (d >= lcp[:-1])
    nodes = np.flatnonzero(new)
    bounds = np.zeros(len(d) + 1, dtype=np.int64)
    np.cumsum(new.sum(axis=1), out=bounds[1:])
    rank = np.cumsum(new, axis=1) - 1
    # the same window one row up; first-row nodes wrap around and get 0
    parent = rank.ravel()[nodes - pos.size]
    parent[: bounds[1]] = 0
    label = labels.ravel()[nodes]
    window = nodes - (d.ravel() * pos.size).repeat(np.diff(bounds))
    levels = tuple(
        Level(parent[a:b], label[a:b], window[a:b])
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    )
    return SegmentDict(levels, neighbors, memoryview(pos), memoryview(lcp))


def check_segment_cost(segment_cost: float, n_tokens: int = 0) -> None:
    """Reject a per-segment cost that is negative, infinite or NaN, or at
    which the objective of an n_tokens decode could overflow. That decode
    has at most n_tokens segments, each costing the segment cost plus at
    most one per token, and twice that bound leaves room for rounding."""
    if not (math.isfinite(segment_cost) and segment_cost >= 0):
        raise ValueError("segment_cost must be finite and non-negative")
    if not math.isfinite(2.0 * n_tokens * (segment_cost + 1.0)):
        raise ValueError(
            f"segment_cost {segment_cost!r} could overflow the objective of a "
            f"{n_tokens}-token decode"
        )


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
    """Per-token argmax over type marginals; ties pick the lowest type id,
    the first of the ascending columns."""
    ids = np.asarray(marginals.type_ids, dtype=np.int64)
    return tuple(ids[marginals.probs.argmax(axis=1)].tolist())


def _position_costs_expected(marginals: MarginalMatrix, n_labels: int) -> np.ndarray:
    """(position, label id) costs: one minus the label's marginal, or 1.0
    for a label with no marginal column. A row that is not a distribution
    is rejected, one with a NaN too: NaN fails every comparison."""
    probs = marginals.probs
    sums = probs.sum(axis=1)
    if probs.size and not (
        np.all(probs >= -1e-9) and np.all(np.abs(sums - 1.0) <= 1e-6)
    ):
        raise ValueError("marginal rows must be probability distributions")
    cost = np.ones((probs.shape[0], n_labels))
    ids = np.asarray(marginals.type_ids, dtype=np.int64)
    keep = ids < n_labels
    cost[:, ids[keep]] = 1.0 - probs[:, keep]
    return cost


def _tables(
    seg_dict: SegmentDict, cost: np.ndarray
) -> tuple[list[list[list[float]]], list[list[int]]]:
    """The segment-cost-free part of the DP.

    Returns, per start, a pair of lists (earlier minima, minima) and a
    list of first argmin ranks, each indexed by d for the copies of
    length d + 1. Level by level over the dictionary and for every start
    at once, step holds the summed cost of each sequence of the level
    from each start, starts down and ranks across. Each start's row
    splits at its first argmin, and one reduceat takes the minimum of
    both parts: the ranks before the first argmin, and the rest, whose
    minimum is the minimum itself. With first rank 0 the earlier part is
    the minimum again, and is never read.
    """
    total = cost.shape[0]
    depth = min(seg_dict.depth, total)
    pairs = np.arange(total).repeat(2)
    split = np.full((total, 2, depth), np.inf)
    ranks = np.zeros((total, depth), dtype=np.int64)
    step = np.zeros((total, 1))
    for d, level in enumerate(seg_dict.levels[:depth]):
        n = total - d
        step = step[:n].take(level.parent, axis=1)
        step += cost[d:].take(level.label, axis=1)
        first = step.argmin(axis=1)
        bounds = pairs[: 2 * n] * step.shape[1]
        bounds[1::2] += first
        split[:n, :, d] = np.minimum.reduceat(step.ravel(), bounds).reshape(n, 2)
        ranks[:n, d] = first
    return split.tolist(), ranks.tolist()


def _first_rank(
    seg_dict: SegmentDict, cost: np.ndarray, base: float, start: int, length: int
) -> int:
    """First argmin of base + step over the sequences of `length` from
    `start`, with step summed as the tables sum it."""
    step = np.zeros(1)
    for d, level in enumerate(seg_dict.levels[:length]):
        step = step[level.parent] + cost[start + d][level.label]
    return int((base + step).argmin())


def _decode(
    seg_dict: SegmentDict,
    cost: np.ndarray,
    split: list[list[list[float]]],
    ranks: list[list[int]],
    segment_cost: float,
) -> DecodeResult:
    """Exact minimization over segmentations at one segment cost.

    best_*[e] describe the best decode of the prefix ending at e under the
    ordering (objective, segment count, label tuple); prefix bests extend
    to full-sequence bests because all three components accumulate
    monotonically under segment concatenation. The best copy of length
    d + 1 from a start costs base + its minimum, and its rank is the
    tables' first argmin unless an earlier rank rounds to the same value
    (see the module docstring). Only copies from earlier starts end at a
    start, so back[start] is final when the loop reaches it, and the labels
    of that prefix are built then, once. An exact tie at an end keeps the
    decode already there unless the new copy's labels are smaller.
    """
    total = cost.shape[0]
    best_cost = [0.0] + [np.inf] * total
    best_segs = [0] * (total + 1)
    back: list[tuple[int, int, int] | None] = [None] * (total + 1)
    labels: list[tuple[int, ...]] = [()]

    for start in range(total):
        if start:
            prev, length, rank = back[start]
            labels.append(labels[prev] + seg_dict.path(length, rank))
        base = best_cost[start] + segment_cost
        segs = best_segs[start] + 1
        earlier, mins = split[start]
        for end, low in zip(range(start + 1, total + 1), mins):
            value = base + low
            current = best_cost[end]
            if value > current or (value == current and segs > best_segs[end]):
                continue
            length = end - start
            rank = ranks[start][length - 1]
            if rank and base + earlier[length - 1] == value:
                rank = _first_rank(seg_dict, cost, base, start, length)
            if value == current and segs == best_segs[end]:
                other, *copy = back[end]
                new = labels[start] + seg_dict.path(length, rank)
                if new >= labels[other] + seg_dict.path(*copy):
                    continue
            best_cost[end] = value
            best_segs[end] = segs
            back[end] = (start, length, rank)

    segments: list[Segment] = []
    end = total
    while end > 0:
        start, length, rank = back[end]
        segments.append(Segment(start, length, *seg_dict.exemplar(length, rank)))
        end = start
    segments.reverse()
    prev, length, rank = back[total]
    final = labels[prev] + seg_dict.path(length, rank)
    return DecodeResult(final, tuple(segments), float(best_cost[total]))


def dp_decode_expected(
    marginals: MarginalMatrix, seg_dict: SegmentDict, segment_costs: Sequence[float]
) -> tuple[DecodeResult, ...]:
    """Minimize expected mislabelings plus segment cost under the marginals,
    once per segment cost.

    Every segment cost is checked before any table work. The tables are
    built once and shared by every segment cost. A label type with no
    marginal column costs a full unit at every position. With segment
    cost 0 the result matches predict_marginal.
    """
    if len(segment_costs) == 0:
        raise ValueError("no segment cost to decode at")
    for segment_cost in segment_costs:
        check_segment_cost(segment_cost, marginals.probs.shape[0])
    cost = _position_costs_expected(marginals, seg_dict.n_labels)
    if not seg_dict.levels:
        raise ValueError("segment dictionary is empty")
    if cost.shape[0] < 1:
        raise ValueError("nothing to decode")
    split, ranks = _tables(seg_dict, cost)
    return tuple(_decode(seg_dict, cost, split, ranks, c) for c in segment_costs)


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
