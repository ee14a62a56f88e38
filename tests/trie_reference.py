"""Reference oracle: the prefix-trie segment dictionary and its decoders.

This is the pointer-based trie the array dictionary in copytag.decoder
replaced, kept verbatim in behaviour so tests can require the array
decoders to return the same DecodeResult, bit for bit, and the same node
count. Costs come from a per-position callable, as they did originally.
"""

from __future__ import annotations

from typing import Callable, Sequence

from copytag.decoder import DecodeResult, Segment
from copytag.retrieval import NeighborSet


class Node:
    __slots__ = ("children", "neighbor", "offset", "depth")

    def __init__(self, neighbor: int, offset: int, depth: int):
        self.children: dict[int, Node] = {}
        self.neighbor = neighbor
        self.offset = offset
        self.depth = depth


class Trie:
    def __init__(self, root: Node, node_count: int, depth: int):
        self.root = root
        self.node_count = node_count
        self.depth = depth


def build_trie(neighbors: NeighborSet, max_len: int) -> Trie:
    """Insert every contiguous subsequence of length <= max_len."""
    root = Node(-1, -1, 0)
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
                    child = Node(m, start, pos - start + 1)
                    node.children[label] = child
                    count += 1
                    deepest = max(deepest, child.depth)
                node = child
    return Trie(root, count, deepest)


def trie_dp(
    n_positions: int,
    trie: Trie,
    segment_cost: float,
    cost_at: Callable[[int, int], float],
) -> DecodeResult:
    """Exact minimization over (position, trie node) states."""
    if not trie.root.children:
        raise ValueError("segment dictionary is empty")
    if n_positions < 1:
        raise ValueError("nothing to decode")

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
        reach = min(trie.depth, total - start)

        def walk(node: Node, acc: float) -> None:
            depth = len(path)
            for label in sorted(node.children):
                child = node.children[label]
                step = acc + cost_at(start + depth, label)
                path.append(label)
                end = start + depth + 1
                candidate = (base_cost + segment_cost) + step
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

        walk(trie.root, 0.0)

    segments: list[Segment] = []
    end = total
    while end > 0:
        start, neighbor, offset = back[end]
        segments.append(Segment(start, end - start, neighbor, offset))
        end = start
    segments.reverse()
    return DecodeResult(best_labels[total], tuple(segments), float(best_cost[total]))


def trie_greedy(gold: Sequence[int], trie: Trie, segment_cost: float) -> DecodeResult:
    """Left-to-right greedy: fewest mismatches, then longest, then smallest."""
    gold = tuple(int(g) for g in gold)
    if not trie.root.children:
        raise ValueError("segment dictionary is empty")
    if not gold:
        raise ValueError("nothing to decode")

    labels: list[int] = []
    segments: list[Segment] = []
    objective = 0.0
    pos = 0
    while pos < len(gold):
        reach = min(trie.depth, len(gold) - pos)
        path: list[int] = []
        best: tuple[int, int, tuple[int, ...]] | None = None
        best_pick: tuple[Node, float] | None = None

        def walk(node: Node, mismatches: int) -> None:
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

        walk(trie.root, 0)
        node, cost = best_pick
        chosen = best[2]
        labels.extend(chosen)
        segments.append(Segment(pos, len(chosen), node.neighbor, node.offset))
        objective = (objective + segment_cost) + cost
        pos += len(chosen)
    return DecodeResult(tuple(labels), tuple(segments), objective)


def trie_sequences(trie: Trie) -> dict[tuple[int, ...], tuple[int, int]]:
    """Every stored sequence mapped to its (neighbor, offset) exemplar."""
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    stack: list[tuple[Node, tuple[int, ...]]] = [(trie.root, ())]
    while stack:
        node, path = stack.pop()
        for label, child in node.children.items():
            out[path + (label,)] = (child.neighbor, child.offset)
            stack.append((child, path + (label,)))
    return out
