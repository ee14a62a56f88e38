"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine one process's speed drifts by tens of percent over
minutes. The fastest of many timings of an operation drops the bursts of
contention; what remains drifts with the machine. This kernel does the
same kinds of work as copytag's hot paths: string features hashed in
Python, dict slot lookups, a numpy gather with reduceat and tanh, and a
Python trie walk. It imports nothing from copytag, so a faster program
leaves it unchanged. The fastest kernel timing of a run, against
REFERENCE_S, gives the factor that brings the run's times to the
reference speed.

Change nothing here: every figure the benchmark has reported depends on it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# fastest kernel time on the machine the benchmark was defined on
# (2 vCPUs, Python 3.11, numpy 2.4)
REFERENCE_S = 0.007

_N_COLUMNS = 20000
_rng = np.random.default_rng(0)
_STORE = _rng.normal(size=(_N_COLUMNS, 128))
_WORDS = [f"w{i}x{i % 7}" for i in range(40)]
_LABELS = [tuple(int(x) for x in _rng.integers(0, 6, 30)) for _ in range(12)]
_SLOT: dict[int, int] = {}


def _fnv(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def _embed_like() -> float:
    columns = []
    for t in range(len(_WORDS)):
        feats = set()
        for off in (-2, -1, 0, 1, 2):
            j = t + off
            if 0 <= j < len(_WORDS):
                padded = f"^{_WORDS[j]}$"
                for n in (2, 3):
                    for i in range(len(padded) - n + 1):
                        feats.add(_fnv(f"{off}|g|{padded[i:i + n]}") % _N_COLUMNS)
        columns.append(sorted(feats))
    flat = [c for cols in columns for c in cols]
    slots = np.fromiter((_SLOT.setdefault(c, c) for c in flat), dtype=np.int64)
    bounds = np.cumsum([0] + [len(c) for c in columns[:-1]])
    return float(np.tanh(np.add.reduceat(_STORE[slots], bounds, axis=0)).sum())


class _Node:
    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: dict[int, _Node] = {}


def _trie_like() -> float:
    root = _Node()
    for seq in _LABELS:
        for start in range(len(seq)):
            node = root
            for label in seq[start:]:
                child = node.children.get(label)
                if child is None:
                    child = node.children[label] = _Node()
                node = child
    best = 0.0

    def walk(node: _Node, acc: float, depth: int) -> None:
        nonlocal best
        for label in sorted(node.children):
            value = acc + label * 0.1
            best = max(best, value)
            if depth < 8:
                walk(node.children[label], value, depth + 1)

    walk(root, 0.0, 0)
    return best


def time_kernel() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = perf_counter()
    _embed_like()
    _trie_like()
    return perf_counter() - start
