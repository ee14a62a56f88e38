"""Shared builders for randomized test instances."""

import numpy as np
import pytest

from copytag.copy_model import MarginalMatrix
from copytag.corpus import Dataset, LabeledSequence, Sentence, build_dataset
from copytag.retrieval import NeighborEntry, NeighborSet


def make_neighbor_set(
    rng: np.random.Generator,
    n_neighbors: int = 3,
    max_len: int = 5,
    n_types: int = 4,
    dim: int = 6,
) -> NeighborSet:
    """Random labeled neighbor sentences with random token embeddings."""
    entries = []
    for m in range(n_neighbors):
        length = int(rng.integers(1, max_len + 1))
        tokens = tuple(f"n{m}t{k}" for k in range(length))
        labels = tuple(int(v) for v in rng.integers(0, n_types, size=length))
        embeddings = rng.normal(size=(length, dim))
        entries.append(
            NeighborEntry(LabeledSequence(Sentence(m, tokens), labels), embeddings)
        )
    return NeighborSet.from_entries(entries)


def labels_only_set(label_rows) -> NeighborSet:
    """NeighborSet from bare label sequences; embeddings are placeholders."""
    entries = []
    for m, labels in enumerate(label_rows):
        tokens = tuple(f"t{m}_{k}" for k in range(len(labels)))
        entries.append(
            NeighborEntry(
                LabeledSequence(Sentence(m, tokens), tuple(labels)),
                np.zeros((len(labels), 2)),
            )
        )
    return NeighborSet.from_entries(entries)


def present_types(neighbors: NeighborSet) -> tuple[int, ...]:
    """The distinct label type ids of a neighbor set, ascending: the
    marginal columns' type ids."""
    return tuple(np.unique(neighbors.flat_labels).tolist())


def column_index(marginals: MarginalMatrix) -> dict[int, int]:
    """type id -> its marginal column."""
    return {tid: col for col, tid in enumerate(marginals.type_ids)}


def make_marginals(
    rng: np.random.Generator, n_tokens: int, neighbors: NeighborSet
) -> MarginalMatrix:
    """Random strictly positive rows normalized over the present types."""
    type_ids = present_types(neighbors)
    raw = rng.uniform(0.05, 1.0, size=(n_tokens, len(type_ids)))
    probs = raw / raw.sum(axis=1, keepdims=True)
    return MarginalMatrix(probs=probs, type_ids=type_ids)


def make_gold(
    rng: np.random.Generator, n_tokens: int, n_types: int
) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, n_types, size=n_tokens))


def make_tagged_corpus(
    rng: np.random.Generator, n_sentences: int = 6, max_len: int = 5
) -> tuple[Dataset, list[np.ndarray]]:
    """A random dataset over string tags drawn from a shuffled tag set, and
    one random token matrix per sentence."""
    names = [str(v) for v in rng.permutation(["A", "B", "C", "D", "E", "F"])]
    rows = []
    for m in range(n_sentences):
        length = int(rng.integers(1, max_len + 1))
        tags = [names[int(v)] for v in rng.integers(0, len(names), size=length)]
        rows.append((tuple(f"s{m}t{k}" for k in range(length)), tuple(tags)))
    db = build_dataset(rows)
    return db, [rng.normal(size=(len(item), 4)) for item in db.items]


def corpus_order(db: Dataset, names) -> list[str]:
    """`names` in the order the corpus first shows them."""
    wanted = set(names)
    seen = dict.fromkeys(
        db.vocab.types[t] for item in db.items for t in item.labels
    )
    return [name for name in seen if name in wanted]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240816)
