"""The benchmark's workloads and the seeded inputs each one runs on.

Every input is generated with copytag.synthetic and handed to the program
as CoNLL text, so the program only ever sees text it parses itself. The
sha256 of each text is recorded with the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from copytag.corpus import Dataset, relabel, write_conll
from copytag.synthetic import suffix_corpus, toy_ner_corpus

NER = "ner"
SUFFIX = "suffix"


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; the inputs themselves come from the seed.

    The training set is the first `train_size` sentences of the database.
    Queries are fresh sentences: round r tags chunk r of a seeded stream,
    `chunk_size` sentences each, and sweeps its first `sweep_size`.
    """

    name: str
    why: str
    corpus: str
    sent_len: int | None
    db_size: int
    train_size: int
    dev_size: int
    neighbors: int
    train_neighbors: int
    chunk_size: int
    sweep_size: int
    c_grid: tuple[float, ...]
    segment_cost: float = 0.4
    batch_size: int = 16


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ner-k100",
            why="retrieval-bound toy NER: neighbor re-embedding is most of tag "
            "time, the segment DP about 1%",
            corpus=NER,
            sent_len=None,
            db_size=600,
            train_size=30,
            dev_size=10,
            neighbors=100,
            train_neighbors=10,
            chunk_size=10,
            sweep_size=3,
            c_grid=(0.0, 0.2, 0.4, 0.8),
        ),
        Workload(
            name="suffix-l40-dp",
            why="DP-bound 40-token suffix sentences: segment dictionary and DP "
            "are most of dp tag and sweep time",
            corpus=SUFFIX,
            sent_len=40,
            db_size=32,
            train_size=4,
            dev_size=8,
            neighbors=16,
            train_neighbors=10,
            chunk_size=2,
            sweep_size=1,
            c_grid=(0.0, 0.4),
        ),
    )
}


def _bio_names(dataset: Dataset) -> Dataset:
    # sweep_c scores spans, which needs BIO tags; every suffix class
    # becomes a one-token span with the same label ids.
    return relabel(dataset, {name: f"B-{name}" for name in dataset.vocab.types})


def generate(workload: Workload, n_sentences: int, seed: int) -> Dataset:
    if workload.corpus == NER:
        return toy_ner_corpus(n_sentences, seed)
    if workload.sent_len is None:
        return _bio_names(suffix_corpus(n_sentences, seed))
    length = workload.sent_len
    return _bio_names(suffix_corpus(n_sentences, seed, min_len=length, max_len=length))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Inputs:
    """CoNLL texts of one workload and seed; query chunks are made on demand."""

    def __init__(self, workload: Workload, seed: int):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.workload = workload
        db_seed, dev_seed, query_seed = (
            int(s) for s in np.random.SeedSequence(seed).generate_state(3)
        )
        self._query_seed = query_seed
        db = generate(workload, workload.db_size, db_seed)
        self.db_text = write_conll(db)
        self.train_text = write_conll(
            Dataset(db.items[: workload.train_size], db.vocab)
        )
        self.dev_text = write_conll(generate(workload, workload.dev_size, dev_seed))
        self.digests = {
            "db": sha256(self.db_text),
            "train": sha256(self.train_text),
            "dev": sha256(self.dev_text),
        }

    def chunk_text(self, k: int, size: int | None = None) -> str:
        """Query chunk k; chunk 0 is the warm-up chunk."""
        size = self.workload.chunk_size if size is None else size
        text = write_conll(generate(self.workload, size, self._query_seed + k))
        self.digests.setdefault(f"chunk{k}", sha256(text))
        return text
