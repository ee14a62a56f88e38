"""End-to-end tagging of input sentences against a labeled database.

A Tagger shares the retrieval index over the database: build_index embeds
every database sentence once per provider revision, for every caller. Per
sentence a Tagger embeds only the input, whose matrix passes the one check
the index's rows pass, retrieval.checked_rows; it then retrieves
neighbors, gathers their token rows out of the index in one take, forms
the copy posterior and type marginals, and decodes either by per-token
marginal argmax or by the segment dynamic program. What it keeps of a
sentence (the neighbor set, posterior and marginals) holds no index rows,
so a kept result does not keep the index alive. Swapping the database swaps the output label
inventory with it, which is all zero-shot transfer requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .copy_model import MarginalMatrix, copy_logits, copy_posterior, marginal_over_types
from .corpus import Dataset, Sentence, build_dataset
from .decoder import (
    DEFAULT_MAX_SEGMENT_LEN,
    DecodeResult,
    SegmentDict,
    build_segment_dict,
    check_segment_cost,
    dp_decode_expected,
    predict_marginal,
)
from .embeddings import embed_sentence
from .retrieval import (
    NeighborSet,
    assemble_neighbor_set,
    build_index,
    checked_rows,
    query,
)

DECODE_MARGINAL = "marginal"
DECODE_DP = "dp"


def check_n_neighbors(n_neighbors: int) -> None:
    """Reject a neighbor count below 1."""
    if n_neighbors < 1:
        raise ValueError("n_neighbors must be at least 1")


@dataclass(eq=False)
class SentenceAnalysis:
    """Everything derived for one input sentence before decoding; the
    posterior is copy_posterior's read-only log-probability matrix."""

    sentence: Sentence
    neighbors: NeighborSet
    posterior: np.ndarray
    marginals: MarginalMatrix


@dataclass(eq=False)
class TaggedSentence:
    sentence: Sentence
    label_names: tuple[str, ...]
    label_ids: tuple[int, ...]
    decode: DecodeResult | None
    analysis: SentenceAnalysis


class Tagger:
    """Retrieval plus decoding against a fixed labeled database."""

    def __init__(self, provider, db: Dataset, n_neighbors: int):
        check_n_neighbors(n_neighbors)
        self.provider = provider
        self.db = db
        self.n_neighbors = n_neighbors
        self.index = build_index(db, provider)

    def analyze(self, sentence: Sentence) -> SentenceAnalysis:
        if self.provider.tag != self.index.provider_tag:
            # the kept neighbor rows were embedded under other parameters
            raise ValueError(
                f"provider is now {self.provider.tag!r} but the index was built "
                f"with {self.index.provider_tag!r}; build a new Tagger"
            )
        embeddings = checked_rows(self.provider, [sentence], self.provider.embed(sentence))
        ranked = query(self.index, embed_sentence(embeddings), self.n_neighbors)
        neighbors = assemble_neighbor_set(self.index, [sid for sid, _ in ranked])
        rows = self.index.token_rows.take(neighbors.rows, axis=0)
        posterior = copy_posterior(copy_logits(embeddings, rows))
        marginals = marginal_over_types(posterior, neighbors)
        return SentenceAnalysis(sentence, neighbors, posterior, marginals)

    def segment_dict(self, analysis: SentenceAnalysis) -> SegmentDict:
        cap = min(len(analysis.sentence), DEFAULT_MAX_SEGMENT_LEN)
        return build_segment_dict(analysis.neighbors, cap)

    def tag(
        self,
        sentence: Sentence,
        decode: str = DECODE_MARGINAL,
        segment_cost: float = 0.4,
    ) -> TaggedSentence:
        """Analyze and decode one sentence; the decode settings are checked
        before any work, the segment cost in every mode."""
        if decode not in (DECODE_MARGINAL, DECODE_DP):
            raise ValueError(f"unknown decode mode {decode!r}")
        check_segment_cost(segment_cost)
        analysis = self.analyze(sentence)
        if decode == DECODE_DP:
            seg_dict = self.segment_dict(analysis)
            try:
                (result,) = dp_decode_expected(analysis.marginals, seg_dict, (segment_cost,))
            except ValueError as exc:
                raise ValueError(f"sentence {sentence.uid}: {exc}") from None
            label_ids = result.labels
        else:
            label_ids = predict_marginal(analysis.marginals)
            result = None
        names = tuple(self.db.vocab.types[lab] for lab in label_ids)
        return TaggedSentence(sentence, names, label_ids, result, analysis)


def predictions_dataset(tagged: Sequence[TaggedSentence]) -> Dataset:
    """Collect tagged sentences into a Dataset with a fresh vocabulary."""
    return build_dataset((t.sentence.tokens, t.label_names) for t in tagged)
