"""build_index embeds its dataset in one batch through embed_batch.

The oracle is the per-sentence path: checked_embedding of each sentence
with a provider over fresh parameters, pooled by embed_sentence and
normalized, and every cached sentence's rows against the reduceat kernel.
The batch must give the same token rows, vectors and sentence vectors by
bytes, and the parameters the same slots in the same order and the same
storage rows. Datasets repeat sentences, hold one-token sentences and one
sentence of more than EMBED_RUN_ROWS rows, and some providers have cached
or featurized part of the dataset before the build.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copytag import embeddings
from copytag.corpus import Dataset, Sentence, build_dataset
from copytag.embeddings import (
    EMBED_RUN_ROWS,
    EmbedderParams,
    HashedWindowEmbedder,
    embed_sentence,
)
from copytag.retrieval import ZERO_NORM, build_index, checked_embedding
from copytag.tagging import Tagger
from copytag.synthetic import toy_ner_corpus

from embedding_reference import reference_embed_columns

WORDS = ("the", "The", "cat", "x", "A1", "e.g.", "42", "Zürich", "東京", "ß", "-")
# 48 tokens of about 92 ids each at window 0, more at a wider window
LONG = ("abcdefghijklmnopqrstuvwxyz0123",) * 48


def _provider(window: int) -> HashedWindowEmbedder:
    return HashedWindowEmbedder(EmbedderParams(dim=4, n_buckets=2**16, window=window, seed=5))


@st.composite
def batches(draw):
    """(window, token tuples in dataset order, sentences embedded before
    the build, a sentence featurized before it but not cached)."""
    sentence = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(tuple)
    base = [*draw(st.lists(sentence, min_size=1, max_size=5)), (draw(st.sampled_from(WORDS)),), LONG]
    repeats = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=4))
    rows = [base[i] for i in [*range(len(base)), *repeats]]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    cached = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    featurized = rows[draw(st.integers(0, len(rows) - 1))]
    featurized = featurized[: draw(st.integers(0, len(featurized)))]
    return draw(st.sampled_from([0, 1, 2])), rows, cached, featurized


def _prepare(provider, db: Dataset, cached, featurized) -> None:
    for sid in cached:
        provider.embed(db.items[sid].sentence)
    if featurized:
        provider.embed(Sentence(10**6, featurized))


@settings(max_examples=40, deadline=None)
@given(batches())
def test_batched_build_matches_per_sentence_embedding(case):
    window, rows, cached, featurized = case
    db = build_dataset([(tokens, ("O",) * len(tokens)) for tokens in rows])
    provider, reference = _provider(window), _provider(window)
    _prepare(provider, db, cached, featurized)
    _prepare(reference, db, cached, featurized)

    index = build_index(db, provider)

    matrices = [checked_embedding(reference, item.sentence) for item in db.items]
    vectors = []
    for matrix in matrices:
        vec = embed_sentence(matrix)
        norm = float(np.linalg.norm(vec))
        vectors.append(vec if norm < ZERO_NORM else vec / norm)
    assert index.token_rows.tobytes() == np.concatenate(matrices).tobytes()
    assert index.vectors.tobytes() == np.array(vectors).tobytes()
    params, fresh = provider.params, reference.params
    assert list(params._slot.items()) == list(fresh._slot.items())
    assert params.storage.shape == fresh.storage.shape
    assert params.storage.tobytes() == fresh.storage.tobytes()
    # every distinct sentence is cached, and its rows are the reduceat sums
    assert set(provider._column_cache) >= set(rows)
    assert provider._column_cache[LONG].slots.size > EMBED_RUN_ROWS
    for sid, item in enumerate(db.items):
        columns = provider._column_cache[item.sentence.tokens]
        expected = reference_embed_columns(params.storage, columns.slots, columns.starts)
        lo, hi = index.row_starts[sid], index.row_starts[sid + 1]
        assert index.token_rows[lo:hi].tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None)
@given(batches(), st.data())
def test_non_finite_storage_row_names_the_first_sentence(case, data):
    window, rows, cached, featurized = case
    db = build_dataset([(tokens, ("O",) * len(tokens)) for tokens in rows])
    provider = _provider(window)
    _prepare(provider, db, cached, featurized)
    build_index(db, provider)
    poisoned = data.draw(st.integers(0, len(rows) - 1))
    slots = provider._column_cache[rows[poisoned]].slots
    slot = int(slots[data.draw(st.integers(0, slots.size - 1))])
    provider.params.storage[slot, 0] = np.nan
    first = next(
        item.sentence
        for item in db.items
        if slot in provider._column_cache[item.sentence.tokens].slots
    )
    with pytest.raises(ValueError) as today:
        checked_embedding(provider, first)
    # a new Dataset object, so the index is built again
    with pytest.raises(ValueError) as batched:
        build_index(Dataset(db.items, db.vocab), provider)
    assert str(batched.value) == str(today.value)
    assert str(today.value) == f"sentence {first.uid}: provider returned non-finite embeddings"


def test_tagger_caches_every_db_sentence_with_its_plan(monkeypatch):
    # a query equal to a db sentence is neither featurized nor planned
    # again: 25 to 32 of the 50 scored ner-k100 queries are db sentences
    db = toy_ner_corpus(40, seed=3)
    provider = HashedWindowEmbedder(dim=16, n_buckets=4096, seed=2)
    tagger = Tagger(provider, db, 5)
    distinct = {item.sentence.tokens for item in db.items}
    assert len(distinct) < len(db.items)
    assert set(provider._column_cache) == distinct
    for tokens in distinct:
        plan = vars(provider._column_cache[tokens])["plan"]
        assert plan and all(isinstance(run, embeddings._SumRun) for run in plan)

    featurized = []
    feature_entries = EmbedderParams._feature_entries

    def counted(params, keys):
        featurized.append(keys)
        return feature_entries(params, keys)

    def unplanned(*args):
        raise AssertionError("a cached sentence was planned again")

    monkeypatch.setattr(EmbedderParams, "_feature_entries", counted)
    monkeypatch.setattr(embeddings, "_sum_plan", unplanned)
    twin = Sentence(1000, db.items[7].sentence.tokens)
    tagger.tag(twin)
    assert featurized == []
