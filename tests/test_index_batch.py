"""build_index embeds its dataset in one batch through embed_batch.

The oracle is the per-sentence path: checked_rows of each sentence's own
embed, with a provider over fresh parameters, pooled by embed_sentence and
normalized, and every sentence's rows against the reduceat kernel. The
batch must give the same token rows, vectors and sentence vectors by
bytes, and the parameters the same slots in the same order and the same
storage rows. Datasets repeat sentences, hold one-token sentences and one
sentence of more than EMBED_RUN_ROWS rows, and some providers have cached
or featurized part of the dataset before the build. The parameters hold
the row of every window embedded in a batch: a query made of held
windows is a gather of them, which must equal the per-sentence path and
must not featurize or sum anything, until the weights move.
"""

from contextlib import contextmanager
from unittest import mock

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
from copytag.retrieval import ZERO_NORM, build_index, checked_rows
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

    matrices = [checked_rows(reference, [item.sentence], reference.embed(item.sentence)) for item in db.items]
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
    # every sentence's rows are the reduceat sums of its columns
    assert provider.token_columns(Sentence(0, LONG))[1].size > EMBED_RUN_ROWS
    for sid, item in enumerate(db.items):
        _, slots, starts = provider.token_columns(item.sentence)
        expected = reference_embed_columns(params.storage, slots, starts)
        lo, hi = index.row_starts[sid], index.row_starts[sid + 1]
        assert index.token_rows[lo:hi].tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None)
@given(batches(), st.data())
def test_non_finite_storage_row_names_the_first_sentence(case, data):
    window, rows, cached, featurized = case
    db = build_dataset([(tokens, ("O",) * len(tokens)) for tokens in rows])
    provider = _provider(window)
    _prepare(provider, db, cached, featurized)
    # every column is materialized; rewriting one column with its own
    # values moves the revision, so nothing is held and a row poisoned now
    # is read by both paths
    params = provider.params
    columns = {item.sentence.tokens: provider.token_columns(item.sentence) for item in db.items}
    ids, slots, _ = columns[rows[data.draw(st.integers(0, len(rows) - 1))]]
    at = data.draw(st.integers(0, slots.size - 1))
    slot = int(slots[at])
    params.set_columns(ids[at : at + 1], params.storage[[slot]])
    params.storage[slot, 0] = np.nan
    first = next(item.sentence for item in db.items if slot in columns[item.sentence.tokens][1])
    with pytest.raises(ValueError) as today:
        checked_rows(provider, [first], HashedWindowEmbedder(params).embed(first))
    with pytest.raises(ValueError) as batched:
        build_index(db, provider)
    assert str(batched.value) == str(today.value)
    assert str(today.value) == f"sentence {first.uid}: provider returned non-finite embeddings"


def _token_windows(tokens, window):
    # what decides a token's row: the (offset, token) pairs of its window
    return [
        tuple((j - t, tokens[j]) for j in range(max(0, t - window), min(len(tokens), t + window + 1)))
        for t in range(len(tokens))
    ]


@contextmanager
def _nothing_featurized_or_summed():
    with (
        mock.patch.object(EmbedderParams, "_feature_entries", side_effect=AssertionError("featurized")),
        mock.patch.object(embeddings, "_column_sums", side_effect=AssertionError("summed")),
    ):
        yield


def test_tagger_holds_every_db_window():
    # a query equal to a db sentence is neither featurized nor summed: 25
    # to 32 of the 50 scored ner-k100 queries are db sentences. No db
    # sentence goes through token_columns.
    db = toy_ner_corpus(40, seed=3)
    provider = HashedWindowEmbedder(EmbedderParams(dim=16, n_buckets=4096, seed=2))
    with mock.patch.object(HashedWindowEmbedder, "token_columns", side_effect=AssertionError("columns")):
        tagger = Tagger(provider, db, 5)
    distinct = {item.sentence.tokens for item in db.items}
    assert len(distinct) < len(db.items)
    window = provider.params.window
    windows = {w for tokens in distinct for w in embeddings._windows(tokens, window)}
    assert len(windows) < sum(len(item) for item in db.items)
    params = provider.params
    assert params._windows.keys() == windows
    assert params._held[list(params._windows.values())].all()

    twin = Sentence(1000, db.items[7].sentence.tokens)
    with _nothing_featurized_or_summed():
        tagger.tag(twin)


WIDE = tuple(f"{LONG[0]}{i:02d}" for i in range(48))  # 48 distinct windows


@st.composite
def held_queries(draw):
    """(window, db token tuples, queries). A query is a db sentence, which
    is fully held; a db sentence with one word swapped for a word the db
    lacks, partly held when it is long enough; or words drawn afresh, the
    new word among them."""
    sentence = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(tuple)
    rows = [*draw(st.lists(sentence, min_size=1, max_size=4)), (draw(st.sampled_from(WORDS)),)]
    rows += [LONG, WIDE]
    queries = []
    for kind in draw(st.lists(st.sampled_from(["db", "swap", "fresh"]), min_size=1, max_size=6)):
        if kind == "fresh":
            queries.append(draw(st.lists(st.sampled_from([*WORDS, "unseen"]), min_size=1, max_size=6)))
            continue
        tokens = list(draw(st.sampled_from(rows)))
        if kind == "swap":
            tokens[draw(st.integers(0, len(tokens) - 1))] = "unseen"
        queries.append(tokens)
    return draw(st.sampled_from([0, 1, 2])), rows, [tuple(q) for q in queries]


@settings(max_examples=30, deadline=None)
@given(held_queries(), st.data())
def test_held_windows_embed_as_the_per_sentence_path(case, data):
    window, rows, queries = case
    db = build_dataset([(tokens, ("O",) * len(tokens)) for tokens in rows])
    provider = _provider(window)
    build_index(db, provider)
    assert provider.token_columns(Sentence(0, WIDE))[1].size > EMBED_RUN_ROWS
    db_windows = {w for tokens in rows for w in _token_windows(tokens, window)}
    for uid, tokens in enumerate(queries):
        sentence = Sentence(uid, tokens)
        if set(_token_windows(tokens, window)) <= db_windows:
            with _nothing_featurized_or_summed():
                embedded = provider.embed(sentence)
        else:
            embedded = provider.embed(sentence)
        assert embedded.tobytes() == _provider(window).embed(sentence).tobytes()

    # moved weights drop every held row, before and after a new batch
    params = provider.params
    moved = provider.token_columns(Sentence(0, data.draw(st.sampled_from(rows))))[0]
    moved = np.unique(moved)[: data.draw(st.integers(1, 3))]
    values = data.draw(st.sampled_from([0.5, -2.0])) * np.ones((moved.size, params.dim))
    params.set_columns(moved, values)
    for rebuilt in (False, True):
        if rebuilt:
            build_index(db, provider)
        for uid, tokens in enumerate([*queries, *rows]):
            sentence = Sentence(uid, tokens)
            expected = HashedWindowEmbedder(params.copy()).embed(sentence)
            assert provider.embed(sentence).tobytes() == expected.tobytes()
