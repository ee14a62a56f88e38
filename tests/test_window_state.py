"""The embedder's window state is bounded by MAX_HELD_ROWS.

EmbedderParams gives every window it reads one number, which names the
window's flat entry and its row; the row is held from the window's first
embedding until set_columns. window_rows and token_columns number windows
alike, and a call whose windows would take the count past MAX_HELD_ROWS
while others are numbered first drops every window's entry and row; a
call numbers every window it reads, however many. So the one cap bounds
the entries and the rows, in training too. The feature entries grow with
the vocabulary, not with the stream: a drop keeps them unless they
number more than MAX_HELD_ROWS keys, so known tokens are not hashed
again. With the cap forced down to a few dozen windows, so that drops
happen all the time, tagging, sweeping and fine-tuning must give the
bytes they give uncapped, and tagging a stream of new sentences must
keep the same memory once the cap is reached.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import copytag.embeddings as embeddings
from copytag.corpus import Sentence
from copytag.embeddings import EmbedderParams, HashedWindowEmbedder
from copytag.evaluation import sweep_c
from copytag.synthetic import suffix_corpus, toy_ner_corpus
from copytag.tagging import DECODE_DP, DECODE_MARGINAL, Tagger
from copytag.trainer import TrainConfig, fine_tune, save_checkpoint

from embedding_reference import reference_embed_columns

CAP = 64


def _keys(windows):
    # the (offset, token) keys a set of windows is featurized from
    return {(j - place, token) for place, tokens in windows for j, token in enumerate(tokens)}


def _assert_state_is_the_held_windows(params: EmbedderParams) -> None:
    # with no training step, every numbered window is held: a drop leaves
    # none of the older ones behind
    numbers = sorted(params._windows.values())
    assert numbers == list(range(len(numbers)))
    assert params._held[numbers].all() and np.count_nonzero(params._held) == len(numbers)
    assert params._unheld == 0
    assert set(params._features) >= _keys(params._windows)


@pytest.fixture
def drops(monkeypatch):
    """Force the cap down to CAP and record, per window_rows and
    token_columns call, whether it dropped the window state. After every
    such call at most the cap of windows are numbered, or the windows of
    that one call."""
    monkeypatch.setattr(embeddings, "MAX_HELD_ROWS", CAP)
    window_rows, token_columns = EmbedderParams.window_rows, HashedWindowEmbedder.token_columns
    seen = []

    def bounded(params, windows):
        assert len(params._windows) <= max(embeddings.MAX_HELD_ROWS, len(set(windows)))

    def checked_rows(params, windows):
        numbered = params._windows
        rows = window_rows(params, windows)
        seen.append(params._windows is not numbered)
        bounded(params, windows)
        return rows

    def checked_columns(provider, sentence):
        numbered = provider.params._windows
        columns = token_columns(provider, sentence)
        seen.append(provider.params._windows is not numbered)
        bounded(provider.params, embeddings._windows(sentence.tokens, provider.params.window))
        return columns

    monkeypatch.setattr(EmbedderParams, "window_rows", checked_rows)
    monkeypatch.setattr(HashedWindowEmbedder, "token_columns", checked_columns)
    return seen


def _params() -> EmbedderParams:
    return EmbedderParams(dim=8, n_buckets=1024, seed=4)


class TestCappedState:
    def test_stream_stays_within_the_cap(self, drops):
        # new sentences one at a time: the state never passes the cap and
        # holds only the windows since the last drop, and every row equals
        # the reduceat oracle's over the current storage
        provider = HashedWindowEmbedder(_params())
        for item in suffix_corpus(40, seed=8).items:
            rows = provider.embed(item.sentence)
            _, slots, starts = provider.token_columns(item.sentence)
            expected = reference_embed_columns(provider.params.storage, slots, starts)
            assert rows.tobytes() == expected.tobytes()
            _assert_state_is_the_held_windows(provider.params)
        assert sum(drops) >= 3
        assert provider.params._rows.shape[0] == CAP

    def test_a_call_past_the_cap_holds_all_its_windows(self, drops):
        provider = HashedWindowEmbedder(_params())
        wide = Sentence(0, tuple(f"w{i}" for i in range(CAP + 6)))
        first = provider.embed(wide)
        assert len(provider.params._windows) == np.count_nonzero(provider.params._held) == CAP + 6
        # held past the cap, so embedding it again sums and drops nothing
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "_column_sums", pytest.fail)
            assert provider.embed(wide).tobytes() == first.tobytes()
        assert drops == [False, False]
        # the buffer they grew stops at them, not at its next doubling; the
        # next call's window would take them past the cap: a drop, of the
        # buffer too
        assert provider.params._rows.shape[0] == CAP + 6
        provider.embed(Sentence(1, ("new",)))
        assert drops == [False, False, True]
        assert len(provider.params._windows) == 1 and provider.params._rows.shape[0] == CAP


class TestFeatureEntriesOutliveADrop:
    @pytest.mark.parametrize("cap", [300, 100])
    def test_known_tokens_hash_nothing_after_a_drop(self, monkeypatch, cap):
        # toy NER sentences name 262 (offset, token) keys in 800 windows:
        # under a cap of 300 a drop of the rows keeps the feature entries,
        # and reading the sentences again sums their windows but neither
        # hashes nor seeds; under a cap of 100 the drop takes them too
        monkeypatch.setattr(embeddings, "MAX_HELD_ROWS", cap)
        sentences = [item.sentence for item in toy_ner_corpus(200, seed=1).items]
        provider = HashedWindowEmbedder(_params())
        params = provider.params
        first = provider.embed_batch(sentences)
        features = params._features
        assert len(params._windows) > 300 and len(features) == 262
        # a one-token window no sentence has, of a known key: a drop
        provider.embed(Sentence(0, sentences[0].tokens[:1]))
        assert len(params._windows) == 1
        _assert_state_is_the_held_windows(params)
        if cap < len(features):
            assert params._features is not features
            return

        def fail(*args):
            raise AssertionError("known keys featurized again")

        assert params._features is features
        monkeypatch.setattr(embeddings, "fnv1a64_keys", fail)
        monkeypatch.setattr(EmbedderParams, "_seed_columns", fail)
        assert provider.embed_batch(sentences).tobytes() == first.tobytes()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tag_and_sweep():
    # byte strings as digests, so a mismatch is reported without a long diff
    db = toy_ner_corpus(30, seed=11)
    data = toy_ner_corpus(10, seed=12)
    provider = HashedWindowEmbedder(EmbedderParams(dim=16, n_buckets=1024, seed=3))
    tagger = Tagger(provider, db, 5)
    out = []
    for item in data.items:
        for decode in (DECODE_MARGINAL, DECODE_DP):
            tagged = tagger.tag(item.sentence, decode=decode)
            analysis = tagged.analysis
            out.append(
                (
                    tagged.label_ids,
                    tagged.decode,
                    _digest(analysis.neighbors.ids.tobytes()),
                    _digest(analysis.posterior.tobytes()),
                    _digest(analysis.marginals.probs.tobytes()),
                )
            )
            _assert_state_is_the_held_windows(provider.params)
    out.append(sweep_c([0.0, 0.4, 2.0], provider, db, data, 5))
    return out


def _fine_tune(train=None) -> str:
    config = TrainConfig(epochs=2, batch_size=4, train_neighbors=4, test_neighbors=4)
    checkpoint = fine_tune(
        config, train or suffix_corpus(16, seed=7), dev=suffix_corpus(4, seed=9),
        provider=HashedWindowEmbedder(_params()),
    )
    return save_checkpoint(checkpoint)


class TestCapMovesNoByte:
    def test_tagging_and_sweep(self, drops):
        capped = _tag_and_sweep()
        assert sum(drops) >= 3
        drops.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "MAX_HELD_ROWS", 2**16)
            uncapped = _tag_and_sweep()
        assert not any(drops)
        assert capped == uncapped

    def test_fine_tune(self, drops):
        capped = _fine_tune()
        assert sum(drops) >= 3
        drops.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "MAX_HELD_ROWS", 2**16)
            uncapped = _fine_tune()
        assert not any(drops)
        # digests: a diff of two long checkpoints would take minutes
        assert _digest(capped.encode()) == _digest(uncapped.encode())


class TestTrainingStaysWithinTheCap:
    def test_fine_tune_numbers_at_most_the_cap(self, drops):
        # every step's set_columns unholds the rows, and the training
        # sentences' token_columns number windows too: 60 suffix sentences
        # have 385 windows, and the drops fixture checks that no
        # window_rows or token_columns call leaves more than the cap of
        # them numbered, or more than its own
        train = suffix_corpus(60, seed=3)
        capped = _fine_tune(train)
        assert sum(drops) >= 3
        drops.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "MAX_HELD_ROWS", 2**16)
            uncapped = _fine_tune(train)
        assert not any(drops)
        # digests: a diff of two long checkpoints would take minutes
        assert _digest(capped.encode()) == _digest(uncapped.encode())

    def test_a_drop_by_token_columns_between_batches(self, drops):
        # one embed_batch holds more than the cap of rows; a sentence's
        # token_columns then drops them, and the next embed_batch gives
        # their numbers again, to other windows, and must sum them afresh
        provider = HashedWindowEmbedder(_params())
        params = provider.params
        held = [item.sentence for item in suffix_corpus(12, seed=8).items]
        provider.embed_batch(held)
        assert len(params._windows) > CAP
        wide = Sentence(9, tuple(f"w{i}" for i in range(CAP)))
        provider.token_columns(wide)
        assert drops == [False, True] and len(params._windows) == CAP
        sentences = [wide, *held]
        rows = provider.embed_batch(sentences)
        bounds = np.cumsum([0, *map(len, sentences)])
        assert rows.shape == (bounds[-1], params.dim)
        for sentence, lo, hi in zip(sentences, bounds, bounds[1:]):
            _, slots, starts = provider.token_columns(sentence)
            expected = reference_embed_columns(params.storage, slots, starts)
            assert rows[lo:hi].tobytes() == expected.tobytes()


def test_retained_memory_stops_growing(monkeypatch):
    # new 40-token suffix queries: uncapped, each keeps ~80 KiB of rows and
    # entries at dim 8 for good; capped, memory after the first drops
    # rises and falls between drops but no longer grows
    monkeypatch.setattr(embeddings, "MAX_HELD_ROWS", 120)
    db = suffix_corpus(20, seed=1, min_len=40, max_len=40)
    queries = [item.sentence for item in suffix_corpus(64, seed=2, min_len=40, max_len=40).items]
    tracemalloc.start()
    try:
        tagger = Tagger(HashedWindowEmbedder(EmbedderParams(dim=8, n_buckets=4096, seed=1)), db, 5)
        retained = []
        for uid, query in enumerate(queries):
            tagger.tag(Sentence(uid, query.tokens))
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    early, late = max(retained[16:32]), max(retained[48:])
    assert late - early < 512 * 1024, (early, late)
