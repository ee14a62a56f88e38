"""The embedder's window state is bounded by MAX_HELD_ROWS.

EmbedderParams holds a row for every window embedded since the last
set_columns, beside the window and feature entries. When a call's new
windows would take the held rows past MAX_HELD_ROWS, the held rows and
the window entries are dropped first, and a call holds every window it
reads, however many. The feature entries grow with the vocabulary, not
with the stream: a drop keeps them unless they number more than
MAX_HELD_ROWS keys, so known tokens are not hashed again. With the cap
forced down to a few dozen rows, so that drops happen all the time,
tagging, sweeping and fine-tuning must give the bytes they give uncapped,
and tagging a stream of new sentences must keep the same memory once the
cap is reached.
"""

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

from embedding_reference import flat_entries, reference_embed_columns

CAP = 64


def _keys(windows):
    # the (offset, token) keys a set of windows is featurized from
    return {(j - place, token) for place, tokens in windows for j, token in enumerate(tokens)}


def _assert_state_is_the_held_windows(params: EmbedderParams) -> None:
    # with no training step, every window entry belongs to a held window:
    # a drop leaves none of the older ones behind
    assert set(params._windows) == set(params._held)
    assert set(params._features) >= _keys(params._held)


@pytest.fixture
def drops(monkeypatch):
    """Force the cap down to CAP and record, per window_rows call, whether
    it dropped the window state; a call that holds more leaves at most the
    cap of rows held, or the windows of that one call."""
    monkeypatch.setattr(embeddings, "MAX_HELD_ROWS", CAP)
    window_rows = EmbedderParams.window_rows
    seen = []

    def checked(params, windows):
        entries, held = params._windows, len(params._held)
        rows = window_rows(params, windows)
        seen.append(params._windows is not entries)
        if len(params._held) != held:
            assert len(params._held) <= max(embeddings.MAX_HELD_ROWS, len(set(windows)))
        return rows

    monkeypatch.setattr(EmbedderParams, "window_rows", checked)
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
            columns = flat_entries(provider.token_columns(item.sentence))
            expected = reference_embed_columns(provider.params.storage, columns.slots, columns.starts)
            assert rows.tobytes() == expected.tobytes()
            _assert_state_is_the_held_windows(provider.params)
        assert sum(drops) >= 3
        assert provider.params._rows.shape[0] == CAP

    def test_a_call_past_the_cap_holds_all_its_windows(self, drops):
        provider = HashedWindowEmbedder(_params())
        wide = Sentence(0, tuple(f"w{i}" for i in range(CAP + 6)))
        first = provider.embed(wide)
        assert len(provider.params._held) == CAP + 6
        # held past the cap, so embedding it again sums and drops nothing
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embeddings, "_column_sums", pytest.fail)
            assert provider.embed(wide).tobytes() == first.tobytes()
        assert drops == [True, False]
        # the next new window drops them, and the buffer they grew
        assert provider.params._rows.shape[0] == 2 * CAP
        provider.embed(Sentence(1, ("new",)))
        assert drops == [True, False, True]
        assert len(provider.params._held) == 1 and provider.params._rows.shape[0] == CAP


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
        assert len(params._held) > 300 and len(features) == 262
        # a one-token window no sentence has, of a known key: a drop
        provider.embed(Sentence(0, sentences[0].tokens[:1]))
        assert len(params._held) == 1 and params._windows.keys() == params._held.keys()
        if cap < len(features):
            assert params._features is not features
            return

        def fail(*args):
            raise AssertionError("known keys featurized again")

        assert params._features is features
        monkeypatch.setattr(embeddings, "fnv1a64_keys", fail)
        monkeypatch.setattr(EmbedderParams, "_seed_columns", fail)
        again = provider.embed_batch(sentences)
        assert [m.tobytes() for m in again] == [m.tobytes() for m in first]


def _tag_and_sweep():
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
                    analysis.neighbors.ids.tobytes(),
                    analysis.posterior.tobytes(),
                    analysis.marginals.probs.tobytes(),
                )
            )
            _assert_state_is_the_held_windows(provider.params)
    out.append(sweep_c([0.0, 0.4, 2.0], provider, db, data, 5))
    return out


def _fine_tune() -> str:
    config = TrainConfig(epochs=2, batch_size=4, train_neighbors=4, test_neighbors=4)
    checkpoint = fine_tune(
        config, suffix_corpus(16, seed=7), dev=suffix_corpus(4, seed=9),
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
        assert capped == uncapped


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
