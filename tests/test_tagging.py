import gc
import weakref

import numpy as np
import pytest

from copytag.corpus import Sentence, build_dataset, relabel
from copytag.decoder import (
    DEFAULT_MAX_SEGMENT_LEN,
    build_segment_dict,
    dp_decode_expected,
)
from copytag.embeddings import EmbedderParams, HashedWindowEmbedder
from copytag.evaluation import sweep_c
from copytag.synthetic import suffix_corpus, toy_ner_corpus
import copytag.tagging as tagging
from copytag.tagging import (
    DECODE_DP,
    DECODE_MARGINAL,
    Tagger,
    predictions_dataset,
)

from param_columns import set_column

DB_ROWS = [
    (("alice", "likes", "tea"), ("PER", "O", "O")),
    (("bob", "hates", "coffee"), ("PER", "O", "O")),
    (("paris", "is", "big"), ("LOC", "O", "O")),
    (("london", "is", "old"), ("LOC", "O", "O")),
    (("tea", "costs", "little"), ("O", "O", "O")),
]


def tag_all(provider, db, inputs, n_neighbors):
    """Tag every sentence of `inputs` against `db` with one Tagger."""
    tagger = Tagger(provider, db, n_neighbors)
    return [tagger.tag(item.sentence) for item in inputs.items]


def count_embeds(monkeypatch, provider) -> list:
    """Record every sentence `provider` embeds from now on."""
    calls = []
    embed = provider.embed

    def counted(sentence):
        calls.append(sentence)
        return embed(sentence)

    monkeypatch.setattr(provider, "embed", counted)
    return calls


def poison_embeds(monkeypatch, provider, tokens) -> None:
    """Make `provider` return a NaN entry for sentences with `tokens`."""
    embed = provider.embed

    def poisoned(sentence):
        matrix = embed(sentence)
        if sentence.tokens == tokens:
            matrix = matrix.copy()
            matrix[0, 0] = np.nan
        return matrix

    monkeypatch.setattr(provider, "embed", poisoned)


@pytest.fixture
def db():
    return build_dataset(DB_ROWS)


@pytest.fixture
def provider():
    return HashedWindowEmbedder(EmbedderParams(dim=24, n_buckets=512, seed=3))


class TestTagger:
    def test_marginal_mode_fields(self, db, provider):
        tagger = Tagger(provider, db, n_neighbors=3)
        out = tagger.tag(Sentence(100, ("alice", "likes", "coffee")))
        assert out.decode is None
        assert len(out.label_names) == 3
        assert all(name in db.vocab.types for name in out.label_names)
        assert out.label_names == tuple(db.vocab.types[i] for i in out.label_ids)
        posterior = out.analysis.posterior
        assert posterior.shape == (3, out.analysis.neighbors.n_total)

    def test_identical_db_sentence_dominates(self, db, provider):
        # the verbatim twin of item 0 shares every hashed feature, so the
        # copy posterior should land its labels
        tagger = Tagger(provider, db, n_neighbors=2)
        out = tagger.tag(Sentence(100, ("alice", "likes", "tea")))
        assert out.label_names == ("PER", "O", "O")

    def test_stale_provider_refused(self, db, provider):
        tagger = Tagger(provider, db, n_neighbors=2)
        built_with = provider.tag
        set_column(provider.params, 0, np.zeros(provider.dim))
        with pytest.raises(ValueError) as err:
            tagger.analyze(Sentence(100, ("alice", "likes", "tea")))
        assert built_with in str(err.value)
        assert provider.tag in str(err.value)

    def test_dp_zero_cost_matches_marginal(self, db, provider):
        tagger = Tagger(provider, db, n_neighbors=3)
        sent = Sentence(100, ("bob", "likes", "tea"))
        marginal = tagger.tag(sent, decode=DECODE_MARGINAL)
        dp = tagger.tag(sent, decode=DECODE_DP, segment_cost=0.0)
        assert dp.label_ids == marginal.label_ids
        assert dp.decode is not None
        assert sum(s.length for s in dp.decode.segments) == 3

    def test_dp_segments_capped_at_64(self, provider):
        # one 70-token db sentence with a single label: every span of the
        # query is free to copy, so only the length cap forces a second
        # segment
        tokens = tuple(f"w{i}" for i in range(70))
        db = build_dataset([(tokens, ("X",) * 70)])
        tagger = Tagger(provider, db, n_neighbors=1)
        out = tagger.tag(Sentence(100, tokens), decode=DECODE_DP, segment_cost=5.0)
        lengths = [s.length for s in out.decode.segments]
        assert len(lengths) == 2
        assert sum(lengths) == 70
        assert max(lengths) <= 64
        assert out.label_names == ("X",) * 70

    def test_segment_dict_capped_at_query_length(self, provider):
        # db sentences outgrow every query; the DP never copies a segment
        # longer than the query, so the dictionary stops at its length
        data = suffix_corpus(30, seed=5, min_len=3, max_len=12)
        tagger = Tagger(provider, data, n_neighbors=8)
        for item in suffix_corpus(20, seed=6, min_len=1, max_len=6).items:
            analysis = tagger.analyze(item.sentence)
            seg_dict = tagger.segment_dict(analysis)
            assert seg_dict.depth <= len(item.sentence)
            full = build_segment_dict(analysis.neighbors, DEFAULT_MAX_SEGMENT_LEN)
            grid = (0.0, 0.4, 2.0)
            assert dp_decode_expected(
                analysis.marginals, seg_dict, grid
            ) == dp_decode_expected(analysis.marginals, full, grid)

    @pytest.mark.parametrize("decode", [DECODE_MARGINAL, DECODE_DP])
    def test_non_finite_query_embedding_rejected(self, db, provider, monkeypatch, decode):
        tagger = Tagger(provider, db, n_neighbors=3)
        poison_embeds(monkeypatch, provider, ("alice", "poison"))
        with pytest.raises(ValueError, match="sentence 100: .*non-finite"):
            tagger.tag(Sentence(100, ("alice", "poison")), decode=decode)

    def test_sweep_rejects_non_finite_query_embedding(self, db, provider, monkeypatch):
        # sweep_c scores spans, so its gold and the db's types must be BIO
        db = relabel(db, {"PER": "B-PER", "LOC": "B-LOC", "O": "O"})
        data = build_dataset([
            (("bob", "likes", "tea"), ("B-PER", "O", "O")),
            (("alice", "poison"), ("B-PER", "O")),
        ])
        poison_embeds(monkeypatch, provider, ("alice", "poison"))
        with pytest.raises(ValueError, match="sentence 1: .*non-finite"):
            sweep_c([0.0, 0.4], provider, db, data, 3)

    def test_unknown_decode_mode(self, db, provider, monkeypatch):
        tagger = Tagger(provider, db, n_neighbors=2)
        embedded = count_embeds(monkeypatch, provider)
        with pytest.raises(ValueError, match="decode"):
            tagger.tag(Sentence(100, ("alice",)), decode="viterbi")
        assert embedded == []

    @pytest.mark.parametrize("cost", [-1.0, float("nan")])
    def test_bad_segment_cost_checked_first(self, db, provider, monkeypatch, cost):
        tagger = Tagger(provider, db, n_neighbors=2)
        embedded = count_embeds(monkeypatch, provider)
        # checked in every mode, also where the cost goes unused
        for decode in (DECODE_DP, DECODE_MARGINAL):
            with pytest.raises(ValueError, match="segment_cost"):
                tagger.tag(Sentence(100, ("alice",)), decode=decode, segment_cost=cost)
        assert embedded == []

    def test_neighbor_count_validated(self, db, provider):
        with pytest.raises(ValueError):
            Tagger(provider, db, n_neighbors=0)

    def test_neighbor_cap_is_db_size(self, db, provider):
        # asking for more neighbors than the db holds just returns them all
        tagger = Tagger(provider, db, n_neighbors=50)
        analysis = tagger.analyze(Sentence(100, ("alice", "likes", "tea")))
        assert len(analysis.neighbors.entries) == len(db.items)


    @pytest.mark.parametrize("decode", [DECODE_MARGINAL, DECODE_DP])
    def test_kept_result_does_not_keep_index_rows(self, db, decode):
        # the index lives while its provider or a tagger does; what a
        # tagged sentence keeps must not hold any of its arrays beyond that
        tagger = Tagger(HashedWindowEmbedder(EmbedderParams(dim=24, n_buckets=512, seed=3)), db, 3)
        tagged = tagger.tag(Sentence(100, ("alice", "likes", "tea")), decode=decode)
        index = tagger.index
        arrays = [
            weakref.ref(getattr(index, name))
            for name in (
                "vectors", "token_rows", "row_starts", "flat_labels", "window_ranks"
            )
        ]
        del tagger, index
        gc.collect()
        assert [array() for array in arrays] == [None] * len(arrays)
        assert tagged.analysis.neighbors.entries[0].sequence is db.items[0]

    def test_sweep_after_tagger_reads_its_window_ranks(self, provider, monkeypatch):
        # the label windows are ranked once per index, not per caller
        db, data = toy_ner_corpus(6, seed=7), toy_ner_corpus(2, seed=8)
        tagger = Tagger(provider, db, 3)
        seen = []
        assemble = tagging.assemble_neighbor_set

        def recording(index, ids):
            seen.append(index.window_ranks)
            return assemble(index, ids)

        monkeypatch.setattr(tagging, "assemble_neighbor_set", recording)
        sweep_c([0.0, 0.4], provider, db, data, 3)
        assert len(seen) == len(data.items)
        assert all(ranks is tagger.index.window_ranks for ranks in seen)


class TestDatasetHelpers:
    def test_tag_dataset_order(self, db, provider):
        inputs = build_dataset(
            [
                (("alice", "likes", "coffee"), ("O", "O", "O")),
                (("paris", "is", "old"), ("O", "O", "O")),
            ]
        )
        tagged = tag_all(provider, db, inputs, n_neighbors=3)
        assert [t.sentence.tokens for t in tagged] == [
            item.sentence.tokens for item in inputs.items
        ]

    def test_gold_labels_ignored(self, db, provider):
        a = build_dataset([(("alice", "likes", "coffee"), ("O", "O", "O"))])
        b = build_dataset([(("alice", "likes", "coffee"), ("PER", "PER", "PER"))])
        out_a = tag_all(provider, db, a, n_neighbors=3)
        out_b = tag_all(provider, db, b, n_neighbors=3)
        assert out_a[0].label_names == out_b[0].label_names

    def test_predictions_dataset_round_trip(self, db, provider):
        inputs = build_dataset(
            [
                (("alice", "likes", "tea"), ("O", "O", "O")),
                (("london", "is", "big"), ("O", "O", "O")),
            ]
        )
        tagged = tag_all(provider, db, inputs, n_neighbors=2)
        preds = predictions_dataset(tagged)
        assert len(preds.items) == 2
        for item, t in zip(preds.items, tagged):
            assert item.sentence.tokens == t.sentence.tokens
            assert preds.label_names(item) == t.label_names
        assert set(preds.vocab.types) <= set(db.vocab.types)

    def test_zero_shot_swaps_inventory(self, provider):
        db_a = build_dataset(DB_ROWS)
        db_b = build_dataset(
            [
                (("alice", "likes", "tea"), ("NAME", "VERB", "DRINK")),
                (("bob", "hates", "coffee"), ("NAME", "VERB", "DRINK")),
            ]
        )
        sent = Sentence(100, ("alice", "hates", "tea"))
        out_a = Tagger(provider, db_a, 2).tag(sent)
        out_b = Tagger(provider, db_b, 2).tag(sent)
        assert set(out_a.label_names) <= set(db_a.vocab.types)
        assert set(out_b.label_names) <= set(db_b.vocab.types)
        assert out_b.label_names == ("NAME", "VERB", "DRINK")


class TestDecodeConfig:
    def test_segment_cost_forwarded(self, db, provider):
        # with a huge segment cost the dp collapses to as few segments as
        # the dictionary allows
        tagger = Tagger(provider, db, n_neighbors=3)
        sent = Sentence(100, ("alice", "likes", "tea"))
        cheap = tagger.tag(sent, decode=DECODE_DP, segment_cost=0.0)
        dear = tagger.tag(sent, decode=DECODE_DP, segment_cost=50.0)
        assert len(dear.decode.segments) <= len(cheap.decode.segments)
