import hashlib
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import copytag.embeddings as embeddings
from copytag.corpus import Sentence, parse_conll
from copytag.embeddings import (
    EMBED_RUN_ROWS,
    INIT_STD,
    _column_sums,
    _embed_columns,
    EmbedderParams,
    HashedWindowEmbedder,
    embed_sentence,
    fnv1a64_keys,
    word_shape,
)
from copytag.retrieval import build_index
from copytag.synthetic import suffix_corpus
from adam_reference import reference_backprop
from conftest import platform_facts
from embedding_reference import (
    reference_backprop_add_at,
    reference_column_sums,
    reference_embed_columns,
)
from featurizer_reference import fnv1a64, seeded_column, surface_features, token_features
from param_columns import column, set_column

DATA = Path(__file__).resolve().parents[1] / "data"

SENT = Sentence(0, ("Alice", "visited", "Paris", "twice", "."))


def flat_entries(columns) -> SimpleNamespace:
    """token_columns' (ids, slots, starts) by name, the ids as `columns`,
    with each token's count of them."""
    ids, slots, starts = columns
    return SimpleNamespace(columns=ids, slots=slots, starts=starts, counts=np.diff(starts, append=ids.size))


def columns_of(params: EmbedderParams, sentence: Sentence):
    """The sentence's window entries under `params`, one after another."""
    return flat_entries(HashedWindowEmbedder(params).token_columns(sentence))


def entries_of(slots: np.ndarray, starts: np.ndarray) -> tuple:
    """Window entries of a made-up layout: token t owns slots[starts[t] :
    starts[t + 1]], which stand for its ids too."""
    return slots, slots, starts


class TestHashing:
    def test_deterministic(self):
        assert fnv1a64("hello") == fnv1a64("hello")

    def test_seed_changes_hash(self):
        assert fnv1a64("hello", seed=1) != fnv1a64("hello", seed=2)

    def test_64_bit_range(self):
        for text in ("", "a", "hello world", "ümläut"):
            assert 0 <= fnv1a64(text) < 2**64

    def test_text_sensitivity(self):
        assert fnv1a64("ab") != fnv1a64("ba")


HASH_SEEDS = (0, 1, 2**63, 2**64 + 3)
HASH_WORDS = ("a", "the", "Zürich", "東京", "ß", "\U0001F600", "e\u0301", "naïve", "A1-b", "İ")


def key_hashes(keys, seed):
    """The oracle's hash of every feature text of every key, key after key."""
    return [fnv1a64(f"{offset}|{feat}", seed) for offset, token in keys for feat in surface_features(token)]


class TestBatchHash:
    """fnv1a64_keys against the scalar fnv1a64 of every feature text."""

    @pytest.mark.parametrize("seed", HASH_SEEDS)
    def test_edge_texts(self, seed):
        # astral-plane and combining characters, a capital whose lowercase
        # is two characters, an empty token, tokens much longer than the
        # rest, and one token at several offsets, not one after another
        tokens = ["a", "\U0001F600", "e\u0301", "naïve", "İstanbul", "", "x" * 200, "東京" * 100, "ß"]
        keys = [(offset, token) for offset in (0, -3, 3, 1) for token in tokens]
        hashes, sizes = fnv1a64_keys(keys, seed)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == key_hashes(keys, seed)
        assert sizes.tolist() == [len(surface_features(token)) for _, token in keys]

    def test_empty_list(self):
        hashes, sizes = fnv1a64_keys([], 5)
        assert hashes.dtype == np.uint64 and hashes.shape == (0,)
        assert sizes.shape == (0,)

    def test_random_keys(self):
        # multi-byte tokens at offsets -3..3, repeated in and across batches
        rng = np.random.default_rng(35)
        for seed in HASH_SEEDS:
            count = int(rng.integers(1, 40))
            keys = [
                (int(offset), HASH_WORDS[int(word)])
                for offset, word in zip(rng.integers(-3, 4, count), rng.integers(0, len(HASH_WORDS), count))
            ]
            hashes, sizes = fnv1a64_keys(keys, seed)
            assert hashes.tolist() == key_hashes(keys, seed)
            assert sizes.sum() == hashes.size

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-3, 3), st.text(min_size=1, max_size=40)), max_size=20),
        st.sampled_from(HASH_SEEDS),
    )
    def test_matches_scalar_oracle(self, keys, seed):
        assert fnv1a64_keys(keys, seed)[0].tolist() == key_hashes(keys, seed)

    def test_long_token_in_linear_memory(self):
        # a 2,000-character token at five offsets: ~30k feature texts, one
        # per offset about as long as the token
        keys = [(offset, "ab" * 1000) for offset in range(-2, 3)]
        tracemalloc.start()
        try:
            got = fnv1a64_keys(keys, 1)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == key_hashes(keys, 1)
        # a texts x longest-text byte matrix alone would take 60 MB
        assert peak < 16 * 2**20, peak


SEEDING_SEEDS = (0, 1, 7, 2**31, 2**32 - 1)
SEEDING_COLUMNS = (0, 1, 2**31, 2**32 - 1)


class TestSeededColumns:
    """Bulk-seeded columns against a fresh default_rng([seed, col]) each."""

    @pytest.mark.parametrize("seed", SEEDING_SEEDS)
    def test_bit_equal_to_default_rng(self, seed):
        # the edges of the one-word range, for the seed and the column
        p = EmbedderParams(dim=7, n_buckets=2**32, seed=seed)
        slots = p.slots_for(SEEDING_COLUMNS)
        for col, slot in zip(SEEDING_COLUMNS, slots.tolist()):
            assert p.storage[slot].tobytes() == seeded_column(seed, col, 7).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True),
    )
    def test_random_seeds_and_columns(self, seed, cols):
        p = EmbedderParams(dim=3, n_buckets=2**32, seed=seed)
        slots = p.slots_for(cols)  # first: it may grow and rebind the storage
        for col, row in zip(cols, p.storage[slots]):
            assert row.tobytes() == seeded_column(seed, col, 3).tobytes()

    def test_negative_zero_draw_seeds_positive_zero(self):
        # normal(0.0, scale) returns loc + scale * z: a -0.0 standard draw
        # gives +0.0, so the scaled block must take its loc as well
        class NegativeZeros:
            bit_generator = SimpleNamespace(state=None)

            def standard_normal(self, out):
                out[:] = -0.0

        p = EmbedderParams(dim=3, n_buckets=16)
        p._rng = NegativeZeros()
        expected = 0.0 + INIT_STD * np.full(3, -0.0)
        assert not np.signbit(expected).any()
        assert column(p, 5).tobytes() == expected.tobytes()


class TestWordShape:
    @pytest.mark.parametrize(
        "token,shape",
        [
            ("McDonald", "XxXx"),
            ("hello", "x"),
            ("ABC", "X"),
            ("C3PO-unit", "XdXox"),
            ("12.5", "dod"),
        ],
    )
    def test_shapes(self, token, shape):
        assert word_shape(token) == shape


class TestTokenFeatures:
    def test_window_zero_sees_one_token(self):
        solo = token_features(SENT, 2, window=0)
        with_ctx = token_features(SENT, 2, window=1)
        assert solo.indices < with_ctx.indices

    def test_offset_matters(self):
        # same word left and right of the target must hash differently
        sent = Sentence(0, ("same", "mid", "same"))
        left_only = token_features(Sentence(0, ("same", "mid")), 1, window=1)
        right_only = token_features(Sentence(0, ("mid", "same")), 0, window=1)
        assert left_only.indices != right_only.indices

    def test_boundary_offsets_skipped(self):
        first = token_features(SENT, 0, window=2)
        middle = token_features(SENT, 2, window=2)
        assert len(first.indices) < len(middle.indices)

    def test_bucket_range(self):
        feats = token_features(SENT, 1, n_buckets=17)
        assert all(0 <= i < 17 for i in feats.indices)

    def test_seed_sensitivity(self):
        a = token_features(SENT, 1, seed=0)
        b = token_features(SENT, 1, seed=99)
        assert a.indices != b.indices

    def test_position_validated(self):
        with pytest.raises(ValueError):
            token_features(SENT, 9)


class TestEmbedderParams:
    def test_untouched_column_is_seeded(self):
        a = EmbedderParams(dim=4, n_buckets=32, seed=7)
        b = EmbedderParams(dim=4, n_buckets=32, seed=7)
        assert np.array_equal(column(a, 13), column(b, 13))
        expected = np.random.default_rng([7, 13]).normal(0.0, 0.1, 4)
        assert np.array_equal(column(a, 13), expected)

    def test_different_seed_different_column(self):
        a = EmbedderParams(dim=4, n_buckets=32, seed=1)
        b = EmbedderParams(dim=4, n_buckets=32, seed=2)
        assert not np.array_equal(column(a, 0), column(b, 0))

    def test_set_column_tracks_modified(self):
        p = EmbedderParams(dim=3, n_buckets=8)
        assert p.modified == set()
        p.set_columns(np.array([5]), np.ones((1, 3)))
        assert p.modified == {5}
        assert np.array_equal(column(p, 5), np.ones(3))

    def test_set_column_validation(self):
        p = EmbedderParams(dim=3, n_buckets=8)
        columns = np.array([0])
        with pytest.raises(ValueError, match="shape"):
            p.set_columns(columns, np.ones((1, 4)))
        with pytest.raises(ValueError, match="non-finite values for column 0"):
            p.set_columns(columns, np.array([[1.0, np.nan, 0.0]]))
        with pytest.raises(ValueError, match="column 8 outside"):
            p.set_columns(np.array([8]), np.ones((1, 3)))
        # a repeated column would take two slots and leave one unowned
        with pytest.raises(ValueError, match="columns must be unique"):
            p.set_columns(np.array([3, 3]), np.ones((2, 3)))
        assert p.modified == set() and p.revision == 0 and p._slot == {}

    def test_set_columns_takes_a_list(self):
        # any integer sequence names the columns, with an array's checks
        p, q = EmbedderParams(dim=3, n_buckets=8), EmbedderParams(dim=3, n_buckets=8)
        values = np.arange(6, dtype=float).reshape(2, 3)
        p.set_columns([1, 6], values)
        q.set_columns(np.array([1, 6]), values)
        assert p.modified == q.modified == {1, 6} and p.revision == q.revision == 2
        assert p._slot == q._slot and p.storage.tobytes() == q.storage.tobytes()
        with pytest.raises(ValueError, match="non-finite values for column 2"):
            p.set_columns([0, 2], np.array([[0.0] * 3, [np.inf] * 3]))
        with pytest.raises(ValueError, match="columns must be unique"):
            p.set_columns([3, 3], np.ones((2, 3)))
        with pytest.raises(ValueError, match="column 8 outside"):
            p.set_columns([8], np.ones((1, 3)))
        assert p.modified == {1, 6} and p.revision == 2

    def test_revision_bumps(self):
        p = EmbedderParams(dim=3, n_buckets=8)
        r0 = p.revision
        p.set_columns(np.array([1]), np.zeros((1, 3)))
        assert p.revision == r0 + 1
        p.set_columns(np.array([2, 6]), np.zeros((2, 3)))
        assert p.revision == r0 + 3

    def test_set_columns_equals_set_column_calls(self):
        # one call over three columns equals three one-column calls
        one = EmbedderParams(dim=3, n_buckets=16)
        batch = EmbedderParams(dim=3, n_buckets=16)
        columns = np.array([2, 9, 13])
        values = np.arange(9.0).reshape(3, 3) - 4.0
        for col, row in zip(columns.tolist(), values):
            set_column(one, col, row)
        batch.set_columns(columns, values)
        assert batch.modified == one.modified == {2, 9, 13}
        assert batch.revision == one.revision == 3
        for col in range(16):
            assert column(batch, col).tobytes() == column(one, col).tobytes()

    def test_set_columns_writes_nothing_on_nonfinite(self):
        p = EmbedderParams(dim=2, n_buckets=16)
        columns = np.array([1, 4, 6])
        p.slots_for(columns)  # materialized, so a write would show
        before = p.storage.copy()
        values = np.array([[1.0, 2.0], [np.inf, 0.0], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="column 4"):
            p.set_columns(columns, values)
        assert p.storage.tobytes() == before.tobytes()
        assert p.modified == set() and p.revision == 0
        with pytest.raises(ValueError, match="shape"):
            p.set_columns(columns, np.ones((3, 3)))

    def test_set_columns_seeds_no_column_it_writes(self, monkeypatch):
        # a column not materialized yet takes a slot unseeded, since its
        # values are overwritten; 100 new rows grow the storage past 64
        p = EmbedderParams(dim=3, n_buckets=2**12, seed=5)
        column(p, 7)  # materialized already: it keeps its slot
        columns = np.array([7, *range(100, 300, 2)])
        values = np.random.default_rng(0).normal(size=(columns.size, 3))

        def seeded(params, cols, rows):
            raise AssertionError(f"columns {cols.tolist()} seeded")

        monkeypatch.setattr(EmbedderParams, "_seed_columns", seeded)
        p.set_columns(columns, values)
        monkeypatch.undo()
        assert p.storage.shape[0] == 128 and p.slots_for([7]).tolist() == [0]
        for col, row in zip(columns.tolist(), values):
            assert column(p, col).tobytes() == row.tobytes()
        assert p.modified == set(columns.tolist()) and p.revision == columns.size

    def test_copy_is_independent(self):
        p = EmbedderParams(dim=2, n_buckets=4)
        set_column(p, 1, np.array([5.0, 6.0]))
        q = p.copy()
        set_column(q, 1, np.array([0.0, 0.0]))
        assert np.array_equal(column(p, 1), [5.0, 6.0])
        assert p.modified == q.modified == {1}

    def test_copy_featurizes_apart(self):
        # a copy starts with the feature entries made so far; keys new to
        # each afterwards are featurized into its own entries only, which
        # windows made later from known keys then read
        p = EmbedderParams(dim=4, n_buckets=512, seed=2)
        columns_of(p, SENT)
        q = p.copy()
        one, other = ("Bob", "left", "Rome"), ("Ann", "came", "home")
        columns_of(q, Sentence(1, other))
        columns_of(p, Sentence(2, one))
        for params, tokens in ((q, other), (p, one)):
            for sentence in (SENT, Sentence(3, tokens), Sentence(4, (*tokens, "late"))):
                expected = [token_features(sentence, t, 2, 512, 2).sorted() for t in range(len(sentence))]
                columns = columns_of(params, sentence)
                assert split_tokens(columns) == expected
                np.testing.assert_array_equal(columns.slots, params.slots_for(columns.columns))

    @pytest.mark.parametrize("col", [-1, 8])
    def test_out_of_range_columns_rejected(self, col):
        # a vectorized lookup must not let numpy read -1 as the last slot
        p = EmbedderParams(dim=3, n_buckets=8)
        column(p, 7)
        before = p.storage.copy()
        for call in (
            lambda: p.slots_for([col]),
            lambda: column(p, col),
            lambda: set_column(p, col, np.ones(3)),
            # every column is range-checked before any takes a slot
            lambda: p.set_columns(np.array([5, col]), np.zeros((2, 3))),
        ):
            with pytest.raises(ValueError, match=f"column {col} "):
                call()
        assert p.modified == set() and p.revision == 0
        assert p.storage.tobytes() == before.tobytes() and p._slot == {7: 0}

    def test_rejected_request_materializes_nothing(self):
        # every column is checked before any is materialized
        p = EmbedderParams(dim=3, n_buckets=32)
        with pytest.raises(ValueError, match="column 99 outside"):
            p.slots_for([3, 99])
        assert p._slot == {}
        assert p.slots_for([3]).tolist() == [0]

    def test_new_columns_take_slots_in_request_order(self):
        p = EmbedderParams(dim=3, n_buckets=32)
        assert p.slots_for([5, 2, 5, 9, 2]).tolist() == [0, 1, 0, 2, 1]
        assert p.slots_for([9, 7, 2, 4]).tolist() == [2, 3, 1, 4]
        assert p.slots_for([]).tolist() == []

    def test_constructor_validation(self):
        for kwargs in (
            {"dim": 0},
            {"n_buckets": 0},
            {"n_buckets": 2**32 + 1},
            {"window": -1},
            {"seed": -1},
            {"seed": 2**32},
        ):
            with pytest.raises(ValueError):
                EmbedderParams(**kwargs)


class TestEmbedTokens:
    def test_shape_and_range(self):
        p = EmbedderParams(dim=16, n_buckets=512)
        x = HashedWindowEmbedder(p).embed(SENT)
        assert x.shape == (5, 16)
        assert np.all(np.abs(x) < 1.0)

    def test_deterministic(self):
        p = EmbedderParams(dim=8, n_buckets=128)
        q = EmbedderParams(dim=8, n_buckets=128)
        x, y = HashedWindowEmbedder(p).embed(SENT), HashedWindowEmbedder(q).embed(SENT)
        assert np.array_equal(x, y)

    def test_provider_matches_functional(self):
        provider = HashedWindowEmbedder(EmbedderParams(dim=8, n_buckets=128))
        params = EmbedderParams(dim=8, n_buckets=128)
        functional = _embed_columns(params, HashedWindowEmbedder(params).token_columns(SENT))
        assert np.array_equal(provider.embed(SENT), functional)
        # cached second call stays bit-identical
        assert np.array_equal(provider.embed(SENT), functional)

    def test_mean_pooling(self):
        p = EmbedderParams(dim=8, n_buckets=128)
        x = HashedWindowEmbedder(p).embed(SENT)
        assert np.allclose(embed_sentence(x), x.mean(axis=0))

    def test_params_update_changes_embedding(self):
        provider = HashedWindowEmbedder(EmbedderParams(dim=4, n_buckets=64))
        before = provider.embed(SENT).copy()
        cols = sorted({int(c) for c in provider.token_columns(SENT)[0]})
        set_column(provider.params, cols[0], np.full(4, 3.0))
        after = provider.embed(SENT)
        assert not np.array_equal(before, after)

    def test_tag_tracks_revision(self):
        provider = HashedWindowEmbedder(EmbedderParams(dim=4, n_buckets=64))
        t0 = provider.tag
        set_column(provider.params, 0, np.zeros(4))
        assert provider.tag != t0


WORDS = (
    "the", "The", "cat", "sat", "x", "A1", "e.g.", "42", "MacBook", "-",
    "Zürich", "naïve", "über", "ÉCOLE", "東京", "ß", "Ωmega", "çà",
)


def split_tokens(columns):
    return [tuple(int(c) for c in run) for run in np.split(columns.columns, columns.starts[1:])]


class TestMatchesFeaturizerReference:
    def test_random_sentences(self):
        # 300 sentences over a small mixed-script vocabulary, so words repeat
        # within and across sentences and each provider reuses its entries;
        # bucket counts down to 1 force collisions inside one entry.
        rng = np.random.default_rng(4242)
        shapes = [(0, 1), (1, 64), (2, 5), (3, 13), (0, 64), (1, 2),
                  (2, 31), (3, 1), (0, 9), (1, 40), (2, 64), (3, 3)]
        seeds = (0, 1, 7, 2**31) * 3
        configs = [(window, n_buckets, seed) for (window, n_buckets), seed in zip(shapes, seeds)]
        providers = {
            cfg: HashedWindowEmbedder(
                EmbedderParams(dim=5, n_buckets=cfg[1], window=cfg[0], seed=cfg[2])
            )
            for cfg in configs
        }
        for uid in range(300):
            window, n_buckets, seed = configs[uid % len(configs)]
            provider = providers[(window, n_buckets, seed)]
            length = int(rng.integers(1, 12))
            tokens = tuple(WORDS[i] for i in rng.integers(0, len(WORDS), size=length))
            sent = Sentence(uid, tokens)
            expected = [
                token_features(sent, t, window, n_buckets, seed).sorted()
                for t in range(length)
            ]
            cached = flat_entries(provider.token_columns(sent))
            assert split_tokens(cached) == expected
            assert cached.counts.tolist() == [len(cols) for cols in expected]
            fresh = EmbedderParams(dim=5, n_buckets=n_buckets, window=window, seed=seed)
            assert split_tokens(columns_of(fresh, sent)) == expected
            params = provider.params
            rows = params.storage[cached.slots]
            for row, col in zip(rows, cached.columns):
                assert np.array_equal(row, column(params, int(col)))
            functional = HashedWindowEmbedder(
                EmbedderParams(dim=5, n_buckets=n_buckets, window=window, seed=seed)
            ).embed(sent)
            embedded = provider.embed(sent)
            assert embedded.tobytes() == functional.tobytes()


    def test_huge_bucket_count(self):
        # bucket ids near 2**32 still sort and dedupe per token
        for seed in (0, 2**32 - 1):
            params = EmbedderParams(dim=2, n_buckets=2**32, window=2, seed=seed)
            expected = [
                token_features(SENT, t, 2, 2**32, seed).sorted() for t in range(len(SENT))
            ]
            assert split_tokens(columns_of(params, SENT)) == expected


class TestFeaturizeOnce:
    def test_cached_pairs_neither_hash_nor_seed(self, monkeypatch):
        params = EmbedderParams(dim=4, n_buckets=512, window=1, seed=3)
        first = columns_of(params, SENT)
        solo = EmbedderParams(dim=4, n_buckets=512, window=0, seed=3)
        columns_of(solo, Sentence(0, ("a", "b", "c")))

        def fail(*args):
            raise AssertionError("cached pairs featurized again")

        monkeypatch.setattr(embeddings, "fnv1a64_keys", fail)
        monkeypatch.setattr(EmbedderParams, "_seed_columns", fail)
        again = columns_of(params, SENT)
        for name in ("columns", "slots", "starts", "counts"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        HashedWindowEmbedder(params).embed(SENT)
        # a new sentence whose (offset, token) pairs are all cached
        columns_of(solo, Sentence(1, ("c", "a", "a", "b")))

    def test_new_columns_take_slots_in_request_order(self):
        # slots follow the window walk: position by position, each new
        # (offset, token) pair's sorted ids, each new column once
        window, n_buckets, seed = 1, 64, 2
        params = EmbedderParams(dim=3, n_buckets=n_buckets, window=window, seed=seed)
        sent = Sentence(0, ("aa", "bb", "aa", "cc", "Bb"))
        columns_of(params, sent)
        expected: list[int] = []
        pairs = set()
        for t in range(len(sent)):
            for j in range(max(0, t - window), min(len(sent), t + window + 1)):
                pair = (j - t, sent.tokens[j])
                if pair in pairs:
                    continue
                pairs.add(pair)
                ids = {
                    fnv1a64(f"{j - t}|{feat}", seed) % n_buckets
                    for feat in surface_features(sent.tokens[j])
                }
                expected.extend(col for col in sorted(ids) if col not in expected)
        assert len(params._slot) == len(expected)
        assert params.slots_for(expected).tolist() == list(range(len(expected)))


def index_digest(index) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(index.vectors, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(index.token_rows, dtype="<f8").tobytes())
    return h.hexdigest()


class TestEmbeddingPins:
    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            ({}, "0c7d167b7ae97888743bb4438a2906dc7dc5d010e094921adb48aeac21a75d70"),
            (
                {"window": 1, "n_buckets": 97, "seed": 3},
                "4090c342714f629035e01928b8918d747082c74853ba180d94187a70ca2ad033",
            ),
        ],
    )
    def test_index_embeddings_pinned(self, kwargs, digest):
        # Digests of the vectors and token matrices written when every
        # feature of every window position was hashed afresh.
        text = (DATA / "toy_ner_train.conll").read_text(encoding="utf-8")
        index = build_index(parse_conll(text), HashedWindowEmbedder(EmbedderParams(**kwargs)))
        assert index_digest(index) == digest, platform_facts()

    def test_copy_keeps_its_own_slots(self):
        # After a copy both objects materialize different columns into the
        # same slot numbers; neither may reuse the other's cached slots.
        first = Sentence(0, ("Alice", "met", "Bob"))
        only_original = Sentence(1, ("Carol", "sang", "loudly"))
        only_copy = Sentence(2, ("Dave", "ran", "home"))
        original = HashedWindowEmbedder(EmbedderParams(dim=6, n_buckets=4096, window=1, seed=5))
        before = original.embed(first).copy()
        copy = HashedWindowEmbedder(original.params.copy())
        assert copy.embed(only_copy).tobytes() == HashedWindowEmbedder(
            EmbedderParams(dim=6, n_buckets=4096, window=1, seed=5)
        ).embed(only_copy).tobytes()
        for provider, sent in (
            (original, only_original),
            (original, only_copy),
            (original, first),
            (copy, only_original),
            (copy, first),
        ):
            fresh = EmbedderParams(dim=6, n_buckets=4096, window=1, seed=5)
            expected = HashedWindowEmbedder(fresh).embed(sent)
            assert provider.embed(sent).tobytes() == expected.tobytes()
        assert original.embed(first).tobytes() == before.tobytes()


class TestBackprop:
    def test_matches_finite_differences(self, rng):
        params = EmbedderParams(dim=5, n_buckets=64, window=1, seed=3)
        sent = Sentence(0, ("aa", "bb", "cc"))
        d_output = rng.normal(size=(3, 5))

        provider = HashedWindowEmbedder(params)
        grads = provider.backprop(sent, provider.token_columns(sent), d_output, provider.embed(sent))
        assert len(grads)

        step = 1e-6
        for col, grad in zip(grads.columns.tolist(), grads.grad):
            for k in range(5):
                base = column(params, col)
                bumped = base.copy()
                bumped[k] += step
                set_column(params, col, bumped)
                up = float((HashedWindowEmbedder(params).embed(sent) * d_output).sum())
                bumped[k] -= 2 * step
                set_column(params, col, bumped)
                down = float((HashedWindowEmbedder(params).embed(sent) * d_output).sum())
                set_column(params, col, base)
                numeric = (up - down) / (2 * step)
                assert abs(numeric - grad[k]) < 1e-4 * max(1.0, abs(numeric))

    def test_untouched_columns_absent(self):
        params = EmbedderParams(dim=4, n_buckets=32, window=0)
        sent = Sentence(0, ("xy",))
        provider = HashedWindowEmbedder(params)
        grads = provider.backprop(sent, provider.token_columns(sent), np.ones((1, 4)), provider.embed(sent))
        active = token_features(sent, 0, window=0, n_buckets=32).indices
        assert set(grads.columns.tolist()) == active

    def test_matches_token_order_reference(self, rng):
        # the block equals, column for column and bit for bit, the sum of
        # each token's vector in token order
        for seed in range(30):
            params = EmbedderParams(dim=6, n_buckets=64, window=2, seed=seed)
            # words over a 4-letter alphabet repeat, so tokens share columns
            words = [
                "".join("abcd"[int(c)] for c in rng.integers(0, 4, rng.integers(1, 4)))
                for _ in range(int(rng.integers(1, 9)))
            ]
            sent = Sentence(0, tuple(words))
            d_output = rng.normal(size=(len(sent), 6))
            provider = HashedWindowEmbedder(params)
            grads = provider.backprop(sent, provider.token_columns(sent), d_output, provider.embed(sent))
            expected = reference_backprop(params, sent, d_output)
            assert grads.columns.tolist() == sorted(expected)
            assert np.all(np.diff(grads.columns) > 0)
            assert grads.grad.shape == (len(expected), 6)
            for col, row in zip(grads.columns.tolist(), grads.grad):
                assert row.tobytes() == expected[col].tobytes()

    def test_shape_validated(self):
        provider = HashedWindowEmbedder(EmbedderParams(dim=4, n_buckets=32))
        entries, x = provider.token_columns(SENT), provider.embed(SENT)
        with pytest.raises(ValueError, match=r"sentence 0: d_output must have shape \(5, 4\), got \(2, 4\)"):
            provider.backprop(SENT, entries, np.ones((2, 4)), x)
        for bad in (np.nan, np.inf):
            d_output = np.ones((5, 4))
            d_output[3, 1] = bad
            with pytest.raises(ValueError, match="sentence 0: d_output contains non-finite entries"):
                provider.backprop(SENT, entries, d_output, x)
        # a (1, dim) forward pass would broadcast over a 3-token sentence,
        # and a non-finite one would give non-finite gradients
        sent = Sentence(7, ("a", "b", "c"))
        x, columns = provider.embed(sent), provider.token_columns(sent)
        with pytest.raises(ValueError, match=r"sentence 7: embeddings must have shape \(3, 4\), got \(1, 4\)"):
            provider.backprop(sent, columns, np.ones((3, 4)), x[:1])
        poisoned = x.copy()
        poisoned[1, 2] = np.nan
        with pytest.raises(ValueError, match="sentence 7: embeddings contain non-finite entries"):
            provider.backprop(sent, columns, np.ones((3, 4)), poisoned)

    def test_columns_of_another_sentence_rejected(self):
        # columns for fewer or more tokens would scatter into the wrong
        # columns or index past the gradient rows
        provider = HashedWindowEmbedder(EmbedderParams(dim=4, n_buckets=32))
        sent = Sentence(7, ("a", "b", "c"))
        x = provider.embed(sent)
        for other in (("a", "b"), ("a", "b", "c", "d")):
            columns = provider.token_columns(Sentence(8, other))
            with pytest.raises(ValueError, match=f"sentence 7: columns of {len(other)} tokens, not 3"):
                provider.backprop(sent, columns, np.ones((3, 4)), x)



def _bits(array: np.ndarray) -> bytes:
    # tobytes compares sign bits too: -0.0 and 0.0 differ here
    return np.ascontiguousarray(array).tobytes()


class TestCacheSizedForward:
    """The forward kernel against one whole-sentence gather and reduceat."""

    DIM = 128

    def _random_case(self, rng, big_token: bool):
        n_tokens = int(rng.integers(1, 81))
        # 1-300 rows a token crosses numpy's 8- and 128-element pairwise
        # blocks; a big token alone exceeds the run budget
        counts = rng.integers(1, 301, size=n_tokens)
        if big_token:
            counts[rng.integers(n_tokens)] = EMBED_RUN_ROWS + int(rng.integers(1, 500))
        starts = np.zeros(n_tokens, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        n_rows = 3000
        magnitude = 10.0 ** rng.uniform(-9, 9, size=(n_rows, self.DIM))
        storage = rng.choice([-1.0, 1.0], size=(n_rows, self.DIM)) * magnitude
        zeros = rng.random(storage.shape) < 0.05
        storage[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        slots = rng.integers(0, n_rows, size=int(counts.sum()))
        return storage, slots, starts, counts

    def test_random_cases_match_whole_reduceat(self, rng):
        split = 0
        for case in range(240):
            storage, slots, starts, counts = self._random_case(rng, case % 12 == 0)
            if slots.size > EMBED_RUN_ROWS:
                split += 1
            got = _column_sums(storage, slots, starts)
            assert _bits(got) == _bits(reference_column_sums(storage, slots, starts))
            embedded = _embed_columns(SimpleNamespace(storage=storage), entries_of(slots, starts))
            assert _bits(embedded) == _bits(
                reference_embed_columns(storage, slots, starts)
            )
        assert split > 140  # most cases are cut into runs

    def test_token_larger_than_the_budget(self, rng):
        storage = rng.normal(size=(4000, self.DIM))
        budget = EMBED_RUN_ROWS
        for counts in ([3, budget + 1, 2], [budget * 2], [budget, 1]):
            counts = np.array(counts)
            starts = np.concatenate([[0], np.cumsum(counts[:-1])])
            slots = rng.integers(0, 4000, size=int(counts.sum()))
            got = _column_sums(storage, slots, starts)
            assert _bits(got) == _bits(reference_column_sums(storage, slots, starts))

    def test_suffix_sentence_through_the_provider(self, monkeypatch):
        sentence = suffix_corpus(1, seed=4, min_len=80, max_len=80).items[0].sentence
        provider = HashedWindowEmbedder()
        entries = provider.token_columns(sentence)
        _, slots, starts = entries
        # an 80-token suffix sentence gathers more rows than one run holds
        assert slots.size > EMBED_RUN_ROWS
        runs = mock.Mock(side_effect=embeddings._run_sums)
        monkeypatch.setattr(embeddings, "_run_sums", runs)
        expected = reference_embed_columns(provider.params.storage, slots, starts)
        assert _bits(provider.embed(sentence)) == _bits(expected)
        assert runs.call_count > 1
        assert _bits(_embed_columns(provider.params, entries)) == _bits(expected)


# Per-token row counts on both sides of numpy's pairwise_sum cases: under 8
# rows after the first, 8 lanes up to 128, then a split in halves.
PAIRWISE_COUNTS = (1, 2, 8, 9, 16, 17, 128, 129, 130, 136, 137, 256, 257, 600)


class TestPairwiseOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from((1, 2, 3, 8, 128)),
        counts=st.lists(st.sampled_from(PAIRWISE_COUNTS), min_size=1, max_size=10),
        negative_zero_first=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_match_reduceat(self, dim, counts, negative_zero_first, seed):
        rng = np.random.default_rng(seed)
        n_rows = 64
        magnitude = 10.0 ** rng.uniform(-9, 9, size=(n_rows, dim))
        storage = rng.choice([-1.0, 1.0], size=(n_rows, dim)) * magnitude
        # row 0 is all +0.0 and row 1 all -0.0; single entries are zeroed too
        storage[0], storage[1] = 0.0, -0.0
        zeros = rng.random(storage.shape) < 0.05
        storage[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        counts = np.array(counts)
        starts = np.concatenate([[0], np.cumsum(counts[:-1])])
        slots = rng.integers(0, n_rows, size=int(counts.sum()))
        zero = rng.random(slots.size) < 0.1
        slots[zero] = rng.integers(0, 2, size=int(zero.sum()))
        if negative_zero_first:
            # every first row is -0.0, and so is every row of token 0
            slots[starts] = 1
            slots[: counts[0]] = 1
        assert _bits(_column_sums(storage, slots, starts)) == _bits(
            reference_column_sums(storage, slots, starts)
        )
        entries = entries_of(slots, starts)
        assert _bits(_embed_columns(SimpleNamespace(storage=storage), entries)) == _bits(
            reference_embed_columns(storage, slots, starts)
        )


class TestSumPlan:
    def test_query_sums_each_window_once(self, monkeypatch):
        # a sentence embedded again at one revision sums nothing, and one
        # partly held sums only its missing windows; no query reads
        # token_columns
        summed = []
        sums_of = embeddings._column_sums
        monkeypatch.setattr(
            embeddings,
            "_column_sums",
            lambda storage, slots, starts: summed.append(starts.size) or sums_of(storage, slots, starts),
        )
        provider = HashedWindowEmbedder(EmbedderParams(dim=8, n_buckets=512))
        longer = Sentence(1, (*SENT.tokens, "then", "left"))
        with mock.patch.object(HashedWindowEmbedder, "token_columns", side_effect=AssertionError):
            first = provider.embed(SENT)
            assert _bits(provider.embed(SENT)) == _bits(first)
            assert summed == [5]
            # the first three windows are clipped at the start and held
            rows = provider.embed(longer)
            assert summed == [5, 4]
        assert _bits(rows[:3]) == _bits(first[:3])
        for sentence, matrix in ((SENT, first), (longer, rows)):
            columns = columns_of(provider.params, sentence)
            expected = reference_embed_columns(provider.params.storage, columns.slots, columns.starts)
            assert _bits(matrix) == _bits(expected)

    def test_columns_follow_their_own_slots(self):
        # SENT featurized after another sentence takes other slots than in a
        # fresh params; a copy's provider reads its own storage
        params = EmbedderParams(dim=8, n_buckets=512)
        provider = HashedWindowEmbedder(params)
        provider.embed(Sentence(1, ("Bob", "left", "Rome", ".")))
        provider.embed(SENT)
        fresh = HashedWindowEmbedder(EmbedderParams(dim=8, n_buckets=512))
        copied = HashedWindowEmbedder(params.copy())
        # a column only the copy changes
        moved = provider.token_columns(SENT)[0][:1]
        copied.params.set_columns(moved, np.full((1, 8), 0.25))
        assert not np.array_equal(fresh.token_columns(SENT)[1], provider.token_columns(SENT)[1])
        for p in (provider, fresh, copied):
            ids, slots, starts = p.token_columns(SENT)
            np.testing.assert_array_equal(slots, p.params.slots_for(ids))
            expected = reference_embed_columns(p.params.storage, slots, starts)
            assert _bits(p.embed(SENT)) == _bits(expected)
        assert _bits(copied.embed(SENT)) != _bits(provider.embed(SENT))

    def test_token_columns_are_kept_by_no_one(self):
        # a training sentence's columns are gathered for the call from the
        # entries the params keep: writing them changes nothing there, and
        # nothing of them outlives the call
        sentences = [item.sentence for item in suffix_corpus(50, seed=6, min_len=40, max_len=40).items]
        assert len({s.tokens for s in sentences}) == 50
        provider = HashedWindowEmbedder()
        provider.embed_batch(sentences)
        params = provider.params
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for sentence in sentences:
                ids, slots, starts = provider.token_columns(sentence)
                assert starts.size == len(sentence)
                ids.fill(-1)
                slots.fill(-1)
                ids, slots, _ = provider.token_columns(sentence)
                assert np.array_equal(slots, params.slots_for(ids))
            del ids, slots, starts
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 50 * 1024, kept


# few words, so windows repeat and are partly shared across sentences
HELD_WORDS = ("a", "b", "B", "c1")
# 70 distinct windows each: two at one revision grow the held rows twice
WIDE_SENTENCES = tuple(tuple(f"{k}w{i}" for i in range(70)) for k in range(2))


@st.composite
def held_store_ops(draw):
    """(window, ops): ("embed", tokens), ("batch", token tuples) or
    ("move", value), with both wide sentences embedded in a row somewhere."""
    sentence = st.lists(st.sampled_from(HELD_WORDS), min_size=1, max_size=6).map(tuple)
    op = st.one_of(
        st.tuples(st.just("embed"), sentence),
        st.tuples(st.just("batch"), st.lists(sentence, max_size=4)),
        st.tuples(st.just("move"), st.sampled_from([0.5, -2.0])),
    )
    ops = draw(st.lists(op, min_size=1, max_size=12))
    at = draw(st.integers(0, len(ops)))
    ops[at:at] = [("batch", [WIDE_SENTENCES[0]]), ("embed", WIDE_SENTENCES[1])]
    return draw(st.sampled_from([0, 1, 2])), ops


class TestHeldRows:
    @settings(max_examples=30, deadline=None)
    @given(held_store_ops())
    def test_every_gather_matches_the_reference_sums(self, case):
        # every matrix equals the reduceat oracle over the current storage,
        # so a row held from an older revision never comes back
        window, ops = case
        provider = HashedWindowEmbedder(EmbedderParams(dim=4, n_buckets=2**12, window=window, seed=3))
        params = provider.params
        capacities = {0}
        last = None
        for kind, arg in ops:
            if kind == "move":
                if last is not None:
                    # columns of the last embedded sentence, whose rows are held
                    moved = np.unique(columns_of(params, last).columns)[:3]
                    slots = params.slots_for(moved)
                    params.set_columns(moved, params.storage[slots] + arg)
                continue
            sentences = [Sentence(0, tokens) for tokens in ([arg] if kind == "embed" else arg)]
            rows = provider.embed(sentences[0]) if kind == "embed" else provider.embed_batch(sentences)
            bounds = np.cumsum([0, *map(len, sentences)])
            assert rows.shape == (bounds[-1], params.dim) and not rows.flags.writeable
            for sentence, lo, hi in zip(sentences, bounds, bounds[1:]):
                columns = columns_of(params, sentence)
                expected = reference_embed_columns(params.storage, columns.slots, columns.starts)
                assert _bits(rows[lo:hi]) == _bits(expected)
                last = sentence
            capacities.add(params._rows.shape[0])
        assert len(capacities) >= 3

    def test_rows_kept_when_the_buffer_grows(self):
        # the held rows grow while the store does not: every key of both
        # wide sentences is featurized before the params number any window,
        # and the second sentence grows the first one's 128 rows to 256
        featurized = EmbedderParams(dim=4, n_buckets=2**12, seed=3)
        wide = [Sentence(k, tokens) for k, tokens in enumerate(WIDE_SENTENCES)]
        expected = np.split(HashedWindowEmbedder(featurized.copy()).embed_batch(wide), [len(wide[0])])
        for sentence in wide:
            HashedWindowEmbedder(featurized).token_columns(sentence)
        # a copy keeps the feature entries and storage, and no window
        params = featurized.copy()
        provider = HashedWindowEmbedder(params)
        store = params.storage.shape[0]
        provider.embed(wide[0])
        assert params._rows.shape[0] == 128
        provider.embed(wide[1])
        assert params._rows.shape[0] == 256 and params.storage.shape[0] == store
        for sentence, matrix in zip(wide, expected):
            assert _bits(provider.embed(sentence)) == _bits(matrix)

    def test_providers_over_one_params_share_rows(self, monkeypatch):
        # the held rows are the parameters': a provider's embed of a
        # sentence another provider embedded sums nothing, and one
        # set_columns makes both sum again
        params = EmbedderParams(dim=8, n_buckets=512)
        first, second = HashedWindowEmbedder(params), HashedWindowEmbedder(params)
        other = Sentence(1, ("Bob", "left", "Rome", "."))
        held = [first.embed(SENT), second.embed(other)]
        summed = []
        sums_of = embeddings._column_sums
        monkeypatch.setattr(
            embeddings,
            "_column_sums",
            lambda storage, slots, starts: summed.append(starts.size) or sums_of(storage, slots, starts),
        )
        assert _bits(second.embed(SENT)) == _bits(held[0])
        assert _bits(first.embed(other)) == _bits(held[1])
        assert summed == []
        params.set_columns(columns_of(params, SENT).columns[:1], np.full((1, 8), 0.25))
        rows = [first.embed(SENT), second.embed(other)]
        assert summed == [5, 4]
        for sentence, matrix in zip((SENT, other), rows):
            columns = columns_of(params, sentence)
            expected = reference_embed_columns(params.storage, columns.slots, columns.starts)
            assert _bits(matrix) == _bits(expected)
        assert _bits(rows[0]) != _bits(held[0])

    def test_provider_keeps_only_its_params(self):
        # a provider holds nothing of its own, and a copy of the parameters
        # starts with no window numbered and no row held
        params = EmbedderParams(dim=8, n_buckets=512)
        provider = HashedWindowEmbedder(params)
        assert vars(provider) == {"params": params}
        rows = provider.embed(SENT)
        dup = params.copy()
        assert len(params._windows) == np.count_nonzero(params._held) == 5
        assert dup._windows == {} and dup._held.size == 0
        assert _bits(HashedWindowEmbedder(dup).embed(SENT)) == _bits(rows)
        assert len(dup._windows) == np.count_nonzero(dup._held) == 5


class TestTokenByTokenBackward:
    def test_matches_add_at_and_token_order(self, rng):
        for seed in range(12):
            params = EmbedderParams(dim=16, n_buckets=4096, window=2, seed=seed)
            # 40 tokens over a 6-word vocabulary: words and windows repeat,
            # so many columns occur in several tokens
            vocab = ["ab", "ba", "abc", "cab", "Ab", "b"]
            words = tuple(vocab[int(i)] for i in rng.integers(0, len(vocab), 40))
            sent = Sentence(0, words)
            entries = HashedWindowEmbedder(params).token_columns(sent)
            assert np.unique(entries[0], return_counts=True)[1].max() > 1
            d_output = rng.normal(size=(40, 16))
            d_output[rng.random(d_output.shape) < 0.1] = -0.0
            x = HashedWindowEmbedder(params).embed(sent)

            grads = HashedWindowEmbedder(params).backprop(sent, entries, d_output, x)
            expected = reference_backprop_add_at(entries, d_output, x)
            np.testing.assert_array_equal(grads.columns, expected.columns)
            assert _bits(grads.grad) == _bits(expected.grad)
            by_token = reference_backprop(params, sent, d_output)
            for col, row in zip(grads.columns.tolist(), grads.grad):
                assert _bits(row) == _bits(by_token[col])
