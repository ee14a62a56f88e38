import gc
import weakref

import numpy as np
import pytest

from copytag import retrieval
from copytag.corpus import build_dataset
from copytag.embeddings import HashedWindowEmbedder, EmbedderParams
from copytag.retrieval import (
    NeighborEntry,
    NeighborSet,
    assemble_neighbor_set,
    build_index,
    query,
)
from copytag.tagging import Tagger
from copytag.trainer import AdamState, adam_update

from conftest import corpus_order, make_neighbor_set, make_tagged_corpus, present_types
from param_columns import set_column


def tiny_db():
    return build_dataset(
        [
            (("alpha", "beta"), ("X", "Y")),
            (("alpha", "beta", "gamma"), ("X", "Y", "X")),
            (("delta",), ("Y",)),
            (("alpha", "beta"), ("Y", "X")),
        ]
    )


def small_provider():
    return HashedWindowEmbedder(EmbedderParams(dim=12, n_buckets=256))


class VectorProvider:
    """Serves one fixed row per sentence id; for retrieval tests only."""

    def __init__(self, vectors, tag="fake"):
        self.vectors = vectors
        self.dim = vectors.shape[1]
        self.tag = tag

    def embed(self, sentence):
        return self.vectors[sentence.uid : sentence.uid + 1]


class TestBuildIndex:
    def test_rows_unit_norm(self):
        index = build_index(tiny_db(), small_provider())
        norms = np.linalg.norm(index.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-9)
        assert len(index) == 4

    def test_provider_tag_recorded(self):
        provider = small_provider()
        index = build_index(tiny_db(), provider)
        assert index.provider_tag == provider.tag

    def test_zero_vector_flagged(self):
        class ZeroProvider:
            dim = 3
            tag = "zero"

            def embed(self, sentence):
                return np.zeros((len(sentence), 3))

        index = build_index(tiny_db(), ZeroProvider())
        assert np.array_equal(index.vectors, np.zeros((4, 3)))
        assert [score for _, score in query(index, np.ones(3), 4)] == [0.0] * 4

    def test_keeps_read_only_token_matrices(self):
        db = tiny_db()
        provider = small_provider()
        index = build_index(db, provider)
        assert len(index.token_matrices) == len(db.items)
        for item, matrix in zip(db.items, index.token_matrices):
            assert np.array_equal(matrix, provider.embed(item.sentence))
            assert not matrix.flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_provider_rejected(self, value):
        vectors = np.ones((4, 2))
        vectors[2, 1] = value
        with pytest.raises(ValueError, match="sentence 2"):
            build_index(tiny_db(), VectorProvider(vectors))


def assert_same_bytes(index, fresh):
    assert len(index) == len(fresh)
    assert index.provider_tag == fresh.provider_tag
    assert index.vectors.tobytes() == fresh.vectors.tobytes()
    assert len(index.token_matrices) == len(fresh.token_matrices)
    for a, b in zip(index.token_matrices, fresh.token_matrices):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class SlottedProvider:
    """No __weakref__ slot, so it cannot be a weak key."""

    __slots__ = ("vectors", "dim", "tag")

    def __init__(self, vectors):
        self.vectors = vectors
        self.dim = vectors.shape[1]
        self.tag = "slotted"

    def embed(self, sentence):
        return self.vectors[sentence.uid : sentence.uid + 1]


class UnhashableProvider(VectorProvider):
    __hash__ = None


class TestIndexMemo:
    """build_index returns the index it last built for a provider while
    the Dataset object is the same and provider.tag has not moved."""

    def test_taggers_share_one_index(self):
        db = tiny_db()
        provider = small_provider()
        first = Tagger(provider, db, 2)
        second = Tagger(provider, db, 3)
        assert second.index is first.index
        assert build_index(db, provider) is first.index

    @pytest.mark.parametrize("move", ["set_column", "adam_update"])
    def test_moved_revision_rebuilds(self, move):
        db = tiny_db()
        provider = small_provider()
        stale = Tagger(provider, db, 2).index
        columns = provider.token_columns(db.items[1].sentence).columns
        if move == "set_column":
            set_column(provider.params, int(columns[0]), np.full(12, 0.5))
        else:
            sentence = db.items[1].sentence
            d_output = np.random.default_rng(4).normal(size=(len(sentence), 12))
            grads = provider.backprop(sentence, d_output, provider.embed(sentence))
            adam_update(provider.params, grads, AdamState(), 0.1)
        index = Tagger(provider, db, 2).index
        assert index is not stale
        assert index.provider_tag == provider.tag != stale.provider_tag
        assert not np.array_equal(index.token_matrices[1], stale.token_matrices[1])
        fresh = build_index(db, HashedWindowEmbedder(provider.params.copy()))
        assert_same_bytes(index, fresh)

    def test_equal_dataset_builds_its_own(self):
        provider = small_provider()
        first = build_index(tiny_db(), provider)
        other = tiny_db()
        second = build_index(other, provider)
        assert second is not first
        assert_same_bytes(second, first)
        assert build_index(other, provider) is second

    def test_one_index_kept_per_provider(self):
        provider = small_provider()
        db_a, db_b = tiny_db(), tiny_db()
        first = build_index(db_a, provider)
        first_ref = weakref.ref(first)
        second = build_index(db_b, provider)
        kept_db, kept = retrieval._LAST_BUILT[provider]
        assert kept_db is db_b and kept is second
        del first
        gc.collect()
        assert first_ref() is None
        again = build_index(db_a, provider)
        assert again is not second
        kept_db, kept = retrieval._LAST_BUILT[provider]
        assert kept_db is db_a and kept is again

    def test_memo_does_not_keep_the_provider(self):
        gc.collect()
        before = len(retrieval._LAST_BUILT)
        provider = small_provider()
        index = build_index(tiny_db(), provider)
        assert len(retrieval._LAST_BUILT) == before + 1
        provider_ref = weakref.ref(provider)
        del provider
        gc.collect()
        assert provider_ref() is None
        assert len(retrieval._LAST_BUILT) == before
        assert len(index) == 4

    @pytest.mark.parametrize("kind", [SlottedProvider, UnhashableProvider])
    def test_unkeyable_provider_still_builds(self, kind):
        vectors = np.arange(8, dtype=float).reshape(4, 2) + 1.0
        provider = kind(vectors)
        db = tiny_db()
        first = build_index(db, provider)
        second = build_index(db, provider)
        assert second is not first
        assert_same_bytes(second, first)
        plain = VectorProvider(vectors, tag=provider.tag)
        assert_same_bytes(first, build_index(db, plain))


class TestQuery:
    def _index(self, rng, n=20, dim=6):
        vectors = rng.normal(size=(n, dim))
        rows = [(("tok",), ("X",))] * n
        db = build_dataset(rows)
        return build_index(db, VectorProvider(vectors)), vectors

    def test_matches_linear_scan(self, rng):
        index, _ = self._index(rng)
        for _ in range(20):
            q = rng.normal(size=6)
            got = query(index, q, count=5)
            qn = q / np.linalg.norm(q)
            scores = index.vectors @ qn
            order = np.lexsort((np.arange(len(index)), -scores))
            expected = [(int(i), float(scores[i])) for i in order[:5]]
            assert [g[0] for g in got] == [e[0] for e in expected]
            for (_, gs), (_, es) in zip(got, expected):
                assert gs == pytest.approx(es, abs=1e-12)

    def test_ties_prefer_lower_id(self):
        db = build_dataset([(("a",), ("X",)), (("a",), ("X",)), (("a",), ("X",))])
        index = build_index(db, VectorProvider(np.tile([1.0, 0.0], (3, 1))))
        got = query(index, np.array([1.0, 0.0]), count=3)
        assert [sid for sid, _ in got] == [0, 1, 2]

    def test_exclusion_applied_before_cut(self, rng):
        index, _ = self._index(rng, n=6)
        full = query(index, np.ones(6), count=3)
        excl = query(index, np.ones(6), count=3, exclude_ids=(full[0][0],))
        assert full[0][0] not in [sid for sid, _ in excl]
        assert len(excl) == 3

    def test_count_larger_than_db(self, rng):
        index, _ = self._index(rng, n=4)
        got = query(index, np.ones(6), count=100)
        assert len(got) == 4

    def test_count_validated(self, rng):
        index, _ = self._index(rng)
        with pytest.raises(ValueError):
            query(index, np.ones(6), count=0)

    def test_zero_query_scores_zero(self, rng):
        index, _ = self._index(rng, n=5)
        got = query(index, np.zeros(6), count=5)
        assert [sid for sid, _ in got] == [0, 1, 2, 3, 4]
        assert all(score == 0.0 for _, score in got)

    def test_dim_mismatch(self, rng):
        index, _ = self._index(rng)
        with pytest.raises(ValueError):
            query(index, np.ones(7), count=1)


class TestNeighborSet:
    def test_flat_layout(self, rng):
        ns = make_neighbor_set(rng, n_neighbors=3, max_len=4, n_types=3, dim=5)
        total = sum(len(e.sequence) for e in ns.entries)
        assert ns.n_total == total
        assert ns.flat_labels.shape == (total,)
        assert ns.flat_embeddings.shape == (total, 5)
        # starts maps flat positions back to (entry, offset)
        assert ns.starts[0] == 0
        assert list(np.diff(ns.starts)) == [len(e.sequence) for e in ns.entries]
        for m, entry in enumerate(ns.entries):
            for k in range(len(entry.sequence)):
                j = ns.starts[m] + k
                assert ns.flat_labels[j] == entry.sequence.labels[k]
                assert np.array_equal(ns.flat_embeddings[j], entry.embeddings[k])

    def test_types_present_first_appearance(self, rng):
        # the types present in a retrieved set, by ascending id, name the
        # labels in the order the corpus first shows them, whatever order
        # the set itself shows them in
        for _ in range(20):
            db, matrices = make_tagged_corpus(rng)
            ids = [int(v) for v in rng.permutation(len(db))[: int(rng.integers(1, 5))]]
            ns = assemble_neighbor_set(db, ids, matrices)
            types = present_types(ns)
            assert all(type(t) is int for t in types)
            names = [db.vocab.types[t] for t in types]
            assert names == corpus_order(db, names)
            in_set = {db.vocab.types[t] for item in ns.entries for t in item.sequence.labels}
            assert set(names) == in_set

    def test_assemble_from_dataset(self):
        db = tiny_db()
        index = build_index(db, small_provider())
        ns = assemble_neighbor_set(db, [2, 0], index.token_matrices)
        assert len(ns.entries) == 2
        assert ns.entries[0].sequence.sentence.uid == 2
        assert ns.entries[1].sequence.sentence.uid == 0

    def test_kept_set_holds_no_stacked_copy(self):
        # a kept set (one per tagged sentence) references the index's rows
        # and stacks them only when flat_embeddings is read
        db = tiny_db()
        index = build_index(db, small_provider())
        ns = assemble_neighbor_set(db, [2, 0], index.token_matrices)
        assert ns.entries[0].embeddings is index.token_matrices[2]
        assert not any(
            isinstance(value, np.ndarray) and value.ndim == 2
            for value in vars(ns).values()
        )
        flat = ns.flat_embeddings
        assert not flat.flags.writeable
        assert np.array_equal(
            flat, np.vstack([index.token_matrices[2], index.token_matrices[0]])
        )

    def test_assemble_matches_fresh_embedding(self):
        # oracle: the per-query path, which embedded every neighbor afresh
        db = tiny_db()
        provider = small_provider()
        index = build_index(db, provider)
        ids = [3, 1, 2, 1]
        kept = assemble_neighbor_set(db, ids, index.token_matrices)
        fresh = NeighborSet.from_entries(
            [
                NeighborEntry(db.items[sid], provider.embed(db.items[sid].sentence))
                for sid in ids
            ]
        )
        assert np.array_equal(kept.flat_embeddings, fresh.flat_embeddings)
        assert np.array_equal(kept.flat_labels, fresh.flat_labels)
        assert np.array_equal(kept.starts, fresh.starts)
        for a, b in zip(kept.entries, fresh.entries):
            assert a.sequence is b.sequence
            assert np.array_equal(a.embeddings, b.embeddings)

    def test_assemble_unknown_id(self):
        db = tiny_db()
        index = build_index(db, small_provider())
        with pytest.raises(ValueError, match="unknown sentence id 99"):
            assemble_neighbor_set(db, [99], index.token_matrices)

    def test_assemble_needs_token_matrices(self):
        with pytest.raises(ValueError, match="token matrices"):
            assemble_neighbor_set(tiny_db(), [0], token_matrices=())

