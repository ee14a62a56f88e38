import gc
import weakref

import numpy as np
import pytest

from copytag import retrieval, trainer
from copytag.corpus import build_dataset
from copytag.embeddings import HashedWindowEmbedder, EmbedderParams, embed_sentence
from copytag.retrieval import assemble_neighbor_set, build_index, query
from copytag.tagging import Tagger
from copytag.trainer import AdamState, TrainConfig, adam_update, fine_tune

from conftest import (
    corpus_order,
    index_over,
    labels_only_set,
    make_tagged_corpus,
    present_types,
)
from param_columns import set_column
from retrieval_reference import linear_scan


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
    """Serves one fixed row per sentence id, repeated for every token; for
    retrieval tests only."""

    def __init__(self, vectors, tag="fake"):
        self.vectors = vectors
        self.dim = vectors.shape[1]
        self.tag = tag

    def embed(self, sentence):
        return np.repeat(self.vectors[sentence.uid : sentence.uid + 1], len(sentence), axis=0)

    def embed_batch(self, sentences):
        return np.concatenate([self.embed(sentence) for sentence in sentences])


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

            def embed_batch(self, sentences):
                return np.concatenate([self.embed(sentence) for sentence in sentences])

        index = build_index(tiny_db(), ZeroProvider())
        assert np.array_equal(index.vectors, np.zeros((4, 3)))
        assert [score for _, score in query(index, np.ones(3), 4)] == [0.0] * 4

    def test_keeps_read_only_token_rows(self):
        db = tiny_db()
        provider = small_provider()
        index = build_index(db, provider)
        assert index.row_starts.tolist() == [0, 2, 5, 6, 8]
        assert index.token_rows.shape == (8, 12)
        assert index.flat_labels.tolist() == [
            lab for item in db.items for lab in item.labels
        ]
        for sid, item in enumerate(db.items):
            lo, hi = index.row_starts[sid], index.row_starts[sid + 1]
            assert np.array_equal(index.token_rows[lo:hi], provider.embed(item.sentence))
        for array in (
            index.token_rows, index.row_starts, index.flat_labels, index.window_ranks
        ):
            assert not array.flags.writeable

    def test_wrong_row_count_rejected(self):
        # the batch's one matrix is checked whole; a one-sentence call, a
        # query's or a one-sentence db's, names its sentence
        class OneRowProvider(VectorProvider):
            def embed(self, sentence):
                return self.vectors[sentence.uid : sentence.uid + 1]

        vectors = np.ones((4, 2))
        with pytest.raises(ValueError, match=r"^4 sentences: provider returned shape \(4, 2\), expected \(8, 2\)$"):
            build_index(tiny_db(), OneRowProvider(vectors))
        one = build_dataset([(("alpha", "beta"), ("X", "Y"))])
        with pytest.raises(ValueError, match=r"^sentence 0: provider returned shape \(1, 2\), expected \(2, 2\)$"):
            build_index(one, OneRowProvider(vectors))
        tagger = Tagger(VectorProvider(vectors), tiny_db(), 2)
        tagger.provider = OneRowProvider(vectors)
        with pytest.raises(ValueError, match=r"^sentence 1: provider returned shape \(1, 2\), expected \(3, 2\)$"):
            tagger.tag(tiny_db().items[1].sentence)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_provider_rejected(self, value):
        # a non-finite row names the sentence that owns it: tiny_db's
        # sentences own rows 0-1, 2-4, 5 and 6-7, and the first and the
        # last row of each are poisoned alone
        class PoisonedRow(VectorProvider):
            def __init__(self, row):
                super().__init__(np.ones((4, 2)))
                self.row = row

            def embed_batch(self, sentences):
                rows = super().embed_batch(sentences)
                rows[self.row, 1] = value
                return rows

        vectors = np.ones((4, 2))
        vectors[2, 1] = value
        with pytest.raises(ValueError, match="sentence 2"):
            build_index(tiny_db(), VectorProvider(vectors))
        for sid, rows in enumerate([(0, 1), (2, 4), (5,), (6, 7)]):
            for row in rows:
                with pytest.raises(ValueError, match=f"^sentence {sid}: provider returned non-finite embeddings$"):
                    build_index(tiny_db(), PoisonedRow(row))

    def test_first_faulty_sentence_named(self):
        # the shape is checked on the whole matrix, before any entry; a
        # non-finite entry names the sentence that owns it, the first such
        # sentence when there are more
        class FaultyProvider(VectorProvider):
            def __init__(self, poisoned, reshaped=None):
                super().__init__(np.ones((4, 2)))
                self.poisoned, self.reshaped = poisoned, reshaped

            def embed(self, sentence):
                matrix = super().embed(sentence)
                if sentence.uid in self.poisoned:
                    matrix[-1, 0] = np.nan
                return matrix

            def embed_batch(self, sentences):
                rows = super().embed_batch(sentences)
                return rows if self.reshaped is None else self.reshaped(rows)

        cases = [
            ({2}, lambda rows: rows[:, :1], r"^4 sentences: provider returned shape \(8, 1\), expected \(8, 2\)$"),
            ({1}, lambda rows: rows[:-1], r"^4 sentences: provider returned shape \(7, 2\)"),
            ({1}, lambda rows: np.vstack([rows, rows[:1]]), r"^4 sentences: provider returned shape \(9, 2\)"),
            (set(), np.ravel, r"^4 sentences: provider returned shape \(16,\)"),
            ({1, 3}, None, "^sentence 1: provider returned non-finite embeddings$"),
            ({3, 2}, None, "^sentence 2: provider returned non-finite embeddings$"),
        ]
        for poisoned, reshaped, message in cases:
            with pytest.raises(ValueError, match=message):
                build_index(tiny_db(), FaultyProvider(poisoned, reshaped))

    def test_missing_matrix_rejected(self):
        # a row short, or a list of per-sentence matrices: the wrong shape
        class ShortProvider(VectorProvider):
            def embed_batch(self, sentences):
                return super().embed_batch(sentences)[:-1]

        class ListProvider(VectorProvider):
            def embed_batch(self, sentences):
                return [self.embed(sentence) for sentence in sentences]

        with pytest.raises(ValueError, match=r"^4 sentences: provider returned shape \(7, 2\), expected \(8, 2\)$"):
            build_index(tiny_db(), ShortProvider(np.ones((4, 2))))
        db = build_dataset([(("alpha", "beta"), ("X", "Y"))] * 3)
        with pytest.raises(ValueError, match=r"^3 sentences: provider returned shape \(3, 2, 2\), expected \(6, 2\)$"):
            build_index(db, ListProvider(np.ones((3, 2))))

    def test_checked_rows_are_a_read_only_copy(self):
        # nothing the index or an analysis keeps aliases the provider's array
        sentence = tiny_db().items[0].sentence
        rows = np.arange(4, dtype=np.float32).reshape(2, 2)
        for given in (rows, rows.astype(float)):
            checked = retrieval.checked_rows(VectorProvider(np.ones((1, 2))), [sentence], given)
            assert checked.dtype == np.float64 and checked.tolist() == given.tolist()
            assert not checked.flags.writeable and given.flags.writeable
            assert not np.shares_memory(checked, given)

    @pytest.mark.parametrize("dim", [1, 2, 3, 128])
    def test_pooled_equals_the_mean_of_each_sentence(self, dim):
        # bit for bit, over sentence lengths on both sides of numpy's
        # pairwise block and values of very different magnitudes
        rng = np.random.default_rng(dim)
        lengths = [1, 2, 7, 8, 9, 127, 128, 129, 300, 3]
        starts = np.concatenate([[0], np.cumsum(lengths)])
        rows = rng.normal(size=(starts[-1], dim)) * 10.0 ** rng.integers(-8, 8, size=(starts[-1], 1))
        pooled = retrieval._pooled(rows, starts)
        for sid in range(len(lengths)):
            expected = embed_sentence(rows[starts[sid] : starts[sid + 1]])
            assert pooled[sid].tobytes() == expected.tobytes()


def sorted_window_ranks(rows):
    """Oracle: each position's window, its labels to the end of its row,
    ranked among the distinct windows by Python's tuple order."""
    windows = [tuple(row[i:]) for row in rows for i in range(len(row))]
    rank = {window: r for r, window in enumerate(sorted(set(windows)))}
    return [rank[window] for window in windows]


class TestWindowRanks:
    """Every set built with labels_only_set retrieves its whole db in
    order, so its gathered ranks are the index's."""

    def test_match_sorted_label_tuples(self, rng):
        for _ in range(200):
            n_types = int(rng.choice([2, 3, 40]))
            rows = [
                [int(v) for v in rng.integers(0, n_types, size=rng.integers(1, 12))]
                for _ in range(int(rng.integers(1, 9)))
            ]
            rows += [rows[0]] * int(rng.integers(0, 3))  # repeated sentences
            ranks = labels_only_set(rows).window_ranks
            assert ranks.tolist() == sorted_window_ranks(rows)

    def test_proper_prefix_first_and_one_token_sentences(self):
        # (0,) < (0, 0) < (1,) < (1, 0) < (1, 0, 0)
        rows = [[1, 0], [1], [1, 0, 0], [0], [1, 0]]
        expected = [3, 0, 2, 4, 1, 0, 0, 3, 0]
        assert labels_only_set(rows).window_ranks.tolist() == expected

    def test_negative_labels_are_ranked(self):
        # a Dataset holds none, and build_segment_dict rejects them; the
        # ranking itself takes any integer labels
        rows = [[0, -1], [-1, 0, -1], [-2]]
        flat = np.array([lab for row in rows for lab in row])
        row_starts = np.array([0, 2, 5, 6])
        ranks = retrieval._window_ranks(flat, row_starts)
        assert ranks.tolist() == sorted_window_ranks(rows)

    def test_set_gathers_a_copy(self, rng):
        db, matrices = make_tagged_corpus(rng, n_sentences=5, max_len=4)
        index = index_over(db, matrices)
        ns = assemble_neighbor_set(index, [3, 0, 3])
        assert np.array_equal(ns.window_ranks, index.window_ranks[ns.rows])
        assert not np.shares_memory(ns.window_ranks, index.window_ranks)


def assert_same_bytes(index, fresh):
    assert len(index) == len(fresh)
    assert index.provider_tag == fresh.provider_tag
    assert index.vectors.tobytes() == fresh.vectors.tobytes()
    for name in ("token_rows", "row_starts", "flat_labels", "window_ranks"):
        a, b = getattr(index, name), getattr(fresh, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class SlottedProvider:
    """No __weakref__ slot, so it cannot be a weak key."""

    __slots__ = ("vectors", "dim", "tag")

    def __init__(self, vectors):
        self.vectors = vectors
        self.dim = vectors.shape[1]
        self.tag = "slotted"

    def embed(self, sentence):
        return np.repeat(self.vectors[sentence.uid : sentence.uid + 1], len(sentence), axis=0)

    def embed_batch(self, sentences):
        return np.concatenate([self.embed(sentence) for sentence in sentences])


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
        columns, _, _ = provider.token_columns(db.items[1].sentence)
        if move == "set_column":
            set_column(provider.params, int(columns[0]), np.full(12, 0.5))
        else:
            sentence = db.items[1].sentence
            d_output = np.random.default_rng(4).normal(size=(len(sentence), 12))
            grads = provider.backprop(
                sentence, provider.token_columns(sentence), d_output, provider.embed(sentence)
            )
            adam_update(provider.params, grads, AdamState(), 0.1)
        index = Tagger(provider, db, 2).index
        assert index is not stale
        assert index.provider_tag == provider.tag != stale.provider_tag
        assert not np.array_equal(index.token_rows[2:5], stale.token_rows[2:5])
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
        kept = retrieval._LAST_BUILT[provider]
        assert kept.dataset is db_b and kept is second
        del first
        gc.collect()
        assert first_ref() is None
        again = build_index(db_a, provider)
        assert again is not second
        kept = retrieval._LAST_BUILT[provider]
        assert kept.dataset is db_a and kept is again

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_query_rejected(self, rng, value):
        index, _ = self._index(rng)
        for q in (np.full(6, value), np.where(np.arange(6) == 2, value, 1.0)):
            with pytest.raises(ValueError, match="^query vector has non-finite entries$"):
                query(index, q, count=3)

    def test_dim_mismatch(self, rng):
        index, _ = self._index(rng)
        with pytest.raises(ValueError):
            query(index, np.ones(7), count=1)

    def test_count_above_survivors(self, rng):
        # every sentence survives the cut, in the scan's order
        index, _ = self._index(rng, n=6)
        q = rng.normal(size=6)
        got = query(index, q, count=10)
        assert len(got) == 6
        assert got == linear_scan(index, q, 10)

    def test_zero_norm_query_keeps_id_order(self, rng):
        index, _ = self._index(rng, n=7)
        got = query(index, np.zeros(6), count=4)
        assert got == [(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]
        assert got == linear_scan(index, np.zeros(6), 4)

    def test_ties_by_ascending_id_match_scan(self, rng):
        # rows drawn from three distinct vectors, so most scores tie
        n = 30
        distinct = rng.normal(size=(3, 6))
        vectors = distinct[rng.integers(0, 3, size=n)]
        db = build_dataset([(("tok",), ("X",))] * n)
        index = build_index(db, VectorProvider(vectors))
        for _ in range(50):
            q = distinct[int(rng.integers(0, 3))] if rng.random() < 0.5 else rng.normal(size=6)
            count = int(rng.integers(1, n + 4))
            assert query(index, q, count) == linear_scan(index, q, count)


class TestNeighborSet:
    def test_flat_layout(self, rng):
        db, matrices = make_tagged_corpus(rng, n_sentences=5, max_len=4)
        index = index_over(db, matrices)
        ids = [3, 0, 3, 4]
        ns = assemble_neighbor_set(index, ids)
        total = sum(len(db.items[sid]) for sid in ids)
        assert ns.n_total == total
        assert ns.flat_labels.shape == ns.rows.shape == (total,)
        # starts maps flat positions back to (entry, offset), and rows to
        # the entry's sentence's rows of the index
        assert ns.starts[0] == 0
        assert list(np.diff(ns.starts)) == [len(db.items[sid]) for sid in ids]
        for m, sid in enumerate(ids):
            assert ns.entries[m].sequence is db.items[sid]
            for k in range(len(db.items[sid])):
                j = ns.starts[m] + k
                assert ns.flat_labels[j] == db.items[sid].labels[k]
                assert ns.rows[j] == index.row_starts[sid] + k
                assert np.array_equal(index.token_rows[ns.rows[j]], matrices[sid][k])

    def test_types_present_first_appearance(self, rng):
        # the types present in a retrieved set, by ascending id, name the
        # labels in the order the corpus first shows them, whatever order
        # the set itself shows them in
        for _ in range(20):
            db, matrices = make_tagged_corpus(rng)
            ids = [int(v) for v in rng.permutation(len(db))[: int(rng.integers(1, 5))]]
            ns = assemble_neighbor_set(index_over(db, matrices), ids)
            types = present_types(ns)
            assert all(type(t) is int for t in types)
            names = [db.vocab.types[t] for t in types]
            assert names == corpus_order(db, names)
            in_set = {db.vocab.types[t] for item in ns.entries for t in item.sequence.labels}
            assert set(names) == in_set

    def test_type_grouping_is_one_mask_per_type(self, rng):
        # the loss and the marginals read each type's positions from the
        # grouping; they must be exactly what a mask over the labels selects
        for _ in range(30):
            db, matrices = make_tagged_corpus(rng)
            ids = [int(v) for v in rng.integers(0, len(db), size=int(rng.integers(1, 6)))]
            ns = assemble_neighbor_set(index_over(db, matrices), ids)
            assert ns.type_ids == present_types(ns)
            bounds = ns.type_bounds
            assert (bounds[0], bounds[-1], len(bounds)) == (0, ns.n_total, len(ns.type_ids) + 1)
            assert all(type(b) is int for b in bounds)
            for tid, lo, hi in zip(ns.type_ids, bounds, bounds[1:]):
                block = ns.type_order[lo:hi]
                assert np.array_equal(block, np.flatnonzero(ns.flat_labels == tid))
            assert not ns.type_order.flags.writeable

    def test_assemble_from_dataset(self):
        db = tiny_db()
        index = build_index(db, small_provider())
        ns = assemble_neighbor_set(index, [2, 0])
        assert len(ns.entries) == 2
        assert ns.entries[0].sequence.sentence.uid == 2
        assert ns.entries[1].sequence.sentence.uid == 0

    def test_set_holds_no_embedding_rows(self):
        # a kept set (one per tagged sentence) names index rows by position
        # and holds no float matrix, so it does not keep the index alive
        db = tiny_db()
        index = build_index(db, small_provider())
        ns = assemble_neighbor_set(index, [2, 0])
        assert ns.rows.tolist() == [5, 0, 1]
        assert not any(
            isinstance(value, np.ndarray) and value.dtype.kind == "f"
            for value in vars(ns).values()
        )
        for array in (ns.ids, ns.flat_labels, ns.starts, ns.rows, ns.window_ranks):
            assert not array.flags.writeable

    def test_assemble_matches_fresh_embedding(self):
        # oracle: the per-query path, which embedded every neighbor afresh
        # and stacked the matrices in retrieval order
        db = tiny_db()
        provider = small_provider()
        index = build_index(db, provider)
        ids = [3, 1, 2, 1]
        kept = assemble_neighbor_set(index, ids)
        fresh = np.vstack([provider.embed(db.items[sid].sentence) for sid in ids])
        assert index.token_rows.take(kept.rows, axis=0).tobytes() == fresh.tobytes()
        assert kept.flat_labels.tolist() == [
            lab for sid in ids for lab in db.items[sid].labels
        ]
        assert kept.starts.tolist() == [0, 2, 5, 6, 9]
        assert [entry.sequence for entry in kept.entries] == [db.items[sid] for sid in ids]

    def test_assemble_unknown_id(self):
        db = tiny_db()
        index = build_index(db, small_provider())
        for bad in (99, 4, -1):
            with pytest.raises(ValueError, match=f"unknown sentence id {bad}"):
                assemble_neighbor_set(index, [0, bad])

    def test_assemble_needs_some_id(self):
        with pytest.raises(ValueError, match="at least one entry"):
            assemble_neighbor_set(build_index(tiny_db(), small_provider()), [])


def random_corpus(rng, n_sentences):
    """Sentences of 1 to 5 tokens, at least a third of them one token
    long, over five token types and three tags, so equal sentences recur."""
    rows = []
    for _ in range(n_sentences):
        length = 1 if rng.random() < 1 / 3 else int(rng.integers(1, 6))
        tokens = tuple(f"w{v}" for v in rng.integers(0, 5, size=length))
        tags = tuple("ABC"[v] for v in rng.integers(0, 3, size=length))
        rows.append((tokens, tags))
    return build_dataset(rows)


def assert_locates(ns):
    """locate against a linear scan over starts, at every flat position."""
    starts = ns.starts.tolist()
    for pos in range(ns.n_total):
        m = next(k for k in range(len(ns.ids)) if starts[k] <= pos < starts[k + 1])
        located = ns.locate(pos)
        assert located == (m, pos - starts[m])
        assert all(type(v) is int for v in located)
        assert ns.entries[m].sequence.labels[pos - starts[m]] == ns.flat_labels[pos]


class TestLocate:
    """A flat position's (entry, offset) on random corpora, for the sets
    assemble_neighbor_set, Tagger.analyze and fine_tune build, with K=1
    and K at or above the db size."""

    def test_assembled_with_repeated_ids(self, rng):
        for _ in range(30):
            db = random_corpus(rng, int(rng.integers(1, 8)))
            index = build_index(db, small_provider())
            ids = rng.integers(0, len(db), size=int(rng.integers(1, 12))).tolist()
            ns = assemble_neighbor_set(index, ids)
            assert ns.dataset is db
            assert_locates(ns)

    def test_tagger_sets(self, rng):
        for _ in range(10):
            db = random_corpus(rng, int(rng.integers(1, 8)))
            inputs = [item.sentence for item in db.items[:2]]
            inputs += [item.sentence for item in random_corpus(rng, 2).items]
            provider = small_provider()
            for k in (1, len(db), len(db) + 3):
                tagger = Tagger(provider, db, k)
                for sentence in inputs:
                    ns = tagger.analyze(sentence).neighbors
                    assert len(ns.ids) == min(k, len(db))
                    assert ns.dataset is db
                    assert_locates(ns)

    def test_fine_tune_sets(self, rng, monkeypatch):
        built = []
        assemble = trainer.assemble_neighbor_set

        def recording(index, ids):
            built.append(assemble(index, ids))
            return built[-1]

        monkeypatch.setattr(trainer, "assemble_neighbor_set", recording)
        for _ in range(5):
            db = random_corpus(rng, int(rng.integers(2, 8)))
            for k in (1, len(db) - 1, len(db) + 3):
                built.clear()
                fine_tune(TrainConfig(epochs=0, train_neighbors=k), db, provider=small_provider())
                assert len(built) == len(db)
                for ns in built:
                    assert len(ns.ids) == min(k, len(db) - 1)
                    assert ns.dataset is db
                    assert_locates(ns)
