import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from copytag.corpus import Dataset, LabelVocab, build_dataset
from copytag.embeddings import INIT_STD, EmbedderParams, HashedWindowEmbedder
from copytag.retrieval import assemble_neighbor_set
from copytag.synthetic import suffix_corpus
from copytag import embeddings, trainer
from copytag.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Checkpoint,
    CheckpointError,
    EpochStats,
    TrainConfig,
    _sum_grads,
    adam_update,
    fine_tune,
    load_checkpoint,
    save_checkpoint,
)

from adam_reference import (
    ReferenceAdamState,
    as_dict,
    column_grads,
    reference_adam_update,
    reference_batch_sum,
)
from conftest import platform_facts
from param_columns import column, set_column
from retrieval_reference import linear_scan


def small_embedder():
    return HashedWindowEmbedder(EmbedderParams(dim=12, n_buckets=256, window=1, seed=2))


class TestAdam:
    def test_matches_scalar_reference(self):
        params = EmbedderParams(dim=3, n_buckets=16, seed=0)
        start = column(params, 5)
        state = AdamState()
        grads = [
            np.array([0.5, -1.0, 2.0]),
            np.array([0.1, 0.2, -0.3]),
            np.array([-1.5, 0.0, 0.4]),
        ]
        lr = 0.01
        for g in grads:
            adam_update(params, column_grads(params, {5: g}), state, lr)

        m = np.zeros(3)
        v = np.zeros(3)
        x = start.copy()
        for t, g in enumerate(grads, start=1):
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            m_hat = m / (1 - ADAM_BETA1**t)
            v_hat = v / (1 - ADAM_BETA2**t)
            x = x - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        np.testing.assert_allclose(column(params, 5), x, rtol=1e-12)

    def test_first_step_is_signed_lr(self):
        params = EmbedderParams(dim=4, n_buckets=16, seed=0)
        start = column(params, 2)
        g = np.array([0.7, -0.2, 1.3, -2.1])
        adam_update(params, column_grads(params, {2: g}), AdamState(), 0.05)
        delta = column(params, 2) - start
        np.testing.assert_allclose(delta, -0.05 * np.sign(g), atol=1e-6)

    def test_zero_gradients_advance_step_only(self):
        params = EmbedderParams(dim=2, n_buckets=8, seed=1)
        before = column(params, 3)
        state = AdamState()
        adam_update(params, column_grads(params, {3: np.zeros(2)}), state, 0.1)
        assert state.step == 1
        assert not state.mean.any()
        np.testing.assert_array_equal(column(params, 3), before)

    def test_zero_columns_skipped_but_others_move(self):
        params = EmbedderParams(dim=2, n_buckets=8, seed=1)
        frozen = column(params, 0)
        state = AdamState()
        adam_update(
            params,
            column_grads(params, {0: np.zeros(2), 1: np.array([1.0, -1.0])}),
            state,
            0.1,
        )
        slot0, slot1 = params.slots_for([0, 1])
        assert not state.mean[slot0].any() and state.mean[slot1].any()
        np.testing.assert_array_equal(column(params, 0), frozen)

    def test_nonfinite_gradient_rejected(self):
        params = EmbedderParams(dim=2, n_buckets=8, seed=1)
        with pytest.raises(ValueError, match="column 4"):
            adam_update(
                params,
                column_grads(params, {4: np.array([np.nan, 0.0])}),
                AdamState(),
                0.1,
            )

    def test_rejected_step_changes_nothing(self):
        # the bad column sorts after columns that would move, and the state
        # already holds moments from an earlier step
        params = EmbedderParams(dim=3, n_buckets=32, seed=4)
        state = AdamState()
        first = {2: np.ones(3), 9: -np.ones(3)}
        adam_update(params, column_grads(params, first), state, 0.1)
        bad = {
            2: np.ones(3),
            5: np.full(3, 0.5),
            7: np.array([0.0, np.inf, 1.0]),
            11: np.array([np.nan, 0.0, 0.0]),
        }
        grads = column_grads(params, bad)
        values = params.storage.copy()
        mean, var = state.mean.copy(), state.var.copy()
        modified, revision = set(params.modified), params.revision
        with pytest.raises(ValueError, match="column 7"):
            adam_update(params, grads, state, 0.1)
        assert state.step == 1
        assert params.revision == revision
        assert params.modified == modified
        assert params.storage.tobytes() == values.tobytes()
        assert state.mean.tobytes() == mean.tobytes()
        assert state.var.tobytes() == var.tobytes()


def _random_batch(rng, dim, pool):
    """Per-sentence {column: gradient} dicts of one random batch.

    Columns come from a small pool, so several sentences share them; some
    rows are zero, a few carry -0.0, and one column, when drawn, is zero
    in every sentence of the batch.
    """
    zero_col = int(rng.choice(pool))
    sentences = []
    for _ in range(int(rng.integers(1, 5))):
        cols = rng.choice(pool, size=int(rng.integers(1, 8)), replace=False)
        grads = {}
        for col in sorted(int(c) for c in cols):
            vec = rng.normal(size=dim) * 10.0 ** rng.integers(-6, 3)
            if col == zero_col or rng.random() < 0.15:
                vec = np.zeros(dim)
            vec[rng.random(dim) < 0.1] = -0.0
            grads[col] = vec
        sentences.append(grads)
    return sentences


class TestVectorizedStepMatchesReference:
    def test_random_sparse_batches(self):
        rng = np.random.default_rng(20)
        dim = 5
        pool = np.arange(0, 200, 7)
        batches = 0
        for run in range(4):
            params = EmbedderParams(dim=dim, n_buckets=256, window=1, seed=run)
            ref_params = EmbedderParams(dim=dim, n_buckets=256, window=1, seed=run)
            state = AdamState()
            ref_state = ReferenceAdamState()
            lr = float(10.0 ** rng.uniform(-4, -1))
            for _ in range(60):
                sentences = _random_batch(rng, dim, pool)
                blocks = [column_grads(params, g) for g in sentences]
                summed = _sum_grads(blocks, dim)
                expected = reference_batch_sum(sentences)
                assert len(summed) == len(expected)
                got = as_dict(summed)
                assert sorted(got) == sorted(expected)
                for col, vec in expected.items():
                    assert got[col].tobytes() == vec.tobytes()

                adam_update(params, summed, state, lr)
                reference_adam_update(ref_params, expected, ref_state, lr)
                batches += 1

                assert state.step == ref_state.step
                assert params.modified == ref_params.modified
                assert params.revision == ref_params.revision
                for col in pool.tolist():
                    assert column(params, col).tobytes() == column(ref_params, col).tobytes()
                slots = dict(zip(pool.tolist(), params.slots_for(pool).tolist()))
                for col, slot in slots.items():
                    if col in ref_state.mean:
                        assert state.mean[slot].tobytes() == ref_state.mean[col].tobytes()
                        assert state.var[slot].tobytes() == ref_state.var[col].tobytes()
                    elif slot < state.mean.shape[0]:
                        assert not state.mean[slot].any() and not state.var[slot].any()
        assert batches >= 200
        # moments grow with the materialized rows, not to n_buckets
        assert state.mean.shape[0] <= 2 * len(pool)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1e-3},
            {"batch_size": 0},
            {"epochs": -1},
            {"train_neighbors": 0},
            {"test_neighbors": 0},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epochs = 3


class TestFineTune:
    def test_zero_epochs_returns_initial_params(self):
        train = suffix_corpus(10, seed=3)
        provider = small_embedder()
        sent = train.items[0].sentence
        before = provider.embed(sent).copy()
        ck = fine_tune(TrainConfig(epochs=0, train_neighbors=4), train, provider=provider)
        assert ck.log == ()
        np.testing.assert_array_equal(
            HashedWindowEmbedder(ck.params).embed(sent), before
        )

    def test_nll_decreases_on_small_corpus(self):
        train = suffix_corpus(16, seed=7)
        cfg = TrainConfig(epochs=3, batch_size=4, train_neighbors=5, test_neighbors=5)
        ck = fine_tune(cfg, train, provider=small_embedder())
        assert len(ck.log) == 3
        assert ck.log[-1].train_nll < ck.log[0].train_nll
        assert all(s.skipped_tokens >= 0 for s in ck.log)

    def test_dev_accuracy_logged_only_when_given(self):
        train = suffix_corpus(10, seed=3)
        dev = suffix_corpus(4, seed=4)
        cfg = TrainConfig(epochs=1, batch_size=4, train_neighbors=4, test_neighbors=4)
        with_dev = fine_tune(cfg, train, dev=dev, provider=small_embedder())
        without = fine_tune(cfg, train, provider=small_embedder())
        assert 0.0 <= with_dev.log[0].dev_accuracy <= 1.0
        assert without.log[0].dev_accuracy is None

    def test_deterministic_given_config(self):
        train = suffix_corpus(10, seed=3)
        cfg = TrainConfig(epochs=2, batch_size=4, train_neighbors=4, test_neighbors=4)
        a = fine_tune(cfg, train, provider=small_embedder())
        b = fine_tune(cfg, train, provider=small_embedder())
        assert save_checkpoint(a) == save_checkpoint(b)

    def test_sentence_never_retrieves_itself(self, monkeypatch):
        # each sentence's neighbors are the linear scan's order with the
        # sentence left out. Sentences 6, 7 and 8 repeat 0, 2 and 4, and 9
        # repeats 0 again, so scores tie exactly and a sentence can rank
        # after its twins, even outside its own top count + 1.
        assembled = []

        def recording(index, ids):
            assembled.append((list(ids), index))
            return assemble_neighbor_set(index, ids)

        monkeypatch.setattr(trainer, "assemble_neighbor_set", recording)
        base = suffix_corpus(6, seed=3)
        rows = [(item.sentence.tokens, base.label_names(item)) for item in base.items]
        train = build_dataset(rows + rows[::2] + rows[:1])
        n = len(train.items)
        for count in (1, 2, 3, n - 1, n, n + 3):
            assembled.clear()
            cfg = TrainConfig(epochs=0, train_neighbors=count, test_neighbors=3)
            fine_tune(cfg, train, provider=small_embedder())
            assert len(assembled) == n
            index = assembled[0][1]
            assert np.array_equal(index.vectors[0], index.vectors[9])
            for sid, (ids, _) in enumerate(assembled):
                scan = linear_scan(index, index.vectors[sid], count, (sid,))
                assert ids == [nid for nid, _ in scan]

    def test_one_embed_batch_call_per_batch_over_its_neighbors(self, monkeypatch):
        # Before each batch, one embed_batch call takes every distinct
        # neighbor of the batch, in first-seen order over the sorted batch,
        # none left out; it sums only windows not held at the current
        # revision. The batch is read from the backprop calls that follow,
        # one per sentence in order.
        neighbor_ids = []

        def recording(index, ids):
            neighbor_ids.append(list(ids))
            return assemble_neighbor_set(index, ids)

        monkeypatch.setattr(trainer, "assemble_neighbor_set", recording)
        sums = []
        column_sums = embeddings._column_sums

        def counted_sums(*args):
            sums.append(args)
            return column_sums(*args)

        monkeypatch.setattr(embeddings, "_column_sums", counted_sums)
        provider = small_embedder()
        events = []
        embed_batch, backprop = provider.embed_batch, provider.backprop

        def spy_embed_batch(sentences):
            before = len(sums)
            matrices = embed_batch(sentences)
            events.append(("embed", [s.uid for s in sentences], len(sums) - before))
            return matrices

        def spy_backprop(sentence, *args):
            events.append(("backprop", sentence.uid))
            return backprop(sentence, *args)

        monkeypatch.setattr(provider, "embed_batch", spy_embed_batch)
        monkeypatch.setattr(provider, "backprop", spy_backprop)
        train = suffix_corpus(14, seed=5)
        assert [item.sentence.uid for item in train.items] == list(range(14))
        cfg = TrainConfig(epochs=3, batch_size=4, train_neighbors=5, test_neighbors=5, seed=2)
        fine_tune(cfg, train, provider=provider)

        # the index build embeds the whole dataset first
        assert events[0] == ("embed", list(range(14)), 1)
        calls = [i for i, event in enumerate(events) if event[0] == "embed"][1:]
        assert len(calls) == cfg.epochs * 4
        repeats = 0
        for at, end in zip(calls, [*calls[1:], len(events)]):
            batch = [event[1] for event in events[at + 1 : end]]
            assert batch == sorted(batch) and 1 <= len(batch) <= cfg.batch_size
            seen = list(dict.fromkeys(nid for sid in batch for nid in neighbor_ids[sid]))
            assert events[at][1] == seen
            repeats += sum(len(neighbor_ids[sid]) for sid in batch) - len(seen)
        # the first batch gathers the rows the index build held; every later
        # one follows an Adam step, so its neighbors are summed again, at once
        assert [events[at][2] for at in calls] == [0] + [1] * (len(calls) - 1)
        assert repeats > 0

    def test_neighbor_rows_equal_a_fresh_embedding(self, monkeypatch):
        # every flat neighbor matrix the loss scores equals the neighbors'
        # rows under the parameters of that moment, embedded by a new
        # provider, in neighbors.ids order; an equivalence, not a byte pin
        provider = small_embedder()
        train = suffix_corpus(14, seed=5)
        checked = []
        grad_wrt_input = trainer.grad_wrt_input

        def compared(posterior, neighbors, labels, neighbor_rows):
            fresh = HashedWindowEmbedder(provider.params.copy()).embed_batch(
                [train.items[nid].sentence for nid in neighbors.ids.tolist()]
            )
            assert neighbor_rows.tobytes() == np.concatenate(fresh).tobytes()
            checked.append(neighbors.ids.tolist())
            return grad_wrt_input(posterior, neighbors, labels, neighbor_rows)

        monkeypatch.setattr(trainer, "grad_wrt_input", compared)
        cfg = TrainConfig(epochs=2, batch_size=4, train_neighbors=5, test_neighbors=5, seed=2)
        fine_tune(cfg, train, provider=provider)
        assert len(checked) == cfg.epochs * len(train.items)
        # a sorted-order concatenation would differ from ids order here
        assert any(ids != sorted(ids) for ids in checked)

    def test_token_columns_built_once_per_forward_pass(self, monkeypatch):
        # backprop reads the window entries the forward pass summed
        calls = {"columns": 0, "forward": 0}
        token_columns, embed_columns = HashedWindowEmbedder.token_columns, trainer._embed_columns

        def counted_columns(*args):
            calls["columns"] += 1
            return token_columns(*args)

        def counted_forward(*args):
            calls["forward"] += 1
            return embed_columns(*args)

        monkeypatch.setattr(HashedWindowEmbedder, "token_columns", counted_columns)
        monkeypatch.setattr(trainer, "_embed_columns", counted_forward)
        train = suffix_corpus(10, seed=3)
        cfg = TrainConfig(epochs=2, batch_size=4, train_neighbors=3, test_neighbors=3)
        fine_tune(cfg, train, dev=suffix_corpus(3, seed=4), provider=small_embedder())
        assert calls["forward"] == cfg.epochs * len(train.items)
        assert calls["columns"] == calls["forward"]

    def test_one_sentence_is_too_small(self):
        with pytest.raises(ValueError, match="at least two sentences"):
            fine_tune(
                TrainConfig(epochs=1, train_neighbors=3),
                suffix_corpus(1, seed=3),
                provider=small_embedder(),
            )

    @pytest.mark.parametrize(
        "refresh, digest",
        [
            (
                "per-batch",
                "d2e87e407ab2bd3fbda54bf7c51fcf94d9a19a0f8153aa31f7b2dfc82ebaf146",
            ),
        ],
    )
    def test_checkpoint_bytes_pinned(self, refresh, digest):
        # Digest of a checkpoint written when every neighbor was embedded
        # afresh before each batch; reusing embeddings must not move it.
        # Training always refreshes per batch, the one `refresh` a
        # checkpoint records.
        cfg = TrainConfig(
            epochs=2,
            batch_size=5,
            train_neighbors=6,
            test_neighbors=6,
            seed=1,
        )
        ck = fine_tune(
            cfg,
            suffix_corpus(24, seed=5),
            dev=suffix_corpus(6, seed=6),
            provider=small_embedder(),
        )
        text = save_checkpoint(ck)
        assert f"refresh={refresh}" in text.splitlines()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest, platform_facts()

    def test_rejects_untrainable_provider(self):
        class Fixed:
            dim = 4
            tag = "fixed"

        with pytest.raises(ValueError, match="trainable"):
            fine_tune(TrainConfig(), suffix_corpus(4, seed=1), provider=Fixed())

    def test_rejects_empty_training_data(self):
        empty = Dataset(items=(), vocab=LabelVocab(()))
        with pytest.raises(ValueError, match="empty"):
            fine_tune(TrainConfig(), empty, provider=small_embedder())

    def test_rejects_empty_dev_data_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("training began before dev was checked")

        monkeypatch.setattr(trainer, "build_index", forbidden)
        monkeypatch.setattr(trainer, "adam_update", forbidden)
        train = suffix_corpus(8, seed=3)
        cfg = TrainConfig(epochs=1, batch_size=4, train_neighbors=3, test_neighbors=3)
        with pytest.raises(ValueError, match="dev has no sentences"):
            fine_tune(cfg, train, dev=Dataset((), train.vocab), provider=small_embedder())

    def test_returned_params_are_a_snapshot(self):
        # later updates to the live provider must not leak into the checkpoint
        train = suffix_corpus(8, seed=3)
        provider = small_embedder()
        cfg = TrainConfig(epochs=1, batch_size=4, train_neighbors=3, test_neighbors=3)
        ck = fine_tune(cfg, train, provider=provider)
        frozen = save_checkpoint(ck)
        set_column(provider.params, 0, np.full(provider.dim, 9.0))
        assert save_checkpoint(ck) == frozen


class TestCheckpointFormat:
    def roundtrip(self):
        train = suffix_corpus(8, seed=9)
        dev = suffix_corpus(3, seed=10)
        cfg = TrainConfig(epochs=2, batch_size=4, train_neighbors=3, test_neighbors=3)
        return fine_tune(cfg, train, dev=dev, provider=small_embedder())

    def test_save_load_identity(self):
        ck = self.roundtrip()
        text = save_checkpoint(ck)
        back = load_checkpoint(text)
        assert back.config == ck.config
        assert back.log == ck.log
        assert sorted(back.params.modified) == sorted(ck.params.modified)
        for col in ck.params.modified:
            np.testing.assert_array_equal(column(back.params, col), column(ck.params, col))
        assert save_checkpoint(back) == text

    def test_unmodified_columns_regenerate_from_seed(self):
        ck = self.roundtrip()
        back = load_checkpoint(save_checkpoint(ck))
        untouched = 0
        while untouched in ck.params.modified:
            untouched += 1
        np.testing.assert_array_equal(
            column(back.params, untouched), column(ck.params, untouched)
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_refused_on_save(self, bad):
        # a value written past set_columns, straight into the storage, would
        # save as "col 5 1.0 nan 1.0", which load refuses; save names the
        # column as set_columns does
        params = EmbedderParams(dim=3, n_buckets=40, seed=4)
        for col in (2, 5, 9):
            set_column(params, col, [1.0, 1.0, 1.0])
        params.storage[params.slots_for([5])[0], 1] = bad
        with pytest.raises(ValueError, match=r"^non-finite values for column 5$"):
            save_checkpoint(Checkpoint(params, TrainConfig(epochs=0), ()))

    def test_load_state_follows_column_lines(self):
        # Each column line counts once in the revision; columns without a
        # line stay seeded. (Column ids must ascend, so a repeated or
        # swapped column is rejected, see test_bad_column_line_names_line.)
        lines = [
            "#copytag-ckpt v1",
            "dim=3",
            "buckets=40",
            "window=1",
            "embed_seed=4",
            "learning_rate=0.002",
            "batch_size=16",
            "epochs=0",
            "train_neighbors=5",
            "test_neighbors=5",
            "seed=0",
            "refresh=per-batch",
            "exclude_self=true",
            "#params 3 40",
            "col 7 0.5 -0.25 1.0",
            "col 12 -1.5 2.0 0.125",
            "col 39 0.1 0.2 0.3",
        ]
        ck = load_checkpoint("\n".join(lines) + "\n")
        params = ck.params
        assert params.revision == 3
        assert params.modified == {7, 12, 39}
        assert ck.provider().tag == "hashed:d3:b40:w1:s4:r3"
        np.testing.assert_array_equal(column(params, 7), [0.5, -0.25, 1.0])
        np.testing.assert_array_equal(column(params, 12), [-1.5, 2.0, 0.125])
        np.testing.assert_array_equal(column(params, 39), [0.1, 0.2, 0.3])
        for col in (0, 8, 38):
            seeded = np.random.default_rng([4, col]).normal(0.0, INIT_STD, 3)
            np.testing.assert_array_equal(column(params, col), seeded)
        assert params.revision == 3

    def test_value_parse_matches_float(self):
        # load_checkpoint reads the column values with floattext's decimal
        # kernel, float() taking the rest; it must read every repr the same
        # as float() does, bit for bit
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64)
        bits[:2000] &= np.uint64(2**63 + 2**52 - 1)  # subnormals of both signs
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        scaled = rng.normal(size=5000) * 10.0 ** rng.integers(-12, 12, 5000)
        specials = [
            -0.0, 0.0, 1e-05, -2.5e-07, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 0.1, 1e16, 123456789012345680.0,
        ]
        texts = [repr(v) for v in [*values.tolist(), *scaled.tolist(), *specials]]
        assert any("e-" in t for t in texts) and "-0.0" in texts
        texts += ["0"] * (-len(texts) % 16)
        n = len(texts) // 16
        sizes = {"dim=3": "dim=16", "buckets=40": f"buckets={n}"}
        lines = [sizes.get(line, line) for line in self.CONFIG_LINES] + [f"#params 16 {n}"]
        lines += [f"col {i} " + " ".join(texts[16 * i : 16 * i + 16]) for i in range(n)]
        params = load_checkpoint("\n".join(lines) + "\n").params
        parsed = params.storage[params.slots_for(range(n))]
        expected = np.array([float(t) for t in texts])
        assert parsed.tobytes() == expected.tobytes()

    CONFIG_LINES = [
        "#copytag-ckpt v1", "dim=3", "buckets=40", "window=1", "embed_seed=4",
        "learning_rate=0.002", "batch_size=16", "epochs=0", "train_neighbors=5",
        "test_neighbors=5", "seed=0", "refresh=per-batch", "exclude_self=true",
    ]

    def _column_text(self, column_line):
        lines = [*self.CONFIG_LINES, "#params 3 40", "col 7 0.5 -0.25 1.0", column_line]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "config_line, message",
        [
            ("dim=abc", "line 2: dim: invalid literal for int()"),
            ("learning_rate=-1", "line 6: learning_rate: learning_rate must be positive"),
            (
                "refresh=per-epoch",
                "line 12: expected 'refresh=per-batch', got 'refresh=per-epoch'",
            ),
            (
                "exclude_self=false",
                "line 13: expected 'exclude_self=true', got 'exclude_self=false'",
            ),
            (
                "+learning_rate=0.5",
                "line 14: expected '#params 3 40', got 'learning_rate=0.5'",
            ),
            (
                "+refresh=per-batch",
                "line 14: expected '#params 3 40', got 'refresh=per-batch'",
            ),
            ("log.x=1", "line 14: expected '#params 3 40', got 'log.x=1'"),
            ("log.1.train_nll=zz", "line 14: log.1.train_nll: could not convert"),
            ("log.1.train_nll=0.5", "missing config key log.1.skipped"),
            ("learning_rte=0.5", "line 14: expected '#params 3 40', got 'learning_rte=0.5'"),
            (
                "log.01.train_nll=0.7",
                "line 14: expected 'log.1.train_nll=0.7', got 'log.01.train_nll=0.7'",
            ),
            (
                "log.0.train_nll=0.5",
                "line 14: expected 'log.1.train_nll=0.5', got 'log.0.train_nll=0.5'",
            ),
            ("log.-2.skipped=3", "line 14: expected '#params 3 40', got 'log.-2.skipped=3'"),
            (
                "learning_rate=2e-3",
                "line 6: expected 'learning_rate=0.002', got 'learning_rate=2e-3'",
            ),
            ("dim=+3", "line 2: expected 'dim=3', got 'dim=+3'"),
            ("batch_size=016", "line 7: expected 'batch_size=16', got 'batch_size=016'"),
            ("seed= 0", "line 11: expected 'seed=0', got 'seed= 0'"),
            ("learning_rate=inf", "line 6: learning_rate: learning_rate must be positive and finite"),
        ],
    )
    def test_bad_config_value_names_line(self, config_line, message):
        # a known key replaces its line; a log line, or one marked "+",
        # goes after the config. Every line must be the one save renders
        # for the values read.
        key = config_line.partition("=")[0]
        lines = [
            config_line if line.partition("=")[0] == key else line
            for line in self.CONFIG_LINES
        ]
        if config_line not in lines:
            lines.append(config_line.lstrip("+"))
        text = "\n".join([*lines, "#params 3 40"]) + "\n"
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(text)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "key, value", [("embed_seed", "4294967296"), ("buckets", "4294967297")]
    )
    def test_out_of_range_embedder_line_names_line(self, key, value):
        # a saved checkpoint with one embedder line set past its 32-bit bound
        lines = save_checkpoint(self.roundtrip()).splitlines()
        number = next(n for n, line in enumerate(lines, 1) if line.startswith(f"{key}="))
        lines[number - 1] = f"{key}={value}"
        with pytest.raises(CheckpointError) as info:
            load_checkpoint("\n".join(lines) + "\n")
        message = {
            "embed_seed": "seed must be in [0, 2**32)",
            "buckets": "n_buckets must be at most 2**32",
        }[key]
        assert str(info.value) == f"line {number}: {key}: {message}"

    @pytest.mark.parametrize(
        "column_line, message",
        [
            ("col 9 0.5 banana 1.0", "banana"),
            ("col 9.5 0.5 0.25 1.0", "9.5"),
            ("col x 0.5 0.25 1.0", "'x'"),
            ("col 9 0.5 nan 1.0", "non-finite"),
            ("col 40 0.5 0.25 1.0", "column 40"),
            ("col 7 0.5 0.25 1.0", "column 7 after 7: ids must ascend"),
            ("col 3 0.5 0.25 1.0", "column 3 after 7: ids must ascend"),
            ("col +9 0.5 0.25 1.0", "column id '\\+9' is not written as 9"),
            ("col 1_0 0.5 0.25 1.0", "column id '1_0' is not written as 10"),
            ("col 09 0.5 0.25 1.0", "column id '09' is not written as 9"),
            ("col 9 0.5  0.25", "''"),
            ("", "unexpected line in parameter section: ''"),
        ],
    )
    def test_bad_column_line_names_line(self, column_line, message):
        with pytest.raises(CheckpointError, match=message) as info:
            load_checkpoint(self._column_text(column_line))
        assert str(info.value).startswith("line 16: ")

    @pytest.mark.parametrize("n_buckets", [40, 2**32])
    def test_out_of_range_column_named_before_a_later_bad_line(self, n_buckets):
        # every column takes its slot after the last line is read, but the
        # range is checked on each line, so line 16 is named, not line 17
        lines = [
            line.replace("buckets=40", f"buckets={n_buckets}")
            for line in self._column_text(f"col {n_buckets} 0.5 0.25 1.0").splitlines()
        ]
        lines[-3] = f"#params 3 {n_buckets}"
        text = "\n".join([*lines, "col 99 0.5 banana 1.0"]) + "\n"
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(text)
        assert str(info.value) == f"line 16: column {n_buckets} outside [0, {n_buckets})"

    def test_header_lines_end_at_newline_only(self):
        # every other break str.splitlines knows stays inside its line, and
        # the line an error names is counted by "\n"
        for brk in ("\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"):
            for number in (12, 13, 14):
                lines = [*self.CONFIG_LINES, "#params 3 40"]
                want = lines[number - 1]
                lines[number - 1] = got = f"{want}{brk}x"
                with pytest.raises(CheckpointError) as info:
                    load_checkpoint("\n".join(lines) + "\n")
                assert str(info.value) == f"line {number}: expected {want!r}, got {got!r}"

    def test_params_inside_a_line_does_not_end_the_header(self):
        # were "seed=0 #params" the last header line, seed would be missing
        lines = [line.replace("seed=0", "seed=0 #params") for line in self.CONFIG_LINES]
        with pytest.raises(CheckpointError) as info:
            load_checkpoint("\n".join([*lines, "#params 3 40"]) + "\n")
        assert str(info.value) == "line 11: seed: invalid literal for int() with base 10: '0 #params'"

    def test_load_seeds_no_column_it_loads(self, monkeypatch):
        # every loaded column takes a slot unseeded: its line gives its values
        ck = self.roundtrip()
        text = save_checkpoint(ck)

        def seeded(params, cols, rows):
            raise AssertionError(f"columns {cols.tolist()} seeded")

        monkeypatch.setattr(EmbedderParams, "_seed_columns", seeded)
        back = load_checkpoint(text)
        monkeypatch.undo()
        assert back.params.modified == ck.params.modified
        for col in sorted(ck.params.modified):
            assert column(back.params, col).tobytes() == column(ck.params, col).tobytes()

    def test_crlf_text_rejected(self):
        # the magic line keeps its "\r"
        text = save_checkpoint(self.roundtrip())
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(text.replace("\n", "\r\n"))
        assert str(info.value) == (
            "line 1: expected checkpoint magic '#copytag-ckpt v1', got '#copytag-ckpt v1\\r'"
        )

    def test_missing_final_newline_rejected(self):
        text = save_checkpoint(self.roundtrip())
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(text[:-1])
        assert str(info.value) == f"line {text.count(chr(10))}: no final newline"

    @pytest.mark.parametrize(
        "epochs, message",
        [
            ((2,), "line 14: expected 'log.1.train_nll=0.5', got 'log.2.train_nll=0.5'"),
            ((1, 3), "line 16: expected 'log.2.train_nll=0.5', got 'log.3.train_nll=0.5'"),
            ((2, 1), "line 14: expected 'log.1.train_nll=0.5', got 'log.2.train_nll=0.5'"),
            ((1, 1), "line 16: expected '#params 3 40', got 'log.1.train_nll=0.5'"),
        ],
    )
    def test_log_epochs_count_from_one(self, epochs, message):
        log = [f"log.{e}.{key}" for e in epochs for key in ("train_nll=0.5", "skipped=0")]
        text = "\n".join([*self.CONFIG_LINES, *log, "#params 3 40"]) + "\n"
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(text)
        assert str(info.value) == message

    def test_bad_magic(self):
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint("#wrong v9\n")

    def test_empty_text(self):
        with pytest.raises(CheckpointError):
            load_checkpoint("")

    def test_missing_params_section(self):
        with pytest.raises(CheckpointError, match="params"):
            load_checkpoint("#copytag-ckpt v1\ndim=4\n")

    def test_bad_config_line(self):
        text = "\n".join([*self.CONFIG_LINES, "not a pair", "#params 3 40"]) + "\n"
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(text)
        assert str(info.value) == "line 14: expected '#params 3 40', got 'not a pair'"

    def test_missing_config_key(self):
        with pytest.raises(CheckpointError, match="missing config key"):
            load_checkpoint("#copytag-ckpt v1\ndim=4\n#params 4 16\n")

    def test_wrong_column_width(self):
        ck = self.roundtrip()
        text = save_checkpoint(ck)
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("col "):
                lines[i] = " ".join(line.split()[:-1])
                break
        with pytest.raises(CheckpointError, match="values"):
            load_checkpoint("\n".join(lines) + "\n")

    def test_unexpected_parameter_line(self):
        ck = self.roundtrip()
        text = save_checkpoint(ck) + "row 3 1.0\n"
        with pytest.raises(CheckpointError, match="unexpected line"):
            load_checkpoint(text)

    @staticmethod
    def wide_text():
        """A dim-128 checkpoint of 2,000 modified columns, 5.1 MiB of text:
        more than one piece of the column reader."""
        params = EmbedderParams(dim=128, n_buckets=1 << 20, seed=1)
        columns = np.arange(2000) * 37
        values = np.random.default_rng(2).normal(0.0, 0.1, (2000, 128))
        params.set_columns(columns, values)
        return save_checkpoint(Checkpoint(params, TrainConfig(epochs=0), ()))

    def test_load_memory_is_below_twice_the_text(self):
        # the column block has one row per column line, and the values are
        # read a piece of text at a time, with no copy of the whole text
        text = self.wide_text()
        tracemalloc.start()
        try:
            load_checkpoint(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text), (peak, len(text))

    @pytest.mark.parametrize("late", [1, 1200, 2000])
    def test_bad_line_named_in_a_later_piece(self, late):
        lines = self.wide_text().split("\n")  # the last one empty
        number = len(lines) - 1 - 2000 + late  # the late-th column line, from 1
        parts = lines[number - 1].split(" ")
        for bad, message in [
            ([*parts[:2], "0.1.2", *parts[3:]], "could not convert string to float: '0.1.2'"),
            (parts[:-1], "column line has 127 values, expected 128"),
        ]:
            lines[number - 1] = " ".join(bad)
            with pytest.raises(CheckpointError) as info:
                load_checkpoint("\n".join(lines))
            assert str(info.value) == f"line {number}: {message}"

    def test_header_mismatch(self):
        ck = self.roundtrip()
        text = save_checkpoint(ck).replace("#params 12 256", "#params 12 999")
        number = text.splitlines().index("#params 12 999") + 1
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(text)
        assert str(info.value) == (
            f"line {number}: expected '#params 12 256', got '#params 12 999'"
        )


class TestCheckpointFuzz:
    """Seeded one- and two-edit mutations of a small saved checkpoint."""

    # the characters of checkpoint text, and the ones a lenient parser
    # would take inside numbers or around lines
    ALPHABET = "0123456789+_e.-= \r\nlogc#x"

    @staticmethod
    def saved_text():
        params = EmbedderParams(dim=3, n_buckets=40, window=1, seed=4)
        values = np.random.default_rng(5).normal(size=(4, 3))
        values[0, 1] = -0.0
        values[1, 2] = 1e-7
        values[2, 0] = 3.0
        for col, row in zip((3, 11, 12, 30), values):
            set_column(params, col, row)
        log = (EpochStats(1, 2.5, 3, 0.75), EpochStats(2, 1.25, 0, None))
        return save_checkpoint(Checkpoint(params, TrainConfig(epochs=2), log))

    def mutate(self, text, rng):
        kind = int(rng.integers(6))
        if kind < 3:  # insert, delete or replace one character
            at = int(rng.integers(len(text)))
            char = self.ALPHABET[int(rng.integers(len(self.ALPHABET)))]
            return text[:at] + ("", char, char)[kind] + text[at + (kind != 1) :]
        # swap, duplicate or drop a line; the piece after the last "\n"
        # counts as a line, so the final newline can move or go
        lines = text.split("\n")
        i, j = (int(v) for v in rng.integers(len(lines), size=2))
        if kind == 3:
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 4:
            lines.insert(i, lines[i])
        else:
            del lines[i]
        return "\n".join(lines)

    def test_mutations_reject_or_resave_alike(self):
        # Load raises CheckpointError and nothing else, or the text is the
        # one save writes, column value text aside: there each value reads,
        # by float(), as the value save writes
        text = self.saved_text()
        assert save_checkpoint(load_checkpoint(text)) == text
        rng = np.random.default_rng(21)
        outcomes = {"rejected": 0, "canonical": 0, "value text": 0}
        for _ in range(500):
            mutated = text
            for _ in range(int(rng.integers(1, 3))):
                mutated = self.mutate(mutated, rng)
            try:
                resaved = save_checkpoint(load_checkpoint(mutated))
            except CheckpointError:
                outcomes["rejected"] += 1
                continue
            if resaved == mutated:
                outcomes["canonical"] += 1
                continue
            outcomes["value text"] += 1
            got, want = mutated.split("\n"), resaved.split("\n")
            assert len(got) == len(want), repr(mutated)
            for line, saved in zip(got, want):
                if line != saved:
                    parts, saved_parts = line.split(" "), saved.split(" ")
                    assert parts[:2] == saved_parts[:2], repr(line)
                    assert [repr(float(v)) for v in parts[2:]] == saved_parts[2:], repr(line)
        # each outcome shows up, so the property is exercised both ways
        assert min(outcomes.values()) > 0, outcomes
