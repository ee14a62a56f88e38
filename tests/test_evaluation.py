import numpy as np
import pytest

import copytag.evaluation as evaluation
import copytag.tagging as tagging
from copytag.corpus import CorpusError, Dataset, LabelVocab, build_dataset, relabel
from copytag.embeddings import EmbedderParams, HashedWindowEmbedder
from copytag.evaluation import (
    SWEEP_HEADER,
    SweepRow,
    span_f1,
    sweep_c,
    sweep_csv,
    token_accuracy,
    zero_shot_eval,
)
from copytag.retrieval import build_index
from copytag.synthetic import toy_ner_corpus
from copytag.tagging import DECODE_DP, Tagger, predictions_dataset

from param_columns import set_column

DB_ROWS = [
    (("alice", "smith", "visits", "paris"), ("B-PER", "I-PER", "O", "B-LOC")),
    (("bob", "jones", "visits", "london"), ("B-PER", "I-PER", "O", "B-LOC")),
    (("carol", "king", "left", "madrid"), ("B-PER", "I-PER", "O", "B-LOC")),
    (("tea", "is", "nice"), ("O", "O", "O")),
]

EVAL_ROWS = [
    (("alice", "king", "visits", "madrid"), ("B-PER", "I-PER", "O", "B-LOC")),
    (("tea", "is", "nice"), ("O", "O", "O")),
]


def provider():
    return HashedWindowEmbedder(EmbedderParams(dim=24, n_buckets=512, seed=5))


class TestTokenAccuracy:
    def test_hand_example(self):
        gold = build_dataset([(("a", "b", "c"), ("X", "Y", "X"))])
        pred = build_dataset([(("a", "b", "c"), ("X", "X", "X"))])
        assert token_accuracy(pred, gold) == pytest.approx(2 / 3)

    def test_sentence_count_mismatch(self):
        gold = build_dataset([(("a",), ("X",)), (("b",), ("X",))])
        pred = build_dataset([(("a",), ("X",))])
        with pytest.raises(ValueError, match="sentences"):
            token_accuracy(pred, gold)

    def test_token_count_mismatch(self):
        gold = build_dataset([(("a", "b"), ("X", "X"))])
        pred = build_dataset([(("a",), ("X",))])
        with pytest.raises(ValueError, match="tokens"):
            token_accuracy(pred, gold)

    def test_token_mismatch_named(self):
        gold = build_dataset([(("a", "b"), ("X", "X")), (("c", "d"), ("X", "Y"))])
        pred = build_dataset([(("a", "b"), ("X", "X")), (("c", "e"), ("X", "Y"))])
        with pytest.raises(ValueError, match="sentence 1: token 1"):
            token_accuracy(pred, gold)
        with pytest.raises(ValueError, match="sentence 1: token 1"):
            span_f1(pred, gold)

    def test_empty_refused(self):
        empty = Dataset(items=(), vocab=LabelVocab(()))
        with pytest.raises(ValueError, match="empty"):
            token_accuracy(empty, empty)

    def test_bijection_invariance(self):
        gold = build_dataset([(("a", "b", "c"), ("X", "Y", "X"))])
        pred = build_dataset([(("a", "b", "c"), ("X", "X", "Y"))])
        mapping = {"X": "Q", "Y": "R"}
        assert token_accuracy(pred, gold) == token_accuracy(
            relabel(pred, mapping), relabel(gold, mapping)
        )


class TestSpanF1:
    def test_hand_example(self):
        gold = build_dataset(
            [(("a", "b", "c", "d"), ("B-PER", "I-PER", "O", "B-LOC"))]
        )
        pred = build_dataset(
            [(("a", "b", "c", "d"), ("B-PER", "O", "O", "B-LOC"))]
        )
        # pred spans: PER(0,1), LOC(3,4); gold: PER(0,2), LOC(3,4)
        precision, recall, f1 = span_f1(pred, gold)
        assert precision == pytest.approx(1 / 2)
        assert recall == pytest.approx(1 / 2)
        assert f1 == pytest.approx(1 / 2)

    def test_swap_exchanges_precision_and_recall(self):
        gold = build_dataset(
            [(("a", "b", "c"), ("B-PER", "O", "B-LOC")), (("d",), ("O",))]
        )
        pred = build_dataset(
            [(("a", "b", "c"), ("B-PER", "B-PER", "O")), (("d",), ("B-LOC",))]
        )
        p1, r1, f1 = span_f1(pred, gold)
        p2, r2, f2 = span_f1(gold, pred)
        assert (p1, r1) == (r2, p2)
        assert f1 == f2

    def test_stray_inside_tag_is_repaired(self):
        gold = build_dataset([(("a", "b"), ("O", "B-LOC"))])
        pred = build_dataset([(("a", "b"), ("O", "I-LOC"))])
        precision, recall, f1 = span_f1(pred, gold)
        assert (precision, recall, f1) == (1.0, 1.0, 1.0)

    def test_no_spans_anywhere(self):
        flat = build_dataset([(("a", "b"), ("O", "O"))])
        assert span_f1(flat, flat) == (0.0, 0.0, 0.0)

    def test_rename_invariance(self):
        gold = build_dataset([(("a", "b", "c"), ("B-PER", "I-PER", "O"))])
        pred = build_dataset([(("a", "b", "c"), ("B-PER", "O", "O"))])
        mapping = {"B-PER": "B-GUY", "I-PER": "I-GUY", "O": "O"}
        assert span_f1(pred, gold) == span_f1(
            relabel(pred, mapping), relabel(gold, mapping)
        )

    def test_malformed_label_names_side_and_sentence(self):
        good = build_dataset([(("a",), ("O",)), (("b", "c"), ("B-PER", "I-PER"))])
        bad = build_dataset([(("a",), ("O",)), (("b", "c"), ("B-PER", "ING"))])
        message = "sentence 1: malformed BIO label 'ING' at position 1"
        with pytest.raises(CorpusError, match=f"^prediction {message}$"):
            span_f1(bad, good)
        with pytest.raises(CorpusError, match=f"^gold {message}$"):
            span_f1(good, bad)


class TestSweep:
    def test_grid_validation(self):
        db = build_dataset(DB_ROWS)
        data = build_dataset(EVAL_ROWS)
        for empty in ([], np.array([])):
            with pytest.raises(ValueError, match="non-empty"):
                sweep_c(empty, provider(), db, data, 3)
        with pytest.raises(ValueError, match="ascending"):
            sweep_c([0.5, 0.5], provider(), db, data, 3)
        with pytest.raises(ValueError, match="ascending"):
            sweep_c([1.0, 0.1], provider(), db, data, 3)
        # a bad value is named with its position before anything is embedded
        p = provider()
        embedded = []
        embed = p.embed

        def counted(sentence):
            embedded.append(sentence.uid)
            return embed(sentence)

        p.embed = counted
        for grid, shown in (
            ([0.0, float("nan")], "nan at position 1"),
            ([-1.0, 0.0], "-1.0 at position 0"),
            ([0.0, 0.5, float("inf")], "inf at position 2"),
        ):
            with pytest.raises(ValueError, match=f"c grid value {shown}: segment_cost"):
                sweep_c(grid, p, db, data, 3)
        assert embedded == []

    def test_empty_data_rejected_before_any_work(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            tagging, "build_index", lambda *args: built.append(args)
        )
        with pytest.raises(ValueError, match="data to sweep has no sentences"):
            sweep_c([0.0, 0.5], provider(), build_dataset(DB_ROWS), build_dataset([]), 3)
        assert built == []

    def test_gold_that_is_not_bio_rejected_before_any_work(self, monkeypatch):
        # the gold spans are first read when scoring, after every decode
        def decode(*args):
            raise AssertionError("decoded before the gold labels were checked")

        monkeypatch.setattr(evaluation, "dp_decode_expected", decode)
        data = build_dataset([*EVAL_ROWS, (("stems", "rest"), ("O", "EST"))])
        with pytest.raises(CorpusError, match="sentence 2: malformed BIO label 'EST'"):
            sweep_c([0.0, 0.4], provider(), build_dataset(DB_ROWS), data, 3)

    def test_db_that_is_not_bio_rejected_before_any_work(self, monkeypatch):
        # every prediction copies db labels, so a db type that is not BIO
        # would fail the span scoring after every sentence was decoded
        built = []
        monkeypatch.setattr(tagging, "build_index", lambda *args: built.append(args))
        db = build_dataset([*DB_ROWS, (("ring", "ing"), ("O", "ING"))])
        with pytest.raises(CorpusError, match="^db label type 'ING' is not a BIO label$"):
            sweep_c([0.0, 0.4], provider(), db, build_dataset(EVAL_ROWS), 3)
        assert built == []

    def test_gold_spans_extracted_once_per_sentence(self, monkeypatch):
        # the spans of the up-front BIO check score every grid value; only
        # the predictions are extracted again, once per grid value
        calls = []
        real = evaluation.spans_from_bio

        def counting(labels):
            calls.append(tuple(labels))
            return real(labels)

        monkeypatch.setattr(evaluation, "spans_from_bio", counting)
        data = build_dataset(EVAL_ROWS)
        grid = [0.0, 0.5, 2.0]
        sweep_c(grid, provider(), build_dataset(DB_ROWS), data, 3)
        assert len(calls) == len(data.items) * (1 + len(grid))

    def test_rows_equal_per_cost_dp_tagging(self):
        # the grid shares one set of decode tables per sentence; each row
        # must still be what tagging at that cost alone gives
        p = HashedWindowEmbedder(EmbedderParams(dim=16, n_buckets=256, seed=2))
        db = toy_ner_corpus(30, seed=11)
        data = toy_ner_corpus(8, seed=12)
        grid = [0.0, 0.3, 1.0, 4.0, 1e15]
        rows = sweep_c(grid, p, db, data, 4)
        tagger = Tagger(p, db, 4)
        expected = []
        for c in grid:
            tagged = [
                tagger.tag(item.sentence, decode=DECODE_DP, segment_cost=c)
                for item in data.items
            ]
            pred = predictions_dataset(tagged)
            precision, recall, f1 = span_f1(pred, data)
            expected.append(
                SweepRow(
                    segment_cost=c,
                    precision=precision,
                    recall=recall,
                    f1=f1,
                    token_accuracy=token_accuracy(pred, data),
                    avg_segments=sum(len(t.decode.segments) for t in tagged)
                    / len(tagged),
                )
            )
        assert rows == expected
        assert rows[0] != rows[-1]

    def test_numpy_grid_gives_the_list_rows(self):
        db = build_dataset(DB_ROWS)
        data = build_dataset(EVAL_ROWS)
        for grid in ([0.0], [0.0, 0.5, 2.0]):
            expected = sweep_c(grid, provider(), db, data, 3)
            assert sweep_c(np.array(grid), provider(), db, data, 3) == expected

    def test_rows_follow_grid(self):
        rows = sweep_c(
            [0.0, 0.5, 2.0],
            provider(),
            build_dataset(DB_ROWS),
            build_dataset(EVAL_ROWS),
            3,
        )
        assert [r.segment_cost for r in rows] == [0.0, 0.5, 2.0]

    def test_zero_cost_row_equals_marginal_metrics(self):
        p = provider()
        db = build_dataset(DB_ROWS)
        data = build_dataset(EVAL_ROWS)
        row = sweep_c([0.0, 1.0], p, db, data, 3)[0]
        tagger = Tagger(p, db, 3)
        pred = predictions_dataset([tagger.tag(item.sentence) for item in data.items])
        precision, recall, f1 = span_f1(pred, data)
        assert row.token_accuracy == token_accuracy(pred, data)
        assert (row.precision, row.recall, row.f1) == (precision, recall, f1)

    def test_avg_segments_never_increases_along_grid(self):
        rows = sweep_c(
            [0.0, 0.3, 0.8, 1.5, 3.0],
            provider(),
            build_dataset(DB_ROWS),
            build_dataset(EVAL_ROWS),
            4,
        )
        segs = [r.avg_segments for r in rows]
        assert all(b <= a for a, b in zip(segs, segs[1:]))

    def test_sweep_after_tagger_matches_fresh_provider(self):
        # oracle: a provider built from a copy of the params shares nothing
        # with the Tagger, so its sweep embeds the db afresh
        p = provider()
        db = build_dataset(DB_ROWS)
        data = build_dataset(EVAL_ROWS)
        grid = [0.0, 0.5, 2.0]
        tagger = Tagger(p, db, 3)
        shared = sweep_csv(sweep_c(grid, p, db, data, 3))
        assert build_index(db, p) is tagger.index
        fresh = HashedWindowEmbedder(p.params.copy())
        assert shared == sweep_csv(sweep_c(grid, fresh, db, data, 3))

    def test_sweep_after_revision_moved_uses_no_stale_index(self):
        p = provider()
        db = build_dataset(DB_ROWS)
        data = build_dataset(EVAL_ROWS)
        grid = [0.0, 0.5, 2.0]
        tagger = Tagger(p, db, 3)
        before = sweep_csv(sweep_c(grid, p, db, data, 3))
        rng = np.random.default_rng(9)
        for item in db.items:
            for col in np.concatenate([ids for ids, _ in p.token_columns(item.sentence)])[::2]:
                set_column(p.params, int(col), rng.normal(size=p.dim))
        moved = sweep_csv(sweep_c(grid, p, db, data, 3))
        assert build_index(db, p) is not tagger.index
        fresh = HashedWindowEmbedder(p.params.copy())
        assert moved == sweep_csv(sweep_c(grid, fresh, db, data, 3))
        assert moved != before

    def test_csv_shape(self):
        rows = sweep_c(
            [0.0, 1.0],
            provider(),
            build_dataset(DB_ROWS),
            build_dataset(EVAL_ROWS),
            3,
        )
        text = sweep_csv(rows)
        lines = text.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3
        assert text.endswith("\n")
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            for cell in cells:
                assert len(cell.split(".")[1]) == 4


class TestZeroShot:
    def test_single_type_db_predicts_its_frequency(self):
        db = build_dataset([(("alice", "visits", "paris"), ("X", "X", "X"))])
        gold = build_dataset(
            [(("alice", "visits", "rome"), ("X", "O", "X"))]
        )
        report = zero_shot_eval(provider(), db, gold, n_neighbors=1)
        assert report.token_accuracy == pytest.approx(2 / 3)
        assert report.skipped_tokens == 1

    def test_outputs_come_from_new_db(self):
        db = build_dataset(
            [(("alice", "visits", "paris"), ("NAME", "REL", "PLACE"))]
        )
        gold = build_dataset([(("bob", "visits", "rome"), ("O", "O", "O"))])
        tagger = Tagger(provider(), db, 1)
        for item in gold.items:
            assert set(tagger.tag(item.sentence).label_names) <= {"NAME", "REL", "PLACE"}

    def test_empty_eval_data_rejected_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the db was embedded before eval_data was checked")

        monkeypatch.setattr(tagging, "build_index", forbidden)
        with pytest.raises(ValueError, match="eval_data has no sentences"):
            zero_shot_eval(provider(), build_dataset(DB_ROWS), build_dataset([]), 1)

    def test_empty_db_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            zero_shot_eval(
                provider(),
                Dataset(items=(), vocab=LabelVocab(())),
                build_dataset(EVAL_ROWS),
                1,
            )
