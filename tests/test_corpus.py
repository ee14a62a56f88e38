import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copytag.corpus import (
    CorpusError,
    Dataset,
    LabeledSequence,
    LabelVocab,
    Sentence,
    Span,
    build_dataset,
    parse_conll,
    relabel,
    spans_from_bio,
    write_conll,
)

token_st = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Cc", "Cs")),
    min_size=1,
    max_size=8,
)
label_st = st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "NOUN", "VERB"])
sentence_rows_st = st.lists(
    st.lists(st.tuples(token_st, label_st), min_size=1, max_size=6).map(
        lambda pairs: tuple(zip(*pairs))
    ),
    min_size=1,
    max_size=8,
)


def bio_from_spans(spans, length: int) -> tuple[str, ...]:
    """Render spans as a BIO tag sequence of the given length.

    Spans must lie within bounds and must not overlap; uncovered positions
    become O.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    ordered = sorted(spans)
    prev_end = 0
    for span in ordered:
        if span.end > length:
            raise CorpusError(f"span {span} exceeds sequence length {length}")
        if span.start < prev_end:
            raise CorpusError(f"span {span} overlaps a previous span")
        prev_end = span.end
    tags = ["O"] * length
    for span in ordered:
        tags[span.start] = f"B-{span.label}"
        for i in range(span.start + 1, span.end):
            tags[i] = f"I-{span.label}"
    return tuple(tags)


class TestSentence:
    def test_rejects_empty(self):
        with pytest.raises(CorpusError):
            Sentence(0, ())

    def test_rejects_whitespace_token(self):
        with pytest.raises(CorpusError):
            Sentence(0, ("ok", "not ok"))

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u001c", " ", "\t"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_every_kind_of_space(self, space, at):
        # no-break, em and file-separator spaces too, at either end or inside
        tok = "ab"[:at] + space + "ab"[at:]
        with pytest.raises(CorpusError, match="is empty or contains whitespace") as raised:
            Sentence(0, ("ok", tok))
        assert str(raised.value) == f"token {tok!r} is empty or contains whitespace"

    def test_rejects_empty_token(self):
        with pytest.raises(CorpusError, match=r"token '' is empty or contains whitespace"):
            Sentence(0, ("ok", ""))

    def test_split_cuts_at_exactly_isspace(self):
        # the token check's premise, over every code point
        chars = map(chr, range(sys.maxunicode + 1))
        assert [ch for ch in chars if (ch.split() != [ch]) != ch.isspace()] == []

    def test_len(self):
        assert len(Sentence(0, ("a", "b"))) == 2


class TestLabelVocab:
    def test_first_appearance_order(self):
        vocab = LabelVocab.from_labels(["B", "A", "B", "C", "A"])
        assert vocab.types == ("B", "A", "C")
        assert vocab.id_of("C") == 2

    def test_unknown_label(self):
        vocab = LabelVocab(("X",))
        with pytest.raises(CorpusError):
            vocab.id_of("Y")

    def test_duplicate_types_rejected(self):
        with pytest.raises(CorpusError):
            LabelVocab(("A", "A"))


class TestBuildDataset:
    def test_round_numbers(self):
        ds = build_dataset([(("a", "b"), ("X", "Y")), (("c",), ("X",))])
        assert len(ds.items) == 2
        assert ds.items[0].sentence.uid == 0
        assert ds.items[1].sentence.uid == 1
        assert ds.vocab.types == ("X", "Y")
        assert ds.label_names(ds.items[0]) == ("X", "Y")

    def test_length_mismatch(self):
        with pytest.raises(CorpusError):
            build_dataset([(("a", "b"), ("X",))])


class TestConll:
    def test_parse_basic(self):
        text = "a X\nb Y\n\nc X\n"
        ds = parse_conll(text)
        assert len(ds.items) == 2
        assert ds.items[0].sentence.tokens == ("a", "b")
        assert ds.label_names(ds.items[1]) == ("X",)

    def test_docstart_dropped(self):
        text = "-DOCSTART- O\n\na X\n"
        ds = parse_conll(text)
        assert len(ds.items) == 1
        assert ds.items[0].sentence.tokens == ("a",)

    def test_column_selection(self):
        text = "a feat1 X\nb feat2 Y\n"
        ds = parse_conll(text)
        assert ds.label_names(ds.items[0]) == ("X", "Y")

    def test_missing_column_raises_with_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_conll("a X\nb\n")

    def test_empty_input(self):
        with pytest.raises(CorpusError):
            parse_conll("\n\n")

    def test_write_pads_and_terminates(self):
        ds = build_dataset([(("a",), ("X",))])
        out = write_conll(ds)
        assert out == "a X\n\n"

    def test_write_rejects_whitespace_label(self):
        ds = build_dataset([(("a",), ("X Y",))])
        with pytest.raises(CorpusError):
            write_conll(ds)

    @settings(max_examples=60, deadline=None)
    @given(sentence_rows_st)
    def test_round_trip(self, rows):
        ds = build_dataset(rows)
        back = parse_conll(write_conll(ds))
        assert len(back.items) == len(ds.items)
        for a, b in zip(ds.items, back.items):
            assert a.sentence.tokens == b.sentence.tokens
            assert ds.label_names(a) == back.label_names(b)


class TestSpans:
    def test_simple_extraction(self):
        labels = ("B-PER", "I-PER", "O", "B-LOC")
        assert spans_from_bio(labels) == (
            Span(0, 2, "PER"),
            Span(3, 4, "LOC"),
        )

    def test_stray_inside_repaired(self):
        # conlleval treats a dangling I-X as opening a new span
        assert spans_from_bio(("O", "I-LOC", "I-LOC")) == (Span(1, 3, "LOC"),)

    def test_type_change_inside(self):
        assert spans_from_bio(("B-PER", "I-LOC")) == (
            Span(0, 1, "PER"),
            Span(1, 2, "LOC"),
        )

    def test_adjacent_b_tags(self):
        assert spans_from_bio(("B-PER", "B-PER")) == (
            Span(0, 1, "PER"),
            Span(1, 2, "PER"),
        )

    def test_round_trip_through_tags(self):
        spans = (Span(0, 2, "PER"), Span(2, 3, "LOC"))
        labels = bio_from_spans(spans, 4)
        assert labels == ("B-PER", "I-PER", "B-LOC", "O")
        assert spans_from_bio(labels) == spans

    def test_bio_from_spans_rejects_overlap(self):
        with pytest.raises(CorpusError):
            bio_from_spans((Span(0, 2, "A"), Span(1, 3, "B")), 4)

    def test_bio_from_spans_rejects_out_of_bounds(self):
        with pytest.raises(CorpusError):
            bio_from_spans((Span(0, 5, "A"),), 3)


class TestRelabel:
    def test_bijection_keeps_ids(self):
        ds = build_dataset([(("a", "b"), ("X", "Y"))])
        out = relabel(ds, {"X": "P", "Y": "Q"})
        assert out.vocab.types == ("P", "Q")
        assert out.items[0].labels == ds.items[0].labels

    def test_partial_mapping_rejected(self):
        ds = build_dataset([(("a",), ("X",))])
        with pytest.raises(CorpusError):
            relabel(ds, {})

    def test_non_injective_rejected(self):
        ds = build_dataset([(("a", "b"), ("X", "Y"))])
        with pytest.raises(CorpusError):
            relabel(ds, {"X": "Z", "Y": "Z"})
