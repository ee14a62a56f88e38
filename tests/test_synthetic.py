import pytest

from copytag.corpus import Dataset, build_dataset, write_conll
from copytag.synthetic import (
    CONTEXT_TRIGGER,
    CONTEXT_TYPE,
    SUFFIX_TYPES,
    suffix_corpus,
    toy_ner_corpus,
)

COARSE_VIEW = {
    "O": "O",
    "B-PER": "B-ENT",
    "I-PER": "I-ENT",
    "B-LOC": "B-ENT",
    "B-ORG": "B-ENT",
    "I-ORG": "I-ENT",
}


def coarse_view(dataset: Dataset) -> Dataset:
    """Collapse entity types to a single ENT type, keeping BIO structure.

    The mapping is many-to-one, so this rebuilds the dataset instead of
    renaming in place.
    """
    rows = []
    for item in dataset.items:
        names = dataset.label_names(item)
        rows.append((item.sentence.tokens, tuple(COARSE_VIEW[n] for n in names)))
    return build_dataset(rows)


class TestSuffixCorpus:
    def test_deterministic(self):
        a = suffix_corpus(30, seed=9)
        b = suffix_corpus(30, seed=9)
        assert write_conll(a) == write_conll(b)
        assert write_conll(a) != write_conll(suffix_corpus(30, seed=10))

    def test_labels_follow_suffix_rule(self):
        data = suffix_corpus(60, seed=4)
        for item in data.items:
            names = data.label_names(item)
            prev_trigger = False
            for tok, name in zip(item.sentence.tokens, names):
                suffix = tok[-3:]
                assert suffix in SUFFIX_TYPES
                if suffix == "ing" and prev_trigger:
                    assert name == CONTEXT_TYPE
                else:
                    assert name == SUFFIX_TYPES[suffix]
                prev_trigger = suffix == CONTEXT_TRIGGER

    def test_context_type_occurs(self):
        data = suffix_corpus(200, seed=1)
        assert CONTEXT_TYPE in data.vocab.types

    def test_splits_share_stems(self):
        a = suffix_corpus(40, seed=1)
        b = suffix_corpus(40, seed=2)
        stems_a = {tok[:-3] for item in a.items for tok in item.sentence.tokens}
        stems_b = {tok[:-3] for item in b.items for tok in item.sentence.tokens}
        assert stems_a & stems_b

    def test_length_range_respected(self):
        data = suffix_corpus(50, seed=3, min_len=2, max_len=4)
        for item in data.items:
            assert 2 <= len(item) <= 4

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            suffix_corpus(0, seed=1)
        with pytest.raises(ValueError):
            suffix_corpus(5, seed=1, min_len=6, max_len=4)
        with pytest.raises(ValueError):
            suffix_corpus(5, seed=1, min_len=0)


class TestToyNer:
    def test_deterministic(self):
        assert write_conll(toy_ner_corpus(25, seed=2)) == write_conll(
            toy_ner_corpus(25, seed=2)
        )

    def test_every_surface_string_has_one_role(self):
        data = toy_ner_corpus(300, seed=6)
        roles: dict[str, str] = {}
        for item in data.items:
            for tok, name in zip(item.sentence.tokens, data.label_names(item)):
                assert roles.setdefault(tok, name) == name

    def test_bio_structure_is_well_formed(self):
        data = toy_ner_corpus(100, seed=7)
        for item in data.items:
            prev = "O"
            for name in data.label_names(item):
                if name.startswith("I-"):
                    assert prev in (f"B-{name[2:]}", name)
                prev = name

    def test_all_entity_kinds_reachable(self):
        data = toy_ner_corpus(200, seed=8)
        kinds = {n[2:] for n in data.vocab.types if n != "O"}
        assert kinds == {"PER", "LOC", "ORG"}


class TestCoarseView:
    def test_collapses_entity_kinds(self):
        fine = toy_ner_corpus(50, seed=3)
        coarse = coarse_view(fine)
        assert set(coarse.vocab.types) <= {"O", "B-ENT", "I-ENT"}
        assert len(coarse.items) == len(fine.items)
        for f, c in zip(fine.items, coarse.items):
            assert f.sentence.tokens == c.sentence.tokens
            for fn, cn in zip(fine.label_names(f), coarse.label_names(c)):
                assert (fn == "O") == (cn == "O")
                if fn != "O":
                    assert cn[:2] == fn[:2]
