"""CoNLL-style corpus handling.

Parsing and serialization of whitespace-columned token/tag files, label
vocabularies with first-appearance ids, and extraction of typed spans
from BIO tag sequences (with the usual repair of stray I- tags).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

DOCSTART = "-DOCSTART-"


class CorpusError(ValueError):
    """Malformed corpus input: bad column counts, bad BIO tags, and so on."""


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence with a dataset-unique integer id."""

    uid: int
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.uid < 0:
            raise CorpusError(f"sentence id must be non-negative, got {self.uid}")
        if not self.tokens:
            raise CorpusError("a sentence must contain at least one token")
        for tok in self.tokens:
            # str.split() cuts at exactly the characters str.isspace() accepts
            if tok.split() != [tok]:
                raise CorpusError(f"token {tok!r} is empty or contains whitespace")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class LabelVocab:
    """Distinct label-type strings; the tuple position is the type id."""

    types: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.types)) != len(self.types):
            raise CorpusError("label types must be distinct")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.types)}

    def __len__(self) -> int:
        return len(self.types)

    def id_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise CorpusError(f"unknown label type {name!r}") from None

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "LabelVocab":
        """Vocabulary over `labels` with ids in first-appearance order."""
        return cls(tuple(dict.fromkeys(labels)))


@dataclass(frozen=True)
class LabeledSequence:
    """A sentence paired with one label id per token."""

    sentence: Sentence
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.sentence.tokens):
            raise CorpusError(
                f"sentence {self.sentence.uid}: {len(self.sentence.tokens)} tokens "
                f"but {len(self.labels)} labels"
            )
        if any(lab < 0 for lab in self.labels):
            raise CorpusError("label ids must be non-negative")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of labeled sentences sharing one vocabulary.

    Sentence ids are dense: item k has uid k.
    """

    items: tuple[LabeledSequence, ...]
    vocab: LabelVocab

    def __post_init__(self) -> None:
        for pos, item in enumerate(self.items):
            if item.sentence.uid != pos:
                raise CorpusError(
                    f"sentence ids must be dense, expected {pos} "
                    f"got {item.sentence.uid}"
                )
            for lab in item.labels:
                if lab >= len(self.vocab):
                    raise CorpusError(
                        f"sentence {pos}: label id {lab} outside vocabulary "
                        f"of size {len(self.vocab)}"
                    )

    def __len__(self) -> int:
        return len(self.items)

    def label_names(self, item: LabeledSequence) -> tuple[str, ...]:
        return tuple(self.vocab.types[lab] for lab in item.labels)


@dataclass(frozen=True, order=True)
class Span:
    """A typed span over token positions, end-exclusive."""

    start: int
    end: int
    label: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise CorpusError(f"bad span bounds [{self.start}, {self.end})")


def build_dataset(rows: Iterable[tuple[Sequence[str], Sequence[str]]]) -> Dataset:
    """Assemble a Dataset from (tokens, tag strings) pairs.

    The vocabulary is built in first-appearance order over all tags.
    """
    rows = list(rows)
    vocab = LabelVocab.from_labels(tag for _, tags in rows for tag in tags)
    items = []
    for uid, (tokens, tags) in enumerate(rows):
        if len(tokens) != len(tags):
            raise CorpusError(f"row {uid}: {len(tokens)} tokens, {len(tags)} tags")
        sent = Sentence(uid, tuple(tokens))
        items.append(LabeledSequence(sent, tuple(vocab.id_of(t) for t in tags)))
    return Dataset(tuple(items), vocab)


def conll_blocks(text: str) -> Iterator[list[tuple[int, list[str]]]]:
    """The sentences of CoNLL-style text, each as (line number, columns) rows.

    Sentences are separated by blank lines; columns by runs of whitespace.
    Lines whose first column is -DOCSTART- are dropped.
    """
    block: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cols = line.split()
        if not cols:
            if block:
                yield block
                block = []
        elif cols[0] != DOCSTART:
            block.append((lineno, cols))
    if block:
        yield block


def parse_conll(text: str) -> Dataset:
    """Parse CoNLL-style text into a Dataset.

    The first column of a line is the token and the last column the tag;
    columns in between are ignored. Sentences are split as conll_blocks does.
    """
    rows: list[tuple[list[str], list[str]]] = []
    for block in conll_blocks(text):
        for lineno, cols in block:
            if len(cols) < 2:
                raise CorpusError(
                    f"line {lineno}: expected at least 2 columns, found {len(cols)}"
                )
        rows.append(([cols[0] for _, cols in block], [cols[-1] for _, cols in block]))
    if not rows:
        raise CorpusError("no sentences found")
    return build_dataset(rows)


def write_conll(dataset: Dataset) -> str:
    """Serialize a Dataset as "token tag" lines that parse_conll reads back.

    Every sentence (including the last) is followed by a blank line.
    """
    lines: list[str] = []
    for item in dataset.items:
        for tok, name in zip(item.sentence.tokens, dataset.label_names(item)):
            if not name or any(ch.isspace() for ch in name):
                raise CorpusError(f"label {name!r} cannot be serialized")
            lines.append(f"{tok} {name}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def is_bio_label(tag: str) -> bool:
    """Whether `tag` is O, or B- or I- and a type name."""
    return tag == "O" or (len(tag) >= 2 and tag[0] in "BI" and tag[1] == "-")


def spans_from_bio(labels: Sequence[str]) -> tuple[Span, ...]:
    """Extract typed spans from a BIO tag sequence.

    A stray I-X (after O, at the start, or after a different type) opens a
    new span, the same repair conlleval applies before scoring.
    """
    spans: list[Span] = []
    open_start: int | None = None
    open_label = ""

    def close(end: int) -> None:
        nonlocal open_start
        if open_start is not None:
            spans.append(Span(open_start, end, open_label))
            open_start = None

    for i, tag in enumerate(labels):
        if tag == "O":
            close(i)
            continue
        if not is_bio_label(tag):
            raise CorpusError(f"malformed BIO label {tag!r} at position {i}")
        label = tag[2:]
        if tag[0] == "B" or open_start is None or label != open_label:
            close(i)
            open_start = i
            open_label = label
    close(len(labels))
    return tuple(spans)


def relabel(dataset: Dataset, mapping: Mapping[str, str]) -> Dataset:
    """Rename label types through a bijection; ids and items are unchanged."""
    missing = [t for t in dataset.vocab.types if t not in mapping]
    if missing:
        raise CorpusError(f"mapping does not cover label types {missing}")
    renamed = tuple(mapping[t] for t in dataset.vocab.types)
    if len(set(renamed)) != len(renamed):
        raise CorpusError("mapping must be a bijection on label types")
    return Dataset(dataset.items, LabelVocab(renamed))
