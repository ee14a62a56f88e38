"""Fine-tuning of the hashed-window embedder.

Each training sentence retrieves neighbors, never itself, from an index
built once with the initial parameters; the loss is the negative log of
the copy posterior mass on gold-typed neighbor tokens. Gradients flow only
into the input sentence's embeddings and reach the weights through the
sparse tanh backward pass. Neighbor embeddings are treated as constants:
before each batch one embed_batch call embeds the batch's neighbors under
the current parameters, which sum only the windows they do not hold and
unhold every row at each step. The call returns one matrix, which the
trainer splits into each neighbor's rows by sentence length, as views; it
keeps no embedding rows past the batch.
Updates use bias-corrected Adam on exactly the columns with nonzero
gradient.

A training step works on arrays aligned with the EmbedderParams storage
slots: a sentence's forward pass sums its window entries, gathered flat
from the parameters, which keep them under the cap that bounds the rows;
its backprop, which reads that embedding and those entries, is one
ColumnGrads block. A batch sums the blocks over their union of columns
in ascending sentence order, and one Adam step updates every touched row
at once, with moments kept in slot-indexed arrays. Per element the float
operations are those of a column-at-a-time update, so parameters and
checkpoints are the same bit for bit.

Checkpoints are line-oriented text: config as key=value pairs, then one
line per modified weight column, its values written as repr writes them
by the numpy kernel in floattext; unmodified columns are regenerated from
the seed at load time. One renderer writes the header for save and for
load to compare against, so load accepts only the text save writes,
column value text aside. Load splits the header at "\n", the only line
end, and reads the column lines with floattext.read_rows, a piece of text
at a time, whose decimal kernel gives each value the bits float() gives
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .copy_model import copy_logits, copy_posterior, grad_wrt_input, nll
from .corpus import Dataset
from .embeddings import (
    ColumnGrads,
    EmbedderParams,
    HashedWindowEmbedder,
    _embed_columns,
)
from .evaluation import token_accuracy
from .floattext import read_rows, row_lines
from .retrieval import assemble_neighbor_set, build_index, query
from .tagging import Tagger, predictions_dataset

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = "#copytag-ckpt v1"


class CheckpointError(ValueError):
    """Unreadable or truncated checkpoint text."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-3
    batch_size: int = 16
    epochs: int = 5
    train_neighbors: int = 50
    test_neighbors: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.train_neighbors < 1 or self.test_neighbors < 1:
            raise ValueError("neighbor counts must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(eq=False)
class AdamState:
    """First/second moments and one step counter for one EmbedderParams.

    Row i of `mean` and `var` belongs to the column at storage slot i of
    those params. The arrays grow with the materialized rows, never to
    n_buckets; a row that never had a nonzero gradient stays all zero,
    which is exactly the moment Adam starts a column from.
    """

    step: int = 0

    def __post_init__(self) -> None:
        self.mean = np.zeros((0, 0))
        self.var = np.zeros((0, 0))

    def _reserve(self, rows: int, dim: int) -> None:
        if rows <= self.mean.shape[0]:
            return
        size = max(rows, 2 * self.mean.shape[0])
        kept = self.mean.shape[0]
        for name in ("mean", "var"):
            grown = np.zeros((size, dim))
            if kept:
                grown[:kept] = getattr(self, name)
            setattr(self, name, grown)


def adam_update(
    params: EmbedderParams,
    grads: ColumnGrads,
    state: AdamState,
    learning_rate: float,
) -> None:
    """One bias-corrected Adam step over the columns with nonzero gradient.

    The step counter advances exactly once per call, also when every
    gradient is zero and nothing moves. A non-finite gradient raises,
    naming its column, before any state changes. All touched rows are
    updated as one block, in place on gathered copies of the moments, so
    at most five arrays of the gradient's size are live at once. Every
    element sees the same float operations in the same order as a
    column-at-a-time update would, so the result is the same bit for bit.
    The live columns' moments and weights are the rows of their storage
    slots, looked up once by column. Parameters and moments are written
    only once the new weights are known to be finite.
    """
    grad = np.asarray(grads.grad, dtype=float)
    finite = np.isfinite(grad).all(axis=1)
    if not finite.all():
        col = int(grads.columns[int(np.argmin(finite))])
        raise ValueError(f"non-finite gradient for column {col}")
    step_count = state.step + 1
    live = grad.any(axis=1)
    if live.any():
        columns = grads.columns
        if not live.all():
            columns, grad = columns[live], grad[live]
        slots = params.slots_for(columns)
        correction1 = 1.0 - ADAM_BETA1**step_count
        correction2 = 1.0 - ADAM_BETA2**step_count
        state._reserve(int(slots.max()) + 1, params.dim)
        # mean = beta1 * mean + (1 - beta1) * grad
        mean = state.mean[slots]
        mean *= ADAM_BETA1
        scaled = (1.0 - ADAM_BETA1) * grad
        mean += scaled
        # var = beta2 * var + (1 - beta2) * grad * grad
        var = state.var[slots]
        var *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, grad, out=scaled)
        scaled *= grad
        var += scaled
        # step = learning_rate * (mean / c1) / (sqrt(var / c2) + eps)
        denom = np.divide(var, correction2, out=scaled)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step = mean / correction1
        step *= learning_rate
        step /= denom
        # the new weights, storage - step, computed in step
        np.subtract(params.storage[slots], step, out=step)
        params.set_columns(columns, step)
        state.mean[slots] = mean
        state.var[slots] = var
    state.step = step_count


def _sum_grads(blocks: list[ColumnGrads], dim: int) -> ColumnGrads:
    """Sum a nonempty list of gradients over their union of columns.

    Each column's sum runs over the blocks in list order, one addition per
    block that has it, so it rounds exactly like adding the blocks' vectors
    one after another. The sum starts from -0.0, which is the exact
    additive identity (0.0 + -0.0 would turn a -0.0 into 0.0).
    """
    columns, inverse = np.unique(np.concatenate([b.columns for b in blocks]), return_inverse=True)
    total = np.full((columns.size, dim), -0.0)
    lo = 0
    for block in blocks:
        rows = inverse[lo : lo + len(block)]
        lo += len(block)
        total[rows] += block.grad
    return ColumnGrads(columns=columns, grad=total)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_nll: float
    skipped_tokens: int
    dev_accuracy: float | None


@dataclass(eq=False)
class Checkpoint:
    """A parameter snapshot with the config and per-epoch training log."""

    params: EmbedderParams
    config: TrainConfig
    log: tuple[EpochStats, ...]

    def provider(self) -> HashedWindowEmbedder:
        return HashedWindowEmbedder(self.params)


def _batches(order: np.ndarray, batch_size: int) -> Iterable[list[int]]:
    for lo in range(0, len(order), batch_size):
        yield [int(i) for i in order[lo : lo + batch_size]]


def _dev_accuracy(provider, train: Dataset, dev: Dataset, config: TrainConfig) -> float:
    tagger = Tagger(provider, train, config.test_neighbors)
    tagged = [tagger.tag(item.sentence) for item in dev.items]
    return token_accuracy(predictions_dataset(tagged), dev)


def fine_tune(
    config: TrainConfig,
    train: Dataset,
    dev: Dataset | None = None,
    provider: HashedWindowEmbedder | None = None,
) -> Checkpoint:
    """Fine-tune the provider's parameters on `train`.

    The retrieval index is built once from the initial parameters, so the
    neighbor lists are fixed for the whole run, and a sentence never
    retrieves itself. Shuffling is seeded, gradients within a batch
    accumulate in ascending sentence order, and one optimizer step is
    applied per batch. With epochs=0 the returned checkpoint holds the
    initial parameters and an empty log.

    Before each batch, one embed_batch call embeds the batch's distinct
    neighbors, in first-seen order over the sorted batch, under the
    current parameters, into one matrix, split by sentence length into
    each neighbor's rows; a sentence's flat neighbor rows are its
    neighbors' rows in `neighbors.ids` order. The first batch's call is a
    gather of the rows the index build left held.
    """
    if provider is None:
        provider = HashedWindowEmbedder()
    if not isinstance(provider, HashedWindowEmbedder):
        raise ValueError(
            "provider is not trainable: fine_tune needs a HashedWindowEmbedder"
        )
    if len(train.vocab) == 0 or not train.items:
        raise ValueError("training data is empty")
    if dev is not None and not dev.items:
        raise ValueError("dev has no sentences")
    params = provider.params

    index = build_index(train, provider)
    neighbor_sets = []
    for sid in range(len(index)):
        ranked = query(index, index.vectors[sid], config.train_neighbors + 1)
        ids = [nid for nid, _ in ranked if nid != sid][: config.train_neighbors]
        if not ids:
            raise ValueError(
                "retrieval found no training neighbors: a sentence never "
                "retrieves itself, so training needs at least two sentences"
            )
        neighbor_sets.append(assemble_neighbor_set(index, ids))

    rng = np.random.default_rng(config.seed)
    state = AdamState()
    log: list[EpochStats] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train.items))
        total_nll = 0.0
        total_skipped = 0
        for batch in _batches(order, config.batch_size):
            batch = sorted(batch)
            # Parameters only move between batches, so one call embeds every
            # neighbor the batch scores under the parameters it steps from.
            neighbor_ids = chain.from_iterable(neighbor_sets[sid].ids.tolist() for sid in batch)
            distinct = list(dict.fromkeys(neighbor_ids))
            sentences = [train.items[nid].sentence for nid in distinct]
            ends = np.cumsum([len(sentence) for sentence in sentences])
            # each neighbor's rows, a view of the batch's one matrix
            matrices = dict(zip(distinct, np.split(provider.embed_batch(sentences), ends[:-1])))
            blocks: list[ColumnGrads] = []
            for sid in batch:
                item = train.items[sid]
                neighbors = neighbor_sets[sid]
                flat = np.concatenate([matrices[nid] for nid in neighbors.ids.tolist()])
                entries = provider.token_columns(item.sentence)
                embeddings = _embed_columns(params, entries)
                posterior = copy_posterior(copy_logits(embeddings, flat))
                report = nll(posterior, neighbors, item.labels)
                total_nll += report.nll
                total_skipped += report.skipped
                d_input = grad_wrt_input(posterior, neighbors, item.labels, flat)
                blocks.append(provider.backprop(item.sentence, entries, d_input, embeddings))
            grads = _sum_grads(blocks, params.dim)
            del blocks  # the step needs only their sum
            adam_update(params, grads, state, config.learning_rate)
        dev_acc = _dev_accuracy(provider, train, dev, config) if dev is not None else None
        log.append(
            EpochStats(
                epoch=epoch,
                train_nll=total_nll / len(train.items),
                skipped_tokens=total_skipped,
                dev_accuracy=dev_acc,
            )
        )
    return Checkpoint(params.copy(), config, tuple(log))


# Config lines: key, the object its value configures, the field there, and
# the parser; save writes str(parse(value)), a float as its shortest repr.
_CONFIG_FIELDS = (
    ("dim", EmbedderParams, "dim", int),
    ("buckets", EmbedderParams, "n_buckets", int),
    ("window", EmbedderParams, "window", int),
    ("embed_seed", EmbedderParams, "seed", int),
    ("learning_rate", TrainConfig, "learning_rate", float),
    ("batch_size", TrainConfig, "batch_size", int),
    ("epochs", TrainConfig, "epochs", int),
    ("train_neighbors", TrainConfig, "train_neighbors", int),
    ("test_neighbors", TrainConfig, "test_neighbors", int),
    ("seed", TrainConfig, "seed", int),
)
# Config lines with one legal value, kept so that checkpoint text stays
# the same: training refreshes neighbor rows per batch and never lets a
# sentence retrieve itself.
_FIXED_LINES = ("refresh=per-batch", "exclude_self=true")
# Lines log.<epoch>.<key>, epoch >= 1: key, the EpochStats field, the
# parser. A None value (dev_accuracy without dev data) gets no line.
_LOG_FIELDS = (
    ("train_nll", "train_nll", float),
    ("skipped", "skipped_tokens", int),
    ("dev_accuracy", "dev_accuracy", float),
)


def _header_lines(checkpoint: Checkpoint) -> list[str]:
    """Every line save_checkpoint writes before the first column line."""
    params = checkpoint.params
    owners = {EmbedderParams: params, TrainConfig: checkpoint.config}
    lines = [CHECKPOINT_MAGIC]
    for key, owner, field, parse in _CONFIG_FIELDS:
        lines.append(f"{key}={parse(getattr(owners[owner], field))}")
    lines.extend(_FIXED_LINES)
    for entry in checkpoint.log:
        for key, field, parse in _LOG_FIELDS:
            value = getattr(entry, field)
            if value is not None:
                lines.append(f"log.{entry.epoch}.{key}={parse(value)}")
    lines.append(f"#params {params.dim} {params.n_buckets}")
    return lines


def save_checkpoint(checkpoint: Checkpoint) -> str:
    """Serialize to the line format load_checkpoint reads back.

    Each modified column is one line "col <id> <values>", ids ascending,
    each value written as repr writes it: its shortest round-trip decimal,
    so a save/load cycle reproduces the parameters bit for bit. The text
    comes from floattext.row_lines, which writes those bytes in numpy a
    chunk of rows at a time. A column whose stored values are not finite
    raises ValueError, naming the column, as set_columns does, since load
    would refuse the text.
    """
    params = checkpoint.params
    columns = sorted(params.modified)
    values = params.storage[params.slots_for(columns)]
    try:
        chunks = row_lines([f"col {col}" for col in columns], values)
    except ValueError:
        finite = np.isfinite(values).all(axis=1)
        if finite.all():
            raise
        raise ValueError(f"non-finite values for column {columns[int(np.argmin(finite))]}") from None
    del values  # the chunks hold the text; the join below copies them once
    return "".join(["\n".join(_header_lines(checkpoint)), "\n", *chunks])


def _column_id(key: str, columns: list[int]) -> int:
    """The column id of a line's key, written as save writes it and above
    the ids before it; else ValueError."""
    col = int(key)
    if key != str(col):
        raise ValueError(f"column id {key!r} is not written as {col}")
    if columns and col <= columns[-1]:
        raise ValueError(f"column {col} after {columns[-1]}: ids must ascend")
    return col


def _line_error(line: str, dim: int, columns: list[int], value_error: ValueError | None) -> str:
    """Why the column line read_rows stopped at is refused: its shape, else
    its column id, else `value_error`, float()'s error for its value."""
    parts = line.split(" ")
    if parts[0] != "col":
        return f"unexpected line in parameter section: {line!r}"
    if len(parts) != dim + 2:
        return f"column line has {len(parts) - 2} values, expected {dim}"
    try:
        _column_id(parts[1], columns)
    except ValueError as exc:
        return str(exc)
    return str(value_error)


def load_checkpoint(text: str) -> Checkpoint:
    """Read save_checkpoint's text back; malformed input raises
    CheckpointError, naming the line where there is one.

    Load accepts only the text save writes, column value text aside: the
    header lines must equal the ones save renders for the values they
    hold, and column ids must be written as save writes them, in
    ascending order. A column value may be any text float() reads as that
    value, so "1e0" loads as the 1.0 that save writes.

    The column lines are read by floattext.read_rows, whose vectorized
    kernel reads a plain decimal as float() does, bit for bit, and hands
    every other value text to float(). The first bad line is named, with
    the first of its faults in the order shape, column id, values, column
    range; a non-finite value is named only once every line has been read.
    """
    if not text:
        raise CheckpointError("empty checkpoint")
    if not text.endswith("\n"):
        raise CheckpointError(f"line {text.count(chr(10)) + 1}: no final newline")
    # only "\n" ends a line; the header ends at the first "#params" line
    magic = text[: text.index("\n")]
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"line 1: expected checkpoint magic {CHECKPOINT_MAGIC!r}, got {magic!r}"
        )
    end = text.find("\n#params")
    if end < 0:
        raise CheckpointError("truncated checkpoint: missing #params section")
    body = text.index("\n", end + 1) + 1
    header = text[: body - 1].split("\n")

    # The first value of each key save writes; any other line differs from
    # the header rendered for those values.
    config_fields = {entry[0]: entry[1:] for entry in _CONFIG_FIELDS}
    log_fields = {entry[0]: entry[1:] for entry in _LOG_FIELDS}
    fields: dict[type, dict[str, object]] = {EmbedderParams: {}, TrainConfig: {}}
    stats: dict[int, dict[str, object]] = {}
    for number, line in enumerate(header[1:-1], start=2):
        key, _, raw = line.partition("=")
        epoch, _, name = key.removeprefix("log.").partition(".")
        try:
            if key in config_fields:
                owner, field, parse = config_fields[key]
                value = parse(raw)
                # built alone, every other field at its valid default, so a
                # value the constructor rejects is named with its line
                owner(**{field: value})
                fields[owner].setdefault(field, value)
            elif key.startswith("log.") and epoch.isdecimal() and name in log_fields:
                field, parse = log_fields[name]
                stats.setdefault(int(epoch), {}).setdefault(field, parse(raw))
        except ValueError as exc:
            raise CheckpointError(f"line {number}: {key}: {exc}") from None
    for key, owner, field, _ in _CONFIG_FIELDS:
        if field not in fields[owner]:
            raise CheckpointError(f"missing config key {key}")
    params = EmbedderParams(**fields[EmbedderParams])
    # numbered 1, 2, ..., so a line of any other epoch differs from its rendering
    log = tuple(
        EpochStats(number, **{f: stats[epoch].get(f) for _, f, _ in _LOG_FIELDS})
        for number, epoch in enumerate(sorted(stats), start=1)
    )
    checkpoint = Checkpoint(params, TrainConfig(**fields[TrainConfig]), log)
    expected = _header_lines(checkpoint)
    for number, (want, got) in enumerate(zip(expected, header), start=1):
        if want != got:
            raise CheckpointError(f"line {number}: expected {want!r}, got {got!r}")
    for entry in log:
        for key, field, _ in _LOG_FIELDS[:2]:  # dev_accuracy is optional
            if getattr(entry, field) is None:
                raise CheckpointError(f"missing config key log.{entry.epoch}.{key}")

    # Each column line fills one row of `block`, which has a row for each
    # line after the header; one set_columns call then writes them all,
    # advancing the revision by one per column.
    block = np.empty((text.count("\n", body), params.dim))
    columns: list[int] = []
    for rows in read_rows(text, params.dim, "col ", body):
        for key in rows.keys:
            try:
                col = _column_id(key, columns)
                if not 0 <= col < params.n_buckets:
                    raise ValueError(f"column {col} outside [0, {params.n_buckets})")
            except ValueError as exc:
                raise CheckpointError(f"line {len(header) + 1 + len(columns)}: {exc}") from None
            columns.append(col)
        block[len(columns) - len(rows.keys) : len(columns)] = rows.values
        if rows.stop is not None:
            line, value_error = rows.stop
            message = _line_error(line, params.dim, columns, value_error)
            raise CheckpointError(f"line {len(header) + 1 + len(columns)}: {message}")
    try:
        params.set_columns(np.array(columns, dtype=np.int64), block)
    except ValueError as exc:  # a non-finite row; nothing was written
        row = int(np.argmin(np.isfinite(block).all(axis=1)))
        raise CheckpointError(f"line {len(header) + 1 + row}: {exc}") from None
    return checkpoint
