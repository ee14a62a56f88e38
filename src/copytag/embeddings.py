"""Per-token contextual embeddings.

The trainable provider is a hashed-feature window embedder: every token in
a +/-window neighborhood contributes offset-prefixed string features (word
identity, character n-grams, a word-shape code), each feature is hashed
into one of n_buckets weight columns, and the token embedding is the tanh
of the active-column sum. Columns of the weight matrix are generated on
demand from the seed, so only columns an optimizer actually changed need
to be stored in checkpoints.

Featurization costs work per distinct (offset, word type), not per token
occurrence: the parameters hash each pair once and keep its sorted bucket
ids next to their storage slots. A token's ids are the union of its
window's entries; the provider keeps the ids and slots of each distinct
token tuple, so embedding a known sentence is a gather of its slots and a
reduceat over the gathered rows.

A sentence whose gathered rows would outgrow EMBED_BLOCK_BYTES is gathered
and reduced in runs of consecutive tokens that fit it. reduceat sums every
token's rows on their own, with the same row stride either way, so the
bits do not depend on where the runs are cut. The backward pass scatters
each token's gradient row into its columns, one token at a time in token
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .corpus import Sentence

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

INIT_STD = 0.1
NGRAM_SIZES = (2, 3, 4)

DEFAULT_DIM = 128
DEFAULT_BUCKETS = 2**18
DEFAULT_WINDOW = 2

# Gathered rows per reduceat call, in bytes (rows x dim x 8). reduceat
# reads one row per column per step, so a gathered block bigger than the
# L2 cache misses it on nearly every read. 1 MiB (1024 rows at dim 128) is
# half of a 2 MiB L2, leaving room for the storage rows the gather reads.
# Cutting a sentence that already fits costs more than it saves (a toy NER
# sentence of ~560 rows embeds ~20% slower in 512-row runs), so those keep
# the single call; a 40-token suffix sentence (~3.9k rows) is cut into 4.
EMBED_BLOCK_BYTES = 1 << 20


def fnv1a64(text: str, seed: int = 0) -> int:
    """Seeded 64-bit FNV-1a over the UTF-8 bytes of `text`."""
    h = (FNV_OFFSET ^ seed) & _U64
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * FNV_PRIME) & _U64
    return h


def word_shape(token: str) -> str:
    """Collapsed character-class code, e.g. "McDonald" -> "XxXx"."""
    out: list[str] = []
    for ch in token:
        if ch.isupper():
            cls = "X"
        elif ch.islower():
            cls = "x"
        elif ch.isdigit():
            cls = "d"
        else:
            cls = "o"
        if not out or out[-1] != cls:
            out.append(cls)
    return "".join(out)


def _surface_features(token: str) -> list[str]:
    # Features of one surface form, before offset prefixing: lowercased
    # identity, boundary-padded character n-grams, and the shape code.
    low = token.lower()
    feats = [f"w|{low}", f"s|{word_shape(token)}"]
    padded = f"^{low}$"
    for n in NGRAM_SIZES:
        for i in range(len(padded) - n + 1):
            feats.append(f"g|{padded[i:i + n]}")
    return feats


class EmbedderParams:
    """Weights of the hashed-window embedder.

    Conceptually a dim x n_buckets matrix; physically only the columns that
    have ever been read or written are materialized, each generated from
    default_rng([seed, column]) as Gaussian(0, INIT_STD) on first touch.
    `modified` records columns an optimizer overwrote, which is exactly the
    set a checkpoint has to carry.

    Hashing depends only on (offset, token), never on the weights, so each
    distinct pair is hashed once: its sorted bucket ids are cached together
    with their storage slots, whose columns are materialized right then.
    Slots never move once assigned, so the cached slots stay valid.
    """

    def __init__(
        self,
        dim: int = DEFAULT_DIM,
        n_buckets: int = DEFAULT_BUCKETS,
        window: int = DEFAULT_WINDOW,
        seed: int = 0,
    ):
        if dim < 1:
            raise ValueError("dim must be positive")
        if n_buckets < 1:
            raise ValueError("n_buckets must be positive")
        if window < 0:
            raise ValueError("window must be non-negative")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.dim = dim
        self.n_buckets = n_buckets
        self.window = window
        self.seed = seed
        self.modified: set[int] = set()
        self.revision = 0
        self._store = np.zeros((0, dim))
        self._used = 0
        self._slot: dict[int, int] = {}
        # (offset, token) -> (sorted unique bucket ids, their storage slots)
        self._features: dict[tuple[int, str], tuple[np.ndarray, np.ndarray]] = {}

    def _seeded_column(self, col: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, col])
        return rng.normal(0.0, INIT_STD, self.dim)

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._store.shape[0]:
            return
        cap = max(64, 2 * self._store.shape[0], needed)
        grown = np.zeros((cap, self.dim))
        grown[: self._used] = self._store[: self._used]
        self._store = grown

    def _new_slot(self, col: int) -> int:
        # An unfilled storage row for a column not yet materialized.
        if not 0 <= col < self.n_buckets:
            raise ValueError(f"column {col} outside [0, {self.n_buckets})")
        self._ensure_capacity(self._used + 1)
        slot = self._used
        self._slot[col] = slot
        self._used += 1
        return slot

    def _slot_of(self, col: int) -> int:
        slot = self._slot.get(col)
        if slot is None:
            slot = self._new_slot(col)
            self._store[slot] = self._seeded_column(col)
        return slot

    def slots_for(self, cols: Iterable[int]) -> np.ndarray:
        """Storage rows for the given columns, materializing as needed."""
        slot_of = self._slot_of
        return np.fromiter((slot_of(int(c)) for c in cols), dtype=np.int64)

    def _offset_features(self, offset: int, token: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted unique bucket ids of `token` seen at `offset` from the
        embedded position, and their storage slots (both read-only)."""
        entry = self._features.get((offset, token))
        if entry is None:
            ids = np.unique(
                np.array(
                    [
                        fnv1a64(f"{offset}|{feat}", self.seed) % self.n_buckets
                        for feat in _surface_features(token)
                    ],
                    dtype=np.int64,
                )
            )
            slots = self.slots_for(ids)
            ids.setflags(write=False)
            slots.setflags(write=False)
            entry = self._features[(offset, token)] = (ids, slots)
        return entry

    def set_columns(
        self, columns: np.ndarray, slots: np.ndarray, values: np.ndarray
    ) -> None:
        """Overwrite the materialized rows `slots` of `columns` at once.

        The one writer of weights: `modified` gains the columns and
        `revision` advances by their count. A non-finite value raises,
        naming the first such column, before anything is written. `slots`
        must be this object's slots of `columns`, which are unique.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (len(columns), self.dim):
            raise ValueError(
                f"column values must have shape ({len(columns)}, {self.dim})"
            )
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            col = int(columns[int(np.argmin(finite))])
            raise ValueError(f"non-finite values for column {col}")
        self._store[slots] = values
        self.modified.update(columns.tolist())
        self.revision += len(columns)

    @property
    def storage(self) -> np.ndarray:
        """Raw materialized rows; index with slots_for results."""
        return self._store

    def copy(self) -> "EmbedderParams":
        dup = EmbedderParams(self.dim, self.n_buckets, self.window, self.seed)
        dup._store = self._store[: self._used].copy()
        dup._used = self._used
        dup._slot = dict(self._slot)
        # the slots cached so far are the copy's too; later entries are not
        dup._features = dict(self._features)
        dup.modified = set(self.modified)
        dup.revision = self.revision
        return dup


@dataclass(frozen=True, eq=False)
class TokenColumns:
    """Active bucket ids of every token of one sentence, flattened.

    Token t owns columns[starts[t] : starts[t] + counts[t]], sorted
    ascending; that order fixes the summation order, so every path that
    embeds a sentence agrees bit for bit. slots[i] is the storage row of
    columns[i] in the EmbedderParams that featurized the sentence.
    """

    columns: np.ndarray
    slots: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        # a provider hands the same cached object to every caller
        for array in (self.columns, self.slots, self.starts, self.counts):
            array.setflags(write=False)


def _token_columns(params: EmbedderParams, sentence: Sentence) -> TokenColumns:
    # A token's ids are the union of the (offset, token) entries of its
    # window; one lexsort by (token, id) orders and dedupes all of them.
    tokens = sentence.tokens
    n = len(tokens)
    ids: list[np.ndarray] = []
    slots: list[np.ndarray] = []
    sizes: list[int] = []
    for t in range(n):
        size = 0
        for j in range(max(0, t - params.window), min(n, t + params.window + 1)):
            entry_ids, entry_slots = params._offset_features(j - t, tokens[j])
            ids.append(entry_ids)
            slots.append(entry_slots)
            size += entry_ids.size
        sizes.append(size)
    owner = np.repeat(np.arange(n), sizes)
    flat_ids = np.concatenate(ids)
    order = np.lexsort((flat_ids, owner))
    owner = owner[order]
    flat_ids = flat_ids[order]
    keep = np.ones(flat_ids.size, dtype=bool)
    keep[1:] = (flat_ids[1:] != flat_ids[:-1]) | (owner[1:] != owner[:-1])
    counts = np.bincount(owner[keep], minlength=n)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return TokenColumns(
        columns=flat_ids[keep],
        slots=np.concatenate(slots)[order[keep]],
        starts=starts,
        counts=counts,
    )


def _column_sums(
    storage: np.ndarray, slots: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """np.add.reduceat(storage[slots], starts, axis=0), bit for bit, gathering
    at most EMBED_BLOCK_BYTES of rows at a time.

    Token t owns slots[starts[t] : starts[t + 1]] (the last one runs to the
    end) and owns at least one. A run of consecutive tokens is cut where
    its rows would exceed the budget; a token over the budget on its own
    makes a run of one.
    """
    row_bytes = storage.shape[1] * storage.itemsize
    if slots.size * row_bytes <= EMBED_BLOCK_BYTES:
        return np.add.reduceat(storage[slots], starts, axis=0)
    budget = EMBED_BLOCK_BYTES // row_bytes
    bounds = np.append(starts, slots.size)
    out = np.empty((starts.size, storage.shape[1]))
    lo = 0
    while lo < starts.size:
        a = bounds[lo]
        hi = max(lo + 1, int(np.searchsorted(bounds, a + budget, side="right")) - 1)
        b = bounds[hi]
        out[lo:hi] = np.add.reduceat(storage[slots[a:b]], starts[lo:hi] - a, axis=0)
        lo = hi
    return out


def _embed_columns(params: EmbedderParams, columns: TokenColumns) -> np.ndarray:
    return np.tanh(_column_sums(params.storage, columns.slots, columns.starts))


def embed_sentence(token_matrix: np.ndarray) -> np.ndarray:
    """Mean-pool token rows into one sentence vector."""
    matrix = np.asarray(token_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("token matrix must be 2-d with at least one row")
    return matrix.mean(axis=0)


@dataclass(frozen=True, eq=False)
class ColumnGrads:
    """A sparse loss gradient over weight columns.

    grad[i] is the gradient of columns[i]; columns are sorted and unique,
    and slots[i] is the storage row of columns[i] in the EmbedderParams
    the gradient was taken for. Columns absent here have zero gradient.
    """

    columns: np.ndarray
    slots: np.ndarray
    grad: np.ndarray

    def __len__(self) -> int:
        return self.columns.size


class HashedWindowEmbedder:
    """Trainable embedding provider over EmbedderParams.

    Caches the TokenColumns of each distinct token tuple: the sorted bucket
    ids of every token and their storage slots. Both stay valid across
    parameter updates, because hashing does not depend on the weights and
    slots never move, so embedding a cached sentence is a gather of its
    slots and a reduceat, in cache-sized runs of tokens for long sentences.
    """

    def __init__(self, params: EmbedderParams | None = None, **kwargs):
        self.params = params if params is not None else EmbedderParams(**kwargs)
        self._column_cache: dict[tuple[str, ...], TokenColumns] = {}

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def tag(self) -> str:
        p = self.params
        return f"hashed:d{p.dim}:b{p.n_buckets}:w{p.window}:s{p.seed}:r{p.revision}"

    def token_columns(self, sentence: Sentence) -> TokenColumns:
        cached = self._column_cache.get(sentence.tokens)
        if cached is None:
            cached = self._column_cache[sentence.tokens] = _token_columns(
                self.params, sentence
            )
        return cached

    def embed(self, sentence: Sentence) -> np.ndarray:
        return _embed_columns(self.params, self.token_columns(sentence))

    def backprop(
        self, sentence: Sentence, d_output: np.ndarray, embeddings: np.ndarray
    ) -> ColumnGrads:
        """Columnwise loss gradient given d(loss)/d(token embeddings).

        `embeddings` is the sentence's forward pass, embed(sentence) under
        the current parameters (x below). Each active bucket of token t
        receives d_output[t] * (1 - x_t^2), the tanh backward pass. A
        column's gradient adds these from 0.0 in token order, one token at
        a time; a token's columns are unique, so each token's scatter is
        exact. Inactive buckets are absent from the result and therefore
        exactly zero.
        """
        d_output = np.asarray(d_output, dtype=float)
        if d_output.shape != (len(sentence), self.dim):
            raise ValueError(
                f"d_output must have shape ({len(sentence)}, {self.dim}), "
                f"got {d_output.shape}"
            )
        if not np.all(np.isfinite(d_output)):
            raise ValueError("d_output contains non-finite entries")
        columns = self.token_columns(sentence)
        per_token = d_output * (1.0 - embeddings * embeddings)
        uniq, first, inverse = np.unique(
            columns.columns, return_index=True, return_inverse=True
        )
        grad = np.zeros((uniq.size, self.dim))
        bounds = zip(columns.starts.tolist(), columns.counts.tolist())
        for row, (lo, count) in zip(per_token, bounds):
            grad[inverse[lo : lo + count]] += row
        return ColumnGrads(columns=uniq, slots=columns.slots[first], grad=grad)

