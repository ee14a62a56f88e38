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
ids next to their storage slots. The pairs that new windows bring are
featurized in one batch. Each new word type's features are laid out once,
as runs of the UTF-8 bytes of the padded lowercase type and of its shape
code, and FNV-1a in uint64 numpy arithmetic continues over every run from
the state after "{offset}|{kind}|", so no feature text is built. New
columns are seeded bit for bit as default_rng([seed, column]) would: only
the SeedSequence mixing is batched, in uint32 numpy arithmetic; each
column then takes one PCG64 state set and one standard_normal draw, and
the block is scaled once. That mixing takes the seed and every bucket id
as one 32-bit word each: the seed is below 2**32 and n_buckets at most
2**32.

A token's ids are the union of its window's entries, so its ids, its
slots and its row depend only on its window: its place in the window and
the window's tokens, clipped at the sentence's ends. Each window read
gets one number, naming its entry, kept flat as the feature entries are,
and its row, held from its first embedding until set_columns. One cap
bounds both: a call whose windows would take the count past
MAX_HELD_ROWS while others are numbered drops every window's entry and
row first, and the feature entries if they number more than
MAX_HELD_ROWS keys; all are rebuilt, to the same bits, when next read.
A training sentence's forward pass sums its window entries afresh.

The sums equal np.add.reduceat(storage[slots], starts, axis=0) bit for
bit, numpy's pairwise summation order included, but add whole contiguous
rows where reduceat walks down each column with a row-sized stride. All
tokens take each step of that order at once, in a gather order that
makes each step one add into a prefix of the rows, worked out for each
run of whole tokens and used right away. Runs cut long sentences and
batches; their cuts do not change the bits.
The backward pass scatters each token's gradient row into the columns of
its window entry, one token at a time in token order.
"""

from __future__ import annotations

from bisect import bisect_right
from copy import deepcopy
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Sequence

import numpy as np

from .corpus import Sentence

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

INIT_STD = 0.1
NGRAM_SIZES = (2, 3, 4)
# feature kinds, spelled before the "|" of a feature text
_KINDS = ("w", "s", "g")

DEFAULT_DIM = 128
DEFAULT_BUCKETS = 2**18
DEFAULT_WINDOW = 2

# Rows per run of tokens that _column_sums adds at once (4 MiB at dim
# 128); a run's temporaries are about 10 rows a token, for its lanes,
# sums and first rows, plus one chunk. Per-run numpy calls dominate short
# runs: in 1024-row runs a 40-token suffix sentence (~4k rows) sums about
# 1.6x slower than in one, and from 4096 to 8192 rows the time is flat.
EMBED_RUN_ROWS = 4096
# Rows gathered at once, whole group steps: with the lanes they add into,
# 512 rows stay in a 2 MiB L2. Gathering a run at once made the lane adds
# of 40-token suffix sentences ~40% slower; a gather per step made 8-token
# NER sentences, a few hundred rows, ~20% slower.
EMBED_CHUNK_ROWS = 512
# Windows numbered at once, each with an entry and a row (64 MiB of rows at
# dim 128), unless one call reads more; queries never move weights
MAX_HELD_ROWS = 2**16
# numpy's PW_BLOCKSIZE: pairwise_sum splits a longer run of rows in two
_PAIRWISE_BLOCK = 128

# A token's window: its place in the window and the window's tokens
Window = tuple[int, tuple[str, ...]]
# Window entries one after another: ids, their slots and where each starts
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
_SS_SHIFT = np.uint32(16)
_SS_POOL = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def fnv1a64_keys(keys: Sequence[tuple[int, str]], seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The seeded 64-bit FNV-1a hash of f"{offset}|{feat}", as uint64, for
    every surface feature feat of every (offset, token) key, key after key,
    each key's features in the order _feature_bytes lists them; and the
    feature count of each key.

    Each distinct token's features are laid out once, as runs of bytes,
    by _feature_bytes. FNV-1a reads bytes in order, so every hash
    continues from the state after f"{offset}|{kind}|", worked out once
    per offset and kind, over its run. The (key, feature) lanes are sorted
    by run length, longest first, so byte step k updates only a prefix of
    them, reading byte k of each run. Memory is linear in the bytes
    hashed. uint64 arithmetic wraps mod 2**64, as FNV-1a's does.
    """
    index = {token: i for i, token in enumerate(dict.fromkeys(token for _, token in keys))}
    per_token, kind, start, length, data = _feature_bytes(list(index))
    token_of = np.fromiter((index[token] for _, token in keys), dtype=np.int64, count=len(keys))
    sizes = per_token[token_of]
    # lane i hashes feature lane_feat[i] of its key's token
    lane_feat = _runs((np.cumsum(per_token) - per_token)[token_of], sizes)
    offsets = [offset for offset, _ in keys]
    where = {offset: i for i, offset in enumerate(dict.fromkeys(offsets))}
    base = (FNV_OFFSET ^ seed) & _MASK64
    prefix = np.array(
        [[_fnv1a64_from(base, f"{offset}|{name}|".encode("utf-8")) for name in _KINDS] for offset in where],
        dtype=np.uint64,
    ).reshape(-1, len(_KINDS))
    offset_of = np.fromiter(map(where.__getitem__, offsets), dtype=np.int64, count=len(keys))
    lane_offset = np.repeat(offset_of, sizes)
    lengths = length[lane_feat]
    order = np.argsort(-lengths)
    h = prefix[lane_offset[order], kind[lane_feat[order]]]
    starts = start[lane_feat[order]]
    width = int(lengths.max()) if lengths.size else 0
    # live[k]: how many lanes read a run longer than k
    live = np.searchsorted(-lengths[order], -np.arange(width), side="left")
    prime = np.uint64(FNV_PRIME)
    for k, m in enumerate(live.tolist()):
        head = h[:m]
        head ^= data[starts[:m] + k]
        head *= prime
    out = np.empty_like(h)
    out[order] = h
    return out, sizes


def _feature_bytes(tokens: list[str]):
    """The surface features of every token, as (count per token, kind,
    start, length, data): feature i of the flat list, token after token,
    is _KINDS[kind[i]] + "|" followed by the length[i] bytes of data from
    start[i].

    A token's features are its lowercased identity ("w"), its word_shape
    code ("s"), then the character n-grams of the lowercased token padded
    as "^low$" ("g"), for each size of NGRAM_SIZES in turn, left to right.
    The data is the UTF-8 of every padded token, then of every shape code,
    so each feature is a run of it: a run of characters, each starting at
    a byte that is not a UTF-8 continuation byte.
    """
    lows = [token.lower() for token in tokens]
    shapes = [word_shape(token) for token in tokens]
    data = np.frombuffer("".join([f"^{low}$" for low in lows] + shapes).encode("utf-8"), dtype=np.uint8)
    # the byte offset of every character, and of the end
    byte_at = np.append(np.flatnonzero(data & 0xC0 != 0x80), data.size)
    padded = np.fromiter(map(len, lows), dtype=np.int64, count=len(lows)) + 2
    shaped = np.fromiter(map(len, shapes), dtype=np.int64, count=len(shapes))
    first = np.cumsum(padded) - padded
    # a token's features come in runs, one per column: the identity, the
    # shape, then each size's n-grams; feature j of a run starts at
    # character lo + j and spans `width` characters
    grams = np.array(NGRAM_SIZES)
    counts = np.ones((len(tokens), 2 + grams.size), dtype=np.int64)
    counts[:, 2:] = np.maximum(padded[:, np.newaxis] - grams + 1, 0)
    lo = np.repeat(first[:, np.newaxis], counts.shape[1], axis=1)
    lo[:, 0] += 1
    lo[:, 1] = int(padded.sum()) + np.cumsum(shaped) - shaped
    width = np.empty_like(lo)
    width[:, 0], width[:, 1], width[:, 2:] = padded - 2, shaped, grams
    kinds = np.array([_KINDS.index("w"), _KINDS.index("s")] + [_KINDS.index("g")] * grams.size)
    run = np.repeat(np.arange(counts.size), counts.ravel())
    chars = lo.ravel()[run] + _runs(np.zeros(counts.size, dtype=np.int64), counts.ravel())
    start = byte_at[chars]
    length = byte_at[chars + width.ravel()[run]] - start
    return counts.sum(axis=1), kinds[run % counts.shape[1]], start, length, data


def _fnv1a64_from(state: int, data: bytes) -> int:
    # FNV-1a over `data`, continued from `state`
    for byte in data:
        state = (state ^ byte) * FNV_PRIME & _MASK64
    return state


def _hash_chain(init: int, mult: int, calls: int) -> np.ndarray:
    # The values SeedSequence's hash constant takes over `calls` hashmix
    # calls, as a (calls + 1, 1) uint32 column: call i xors with value i,
    # then multiplies by value i + 1.
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, np.newaxis]


def _hashmix(values: np.ndarray, chain: np.ndarray) -> np.ndarray:
    # SeedSequence's hashmix, one call per row of the result: call r xors
    # with chain[r] and multiplies by chain[r + 1]. `values` has a row per
    # call, or one row that every call reads.
    value = (values ^ chain[:-1]) * chain[1:]
    return value ^ (value >> _SS_SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _SS_MIX_L * x - _SS_MIX_R * y
    return result ^ (result >> _SS_SHIFT)


def _pcg64_seeds(seed: int, cols: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, col]).generate_state(4, np.uint64) for every
    column, one row each, in uint32 numpy arithmetic.

    The seed and every column are below 2**32, so each is one entropy
    word, and every row's pool starts as (seed, col, 0, 0): SeedSequence
    fills the two words past its entropy with 0. The hashmix calls that
    read one pool word and update the three others are made at once, as
    are the eight output words.
    """
    entropy = np.zeros((_SS_POOL, cols.size), dtype=np.uint32)
    entropy[0] = seed
    entropy[1] = cols
    others = _SS_POOL - 1
    # calls: one per pool word, then `others` per pool word mixed into the rest
    chain = _hash_chain(_SS_INIT_A, _SS_MULT_A, _SS_POOL * _SS_POOL)
    pool = _hashmix(entropy, chain[: _SS_POOL + 1])
    call = _SS_POOL
    for src in range(_SS_POOL):
        dst = [d for d in range(_SS_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain[call : call + others + 1]))
        call += others
    out_chain = _hash_chain(_SS_INIT_B, _SS_MULT_B, 2 * _SS_POOL)
    out = _hashmix(np.concatenate([pool, pool]), out_chain).astype(np.uint64)
    # each uint64 is two uint32 words, low word first
    return (out[0::2] | (out[1::2] << np.uint64(32))).T


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


def _grown(buffer: np.ndarray, used: int, needed: int, floor: int = 0, most: float = np.inf) -> np.ndarray:
    """`buffer` if it has `needed` rows, else a zeroed one holding its
    first `used` rows, of max(floor, its rows) rows, or of `needed` if
    that is 0, doubled until `needed` fit, but of at most max(most, needed)."""
    if needed <= buffer.shape[0]:
        return buffer
    cap = max(floor, buffer.shape[0]) or needed
    while cap < needed:
        cap *= 2
    cap = min(cap, max(most, needed))
    grown = np.zeros((cap, *buffer.shape[1:]), dtype=buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


class _FlatEntries:
    """Entries numbered from 0, kept flat: entry n is the sorted unique
    ids[bounds[n] : bounds[n + 1]], their slots at the same places of slots."""

    def __init__(self):
        self.ids, self.slots = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        self.bounds, self.count = np.zeros(1, dtype=np.int64), 0

    def extend(self, owner: np.ndarray, ids: np.ndarray, slots: np.ndarray, n: int) -> range:
        """Append n entries, entry i of them holding the ids, and slots,
        whose `owner` is i; `owner` is sorted. Returns their numbers."""
        first, used = self.count, int(self.bounds[self.count])
        end = used + ids.size
        self.ids, self.slots = _grown(self.ids, used, end), _grown(self.slots, used, end)
        self.ids[used:end], self.slots[used:end] = ids, slots
        self.bounds = _grown(self.bounds, first + 1, first + 1 + n)
        self.bounds[first + 1 : first + 1 + n] = np.cumsum(np.bincount(owner, minlength=n)) + used
        self.count += n
        return range(first, first + n)

    def runs(self, numbers: list[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the entries' places in the flat arrays, one after another, and where each starts there
        starts = self.bounds[numbers]
        counts = self.bounds[1:][numbers] - starts
        return _runs(starts, counts), np.cumsum(counts) - counts


class EmbedderParams:
    """Weights of the hashed-window embedder.

    Conceptually a dim x n_buckets matrix; physically only the columns that
    have ever been read or written are materialized, each generated as
    default_rng([seed, column]).normal(0.0, INIT_STD, dim) when first read;
    a column first written is never generated. Writers name columns, and
    the parameters find their storage slots.
    `modified` records columns an optimizer overwrote, which is exactly the
    set a checkpoint has to carry. The seed lies in [0, 2**32) and
    n_buckets in [1, 2**32], so the seed and every column are one 32-bit
    SeedSequence entropy word each.

    Hashing depends only on (offset, token), never on the weights, so each
    distinct pair is hashed once: its sorted bucket ids are cached together
    with their storage slots, whose columns are materialized right then.
    Each window read gets one number, naming the union of its keys' entries,
    kept flat the same way, and its row, held from its first window_rows
    read until set_columns. Slots never move once assigned, so the cached
    slots stay valid.
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
        if n_buckets > 2**32:
            raise ValueError("n_buckets must be at most 2**32")
        if window < 0:
            raise ValueError("window must be non-negative")
        if not 0 <= seed < 2**32:
            raise ValueError("seed must be in [0, 2**32)")
        self.dim = dim
        self.n_buckets = n_buckets
        self.window = window
        self.seed = seed
        self.modified: set[int] = set()
        self.revision = 0
        self._store = np.zeros((0, dim))
        self._slot: dict[int, int] = {}
        # (offset, token) -> n, the number of its entry in _key_entries
        self._features: dict[tuple[int, str], int] = {}
        self._key_entries = _FlatEntries()
        self._drop_windows()
        # draws every seeded column, from a PCG64 state set per column
        self._rng = np.random.Generator(np.random.PCG64(0))

    def _seed_columns(self, cols: np.ndarray, rows: np.ndarray) -> None:
        """Fill rows[i] with default_rng([seed, cols[i]]).normal(0.0,
        INIT_STD, dim), bit for bit.

        PCG64 seeds itself from a SeedSequence's four uint64 words (s0, s1,
        i0, i1): inc = (i0:i1) << 1 | 1, then two LCG steps from state 0
        with (s0:s1) added between them. Setting that state on one kept
        generator skips building a SeedSequence and a PCG64 per column.
        normal(loc, scale) draws loc + scale * standard_normal(), so each
        row takes its standard draws and the block is scaled once; adding
        0.0 turns a -0.0 draw into 0.0, as loc does.
        """
        rng = self._rng
        bit_generator = rng.bit_generator
        pcg = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        for row, (s0, s1, i0, i1) in zip(rows, _pcg64_seeds(self.seed, cols).tolist()):
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            pcg["inc"] = inc
            pcg["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = state
            rng.standard_normal(out=row)
        rows *= INIT_STD
        rows += 0.0

    def _slots_of(self, cols: np.ndarray) -> np.ndarray:
        # the storage row of every column, -1 for one not materialized
        return np.fromiter(map(self._slot.get, cols.tolist(), repeat(-1)), dtype=np.int64, count=cols.size)

    def _new_slots(self, cols: np.ndarray) -> int:
        """Consecutive unfilled storage rows for `cols`, which must be
        unique and not yet materialized; returns the first. Every column is
        range-checked before any takes a row."""
        outside = (cols < 0) | (cols >= self.n_buckets)
        if outside.any():
            raise ValueError(f"column {cols[outside][0]} outside [0, {self.n_buckets})")
        start = len(self._slot)
        # from 64 rows: batches of new columns grow it as one at a time would
        self._store = _grown(self._store, start, start + cols.size, floor=64)
        self._slot.update(zip(cols.tolist(), range(start, start + cols.size)))
        return start

    def slots_for(self, cols: Sequence[int] | np.ndarray) -> np.ndarray:
        """Storage rows for the given columns, materializing as needed.

        Every column is range-checked before any is materialized. Each
        distinct column is looked up once; the missing ones are seeded in
        one batch and take slots in the order `cols` first names them.
        """
        cols = np.asarray(cols, dtype=np.int64)
        distinct, inverse = np.unique(cols, return_inverse=True)
        slots = self._slots_of(distinct)
        new = np.flatnonzero(slots < 0)
        if new.size:
            # first[j]: where cols first names distinct[j]
            first = np.full(distinct.size, cols.size)
            np.minimum.at(first, inverse, np.arange(cols.size))
            new = new[np.argsort(first[new])]
            start = self._new_slots(distinct[new])
            self._seed_columns(distinct[new], self._store[start : start + new.size])
            slots[new] = np.arange(start, start + new.size)
        return slots[inverse]

    def _feature_entries(self, keys: Sequence[tuple[int, str]]) -> list[int]:
        """The number in _key_entries of every (offset, token) key's entry:
        the sorted ids of `token` seen at `offset` from the embedded
        position, with their slots. New keys are featurized in one batch:
        every feature of every one is hashed at once, and new columns take
        slots in the order the keys first name them."""
        numbers = list(map(self._features.get, keys))
        if None in numbers:
            new = list(dict.fromkeys(key for key, n in zip(keys, numbers) if n is None))
            hashes, sizes = fnv1a64_keys(new, self.seed)
            hashed = (hashes % np.uint64(self.n_buckets)).astype(np.int64)
            owner = np.repeat(np.arange(len(new)), sizes)
            picks = _distinct_per_owner(owner, hashed, (self.n_buckets - 1).bit_length())
            ids = hashed[picks]
            entries = self._key_entries.extend(owner[picks], ids, self.slots_for(ids), len(new))
            self._features.update(zip(new, entries))
            numbers = list(map(self._features.__getitem__, keys))
        return numbers

    def _window_numbers(self, windows: Sequence[Window]) -> list[int]:
        """The number of every window; new ones take the next numbers in
        the order the call first names them, their entries made in one
        batch by _unions. A call leaves at most max(MAX_HELD_ROWS, its
        windows) numbered: past that, all are dropped first."""
        numbers = list(map(self._windows.get, windows))
        new = list(dict.fromkeys(w for w, n in zip(windows, numbers) if n is None)) if None in numbers else []
        numbered = len(self._windows)
        if numbered + len(new) > MAX_HELD_ROWS and numbered > len({*numbers} - {None}):
            self._drop_windows()
            # feature entries grow with the vocabulary, not with the stream
            if len(self._features) > MAX_HELD_ROWS:
                self._features, self._key_entries = {}, _FlatEntries()
            new = list(dict.fromkeys(windows))
        if new:
            self._windows.update(zip(new, self._window_entries.extend(*self._unions(new), len(new))))
            self._unheld += len(new)
            numbers = list(map(self._windows.__getitem__, windows))
        return numbers

    def _drop_windows(self) -> None:
        # window -> n, its entry and row (summed under these weights if _held[n]); _unheld counts the rest
        self._windows: dict[Window, int] = {}
        self._window_entries = _FlatEntries()
        self._rows, self._held = np.zeros((0, self.dim)), np.zeros(0, dtype=bool)
        self._unheld = 0

    def _unions(self, windows: list[Window]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The union of each window's keys' entries, window after window,
        as (window of each id, ids, slots): the keys' entries are gathered
        at once, and one sort of (window, id) pairs gives each window its
        distinct ids in order. One _feature_entries call over the keys in
        window order featurizes the new ones, so new columns take the slots
        that featurizing token by token gives."""
        keys = [(j - place, token) for place, tokens in windows for j, token in enumerate(tokens)]
        at, starts = self._key_entries.runs(self._feature_entries(keys))
        ids = self._key_entries.ids[at]
        widths = np.fromiter((len(tokens) for _, tokens in windows), dtype=np.int64, count=len(windows))
        owner = np.repeat(np.repeat(np.arange(len(windows)), widths), np.diff(starts, append=ids.size))
        picks = _distinct_per_owner(owner, ids, (self.n_buckets - 1).bit_length())
        return owner[picks], ids[picks], self._key_entries.slots[at[picks]]

    def _window_columns(self, windows: Sequence[Window]) -> Columns:
        # the windows' entries, gathered once, read after numbering, which can drop them
        numbers = self._window_numbers(windows)
        entries = self._window_entries
        at, starts = entries.runs(numbers)
        return entries.ids[at], entries.slots[at], starts

    def window_rows(self, windows: Sequence[Window]) -> np.ndarray:
        """The row of every window, read-only: one gather of held rows. The
        windows not held are summed in one _column_sums call and held."""
        numbers = self._window_numbers(windows)
        index = np.fromiter(numbers, dtype=np.intp, count=len(numbers))
        if self._unheld:
            used, numbered = self._held.size, len(self._windows)
            self._rows = _grown(self._rows, used, numbered, floor=64, most=MAX_HELD_ROWS)
            self._held = _grown(self._held, used, numbered, floor=64, most=MAX_HELD_ROWS)
            stale = index[~self._held[index]]
            if stale.size:
                stale = np.unique(stale)
                at, starts = self._window_entries.runs(stale)
                # numbering can grow and rebind the storage, so it is read after
                sums = _column_sums(self._store, self._window_entries.slots[at], starts)
                self._rows[stale] = np.tanh(sums, out=sums)
                self._held[stale] = True
                self._unheld -= stale.size
        rows = self._rows[index]
        rows.setflags(write=False)
        return rows

    def set_columns(self, columns: Sequence[int] | np.ndarray, values: np.ndarray) -> None:
        """Overwrite `columns`, any integer sequence, with `values` at once.

        The one writer of weights: `modified` gains the columns, `revision`
        advances by their count and the held mask is cleared. A non-finite
        value raises, naming the first such column, and so do a repeated
        column and a column out of range, before anything is written. A
        column not materialized yet takes a slot unseeded, since its values
        are about to be overwritten.
        """
        columns = np.asarray(columns, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(columns), self.dim):
            raise ValueError(f"column values must have shape ({len(columns)}, {self.dim})")
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            col = int(columns[int(np.argmin(finite))])
            raise ValueError(f"non-finite values for column {col}")
        cols = columns.tolist()
        if len(set(cols)) != len(cols):
            raise ValueError("columns must be unique")
        slots = self._slots_of(columns)
        missing = slots < 0
        slots[missing] = self._new_slots(columns[missing]) + np.arange(np.count_nonzero(missing))
        # taking slots can grow and rebind the storage, so it is read after
        self._store[slots] = values
        self.modified.update(cols)
        self.revision += len(cols)
        self._held[:] = False
        self._unheld = len(self._windows)

    @property
    def storage(self) -> np.ndarray:
        """Raw materialized rows; index with slots_for results."""
        return self._store

    def copy(self) -> "EmbedderParams":
        dup = EmbedderParams(self.dim, self.n_buckets, self.window, self.seed)
        dup._store = self._store[: len(self._slot)].copy()
        dup._slot = dict(self._slot)
        # the slots cached so far are the copy's too; later entries are not
        dup._features, dup._key_entries = dict(self._features), deepcopy(self._key_entries)
        dup.modified = set(self.modified)
        dup.revision = self.revision
        return dup


def _distinct_per_owner(owner: np.ndarray, ids: np.ndarray, bits: int) -> np.ndarray:
    """Positions of each owner's distinct ids, ordered by owner, then id;
    every id is below 2**bits.

    One sort on a single key, owner << bits | id; a key equal to its
    predecessor is a repeated id of the same owner. For bits <= 32 the key
    stays below 2**63 for fewer than 2**31 owners.
    """
    key = owner << bits | ids
    order = np.argsort(key)
    key = key[order]
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    return order[keep]


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # starts[i], starts[i] + 1, ..., counts[i] positions from each start, one run after another
    return np.repeat(starts - (np.cumsum(counts) - counts), counts) + np.arange(int(counts.sum()))


def _windows(tokens: tuple[str, ...], w: int) -> list[Window]:
    # the window of every token, clipped at the sentence's ends: the first
    # w tokens sit at their own place, the others at place w
    head = [(t, tokens[: t + w + 1]) for t in range(min(w, len(tokens)))]
    return head + [(w, tokens[t - w : t + w + 1]) for t in range(w, len(tokens))]


def _pairwise_tree(start: int, n: int, leaves: list[tuple[int, int]], base: int):
    # pairwise_sum's split of rows [start, start + n): leaf id base + i for
    # leaves[i], a (start, rows) block of at most _PAIRWISE_BLOCK rows, or
    # a pair of trees whose sums are added
    if n <= _PAIRWISE_BLOCK:
        leaves.append((start, n))
        return base + len(leaves) - 1
    half = n // 2 - n // 2 % 8
    return _pairwise_tree(start, half, leaves, base), _pairwise_tree(start + half, n - half, leaves, base)


def _tree_sum(sums: np.ndarray, tree) -> np.ndarray:
    if isinstance(tree, tuple):
        return _tree_sum(sums, tree[0]) + _tree_sum(sums, tree[1])
    return sums[tree]


def _run_sums(
    storage: np.ndarray, slots: np.ndarray, first: np.ndarray, counts: np.ndarray, out: np.ndarray
) -> None:
    """Sum one run of whole tokens into `out`. A segment is the rows after
    a token's first or, past _PAIRWISE_BLOCK of them, a leaf of their tree:
    the run's tokens (one with leaves is empty and has a tree), then the
    leaves. Every row is gathered once: the first rows and the leftover
    rows after each segment's groups of 8 by (step, segment), then the
    groups by (step, lane, segment), a chunk of steps at a time. Group
    steps order the segments by group count and leftover steps by leftover
    count, so each step adds into a prefix. The sums are kept in leftover
    order: the lane sums go to the rows of their segments there, and
    `where` reads them back in segment order."""
    k, dim = first.size, storage.shape[1]
    seg_start, seg_len = first + 1, counts - 1
    trees = []
    if seg_len.max() > _PAIRWISE_BLOCK:
        leaves: list[tuple[int, int]] = []
        for t in np.flatnonzero(seg_len > _PAIRWISE_BLOCK).tolist():
            trees.append((t, _pairwise_tree(int(seg_start[t]), int(seg_len[t]), leaves, k)))
            seg_len[t] = 0
        seg_start, seg_len = np.concatenate([[seg_start, seg_len], np.array(leaves).T], axis=1)
    groups, left = np.divmod(seg_len, 8)
    by_group = np.argsort(-groups, kind="stable")
    by_left = np.argsort(-left, kind="stable")
    where = np.argsort(by_left)
    # step i of each kind takes the segments with more than i groups or leftovers
    in_group = np.arange(groups.max())[:, np.newaxis] < groups[by_group]
    in_left = np.arange(left.max())[:, np.newaxis] < left[by_left]
    rest = ((seg_start + 8 * groups)[by_left] + np.arange(in_left.shape[0])[:, np.newaxis])[in_left]
    head = storage[slots[np.concatenate([first, rest])]]
    group_at = (seg_start[by_group] + 8 * np.arange(in_group.shape[0])[:, np.newaxis])[:, np.newaxis]
    lane_slots = slots[(group_at + np.arange(8)[:, np.newaxis])[in_group[:, np.newaxis].repeat(8, axis=1)]]
    steps = in_group.sum(axis=1).tolist()
    bounds = [0, *accumulate(8 * size for size in steps)]
    lanes, chunk_end = None, 0
    for i, size in enumerate(steps):
        if bounds[i] == chunk_end:
            # the next whole group steps, up to EMBED_CHUNK_ROWS rows, at once
            chunk_end = bounds[max(i + 1, bisect_right(bounds, bounds[i] + EMBED_CHUNK_ROWS) - 1)]
            rows = storage[lane_slots[bounds[i] : chunk_end]]
        step, rows = rows[: 8 * size].reshape(8, size, dim), rows[8 * size :]
        if lanes is None:
            lanes = step
        else:
            lanes[:, :size] += step
    if lanes is None:
        lanes = head[:0].reshape(8, 0, dim)
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    pairs = lanes[0::2] + lanes[1::2]
    pairs = pairs[0::2] + pairs[1::2]
    # -0.0 + x is x: pairwise_sum starts fewer than 8 rows there
    sums = np.full((where.size, dim), -0.0)
    sums[where[by_group[: steps[0] if steps else 0]]] = pairs[0] + pairs[1]
    at = k
    for size in in_left.sum(axis=1).tolist():
        sums[:size] += head[at : at + size]
        at += size
    sums = sums[where]
    for t, tree in trees:
        sums[t] = _tree_sum(sums, tree)
    np.add(head[:k], sums[:k], out=out)


def _column_sums(storage: np.ndarray, slots: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """np.add.reduceat(storage[slots], starts, axis=0), bit for bit, by
    contiguous whole-row adds.

    Token t owns slots[starts[t] : starts[t + 1]] (the last one runs to the
    end) and owns at least one. reduceat adds to its first row numpy's
    pairwise_sum of its other n rows, column by column: under 8 rows, in
    order from -0.0; up to _PAIRWISE_BLOCK, 8 lane sums over the groups of
    8, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then
    the n % 8 leftover rows in order; past that, the sum of the halves
    split at n // 2 rounded down to a multiple of 8. Here all of a run's
    tokens take each step at once, with whole-row adds.
    """
    counts = np.diff(starts, append=slots.size)
    out = np.empty((starts.size, storage.shape[1]))
    # runs of whole tokens of at most EMBED_RUN_ROWS rows, or one longer token
    bounds = [*starts.tolist(), slots.size]
    lo = 0
    while lo < starts.size:
        hi = max(lo + 1, bisect_right(bounds, bounds[lo] + EMBED_RUN_ROWS) - 1)
        _run_sums(storage, slots, starts[lo:hi], counts[lo:hi], out[lo:hi])
        lo = hi
    return out


def _embed_columns(params: EmbedderParams, columns: Columns) -> np.ndarray:
    # the training forward pass: the token rows of token_columns' entries
    _, slots, starts = columns
    sums = _column_sums(params.storage, slots, starts)
    return np.tanh(sums, out=sums)


def embed_sentence(token_matrix: np.ndarray) -> np.ndarray:
    """Mean-pool token rows into one sentence vector."""
    matrix = np.asarray(token_matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("token matrix must be 2-d with at least one row")
    return matrix.mean(axis=0)


@dataclass(frozen=True, eq=False)
class ColumnGrads:
    """A sparse loss gradient over weight columns.

    grad[i] is the gradient of columns[i]; columns are sorted and unique.
    Columns absent here have zero gradient. The EmbedderParams the
    gradient was taken for keep the storage rows of the columns.
    """

    columns: np.ndarray
    grad: np.ndarray

    def __len__(self) -> int:
        return self.columns.size


class HashedWindowEmbedder:
    """Trainable embedding provider; its parameters hold all its state.

    embed_batch returns one matrix per call, the sentences' token rows one
    after another, gathered from the window rows the parameters hold, so
    providers over the same parameters share them; embed is a one-sentence
    embed_batch. token_columns gathers a sentence's window entries from the
    parameters' flat ones at once: a training step sums them for its
    forward pass and backprop scatters into their ids.
    """

    def __init__(self, params: EmbedderParams | None = None):
        self.params = params if params is not None else EmbedderParams()

    @property
    def dim(self) -> int:
        return self.params.dim

    @property
    def tag(self) -> str:
        p = self.params
        return f"hashed:d{p.dim}:b{p.n_buckets}:w{p.window}:s{p.seed}:r{p.revision}"

    def token_columns(self, sentence: Sentence) -> Columns:
        """The window entries of the sentence's tokens, in token order, as
        (ids, slots, starts): token t owns ids[starts[t] : starts[t + 1]],
        the last to the end, and their slots, numbered under MAX_HELD_ROWS."""
        return self.params._window_columns(_windows(sentence.tokens, self.params.window))

    def embed(self, sentence: Sentence) -> np.ndarray:
        """The sentence's token rows, read-only: embed_batch([sentence])."""
        return self.embed_batch([sentence])

    def embed_batch(self, sentences: Sequence[Sentence]) -> np.ndarray:
        """One read-only (tokens, dim) matrix, the sentences' token rows one
        after another: one window_rows gather."""
        w = self.params.window
        return self.params.window_rows(list(chain.from_iterable(_windows(s.tokens, w) for s in sentences)))

    def backprop(
        self, sentence: Sentence, entries: Columns, d_output: np.ndarray, embeddings: np.ndarray
    ) -> ColumnGrads:
        """Columnwise loss gradient given d(loss)/d(token embeddings).

        `entries` and `embeddings` (x below) are the sentence's forward
        pass: token_columns(sentence) and embed(sentence) under the current
        parameters. Each active bucket of token t, an id of its window
        entry, receives d_output[t] * (1 - x_t^2), the tanh backward pass.
        A column's gradient adds these from 0.0 in token order, one token
        at a time; a token's ids are unique, so each token's scatter is
        exact. Inactive buckets are absent from the result and therefore
        exactly zero. A d_output of another shape than (tokens, dim) or
        with non-finite entries, entries for another token count, or
        `embeddings` of another shape than d_output or with non-finite
        entries, raises naming the sentence.
        """
        d_output = np.asarray(d_output, dtype=float)
        if d_output.shape != (len(sentence), self.dim):
            raise ValueError(
                f"sentence {sentence.uid}: d_output must have shape "
                f"({len(sentence)}, {self.dim}), got {d_output.shape}"
            )
        if not np.all(np.isfinite(d_output)):
            raise ValueError(f"sentence {sentence.uid}: d_output contains non-finite entries")
        embeddings = np.asarray(embeddings, dtype=float)
        if embeddings.shape != d_output.shape:
            raise ValueError(
                f"sentence {sentence.uid}: embeddings must have shape "
                f"{d_output.shape}, got {embeddings.shape}"
            )
        if not np.all(np.isfinite(embeddings)):
            raise ValueError(f"sentence {sentence.uid}: embeddings contain non-finite entries")
        ids, _, starts = entries
        if starts.size != len(sentence):
            raise ValueError(
                f"sentence {sentence.uid}: columns of {starts.size} tokens, not {len(sentence)}"
            )
        per_token = d_output * (1.0 - embeddings * embeddings)
        uniq, inverse = np.unique(ids, return_inverse=True)
        grad = np.zeros((uniq.size, self.dim))
        bounds = [*starts.tolist(), ids.size]
        for row, lo, hi in zip(per_token, bounds, bounds[1:]):
            grad[inverse[lo:hi]] += row
        return ColumnGrads(columns=uniq, grad=grad)

