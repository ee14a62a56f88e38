"""Float64 rows to text as repr writes it, and text to float64 as float()
reads it, in numpy, in both directions bit for bit.

Writing. `row_lines(heads, rows)` returns the text of the lines
`head + "".join(" " + repr(v) for v in row) + "\\n"`, byte for byte, with
no Python float object or repr call per value. It works on chunks of
8192 values (64 rows of 128), so each temporary array is 64 KiB and stays
in cache.

Digits. A finite nonzero value c * 2**e (c the integer significand) has
one shortest decimal f * 10**k that reads back as it; among several of
that length repr takes the closest, and of two equally close the even
one. `_digits` finds it with Dragonbox's nearest-to-even path (J. Jeon,
"Dragonbox: A New Floating-Point Binary-to-Decimal Conversion
Algorithm", 2020) in uint64 arithmetic only: one 64 x 128-bit product of
the interval's right endpoint with a 128-bit power of ten (a 619-entry
table built from Python ints at import) gives the multiple of 1000 in
the interval, if there is one, else one more digit of the value. A
second, parity product decides only the few values on the left endpoint
or a whole number of hundredths from a digit, where exact ties go to
even; a power of two, whose lower neighbour is half as far, takes the
shorter-interval steps. Like repr, and unlike Java, Dragonbox may write
one digit: 5e-324, not 4.9e-324.

Layout. repr writes d.ddde-XX for a decimal exponent decpt (value =
0.d1d2... * 10**decpt) outside -4 < decpt <= 16, else fixed notation,
with ".0" after an integral value and "-" before a negative one, -0.0
included. The 17 digits of f scaled to [10**16, 10**17) make a stream of
ASCII words, "0000000" and the first digit, then four 4-digit groups
from a table, trailing zeros blanked. Each value of a chunk gets a slot
of uint64 words, 24 bytes when every integer part has one digit: two
lead bytes (NUL and " ", or " " and "-"), the integer part, the point,
20 fraction places, with an exponent on the last bytes. The words are
the stream shifted per value so that its digits after the point fall on
the fraction places, and one byte lower for the integer part; longer
integer parts or an e-XXX in a chunk widen its slots by whole words.
Blank bytes are NUL, so a value's text is one run, and bytes.translate
deletes them from the chunk's word grid at once.

Reading. `read_rows(text, dim, lead, start)` reads such lines back from
text[start:], a piece of about 2**19 characters at a time: numpy finds
the " " and "\\n" that separate tokens in the piece's UTF-8 bytes and
checks each line's shape at once. Each value token is read from the 24 bytes that end with it, as
three little-endian uint64 words; SWAR masks (bitwise tests on the eight
bytes of a word at once) check it is a plain decimal, "-" and ASCII
digits with at most one point, and multiply-shift steps turn it into a
significand w < 10**19 and a count f of digits after the point. Clinger's
fast path then gives w / 10**f with one IEEE division when w <= 2**53 and
f <= 22, both exact doubles; else Eisel-Lemire (D. Lemire, "Number
Parsing at a Gigabyte per Second", 2021; N. Mushtak and D. Lemire, "Fast
number parsing without fallback", 2023) multiplies w by a 128-bit
truncated power of five from a table built at import and rounds as
fast_float does, half to even. Apart from that one division, every step
is integer arithmetic or an exact conversion read for its exponent, so
the bits are float()'s on any platform. float() itself reads every other
token: exponent forms, "+", "_", other whitespace, non-ASCII digits, and
tokens over 24 bytes or 19 significant digits (18 with a nonzero integer
part).

The oracles are repr and float() themselves: tests/test_floattext.py
compares the text with repr and the values read with float(), as does
scripts/check_float_text.py over 2**22 random bit patterns, every power
of two and its neighbours, and millions of decimals.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, NamedTuple, Sequence

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_M63 = _U64(0x7FFF_FFFF_FFFF_FFFF)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)
# Values per chunk: 64 rows of 128. Chunks of 128 rows wrote 5% faster but
# raised the benchmark's peak RSS on suffix-l40-dp by 5% (median of 10 seeds).
_CHUNK_VALUES = 8192


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 1233, of an int or an int64 array,
    as Java's MathUtils has it."""
    return (e * 913_124_641_741) >> 38


def _phi_table() -> tuple[np.ndarray, np.ndarray]:
    """Dragonbox's cache, entry k - _K_MIN for k in [_K_MIN, _K_MAX]:
    phi_k = ceil(10**k * 2**(127 - floor(k * log2(10)))), a 128-bit number
    with its top bit set, as its high and low words."""
    high, low = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 127 - _flog2pow10(k)
        phi = -(-(10 ** max(k, 0) << max(shift, 0)) // (10 ** max(-k, 0) << max(-shift, 0)))
        high.append(phi >> 64)
        low.append(phi & (1 << 64) - 1)
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64)


def _group_words() -> np.ndarray:
    """The ASCII words of the 4-digit groups 0000..9999 in their low four
    bytes: entry g + 10000 has every digit, entry g its trailing zeros
    blanked (NUL), for the groups that end a significand."""
    digits = np.array([f"{g:04d}" for g in range(10_000)], dtype="S4").view(np.uint8).reshape(-1, 4)
    trail = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    table = np.concatenate([np.where(trail, 0, digits), digits]).astype(np.uint8)
    return np.pad(table, ((0, 0), (0, 4))).view("<u8").ravel()


_K_MIN, _K_MAX = -292, 326
_PHI_HIGH, _PHI_LOW = _phi_table()
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_GROUPS = _group_words()
_ZEROS = _U64(0x3030_3030_3030_3030)  # "00000000"
# The exponent e-XX or e-XXX of d.ddde-XX by its value + 324, right-aligned
# in a word
_EXP = np.frombuffer(b"".join(f"e{e:+03d}".encode().rjust(8, b"\0") for e in range(-324, 309)), dtype="<u8")


def _parity(two_f: np.ndarray, k: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dragonbox's compute_mul_parity: from the low 128 bits of the
    192-bit product two_f * phi_k, the parity of the integer part of
    two_f * phi_k * 2**beta / 2**128 and whether its fraction is zero."""
    phi = k - _K_MIN
    high, low = _mul128(two_f, _PHI_LOW[phi])
    high += two_f * _PHI_HIGH[phi]
    parity = (high >> (_U64(64) - beta)) & _U64(1) == 1
    return parity, ((high << beta) | (low >> (_U64(64) - beta))) == 0


def _digits(bits: np.ndarray, tally: Counter | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) for the magnitudes of finite nonzero float64 bit patterns:
    f * 10**k is the shortest decimal that reads back as the value, the
    closest such, even on a tie. f < 10**17 may end in zeros; f is
    uint64, k int64. A `tally` counts the values that take each rare path."""
    bq = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    t = bits & _T_MASK
    c = t | (bq > 0) * _C_MIN
    e = np.maximum(bq, 1) - 1075  # the value is c * 2**e
    # kappa = 2: the interval scaled by 10**k holds 100 to 999 integers
    k = 2 - ((e * 315_653) >> 20)
    phi_high = _PHI_HIGH[k - _K_MIN]
    beta = (e + _flog2pow10(k)).astype(np.uint64)
    two_c = c << _U64(1)
    # z: the integer part of the right endpoint (2c + 1) * 2**(e - 1) * 10**k,
    # the high word of the 64 x 128-bit product right * phi_k
    right = (two_c | _U64(1)) << beta
    z, low = _mul128(right, phi_high)
    carry, _ = _mul128(right, _PHI_LOW[k - _K_MIN])
    low += carry
    z += low < carry
    delta = phi_high >> (_U64(63) - beta)  # the interval's width
    s = z // _U64(1000)
    r = z - s * _U64(1000)
    # an odd c excludes the interval's endpoints (its neighbours round to
    # even): an integer right endpoint is out
    out = (low == 0) & (r == 0) & (c & _U64(1) == 1)
    s -= out
    r += out * _U64(1000)
    big = r < delta  # s * 1000, a multiple of 1000, is in the interval
    # else one more digit: the value's, from dist = r - delta / 2 + 50 read
    # as a number of hundredths; when dist is a whole number of them, the
    # parity product decides between it and the one below, and a tie
    dist = r - (delta >> _U64(1)) + _U64(50)
    hundreds = dist // _U64(100)
    f = s * _U64(10) + hundreds
    # the parity products: on the left endpoint (2c - 1) * 2**(e - 1) * 10**k,
    # and on the value when dist is whole
    edge = np.flatnonzero(r == delta)
    whole = np.flatnonzero(hundreds * _U64(100) == dist)
    at = np.concatenate([edge, whole])
    parity, integer = _parity(two_c[at] - (np.arange(at.size) < edge.size), k[at], beta[at])
    # s * 1000 on the left endpoint is in when that is an integer and c even
    big[edge] = parity[: edge.size] | (integer[: edge.size] & (c[edge] & _U64(1) == 0))
    parity, integer = parity[edge.size :], integer[edge.size :]
    below = parity != ((dist[whole] ^ _U64(50)) & _U64(1) == 1)
    tie = ~below & integer & (f[whole] & _U64(1) == 1)
    f[whole] -= below | tie
    if tally is not None:
        regular = t != 0  # not the powers of two that _shorter redoes
        small = regular[whole] & ~big[whole]
        tally["right endpoint excluded"] += np.count_nonzero(out & regular)
        tally["r == delta"] += np.count_nonzero(regular[edge])
        tally["dist divisible by 100, parity off"] += np.count_nonzero(small & below)
        tally["dist divisible by 100, parity on"] += np.count_nonzero(small & ~below)
        tally["exact tie rounded to even"] += np.count_nonzero(small & tie)
    f = np.where(big, s, f)
    exponent = big - k + 2
    # 2**e at c = 2**52 has a lower neighbour half as far away as its upper one
    shorter = np.flatnonzero(t == 0)
    if shorter.size:
        f[shorter], exponent[shorter] = _shorter(e[shorter], tally)
    return f, exponent


def _shorter(e: np.ndarray, tally: Counter | None) -> tuple[np.ndarray, np.ndarray]:
    """Dragonbox's (f, k) of 2**52 * 2**e, whose interval is asymmetric."""
    k = -((e * 631_305 - 261_663) >> 21)  # -floor(log10(3/4 * 2**e))
    beta = (e + _flog2pow10(k)).astype(np.uint64)
    phi = _PHI_HIGH[k - _K_MIN]
    # the endpoints scaled by 10**k; the left one is in only as an integer,
    # which it is for e in {2, 3}
    left = (phi - (phi >> _U64(54))) >> (_U64(11) - beta)
    right = (phi + (phi >> _U64(53))) >> (_U64(11) - beta)
    integral = (e == 2) | (e == 3)
    left += ~integral
    tens = right // _U64(10)
    fits = tens * _U64(10) >= left
    # else the value rounded up, one digit more
    up = ((phi >> (_U64(10) - beta)) + _U64(1)) >> _U64(1)
    tie = (e == -77) & (up & _U64(1) == 1)  # the only tie, broken to even
    inside = ~tie & (up < left)
    up = up - tie + inside
    if tally is not None:
        tally["shorter interval, one digit fewer"] += np.count_nonzero(fits)
        tally["shorter interval, left endpoint an integer"] += np.count_nonzero(integral)
        tally["shorter interval, tie rounded to even"] += np.count_nonzero(tie & ~fits)
        tally["shorter interval, rounded up into it"] += np.count_nonzero(inside & ~fits)
    return np.where(fits, tens, up), fits - k


def _chunk_text(heads: np.ndarray, block: np.ndarray) -> str:
    """row_lines of one chunk of rows, as one string; `heads` holds each
    row's head as NUL-padded words."""
    n_rows, dim = block.shape
    bits = np.ascontiguousarray(block).view(np.uint64).ravel()
    magnitude = bits & _M63
    zero = magnitude == 0
    magnitude |= zero * _U64(0x3FF0_0000_0000_0000)  # a zero takes the digits of 1.0, set to 0 below
    f, k = _digits(magnitude)
    # f has length digits: floor(log2(f)) from the exponent of float(f),
    # which may round up to a power of two but never past a power of ten
    length = ((((f.astype(np.float64).view(np.int64) >> 52) - 1023) * 1233) >> 12) + 1
    length += f >= _POW10.take(length)
    digits = f * _POW10.take(17 - length)  # 17 digits, the first nonzero
    decpt = k + length  # the value is 0.ddd * 10**decpt
    digits[zero] = 0
    fixed = (decpt > -4) & (decpt <= 16)
    # digits before the point: decpt in fixed notation (none below 1), else one
    point = np.where(fixed, decpt, 1)
    exponent = np.flatnonzero(~fixed)
    long_exponent = bool((np.abs(decpt[exponent] - 1) >= 100).any())

    # A value's slot: words of 8 bytes. The first holds the lead bytes (NUL
    # or " ", " " or "-"); then come int_words * 8 + 1 places for the integer
    # part, right-aligned, the point, and 20 places for the fraction,
    # left-aligned, which the exponent of d.ddde-XX ends on; a chunk with
    # an e-XXX takes a last word for it.
    int_words = (int(point.max(initial=1)) + 6) // 8
    slot_words = 3 + int_words + long_exponent
    # The 17 digits as a stream of ASCII bytes, the first digit at the
    # end of a word of "0"s, the trailing zeros blanked. Word j of the slot
    # is bytes 8 * j + 3 + point to 8 * j + 11 + point of the stream after
    # int_words empty words: a fraction place at its place in the slot.
    high = digits // _U64(10**8)
    first = high // _U64(10**8)
    groups = []
    for eight in (digits - high * _U64(10**8), high - first * _U64(10**8)):
        four = eight // _U64(10_000)
        groups += [(eight - four * _U64(10_000)).view(np.int64), four.view(np.int64)]
    words = [_GROUPS.take(groups[0])]  # the last group: its trailing zeros go
    later = groups[0] != 0  # a nonzero digit further on
    for group in groups[1:]:
        words.append(_GROUPS.take(group + later * 10_000))
        later |= group != 0
    stream = [_U64(0)] * int_words + [_ZEROS | (first << _U64(56)), words[3] | (words[2] << _U64(32))]
    stream += [words[1] | (words[0] << _U64(32))] + [_U64(0)] * (slot_words + 2)
    offset = 3 + point
    skip = offset >> 3  # whole words
    for b in range(int(skip.max(initial=0)).bit_length()):
        on = (skip >> b) & 1 == 1
        stream = [np.where(on, stream[j + (1 << b)], stream[j]) for j in range(len(stream) - (1 << b))]
    shift = ((offset & 7) * 8).astype(np.uint64)
    window = [(stream[j] >> shift) | (stream[j + 1] << (_U64(64) - shift)) for j in range(slot_words + 1)]
    # the integer part one byte lower, its leading zeros blanked and the
    # zeros it ends on written
    places = np.maximum(point, 1) if int_words else 1
    slot = []
    for j in range(int_words + 1):
        integer = window[j] >> _U64(8)
        if j < int_words:
            integer |= window[j + 1] << _U64(56)
        # its bytes end - places to end - 1 (uint64 shifts by 64 give 0)
        end = 3 + 8 * (int_words - j)
        low, high = (8 * np.clip(b, 0, 8).astype(np.uint64) for b in (end - places, end))
        slot.append((integer | _ZEROS) & (~_U64(0) << low) & (~_U64(0) >> (_U64(64) - high)))
    slot[int_words] |= window[int_words] & ~_M32
    slot += window[int_words + 1 : slot_words]
    slot[0] |= _U64(0x2000) + (bits >> _U64(63)) * _U64(0x0D20)  # NUL and " ", or " " and "-"
    slot[int_words] |= _U64(ord(".") << 24) | fixed * _U64(ord("0") << 32)
    if exponent.size:
        # d.ddde-XX: no point when there is no fraction digit
        slot[-1][exponent] |= _EXP[decpt[exponent] - 1 + 324]
        bare = exponent[(slot[int_words][exponent] >> _U64(32)) & _U64(0xFF) == 0]
        slot[int_words][bare] &= ~_U64(0xFF << 24)

    width = heads.shape[1]
    grid = np.empty((n_rows, width + dim * slot_words + 1), dtype="<u8")
    grid[:, :width] = heads
    grid[:, -1] = ord("\n")
    # a view: the reshape splits only the last axis, whose stride is one word
    view = grid[:, width:-1].reshape(n_rows, dim, slot_words)
    for j, word in enumerate(slot):
        view[:, :, j] = word.reshape(n_rows, dim)
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def row_lines(heads: Sequence[str], rows: np.ndarray) -> list[str]:
    """The lines head + "".join(" " + repr(v) for v in row) + "\n" of
    each head and row, in order, as the texts of consecutive chunks of
    rows, for the caller to join.

    `rows` is a 2-D float64 array of finite values with one row per head;
    a head is ASCII text without NUL. A non-finite value, or a head that
    is not such text, raises ValueError.
    """
    rows = np.asarray(rows)
    if rows.dtype != np.float64 or rows.ndim != 2 or len(rows) != len(heads):
        raise ValueError("rows must be a float64 matrix with one row per head")
    text = "".join(heads)
    if not text.isascii() or "\0" in text:
        bad = next(head for head in heads if not head.isascii() or "\0" in head)
        raise ValueError(f"head {bad!r} is not ASCII text without NUL")
    if not np.isfinite(rows).all():
        raise ValueError("rows must be finite")
    width = max(map(len, heads), default=0) // 8 + 1  # words, with a NUL at least
    words = np.array(heads, dtype=f"S{8 * width}").view("<u8").reshape(len(heads), width)
    step = max(1, _CHUNK_VALUES // max(1, rows.shape[1]))
    return [_chunk_text(words[lo : lo + step], rows[lo : lo + step]) for lo in range(0, len(rows), step)]


# Characters per piece of text read at once, so the temporaries of a read
# are a few MB whatever the size of the text
_PIECE = 1 << 19
_PAD = 24  # bytes before a piece, so each token has a full 24-byte window
# SWAR constants: a byte value repeated in the eight bytes of a word
_ONES = _U64(0x0101_0101_0101_0101)
_ZEROS = _U64(0x3030_3030_3030_3030)  # "0"
_LOW7 = _U64(0x7F7F_7F7F_7F7F_7F7F)
_HIGH = _U64(0x8080_8080_8080_8080)
_NIBBLES = _U64(0xF0F0_F0F0_F0F0_F0F0)
_SIXES = _U64(0x0606_0606_0606_0606)
_DOT = _U64(ord(".") ^ ord("0"))  # a point's byte once "0" is taken off
_DOTS = _DOT * _ONES
_PAIRS = _U64(0x0000_00FF_0000_00FF)
_MUL1 = _U64(100 + (1_000_000 << 32))
_MUL2 = _U64(1 + (10_000 << 32))
# weights of a window's three words of point marks: the float sum of a
# single mark is 2**(8 * (its byte in the window) + 7), exactly
_MARK_PLACE = np.array([1.0, 2.0**64, 2.0**128])


def _keep_table() -> np.ndarray:
    """Entry b: three little-endian words that keep the last 24 - b bytes
    of a 24-byte window and clear the first b, as one 24-byte item."""
    rows = [int.from_bytes(b"\0" * b + b"\xff" * (_PAD - b), "little") for b in range(_PAD + 1)]
    words = [[row >> 64 * j & (1 << 64) - 1 for j in range(3)] for row in rows]
    return np.array(words, dtype=np.uint64).view("V24").ravel()


def _five_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entry f, for q = -f in [-23, 0]: fast_float's 128-bit truncated
    5**q, with its top bit set (for q < 0, floor(2**(127 + z) / 5**-q) + 1
    with 2**(z - 1) < 5**-q < 2**z), as high and low words, and the biased
    binary exponent power(q) + 1023 of fast_float's compute_float, where
    power(q) = floor(q * log2(10)) + 63."""
    high, low, power = [], [], []
    for f in range(_PAD):
        t = 1 << 127 if f == 0 else (1 << 127 + (5**f).bit_length()) // 5**f + 1
        high.append(t >> 64)
        low.append(t & (1 << 64) - 1)
        power.append(_flog2pow10(-f) + 63 + 1023)
    return np.array(high, dtype=np.uint64), np.array(low, dtype=np.uint64), np.array(power, dtype=np.int64)


_KEEP = _keep_table()
_FIVE_HIGH, _FIVE_LOW, _POWER2 = _five_table()
# 10**k as uint64, all ones from 10**20 on, which no significand reaches
_TEN_U64 = np.array([10**k if k < 20 else (1 << 64) - 1 for k in range(_PAD + 1)], dtype=np.uint64)
_TEN_F64 = np.array([float(10**k) for k in range(23)])
_EXACT = _U64(1 << 53)


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the product of a and b, any uint64,
    from products of 32-bit limbs: the middle sum is below 3 * 2**32."""
    al, ah, bl, bh = a & _M32, a >> _U64(32), b & _M32, b >> _U64(32)
    low = al * bl
    lh, hl = al * bh, ah * bl
    mid = (low >> _U64(32)) + (lh & _M32) + (hl & _M32)
    high = ah * bh + (lh >> _U64(32)) + (hl >> _U64(32)) + (mid >> _U64(32))
    return high, (mid << _U64(32)) | (low & _M32)


def _eisel_lemire(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The float64 nearest w * 10**-f, ties to even, for 0 < w < 2**64
    and f in [0, 23], as fast_float's compute_float finds it (D. Lemire,
    "Number Parsing at a Gigabyte per Second", 2021): w normalized times
    the 128-bit 5**-f, whose product N. Mushtak and D. Lemire ("Fast
    number parsing without fallback", 2023) show always decides."""
    # floor(log2(w)) from the exponent of float(w), which may round up to a power of two
    top = np.minimum((w.astype(np.float64).view(np.uint64) >> _U64(52)).astype(np.int64) - 1023, 63)
    top -= (w >> top.astype(np.uint64)) == 0
    lz = (63 - top).astype(np.uint64)
    w = w << lz
    high, low = _mul128(w, _FIVE_HIGH[f])
    # the low word of 5**-f counts only when the high word's 9 bits below
    # the 55 kept are all ones
    second = np.flatnonzero((high & _U64(0x1FF)) == _U64(0x1FF))
    if second.size:
        extra, _ = _mul128(w[second], _FIVE_LOW[f[second]])
        more = low[second] + extra
        high[second] += more < extra
        low[second] = more
    upper = high >> _U64(63)
    shift = upper + _U64(9)
    mantissa = high >> shift
    power2 = _POWER2[f] + upper.astype(np.int64) - lz.astype(np.int64)
    # round half to even: a product exactly midway, which only q >= -4
    # gives, rounds down from an even mantissa
    midway = (low <= _U64(1)) & (f <= 4) & (mantissa & _U64(3) == _U64(1)) & ((mantissa << shift) == high)
    mantissa &= ~midway.astype(np.uint64)
    mantissa += mantissa & _U64(1)
    mantissa >>= _U64(1)
    carried = mantissa >= _U64(2 << 52)
    mantissa = np.where(carried, _U64(1 << 52), mantissa)
    power2 += carried
    return ((power2.astype(np.uint64) << _U64(52)) | (mantissa & _T_MASK)).view(np.float64)


def _read_tokens(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of the tokens data[starts[i]:ends[i]], each at least
    _PAD bytes into `data`, and the mask of those the kernel reads: at
    most 24 bytes of an optional "-", then ASCII digits with at most one
    point, at least one digit, that make a number below 10**19 when the
    point is read as a "0". The value of any other token is left for
    float().

    A token's window is the 24 bytes that end with it, three
    little-endian words. With "0" taken off each byte, the bytes before
    the token and its "-" are cleared. SWAR masks (bitwise tests on the
    eight bytes of a word at once) mark its points; a point is cleared,
    and each word, then all digits, turns into its eight-digit number in
    three multiply-shift steps. The words make W, with the point as a
    zero digit f places from the end; when the integer part is nonzero
    that column is dropped, which leaves the significand w of w * 10**-f.
    """
    negative = np.frombuffer(data, dtype=np.uint8)[starts] == ord("-")
    length = ends - starts - negative
    windows = np.ndarray((len(data) - _PAD + 1,), dtype="V24", buffer=data, strides=(1,))
    x = windows[ends - _PAD].view("<u8").reshape(-1, 3)
    x ^= _ZEROS
    x &= _KEEP.take(np.clip(_PAD - length, 0, _PAD)).view("<u8").reshape(-1, 3)
    # a byte's high bit in `point` when the byte is "."
    y = x ^ _DOTS
    point = ~(((y & _LOW7) + _LOW7) | y) & _HIGH
    x ^= (point >> _U64(7)) * _DOT
    # each word's marks summed into its top byte: at most 8, so no carry
    counts = ((point >> _U64(7)) * _ONES) >> _U64(56)
    points = counts[:, 0] + counts[:, 1] + counts[:, 2]
    digits = ((x | (x + _SIXES)) & _NIBBLES) == 0
    x = x * _U64(10) + (x >> _U64(8))
    x = (((x & _PAIRS) * _MUL1) + (((x >> _U64(16)) & _PAIRS) * _MUL2)) >> _U64(32)
    read = digits[:, 0] & digits[:, 1] & digits[:, 2] & (points <= 1) & (length > points) & (length <= _PAD)
    read &= x[:, 0] < _U64(1000)
    w = x[:, 0] * _U64(10**16) + x[:, 1] * _U64(10**8) + x[:, 2]
    # the digits after the point: (191 - the mark's bit) // 8, 0 without one
    mark = (point.astype(np.float64) @ _MARK_PLACE).view(np.uint64) >> _U64(52)
    f = ((1023 + 191 - mark.astype(np.int64)) >> 3) * (points == 1)
    whole = np.flatnonzero((w >= _TEN_U64[f + 1]) & (points == 1))
    if whole.size:
        fw, ww = f[whole], w[whole]
        w[whole] = ww // _TEN_U64[fw + 1] * _TEN_U64[fw] + ww % _TEN_U64[fw]
    # Clinger: w and 10**f are exact doubles, so one division rounds once
    exact = ((w <= _EXACT) & (f <= 22)) | (w == 0)
    values = w.astype(np.float64)
    values /= _TEN_F64[np.minimum(f, 22)]
    rest = np.flatnonzero(~exact & read)
    if rest.size:
        values[rest] = _eisel_lemire(w[rest], f[rest])
    values.view(np.uint64)[...] |= negative.astype(np.uint64) << _U64(63)
    return values, read


class Rows(NamedTuple):
    """What read_rows read from one piece of text: the key and the values
    of each line, and, when reading ended there, the line it ended at."""

    keys: list[str]
    values: np.ndarray
    # the line's text and float()'s error, None when the line is not
    # lead, key and dim values
    stop: tuple[str, ValueError | None] | None


def _piece_rows(data: bytes, dim: int, lead: bytes) -> Rows:
    """Rows of the lines of data[_PAD:], which ends in "\n"."""
    text = np.frombuffer(data, dtype=np.uint8)[_PAD:]
    breaks = np.flatnonzero((text == ord(" ")) | (text == ord("\n"))) + _PAD
    ends = np.flatnonzero(text[breaks - _PAD] == ord("\n"))  # each line's "\n" in breaks
    starts = np.concatenate(([0], breaks[ends[:-1]] + 1 - _PAD))
    width = lead.count(b" ") + 1 + dim  # tokens of a line
    regular = np.diff(ends, prepend=-1) == width
    # a line shorter than lead meets its "\n", which lead does not hold
    for k, byte in enumerate(lead):
        regular &= text.take(starts + k, mode="clip") == byte
    n = len(starts) if regular.all() else int(np.argmin(regular))
    grid = breaks[: n * width].reshape(n, width)
    key_ends = grid[:, width - dim - 1]
    value_starts = grid[:, width - dim - 1 : -1].ravel() + 1
    value_ends = grid[:, width - dim :].ravel()
    values, read = _read_tokens(data, value_starts, value_ends)
    error = None
    for i in np.flatnonzero(~read).tolist():
        try:
            values[i] = float(data[value_starts[i] : value_ends[i]].decode("utf-8", "surrogatepass"))
        except ValueError as exc:
            n, error = i // dim, exc
            break
    stop = None
    if n < len(starts):
        stop = (data[_PAD + starts[n] : breaks[ends[n]]].decode("utf-8", "surrogatepass"), error)
    key_starts = (starts[:n] + _PAD + len(lead)).tolist()
    keys = [data[s:e].decode("utf-8", "surrogatepass") for s, e in zip(key_starts, key_ends[:n].tolist())]
    return Rows(keys, values[: n * dim].reshape(n, dim), stop)


def read_rows(text: str, dim: int, lead: str, start: int) -> Iterator[Rows]:
    """Read text[start:], which ends in "\n", as lines of `lead` (text
    without "\n"), a key and dim values, joined by " ": the lines
    row_lines writes for the heads lead + key. One Rows per piece of
    about 2**19 characters, cut after a "\n", so no copy of the whole
    text is made.

    Only " " and "\n" separate tokens, as str.split(" ") splits a line;
    a key is any token, a value any text float() reads, as the same bits.
    Reading ends at the first line that does not start with `lead` or has
    another number of tokens, or that has a value float() rejects: the
    Rows of its piece holds the lines before it and, as `stop`, its text
    and float()'s error for its first such value.
    """
    lead_bytes = lead.encode("utf-8", "surrogatepass")
    while start < len(text):
        cut = text.find("\n", start + _PIECE)
        end = len(text) if cut < 0 else cut + 1
        rows = _piece_rows(b"\0" * _PAD + text[start:end].encode("utf-8", "surrogatepass"), dim, lead_bytes)
        yield rows
        if rows.stop is not None:
            return
        start = end
