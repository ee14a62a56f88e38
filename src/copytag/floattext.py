"""Float64 rows to text as repr writes it, and text to float64 as float()
reads it, in numpy, in both directions bit for bit.

Writing. `row_lines(heads, rows)` returns the text of the lines
`head + "".join(" " + repr(v) for v in row) + "\\n"`, byte for byte, with
no Python float object or repr call per value. It works on chunks of
8192 values (64 rows of 128), so each temporary array is 64 KiB and stays
in cache.

Digits. A finite nonzero value c * 2**q (c the integer significand) has
one shortest decimal f * 10**k that reads back as it; among several of
that length repr takes the closest, and of two equally close the even
one. `_digits` finds it with Schubfach (R. Giulietti, "The Schubfach way
to render doubles", 2020; the algorithm of Java's Double.toString since
JDK 19), in uint64 arithmetic only: the rounding interval's bounds and
the value are scaled by a 126-bit approximation g of 10**-k from a
617-entry table built from Python ints at import, each product's high
bits taken through 32-bit limbs and rounded to odd; one multiple of ten
in the interval is the shorter answer, else the nearer of the two
integers around the value. Java's rendering keeps at least two digits,
so it scales the two smallest subnormals by ten (its C_TINY branch) and
tries the shorter candidate only from s >= 100; repr keeps one digit, so
here there is no such branch and the shorter candidate is tried from
s >= 10 (5e-324 is "5e-324", not "4.9e-324").

Layout. repr writes d.ddde-XX for a decimal exponent decpt (value =
0.d1d2... * 10**decpt) outside -4 < decpt <= 16, else fixed notation,
with ".0" after an integral value and "-" before a negative one, -0.0
included. Each value of a chunk gets the same slot of uint32 words, four
ASCII bytes each, taken from tables: two words for a space, the sign and
the "0." and zeros of a fixed value below 1; a word per 4-digit group of
the integer part (decpt digits in fixed notation, else one), leading
zeros blanked, as many as the chunk's longest integer part needs; the
point; four words for the 16 places after it, trailing zeros blanked;
two for the exponent, if a value of the chunk has one. Blank bytes are
NUL, and bytes.translate deletes them all from the chunk's word grid at
once, which leaves the text.

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

from typing import Iterator, NamedTuple, Sequence

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_M63 = _U64(0x7FFF_FFFF_FFFF_FFFF)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)
_K_MIN, _K_MAX = -324, 292
# Values per chunk: 64 rows of 128. Chunks of 128 rows wrote 5% faster but
# raised the benchmark's peak RSS on suffix-l40-dp by 5% (median of 10 seeds).
_CHUNK_VALUES = 8192


def _flog2pow10(e):
    """floor(e * log2(10)) for |e| <= 1233, of an int or an int64 array,
    as Java's MathUtils has it."""
    return (e * 913_124_641_741) >> 38


def _g_table() -> np.ndarray:
    """Column k - K_MIN: g = floor(10**-k * 2**(125 - floor(log2(10**-k)))) + 1,
    a 126-bit number, as g1 = g >> 63 and the 32-bit limbs of g1 and of
    g0 = g & (2**63 - 1)."""
    rows = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            beta = 10**-k << shift if shift >= 0 else 10**-k >> -shift
        else:
            beta = (1 << shift) // 10**k
        g = beta + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 & 0xFFFF_FFFF, g1 >> 32, g0 & 0xFFFF_FFFF, g0 >> 32))
    return np.array(rows, dtype=np.uint64).T.copy()


def _padded(texts: Sequence[str], size: int) -> bytes:
    """Each text's ASCII bytes NUL-padded to `size` bytes, one after another."""
    return b"".join(text.encode("ascii").ljust(size, b"\0") for text in texts)


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Words of the 4-digit groups 0000..9999: entry g + 10000 * flag.

    In the first table a zero flag blanks the group's leading zeros (an
    integer part's highest groups); in the second it blanks its trailing
    zeros (a fraction's lowest groups). A flag of 1 keeps every digit.
    """
    group = np.arange(10_000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    ascii_ = (digits + ord("0")).astype(np.uint8)
    zero = digits == 0
    lead = np.where(np.logical_and.accumulate(zero, axis=1), 0, ascii_)
    trail = np.where(np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1], 0, ascii_)

    def words(table: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(table).view("<u4").ravel()

    full = words(ascii_)
    return np.concatenate([words(lead), full]), np.concatenate([words(trail), full])


_G = _g_table()
_POW10 = np.array([10**i for i in range(19)], dtype=np.int64)
_INT_WORDS, _FRAC_WORDS = _digit_words()
# Two words before the digits, by 5 * sign + (0, or 1 - decpt for a fixed
# value below 1): a space, "-" when negative, and "0." with its zeros.
_PREFIX = np.frombuffer(
    _padded([" " + sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")], 8), dtype="<u8"
)
_NO_POINT, _POINT_ONLY, _POINT_ZERO, _ZERO = range(4)
_POINT = np.frombuffer(_padded(["", ".", ".0", "0.0"], 4), dtype="<u4")
# Two words of the exponent of d.ddde-XX by its value + 324; the last
# entry, blank, is for fixed notation.
_EXP = np.frombuffer(_padded([f"e{e:+03d}" for e in range(-324, 309)] + [""], 8), dtype="<u8")


def _mulhi(al: np.ndarray, ah: np.ndarray, bl: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """The high 64 bits of the product of a = ah * 2**32 + al < 2**63 and
    b = bh * 2**32 + bl < 2**63, from products of 32-bit limbs: the two
    cross products are each below 2**63, so their sum does not wrap."""
    cross = al * bh + ah * bl
    mid = ((al * bl) >> 32) + (cross & _M32)
    return ah * bh + (cross >> 32) + (mid >> 32)


def _rop(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Java's rop: g * cp / 2**127, g = g1 * 2**63 + g0, rounded to odd
    from the bits Java keeps."""
    g1, g1l, g1h, g0l, g0h = g
    cl, ch = cp & _M32, cp >> 32
    z = ((g1 * cp) >> 1) + _mulhi(g0l, g0h, cl, ch)
    vbp = _mulhi(g1l, g1h, cl, ch) + (z >> 63)
    return vbp | (((z & _M63) + _M63) >> 63)


def _digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) for the magnitudes of finite nonzero float64 bit patterns:
    f * 10**k is the shortest decimal that reads back as the value, the
    closest such, even on a tie. f < 10**17 may end in zeros; both are
    int64."""
    bq = (bits >> 52) & _U64(0x7FF)
    t = bits & _T_MASK
    c = np.where(bq > 0, t | _C_MIN, t)
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    # 2**q at c = 2**52 has a lower neighbour only half as far away
    irregular = (t == 0) & (bq > 1)
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular, as
    # Java's flog10pow2 and flog10threeQuartersPow2 compute them
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = _G.take(k - _K_MIN, axis=1)
    cb = c << _U64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular) << h)
    vbr = _rop(g, (cb + _U64(2)) << h)
    # bounds are in the interval when c is even (round half to even)
    low = vbl + (c & _U64(1))
    high = vbr - (c & _U64(1))
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)
    tp10 = sp10 + _U64(10)
    # a multiple of ten, if just one of the two around s is in the interval,
    # is the answer with fewer digits (tried from s >= 10, not Java's s >= 100:
    # repr may write a single digit)
    upin = low <= sp10 << _U64(2)
    wpin = tp10 << _U64(2) <= high
    shorter = (s >= _U64(10)) & (upin != wpin)
    uin = low <= s << _U64(2)
    win = (s + _U64(1)) << _U64(2) <= high
    # vb's two low bits: under 2 below the midpoint of s and s + 1, 2 on it
    rest = vb & _U64(3)
    closer = (rest < 2) | ((rest == 2) & (s & _U64(1) == 0))
    take_s = np.where(uin != win, uin, closer)
    f = np.where(shorter, np.where(upin, sp10, tp10), np.where(take_s, s, s + _U64(1)))
    return f.view(np.int64), k


def _groups(x: np.ndarray, count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The lowest `count` 4-digit groups of x, the lowest first, each with
    the number that the digits above it make."""
    for _ in range(count):
        higher = x // 10_000
        yield x - higher * 10_000, higher
        x = higher


def _chunk_text(heads: Sequence[str], block: np.ndarray) -> str:
    """row_lines of one chunk of rows, as one string."""
    n_rows, dim = block.shape
    bits = np.ascontiguousarray(block).view(np.uint64)
    magnitude = bits & _M63
    zero = magnitude == 0
    # a zero takes the digits of 1.0; its words are set apart below
    f, k = _digits(np.where(zero, _U64(0x3FF0_0000_0000_0000), magnitude))
    length = np.searchsorted(_POW10, f, side="right")
    digits = f * _POW10[17 - length]  # 17 digits, the first nonzero
    decpt = k + length  # value = 0.ddd * 10**decpt
    fixed = (decpt > -4) & (decpt <= 16)
    small = fixed & (decpt <= 0)
    # the digits before the point: decpt of them in fixed notation, else one
    point = np.where(fixed & ~small, decpt, 1)
    unit = _POW10[17 - point]
    integer = digits // unit
    fraction = (digits - integer * unit) * _POW10[point - 1]  # 16 places
    integer[zero] = 0
    fraction[zero] = 0

    # Words per value: the prefix, the integer groups the chunk's longest
    # integer part needs, the point, four fraction groups, and the exponent
    # only when a value of the chunk takes one.
    int_words = -(-int(point.max(initial=1)) // 4)
    exponent = not fixed.all()
    slot_words = 7 + int_words + 2 * exponent
    width = max(map(len, heads), default=0) // 4 + 1
    grid = np.empty((n_rows, width + dim * slot_words + 1), dtype="<u4")
    grid[:, :width] = np.frombuffer(_padded(heads, 4 * width), dtype="<u4").reshape(n_rows, width)
    grid[:, -1] = ord("\n")
    # a view: the reshape splits only the last axis, whose stride is one word
    slot = grid[:, width:-1].reshape(n_rows, dim, slot_words)
    negative = (bits >> _U64(63)).view(np.int64)
    prefix = _PREFIX.take(5 * negative + np.where(small, 1 - decpt, 0))
    slot[:, :, 0:2] = prefix.view("<u4").reshape(n_rows, dim, 2)
    for r, (group, higher) in enumerate(_groups(integer, int_words)):
        slot[:, :, 1 + int_words - r] = _INT_WORDS[group + 10_000 * (higher > 0)]
    kind = np.where(fraction > 0, _POINT_ONLY, np.where(fixed, _POINT_ZERO, _NO_POINT))
    kind[small] = _NO_POINT
    kind[zero] = _ZERO
    at = 2 + int_words
    slot[:, :, at] = _POINT[kind]
    below = np.zeros(fraction.shape, dtype=bool)  # a nonzero digit further on
    for r, (group, _) in enumerate(_groups(fraction, 4)):
        slot[:, :, at + 4 - r] = _FRAC_WORDS[group + 10_000 * below]
        below |= group > 0
    if exponent:
        exp = _EXP.take(np.where(fixed, len(_EXP) - 1, decpt - 1 - _K_MIN))
        slot[:, :, at + 5 :] = exp.view("<u4").reshape(n_rows, dim, 2)
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def row_lines(heads: Sequence[str], rows: np.ndarray) -> list[str]:
    """The lines head + "".join(" " + repr(v) for v in row) + "\n" of
    each head and row, in order, as the texts of consecutive chunks of
    rows, for the caller to join.

    `rows` is a 2-D float64 array of finite values with one row per head;
    a head is ASCII text without NUL. A non-finite value raises ValueError.
    """
    rows = np.asarray(rows)
    if rows.dtype != np.float64 or rows.ndim != 2 or len(rows) != len(heads):
        raise ValueError("rows must be a float64 matrix with one row per head")
    if not np.isfinite(rows).all():
        raise ValueError("rows must be finite")
    step = max(1, _CHUNK_VALUES // max(1, rows.shape[1]))
    return [_chunk_text(heads[lo : lo + step], rows[lo : lo + step]) for lo in range(0, len(rows), step)]


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
