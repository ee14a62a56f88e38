"""Shortest round-trip text of float64 rows, as repr writes it, in numpy.

`row_lines(heads, rows)` returns the text of the lines
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

The oracle is repr itself: tests/test_floattext.py compares the text
with it, as does scripts/check_float_text.py over 2**22 random bit
patterns and every power of two and its neighbours.
"""

from __future__ import annotations

from typing import Iterator, Sequence

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
