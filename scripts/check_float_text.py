"""Compare copytag.floattext with repr and float() over many float64 values.

The values are 2**22 random bit patterns of both signs (the few that are
not finite are left out), every power of two from 2**-1074 to 2**1023
with its two neighbours, both signs, 2**20 log-uniform values in
[1e-5, 1e17] of both signs (fixed notation, every length of integer
part) and 2**20 N(0, 0.1) values (as in a checkpoint). Each value is
written by `floattext.row_lines` and by repr, and the text is read back
by `floattext.read_rows`: the text must equal repr's and the value read
must have the bits written. Then 2**18 random spellings that are not
repr's (leading and trailing zeros, no digit before or after the point,
up to 26 bytes, a sign, "_", an exponent, a tab) and a list of texts
float() rejects are read: each value must have float()'s bits, and each
rejected text must stop the reading with float()'s error.

The writer's digits come from Dragonbox, whose rare steps decide few
values: the parity products (r == delta, a whole number of hundredths),
exact ties, excluded endpoints and the shorter interval of a power of
two. The script prints how many of the values took each of them, and
fails when one was never taken, so the comparison covers every step.

The first value or text that differs is named and the script exits 1,
else it prints the counts and exits 0. Kept out of the tier-1 tests for
its run time (about 35 s on 2 vCPUs). Run it a second time with
NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR" to check
numpy's baseline SIMD loops as well.

    python3 scripts/check_float_text.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from copytag.floattext import _digits, read_rows, row_lines  # noqa: E402

RANDOM_PATTERNS = 1 << 22
SPREAD = 1 << 20  # log-uniform and normal values each
SPELLINGS = 1 << 18
BATCH = 1 << 16  # values compared at a time
ROW = 128  # values per line
REJECTED = ["0.1.2", "1..2", "12.345.6", "--1", "-+1", "", "-", ".", "-.", "0x10", "1e", "1e+", "1_", "_1", "1__0", "٣٣x"]


def values() -> np.ndarray:
    """The values checked, as one float64 array."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 1 << 64, size=RANDOM_PATTERNS, dtype=np.uint64, endpoint=False)
    random = bits.view(np.float64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    spread = 10 ** rng.uniform(-5, 17, SPREAD) * rng.choice([-1.0, 1.0], SPREAD)
    normal = rng.normal(0.0, 0.1, SPREAD)
    checked = np.concatenate([random, *near, *(-v for v in near), spread, normal])
    return checked[np.isfinite(checked)]


def spellings() -> list[str]:
    """Random texts float() reads that repr does not write."""
    rng = np.random.default_rng(1)
    texts = []
    for _ in range(SPELLINGS):
        digits = "".join(rng.choice(list("0123456789"), int(rng.integers(1, 26))).tolist())
        at = int(rng.integers(0, len(digits) + 2))
        text = digits if at > len(digits) else digits[:at] + "." + digits[at:]
        text = rng.choice(["", "-", "+"], p=[0.45, 0.45, 0.1]) + text
        kind = int(rng.integers(20))
        if kind == 0:
            text += f"e{int(rng.integers(-30, 30))}"
        elif kind == 1:  # "_" between the first two adjacent digits
            pair = next((i for i in range(len(text) - 1) if (text[i] + text[i + 1]).isdigit()), None)
            text = text if pair is None else text[: pair + 1] + "_" + text[pair + 1 :]
        elif kind == 2:
            text = "\t" + text
        texts.append(text)
    return texts


def _read(text: str, dim: int) -> tuple[np.ndarray, tuple | None]:
    """Every value read_rows reads from `text`, and where it stopped."""
    pieces = list(read_rows(text, dim, "", 0))
    return np.concatenate([rows.values.ravel() for rows in pieces]), pieces[-1].stop


def first_mismatch(batch: np.ndarray) -> str | None:
    """The first value of `batch` whose text is not its repr, or that
    reads back as other bits, described."""
    rows = np.pad(batch, (0, -len(batch) % ROW), constant_values=0.0).reshape(-1, ROW)
    got = "".join(row_lines([""] * len(rows), rows))
    if got != "".join("".join(" " + repr(v) for v in row) + "\n" for row in rows.tolist()):
        for value, text in zip(rows.ravel().tolist(), got.split()):
            if text != repr(value):
                bits = np.array(value).view(np.uint64)
                return f"0x{int(bits):016x}: floattext wrote {text!r}, repr writes {value!r}"
        return "a line break or separator: every value's text equals its repr"
    read, stop = _read(got, ROW)
    if stop is not None:
        return f"the text of a value read back: reading stopped at {stop!r}"
    wrong = np.flatnonzero(read.view(np.uint64) != rows.ravel().view(np.uint64))
    if wrong.size:
        value = rows.ravel()[wrong[0]]
        return f"{value!r}: read back as {read[wrong[0]]!r}"
    return None


def path_counts(checked: np.ndarray) -> Counter:
    """How many of the nonzero values `checked` take each rare step of
    the writer's digit kernel."""
    tally = Counter()
    magnitudes = np.abs(checked).view(np.uint64)
    for lo in range(0, len(magnitudes), BATCH):
        batch = magnitudes[lo : lo + BATCH]
        _digits(batch[batch != 0], tally)
    return tally


def first_misread(texts: list[str]) -> str | None:
    """The first text read as other bits than float()'s, described."""
    padded = texts + ["0"] * (-len(texts) % ROW)
    lines = "".join("".join(" " + t for t in padded[lo : lo + ROW]) + "\n" for lo in range(0, len(padded), ROW))
    read, stop = _read(lines, ROW)
    if stop is not None:
        return f"a text float() reads: reading stopped at {stop!r}"
    want = np.array([float(t) for t in padded])
    wrong = np.flatnonzero(read.view(np.uint64) != want.view(np.uint64))
    if wrong.size:
        return f"{padded[wrong[0]]!r}: read as {read[wrong[0]]!r}, float() reads {want[wrong[0]]!r}"
    return None


def first_accepted(texts: list[str]) -> str | None:
    """The first text float() rejects that reading does not stop at with
    float()'s error, described."""
    for text in texts:
        try:
            float(text)
        except ValueError as exc:
            expected = str(exc)
        else:
            return f"{text!r}: float() reads it"
        _, stop = _read(f" 1.0 {text} 2.0\n", 3)
        if stop is None or str(stop[1]) != expected:
            return f"{text!r}: reading stopped at {stop!r}, float() says {expected!r}"
    return None


def main() -> int:
    checked = values()
    for lo in range(0, len(checked), BATCH):
        mismatch = first_mismatch(checked[lo : lo + BATCH])
        if mismatch is not None:
            print(f"mismatch at {mismatch}")
            return 1
    paths = path_counts(checked)
    for path, count in sorted(paths.items()):
        print(f"{count:>9}  {path}")
    if not all(paths.values()):
        print("a rare step of the digit kernel was never taken")
        return 1
    texts = spellings()
    for lo in range(0, len(texts), BATCH):
        mismatch = first_misread(texts[lo : lo + BATCH])
        if mismatch is not None:
            print(f"misread {mismatch}")
            return 1
    mismatch = first_accepted(REJECTED)
    if mismatch is not None:
        print(f"not rejected: {mismatch}")
        return 1
    print(
        f"{len(checked)} values: floattext text equals repr and reads back as the same bits; "
        f"{len(texts)} other spellings read as float() reads them; "
        f"{len(REJECTED)} texts float() rejects stop the reading with its error"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
