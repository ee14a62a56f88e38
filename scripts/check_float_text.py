"""Compare copytag.floattext with repr over many float64 values.

The values are 2**22 random bit patterns of both signs (the few that are
not finite are left out) and every power of two from 2**-1074 to 2**1023
with its two neighbours, both signs. Each value is written by
`floattext.row_lines` and by repr; the first value whose texts differ is
named and the script exits 1, else it prints the count and exits 0. Kept
out of the tier-1 tests for its run time (10-15 s on 2 vCPUs).

    python3 scripts/check_float_text.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from copytag.floattext import row_lines  # noqa: E402

RANDOM_PATTERNS = 1 << 22
BATCH = 1 << 16  # values compared at a time
ROW = 128  # values per line


def values() -> np.ndarray:
    """The values checked, as one float64 array."""
    bits = np.random.default_rng(0).integers(0, 1 << 64, size=RANDOM_PATTERNS, dtype=np.uint64, endpoint=False)
    random = bits.view(np.float64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    near = [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    checked = np.concatenate([random, *near, *(-v for v in near)])
    return checked[np.isfinite(checked)]


def first_mismatch(batch: np.ndarray) -> str | None:
    """The first value of `batch` whose text is not its repr, described."""
    rows = np.pad(batch, (0, -len(batch) % ROW), constant_values=0.0).reshape(-1, ROW)
    got = "".join(row_lines([""] * len(rows), rows))
    if got == "".join("".join(" " + repr(v) for v in row) + "\n" for row in rows.tolist()):
        return None
    for value, text in zip(rows.ravel().tolist(), got.split()):
        if text != repr(value):
            bits = np.array(value).view(np.uint64)
            return f"0x{int(bits):016x}: floattext wrote {text!r}, repr writes {value!r}"
    return "a line break or separator: every value's text equals its repr"


def main() -> int:
    checked = values()
    for lo in range(0, len(checked), BATCH):
        mismatch = first_mismatch(checked[lo : lo + BATCH])
        if mismatch is not None:
            print(f"mismatch at {mismatch}")
            return 1
    print(f"{len(checked)} values: floattext text equals repr")
    return 0


if __name__ == "__main__":
    sys.exit(main())
