"""floattext.row_lines writes every float64 as repr writes it, and
floattext.read_rows reads every value as float() reads it.

repr and float() are the oracles: each writing case compares the kernel's
text with head + "".join(" " + repr(v) for v in row) + "\n" for each row,
and each reading case compares the bits read with float() of each token.
"""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from copytag.embeddings import EmbedderParams
from copytag.floattext import _digits, read_rows, row_lines
from copytag.trainer import Checkpoint, TrainConfig, load_checkpoint, save_checkpoint

ROW = 128


def repr_lines(heads, rows) -> str:
    return "".join(
        head + "".join(" " + repr(v) for v in row) + "\n" for head, row in zip(heads, rows.tolist())
    )


def assert_same_text(got: str, want: str) -> None:
    """got == want, naming the first differing words, not diffing the texts."""
    same = got == want
    assert same, [(g, w) for g, w in zip(got.split(" "), want.split(" ")) if g != w][:5]


def assert_rows_match_repr(heads, rows) -> None:
    assert_same_text("".join(row_lines(heads, rows)), repr_lines(heads, rows))


def assert_matches_repr(values) -> None:
    """Write `values` in rows of ROW, the last one short, and compare."""
    values = np.asarray(values, dtype=np.float64).ravel()
    full = len(values) - len(values) % ROW
    for rows in (values[:full].reshape(-1, ROW), values[full:][np.newaxis]):
        assert_rows_match_repr([f"col {i}" for i in range(len(rows))], rows)


def powers_of_two() -> np.ndarray:
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])


class TestMatchesRepr:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261020)
        bits = rng.integers(0, 1 << 64, size=300_000, dtype=np.uint64, endpoint=False)
        # subnormals of both signs, which random patterns rarely draw
        tiny = rng.integers(1, 1 << 52, size=2_000, dtype=np.uint64)
        tiny[::2] |= np.uint64(1 << 63)
        values = np.concatenate([bits, tiny]).view(np.float64)
        assert_matches_repr(values[np.isfinite(values)])

    def test_zeros_and_powers_of_two_with_neighbours(self):
        values = powers_of_two()
        assert_matches_repr(np.concatenate([[0.0, -0.0], values, -values]))

    def test_integers_around_2_53_and_short_decimals(self):
        around = np.arange(-300, 300, dtype=np.float64)
        integers = np.concatenate([around, 2.0**53 + around, 2.0**54 + 4 * around, 1e15 + around])
        tenths = np.arange(-2000, 2000) / 10
        short = np.array([0.1, 0.2, 0.3, 0.7, 1.1, 2.675, 1e22, 1e23, 123.456, 0.001, 1e300, 1e-300])
        # q = -2 with an odd significand: the value is midway between two
        # 17-digit integers after scaling by 10, the tie repr breaks to even
        ties = np.ldexp(np.arange(2**52 + 1, 2**52 + 4001, 2, dtype=np.float64), -2)
        assert_matches_repr(np.concatenate([integers, tenths, short, ties, -ties]))

    def test_both_sides_of_each_notation_switch(self):
        cases = {
            1e-4: "0.0001",
            9.999999999999999e-05: "9.999999999999999e-05",
            1e16: "1e+16",
            9999999999999998.0: "9999999999999998.0",
            -1e-4: "-0.0001",
            -1e16: "-1e+16",
            0.5: "0.5",
            1e-05: "1e-05",
        }
        rows = np.array([list(cases)])
        assert "".join(row_lines(["x"], rows)) == "x " + " ".join(cases.values()) + "\n"
        edges = np.array(list(cases))
        assert_matches_repr(np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]))

    @pytest.mark.parametrize(
        "path, values",
        [
            # the left endpoint's parity product decides the digit count
            ("r == delta", [0.01714603183792404, 0.1232301595465864, 0.05267782799057057]),
            # one digit more, whole hundredths: the parity product moves
            # the digit down, or keeps it
            ("dist divisible by 100, parity off", [0.06277401505280022, 0.06788479861648058, 0.015379919745826085]),
            ("dist divisible by 100, parity on", [0.0037370265036314188, 0.09229241515307259, 0.14144277345400944]),
            # the value midway between two candidates: the even one
            ("exact tie rounded to even", [579333150269632.2, 1766527978114932.2, 973101840638752.2]),
            # an odd significand's integer right endpoint is not a candidate
            ("right endpoint excluded", [1.4369052268910219e17, 4.1818949479057096e16, 4.7456777723465496e16]),
            # powers of two 2**52 * 2**e: an integer left endpoint for e = 2
            # and 3, the one tie for e = -77
            ("shorter interval, left endpoint an integer", [2.0**54, 2.0**55]),
            ("shorter interval, tie rounded to even", [2.0**-25]),
        ],
    )
    def test_rare_path(self, path, values):
        values, tally = np.array(values), Counter()
        _digits(values.view(np.uint64), tally)
        assert tally[path] == len(values)
        assert_matches_repr(np.concatenate([values, -values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)]))

    def test_smallest_subnormals_take_one_digit(self):
        # Java writes 4.9E-324, keeping two digits; repr keeps one
        rows = np.array([[5e-324, 1e-323, 1.5e-323, 2e-323, -5e-324]])
        assert "".join(row_lines(["x"], rows)) == "x 5e-324 1e-323 1.5e-323 2e-323 -5e-324\n"
        assert_matches_repr(np.arange(1, 5000, dtype=np.uint64).view(np.float64))

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 4), st.integers(1, 130)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_finite_float_arrays(self, rows):
        assert_rows_match_repr([f"col {i}" for i in range(len(rows))], rows)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 128), (200, 128), (0, 128), (70, 5), (2, 0)])
    def test_row_shapes(self, shape):
        rows = np.random.default_rng(sum(shape)).normal(0.0, 0.1, size=shape)
        assert_rows_match_repr([f"col {7 * i}" for i in range(shape[0])], rows)

    def test_checkpoint_round_trip(self):
        special = np.concatenate(
            [[0.0, -0.0, 5e-324, -5e-324, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0], powers_of_two()]
        )
        special = special[np.isfinite(special)]
        values = np.resize(special, (len(special) // 16 + 1, 16))
        params = EmbedderParams(dim=16, n_buckets=len(values) + 5, seed=3)
        columns = np.arange(len(values)) + 2
        params.set_columns(columns, values)
        text = save_checkpoint(Checkpoint(params, TrainConfig(epochs=0), ()))
        body = repr_lines([f"col {c}" for c in columns.tolist()], values)
        assert_same_text(text[len(text) - len(body) :], body)
        back = load_checkpoint(text).params
        np.testing.assert_array_equal(back.storage[back.slots_for(columns)].view(np.uint64), values.view(np.uint64))
        assert_same_text(save_checkpoint(Checkpoint(back, TrainConfig(epochs=0), ())), text)


class TestRejects:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, bad):
        with pytest.raises(ValueError, match="finite"):
            row_lines(["a", "b"], np.array([[1.0, 2.0], [3.0, bad]]))

    @pytest.mark.parametrize(
        "heads, rows",
        [
            (["a"], np.zeros((2, 3))),
            (["a"], np.zeros(3)),
            (["a"], np.zeros((1, 3), dtype=np.float32)),
        ],
    )
    def test_bad_shape_or_dtype(self, heads, rows):
        with pytest.raises(ValueError, match="float64 matrix"):
            row_lines(heads, rows)

    @pytest.mark.parametrize("head", ["col\x001", "col é"])
    def test_head_not_ascii_without_nul(self, head):
        # translate would drop the NUL; the non-ASCII head would fail its encoding
        with pytest.raises(ValueError, match=re.escape(f"head {head!r} is not ASCII text without NUL")):
            row_lines(["a", head], np.zeros((2, 3)))


def read_back(tokens, dim=8):
    """The values read_rows reads from `tokens`, in lines "col <i>" and
    `dim` tokens, the last line filled up with "0"; every line must read.
    A token holds no " ", which separates tokens."""
    count = len(tokens)
    tokens = list(tokens) + ["0"] * (-count % dim)
    text = "".join(f"col {i} " + " ".join(tokens[lo : lo + dim]) + "\n" for i, lo in enumerate(range(0, len(tokens), dim)))
    pieces = list(read_rows(text, dim, "col ", 0))
    assert pieces[-1].stop is None, pieces[-1].stop
    assert [key for rows in pieces for key in rows.keys] == [str(i) for i in range(len(tokens) // dim)]
    return np.concatenate([rows.values.ravel() for rows in pieces])[:count]


def assert_reads_as_float(tokens) -> None:
    """Each token reads as the bits of float(token)."""
    tokens = list(tokens)
    got = read_back(tokens).view(np.uint64)
    want = np.array([float(t) for t in tokens]).view(np.uint64)
    wrong = np.flatnonzero(got != want)
    assert wrong.size == 0, [(tokens[i], got[i].view(np.float64), float(tokens[i])) for i in wrong[:5]]


def midpoints(rng, low, high, size):
    """Integers midway between two adjacent doubles in [low, high)."""
    doubles = rng.uniform(low, high, size)
    return [int(d) + int(np.spacing(d)) // 2 for d in doubles.tolist()]


class TestReadsAsFloat:
    def test_random_bit_patterns(self):
        bits = np.random.default_rng(20261021).integers(0, 1 << 64, size=60_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert_reads_as_float(repr(v) for v in values[np.isfinite(values)].tolist())

    def test_normal_and_log_uniform_values(self):
        # most of a checkpoint: N(0, 0.1) weights, 16 or 17 digits after
        # "0.", and fixed-notation values of every length
        rng = np.random.default_rng(5)
        normal = rng.normal(0.0, 0.1, 40_000)
        spread = 10 ** rng.uniform(-5, 17, 40_000) * rng.choice([-1.0, 1.0], 40_000)
        assert_reads_as_float(repr(v) for v in np.concatenate([normal, spread]).tolist())

    def test_powers_of_two_with_neighbours(self):
        values = powers_of_two()
        assert_reads_as_float(repr(v) for v in np.concatenate([values, -values]).tolist())

    def test_integers_around_2_53(self):
        around = [2**53 + k for k in range(-300, 300)] + [2**54 + k for k in range(-300, 300)]
        tokens = [str(n) for n in around] + [f"{n}.0" for n in around] + [f"-{n}.00" for n in around]
        assert_reads_as_float([*tokens, *(repr(float(n)) for n in around)])

    def test_both_sides_of_each_notation_switch(self):
        edges = np.array([1e-4, 1e-5, 1e16, 9999999999999998.0, 0.5, 1e22, 1e23])
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        assert_reads_as_float(repr(v) for v in np.concatenate([values, -values]).tolist())
        got = read_back(["-0.0", "0.0", "-0", "0", "-.0", "0."])
        assert got.view(np.uint64).tolist() == np.array([-0.0, 0.0, -0.0, 0.0, -0.0, 0.0]).view(np.uint64).tolist()

    def test_halfway_spellings_round_to_even(self):
        # 2**53 + 1 lies midway between 2**53 and 2**53 + 2; even wins
        assert read_back(["9007199254740993.0"])[0] == 2.0**53
        assert read_back(["9007199254740995", "900719925474099.30"]).tolist() == [2.0**53 + 4, 900719925474099.25]
        rng = np.random.default_rng(9)
        tokens = []
        for n in midpoints(rng, 2.0**53, 2.0**59, 3_000):
            digits = str(n)
            tokens += [digits, digits + ".0", digits + ".00", digits[:-2] + "." + digits[-2:]]
        assert_reads_as_float(tokens)

    def test_other_spellings_go_to_float(self):
        tokens = [
            "1e0", "-2.5E-3", "+1.5", "1_0", "1_000.000_1", "\t1.5", "\xa01.5", "1.5\t", "1.5\r", "\u0663.0",
            "\uff11.5", "00012.5", "-00000.000125", ".5", "-.5", "1.", "-7.", "0.30000000000000004441",
            "1234567890123456789012345", "0.1234567890123456789012345", "123456789012345678.9",
            "12345678901234567.89", "0.0000000000000000000001", ".00000000000000000000001",
            "1234567890123456789", "9999999999999999999", "inf", "-Infinity", "nan",
        ]
        assert_reads_as_float(tokens)

    def test_random_digit_strings(self):
        # every length up to 24 bytes, a point anywhere or none, a sign or not
        rng = np.random.default_rng(13)
        tokens = []
        for _ in range(20_000):
            digits = "".join(rng.choice(list("0123456789"), int(rng.integers(1, 23))).tolist())
            at = int(rng.integers(0, len(digits) + 2))
            token = digits if at > len(digits) else digits[:at] + "." + digits[at:]
            tokens.append("-" + token if rng.random() < 0.5 else token)
        assert_reads_as_float(tokens)

    @pytest.mark.parametrize("bad", ["0.1.2", "1.2.", "12.345.6", "--1", "", "-", ".", "0x10", "1e", "\u0663\u0663x"])
    def test_rejected_with_the_error_of_float(self, bad):
        with pytest.raises(ValueError) as expected:
            float(bad)
        text = f"col 0 1.0 2.0\ncol 1 3.0 {bad}\ncol 2 4.0 5.0\n"
        (rows,) = read_rows(text, 2, "col ", 0)
        assert rows.keys == ["0"]
        assert rows.values.tolist() == [[1.0, 2.0]]
        line, error = rows.stop
        assert line == f"col 1 3.0 {bad}"
        assert str(error) == str(expected.value)

    @pytest.mark.parametrize("line", ["col 1 3.0", "col 1 3.0 4.0 5.0", "row 1 3.0 4.0", "co", "", "col 1 3.0\t4.0"])
    def test_stops_at_a_line_of_another_shape(self, line):
        (rows,) = read_rows(f"col 0 1.0 2.0\n{line}\ncol 2 4.0 5.0\n", 2, "col ", 0)
        assert rows.keys == ["0"] and rows.stop == (line, None)

    def test_reads_across_pieces(self):
        values = np.random.default_rng(3).normal(0.0, 0.1, (6_000, 128))
        text = "".join(row_lines([f"col {i}" for i in range(len(values))], values))
        pieces = list(read_rows(text, 128, "col ", 0))
        assert len(pieces) > 1 and all(rows.stop is None for rows in pieces)
        got = np.concatenate([rows.values for rows in pieces])
        np.testing.assert_array_equal(got.view(np.uint64), values.view(np.uint64))
        assert [key for rows in pieces for key in rows.keys] == [str(i) for i in range(len(values))]

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 40)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_round_trip(self, rows):
        text = "".join(row_lines([f"col {i}" for i in range(len(rows))], rows))
        (read,) = read_rows(text, rows.shape[1], "col ", 0)
        assert read.stop is None
        np.testing.assert_array_equal(read.values.view(np.uint64), rows.view(np.uint64))
