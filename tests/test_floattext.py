"""floattext.row_lines writes every float64 as repr writes it.

repr is the oracle: each case compares the kernel's text with
head + "".join(" " + repr(v) for v in row) + "\n" for each row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from copytag.embeddings import EmbedderParams
from copytag.floattext import row_lines
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
        params.set_columns(columns, params.slots_for(columns), values)
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
