import math
import re
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import copytag.decoder as decoder
from copytag.copy_model import MarginalMatrix
from copytag.decoder import (
    DEFAULT_MAX_SEGMENT_LEN,
    Segment,
    build_segment_dict,
    check_segment_cost,
    dp_decode_expected,
    predict_marginal,
    provenance_lines,
)
from conftest import (
    column_index,
    labels_only_set,
    make_gold,
    make_marginals,
    make_neighbor_set,
    present_types,
)
from decoder_reference import (
    brute_force_decode,
    dp_reconstruct,
    greedy_reconstruct,
    per_level_segment_dict,
    per_start_decode_expected,
    sequences,
)
from trie_reference import build_trie, trie_dp, trie_greedy, trie_sequences


def assert_segments_consistent(result, seg_dict, segment_cost, cost_at):
    """The segments must tile the sequence, carry first-insertion exemplars,
    and chain back to the reported objective bit for bit."""
    exemplars = {labels: (m, off) for labels, m, off in sequences(seg_dict)}
    pos = 0
    value = 0.0
    for seg in result.segments:
        assert seg.start == pos
        assert 1 <= seg.length <= seg_dict.depth
        labels = result.labels[seg.start : seg.start + seg.length]
        seg_sum = 0.0
        for d, lab in enumerate(labels):
            seg_sum += cost_at(seg.start + d, lab)
        assert exemplars[labels] == (seg.neighbor, seg.offset)
        value = (value + segment_cost) + seg_sum
        pos += seg.length
    assert pos == len(result.labels)
    assert value == result.objective


class TestSegmentDict:
    def test_matches_naive_enumeration(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            rows = [
                [int(v) for v in rng.integers(0, 3, size=rng.integers(1, 6))]
                for _ in range(n)
            ]
            max_len = int(rng.integers(1, 6))
            seg_dict = build_segment_dict(labels_only_set(rows), max_len)
            stored = {labels for labels, _, _ in sequences(seg_dict)}
            naive = set()
            for row in rows:
                for i in range(len(row)):
                    for j in range(i + 1, min(len(row), i + max_len) + 1):
                        naive.add(tuple(row[i:j]))
            assert stored == naive

    def test_exemplar_is_first_insertion(self):
        # [1, 2] occurs in both neighbors; neighbor 0 inserted it first
        seg_dict = build_segment_dict(labels_only_set([[1, 2], [1, 2]]), DEFAULT_MAX_SEGMENT_LEN)
        exemplars = {labels: (m, off) for labels, m, off in sequences(seg_dict)}
        assert exemplars[(1, 2)] == (0, 0)
        assert exemplars[(2,)] == (0, 1)

    def test_node_count_includes_root(self):
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        # sequences: (0,), (0,1), (1,); plus the root
        assert seg_dict.node_count == 4
        assert seg_dict.depth == 2

    def test_max_len_caps_depth(self):
        seg_dict = build_segment_dict(labels_only_set([[0, 1, 0, 1]]), max_len=2)
        assert seg_dict.depth == 2
        assert all(len(labels) <= 2 for labels, _, _ in sequences(seg_dict))

    def test_path_spells_each_sequence(self, rng):
        # oracle: the labels found by walking parent ranks up the levels
        for _ in range(30):
            neighbors = make_neighbor_set(
                rng, n_neighbors=int(rng.integers(1, 5)), max_len=8, n_types=3
            )
            seg_dict = build_segment_dict(neighbors, int(rng.integers(1, 9)))
            rank = Counter()
            for labels, _, _ in sequences(seg_dict):
                assert seg_dict.path(len(labels), rank[len(labels)]) == labels
                rank[len(labels)] += 1

    def test_rejects_bad_max_len(self):
        with pytest.raises(ValueError):
            build_segment_dict(labels_only_set([[0]]), max_len=0)

    def test_rejects_negative_labels(self):
        # label ids index the decoders' cost columns; a Dataset holds no
        # negative id, so the set is edited after assembly
        neighbors = labels_only_set([[0, 1]])
        neighbors = replace(neighbors, flat_labels=np.array([0, -1]))
        with pytest.raises(ValueError, match="non-negative"):
            build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)


class TestMatchesPerLevelOracle:
    """The sort-and-LCP dictionary against the per-level np.unique build
    it replaced: every Level array equal in values and dtype, every
    node's on-demand exemplar equal to the oracle's stored first
    occurrence, and the same node count, depth and label count, at caps
    below, at and past the longest sentence."""

    @staticmethod
    def assert_same_dict(neighbors, max_len):
        got = build_segment_dict(neighbors, max_len)
        want = per_level_segment_dict(neighbors, max_len)
        where = f"max_len={max_len}"
        assert got.node_count == want.node_count, where
        assert got.depth == want.depth == len(got.levels), where
        assert got.n_labels == want.n_labels, where
        for d, (level, oracle) in enumerate(zip(got.levels, want.levels), start=1):
            exemplars = np.array(
                [got.exemplar(d, rank) for rank in range(len(level.label))],
                dtype=np.int64,
            ).reshape(-1, 2)
            fields = {
                "parent": level.parent,
                "label": level.label,
                "neighbor": exemplars[:, 0],
                "offset": exemplars[:, 1],
            }
            for field in ("parent", "label", "neighbor", "offset"):
                a, b = fields[field], getattr(oracle, field)
                assert a.dtype == b.dtype, f"{where}, length {d}, {field}"
                assert np.array_equal(a, b), f"{where}, length {d}, {field}"

    def test_random_sets(self, rng):
        for _ in range(150):
            neighbors = make_neighbor_set(
                rng,
                n_neighbors=int(rng.integers(1, 17)),
                max_len=int(rng.integers(1, 41)),
                n_types=int(rng.integers(1, 7)),
            )
            for max_len in (1, 2, 3, int(rng.integers(1, 45)), DEFAULT_MAX_SEGMENT_LEN):
                self.assert_same_dict(neighbors, max_len)

    def test_label_runs(self, rng):
        # long shared prefixes between windows
        for _ in range(100):
            rows = [run_labels(rng, 2) for _ in range(int(rng.integers(1, 6)))]
            for max_len in (1, 2, 5, DEFAULT_MAX_SEGMENT_LEN):
                self.assert_same_dict(labels_only_set(rows), max_len)

    def test_repeated_identical_sentences(self, rng):
        for _ in range(20):
            row = [int(v) for v in rng.integers(0, 3, size=rng.integers(1, 9))]
            other = [int(v) for v in rng.integers(0, 3, size=rng.integers(1, 9))]
            rows = [row, other, row, row[1:] or row, row]
            for max_len in range(1, len(row) + 3):
                self.assert_same_dict(labels_only_set(rows), max_len)

    def test_one_token_sentences(self, rng):
        for _ in range(20):
            rows = [[int(v)] for v in rng.integers(0, 4, size=rng.integers(1, 9))]
            rows.append([int(v) for v in rng.integers(0, 4, size=3)])
            for max_len in (1, 2, 4):
                self.assert_same_dict(labels_only_set(rows), max_len)
        self.assert_same_dict(labels_only_set([[2]]), 1)
        self.assert_same_dict(labels_only_set([[1], [1], [0]]), DEFAULT_MAX_SEGMENT_LEN)

    def test_caps_from_one_past_the_longest_sentence(self, rng):
        for _ in range(10):
            neighbors = make_neighbor_set(rng, n_neighbors=6, max_len=12, n_types=3)
            longest = int(np.diff(neighbors.starts).max())
            for max_len in range(1, longest + 3):
                self.assert_same_dict(neighbors, max_len)

    def test_more_than_sixteen_label_types(self, rng):
        most = 0
        for _ in range(20):
            neighbors = make_neighbor_set(
                rng, n_neighbors=int(rng.integers(1, 9)), max_len=20, n_types=40
            )
            most = max(most, len(present_types(neighbors)))
            for max_len in (1, 3, DEFAULT_MAX_SEGMENT_LEN):
                self.assert_same_dict(neighbors, max_len)
        assert most > 16


class TestMatchesTrieReference:
    """The array dictionary and its decoders against the pointer trie they
    replaced: same sequences, exemplars and node count, and the same
    DecodeResult bit for bit, on long instances with capped lengths."""

    def test_random_long_instances(self, rng):
        grid = (0.0, 0.3, 1.0, 5.0)
        for i in range(200):
            neighbors = make_neighbor_set(
                rng,
                n_neighbors=int(rng.integers(1, 17)),
                max_len=int(rng.integers(1, 41)),
                n_types=int(rng.integers(2, 7)),
            )
            # the smaller of a build cap and a decode length cap: the DP
            # reads every level, so capping the build caps the decode
            build_cap = min(int(rng.integers(1, 45)), int(rng.integers(1, 45)))
            seg_dict = build_segment_dict(neighbors, build_cap)
            trie = build_trie(neighbors, build_cap)
            assert seg_dict.node_count == trie.node_count, f"instance {i}"
            assert seg_dict.depth == trie.depth, f"instance {i}"
            exemplars = {labels: (m, off) for labels, m, off in sequences(seg_dict)}
            assert exemplars == trie_sequences(trie), f"instance {i}"

            c = grid[i % len(grid)]
            n_tokens = int(rng.integers(1, 41))
            pool = list(present_types(neighbors)) + [99]
            gold = tuple(pool[int(v)] for v in rng.integers(0, len(pool), n_tokens))
            mismatch = lambda j, lab: 0.0 if gold[j] == lab else 1.0
            assert dp_reconstruct(gold, seg_dict, c) == trie_dp(
                n_tokens, trie, c, mismatch
            ), f"instance {i}"
            assert greedy_reconstruct(gold, seg_dict, c) == trie_greedy(
                gold, trie, c
            ), f"instance {i}"

            if i % 2:
                marginals = make_marginals(rng, n_tokens, neighbors)
                if i % 4 == 3 and len(marginals.type_ids) > 1:
                    # a dictionary label with no marginal column costs 1.0
                    kept = marginals.probs[:, 1:]
                    marginals = MarginalMatrix(
                        probs=kept / kept.sum(axis=1, keepdims=True),
                        type_ids=marginals.type_ids[1:],
                    )
            else:
                # one-hot rows make integer costs, so exact ties are common
                type_ids = present_types(neighbors)
                probs = np.zeros((n_tokens, len(type_ids)))
                probs[np.arange(n_tokens), rng.integers(0, len(type_ids), n_tokens)] = 1.0
                marginals = MarginalMatrix(probs=probs, type_ids=type_ids)
            col_of = column_index(marginals)
            expected = lambda j, lab: (
                1.0 if col_of.get(lab) is None
                else 1.0 - float(marginals.probs[j, col_of[lab]])
            )
            assert dp_decode_expected(marginals, seg_dict, (c,))[0] == trie_dp(
                n_tokens, trie, c, expected
            ), f"instance {i}"


def run_labels(rng, n_types: int) -> list[int]:
    """A neighbor label sequence made of runs of repeated labels."""
    out: list[int] = []
    for _ in range(int(rng.integers(1, 5))):
        out += [int(rng.integers(0, n_types))] * int(rng.integers(1, 4))
    return out


def quarter_marginals(rng, n_tokens: int, neighbors) -> MarginalMatrix:
    """Rows of multiples of 1/4 over the present types: sums of such costs
    are exact, so different label sequences often cost exactly the same."""
    type_ids = present_types(neighbors)
    probs = np.zeros((n_tokens, len(type_ids)))
    for row in probs:
        for col in rng.integers(0, len(type_ids), size=4):
            row[col] += 0.25
    return MarginalMatrix(probs=probs, type_ids=type_ids)


class TestMatchesPerStartOracle:
    """The shared-table DP against the per-start DP it replaced, bit for bit
    at every segment cost of one call. Quarter marginals over repeated label
    runs tie both the objective and the segment count between different
    label sequences; c of 2**40 and 1e15 round distinct step sums to the
    same candidate, which only the recomputed first-argmin rank resolves.
    Such ties go both ways: the oracle counts the ones a new copy wins and
    the ones the held decode keeps, and each must occur."""

    GRID = (0.0, 0.25, 0.5, 2.0**40, 1e15)

    def test_quarter_marginals_over_label_runs(self, rng, monkeypatch):
        recomputed = []
        first_rank = decoder._first_rank

        def counted(*args):
            recomputed.append(args)
            return first_rank(*args)

        monkeypatch.setattr(decoder, "_first_rank", counted)
        ties = Counter()
        for i in range(150):
            rows = [run_labels(rng, 3) for _ in range(int(rng.integers(1, 5)))]
            neighbors = labels_only_set(rows)
            seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
            marginals = quarter_marginals(rng, int(rng.integers(1, 21)), neighbors)
            results = dp_decode_expected(marginals, seg_dict, self.GRID)
            assert len(results) == len(self.GRID)
            for c, result in zip(self.GRID, results):
                expected = per_start_decode_expected(marginals, seg_dict, c, ties)
                assert result == expected, f"instance {i}, c={c}"
        assert recomputed, "no instance reached the rank recomputation"
        assert ties["won"] and ties["kept"], f"both tie outcomes must occur: {ties}"

    def test_random_marginals_at_huge_costs(self, rng):
        for i in range(60):
            neighbors = make_neighbor_set(
                rng, n_neighbors=int(rng.integers(1, 5)), max_len=8, n_types=3
            )
            seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
            marginals = make_marginals(rng, int(rng.integers(1, 15)), neighbors)
            expected = tuple(
                per_start_decode_expected(marginals, seg_dict, c) for c in self.GRID
            )
            assert dp_decode_expected(marginals, seg_dict, self.GRID) == expected, (
                f"instance {i}"
            )


class TestSegmentCostCheck:
    @pytest.mark.parametrize("pos", [0, 1, 2])
    @pytest.mark.parametrize("bad", [-0.1, float("inf"), float("nan")])
    def test_dp_decode_rejects_bad_cost_before_tables(self, monkeypatch, bad, pos):
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        marginals = MarginalMatrix(probs=np.array([[0.5, 0.5]]), type_ids=(0, 1))

        def no_tables(*args):
            raise AssertionError("tables built for a bad segment cost")

        monkeypatch.setattr(decoder, "_tables", no_tables)
        costs = [0.0, 0.5, 1.0]
        costs[pos] = bad
        with pytest.raises(ValueError, match="segment_cost must be finite and non-negative"):
            dp_decode_expected(marginals, seg_dict, costs)

    def test_dp_decode_rejects_overflowing_cost_before_tables(self, monkeypatch):
        # at c=1e308 two segments of a decode sum to inf, and no copy was
        # kept at an end to trace back
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        marginals = MarginalMatrix(probs=np.array([[0.5, 0.5], [0.9, 0.1]]), type_ids=(0, 1))

        def no_tables(*args):
            raise AssertionError("tables built for an overflowing segment cost")

        monkeypatch.setattr(decoder, "_tables", no_tables)
        message = "segment_cost 1e+308 could overflow the objective of a 2-token decode"
        with pytest.raises(ValueError, match=re.escape(message)):
            dp_decode_expected(marginals, seg_dict, (0.4, 1e308))

    def test_largest_costs_accepted_decode_finitely(self):
        huge = sys.float_info.max / 8
        check_segment_cost(huge, 3)
        with pytest.raises(ValueError, match="could overflow the objective of a 5-token decode"):
            check_segment_cost(huge, 5)
        seg_dict = build_segment_dict(labels_only_set([[0, 1, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        probs = np.array([[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
        marginals = MarginalMatrix(probs=probs, type_ids=(0, 1))
        (result,) = dp_decode_expected(marginals, seg_dict, (huge,))
        assert math.isfinite(result.objective)
        assert result.labels == (0, 1, 1)
        assert len(result.segments) == 1


class TestPredictMarginal:
    def test_argmax(self):
        m = MarginalMatrix(
            probs=np.array([[0.8, 0.2], [0.1, 0.9]]), type_ids=(1, 3)
        )
        assert predict_marginal(m) == (1, 3)

    def test_tie_picks_lowest_type_id(self):
        m = MarginalMatrix(
            probs=np.array([[0.2, 0.4, 0.4], [0.4, 0.2, 0.4]]), type_ids=(2, 5, 7)
        )
        assert predict_marginal(m) == (5, 2)

    def test_matches_loop_reference(self, rng):
        # coarse probabilities make ties between several types common
        for _ in range(100):
            n_types = int(rng.integers(1, 6))
            type_ids = tuple(sorted(rng.choice(20, n_types, replace=False).tolist()))
            probs = rng.integers(0, 3, size=(int(rng.integers(1, 9)), n_types)) / 4.0
            expected = tuple(
                min(tid for tid, p in zip(type_ids, row) if p == row.max())
                for row in probs
            )
            assert predict_marginal(MarginalMatrix(probs, type_ids)) == expected


class TestDPReconstruct:
    def test_exact_copy_single_segment(self):
        seg_dict = build_segment_dict(labels_only_set([[0, 1, 2]]), DEFAULT_MAX_SEGMENT_LEN)
        result = dp_reconstruct((0, 1, 2), seg_dict, 1.0)
        assert result.labels == (0, 1, 2)
        assert len(result.segments) == 1
        assert result.objective == 1.0
        assert result.segments[0] == Segment(0, 3, 0, 0)

    def test_prefers_fewer_segments_on_cost_tie(self):
        # both [0][1] and [0,1] reconstruct exactly; with c=0 costs tie
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        result = dp_reconstruct((0, 1), seg_dict, 0.0)
        assert len(result.segments) == 1

    def test_mismatch_traded_against_segments(self):
        # gold [0, 5]: label 5 unavailable, best is one segment [0, 1]
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        result = dp_reconstruct((0, 5), seg_dict, 10.0)
        assert result.labels == (0, 1)
        assert result.objective == 11.0

    def test_empty_gold_refused(self):
        # empty sentences cannot exist upstream; all decoders refuse them
        seg_dict = build_segment_dict(labels_only_set([[0]]), DEFAULT_MAX_SEGMENT_LEN)
        with pytest.raises(ValueError):
            dp_reconstruct((), seg_dict, 1.0)
        with pytest.raises(ValueError):
            greedy_reconstruct((), seg_dict, 1.0)
        with pytest.raises(ValueError):
            brute_force_decode(seg_dict, 1.0, gold=())

    def test_matches_brute_force(self, rng):
        grid = [0.0, 0.3, 1.0, 5.0]
        for i in range(60):
            neighbors = make_neighbor_set(
                rng, n_neighbors=int(rng.integers(1, 4)), max_len=5, n_types=4
            )
            seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
            n_tokens = int(rng.integers(1, 9))
            gold = make_gold(rng, n_tokens, n_types=4)
            c = grid[i % len(grid)]
            dp = dp_reconstruct(gold, seg_dict, c)
            bf = brute_force_decode(seg_dict, c, gold=gold)
            assert dp.objective == bf.objective
            assert dp.labels == bf.labels
            if c == int(c):
                # integer costs make every intermediate exact, so the
                # segmentations must agree too; fractional costs can round
                # two groupings to the same total, and then only the
                # objective and labels are pinned down
                assert dp.segments == bf.segments
            assert_segments_consistent(
                dp, seg_dict, c, lambda j, lab: 0.0 if gold[j] == lab else 1.0
            )


class TestDPExpected:
    def test_matches_brute_force(self, rng):
        grid = [0.0, 0.3, 1.0, 5.0]
        for i in range(60):
            neighbors = make_neighbor_set(
                rng, n_neighbors=int(rng.integers(1, 4)), max_len=5, n_types=4
            )
            seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
            n_tokens = int(rng.integers(1, 9))
            marginals = make_marginals(rng, n_tokens, neighbors)
            c = grid[i % len(grid)]
            dp = dp_decode_expected(marginals, seg_dict, (c,))[0]
            bf = brute_force_decode(seg_dict, c, marginals=marginals)
            assert dp.objective == bf.objective
            assert dp.labels == bf.labels
            # continuous costs round, so exact ties between different
            # segmentations are not reproducible; check the segments
            # against the dictionary and the objective instead
            col_of = column_index(marginals)
            probs = marginals.probs
            assert_segments_consistent(
                dp,
                seg_dict,
                c,
                lambda j, lab: 1.0
                if col_of.get(lab) is None
                else 1.0 - float(probs[j, col_of[lab]]),
            )

    def test_zero_cost_reduces_to_marginal(self, rng):
        for _ in range(40):
            neighbors = make_neighbor_set(rng, n_neighbors=2, max_len=4, n_types=3)
            seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
            marginals = make_marginals(rng, int(rng.integers(1, 7)), neighbors)
            result = dp_decode_expected(marginals, seg_dict, (0.0,))[0]
            assert result.labels == predict_marginal(marginals)

    def test_expected_equals_reconstruct_on_onehot(self, rng):
        # degenerate marginals turn expected cost into the 0/1 mismatch cost
        neighbors = make_neighbor_set(rng, n_neighbors=2, max_len=4, n_types=3)
        seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
        type_ids = present_types(neighbors)
        gold = tuple(
            int(type_ids[int(v)])
            for v in np.random.default_rng(5).integers(0, len(type_ids), size=5)
        )
        probs = np.zeros((5, len(type_ids)))
        for t, g in enumerate(gold):
            probs[t, list(type_ids).index(g)] = 1.0
        marginals = MarginalMatrix(probs=probs, type_ids=type_ids)
        for c in (0.0, 0.7, 2.0):
            a = dp_decode_expected(marginals, seg_dict, (c,))[0]
            b = dp_reconstruct(gold, seg_dict, c)
            assert a.objective == b.objective
            assert a.labels == b.labels
            assert a.segments == b.segments

    def test_rejects_no_segment_costs_before_any_work(self, monkeypatch):
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        marginals = MarginalMatrix(probs=np.array([[0.5, 0.5]]), type_ids=(0, 1))

        def no_tables(*args):
            raise AssertionError("tables built for no segment cost")

        monkeypatch.setattr(decoder, "_tables", no_tables)
        for costs in ((), np.array([])):
            with pytest.raises(ValueError, match="no segment cost"):
                dp_decode_expected(marginals, seg_dict, costs)

    def test_numpy_costs_decode_as_the_equal_tuple(self):
        seg_dict = build_segment_dict(labels_only_set([[0, 1], [1, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        probs = np.array([[0.4, 0.6], [0.7, 0.3], [0.2, 0.8]])
        marginals = MarginalMatrix(probs=probs, type_ids=(0, 1))
        for costs in ((0.0,), (0.0, 0.5, 2.0)):
            expected = dp_decode_expected(marginals, seg_dict, costs)
            assert dp_decode_expected(marginals, seg_dict, np.array(costs)) == expected

    def test_rows_must_be_distributions(self, rng):
        neighbors = make_neighbor_set(rng, n_neighbors=1, max_len=3, n_types=2)
        seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
        bad = MarginalMatrix(
            probs=np.full((2, len(present_types(neighbors))), 0.9),
            type_ids=present_types(neighbors),
        )
        with pytest.raises(ValueError):
            dp_decode_expected(bad, seg_dict, (0.0,))

    @pytest.mark.parametrize("row", [[np.nan, 0.5], [np.nan, np.nan], [1.0, np.nan]])
    def test_rows_must_not_hold_nan(self, row):
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        bad = MarginalMatrix(probs=np.array([row]), type_ids=(0, 1))
        with pytest.raises(ValueError, match="probability distributions"):
            dp_decode_expected(bad, seg_dict, (0.4,))

    def test_monotone_in_cost(self, rng):
        # raising c can only shrink the segment count and raise the
        # mislabeling part of the objective
        for _ in range(10):
            neighbors = make_neighbor_set(rng, n_neighbors=3, max_len=5, n_types=4)
            seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
            marginals = make_marginals(rng, 8, neighbors)
            prev_segments = None
            prev_cost = None
            for c in np.arange(0.0, 2.01, 0.1):
                result = dp_decode_expected(marginals, seg_dict, (float(c),))[0]
                n_seg = len(result.segments)
                mis_cost = result.objective - n_seg * float(c)
                if prev_segments is not None:
                    assert n_seg <= prev_segments
                    assert mis_cost >= prev_cost - 1e-9
                prev_segments = n_seg
                prev_cost = mis_cost


class TestGreedy:
    def test_never_beats_dp(self, rng):
        for _ in range(40):
            neighbors = make_neighbor_set(rng, n_neighbors=2, max_len=5, n_types=3)
            seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
            gold = make_gold(rng, int(rng.integers(1, 8)), n_types=3)
            c = float(rng.uniform(0, 3))
            greedy = greedy_reconstruct(gold, seg_dict, c)
            dp = dp_reconstruct(gold, seg_dict, c)
            assert greedy.objective >= dp.objective

    def test_fixture_greedy_uses_more_segments(self):
        # Greedy grabs the clean [A] segment, then pays for a second one;
        # DP accepts one mismatch inside a single longer segment.
        seg_dict = build_segment_dict(labels_only_set([[0, 2], [1]]), DEFAULT_MAX_SEGMENT_LEN)
        gold = (0, 1)
        greedy = greedy_reconstruct(gold, seg_dict, 5.0)
        dp = dp_reconstruct(gold, seg_dict, 5.0)
        assert len(greedy.segments) == 2
        assert len(dp.segments) == 1
        assert greedy.objective == 10.0
        assert dp.objective == 6.0
        assert greedy.labels == (0, 1)
        assert dp.labels == (0, 2)

    def test_feasible_output(self, rng):
        neighbors = make_neighbor_set(rng, n_neighbors=2, max_len=4, n_types=3)
        seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
        gold = make_gold(rng, 6, n_types=3)
        result = greedy_reconstruct(gold, seg_dict, 0.5)
        assert len(result.labels) == 6
        covered = sum(seg.length for seg in result.segments)
        assert covered == 6


class TestBruteForceGuards:
    def test_rejects_long_inputs(self):
        seg_dict = build_segment_dict(labels_only_set([[0, 1]]), DEFAULT_MAX_SEGMENT_LEN)
        with pytest.raises(ValueError, match="positions"):
            brute_force_decode(seg_dict, 0.0, gold=tuple([0] * 13))

    def test_requires_exactly_one_mode(self, rng):
        neighbors = make_neighbor_set(rng, n_neighbors=1, max_len=3, n_types=2)
        seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
        marginals = make_marginals(rng, 2, neighbors)
        with pytest.raises(ValueError):
            brute_force_decode(seg_dict, 0.0)
        with pytest.raises(ValueError):
            brute_force_decode(seg_dict, 0.0, gold=(0, 1), marginals=marginals)

    def test_combination_limit(self):
        # a rich dictionary over 12 positions explodes combinatorially
        rows = [[int(v) for v in np.random.default_rng(1).integers(0, 6, 20)]]
        seg_dict = build_segment_dict(labels_only_set(rows), DEFAULT_MAX_SEGMENT_LEN)
        with pytest.raises(ValueError, match="combinations"):
            brute_force_decode(seg_dict, 0.0, gold=tuple([0] * 12))


class TestProvenance:
    def test_line_format(self):
        seg_dict = build_segment_dict(labels_only_set([[0, 1, 2]]), DEFAULT_MAX_SEGMENT_LEN)
        result = dp_reconstruct((0, 1, 2), seg_dict, 1.0)
        lines = provenance_lines(result, ("O", "PER", "LOC"))
        assert lines == ["seg 0 3 from=neighbor:0 offset:0 labels=O,PER,LOC"]
