import numpy as np
import pytest

from copytag.copy_model import (
    MarginalMatrix,
    copy_logits,
    copy_posterior,
    grad_wrt_input,
    marginal_over_types,
    nll,
)
from copytag.retrieval import assemble_neighbor_set

from conftest import (
    corpus_order,
    index_over,
    make_gold,
    make_neighbor_set,
    make_scored_set,
    make_tagged_corpus,
    present_types,
)
from marginals_reference import grad_masked, marginal_over_types_masked, nll_masked


def random_case(rng, n_tokens=3, dim=6, **kwargs):
    neighbors, rows = make_scored_set(rng, dim=dim, **kwargs)
    x = rng.normal(size=(n_tokens, dim))
    posterior = copy_posterior(copy_logits(x, rows))
    return x, neighbors, posterior


class TestPosterior:
    def test_rows_sum_to_one(self, rng):
        for _ in range(50):
            _, _, posterior = random_case(rng)
            sums = np.exp(posterior).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) < 1e-9)

    def test_shift_invariance(self, rng):
        neighbors, rows = make_scored_set(rng)
        x = rng.normal(size=(3, 6))
        logits = copy_logits(x, rows)
        shifted = logits + 123.456  # constant shift per row cancels in softmax
        a = np.exp(copy_posterior(logits))
        b = np.exp(copy_posterior(shifted))
        assert np.allclose(a, b, atol=1e-12)

    def test_extreme_logits_stable(self):
        logits = np.array([[1e9, 1e9 - 1.0], [-1e9, -1e9 + 1.0]])
        probs = np.exp(copy_posterior(logits))
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_logits_shape_checked(self, rng):
        _, rows = make_scored_set(rng, dim=6)
        with pytest.raises(ValueError):
            copy_logits(np.ones((2, 5)), rows)
        with pytest.raises(ValueError):
            copy_logits(np.ones(6), rows)

    def test_log_probs_read_only(self, rng):
        _, _, posterior = random_case(rng)
        with pytest.raises(ValueError):
            posterior[0, 0] = 0.0


class TestMarginals:
    def test_rows_sum_to_one(self, rng):
        for _ in range(50):
            _, neighbors, posterior = random_case(rng)
            marginals = marginal_over_types(posterior, neighbors)
            assert np.all(np.abs(marginals.probs.sum(axis=1) - 1.0) < 1e-9)

    def test_column_order_is_ascending_type_id(self, rng):
        for _ in range(20):
            _, neighbors, posterior = random_case(
                rng,
                n_neighbors=int(rng.integers(1, 6)),
                max_len=6,
                n_types=int(rng.integers(1, 8)),
            )
            marginals = marginal_over_types(posterior, neighbors)
            assert marginals.type_ids == tuple(sorted(set(neighbors.flat_labels.tolist())))
            assert all(type(t) is int for t in marginals.type_ids)

    def test_column_order_is_first_appearance(self, rng):
        # type ids are vocabulary ids, given in first-appearance order over
        # the corpus, so ascending columns read the labels in that order
        for _ in range(20):
            db, matrices = make_tagged_corpus(rng)
            index = index_over(db, matrices)
            ids = [int(v) for v in rng.permutation(len(db))[: int(rng.integers(1, 4))]]
            neighbors = assemble_neighbor_set(index, ids)
            x = rng.normal(size=(2, 4))
            rows = index.token_rows.take(neighbors.rows, axis=0)
            marginals = marginal_over_types(
                copy_posterior(copy_logits(x, rows)), neighbors
            )
            names = [db.vocab.types[t] for t in marginals.type_ids]
            assert names == corpus_order(db, names)

    @pytest.mark.parametrize("type_ids", [(2, 1), (1, 1), (-1, 0)])
    def test_rejects_unordered_type_ids(self, type_ids):
        with pytest.raises(ValueError, match="strictly ascending"):
            MarginalMatrix(probs=np.full((1, 2), 0.5), type_ids=type_ids)

    def test_mass_assignment(self, rng):
        _, neighbors, posterior = random_case(rng)
        marginals = marginal_over_types(posterior, neighbors)
        flat = neighbors.flat_labels
        for col, tid in enumerate(marginals.type_ids):
            expected = np.exp(posterior)[:, flat == tid].sum(axis=1)
            assert np.allclose(marginals.probs[:, col], expected, atol=1e-12)

    def test_matches_masked_oracle_bit_for_bit(self, rng):
        # wide sets too, with one-token inputs, whose row sums are pairwise
        for i in range(60):
            n_types = int(rng.integers(1, 10))
            neighbors, rows = make_scored_set(
                rng,
                n_neighbors=int(rng.integers(1, 40)),
                max_len=int(rng.integers(1, 60)),
                n_types=n_types,
            )
            n_tokens = (1, 2, 8, int(rng.integers(1, 12)))[i % 4]
            x = rng.normal(size=(n_tokens, 6)) * rng.choice([0.1, 1.0, 10.0])
            posterior = copy_posterior(copy_logits(x, rows))
            got = marginal_over_types(posterior, neighbors)
            want = marginal_over_types_masked(posterior, neighbors.flat_labels)
            assert got.type_ids == want.type_ids
            assert got.probs.tobytes() == want.probs.tobytes()

    def test_width_mismatch_checked(self, rng):
        _, neighbors, posterior = random_case(rng)
        other = make_neighbor_set(rng, n_neighbors=4, max_len=5, dim=6)
        if other.n_total != neighbors.n_total:
            with pytest.raises(ValueError):
                marginal_over_types(posterior, other)


class TestNll:
    def test_matches_direct_sum(self, rng):
        for _ in range(20):
            _, neighbors, posterior = random_case(rng)
            gold = make_gold(rng, posterior.shape[0], n_types=4)
            report = nll(posterior, neighbors, gold)
            flat = neighbors.flat_labels
            expected = 0.0
            for t, g in enumerate(gold):
                mass = np.exp(posterior)[t, flat == g].sum()
                if mass > 0:
                    expected += -np.log(mass)
            if report.skipped == 0:
                assert report.nll == pytest.approx(expected, rel=1e-9)

    def test_skipped_positions(self, rng):
        _, neighbors, posterior = random_case(rng, n_tokens=2)
        types = present_types(neighbors)
        absent = max(types) + 1
        gold = (absent, types[0])
        report = nll(posterior, neighbors, gold)
        assert report.skipped == 1
        # only the scorable token counts toward the sum
        mass = np.exp(posterior)[1, neighbors.flat_labels == gold[1]].sum()
        assert report.nll == pytest.approx(-np.log(mass), rel=1e-9)

    def test_perfect_copy_low_loss(self, rng):
        # one neighbor token exactly matching the input embedding dominates
        neighbors, rows = make_scored_set(rng, n_neighbors=1, max_len=3, dim=4)
        x = rows[:1] * 50.0
        posterior = copy_posterior(copy_logits(x, rows))
        gold = (int(neighbors.flat_labels[0]),)
        report = nll(posterior, neighbors, gold)
        assert report.nll < 0.1

    def test_length_mismatch(self, rng):
        _, neighbors, posterior = random_case(rng, n_tokens=3)
        with pytest.raises(ValueError):
            nll(posterior, neighbors, (0,))


class TestGradient:
    def test_matches_finite_differences(self, rng):
        step = 1e-5
        for _ in range(20):
            neighbors, rows = make_scored_set(
                rng, n_neighbors=2, max_len=4, n_types=3, dim=5
            )
            n_tokens = int(rng.integers(1, 4))
            x = rng.normal(size=(n_tokens, 5))
            gold = make_gold(rng, n_tokens, n_types=3)

            def loss(mat):
                post = copy_posterior(copy_logits(mat, rows))
                return nll(post, neighbors, gold).nll

            posterior = copy_posterior(copy_logits(x, rows))
            grad = grad_wrt_input(posterior, neighbors, gold, rows)
            assert grad.shape == x.shape
            for t in range(n_tokens):
                for k in range(5):
                    up = x.copy()
                    up[t, k] += step
                    down = x.copy()
                    down[t, k] -= step
                    numeric = (loss(up) - loss(down)) / (2 * step)
                    denom = max(1.0, abs(numeric))
                    assert abs(numeric - grad[t, k]) / denom < 1e-4

    def test_loss_and_gradient_match_per_token_masks_bit_for_bit(self, rng):
        # gold types repeat across tokens and some are absent, so tokens
        # share one type's columns and skipped tokens mix with scored ones
        for _ in range(40):
            neighbors, rows = make_scored_set(
                rng,
                n_neighbors=int(rng.integers(1, 12)),
                max_len=int(rng.integers(1, 20)),
                n_types=4,
                dim=5,
            )
            n_tokens = int(rng.integers(1, 30))
            x = rng.normal(size=(n_tokens, 5)) * rng.choice([0.1, 1.0, 10.0])
            gold = make_gold(rng, n_tokens, n_types=6)
            posterior = copy_posterior(copy_logits(x, rows))
            flat = neighbors.flat_labels
            report = nll(posterior, neighbors, gold)
            total, skipped = nll_masked(posterior, flat, gold)
            assert (report.nll, report.skipped) == (total, skipped)
            grad = grad_wrt_input(posterior, neighbors, gold, rows)
            assert grad.tobytes() == grad_masked(posterior, flat, gold, rows).tobytes()

    def test_skipped_rows_zero(self, rng):
        neighbors, rows = make_scored_set(rng)
        posterior = copy_posterior(copy_logits(rng.normal(size=(2, 6)), rows))
        types = present_types(neighbors)
        absent = max(types) + 1
        gold = (absent, types[0])
        grad = grad_wrt_input(posterior, neighbors, gold, rows)
        assert np.array_equal(grad[0], np.zeros(grad.shape[1]))
        assert not np.array_equal(grad[1], np.zeros(grad.shape[1]))
