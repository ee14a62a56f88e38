"""Acceptance gate: ten end-to-end checks with pinned tolerances and budgets.

Each test prints one "criterion NN [...]: PASS/FAIL" line (visible under
pytest -s; under plain pytest the verdict is the test's own PASSED/FAILED
line). A criterion that runs over its wall-clock budget fails.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from copytag.cli import main
from copytag.copy_model import (
    copy_logits,
    copy_posterior,
    grad_wrt_input,
    marginal_over_types,
    nll,
)
from copytag.corpus import Sentence, parse_conll, relabel, write_conll
from copytag.decoder import (
    DEFAULT_MAX_SEGMENT_LEN,
    build_segment_dict,
    dp_decode_expected,
    predict_marginal,
)
from copytag.embeddings import EmbedderParams, HashedWindowEmbedder
from copytag.evaluation import zero_shot_eval
from copytag.synthetic import suffix_corpus, toy_ner_corpus
from copytag.tagging import Tagger
from copytag.trainer import (
    TrainConfig,
    fine_tune,
    load_checkpoint,
    save_checkpoint,
)

from conftest import (
    column_index,
    labels_only_set,
    make_marginals,
    make_neighbor_set,
    make_scored_set,
    present_types,
)
from decoder_reference import brute_force_decode, dp_reconstruct, greedy_reconstruct
from param_columns import column, set_column


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\ncriterion {number:2d} [{title}]: FAIL ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(
            f"\ncriterion {number:2d} [{title}]: FAIL "
            f"(over budget: {elapsed:.1f}s >= {budget_s:g}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget_s:g}s budget: {elapsed:.1f}s"
        )
    print(
        f"\ncriterion {number:2d} [{title}]: PASS "
        f"({elapsed:.1f}s, budget {budget_s:g}s)"
    )


def test_criterion_01_posterior_rows_normalize():
    rng = np.random.default_rng(101)
    with criterion(1, "posterior rows sum to one +-1e-9, 1000 instances", 10.0):
        for i in range(1000):
            _, rows = make_scored_set(
                rng, n_neighbors=int(rng.integers(1, 4)), max_len=5, n_types=4
            )
            n_tokens = int(rng.integers(1, 7))
            scale = (1.0, 10.0, 100.0)[i % 3]
            x = rng.normal(size=(n_tokens, 6)) * scale
            posterior = copy_posterior(copy_logits(x, rows))
            sums = np.exp(posterior).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-9), f"instance {i}: {sums}"


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(202)
    step = 1e-5
    with criterion(2, "loss gradients vs finite differences, 200 instances", 30.0):
        for i in range(200):
            dim = int(rng.integers(2, 9))
            neighbors, rows = make_scored_set(
                rng, n_neighbors=int(rng.integers(1, 3)), max_len=5,
                n_types=3, dim=dim,
            )
            n_tokens = int(rng.integers(1, 5))
            # one absent type id per fifth instance exercises skipped rows
            pool = list(present_types(neighbors)) + ([99] if i % 5 == 0 else [])
            gold = tuple(pool[int(v)] for v in rng.integers(0, len(pool), n_tokens))

            def loss_at(x):
                post = copy_posterior(copy_logits(x, rows))
                return nll(post, neighbors, gold).nll

            x0 = rng.normal(size=(n_tokens, dim))
            posterior = copy_posterior(copy_logits(x0, rows))
            analytic = grad_wrt_input(posterior, neighbors, gold, rows)
            fd = np.zeros_like(x0)
            for t in range(n_tokens):
                for d in range(dim):
                    up = x0.copy(); up[t, d] += step
                    dn = x0.copy(); dn[t, d] -= step
                    fd[t, d] = (loss_at(up) - loss_at(dn)) / (2 * step)
            np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)

            # chain through the embedder on a couple of active columns
            params = EmbedderParams(dim=dim, n_buckets=128, window=1, seed=i)
            tokens = tuple(
                "".join(chr(97 + int(c)) for c in rng.integers(0, 26, 3))
                for _ in range(n_tokens)
            )
            sent = Sentence(0, tokens)
            e0 = HashedWindowEmbedder(params).embed(sent)
            post = copy_posterior(copy_logits(e0, rows))
            d_input = grad_wrt_input(post, neighbors, gold, rows)
            provider = HashedWindowEmbedder(params)
            col_grads = provider.backprop(sent, provider.token_columns(sent), d_input, provider.embed(sent))
            for col, grad in zip(col_grads.columns[:2].tolist(), col_grads.grad):
                base = column(params, col)
                fd_col = np.zeros(dim)
                for d in range(dim):
                    bump = np.zeros(dim); bump[d] = step
                    set_column(params, col, base + bump)
                    up_loss = nll(
                        copy_posterior(
                            copy_logits(HashedWindowEmbedder(params).embed(sent), rows)
                        ),
                        neighbors, gold,
                    ).nll
                    set_column(params, col, base - bump)
                    dn_loss = nll(
                        copy_posterior(
                            copy_logits(HashedWindowEmbedder(params).embed(sent), rows)
                        ),
                        neighbors, gold,
                    ).nll
                    fd_col[d] = (up_loss - dn_loss) / (2 * step)
                    set_column(params, col, base)
                np.testing.assert_allclose(grad, fd_col, rtol=1e-4, atol=1e-7)


def _grid_instance(rng):
    neighbors = make_neighbor_set(
        rng, n_neighbors=int(rng.integers(1, 4)), max_len=5, n_types=4
    )
    seg_dict = build_segment_dict(neighbors, DEFAULT_MAX_SEGMENT_LEN)
    n_tokens = int(rng.integers(1, 9))
    return neighbors, seg_dict, n_tokens


def test_criterion_03_dp_equals_brute_force():
    rng = np.random.default_rng(303)
    grid = (0.0, 0.3, 1.0, 5.0)
    with criterion(3, "dp objective == brute force on 500 instances", 60.0):
        for i in range(500):
            neighbors, seg_dict, n_tokens = _grid_instance(rng)
            c = grid[i % 4]
            pool = list(present_types(neighbors)) + [99]
            gold = tuple(pool[int(v)] for v in rng.integers(0, len(pool), n_tokens))
            dp_g = dp_reconstruct(gold, seg_dict, c)
            bf_g = brute_force_decode(seg_dict, c, gold=gold)
            assert abs(dp_g.objective - bf_g.objective) <= 1e-9, f"instance {i}"

            marginals = make_marginals(rng, n_tokens, neighbors)
            dp_m = dp_decode_expected(marginals, seg_dict, (c,))[0]
            bf_m = brute_force_decode(seg_dict, c, marginals=marginals)
            assert abs(dp_m.objective - bf_m.objective) <= 1e-9, f"instance {i}"


def test_criterion_04_zero_cost_reduces_to_marginal_argmax():
    rng = np.random.default_rng(404)
    with criterion(4, "c=0 dp equals marginal argmax, 200 instances", 10.0):
        for i in range(200):
            neighbors, seg_dict, n_tokens = _grid_instance(rng)
            marginals = make_marginals(rng, n_tokens, neighbors)
            decoded = dp_decode_expected(marginals, seg_dict, (0.0,))[0]
            assert decoded.labels == predict_marginal(marginals), f"instance {i}"


def test_criterion_05_segment_cost_trades_segments_for_mistakes():
    rng = np.random.default_rng(505)
    grid = [round(0.1 * k, 10) for k in range(21)]
    instances = []
    for _ in range(50):
        neighbors, seg_dict, n_tokens = _grid_instance(rng)
        instances.append((make_marginals(rng, n_tokens, neighbors), seg_dict))
    with criterion(
        5, "raising c: fewer segments, more expected mistakes", 30.0
    ):
        total_segments = []
        total_mistakes = []
        for c in grid:
            n_segs = 0
            mistakes = 0.0
            for marginals, seg_dict in instances:
                result = dp_decode_expected(marginals, seg_dict, (c,))[0]
                n_segs += len(result.segments)
                col_of = column_index(marginals)
                for t, lab in enumerate(result.labels):
                    col = col_of.get(lab)
                    prob = 0.0 if col is None else float(marginals.probs[t, col])
                    mistakes += 1.0 - prob
            total_segments.append(n_segs)
            total_mistakes.append(mistakes)
        for a, b in zip(total_segments, total_segments[1:]):
            assert b <= a, f"segment counts rose along the grid: {total_segments}"
        for a, b in zip(total_mistakes, total_mistakes[1:]):
            assert b >= a - 1e-9, f"mistake mass fell along the grid: {total_mistakes}"


def test_criterion_06_greedy_never_beats_dp():
    rng = np.random.default_rng(606)
    grid = (0.0, 0.3, 1.0, 5.0)
    with criterion(6, "greedy objective >= dp objective, plus a strict case", 30.0):
        for i in range(200):
            neighbors, seg_dict, n_tokens = _grid_instance(rng)
            c = grid[i % 4]
            pool = list(present_types(neighbors)) + [99]
            gold = tuple(pool[int(v)] for v in rng.integers(0, len(pool), n_tokens))
            dp = dp_reconstruct(gold, seg_dict, c)
            greedy = greedy_reconstruct(gold, seg_dict, c)
            assert greedy.objective >= dp.objective - 1e-9, f"instance {i}"

        # frozen case where greedy's local choice costs it a whole segment:
        # gold (0, 1); the dictionary holds [0, 2] and [1]; greedy grabs the
        # clean [1]-after-[0] split, dp pays one mismatch for one segment
        seg_dict = build_segment_dict(labels_only_set([[0, 2], [1]]), DEFAULT_MAX_SEGMENT_LEN)
        dp = dp_reconstruct((0, 1), seg_dict, 5.0)
        greedy = greedy_reconstruct((0, 1), seg_dict, 5.0)
        assert len(greedy.segments) > len(dp.segments)
        assert greedy.objective > dp.objective


def test_criterion_07_label_renames_and_db_swaps():
    provider = HashedWindowEmbedder(EmbedderParams(dim=24, n_buckets=1024, seed=7))
    db = toy_ner_corpus(20, seed=21)
    mapping = {
        "O": "OUT", "B-PER": "PB", "I-PER": "PI",
        "B-LOC": "LB", "B-ORG": "GB", "I-ORG": "GI",
    }
    renamed = relabel(db, mapping)
    other_db = suffix_corpus(15, seed=23)
    inputs = [item.sentence for item in toy_ner_corpus(100, seed=22).items]
    with criterion(
        7, "renaming labels changes nothing but names; swapped db owns the "
        "output inventory", 10.0,
    ):
        tagger_a = Tagger(provider, db, n_neighbors=10)
        tagger_b = Tagger(provider, renamed, n_neighbors=10)
        tagger_c = Tagger(provider, other_db, n_neighbors=10)
        for sentence in inputs:
            out_a = tagger_a.tag(sentence)
            out_b = tagger_b.tag(sentence)
            assert np.array_equal(out_a.analysis.posterior, out_b.analysis.posterior)
            assert tuple(mapping[n] for n in out_a.label_names) == out_b.label_names

            out_c = tagger_c.tag(sentence)
            assert set(out_c.label_names) <= set(other_db.vocab.types)


def test_criterion_08_fine_tuning_learns_the_suffix_task():
    with criterion(
        8, "suffix task: fine-tuned dev accuracy >= 0.95 and beats frozen", 300.0
    ):
        train = suffix_corpus(500, seed=1)
        dev = suffix_corpus(60, seed=2)
        config = TrainConfig(train_neighbors=20, test_neighbors=20)
        frozen = zero_shot_eval(
            HashedWindowEmbedder(), train, dev, n_neighbors=20
        ).token_accuracy
        checkpoint = fine_tune(config, train, dev=dev)
        tuned = checkpoint.log[-1].dev_accuracy
        assert tuned >= 0.95, f"fine-tuned accuracy {tuned:.4f} below 0.95"
        assert tuned > frozen, (
            f"fine-tuning did not help: {tuned:.4f} vs frozen {frozen:.4f}"
        )


def test_criterion_09_serialization_round_trips():
    with criterion(9, "all text formats round-trip byte for byte", 10.0):
        ner = toy_ner_corpus(25, seed=31)
        text = write_conll(ner)
        assert write_conll(parse_conll(text)) == text
        sfx = suffix_corpus(10, seed=32)
        text = write_conll(sfx)
        assert write_conll(parse_conll(text)) == text

        config = TrainConfig(
            epochs=1, batch_size=4, train_neighbors=3, test_neighbors=3
        )
        checkpoint = fine_tune(
            config, suffix_corpus(8, seed=33),
            provider=HashedWindowEmbedder(EmbedderParams(dim=16, n_buckets=256, seed=4)),
        )
        ck_text = save_checkpoint(checkpoint)
        assert save_checkpoint(load_checkpoint(ck_text)) == ck_text


def test_criterion_10_cli_pipeline_with_exact_sweep_agreement(tmp_path, capsys):
    with criterion(
        10, "cli train/tag/eval/sweep succeed; sweep c=0 row == marginal eval",
        90.0,
    ):
        train = tmp_path / "train.conll"
        dev = tmp_path / "dev.conll"
        train.write_text(write_conll(toy_ner_corpus(50, seed=11)))
        dev.write_text(write_conll(toy_ner_corpus(20, seed=12)))

        ckpt = tmp_path / "model.ckpt"
        assert main(
            [
                "train", "--data", str(train), "--dev", str(dev),
                "--out", str(ckpt), "--epochs", "1", "--batch", "8",
                "--neighbors", "5",
            ]
        ) == 0
        assert "epoch 1 " in capsys.readouterr().out

        # an untrained checkpoint at 2 neighbors keeps the metrics off the
        # ceiling, so the sweep comparison below compares real numbers
        ckpt0 = tmp_path / "initial.ckpt"
        assert main(
            [
                "train", "--data", str(train), "--out", str(ckpt0),
                "--epochs", "0",
            ]
        ) == 0

        pred = tmp_path / "pred.conll"
        assert main(
            [
                "tag", "--ckpt", str(ckpt0), "--db", str(train),
                "--input", str(dev), "--out", str(pred), "--neighbors", "2",
            ]
        ) == 0

        report = tmp_path / "report.txt"
        assert main(
            [
                "eval", "--pred", str(pred), "--gold", str(dev),
                "--spans", "--report", str(report),
            ]
        ) == 0
        metrics = dict(
            line.split() for line in report.read_text().splitlines()
        )
        accuracy = float(metrics["token_accuracy"])
        assert 0.0 < accuracy < 1.0, "saturated metrics make the check vacuous"

        sweep = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep", "--ckpt", str(ckpt0), "--db", str(train),
                "--data", str(dev), "--c-grid", "0,0.4,1.2",
                "--out", str(sweep), "--neighbors", "2",
            ]
        ) == 0
        header, row0 = sweep.read_text().splitlines()[:2]
        cells = dict(zip(header.split(","), row0.split(",")))
        assert cells["c"] == "0.0000"
        for key in ("precision", "recall", "f1", "token_accuracy"):
            assert cells[key] == metrics[key], (
                f"{key}: sweep {cells[key]} != eval {metrics[key]}"
            )
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["verb"] == "sweep"
