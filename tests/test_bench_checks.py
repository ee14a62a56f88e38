"""The benchmark's output checks hold on the program's own outputs.

perfbench/checks.py recomputes each check from the tagger's intermediate
results (marginal type ids and probabilities, retrieved neighbor
entries), so a change to those structures breaks the benchmark even when
every output stays the same. Loading the file by path runs its checks on
tags and a sweep of the two golden shapes.
"""

import importlib.util
from pathlib import Path

import pytest

from copytag.evaluation import sweep_c, token_accuracy
from copytag.tagging import DECODE_DP, DECODE_MARGINAL, Tagger, predictions_dataset
from copytag.trainer import TrainConfig, fine_tune

from test_golden import SHAPES

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
C_GRID = (0.0, 0.2, 0.4, 0.8)


def _load_checks():
    spec = importlib.util.spec_from_file_location("copytag_bench_checks", CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


@pytest.mark.parametrize("shape", list(SHAPES))
def test_checks_pass_on_golden_shape(shape):
    checks = _load_checks()
    spec = SHAPES[shape]
    db, data = spec["db"](), spec["input"]()
    k = int(spec["neighbors"])
    config = TrainConfig(epochs=1, batch_size=8, train_neighbors=5, seed=3)
    provider = fine_tune(config, db).provider()
    tagger = Tagger(provider, db, k)
    types = db.vocab.types

    marginal = []
    problems = []
    for item in data.items:
        tagged = tagger.tag(item.sentence, decode=DECODE_MARGINAL)
        marginal.append(tagged)
        problems += checks.check_marginal(tagged, types)
        tagged = tagger.tag(item.sentence, decode=DECODE_DP, segment_cost=0.3)
        problems += checks.check_dp(tagged, types)

    rows = sweep_c(C_GRID, provider, db, data, k)
    accuracy = token_accuracy(predictions_dataset(marginal), data)
    problems += checks.check_sweep(rows, C_GRID, accuracy)
    assert problems == []
