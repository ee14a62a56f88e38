"""The benchmark's tracer wraps copytag callables by name.

perfbench/tracing.py looks each target up in its owner's __dict__ and
raises KeyError when one is missing, which otherwise surfaces only in the
slow benchmark tests. Loading the file by path checks every name here;
a tiny traced fine_tune and a traced tag of a long sentence check that
the wrappers' counters still read what the wrapped functions return.
"""

import importlib.util
from pathlib import Path

import copytag.trainer as trainer
from copytag.embeddings import HashedWindowEmbedder
from copytag.synthetic import suffix_corpus
from copytag.tagging import Tagger

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("copytag_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = _load_tracing()
    targets = tracing._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_fine_tune_counts_adam_columns(monkeypatch):
    tracing = _load_tracing()
    config = trainer.TrainConfig(
        epochs=2, batch_size=3, train_neighbors=3, test_neighbors=3, seed=2
    )
    train = suffix_corpus(8, seed=3)

    def provider():
        return HashedWindowEmbedder(dim=8, n_buckets=128, window=1, seed=1)

    plain = trainer.save_checkpoint(
        trainer.fine_tune(config, train, provider=provider())
    )

    columns = []
    adam_update = trainer.adam_update

    def counted(params, grads, *args, **kwargs):
        columns.append(grads.columns.size)
        return adam_update(params, grads, *args, **kwargs)

    monkeypatch.setattr(trainer, "adam_update", counted)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.recording = True
        with tracer.phase("train"):
            checkpoint = trainer.fine_tune(config, train, provider=provider())
        tracer.recording = False
    assert trainer.save_checkpoint(checkpoint) == plain

    steps = [span for span in tracer.spans if span[0] == "trainer.adam"]
    assert len(steps) == len(columns) == 2 * 3
    assert tracer.counts["adam_columns"] == sum(columns) > 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["trainer.adam_columns"] == sum(columns)
    assert metrics["embeddings.backprop_s"] > 0
    assert tracing.phase_coverage(tracer)["train"] > 0


def test_traced_tagging_attributes_the_embedding_kernel():
    # a 40-token suffix sentence takes the blocked forward path, which
    # must stay inside the traced embed call
    tracing = _load_tracing()
    db = suffix_corpus(5, seed=7, min_len=40, max_len=40)
    sentence = suffix_corpus(1, seed=8, min_len=40, max_len=40).items[0].sentence
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.recording = True
        with tracer.phase("tag"):
            Tagger(HashedWindowEmbedder(), db, 3).tag(sentence)
        tracer.recording = False

    index_tokens = sum(len(item) for item in db.items)
    embeds = [span for span in tracer.spans if span[0] == "embeddings.embed"]
    assert len(embeds) == len(db.items) + 1
    assert tracer.counts["embed_tokens"] == index_tokens + 40
    metrics = tracing.layer_metrics(tracer)
    assert metrics["retrieval.index_tokens"] == index_tokens
    assert metrics["embeddings.embed_s"] > 0
