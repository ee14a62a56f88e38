"""The benchmark's tracer wraps copytag callables by name.

perfbench/tracing.py looks each target up in its owner's __dict__ and
raises KeyError when one is missing, which otherwise surfaces only in the
slow benchmark tests. Loading the file by path checks every name here;
a tiny traced fine_tune and traced tags of a long sentence check that
the wrappers' counters still read what the wrapped functions return
(the dictionary's node count against the per-level oracle's), a traced
Tagger checks that its db is embedded in one batch outside the traced
embed, a traced sweep after a Tagger checks that it embeds no db
sentence again and that the neighbor counters read the sets both built
off one index, and a traced sweep checks that it decodes each sentence
once for its whole grid.
"""

import importlib.util
from pathlib import Path

import copytag.evaluation as evaluation
import copytag.tagging as tagging
import copytag.trainer as trainer
from copytag.embeddings import EmbedderParams, HashedWindowEmbedder
from copytag.synthetic import suffix_corpus, toy_ner_corpus
from copytag.decoder import DEFAULT_MAX_SEGMENT_LEN
from copytag.tagging import DECODE_DP, Tagger

from decoder_reference import per_level_segment_dict

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("copytag_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _enclosing(spans, k) -> list[str]:
    """Names of the spans that enclose span k, innermost first."""
    names = []
    k = spans[k][3]
    while k >= 0:
        names.append(spans[k][0])
        k = spans[k][3]
    return names


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
        return HashedWindowEmbedder(EmbedderParams(dim=8, n_buckets=128, window=1, seed=1))

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

    # the index embeds its db in one batch, inside build_index's own span
    # and outside the traced embed: the one embed span is the query's
    spans = tracer.spans
    embeds = [k for k, span in enumerate(spans) if span[0] == "embeddings.embed"]
    assert len(embeds) == 1
    assert "tagging.tag" in _enclosing(spans, embeds[0])
    assert "retrieval.build_index" not in _enclosing(spans, embeds[0])
    assert tracer.counts["embed_tokens"] == 40
    index_tokens = sum(len(item) for item in db.items)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["retrieval.index_tokens"] == index_tokens
    assert metrics["embeddings.embed_s"] > 0


def test_traced_dp_tag_counts_the_oracle_dictionary_nodes():
    tracing = _load_tracing()
    db = suffix_corpus(6, seed=7, min_len=40, max_len=40)
    sentence = suffix_corpus(1, seed=8, min_len=30, max_len=30).items[0].sentence
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.recording = True
        with tracer.phase("tag"):
            tagger = Tagger(HashedWindowEmbedder(), db, 4)
            tagged = tagger.tag(sentence, decode=DECODE_DP)
        tracer.recording = False

    cap = min(len(sentence), DEFAULT_MAX_SEGMENT_LEN)
    oracle = per_level_segment_dict(tagged.analysis.neighbors, cap)
    assert tracer.counts["segdict_nodes"] == oracle.node_count > len(sentence)
    assert tracing.layer_metrics(tracer)["decoder.segdict_nodes"] == oracle.node_count
    assert len([span for span in tracer.spans if span[0] == "decoder.segdict"]) == 1


def test_traced_sweep_after_tagger_embeds_only_the_swept_sentences():
    tracing = _load_tracing()
    db = toy_ner_corpus(6, seed=7)
    data = toy_ner_corpus(3, seed=8)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.recording = True
        with tracer.phase("setup"):
            tagger = Tagger(HashedWindowEmbedder(), db, 3)
        embed_tokens = tracer.counts["embed_tokens"]
        with tracer.phase("sweep"):
            evaluation.sweep_c([0.0, 1.0], tagger.provider, db, data, 3)
        tracer.recording = False

    # setup embeds the db in one batch, outside the traced embed
    spans = tracer.spans
    embeds = [k for k, span in enumerate(spans) if span[0] == "embeddings.embed"]
    assert embed_tokens == 0
    assert len(embeds) == len(data.items)
    assert all("phase.sweep" in _enclosing(spans, k) for k in embeds)
    swept_tokens = sum(len(item) for item in data.items)
    assert tracer.counts["embed_tokens"] == swept_tokens
    # the tracer counts index tokens from build_index's arguments
    metrics = tracing.layer_metrics(tracer)
    assert metrics["retrieval.index_tokens"] == 2 * sum(len(item) for item in db.items)


def test_traced_tagger_then_sweep_files_neighbors_under_one_index(monkeypatch):
    # the tracer reads assemble_neighbor_set's arguments: the index first,
    # then the ids
    tracing = _load_tracing()
    db = toy_ner_corpus(6, seed=7)
    data = toy_ner_corpus(3, seed=8)
    sets = []
    assemble = tagging.assemble_neighbor_set

    def recording(index, ids):
        sets.append(assemble(index, ids))
        return sets[-1]

    monkeypatch.setattr(tagging, "assemble_neighbor_set", recording)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.recording = True
        with tracer.phase("tag"):
            tagger = Tagger(HashedWindowEmbedder(), db, 3)
            for item in data.items:
                tagger.tag(item.sentence)
        with tracer.phase("sweep"):
            evaluation.sweep_c([0.0, 1.0], tagger.provider, db, data, 3)
        tracer.recording = False

    assert len(sets) == 2 * len(data.items)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["retrieval.neighbor_tokens"] == sum(ns.n_total for ns in sets)
    assert list(tracer.neighbor_ids) == [id(tagger.index)]
    ids = {sid for ns in sets for sid in ns.ids.tolist()}
    assert tracer.neighbor_ids[id(tagger.index)] == ids
    assert tracer.counts["neighbor_ids"] == sum(len(ns.ids) for ns in sets)


def test_traced_sweep_decodes_each_sentence_once_for_the_grid():
    tracing = _load_tracing()
    db = toy_ner_corpus(6, seed=7)
    data = toy_ner_corpus(3, seed=8)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.recording = True
        with tracer.phase("sweep"):
            rows = evaluation.sweep_c(
                [0.0, 0.4, 1.0, 2.0], HashedWindowEmbedder(), db, data, 3
            )
        tracer.recording = False

    assert len(rows) == 4
    decodes = [span for span in tracer.spans if span[0] == "decoder.dp"]
    assert len(decodes) == len(data.items)
