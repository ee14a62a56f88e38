"""Spans around the calls into each copytag module, recorded from outside.

`instrument` swaps the names each caller imports (for example
copytag.tagging.assemble_neighbor_set) and a few methods for wrappers that
record a span: name, start, end and the index of the enclosing span. The
layer of a span is its name up to the first dot, which is the module it
times. Spans stay in memory; the caller writes them out when the run ends.
Nothing is recorded unless `Tracer.recording` is set, and `instrument`
restores every original on exit.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import copytag.corpus
import copytag.embeddings
import copytag.evaluation
import copytag.tagging
import copytag.trainer

PHASE = "phase"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.recording = False
        self._stack: list[int] = []
        # providers -> token tuples they featurized; db id -> neighbor ids
        self.featurized: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.neighbor_ids: dict[int, set[int]] = defaultdict(set)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """One benchmark operation; its span is the root of what it calls."""
        if not self.recording:
            yield
            return
        index = self._open(f"{PHASE}.{name}")
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str, before=None, after=None):
        """`fn` recording a span; before(tracer, args) and
        after(tracer, args, result) update the counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced


def _embedded(tracer, args, matrix) -> None:
    tracer.counts["embed_tokens"] += int(matrix.shape[0])


def _featurizing(tracer, args) -> None:
    # A hit is a sentence this provider has featurized before. Hashing does
    # not depend on the weights, so that work is always reusable.
    provider, sentence = args[0], args[1]
    seen = tracer.featurized.setdefault(provider, set())
    tracer.counts["featurize_calls"] += 1
    if sentence.tokens in seen:
        tracer.counts["featurize_hits"] += 1
    else:
        seen.add(sentence.tokens)


def _indexed(tracer, args, index) -> None:
    tracer.counts["index_tokens"] += sum(len(item) for item in args[0].items)


def _assembled(tracer, args, neighbors) -> None:
    dataset, ids = args[0], args[1]
    tracer.counts["neighbor_tokens"] += neighbors.n_total
    tracer.counts["neighbor_ids"] += len(ids)
    tracer.neighbor_ids[id(dataset)].update(ids)


def _scored(tracer, args, logits) -> None:
    tracer.counts["posterior_cells"] += int(logits.size)


def _trie_built(tracer, args, seg_dict) -> None:
    tracer.counts["segdict_nodes"] += seg_dict.node_count


def _adam_stepped(tracer, args, result) -> None:
    tracer.counts["adam_columns"] += len(args[1])


def _saved(tracer, args, text) -> None:
    tracer.counts["ckpt_bytes"] = len(text.encode("utf-8"))


def _targets():
    """(owner, attribute, span name, before, after) for every wrapped callable."""
    tagging = copytag.tagging
    evaluation = copytag.evaluation
    trainer = copytag.trainer
    embedder = copytag.embeddings.HashedWindowEmbedder
    tagger = tagging.Tagger
    return [
        (embedder, "embed", "embeddings.embed", None, _embedded),
        (embedder, "token_columns", "embeddings.featurize", _featurizing, None),
        (embedder, "backprop", "embeddings.backprop", None, None),
        (trainer, "_embed_columns", "embeddings.embed_columns", None, _embedded),
        (tagging, "build_index", "retrieval.build_index", None, _indexed),
        (trainer, "build_index", "retrieval.build_index", None, _indexed),
        (tagging, "query", "retrieval.query", None, None),
        (trainer, "query", "retrieval.query", None, None),
        (tagging, "assemble_neighbor_set", "retrieval.assemble", None, _assembled),
        (tagging, "copy_logits", "copy_model.logits", None, _scored),
        (trainer, "copy_logits", "copy_model.logits", None, _scored),
        (tagging, "copy_posterior", "copy_model.posterior", None, None),
        (trainer, "copy_posterior", "copy_model.posterior", None, None),
        (tagging, "marginal_over_types", "copy_model.marginals", None, None),
        (trainer, "nll", "copy_model.nll", None, None),
        (trainer, "grad_wrt_input", "copy_model.grad", None, None),
        (tagging, "build_segment_dict", "decoder.segdict", None, _trie_built),
        (tagging, "dp_decode_expected", "decoder.dp", None, None),
        (evaluation, "dp_decode_expected", "decoder.dp", None, None),
        (tagging, "predict_marginal", "decoder.argmax", None, None),
        (tagger, "__init__", "tagging.init", None, None),
        (tagger, "analyze", "tagging.analyze", None, None),
        (tagger, "segment_dict", "tagging.segment_dict", None, None),
        (tagger, "tag", "tagging.tag", None, None),
        (trainer, "fine_tune", "trainer.fine_tune", None, None),
        (trainer, "adam_update", "trainer.adam", None, _adam_stepped),
        (trainer, "save_checkpoint", "trainer.save_checkpoint", None, _saved),
        (trainer, "load_checkpoint", "trainer.load_checkpoint", None, None),
        (evaluation, "sweep_c", "evaluation.sweep_c", None, None),
        (evaluation, "token_accuracy", "evaluation.token_accuracy", None, None),
        (evaluation, "span_f1", "evaluation.span_f1", None, None),
        (trainer, "token_accuracy", "evaluation.token_accuracy", None, None),
        (evaluation, "build_dataset", "corpus.build_dataset", None, None),
        (copytag.corpus, "parse_conll", "corpus.parse_conll", None, None),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block.

    The benchmark calls fine_tune, save/load_checkpoint, sweep_c and
    parse_conll through their modules, so those calls are traced too.
    """
    saved = []
    try:
        for owner, attr, name, before, after in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer and per call, plus the layers' counters."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        by_name[span[0]] += t

    def secs(*names: str) -> float:
        return sum(by_name[n] for n in names)

    def layer(prefix: str) -> float:
        return sum(t for n, t in by_name.items() if n.split(".", 1)[0] == prefix)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    def under(parent_name: str, names: tuple[str, ...], times: list[float]) -> float:
        return sum(
            t
            for (name, _, _, parent), t in zip(spans, times)
            if name in names and parent >= 0 and spans[parent][0] == parent_name
        )

    c = tracer.counts
    whole = [end - start for _, start, end, _ in spans]
    return {
        "embeddings.self_s": layer("embeddings"),
        "embeddings.embed_s": secs("embeddings.embed", "embeddings.embed_columns"),
        "embeddings.embed_tokens": c["embed_tokens"],
        "embeddings.featurize_s": secs("embeddings.featurize"),
        "embeddings.featurize_hit_ratio": ratio(c["featurize_hits"], c["featurize_calls"]),
        "embeddings.backprop_s": secs("embeddings.backprop"),
        "retrieval.self_s": layer("retrieval"),
        "retrieval.build_index_s": secs("retrieval.build_index"),
        "retrieval.index_tokens": c["index_tokens"],
        "retrieval.query_s": secs("retrieval.query"),
        "retrieval.assemble_s": secs("retrieval.assemble"),
        "retrieval.neighbor_tokens": c["neighbor_tokens"],
        "retrieval.distinct_neighbor_ratio": ratio(
            sum(len(ids) for ids in tracer.neighbor_ids.values()), c["neighbor_ids"]
        ),
        "copy_model.self_s": layer("copy_model"),
        "copy_model.posterior_s": secs("copy_model.logits", "copy_model.posterior"),
        "copy_model.posterior_cells": c["posterior_cells"],
        "copy_model.marginals_s": secs("copy_model.marginals"),
        "copy_model.loss_s": secs("copy_model.nll", "copy_model.grad"),
        "decoder.self_s": layer("decoder"),
        "decoder.segdict_s": secs("decoder.segdict"),
        "decoder.segdict_nodes": c["segdict_nodes"],
        "decoder.dp_s": secs("decoder.dp"),
        "decoder.argmax_s": secs("decoder.argmax"),
        "tagging.self_s": layer("tagging"),
        "trainer.self_s": layer("trainer"),
        "trainer.adam_s": secs("trainer.adam"),
        "trainer.adam_columns": c["adam_columns"],
        # the neighbor re-embeds fine_tune makes itself, children included
        "trainer.reembed_s": under("trainer.fine_tune", ("embeddings.embed",), whole),
        "trainer.ckpt_save_s": secs("trainer.save_checkpoint"),
        "trainer.ckpt_load_s": secs("trainer.load_checkpoint"),
        "trainer.ckpt_bytes": c["ckpt_bytes"],
        "evaluation.self_s": layer("evaluation"),
        "evaluation.score_s": under(
            "evaluation.sweep_c",
            ("evaluation.token_accuracy", "evaluation.span_f1"),
            own,
        ),
        "corpus.self_s": layer("corpus"),
        "corpus.parse_s": secs("corpus.parse_conll"),
    }


def phase_coverage(tracer: Tracer) -> dict[str, float]:
    """Per phase: share of its wall time that layer spans account for."""
    own = self_times(tracer.spans)
    wall: dict[str, float] = defaultdict(float)
    uncovered: dict[str, float] = defaultdict(float)
    for (name, start, end, _), t in zip(tracer.spans, own):
        if name.split(".", 1)[0] == PHASE:
            wall[name] += end - start
            uncovered[name] += t
    return {name.split(".", 1)[1]: 1.0 - uncovered[name] / wall[name] for name in wall}
