"""Scoring and evaluation protocols.

Token accuracy over aligned datasets, micro-averaged span F1 with the BIO
repair applied before span extraction, sweeps of the segment cost with
per-sentence work shared across grid points, and zero-shot evaluation
against a swapped database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import CorpusError, Dataset, build_dataset, spans_from_bio
from .decoder import check_segment_cost, dp_decode_expected
from .tagging import Tagger, predictions_dataset

SWEEP_HEADER = "c,precision,recall,f1,token_accuracy,avg_segments"


@dataclass(frozen=True)
class EvalReport:
    """Scores of one zero-shot run."""

    token_accuracy: float
    skipped_tokens: int


@dataclass(frozen=True)
class SweepRow:
    segment_cost: float
    precision: float
    recall: float
    f1: float
    token_accuracy: float
    avg_segments: float


def _check_aligned(pred: Dataset, gold: Dataset) -> None:
    if len(pred.items) != len(gold.items):
        raise ValueError(
            f"prediction has {len(pred.items)} sentences, gold has {len(gold.items)}"
        )
    for p, g in zip(pred.items, gold.items):
        if p.sentence.uid != g.sentence.uid:
            raise ValueError(
                f"sentence id mismatch: {p.sentence.uid} vs {g.sentence.uid}"
            )
        if len(p) != len(g):
            raise ValueError(
                f"sentence {g.sentence.uid}: prediction has {len(p)} tokens, "
                f"gold has {len(g)}"
            )
        if p.sentence.tokens != g.sentence.tokens:
            pos, pt, gt = next(
                (k, a, b)
                for k, (a, b) in enumerate(zip(p.sentence.tokens, g.sentence.tokens))
                if a != b
            )
            raise ValueError(
                f"sentence {g.sentence.uid}: token {pos} is {pt!r} in the "
                f"prediction but {gt!r} in gold"
            )


def token_accuracy(pred: Dataset, gold: Dataset) -> float:
    """Fraction of positions whose label strings agree."""
    _check_aligned(pred, gold)
    matched = 0
    total = 0
    for p, g in zip(pred.items, gold.items):
        for pn, gn in zip(pred.label_names(p), gold.label_names(g)):
            matched += pn == gn
            total += 1
    if total == 0:
        raise ValueError("cannot score empty datasets")
    return matched / total


def span_f1(pred: Dataset, gold: Dataset) -> tuple[float, float, float]:
    """Micro-averaged precision, recall, and F1 over exact span matches.

    Spans are extracted with the BIO repair, so stray I- tags in the
    predictions are scored the way conlleval would score them.
    """
    _check_aligned(pred, gold)
    tp = fp = fn = 0
    for p, g in zip(pred.items, gold.items):
        pred_spans = set(spans_from_bio(pred.label_names(p)))
        gold_spans = set(spans_from_bio(gold.label_names(g)))
        tp += len(pred_spans & gold_spans)
        fp += len(pred_spans - gold_spans)
        fn += len(gold_spans - pred_spans)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _count_unreachable(db: Dataset, gold: Dataset) -> int:
    reachable = set(db.vocab.types)
    return sum(
        name not in reachable
        for item in gold.items
        for name in gold.label_names(item)
    )


def sweep_c(
    c_values: Sequence[float],
    provider,
    db: Dataset,
    data: Dataset,
    n_neighbors: int,
) -> list[SweepRow]:
    """Decode `data` against `db` at every segment cost in `c_values`.

    The grid and `data`, its gold BIO tags too, are checked before any
    work. The db index comes from build_index, so a sweep right after a
    Tagger over the same provider and db object reuses that Tagger's
    index. Retrieval, marginals, the segment dictionary and the decode
    tables are computed once per sentence and shared across the grid: one
    dp_decode_expected call decodes a sentence at every grid value.
    """
    if not c_values:
        raise ValueError("the c grid must be non-empty")
    costs = []
    for pos, c in enumerate(c_values):
        try:
            costs.append(float(c))
            check_segment_cost(costs[-1])
        except ValueError as exc:
            raise ValueError(f"c grid value {c!r} at position {pos}: {exc}") from None
    if any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ValueError("the c grid must be strictly ascending")
    if not data.items:
        raise ValueError("the data to sweep has no sentences")
    for item in data.items:
        try:
            spans_from_bio(data.label_names(item))
        except CorpusError as exc:
            raise CorpusError(f"sentence {item.sentence.uid}: {exc}") from None
    tagger = Tagger(provider, db, n_neighbors)
    decoded = []
    for item in data.items:
        analysis = tagger.analyze(item.sentence)
        seg_dict = tagger.segment_dict(analysis)
        decoded.append(dp_decode_expected(analysis.marginals, seg_dict, costs))

    rows = []
    for c, results in zip(costs, zip(*decoded)):
        pred = build_dataset(
            (item.sentence.tokens, tuple(db.vocab.types[lab] for lab in result.labels))
            for item, result in zip(data.items, results)
        )
        precision, recall, f1 = span_f1(pred, data)
        rows.append(
            SweepRow(
                segment_cost=c,
                precision=precision,
                recall=recall,
                f1=f1,
                token_accuracy=token_accuracy(pred, data),
                avg_segments=sum(len(r.segments) for r in results) / len(data.items),
            )
        )
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            f"{row.segment_cost:.4f},{row.precision:.4f},{row.recall:.4f},"
            f"{row.f1:.4f},{row.token_accuracy:.4f},{row.avg_segments:.4f}"
        )
    return "\n".join(lines) + "\n"


def zero_shot_eval(
    provider, new_db: Dataset, eval_data: Dataset, n_neighbors: int
) -> EvalReport:
    """Tag `eval_data` against a database it was never trained on.

    No parameters are updated; the label inventory comes entirely from
    `new_db`. `skipped_tokens` counts the gold labels that `new_db` does
    not have, which no prediction can match.
    """
    if not new_db.items:
        raise ValueError("the new database is empty")
    if not eval_data.items:
        raise ValueError("eval_data has no sentences")
    tagger = Tagger(provider, new_db, n_neighbors)
    pred = predictions_dataset([tagger.tag(item.sentence) for item in eval_data.items])
    return EvalReport(
        token_accuracy=token_accuracy(pred, eval_data),
        skipped_tokens=_count_unreachable(new_db, eval_data),
    )
