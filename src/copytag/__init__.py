"""Sequence labeling by retrieving similar sentences and copying their labels.

A sentence is embedded with a trainable hashed window embedder, its nearest
labeled neighbors are fetched from a database, and a copy distribution over
every neighbor token yields per-token label marginals. Prediction is either
the marginal argmax or an exact dynamic program that charges a fixed cost
per copied segment.
"""

__version__ = "0.1.0"

from .copy_model import (
    LossReport,
    MarginalMatrix,
    copy_logits,
    copy_posterior,
    grad_wrt_input,
    marginal_over_types,
    nll,
)
from .corpus import (
    CorpusError,
    Dataset,
    LabeledSequence,
    LabelVocab,
    Sentence,
    Span,
    build_dataset,
    parse_conll,
    relabel,
    spans_from_bio,
    write_conll,
)
from .decoder import (
    DecodeResult,
    Segment,
    SegmentDict,
    build_segment_dict,
    dp_decode_expected,
    predict_marginal,
    provenance_lines,
)
from .embeddings import (
    ColumnGrads,
    EmbedderParams,
    HashedWindowEmbedder,
    embed_sentence,
)
from .evaluation import (
    EvalReport,
    SweepRow,
    span_f1,
    sweep_c,
    sweep_csv,
    token_accuracy,
    zero_shot_eval,
)
from .retrieval import (
    NeighborIndex,
    NeighborSet,
    assemble_neighbor_set,
    build_index,
    query,
)
from .synthetic import suffix_corpus, toy_ner_corpus
from .tagging import TaggedSentence, Tagger, predictions_dataset
from .trainer import (
    AdamState,
    Checkpoint,
    CheckpointError,
    EpochStats,
    TrainConfig,
    adam_update,
    fine_tune,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "__version__",
    "AdamState",
    "Checkpoint",
    "CheckpointError",
    "ColumnGrads",
    "CorpusError",
    "Dataset",
    "DecodeResult",
    "EmbedderParams",
    "EpochStats",
    "EvalReport",
    "HashedWindowEmbedder",
    "LabelVocab",
    "LabeledSequence",
    "LossReport",
    "MarginalMatrix",
    "NeighborIndex",
    "NeighborSet",
    "Segment",
    "SegmentDict",
    "Sentence",
    "Span",
    "SweepRow",
    "TaggedSentence",
    "Tagger",
    "TrainConfig",
    "adam_update",
    "assemble_neighbor_set",
    "build_dataset",
    "build_index",
    "build_segment_dict",
    "copy_logits",
    "copy_posterior",
    "dp_decode_expected",
    "embed_sentence",
    "fine_tune",
    "grad_wrt_input",
    "load_checkpoint",
    "marginal_over_types",
    "nll",
    "parse_conll",
    "predict_marginal",
    "predictions_dataset",
    "provenance_lines",
    "query",
    "relabel",
    "save_checkpoint",
    "span_f1",
    "spans_from_bio",
    "suffix_corpus",
    "sweep_c",
    "sweep_csv",
    "toy_ner_corpus",
    "token_accuracy",
    "write_conll",
    "zero_shot_eval",
]
