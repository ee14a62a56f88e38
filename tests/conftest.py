"""Shared builders for randomized test instances."""

import ctypes
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

from copytag.copy_model import MarginalMatrix
from copytag.corpus import Dataset, LabeledSequence, LabelVocab, Sentence, build_dataset
from copytag.retrieval import NeighborSet, assemble_neighbor_set, build_index

# Every run draws the same examples and writes no example database. What
# hypothesis stores anyway (its cache of constants read from the source)
# goes to a temporary directory, removed when the session ends.
settings.register_profile("copytag", derandomize=True, database=None)
settings.load_profile("copytag")
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="copytag-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


def platform_facts() -> str:
    """What decides float rounding here, for the message of a byte pin.

    numpy's OpenBLAS picks its kernel at run time, and float64 exp and log
    follow numpy's SIMD dispatch, so a pinned digest holds for one setting
    of these: a moved pin under another setting may be the platform, not
    the program.
    """
    try:
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        core = "unknown"
    else:
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    features = _multiarray_umath.__cpu_features__
    dispatch = [name for name in _multiarray_umath.__cpu_dispatch__ if features.get(name)]
    return (
        f"platform: OpenBLAS core {core}, "
        f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE')!r}, "
        f"numpy SIMD dispatch {' '.join(dispatch) or 'none'}, "
        f"NPY_DISABLE_CPU_FEATURES={os.environ.get('NPY_DISABLE_CPU_FEATURES')!r}"
    )


class RowsProvider:
    """Serves a fixed token matrix per sentence id."""

    tag = "rows"

    def __init__(self, matrices):
        self.matrices = matrices
        self.dim = matrices[0].shape[1]

    def embed(self, sentence):
        return self.matrices[sentence.uid]

    def embed_batch(self, sentences):
        return [self.embed(sentence) for sentence in sentences]


def index_over(db: Dataset, matrices):
    """The index of `db` whose token rows are `matrices`, one per sentence."""
    return build_index(db, RowsProvider(matrices))


def _whole_set(items, matrices) -> tuple[NeighborSet, np.ndarray]:
    """Every one of `items` retrieved in order: the set and its flat rows."""
    n_types = 1 + max(max(item.labels) for item in items)
    db = Dataset(tuple(items), LabelVocab(tuple(str(t) for t in range(n_types))))
    index = index_over(db, matrices)
    return assemble_neighbor_set(index, range(len(items))), index.token_rows


def make_scored_set(
    rng: np.random.Generator,
    n_neighbors: int = 3,
    max_len: int = 5,
    n_types: int = 4,
    dim: int = 6,
) -> tuple[NeighborSet, np.ndarray]:
    """Random labeled neighbor sentences with random token embeddings: the
    set and its flat embedding rows."""
    items, matrices = [], []
    for m in range(n_neighbors):
        length = int(rng.integers(1, max_len + 1))
        tokens = tuple(f"n{m}t{k}" for k in range(length))
        labels = tuple(int(v) for v in rng.integers(0, n_types, size=length))
        matrices.append(rng.normal(size=(length, dim)))
        items.append(LabeledSequence(Sentence(m, tokens), labels))
    return _whole_set(items, matrices)


def make_neighbor_set(rng: np.random.Generator, **kwargs) -> NeighborSet:
    """make_scored_set's set alone, drawn from `rng` the same way."""
    return make_scored_set(rng, **kwargs)[0]


def labels_only_set(label_rows) -> NeighborSet:
    """NeighborSet from bare label sequences; embeddings are placeholders."""
    items = [
        LabeledSequence(
            Sentence(m, tuple(f"t{m}_{k}" for k in range(len(labels)))), tuple(labels)
        )
        for m, labels in enumerate(label_rows)
    ]
    return _whole_set(items, [np.zeros((len(labels), 2)) for labels in label_rows])[0]


def present_types(neighbors: NeighborSet) -> tuple[int, ...]:
    """The distinct label type ids of a neighbor set, ascending: the
    marginal columns' type ids."""
    return tuple(np.unique(neighbors.flat_labels).tolist())


def column_index(marginals: MarginalMatrix) -> dict[int, int]:
    """type id -> its marginal column."""
    return {tid: col for col, tid in enumerate(marginals.type_ids)}


def make_marginals(
    rng: np.random.Generator, n_tokens: int, neighbors: NeighborSet
) -> MarginalMatrix:
    """Random strictly positive rows normalized over the present types."""
    type_ids = present_types(neighbors)
    raw = rng.uniform(0.05, 1.0, size=(n_tokens, len(type_ids)))
    probs = raw / raw.sum(axis=1, keepdims=True)
    return MarginalMatrix(probs=probs, type_ids=type_ids)


def make_gold(
    rng: np.random.Generator, n_tokens: int, n_types: int
) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.integers(0, n_types, size=n_tokens))


def make_tagged_corpus(
    rng: np.random.Generator, n_sentences: int = 6, max_len: int = 5
) -> tuple[Dataset, list[np.ndarray]]:
    """A random dataset over string tags drawn from a shuffled tag set, and
    one random token matrix per sentence (see index_over)."""
    names = [str(v) for v in rng.permutation(["A", "B", "C", "D", "E", "F"])]
    rows = []
    for m in range(n_sentences):
        length = int(rng.integers(1, max_len + 1))
        tags = [names[int(v)] for v in rng.integers(0, len(names), size=length)]
        rows.append((tuple(f"s{m}t{k}" for k in range(length)), tuple(tags)))
    db = build_dataset(rows)
    return db, [rng.normal(size=(len(item), 4)) for item in db.items]


def corpus_order(db: Dataset, names) -> list[str]:
    """`names` in the order the corpus first shows them."""
    wanted = set(names)
    seen = dict.fromkeys(
        db.vocab.types[t] for item in db.items for t in item.labels
    )
    return [name for name in seen if name in wanted]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240816)
