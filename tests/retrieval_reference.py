"""Oracle for retrieval.query: score every sentence, order by (-score, id).

`exclude` drops ids after the ordering, the way fine_tune drops a
training sentence from its own neighbor list.
"""

import numpy as np

from copytag import retrieval


def linear_scan(index, q, count, exclude=()):
    """Every score, ordered by (-score, id), then the first `count` ids
    outside `exclude`."""
    norm = float(np.linalg.norm(q))
    if norm < retrieval.ZERO_NORM:
        scores = np.zeros(len(index))
    else:
        scores = index.vectors @ (q / norm)
    order = np.lexsort((np.arange(len(index)), -scores))
    excluded = set(exclude)
    kept = [int(i) for i in order if int(i) not in excluded]
    return [(i, float(scores[i])) for i in kept[:count]]
