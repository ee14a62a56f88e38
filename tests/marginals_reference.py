"""Oracle for copy_model.marginal_over_types: one masked pass per type.

Each type's column is the row sum of the posterior over the flat positions
that carry that type, taken in flat order; the columns follow ascending
type id. marginal_over_types must match it bit for bit.
"""

import numpy as np

from copytag.copy_model import CopyPosterior, MarginalMatrix


def marginal_over_types_masked(
    posterior: CopyPosterior, flat_labels: np.ndarray
) -> MarginalMatrix:
    probs = posterior.probs
    type_ids = np.unique(flat_labels)
    columns = [probs[:, flat_labels == tid].sum(axis=1) for tid in type_ids]
    return MarginalMatrix(np.column_stack(columns), tuple(type_ids.tolist()))
