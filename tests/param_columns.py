"""One-column reads and writes of EmbedderParams, for tests.

The library reads weights through slots_for/storage and writes them only
through the batch set_columns; these helpers are those calls for a single
column.
"""

import numpy as np


def column(params, col: int) -> np.ndarray:
    """A copy of column `col`, materialized from the seed on first touch."""
    # resolve the slot first: it may grow and rebind the storage
    slot = params.slots_for([col])[0]
    return params.storage[slot].copy()


def set_column(params, col: int, values) -> None:
    """Overwrite column `col` with one set_columns call."""
    columns = np.array([col])
    values = np.asarray(values, dtype=float)
    params.set_columns(columns, values[np.newaxis])
