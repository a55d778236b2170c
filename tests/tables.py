"""Readers of the tables that only tests read back: scores, replicates and
aggregates, each a call of ``io_files._read_columns``."""

import numpy as np

from crosstrait import io_files
from crosstrait.experiments import AggregateRow, ReplicateRow

SCORES_HEADER = ["sample_id", "score"]


def read_scores(path):
    """(scores, sample ids) of a scores TSV."""
    ids, values = io_files._read_columns(path, SCORES_HEADER, {1: np.asarray})
    return values, ids.tolist()


def read_replicates(path):
    cols = io_files._read_columns(path, io_files.REPLICATE_HEADER,
                                  {3: io_files._ints(0), 4: np.asarray, 5: np.asarray,
                                   6: np.asarray})
    return list(map(ReplicateRow, *(c.tolist() for c in cols)))


def read_aggregates(path):
    cols = io_files._read_columns(path, io_files.AGGREGATE_HEADER,
                                  {3: np.asarray, 4: np.asarray, 5: io_files._ints(0)})
    return list(map(AggregateRow, *(c.tolist() for c in cols)))
