"""Readers of the tables that only tests read back: scores, replicates and
aggregates, each a call of ``io_files._read_columns``."""

from crosstrait import io_files
from crosstrait.experiments import AggregateRow, ReplicateRow

SCORES_HEADER = ["sample_id", "score"]


def read_scores(path):
    """(scores, sample ids) of a scores TSV."""
    ids, values = io_files._read_columns(path, SCORES_HEADER, {1: io_files._floats})
    return values, ids


def read_replicates(path):
    cols = io_files._read_columns(path, io_files.REPLICATE_HEADER,
                                  {3: io_files._ints(0), 4: io_files._floats,
                                   5: io_files._floats, 6: io_files._floats})
    cols[4:7] = (c.tolist() for c in cols[4:7])
    return list(map(ReplicateRow, *cols))


def read_aggregates(path):
    cols = io_files._read_columns(path, io_files.AGGREGATE_HEADER,
                                  {3: io_files._floats, 4: io_files._floats,
                                   5: io_files._ints(0)})
    cols[3:5] = (c.tolist() for c in cols[3:5])
    return list(map(AggregateRow, *cols))
