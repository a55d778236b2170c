"""Readers of the tables that only tests read back: scores, replicates and
aggregates, each a call of ``io_files._read_columns``; and the inputs of a
moment check that its tags read, told by the tags' names."""

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


def moment_inputs(tags) -> set:
    """The inputs of ``moments.monte_carlo_check_many`` that ``tags`` read,
    told by their names: every tag reads n1; all but the summary forms n3; a
    beta form or overlap case ii n2; an overlap family n_s and rho_eps; a
    screened one the selection, whose beta half ("q_b") only a screened beta
    form reads."""
    read = set()
    for t in tags:
        beta = "ab" in t or "beta" in t or t.startswith("overlap_ii")
        overlap, screened = t.startswith("overlap"), t.startswith("screened")
        names = {"n1": True, "n2": beta, "n3": not t.startswith("summary"), "n_s": overlap,
                 "rho_eps": overlap, "selection": screened, "q_b": screened and beta}
        read.update(name for name, reads in names.items() if reads)
    return read
