"""Per-layer spans for the traced benchmark run.

The tracer replaces each listed public function of ``crosstrait`` by a
wrapper at every name its callers look it up under (``experiments`` calls
``marginal_gwas`` through its own module global, ``prs`` calls
``kernels.std_matvec`` through the ``kernels`` module, and so on).  Each call
records one span (name, start, end, parent) in memory; self time is a span's
duration minus the durations of its direct children.  Nothing under ``src/``
is edited: the wrappers exist only in the traced process.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute path) of every traced function, in report order
TARGETS = (
    ("synth", "gen_independent_cohorts"),
    ("synth", "GenotypeMatrix.from_codes"),
    ("synth", "gen_phenotype"),
    ("synth", "gen_effects"),
    ("kernels", "column_stats"),
    ("kernels", "std_crossprod"),
    ("kernels", "std_matvec"),
    ("gwas", "marginal_gwas"),
    ("gwas", "threshold_select"),
    ("prs", "score"),
    ("prs", "align_snps"),
    ("estimators", "raw_cosine"),
    ("estimators", "correct"),
    ("estimators", "screened_factor_ae"),
    ("experiments", "run"),
    ("io_files", "persist_experiment"),
    ("io_files", "read_genotypes"),
    ("io_files", "read_summary_tsv"),
    ("io_files", "write_summary_tsv"),
    ("io_files", "read_phenotype_tsv"),
    ("io_files", "write_scores_tsv"),
    ("io_files", "write_genotype_bin"),
    ("cli", "main"),
)


def _cells_all_columns(codes, *args, **kwargs):
    return codes.shape[0] * codes.shape[1]


def _cells_matvec(codes, col_mean, col_sd, weights, indices=None, *args, **kwargs):
    cols = codes.shape[1] if indices is None else len(indices)
    return codes.shape[0] * cols


# kernels also count cells touched: n x the number of columns they read
CELLS = {
    "kernels.column_stats": _cells_all_columns,
    "kernels.std_crossprod": _cells_all_columns,
    "kernels.std_matvec": _cells_matvec,
}


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.cells: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        cells = CELLS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if cells is not None:
                self.cells[name] += cells(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        for module, _ in TARGETS:
            importlib.import_module(f"crosstrait.{module}")
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "crosstrait" or k.startswith("crosstrait."))]
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            owner = sys.modules[f"crosstrait.{module}"]
            if "." in attr:  # a classmethod: rebind it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, classmethod(self._wrap(name, original.__func__)))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """``<name>.calls``, ``.self_s`` (and ``.cells``) for every target."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        out = {}
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            if name in CELLS:
                out[f"{name}.cells"] = self.cells[name]
        return out

    def write_spans(self, path: str) -> None:
        """Spans as TSV (index, name, start, end, parent), one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
