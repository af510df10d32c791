"""Span tracer that wraps the public functions of each diagnokit layer.

Nothing under ``src/`` is changed: ``install`` replaces each listed function
in every loaded ``diagnokit`` module namespace that binds it, so calls made
through ``from .x import f`` names are traced too. The Gibbs sweep has no
public name; it is reached through ``engine.resolve_backend``, whose returned
kernel is wrapped. A hook or function that no longer exists is reported as
missing, and the metrics that depend on it are left out rather than read 0.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once the run ends. A span's self time is its duration minus its children's.
"""
from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("kernels", "engine", "geneselect", "reference", "io", "simulate",
          "classifier", "report", "divergence", "cli")

# Public functions traced per layer module.
TARGETS = {
    "engine": ("deconvolve", "run_mcmc", "split_rhat", "refine_priors"),
    "geneselect": ("select_pairs",),
    "reference": ("estimate_priors",),
    "io": ("load_matrix_tsv", "save_cts_tensor", "load_cts_tensor", "atomic_write_text"),
    "simulate": ("evaluate_recovery",),
    "classifier": ("load_dataset", "train", "integrated_gradients", "forward"),
    "report": ("generate_report",),
    "divergence": ("run_divergence",),
}
KERNEL_HOOK = "engine.resolve_backend"


def _tensor_rows(tensor) -> int:
    # long format: one row per (gene, cell type, sample), mean and variance files
    return 2 * len(tensor.genes) * len(tensor.cell_types) * len(tensor.samples)


# Counts taken at a span boundary: (args, result) -> {counter: increment}
COUNTERS = {
    "kernels.sweep": lambda a, r: {"kernels.draws": a[0].shape[0] * a[0].shape[1]},
    "geneselect.select_pairs": lambda a, r: {
        "geneselect.tests": len(a[0].genes) * len(a[0].cell_types),
        "geneselect.pairs_kept": len(r.pairs)},
    "io.save_cts_tensor": lambda a, r: {"io.tensor_rows_written": _tensor_rows(a[0])},
    "io.load_cts_tensor": lambda a, r: {"io.tensor_rows_read": _tensor_rows(r)},
    # manifests carry a timestamp, so only data files count
    "io.atomic_write_text": lambda a, r: {
        "io.bytes_written": 0 if Path(a[0]).name == "manifest.json" else os.path.getsize(a[0])},
    "classifier.train": lambda a, r: {"classifier.epochs": len(r.log)},
    "divergence.run_divergence": lambda a, r: {
        "divergence.cases": sum(rep.subset_size for rep in r)},
}


# (metric, kind, source spans): kind "total" sums span durations, "self" sums
# self times, "calls" counts spans and "count" reads a COUNTERS entry.
METRICS = (
    ("kernels.sweep_s", "total", ("kernels.sweep",)),
    ("kernels.sweeps", "calls", ("kernels.sweep",)),
    ("kernels.draws", "count", ("kernels.sweep",)),
    ("engine.deconvolve_s", "total", ("engine.deconvolve",)),
    ("engine.run_mcmc_s", "total", ("engine.run_mcmc",)),
    ("engine.mcmc_self_s", "self", ("engine.run_mcmc", "engine.split_rhat", "kernels.sweep")),
    ("engine.rhat_s", "total", ("engine.split_rhat",)),
    ("engine.rhat_calls", "calls", ("engine.split_rhat",)),
    ("engine.refine_priors_s", "total", ("engine.refine_priors",)),
    ("geneselect.select_pairs_s", "total", ("geneselect.select_pairs",)),
    ("geneselect.tests", "count", ("geneselect.select_pairs",)),
    ("geneselect.pairs_kept", "count", ("geneselect.select_pairs",)),
    ("reference.estimate_priors_s", "total", ("reference.estimate_priors",)),
    ("io.load_matrix_s", "total", ("io.load_matrix_tsv",)),
    ("io.save_tensor_s", "total", ("io.save_cts_tensor",)),
    ("io.load_tensor_s", "total", ("io.load_cts_tensor",)),
    ("io.tensor_rows_written", "count", ("io.save_cts_tensor",)),
    ("io.tensor_rows_read", "count", ("io.load_cts_tensor",)),
    ("io.bytes_written", "count", ("io.atomic_write_text",)),
    ("simulate.evaluate_recovery_s", "total", ("simulate.evaluate_recovery",)),
    ("classifier.load_dataset_s", "total", ("classifier.load_dataset",)),
    ("classifier.train_s", "total", ("classifier.train",)),
    ("classifier.epochs", "count", ("classifier.train",)),
    ("classifier.ig_s", "total", ("classifier.integrated_gradients",)),
    ("classifier.ig_calls", "calls", ("classifier.integrated_gradients",)),
    ("classifier.forward_calls", "calls", ("classifier.forward",)),
    ("report.generate_s", "total", ("report.generate_report",)),
    ("report.reports", "calls", ("report.generate_report",)),
    ("divergence.run_s", "total", ("divergence.run_divergence",)),
    ("divergence.cases", "count", ("divergence.run_divergence",)),
    ("cli.commands", "calls", ("cli.main",)),
)


class Tracer:
    """In-memory spans and counters for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            self.calls[name] += 1
            if count is not None:
                self.counts.update(count(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far.

        A metric whose source function was not found is left out.
        """
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            total[s[0]] += s[2] - s[1]
            own[s[0]] += t
        values = {"total": total, "self": own, "calls": self.calls}
        gone = {"kernels.sweep" if m == KERNEL_HOOK else m for m in self.missing}
        out: dict[str, float] = {}
        for metric, kind, sources in METRICS:
            if gone & set(sources):
                continue
            if kind == "count":
                out[metric] = self.counts[metric]
            else:
                out[metric] = values[kind][sources[0]]
        if "kernels.draws" in out:
            sweep_s = out["kernels.sweep_s"]
            out["kernels.draws_per_s"] = out["kernels.draws"] / sweep_s if sweep_s else 0.0
        for layer in LAYERS:
            if layer == "kernels" and "kernels.sweep" in gone:
                continue
            out[f"{layer}.self_s"] = sum(t for name, t in own.items()
                                         if name.split(".")[0] == layer)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every target in each loaded diagnokit module that binds it."""
    import diagnokit.cli  # noqa: F401  (imports every layer module)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "diagnokit" or n.startswith("diagnokit.")]

    def rebind(orig, wrapped) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapped)

    for layer, names in TARGETS.items():
        mod = sys.modules.get(f"diagnokit.{layer}")
        for name in names:
            orig = getattr(mod, name, None)
            if not callable(orig):
                tracer.missing.append(f"{layer}.{name}")
                continue
            rebind(orig, tracer.wrap(f"{layer}.{name}", orig))

    engine = sys.modules["diagnokit.engine"]
    resolve = getattr(engine, "resolve_backend", None)
    if not callable(resolve):
        tracer.missing.append(KERNEL_HOOK)
        return

    kernels: dict[int, object] = {}

    def traced_resolve(*args, **kwargs):
        fn = resolve(*args, **kwargs)
        if id(fn) not in kernels:
            kernels[id(fn)] = tracer.wrap("kernels.sweep", fn)
        return kernels[id(fn)]

    engine.resolve_backend = traced_resolve
