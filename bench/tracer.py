"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced function at the module attribute its
callers look it up through (``autospectral.search.postprocess_affinity``,
``autospectral.spectra.partial_sym_eigs``, ...) and ``remove`` puts the
originals back. Modules are reached through ``sys.modules``: the package
re-exports the function ``kmeans`` under the name of its module, so
``import autospectral.kmeans as m`` binds the function.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module holding the attribute, attribute, span name)
SPAN_SITES = (
    ("autospectral.dataio", "load_csv", "dataio.load_csv"),
    ("autospectral.search", "grid_search", "search.grid_search"),
    ("autospectral.netembed", "grid_search", "search.grid_search"),
    ("autospectral.search", "bo_search", "search.bo_search"),
    ("autospectral.netembed", "bo_search", "search.bo_search"),
    ("autospectral.netembed", "landmark_cluster", "netembed.landmark_cluster"),
    ("autospectral.search", "evaluate_candidate", "search.evaluate_candidate"),
    ("autospectral.search", "build_coefficients", "affinity.build_coefficients"),
    ("autospectral.search", "postprocess_affinity", "affinity.postprocess_affinity"),
    ("autospectral.search", "laplacian_spectrum", "spectra.laplacian_spectrum"),
    ("autospectral.spectra", "partial_sym_eigs", "linalg.partial_sym_eigs"),
    ("autospectral.search", "fit_gp_hyperparams", "search.fit_gp_hyperparams"),
    ("autospectral.search", "kmeans", "kmeans.kmeans"),
    ("autospectral.netembed", "kmeans", "kmeans.kmeans"),
    ("autospectral.netembed", "kmeans_centers", "kmeans.kmeans_centers"),
    ("autospectral.netembed", "net_train", "netembed.net_train"),
    ("autospectral.netembed", "net_forward", "netembed.net_forward"),
)

LOAD = "dataio.load_csv"

# Layers of the clustering call, reported as <name>_s (self time) and <name>_calls.
LAYERS = (
    "affinity.build_coefficients",
    "affinity.postprocess_affinity",
    "spectra.laplacian_spectrum",
    "linalg.partial_sym_eigs",
    "search.evaluate_candidate",
    "search.fit_gp_hyperparams",
    "kmeans.kmeans_centers",
    "kmeans.kmeans",
    "netembed.net_train",
    "netembed.net_forward",
)

# The self time of bo_search is what is left after evaluations, GP fits and
# k-means: the expected-improvement maximisation.
ACQUISITION = "search.bo_search"


class Tracer:
    """Spans (name, parent index, start, end) kept in memory, plus counts.

    Records only while ``enabled``; single-threaded callers only, which the
    benchmark guarantees by running every workload with ``threads=1``.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()

        return traced

    def _count_lloyd(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.enabled:
                self.counts["kmeans.lloyd_iterations_calls"] += 1
                # history holds one inertia per Lloyd step plus the final one
                self.counts["kmeans.lloyd_steps"] += len(out[3]) - 1
            return out

        return counted

    def _replace(self, module_name, attr, wrapped):
        module = sys.modules[module_name]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapped)

    def install(self):
        for module_name, attr, name in SPAN_SITES:
            self._replace(module_name, attr, self._span(name, getattr(sys.modules[module_name], attr)))
        lloyd = sys.modules["autospectral.kmeans"].lloyd_iterations
        self._replace("autospectral.kmeans", "lloyd_iterations", self._count_lloyd(lloyd))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def layer_totals(self):
        """{span name: (self seconds, calls)}; self time is the span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for (name, _, start, end), c in zip(self.spans, child):
            totals[name][0] += end - start - c
            totals[name][1] += 1
        return {name: tuple(v) for name, v in totals.items()}

    def as_json(self):
        return {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
            ],
            "counts": dict(self.counts),
        }
