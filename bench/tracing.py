"""Outside-in span recording for the traced benchmark run.

The benchmark never edits the package. It replaces public names in the
module namespaces where they are looked up at call time (``cli.fit``,
``regression.spectral_weights``, ...) with wrappers that record a span, and
puts the originals back when the run ends. Spans stay in memory as
``(id, name, layer, start, end, parent, attrs)`` records; self times and
counts are computed from them after the run.
"""

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, layer). A span is named after the namespace where the
# call was intercepted ("cli.fit"); its layer is the package module that
# does the work.
WRAPPED = (
    ("cli", "read_edge_list", "graphs"),
    ("cli", "build_laplacian", "graphs"),
    ("cli", "cached_eigendecomposition", "spectral"),
    ("cli", "fit", "regression"),
    ("cli", "woodbury_posterior", "regression"),
    ("cli", "save_model", "cli"),
    ("cli", "read_targets_csv", "cli"),
    ("cli", "fit_classifier", "classification"),
    ("cli", "predict_classes", "classification"),
    ("cli", "save_classifier", "cli"),
    ("cli", "read_labels_csv", "cli"),
    ("spectral", "eigendecompose_full", "spectral"),
    ("spectral", "eigendecompose_truncated", "spectral"),
    ("spectral", "save_basis", "spectral"),
    ("spectral", "load_basis", "spectral"),
    ("regression", "log_marginal_likelihood", "regression"),
    ("regression", "spectral_weights", "kernels"),
    ("regression", "adam_step", "optim"),
    ("classification", "spectral_weights", "kernels"),
    ("classification", "adam_step", "optim"),
    # Library calls the mesh workload makes itself.
    ("graphs", "read_edge_list", "graphs"),
    ("graphs", "build_laplacian", "graphs"),
    ("kernels", "matern_precision_sparse", "kernels"),
    ("regression", "gmrf_posterior", "regression"),
)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs_of(name, args, result) -> dict:
    """Counts read off a call's arguments or result at the layer boundary."""
    if name.endswith("read_edge_list"):
        return {"edges": result.edge_count}
    if name == "cli.cached_eigendecomposition":
        _, hit, path = result
        return {"hit": bool(hit), "path": None if path is None else str(path)}
    if name == "spectral.save_basis":
        return {"bytes": os.path.getsize(args[0])}
    if name.startswith("cli.read_") and name.endswith("_csv"):
        return {"bytes": os.path.getsize(args[0])}
    if name == "kernels.matern_precision_sparse":
        return {"nnz": int(result.nnz)}
    return {}


class Tracer:
    """Records spans for wrapped calls and for the benchmark's own steps."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    def open(self, name, layer) -> Span:
        span = Span(id=len(self.spans), name=name, layer=layer,
                    start=time.perf_counter(),
                    parent=self._stack[-1].id if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, **attrs):
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span, **_attrs_of(name, args, result))
            return result

        return traced

    def install(self, modules: dict):
        """Wrap every name in ``WRAPPED``; ``modules`` maps short names to
        the imported package modules."""
        for mod_name, attr, layer in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{mod_name}.{attr}", layer))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- queries ----------------------------------------------------------

    def named(self, name) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def ending(self, suffix) -> list[Span]:
        return [s for s in self.spans if s.name.endswith(suffix)]

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def ancestor(self, span: Span, name) -> Span | None:
        """Nearest enclosing span called ``name``."""
        return next((a for a in self.ancestors(span) if a.name == name), None)

    def below_any(self, span: Span, prefix) -> bool:
        """Whether some enclosing span's name starts with ``prefix``."""
        return any(a.name.startswith(prefix) for a in self.ancestors(span))

    def below(self, ancestor: Span, spans) -> list[Span]:
        """The members of ``spans`` that ``ancestor`` encloses."""
        return [s for s in spans if any(a.id == ancestor.id for a in self.ancestors(s))]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def self_time(self, span: Span, layer=None) -> float:
        """Duration minus the time covered by child spans.

        With ``layer``, children of that same layer count as self time, so
        the result is the time the span's layer spent at this level.
        """
        covered = sum(c.duration for c in self.children(span)
                      if layer is None or c.layer != layer)
        return span.duration - covered

    def records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "layer": s.layer, "start": s.start,
             "end": s.end, "parent": s.parent, **s.attrs}
            for s in self.spans
        ]


def median(values, default=0.0) -> float:
    return float(np.median(values)) if len(values) else default


def durations(spans) -> list[float]:
    return [s.duration for s in spans]
