"""Spans and counters recorded around calls into singular_lq.

The package itself carries no instrumentation. :class:`Tracer` swaps
timing wrappers into the package's module namespaces (and into
``numpy.linalg`` for the SVD kernel) for the duration of a ``with`` block
and restores the originals afterwards. Each span records its name, start,
end, parent span and the id of the benchmark item it ran under; spans stay
in memory until :func:`summarize` turns them into per-layer numbers.

A span name is ``<layer>.<operation>``. A layer's self time is the time
its spans cover minus the part of that time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def svd_flops(shape, full_matrices: bool = True, compute_uv: bool = True) -> float:
    """Operation count of one LAPACK SVD from its input shape.

    Golub & Van Loan's R-SVD counts for an m x n matrix with m >= n:
    4mn^2 - 4n^3/3 for singular values only, 6mn^2 + 20n^3 for the thin
    factors and 4m^2 n + 22n^3 with the full m x m left factor. Leading
    dimensions of a stacked input multiply the count.
    """
    *batch, rows, cols = shape
    m, n = max(rows, cols), min(rows, cols)
    if not compute_uv:
        flops = 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    elif full_matrices:
        flops = 4.0 * m * m * n + 22.0 * n ** 3
    else:
        flops = 6.0 * m * n * n + 20.0 * n ** 3
    return flops * float(np.prod(batch)) if batch else flops


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals (start, end)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its children cover inside it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = union_length(
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(i, ())
            if min(e, span.end) > max(s, span.start)
        )
        out.append(span.end - span.start - covered)
    return out


def _svd_counters(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    return {"linalg.svd_flops": svd_flops(np.shape(a), bool(full), bool(uv))}


def _run_counters(args, kwargs, result):
    return {"algorithm.levels": len(result.rank_history)}


def _chain_counters(args, kwargs, result):
    return {"dae.chain_steps": result[1]}


def _pencil_counters(args, kwargs, result):
    return {"dae.regular_verdicts": int(bool(result))}


def _sweep_counters(args, kwargs, result):
    usable = sum(
        1 for r in result if r.alpha is not None and r.alpha > 0.0 and r.steps == r.exact_steps
    )
    return {"experiments.records": len(result), "experiments.usable_records": usable}


# (module, attribute, span name, counter hook). Every module of the package
# that holds the same function object under that name gets the wrapper, so
# calls through `from .algorithm import run` style imports are seen too.
# closed_form is on no timed path and is not wrapped.
TARGETS = (
    ("singular_lq.cli", "main", "cli.main", None),
    ("singular_lq.experiments", "run_sweep", "experiments.sweep", _sweep_counters),
    ("singular_lq.experiments", "gen_experiment1", "experiments.gen", None),
    ("singular_lq.experiments", "gen_experiment2", "experiments.gen", None),
    ("singular_lq.experiments", "gen_experiment3", "experiments.gen", None),
    ("singular_lq.experiments", "slope_summary", "experiments.slope", None),
    ("singular_lq.experiments", "write_records_csv", "experiments.csv", None),
    ("singular_lq.experiments", "write_slopes_csv", "experiments.csv", None),
    ("singular_lq.problem", "validate", "problem.validate", None),
    ("singular_lq.algorithm", "run", "algorithm.run", _run_counters),
    ("singular_lq.algorithm", "final_submanifold", "algorithm.final_submanifold", None),
    ("singular_lq.geometry", "max_principal_angle", "geometry.angle", None),
    ("singular_lq.geometry", "perturb", "geometry.perturb", None),
    ("singular_lq.dae", "dae_constraint_chain", "dae.chain", _chain_counters),
    ("singular_lq.dae", "pencil_is_regular", "dae.pencil", _pencil_counters),
)


def _lookup(module_name: str, attr: str):
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


class Tracer:
    """Collects spans and counters while installed and active.

    ``with tracer:`` installs the wrappers; spans are recorded only while
    ``tracer.active`` is true, so work the benchmark does between items
    (output checks) stays out of the trace.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self.item: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index].end = time.perf_counter()
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        originals = [(_lookup(module, attr), *rest) for module, attr, *rest in TARGETS]
        modules = [
            m for name, m in sys.modules.items() if name.startswith("singular_lq") and m is not None
        ]
        for (original, span_name, counters), (module_name, attr, *_) in zip(originals, TARGETS):
            if original is None:
                print(f"trace: {module_name}.{attr} not found; not traced", file=sys.stderr)
                continue
            wrapper = self.wrap(span_name, original, counters)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        # The Gram check runs in Subspace.__post_init__.
        subspace = _lookup("singular_lq.geometry", "Subspace")
        if subspace is not None:
            self._patch(
                subspace, "__post_init__", self.wrap("geometry.subspace", subspace.__post_init__)
            )
        # numpy.linalg.norm(M, 2) reaches svd through the private module's
        # globals, so patch both names when the private module exists.
        svd = np.linalg.svd
        wrapper = self.wrap("linalg.svd", svd, _svd_counters)
        self._patch(np.linalg, "svd", wrapper)
        private = sys.modules.get("numpy.linalg._linalg")
        if private is not None and getattr(private, "svd", None) is svd:
            self._patch(private, "svd", wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.active = False
        return False


def _innermost_layer(spans, index: int) -> str:
    parent = spans[index].parent
    while parent is not None and spans[parent].layer == "linalg":
        parent = spans[parent].parent
    return "bench" if parent is None else spans[parent].layer


def summarize(spans, counters) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    ``<name>_s`` is the inclusive time of spans of that name (a span nested
    in one of the same name is not counted twice), ``<name>_self_s`` their
    self time and ``<name>_calls`` their count; ``<layer>.self_s`` is the
    layer's self time; ``<layer>.svd_calls`` the SVDs whose innermost
    enclosing layer span is that layer.
    """
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        out[f"{span.layer}.self_s"] += own[i]
        out[f"{span.name}_self_s"] += own[i]
        out[f"{span.name}_calls"] += 1
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            out[f"{span.name}_s"] += span.end - span.start
        if span.name == "linalg.svd":
            out[f"{_innermost_layer(spans, i)}.svd_calls"] += 1
    for key, value in counters.items():
        out[key] += value
    return dict(out)
