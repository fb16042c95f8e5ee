"""Spans around calls into the program's modules, installed by wrapping.

The wrappers replace module attributes and class methods of `xfft` in the
benchmark process only, for the duration of a traced repetition, and are
removed afterwards.  They record (name, start, end, parent) in memory and
never touch arguments or results, so a traced solve computes exactly what
an untraced one does.
"""

import functools
import time

import numpy as np

from xfft import greenop, homogenize, solver


def _layout_counts(layout):
    return {
        "cut_elements": int((layout.cut_region >= 0).sum()),
        "enriched_nodes": int(layout.n_x),
        "multi_interface_elements": int(layout.n_multi_interface),
    }


def _cache_counts(caches):
    # bytes computed from the arrays' sizes, not measured
    nbytes = sum(v.nbytes for v in vars(caches).values() if isinstance(v, np.ndarray))
    return {"cache_bytes": int(nbytes), "dropped_dofs": int(caches.n_dropped_dofs)}


def _symbol_counts(symbol):
    return {"symbol_bytes": int(symbol.ghat.nbytes)}


# (owner, attribute, span name, counts taken from the result)
TARGETS = (
    (solver, "build_system", "solver.build_system", None),
    (solver, "sample_nodal", "microstructure.sample_nodal", None),
    (solver, "detect_enrichment", "mesh.detect_enrichment", _layout_counts),
    (solver, "build_caches", "element.build_caches", _cache_counts),
    (greenop, "build_symbol", "greenop.build_symbol", _symbol_counts),
    (solver, "run_scheme", "solver.run_scheme", None),
    (homogenize, "run_scheme", "solver.run_scheme", None),
    (solver.System, "_sweep", "solver.sweep", None),
    (solver.System, "precondition", "solver.precondition", None),
    (greenop, "apply_preconditioner", "greenop.apply_preconditioner", None),
    (solver.System, "res_norm", "solver.res_norm", None),
    (solver.DofVector, "dot", "solver.vector_op", None),
    (solver.DofVector, "axpy", "solver.vector_op", None),
    (solver.DofVector, "copy", "solver.vector_op", None),
    (solver.DofVector, "scaled", "solver.vector_op", None),
)


class Tracer:
    """In-memory span recorder; use as a context manager around traced work."""

    def __init__(self):
        self.spans = []  # dicts: id, name, parent, start, end[, counts]
        self._stack = []
        self._saved = []

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span["counts"] = counts(out)
            return out

        return traced

    def __enter__(self):
        for owner, attr, name, counts in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is None:  # layer renamed or removed: no span for it
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counts))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False


def self_times(spans):
    """Span duration minus the time covered by its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans, outcome, config):
    """Per-layer metrics of one traced repetition."""
    total, calls, counts = {}, {}, {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        counts.update(s.get("counts", {}))
    selfs = self_times(spans)
    scheme_self = sum(selfs[s["id"]] for s in spans if s["name"] == "solver.run_scheme")

    def per_call(name):
        return total.get(name, 0.0) / max(calls.get(name, 0), 1)

    ratio = max(
        r.res_verified / (config.tol * np.linalg.norm(r.sigma)) for r in outcome.results
    )
    return {
        "microstructure.sample_nodal_s": (total.get("microstructure.sample_nodal", 0.0), "s"),
        "mesh.detect_enrichment_s": (total.get("mesh.detect_enrichment", 0.0), "s"),
        "mesh.cut_elements": (counts.get("cut_elements", 0), "count"),
        "mesh.enriched_nodes": (counts.get("enriched_nodes", 0), "count"),
        "mesh.multi_interface_elements": (counts.get("multi_interface_elements", 0), "count"),
        "element.build_caches_s": (total.get("element.build_caches", 0.0), "s"),
        "element.build_caches_share": (
            total.get("element.build_caches", 0.0) / outcome.setup_s, "ratio"),
        "element.cache_mb": (counts.get("cache_bytes", 0) / 1e6, "MB"),
        "element.dropped_dofs": (counts.get("dropped_dofs", 0), "count"),
        "greenop.build_symbol_s": (total.get("greenop.build_symbol", 0.0), "s"),
        "greenop.symbol_mb": (counts.get("symbol_bytes", 0) / 1e6, "MB"),
        "greenop.apply_ms": (1e3 * per_call("greenop.apply_preconditioner"), "ms"),
        "greenop.apply_calls": (calls.get("greenop.apply_preconditioner", 0), "count"),
        "greenop.apply_share": (
            total.get("greenop.apply_preconditioner", 0.0) / outcome.solve_s, "ratio"),
        "solver.sweep_ms": (1e3 * per_call("solver.sweep"), "ms"),
        "solver.sweeps": (calls.get("solver.sweep", 0), "count"),
        "solver.sweep_share": (total.get("solver.sweep", 0.0) / outcome.solve_s, "ratio"),
        "solver.vector_ops_ms": (
            1e3 * total.get("solver.vector_op", 0.0) / max(outcome.iterations, 1), "ms"),
        "solver.scheme_self_s": (scheme_self, "s"),
        "solver.verified_residual_ratio": (float(ratio), "ratio"),
        "homogenize.case_solve_s": (per_call("solver.run_scheme"), "s"),
    }
