"""In-memory spans around the benchmark's calls into rankmetric's layers.

A span records its name, layer, start, end, parent span, run id, optional
attributes (work counts) and the exception type when the call raised.  Spans
are kept in a list and written out once, after the timed phase.  With
tracing off, ``call`` is a plain function call and ``span`` records nothing.
"""
from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager

LAYERS = ("ffield", "rankgeom", "codes", "wenum", "bounds", "oracle", "bench")


class Tracer:
    def __init__(self, run_id, enabled):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []  # dicts, in start order
        self._stack = []

    def _open(self, layer, name, attrs):
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "layer": layer, "name": name,
                "start_ns": time.perf_counter_ns(), "end_ns": None,
                "attrs": attrs, "error": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span):
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, layer, name):
        """Span around a block; closed (with the error type) when it raises."""
        if not self.enabled:
            yield
            return
        span = self._open(layer, name, {})
        try:
            yield
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)

    def call(self, layer, fn, *args, kw=None, **attrs):
        """fn(*args, **kw) inside a span named "<layer>.<fn name>", which also
        records how far the call raised the process's peak RSS."""
        kw = kw or {}
        if not self.enabled:
            return fn(*args, **kw)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        span = self._open(layer, f"{layer}.{fn.__name__}", attrs)
        try:
            return fn(*args, **kw)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            attrs["rss_step_kb"] = after - before

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _dur(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def layer_times(spans):
    """{layer: (busy_s, self_s)}.

    busy_s sums the spans of a layer that have no ancestor in the same layer;
    self_s sums each span's duration minus the time its child spans cover.
    Spans nest by construction, so children of one span never overlap.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_ = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["layer"]
        self_[layer] += _dur(s) - child_time.get(s["id"], 0.0)
        p = s["parent"]
        while p is not None and by_id[p]["layer"] != layer:
            p = by_id[p]["parent"]
        if p is None:
            busy[layer] += _dur(s)
    return {layer: (busy[layer], self_[layer]) for layer in LAYERS}


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    def named(name, kind=None):
        return [s for s in spans if s["name"] == name
                and (kind is None or s["attrs"].get("kind") == kind)]

    def total(sel, key=None):
        return sum(s["attrs"][key] if key else _dur(s) for s in sel)

    out = {}
    builds = named("ffield.make_field")
    out["ffield.build_s"] = total(builds)
    out["ffield.fields_built"] = len(builds)
    ranks = named("rankgeom.rank") + named("rankgeom.rank_distance")
    out["rankgeom.rank_calls"] = len(ranks)
    out["rankgeom.rank_per_s"] = _rate(len(ranks), total(ranks))
    for kind in ("gf2", "odd"):
        for metric, fn, key in (("rankdist_words", "codes.rank_distribution", "words"),
                                ("covrad_vectors", "codes.covering_radius", "vectors")):
            sel = named(fn, kind)
            out[f"codes.{metric}.{kind}"] = total(sel, key)
            out[f"codes.{metric}_per_s.{kind}"] = _rate(total(sel, key), total(sel))
    steps = [s["attrs"].get("rss_step_kb", 0) for s in spans if s["layer"] == "codes"]
    out["codes.peak_rss_step_mb"] = max(steps, default=0) / 1024
    out["codes.els_check_s"] = total(named("codes.mrd_els_check"))
    out["wenum.transforms"] = len(named("wenum.macwilliams"))
    tables = named("bounds.covering_table")
    out["bounds.cells"] = total(tables, "cells")
    out["bounds.cells_per_s"] = _rate(total(tables, "cells"), total(tables))
    out["bounds.dimtable_s"] = total(named("bounds.dimension_table"))
    decisions = named("oracle.exhaustive_min_covering")
    out["oracle.decisions"] = len(decisions)
    out["oracle.decision_s"] = total(decisions)
    out["oracle.greedy_s"] = total(named("oracle.greedy_covering"))
    out["oracle.maxcode_s"] = total(named("oracle.max_code_search"))
    out["oracle.verify_s"] = total(named("oracle.is_covering"))
    out["oracle.inconclusive"] = sum(1 for s in spans if s["layer"] == "oracle"
                                     and s["error"] == "InconclusiveSearch")
    for layer, (busy, self_) in layer_times(spans).items():
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.self_s"] = self_
    out["trace.spans"] = len(spans)
    return out
