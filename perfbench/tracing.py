"""Spans recorded from outside relgen, and the span arithmetic behind the
per-layer metrics.

Two patterns feed one ``Tracer``:

* the benchmark opens spans in its own code around each call it makes into
  a layer (``with tracer.span("irm.chain"): ...``);
* ``install`` replaces public names that ``relgen.cli``, ``relgen.hybrid``
  and ``relgen.analogy`` look up at call time with timing wrappers, so the
  calls made inside ``run_experiment`` are seen too.  ``restore`` puts the
  originals back.

Every traced workload runs at workers 1, so all spans are in this process.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pickle
import time
from contextlib import contextmanager
from pathlib import Path

# Public name -> span name, per relgen module.  A name missing from a module
# (renamed or removed by a later change) is skipped, not an error: the
# layer's metrics then read zero and show the change.
WRAPPED = {
    "relgen.cli": {
        "run_irm_chain": "irm.chain",
        "run_stored_chain": "analogy.chain",
        "irm_predict_cells": "irm.predict",
        "analogy_predict_cells": "analogy.predict",
        "analogy_report": "analogy.report",
        "hybrid_log_evidences": "hybrid.evidence",
        "hybrid_component_predictions": "hybrid.components",
        "simulate_interactions": "datagen.row_split",
        "make_split": "datagen.row_split",
    },
    "relgen.hybrid": {
        "stored_component_predictions": "analogy.predict",
        "irm_predict_cells": "irm.predict",
    },
    "relgen.analogy": {
        "stored_component_predictions": "analogy.predict",
    },
}


class Tracer:
    """In-memory span recorder.  Spans: name, start, end, parent, attrs."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "id": next(self._ids),
            "attrs": attrs,
        }
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def bump(self, span_name: str, key: str, by: int = 1) -> None:
        """Add to a counter on the innermost open span, if it has that name."""
        if self._stack and self._stack[-1]["name"] == span_name:
            attrs = self._stack[-1]["attrs"]
            attrs[key] = attrs.get(key, 0) + by

    # -- wrappers over relgen's public names --------------------------------

    def _timed(self, span_name, fn, attrs_of=None):
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            with self.span(span_name, **attrs):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod_name, names in WRAPPED.items():
            mod = importlib.import_module(mod_name)
            for attr, span_name in names.items():
                if hasattr(mod, attr):
                    fn = getattr(mod, attr)
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._timed(span_name, fn, _ATTRS.get(attr)))
        cli = importlib.import_module("relgen.cli")
        self._patch(cli, "optimize_tau", self._tau_search_wrapper)
        self._patch(cli, "predictive_prob", self._mixture_cell_wrapper)

    def _patch(self, mod, attr, make) -> None:
        if hasattr(mod, attr):
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, make(fn))

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _tau_search_wrapper(self, optimize_tau):
        def wrapper(score_fn, *args, **kwargs):
            with self.span("hybrid.tau_search", evals=0, cells=0) as rec:

                def counted(tau):
                    rec["attrs"]["evals"] += 1
                    return score_fn(tau)

                return optimize_tau(counted, *args, **kwargs)

        return wrapper

    def _mixture_cell_wrapper(self, predictive_prob):
        def wrapper(*args, **kwargs):
            self.bump("hybrid.tau_search", "cells")
            return predictive_prob(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec) + "\n")


def _irm_chain_attrs(data, schedule, *args, **kwargs):
    return {"n": int(data.n_entities), "sweeps": int(schedule.total_sweeps)}


def _stored_chain_attrs(data, system, schedule, *args, **kwargs):
    return {
        "n": int(data.n_entities),
        "sweeps": int(schedule.total_sweeps),
        "system": system.name,
    }


_ATTRS = {"run_irm_chain": _irm_chain_attrs, "run_stored_chain": _stored_chain_attrs}


@contextmanager
def measuring_pool(task_bytes: list):
    """Make ``relgen.cli``'s process pool record each submitted task's pickled size."""
    cli = importlib.import_module("relgen.cli")
    executor_cls = cli.ProcessPoolExecutor

    class MeasuringExecutor(executor_cls):
        def submit(self, fn, /, *args, **kwargs):
            task_bytes.append(len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

    cli.ProcessPoolExecutor = MeasuringExecutor
    try:
        yield task_bytes
    finally:
        cli.ProcessPoolExecutor = executor_cls


# ---------------------------------------------------------------------------
# Span arithmetic.

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def outermost(spans, name: str) -> list[dict]:
    """Spans called ``name`` that are not nested inside another of that name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(s)
    return out


def total_seconds(spans, name: str) -> float:
    return sum(s["end"] - s["start"] for s in outermost(spans, name))


def self_seconds(spans, top_name: str) -> float:
    """Time inside ``top_name`` spans covered by no other span."""
    tops = [s for s in spans if s["name"] == top_name]
    total = 0.0
    for top in tops:
        inside = [
            (max(s["start"], top["start"]), min(s["end"], top["end"]))
            for s in spans
            if s is not top and s["end"] > top["start"] and s["start"] < top["end"]
        ]
        total += (top["end"] - top["start"]) - _union_length(inside)
    return total
