"""In-memory spans around the program's public functions, and per-layer metrics.

Spans are recorded by replacing a function where its caller looks it up
(a module attribute) with a wrapper that notes name, start, end and the
enclosing span.  Nothing under src/ changes.  A call site whose module or
attribute no longer exists is skipped, and metrics that depend only on it are
reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time

import numpy as np

LAYERS = ("cli", "matching", "inference", "kernels", "sensitivity", "binary", "simulate")


def _pmf_attrs(args, kwargs, result) -> dict:
    scores = np.asarray(args[0] if args else kwargs["scores"], dtype=np.int64)
    p_plus = float(args[1] if len(args) > 1 else kwargs["p_plus"])
    key = hashlib.sha256(np.sort(scores).tobytes() + repr(p_plus).encode()).hexdigest()
    return {"cells": int(scores.size) * (int(scores.sum()) + 1), "key": key}


def _assignment_attrs(args, kwargs, result) -> dict:
    return {"cells": int(np.asarray(args[0] if args else kwargs["cost_matrix"]).size)}


def _within_attrs(args, kwargs, result) -> dict:
    records = args[0] if args else kwargs["records"]
    return {"treated": sum(1 for r in records if r.z == 1), "pairs": len(result)}


# Span name -> (call sites as (module, attribute), attribute extractor or None).
SITES = {
    "cli.match": ([("didsens.cli", "cmd_match")], None),
    "cli.test": ([("didsens.cli", "cmd_test")], None),
    "cli.sens": ([("didsens.cli", "cmd_sens")], None),
    "cli.simulate": ([("didsens.cli", "cmd_simulate")], None),
    "cli.read_unit_records": ([("didsens.cli", "read_unit_records")], None),
    "cli.read_quadruples_csv": ([("didsens.cli", "read_quadruples_csv")], None),
    "matching.within_period_match": ([("didsens.cli", "within_period_match")], _within_attrs),
    "matching.cross_period_match": ([("didsens.cli", "cross_period_match")], None),
    "matching.balance_report": (
        [("didsens.cli", "balance_report"), ("didsens.cli", "cross_balance_report")],
        None,
    ),
    "matching.assignment": ([("didsens.matching", "linear_sum_assignment")], _assignment_attrs),
    "inference.randomization_pvalue": ([("didsens.cli", "randomization_pvalue")], None),
    "inference.invert_ci": ([("didsens.cli", "invert_ci")], None),
    "inference.hodges_lehmann": (
        [("didsens.cli", "hodges_lehmann"), ("didsens.inference", "hodges_lehmann"),
         ("didsens.simulate", "hodges_lehmann")],
        None,
    ),
    "kernels.signflip_pmf": ([("didsens.kernels", "signflip_pmf")], _pmf_attrs),
    "sensitivity.worst_case_pvalue": (
        [("didsens.cli", "worst_case_pvalue"), ("didsens.sensitivity", "worst_case_pvalue"),
         ("didsens.simulate", "worst_case_pvalue")],
        None,
    ),
    "sensitivity.estimate_bounds": (
        [("didsens.cli", "estimate_bounds"), ("didsens.simulate", "estimate_bounds")], None
    ),
    "sensitivity.changepoint_gamma": (
        [("didsens.cli", "changepoint_gamma"), ("didsens.simulate", "changepoint_gamma")], None
    ),
    "binary.eligibility_report": (
        [("didsens.cli", "eligibility_report"), ("didsens.binary", "eligibility_report")], None
    ),
    "binary.mcnemar_sensitivity_pvalue": (
        [("didsens.cli", "mcnemar_sensitivity_pvalue"), ("didsens.binary", "mcnemar_sensitivity_pvalue"),
         ("didsens.simulate", "mcnemar_sensitivity_pvalue")],
        None,
    ),
    "simulate.generate": (
        [("didsens.simulate", "generate_binary"), ("didsens.simulate", "generate_continuous")], None
    ),
    "simulate.quadruples_from_records": ([("didsens.simulate", "quadruples_from_records")], None),
}

# Per-layer metrics in output order, with units.
METRIC_UNITS = {
    **{f"{name}_s": "s" for name in SITES if name != "matching.assignment"},
    "matching.assignment_s": "s",
    "matching.assignment_cells": "count",
    "matching.repair_s": "s",
    "matching.pairs_kept_frac": "fraction",
    "kernels.signflip_pmf.calls": "count",
    "kernels.signflip_pmf.cells": "count",
    "kernels.signflip_pmf.repeat_frac": "fraction",
    "sensitivity.changepoint_gamma.pvalue_calls": "count",
    "simulate.analyze_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans of one process; spans stay in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, observe=None):
        kwargs = kwargs or {}
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            try:
                span.update(observe(args, kwargs, result))
            except Exception:  # a changed signature loses the counter, not the call
                span["attrs_missing"] = True
        return result

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)

        return wrapped

    def install(self, sites: dict = SITES) -> list[str]:
        """Wrap every call site that exists; return the span names with none."""
        absent = []
        for name, (targets, observe) in sites.items():
            found = False
            for module_name, attr in targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self.wrap(name, fn, observe))
                found = True
            if not found:
                absent.append(name)
        return absent


def layer_metrics(spans: list[dict], absent: list[str]) -> dict:
    """Per-layer metrics of one traced pass; metrics built on absent spans are omitted."""
    by_id = {s["id"]: s for s in spans}
    children_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children_time[s["parent"]] = children_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def outermost(name: str) -> list[dict]:
        """Spans of `name` not nested inside another span of the same name."""
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] != name:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in outermost(name))

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    # Counters need the attributes the extractor records; without them they are absent too.
    uncounted = set(absent) | {s["name"] for s in spans if s.get("attrs_missing")}

    m: dict[str, float] = {}
    for name in SITES:
        if name not in absent:
            m[f"{name}_s"] = total(name)
    if "matching.assignment" not in uncounted:
        m["matching.assignment_cells"] = sum(s["cells"] for s in named("matching.assignment"))
    if {"matching.within_period_match", "matching.cross_period_match", "matching.assignment"}.isdisjoint(absent):
        m["matching.repair_s"] = (
            m["matching.within_period_match_s"] + m["matching.cross_period_match_s"]
            - m["matching.assignment_s"]
        )
    if "matching.within_period_match" not in uncounted:
        within = named("matching.within_period_match")
        treated = sum(s["treated"] for s in within)
        m["matching.pairs_kept_frac"] = sum(s["pairs"] for s in within) / treated if treated else 0.0
    if "kernels.signflip_pmf" not in uncounted:
        calls = named("kernels.signflip_pmf")
        seen: set[str] = set()
        repeats = 0
        for s in calls:
            repeats += s["key"] in seen
            seen.add(s["key"])
        m["kernels.signflip_pmf.calls"] = len(calls)
        m["kernels.signflip_pmf.cells"] = sum(s["cells"] for s in calls)
        m["kernels.signflip_pmf.repeat_frac"] = repeats / len(calls) if calls else 0.0
    if "sensitivity.changepoint_gamma" not in absent:
        m["sensitivity.changepoint_gamma.pvalue_calls"] = sum(
            1 for s in spans
            if s["parent"] is not None and by_id[s["parent"]]["name"] == "sensitivity.changepoint_gamma"
            and s["name"] in ("sensitivity.worst_case_pvalue", "binary.mcnemar_sensitivity_pvalue")
        )
    if {"cli.simulate", "simulate.generate", "simulate.quadruples_from_records"}.isdisjoint(absent):
        m["simulate.analyze_s"] = (
            m["cli.simulate_s"] - m["simulate.generate_s"] - m["simulate.quadruples_from_records_s"]
        )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s["end"] - s["start"] - children_time.get(s["id"], 0.0)
            for s in spans if s["name"].split(".")[0] == layer
        )
    return m
