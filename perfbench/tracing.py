"""In-memory spans around the calls into each effectlogic module.

``install`` wraps the package's public functions and the ``__post_init__``
validators of its value types, and rebinds every module-level name that
refers to a wrapped function.  Modules import one another's functions by
name (``quantum`` binds ``eigen_hermitian``, ``classical`` binds
``enumerate_homomorphisms``), so patching only the defining module would
miss most calls.

A span is ``[id, parent, request, phase, layer, start, end, attr]``; ids
are list positions.  Self time is a span's duration minus the durations of
its direct children (calls are nested and single-threaded, so children
never overlap).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

ID, PARENT, REQUEST, PHASE, LAYER, START, END, ATTR = range(8)

LINALG_LAYERS = {
    "eigen_hermitian": "linalg.eigen",
    "sqrt_psd": "linalg.sqrt_psd",
    "kernel_basis": "linalg.kernel_basis",
    "parse_matrix": "linalg.parse_matrix",
    "format_matrix": "linalg.format_matrix",
}
EA_CONSTRUCTIONS = ("mo_free", "boolean_powerset_ea", "product", "coproduct", "downset",
                    "opposite")
SCENARIO_LAYERS = {"parse_scenario": "scenario.parse", "run": "scenario.eval",
                   "format_value": "scenario.format"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.request = -1

    def wrap(self, layer: str, fn, attr=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, tracer.request, tracer.phase,
                      layer, clock(), 0.0, None]
            spans.append(record)
            stack.append(record[ID])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if attr is not None:
                record[ATTR] = attr(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _eigen_dim(args, result):
    return len(result.eigenvalues)


def _entries(args, result):
    return len(args[0].sums)


def _homs(args, result):
    source, target = args[0], args[1]
    candidates = len(target.elements) ** max(len(source.elements) - 1, 0)
    return [candidates, len(result)]


def _public_functions(module):
    return {obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def install(tracer: Tracer, pkg) -> None:
    """Route calls into every layer of ``pkg`` (the effectlogic package) through spans."""
    linalg, quantum, stochastic = pkg.linalg, pkg.quantum, pkg.stochastic
    classical, effect_algebra, scenario = pkg.classical, pkg.effect_algebra, pkg.scenario
    wrapped = {}

    def add(fn, layer, attr=None):
        wrapped[fn] = tracer.wrap(layer, fn, attr)

    for name, layer in LINALG_LAYERS.items():
        add(getattr(linalg, name), layer, _eigen_dim if name == "eigen_hermitian" else None)
    for module, layer in ((quantum, "quantum.ops"), (stochastic, "stochastic.ops"),
                          (classical, "classical.ops")):
        for fn in _public_functions(module):
            add(fn, layer)
    add(effect_algebra.check_axioms, "effect_algebra.check_axioms", _entries)
    add(effect_algebra.enumerate_homomorphisms, "effect_algebra.homs", _homs)
    for name in EA_CONSTRUCTIONS:
        add(getattr(effect_algebra, name), "effect_algebra.build")
    for name, layer in SCENARIO_LAYERS.items():
        add(getattr(scenario, name), layer)

    for module in (pkg, linalg, quantum, stochastic, classical, effect_algebra, scenario):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])

    # validation runs in __post_init__, reached through the class whatever
    # name the caller used for it
    for module, classes, layer in (
        (quantum, ("Effect", "QPredicate", "PureState", "DensityMatrix", "Isometry"),
         "quantum.validate"),
        (stochastic, ("Distribution", "StochasticMap", "FuzzyPredicate"), "stochastic.validate"),
        (classical, ("FinSet", "BoolPredicate", "FinMap"), "classical.validate"),
    ):
        for cls_name in classes:
            cls = getattr(module, cls_name)
            cls.__post_init__ = tracer.wrap(layer, cls.__post_init__)
    for cls, method, layer in ((quantum.QPredicate, "perp", "quantum.ops"),
                               (stochastic.StochasticMap, "row", "stochastic.ops"),
                               (stochastic.FuzzyPredicate, "complement", "stochastic.ops"),
                               (classical.BoolPredicate, "complement", "classical.ops")):
        setattr(cls, method, tracer.wrap(layer, getattr(cls, method)))
    from_effect = quantum.QPredicate.__dict__["from_effect"].__func__
    quantum.QPredicate.from_effect = classmethod(tracer.wrap("quantum.ops", from_effect))


def layer_totals(spans, phase: str) -> dict:
    """Per layer: calls, total and self seconds, span attributes, for one phase."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": []})
    for span in spans:
        if span[PHASE] != phase:
            continue
        entry = totals[span[LAYER]]
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += span[END] - span[START] - child_time[span[ID]]
        if span[ATTR] is not None:
            entry["attrs"].append(span[ATTR])
    return totals


def per_layer_metrics(spans, requests: int, overhead_ratio: float) -> dict:
    """The per-layer metrics of a traced run, as name -> (value, unit)."""
    setup = layer_totals(spans, "setup")
    query = layer_totals(spans, "query")

    def per_query_ms(layer):
        return query[layer]["self_s"] * 1e3 / requests

    def ratio(a, b):
        return a / b if b else 0.0

    eigen = query["linalg.eigen"]
    checks = query["effect_algebra.check_axioms"]
    homs = query["effect_algebra.homs"]
    candidates = sum(a[0] for a in homs["attrs"])
    found = sum(a[1] for a in homs["attrs"])
    all_checks = checks["calls"] + homs["calls"]
    metrics = {
        "linalg.eigen.calls_per_query": (eigen["calls"] / requests, "count"),
        "linalg.eigen.self_ms_per_query": (per_query_ms("linalg.eigen"), "ms"),
        "linalg.eigen.mean_dim": (ratio(sum(eigen["attrs"]), eigen["calls"]), "count"),
        "linalg.sqrt_psd.self_ms_per_query": (per_query_ms("linalg.sqrt_psd"), "ms"),
        "linalg.kernel_basis.self_ms_per_query": (per_query_ms("linalg.kernel_basis"), "ms"),
        "linalg.parse_matrix.self_s": (setup["linalg.parse_matrix"]["self_s"], "s"),
        "linalg.format_matrix.self_ms_per_query": (per_query_ms("linalg.format_matrix"), "ms"),
        "quantum.validate.calls_per_query":
            (query["quantum.validate"]["calls"] / requests, "count"),
        "quantum.validate.self_ms_per_query": (per_query_ms("quantum.validate"), "ms"),
        "quantum.ops.self_ms_per_query": (per_query_ms("quantum.ops"), "ms"),
        "stochastic.validate.self_ms_per_query": (per_query_ms("stochastic.validate"), "ms"),
        "stochastic.ops.self_ms_per_query": (per_query_ms("stochastic.ops"), "ms"),
        "classical.validate.self_ms_per_query": (per_query_ms("classical.validate"), "ms"),
        "classical.ops.self_ms_per_query": (per_query_ms("classical.ops"), "ms"),
        "effect_algebra.check_axioms.self_ms_per_check":
            (ratio(checks["self_s"] * 1e3, checks["calls"]), "ms"),
        "effect_algebra.check_axioms.entries_per_check":
            (ratio(sum(checks["attrs"]), checks["calls"]), "count"),
        "effect_algebra.build.self_ms_per_check":
            (ratio(query["effect_algebra.build"]["self_s"] * 1e3, all_checks), "ms"),
        "effect_algebra.homs.candidates": (ratio(candidates, homs["calls"]), "count"),
        "effect_algebra.homs.found": (ratio(found, homs["calls"]), "count"),
        "effect_algebra.homs.yield": (ratio(found, candidates), "ratio"),
        "scenario.parse.self_s": (setup["scenario.parse"]["self_s"], "s"),
        "scenario.eval.self_ms_per_query": (per_query_ms("scenario.eval"), "ms"),
        "scenario.format.self_ms_per_query": (per_query_ms("scenario.format"), "ms"),
        "trace.request_ms_per_query": (query["request"]["total_s"] * 1e3 / requests, "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return metrics
