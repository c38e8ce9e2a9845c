"""The measuring process: set-up, then a closed loop of requests.

    python3 perfbench/measure.py --work DIR --seconds S --trace 0|1

Reads the inputs ``workloads.py`` wrote to DIR, imports effectlogic from the
``src`` directory next to this one and writes ``DIR/measure.json`` (metrics,
the first output of every request, and the requests whose later outputs
differed from their first).  One process, one thread, one client: each
request is sent when the previous one has returned.

A request is one scenario query, timed as ``scenario.run`` on the parsed
scenario cut down to that query, or one direct effect-algebra check (build
the algebra, then ``check_axioms`` or ``enumerate_homomorphisms``).

With ``--trace 0`` the run repeats, for ``--seconds``, one set-up (import
effectlogic afresh, parse every scenario file) followed by one pass over
all requests, so every run measures the same mix and set-up samples are
spread over the whole run.  ``setup_s`` is the median set-up.  A request's
latency is the best of its passes: the host this was built on runs the
same code up to 50% slower for tens of seconds at a time, and the best of
several passes removes those phases where a median over all samples
cannot.  ``query_ms_p50``/``query_ms_p90`` are taken over the requests of
one pass and ``queries_per_s`` is requests over their summed latencies;
the same figures over every sample are kept as ``every_sample``.

With ``--trace 1`` the requests run untraced for a while, then the same
number of passes again with every layer traced; the per-layer metrics come
from the traced passes and their set-up, and ``trace.overhead_ratio``
compares the two.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNTRACED_SHARE = 0.4  # of --seconds, spent untraced before the traced passes
MIN_PASSES = 3


def forget_effectlogic() -> None:
    """Unload effectlogic and free what its last set-up left behind."""
    for name in [m for m in sys.modules if m == "effectlogic" or m.startswith("effectlogic.")]:
        del sys.modules[name]
    gc.collect()


def import_effectlogic():
    pkg = importlib.import_module("effectlogic")
    if Path(pkg.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"effectlogic imported from {pkg.__file__}, not from {SRC}")
    return pkg


def build_algebra(ea, spec):
    op = spec["op"]
    if op == "powerset":
        return ea.boolean_powerset_ea(spec["n"])
    if op == "mo":
        return ea.mo_free(spec["n"])
    if op in ("product", "coproduct"):
        return getattr(ea, op)(build_algebra(ea, spec["a"]), build_algebra(ea, spec["b"]))
    if op == "downset":
        return ea.downset(build_algebra(ea, spec["of"]), spec["top"])
    if op == "opposite":
        return ea.opposite(build_algebra(ea, spec["of"]))
    raise ValueError(f"unknown algebra {op!r}")


def make_calls(pkg, scenarios, requests):
    """One zero-argument callable per request, returning its output text."""
    sc_mod, ea = pkg.scenario, pkg.effect_algebra
    calls = []
    for req in requests:
        if req["kind"] == "query":
            sc = scenarios[req["file"]]
            single = sc_mod.Scenario(sc.instance, sc.declarations, [sc.queries[req["query"]]])
            calls.append(lambda single=single: sc_mod.run(single)[0])
        elif req["kind"] == "homs":
            def homs(spec=req["spec"]):
                found = ea.enumerate_homomorphisms(build_algebra(ea, spec), ea.mo_free(0))
                return f"homs {len(found)}"
            calls.append(homs)
        elif req["defect"] is None:
            def check(spec=req["spec"]):
                algebra = build_algebra(ea, spec)
                return ea.check_axioms(algebra).describe(algebra)
            calls.append(check)
        else:
            def defect(spec=req["spec"], k=req["defect"]):
                algebra = build_algebra(ea, spec)
                x = algebra.elements[k % algebra.size]
                if x == algebra.zero:
                    x = algebra.elements[(k + 1) % algebra.size]
                sums = dict(algebra.sums)
                del sums[(x, algebra.zero)]
                report = ea.check_axioms(dataclasses.replace(algebra, sums=sums))
                witness = " ".join(str(w) for w in report.witness or ())
                return f"defect {algebra.zero} {x}: {report.law} {witness}"
            calls.append(defect)
    return calls


def run_pass(calls, samples, outputs, mismatched) -> None:
    """One pass over ``calls``: time each request and keep its output."""
    clock = time.perf_counter
    for i, call in enumerate(calls):
        t0 = clock()
        try:
            out = call()
        except Exception as exc:  # a failed request is counted, the run goes on
            out = f"raised {type(exc).__name__}: {exc}"
        samples[i].append(clock() - t0)
        if outputs[i] is None:
            outputs[i] = out
        elif out != outputs[i]:
            mismatched.add(i)


def thread_count() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


def set_up_and_pass(texts, requests, setup, samples, outputs, mismatched) -> None:
    """A function of its own, so its modules and scenarios are garbage on return."""
    t0 = time.perf_counter()
    pkg = import_effectlogic()
    scenarios = [pkg.scenario.parse_scenario(text) for text in texts]
    setup.append(time.perf_counter() - t0)
    run_pass(make_calls(pkg, scenarios, requests), samples, outputs, mismatched)


def end_to_end(texts, manifest, seconds: float) -> dict:
    """Set up, then run one pass of the requests; repeat for ``seconds``."""
    requests = manifest["requests"]
    samples = [[] for _ in requests]
    outputs = [None] * len(requests)
    mismatched = set()
    setup = []
    start = time.perf_counter()
    while len(setup) < MIN_PASSES or time.perf_counter() - start < seconds:
        forget_effectlogic()
        set_up_and_pass(texts, requests, setup, samples, outputs, mismatched)
    best = [min(s) for s in samples]
    p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
    every = [t for s in samples for t in s]
    return {
        "metrics": {
            "setup_s": (statistics.median(setup), "s"),
            "queries_per_s": (len(best) / sum(best), "1/s"),
            "query_ms_p50": (statistics.median(best) * 1e3, "ms"),
            "query_ms_p90": (p90 * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "outputs": outputs,
        "mismatched": sorted(mismatched),
        "passes": len(setup),
        "beyond_p90": sum(1 for t in best if t > p90),
        "setup_samples": setup,
        "every_sample": {
            "queries_per_s": len(every) / sum(every),
            "query_ms_p50": statistics.median(every) * 1e3,
            "query_ms_p90": statistics.quantiles(every, n=10, method="inclusive")[8] * 1e3,
        },
    }


def traced(work: Path, texts, manifest, seconds: float) -> dict:
    """Untraced passes, then as many traced passes; spans cover the second half."""
    import tracing

    requests = manifest["requests"]
    pkg = import_effectlogic()
    scenarios = [pkg.scenario.parse_scenario(text) for text in texts]
    calls = make_calls(pkg, scenarios, requests)
    plain = [[] for _ in requests]
    outputs = [None] * len(requests)
    mismatched = set()
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds * UNTRACED_SHARE:
        run_pass(calls, plain, outputs, mismatched)
        passes += 1

    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    scenarios = [pkg.scenario.parse_scenario(text) for text in texts]
    calls = make_calls(pkg, scenarios, requests)
    tracer.phase = "query"
    traced_calls = []
    for i, call in enumerate(calls):
        def request(i=i, call=tracer.wrap("request", call)):
            tracer.request = i
            return call()
        traced_calls.append(request)
    spanned = [[] for _ in requests]
    for _ in range(passes):
        run_pass(traced_calls, spanned, outputs, mismatched)
    tracer.write(work / "spans.jsonl")

    overhead = sum(map(sum, spanned)) / sum(map(sum, plain))
    metrics = tracing.per_layer_metrics(tracer.spans, passes * len(requests), overhead)
    return {"metrics": metrics, "outputs": outputs, "mismatched": sorted(mismatched),
            "passes": 2 * passes}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    manifest = json.loads((args.work / "requests.json").read_text(encoding="utf-8"))
    texts = [(args.work / name).read_text(encoding="utf-8") for name in manifest["files"]]
    sys.path.insert(0, str(SRC))
    if args.trace:
        result = traced(args.work, texts, manifest, args.seconds)
    else:
        result = end_to_end(texts, manifest, args.seconds)

    import numpy

    result["requests"] = len(manifest["requests"])
    result["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": thread_count(),
    }
    (args.work / "measure.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
