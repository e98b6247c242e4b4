"""Statistics, metric derivation and output checks for perfbench.

run.py drives the C++ driver and hands its files to the functions
here; test_benchlib.py tests them on hand-made inputs.
"""

import json
import statistics


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3), as statistics.quantiles(xs, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def iqr_share(xs):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2


def percentile(xs, pct, min_beyond=10):
    """Linear-interpolated percentile of xs (0 <= pct < 100).

    Raises ValueError unless at least min_beyond samples lie beyond
    the requested percentile, i.e. len(xs) * (1 - pct/100) >= min_beyond.
    """
    n = len(xs)
    if n == 0 or n * (100.0 - pct) / 100.0 < min_beyond:
        raise ValueError("p%g needs %d samples beyond it; %d samples give %g"
                         % (pct, min_beyond, n, n * (100.0 - pct) / 100.0))
    s = sorted(xs)
    rank = (n - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def registry_value(reg, name):
    """A registry metric by its per-layer name; 0 when absent.

    A ".mean" suffix reads an accumulator's mean; every other name reads
    a counter or gauge. Metrics a workload does not publish (the cache
    tier without a cache, the array view on one device) read as 0.
    """
    base, mean = (name[:-5], True) if name.endswith(".mean") else (name, False)
    ins = reg.get(base)
    if ins is None:
        return 0
    return ins["mean"] if mean else ins["value"]


def reads(reg):
    """Reads served: flash reads plus cache hits plus deduped reads."""
    return sum(registry_value(reg, n) for n in
               ("engine.flash_reads", "engine.cache.hits",
                "engine.deduped_reads"))


def check_invariants(label, reg, expect_targets=None, expect_requests=None):
    """Tally-conservation checks on one registry snapshot.

    Returns a list of failure messages (empty when all hold).
    """
    v = lambda n: registry_value(reg, n)
    bad = []

    def need(ok, what):
        if not ok:
            bad.append("%s: %s" % (label, what))

    if "engine.cache.hits" in reg:
        need(v("engine.cache.hits") + v("engine.cache.misses")
             == v("engine.sampler.executed"),
             "engine.cache.hits + engine.cache.misses != "
             "engine.sampler.executed")
        need(v("engine.cache.misses") == v("engine.flash_reads"),
             "engine.cache.misses != engine.flash_reads")
    if "array.commands" in reg:
        need(v("array.commands") == v("engine.commands"),
             "array.commands != engine.commands")
    if expect_targets is not None:
        need(v("run.targets") == expect_targets,
             "run.targets %s != %s" % (v("run.targets"), expect_targets))
    if expect_requests is not None:
        need(v("serve.requests") == expect_requests,
             "serve.requests %s != %s"
             % (v("serve.requests"), expect_requests))
        need(v("run.targets") == expect_requests,
             "run.targets %s != serve.requests" % v("run.targets"))
    return bad


def check_outputs(result, timed, traced, reference=None):
    """All output checks of one run; returns failure messages.

    timed, traced and reference are the raw registry snapshot texts of
    the first untraced repetition, the first traced one and (offline
    workloads) the same run through platforms::runPlatform.
    """
    bad = []
    if timed != traced:
        bad.append("registry of the timed run differs from the traced run")
    if reference is not None and timed != reference:
        bad.append("registry differs from platforms::runPlatform's")
    if not result["reps_identical"]:
        bad.append("repetitions of one mode produced different registries")
    serve = bool(result["reps"][0]["point_s"])
    for label, reg in json.loads(timed).items():
        if serve:
            bad += check_invariants(label, reg,
                                    expect_requests=result["serve_requests"])
        else:
            bad += check_invariants(
                label, reg,
                expect_targets=result["batches"] * result["batch_size"])
    return bad


def span_tree(events):
    """Chrome-trace X events keyed by span id, with their children."""
    spans = {e["args"]["id"]: dict(e, children=[])
             for e in events if e.get("ph") == "X"}
    for s in spans.values():
        parent = spans.get(s["args"]["parent"])
        if parent is not None:
            parent["children"].append(s)
    return spans


def self_us(span, workers=1):
    """Span duration minus its children's, floored at 0.

    Aggregated fetch children sum the fetch time of every worker
    thread, so with several workers they are divided by the worker
    count: the wall time they cover if the workers overlapped evenly.
    """
    kids = sum(c["dur"] / (workers if c["name"] == "fetch" else 1)
               for c in span["children"])
    return max(0.0, span["dur"] - kids)
