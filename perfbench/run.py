#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bg2_amazon --seed 61453 \
        --seconds 15 --trace 0

Builds the simulator library and the C++ driver (perfbench/driver.cc)
under .bench_build/ on first use, runs one workload for --seconds of
timed repetitions, checks the outputs and prints every metric by name
with its unit and sample count. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
(and writes a Chrome trace next to the driver's other outputs). Exits 1
when the build fails or an output check fails. See perfbench/README.md.
"""

import argparse
import collections
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

WORKLOADS = ["bg2_amazon", "cc_amazon", "array8_cache", "serve_ogbn"]
PAPER_FIG14_BG2_OVER_CC = 21.70
DEFAULT_SEED = 61453  # RunConfig's default target seed (0xF00D)


def build(build_root):
    """Configure and build the driver; returns its path."""
    bdir = os.path.join(build_root, "perfbench")
    os.makedirs(build_root, exist_ok=True)
    log = os.path.join(build_root, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", bdir, "-j", jobs]]
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              timeout=800).returncode != 0:
                with open(log) as g:
                    sys.stderr.write(g.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log)
    return os.path.join(bdir, "perfbench_driver")


def read(path):
    with open(path) as f:
        return f.read()


def scaled(res, rep):
    """A repetition's host-time scale: reference over measured probe."""
    return res["probe_ref_s"] / rep["probe_s"]


def end_to_end(res, timed):
    """End-to-end metrics: {name: (value, samples)}.

    Host times are scaled to the reference machine speed, step by step
    (see SpeedProbe in driver.cc).
    """
    untraced = [r for r in res["reps"] if not r["traced"]]
    run_s = [r["run_s"] * scaled(res, r) for r in untraced]
    setup_s = [s * res["probe_ref_s"] / p
               for s, p in zip(res["setup_s"], res["setup_probe_s"])]
    reads = sum(benchlib.reads(reg) for reg in timed.values())
    if res["reps"][0]["point_s"]:
        # Serve: a sample is one ladder point's host time per micro-batch.
        batch_ms = [s * 1e3 / n * scaled(res, r) for r in untraced
                    for s, n in zip(r["point_s"], r["point_batches"])]
        units = res["serve_requests"]
    else:
        # Offline: a sample is one batch's median over the repetitions,
        # which keeps a slow stretch of one repetition out of the tail.
        batch_ms = [benchlib.median(col) for col in zip(
            *[[ms * scaled(res, r) for ms in r["batch_ms"]]
              for r in untraced])]
        units = res["batches"] * res["batch_size"]
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    sim = res["sim"]
    n_lat = sim["latency_samples"]
    return {
        "setup_s": (benchlib.median(setup_s), len(setup_s)),
        "run_s": (benchlib.median(run_s), len(run_s)),
        "host_ns_per_read": (benchlib.median(run_s) * 1e9 / reads,
                             len(run_s)),
        "host_batch_ms_p50": (benchlib.percentile(batch_ms, 50),
                              len(batch_ms)),
        "host_batch_ms_p90": (benchlib.percentile(batch_ms, 90),
                              len(batch_ms)),
        "peak_rss_mb": ((res["peak_rss_kb"] * 1024.0 - res["probe_bytes"])
                        / 2 ** 20, 1),
        "sim_targets_per_s": (sim["sim_targets_per_s"], units),
        "sim_mj_per_target": (sim["sim_mj_per_target"], units),
        "sim_p50_us": (sim["sim_p50_us"], n_lat),
        "sim_p99_us": (sim["sim_p99_us"], n_lat),
        "sim_max_rate_rps": (sim["sim_max_rate_rps"], 1),
        "ok_frac": (1.0 - failed / attempted, attempted),
    }


def per_layer(res, timed, trace_events, names):
    """Per-layer metrics of a traced run: {name: (value, samples)}.

    Names outside the "host." prefix are read from the registry.

    Span times are scaled by the median probe of the set-ups or of the
    traced repetitions they belong to.
    """
    spans = benchlib.span_tree(trace_events)
    by_name = collections.defaultdict(list)
    for s in spans.values():
        by_name[s["name"]].append(s)
    ref = res["probe_ref_s"]
    setup_scale = ref / benchlib.median(res["setup_probe_s"])
    run_scale = ref / benchlib.median(
        [r["probe_s"] for r in res["reps"] if r["traced"]])

    def med(name, unit_s):
        scale = setup_scale if name in ("generate", "layout") else run_scale
        xs = [s["dur"] * 1e-6 / unit_s * scale for s in by_name[name]]
        return (benchlib.median(xs) if xs else 0.0, len(xs))

    serve = bool(res["reps"][0]["point_s"])
    point_batches = res["reps"][0]["point_batches"]
    calls, fetch_us, shares, batch_self_ms = [], 0.0, [], []
    for run in by_name["run"]:
        units = [c for c in run["children"] if c["name"] in
                 ("batch", "serve_point")]
        fetches = [f for u in units for f in u["children"]]
        calls.append(sum(f["args"]["calls"] for f in fetches))
        fetch_us += sum(f["dur"] for f in fetches)
        shares.append(sum(f["dur"] for f in fetches) / run["dur"])
        for i, u in enumerate(units):
            per = point_batches[i] if serve else 1
            batch_self_ms.append(
                benchlib.self_us(u, res["jobs"]) / 1e3 / per * run_scale)
    total_calls = sum(calls)
    untraced = [r["run_s"] * scaled(res, r)
                for r in res["reps"] if not r["traced"]]
    traced = [r["run_s"] * scaled(res, r)
              for r in res["reps"] if r["traced"]]
    out = {
        "host.graph.generate_s": med("generate", 1),
        "host.directgraph.layout_s": med("layout", 1),
        "host.directgraph.fetch_calls": (benchlib.median(calls), len(calls)),
        "host.directgraph.fetch_ns_per_call":
            (fetch_us * 1e3 / total_calls * run_scale if total_calls else 0.0,
             total_calls),
        "host.directgraph.fetch_share": (benchlib.median(shares),
                                         len(shares)),
        "host.platforms.session_init_ms": med("session_init", 1e-3),
        "host.platforms.batch_self_ms_p50":
            (benchlib.percentile(batch_self_ms, 50), len(batch_self_ms)),
        "host.platforms.finish_ms": med("finish", 1e-3),
        "host.serve.point_s": med("serve_point", 1),
        "host.trace.overhead_s":
            (benchlib.median(traced) - benchlib.median(untraced),
             min(len(traced), len(untraced))),
    }
    label = ("rate_%d" % res["reference_rate"]) if serve else "run"
    for name in names:
        if not name.startswith("host."):
            out[name] = (benchlib.registry_value(timed[label], name), 1)
    return out, by_name


def print_self_times(by_name, n_runs, n_setups, workers):
    """Self time per layer: per traced repetition or per set-up."""
    layer = {"bundle": "platforms (makeBundle glue)", "generate": "graph",
             "layout": "directgraph", "session_init": "platforms",
             "batch": "platforms+engines+flash+ssd+sim+cache",
             "serve_point": "serve (+ the session below it)",
             "fetch": "directgraph (fetch, summed over workers)",
             "finish": "platforms", "run": "benchmark loop"}
    print("  self time per layer (raw ms):")
    for name in ("bundle", "generate", "layout", "run", "session_init",
                 "batch", "serve_point", "fetch", "finish"):
        spans = by_name.get(name, [])
        if not spans:
            continue
        per = n_setups if name in ("bundle", "generate", "layout") else n_runs
        total = sum(benchlib.self_us(s, workers) for s in spans) / 1e3 / per
        print("    %-13s %10.3f  %s" % (name, total, layer[name]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(read("BENCHMARK.json"))
    build_root = ".bench_build"
    driver = build(build_root)

    out = os.path.join(build_root, "out", "%s-%d-%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    p = subprocess.run(
        [driver, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=160)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        sys.exit("perfbench: driver exited %d" % p.returncode)

    res = json.loads(read(os.path.join(out, "result.json")))
    timed_text = read(os.path.join(out, "registry_timed.json"))
    ref_path = os.path.join(out, "registry_reference.json")
    failures = benchlib.check_outputs(
        res, timed_text, read(os.path.join(out, "registry_traced.json")),
        read(ref_path) if os.path.exists(ref_path) else None)
    timed = json.loads(timed_text)

    print("perfbench %s seed=%d trace=%d jobs=%d run=%s" % (
        args.workload, args.seed, args.trace, res["jobs"], res["run_id"]))
    if args.trace:
        events = json.loads(read(os.path.join(out, "trace.json")))
        defs = spec["per_layer"]
        values, by_name = per_layer(res, timed, events["traceEvents"],
                                    [d["name"] for d in defs])
        n_traced = sum(1 for r in res["reps"] if r["traced"])
        print_self_times(by_name, n_traced, len(res["setup_s"]), res["jobs"])
        print("  chrome trace: %s" % os.path.join(out, "trace.json"))
    else:
        values = end_to_end(res, timed)
        defs = spec["end_to_end"]
    for d in defs:
        v, n = values[d["name"]]
        print("  %-34s %18.6f %-9s n=%d" % (d["name"], v, d["unit"], n))

    untraced = [r for r in res["reps"] if not r["traced"]]
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    aborted = sum(benchlib.registry_value(reg, "engine.aborted_commands")
                  for reg in timed.values())
    print("  failed_frac %.6f (%d of %d), engine.aborted_commands %d" % (
        failed / attempted, failed, attempted, aborted))
    sim = res["sim"]
    if "cc_targets_per_s" in sim:
        print("  accuracy: the timing model is unvalidated against hardware "
              "and was calibrated on amazon (EXPERIMENTS.md, \"Calibration "
              "constants\"). Modelled BG-2/CC sim_targets_per_s on amazon "
              "= %.2fx; paper Fig. 14 five-workload mean = %.2fx. Shape "
              "check only, no error figure." % (
                  sim["sim_targets_per_s"] / sim["cc_targets_per_s"],
                  PAPER_FIG14_BG2_OVER_CC))
    if res["reps"][0]["point_s"]:
        print("  open loop: Poisson arrivals at %s req/s, %d requests per "
              "timed point, run in simulated time; latency counts from each "
              "request's scheduled arrival tick, so generator lateness is "
              "0 by construction. sim_p50/p99 from %d requests at %d req/s; "
              "max rate bisected to %d req/s." % (
                  "/".join("%d" % r for r in res["serve_rates"]),
                  res["serve_requests"], sim["latency_samples"],
                  res["reference_rate"], res["rate_resolution"]))
    raw = [r["run_s"] for r in untraced]
    if len(raw) > 1:
        q1, q2, q3 = benchlib.quartiles(raw)
        print("  raw run_s over %d repetitions: median %.6f s, quartiles "
              "%.6f .. %.6f s (spread %.3f)" % (
                  len(raw), q2, q1, q3, benchlib.iqr_share(raw)))
    probes = [r["probe_s"] for r in res["reps"]]
    print("  machine speed: probe median %.3f ms against %.3f ms reference; "
          "host times above are scaled by reference/probe per step" % (
              benchlib.median(probes) * 1e3, res["probe_ref_s"] * 1e3))
    for f in failures:
        print("  CHECK FAILED: %s" % f)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]][0],
                                "unit": d["unit"]} for d in defs},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
