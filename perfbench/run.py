#!/usr/bin/env python3
"""Benchmark of the provenance-aware secure networking engine.

One command builds the engine from this checkout's src/ tree, runs one
workload for a fixed measuring time, checks every output, and prints every
metric by name with its unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload paper-sendlogprov --seed 1 \\
        --seconds 20 --trace 0

Each repetition runs in a fresh process (perfbench_runner), so peak RSS and
timings carry nothing over from earlier repetitions or workloads. Every
repetition of a run uses the same seed and therefore the same inputs; the
reported times are medians over the repetitions, and the exact counters must
repeat identically. --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics instead (see perfbench/README.md).

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not be built or was misused.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD, "perfbench_runner")
BUILD_TYPE = "RelWithDebInfo"

# Workloads of BENCHMARK.json (why each exists: README.md).
WORKLOADS = ("paper-sendlogprov", "fullprov-archive", "ops-reliable")
# Runnable but not benchmarked: the lossy churn workload, whose checks fail
# on the current engine (README.md, "Known failures").
EXTRA_WORKLOADS = ("ops-lossy",)

END_TO_END = [
    ("setup_s", "s"),
    ("fixpoint_s", "s"),
    ("fixpoint_mb", "MB"),
    ("peak_rss_mb", "MB"),
]

FIX = "fixpoint_s"
OPS = "update/query latency (ops-reliable)"
DRED = "update latency on ops-lossy (link-up updates retract nothing)"
# (name, unit, end-to-end metric it should move, on which workload).
PER_LAYER = [
    ("datalog.create_s", "s", "setup_s, all workloads"),
    ("core.events_self_s", "s", FIX + " on fullprov-archive, paper-sendlogprov"),
    ("core.derivations", "count", FIX + ", all workloads (exact)"),
    ("core.join_candidates", "count", FIX + ", all workloads (exact)"),
    ("core.events", "count", FIX + ", all workloads (exact)"),
    ("core.parallel_compute_s", "s", FIX + " on fullprov-archive"),
    ("core.commit_replay_s", "s", FIX + " on fullprov-archive"),
    ("core.commit_serial_fraction", "ratio", FIX + " on fullprov-archive"),
    ("core.lane_util_min", "ratio", FIX + " on fullprov-archive"),
    ("crypto.sign_s", "s", FIX + " on paper-sendlogprov"),
    ("crypto.verify_s", "s", FIX + " on paper-sendlogprov"),
    ("crypto.signs", "count", FIX + " on paper-sendlogprov (exact)"),
    ("crypto.verifies", "count", FIX + " on paper-sendlogprov (exact)"),
    ("crypto.say_us", "us", FIX + ", setup_s on paper-sendlogprov"),
    ("crypto.verify_us", "us", FIX + ", setup_s on paper-sendlogprov"),
    ("net.delivery_self_s", "s", FIX + " on ops-reliable"),
    ("net.messages", "count", FIX + ", fixpoint_mb, all workloads (exact)"),
    ("net.retransmits", "count", FIX + " on ops-reliable"),
    ("net.acks", "count", FIX + " on ops-reliable"),
    ("net.retransmit_overhead", "ratio", FIX + " on ops-reliable"),
    ("net.dup_deduped", "count", FIX + " on ops-reliable"),
    ("faults.losses", "count", FIX + " on ops-lossy (no loss elsewhere)"),
    ("net.converge_vt_s", "s", FIX + ", all workloads (virtual time, exact)"),
    ("net.latency_drift", "ratio", OPS),
    ("provenance.tuple_mb", "MB", "fixpoint_mb, all workloads"),
    ("provenance.auth_mb", "MB", "fixpoint_mb, all workloads"),
    ("provenance.prov_mb", "MB", "fixpoint_mb, all workloads"),
    ("store.interned_nodes", "count", FIX + " on fullprov-archive"),
    ("store.intern_hit_ratio", "ratio", FIX + " on fullprov-archive"),
    ("store.archive_page_writes", "count", FIX + " on fullprov-archive"),
    ("store.archive_disk_mb", "MB", FIX + " on fullprov-archive"),
    ("mem.prov_arena_mb", "MB", "peak_rss_mb on fullprov-archive"),
    ("mem.archive_pages_mb", "MB", "peak_rss_mb on fullprov-archive"),
    ("mem.table_rows_mb", "MB", "peak_rss_mb, all workloads"),
    ("mem.prov_annotations_mb", "MB", "peak_rss_mb, all workloads"),
    ("mem.network_queues_mb", "MB", "peak_rss_mb, all workloads"),
    ("dynamics.retract_s", "s", DRED),
    ("dynamics.rederive_s", "s", DRED),
    ("dynamics.retractions_per_update", "count", DRED),
    ("dynamics.rederivations_per_update", "count", DRED),
    ("query.serve_s", "s", OPS),
    ("query.records_per_query", "count", OPS),
    ("query.messages_per_query", "count", OPS),
    ("query.offline_hits", "count", OPS),
    ("query.retries", "count", OPS),
    ("query.timeouts", "count", OPS),
    ("adversary.replays_rejected", "count", "must be 0 (a check)"),
    ("adversary.auth_failures", "count", "must be 0 (a check)"),
    ("obs.trace_overhead_s", "s", "traced minus untraced " + FIX),
    ("ops.update_ms_p50", "ms", "user-visible on ops-reliable"),
    ("ops.update_ms_p90", "ms", "user-visible on ops-reliable"),
    ("ops.update_kb", "kB", "user-visible on ops-reliable (exact)"),
    ("ops.query_ms_p50", "ms", "user-visible on ops-reliable"),
    ("ops.query_ms_p99", "ms", "user-visible on ops-reliable"),
    ("ops.query_kb", "kB", "user-visible on ops-reliable (exact)"),
    ("ops.ops_per_s", "1/s", "user-visible on ops-reliable"),
]

# Metrics that only exist where a closed loop runs.
OPS_ONLY = {name for name, _, target in PER_LAYER
            if target in (OPS, DRED) or name.startswith("ops.")}

# Smoke sizes: every code path, in seconds.
SMOKE_ARGS = ["--n", "8", "--steps", "3", "--queries", "3", "--setups", "1"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the runner; False on failure."""
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        if subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], **quiet):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "--target",
                            "perfbench_runner", "-j", jobs], **quiet) == 0


def host_info():
    info = {"nproc": os.cpu_count(), "cpu_model": "unknown", "sha_ni": False,
            "build_type": BUILD_TYPE}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and info["cpu_model"] == "unknown":
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                if line.startswith("flags"):
                    info["sha_ni"] = "sha_ni" in line.split()
    except OSError:
        pass
    return info


def child_env():
    # The engine reads PROVNET_THREADS / PROVNET_FAULT_PLAN; the workloads
    # fix both, so nothing from the caller's environment may leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("PROVNET_")}


def run_rep(args, traced, index, deadline_s):
    """Runs one repetition in a fresh process; returns (result, error)."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spans = os.path.join(BUILD, "traces",
                         "%s-seed%d-rep%d.jsonl" % (args.workload, args.seed, index))
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if traced else "0", "--tmp", tmp]
    if traced:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    if args.smoke:
        cmd += SMOKE_ARGS
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              timeout=max(5.0, deadline_s), check=False)
    except subprocess.TimeoutExpired:
        return None, "repetition %d timed out" % index
    if proc.returncode != 0:
        return None, "repetition %d exited with %d" % (index, proc.returncode)
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        return None, "repetition %d printed no result" % index
    result["spans_file"] = spans if traced else None
    return result, None


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile; also returns how many samples lie beyond."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def ops_metrics(reps):
    """Closed-loop metrics pooled over repetitions (all zero without one)."""
    update_ms = [v for r in reps for v in r["update_ms"]]
    query_ms = [v for r in reps for v in r["query_ms"]]
    op_ms = [r["op_ms"] for r in reps if r["op_ms"]]
    out, notes = {}, {}
    for name, values, p in (("ops.update_ms_p50", update_ms, 50),
                            ("ops.update_ms_p90", update_ms, 90),
                            ("ops.query_ms_p50", query_ms, 50),
                            ("ops.query_ms_p99", query_ms, 99)):
        out[name], beyond = percentile(values, p)
        notes[name] = "%d samples, %d beyond" % (len(values), beyond)
    rep0 = reps[0]
    out["ops.update_kb"] = (sum(rep0["update_bytes"]) / len(rep0["update_bytes"])
                            / 1e3 if rep0["update_bytes"] else 0.0)
    out["ops.query_kb"] = (sum(rep0["query_bytes"]) / len(rep0["query_bytes"])
                           / 1e3 if rep0["query_bytes"] else 0.0)
    total_ms = sum(update_ms) + sum(query_ms)
    out["ops.ops_per_s"] = ((len(update_ms) + len(query_ms)) / (total_ms / 1e3)
                            if total_ms > 0 else 0.0)
    drift = []
    for seq in op_ms:
        half = len(seq) // 2
        if half > 0 and median(seq[:half]) > 0:
            drift.append(median(seq[half:]) / median(seq[:half]))
    out["net.latency_drift"] = median(drift)
    return out, notes


def summarize_spans(files, out_path):
    """Merges per-repetition span files into one; returns per-name totals."""
    by_name = {}
    with open(out_path, "w") as merged:
        for rep, path in enumerate(files):
            with open(path) as f:
                spans = [json.loads(line) for line in f if line.strip()]
            os.remove(path)
            child_time = {}
            for s in spans:
                d = s["end_s"] - s["start_s"]
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + d
            for s in spans:
                d = s["end_s"] - s["start_s"]
                agg = by_name.setdefault(s["name"], [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += d
                agg[2] += d - child_time.get(s["id"], 0.0)
                s["rep"] = rep
                merged.write(json.dumps(s) + "\n")
    return by_name


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n=8), for the benchmark's own test")
    args = parser.parse_args()
    if args.workload not in WORKLOADS and args.workload not in EXTRA_WORKLOADS:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    if not build():
        log("perfbench: build failed")
        return 2

    info = host_info()
    print("perfbench: workload=%s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("host: nproc=%s cpu=%r sha_ni=%s build=%s" %
          (info["nproc"], info["cpu_model"], info["sha_ni"], info["build_type"]))

    # Measure for --seconds: at least two repetitions (the exact counters
    # must repeat); with tracing, untraced and traced ones alternate.
    start = time.monotonic()
    reps, traced_reps, errors = [], [], []
    index = 0
    while index < 2 or time.monotonic() - start < args.seconds:
        traced = args.trace == 1 and index % 2 == 1
        left = 170.0 - (time.monotonic() - start)
        result, error = run_rep(args, traced, index, left)
        index += 1
        if error:
            errors.append(error)
            break
        (traced_reps if traced else reps).append(result)
    elapsed = time.monotonic() - start

    attempted = sum(r["checks"]["attempted"] for r in reps + traced_reps)
    failed = sum(r["checks"]["failed"] for r in reps + traced_reps)
    failures = [f for r in reps + traced_reps for f in r["checks"]["failures"]]
    attempted = max(1, attempted + len(errors))
    failed += len(errors)
    failures += errors
    # The exact counters must repeat identically across repetitions.
    all_reps = reps + traced_reps
    if all_reps:
        for key in sorted(all_reps[0]["exact"]):
            values = {r["exact"][key] for r in all_reps}
            attempted += 1
            if len(values) != 1:
                failed += 1
                failures.append("exact counter %s differs across repetitions: %s"
                                % (key, sorted(values)))

    correct = failed == 0 and bool(reps)
    metrics, notes = {}, {}
    if reps:
        setups = [s for r in reps for s in r["setup_s"]]
        fixpoint = median([r["fixpoint_s"] for r in reps])
        e2e = {
            "setup_s": median(setups),
            "fixpoint_s": fixpoint,
            "fixpoint_mb": reps[0]["fixpoint_bytes"] / 1e6,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        }
        notes["setup_s"] = "median of %d set-ups" % len(setups)
        notes["fixpoint_s"] = "median of %d repetitions" % len(reps)
        notes["peak_rss_mb"] = "median of %d processes" % len(reps)
        ops, ops_notes = ops_metrics(reps)
        notes.update(ops_notes)
        print("repetitions: %d untraced, %d traced in %.1f s" %
              (len(reps), len(traced_reps), elapsed))
        print("end-to-end:")
        for name, unit in END_TO_END:
            print("  %-24s %14.6g %-5s %s" % (name, e2e[name], unit,
                                              notes.get(name, "")))
            metrics[name] = {"value": e2e[name], "unit": unit}
        if args.workload in WORKLOADS and not reps[0]["op_ms"]:
            print("  (no closed loop on this workload: no update/query metrics)")
        else:
            print("closed loop:")
            for name in sorted(k for k in ops if k.startswith("ops.")):
                unit = dict((n, u) for n, u, _ in PER_LAYER)[name]
                print("  %-24s %14.6g %-5s %s" % (name, ops[name], unit,
                                                  notes.get(name, "")))
        print("  %-24s %14.6g %-5s %d failed of %d attempted" %
              ("error_rate", failed / attempted, "ratio", failed, attempted))

    if args.trace == 1 and traced_reps:
        layers = {}
        for key in traced_reps[0]["layers"]:
            layers[key] = median([r["layers"][key] for r in traced_reps])
        layers["datalog.create_s"] = median(
            [median(r["create_s"]) for r in traced_reps])
        layers["net.converge_vt_s"] = traced_reps[0]["converge_vt_s"]
        layers.update(ops)
        layers["obs.trace_overhead_s"] = (
            median([r["fixpoint_s"] for r in traced_reps]) - fixpoint)
        no_loop = not reps[0]["op_ms"]
        metrics = {}
        print("per-layer (traced repetitions; medians):")
        for name, unit, target in PER_LAYER:
            value = layers.get(name, 0.0)
            why = ""
            if no_loop and name in OPS_ONLY:
                why = "  [unavailable: no closed loop on this workload]"
            print("  %-36s %14.6g %-5s -> %s%s" % (name, value, unit, target, why))
            metrics[name] = {"value": value, "unit": unit}
        files = [r["spans_file"] for r in traced_reps if r["spans_file"]]
        merged = os.path.join(BUILD, "traces",
                              "%s-seed%d.jsonl" % (args.workload, args.seed))
        totals = summarize_spans(files, merged)
        print("spans (%d traced repetitions, written to %s):" %
              (len(files), os.path.relpath(merged, ROOT)))
        print("  %-28s %8s %12s %12s" % ("name", "count", "total_s", "self_s"))
        for name, (count, total, self_s) in sorted(
                totals.items(), key=lambda kv: -kv[1][1]):
            print("  %-28s %8d %12.6f %12.6f" % (name, count, total, self_s))

    for f in failures[:20]:
        print("FAILED: %s" % f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
