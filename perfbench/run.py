#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one
workload, printing every metric by name and, as the last stdout line, one
JSON result record.

    python3 perfbench/run.py --workload sweep_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--trace 1]   # every workload, one table

Run it from the repository root. Build output goes to .bench_build/perfbench
(stderr only). --trace 0 reports the end-to-end metrics of the workload;
--trace 1 replays every workload's pipeline with spans and reports the
per-layer metrics plus the tracing overhead. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("sweep_stream", "mc_circuits", "fit_library")
# What items_per_s counts on each workload, under the name users know it by.
ITEM_NAMES = {
    "sweep_stream": "scenarios_per_s",
    "mc_circuits": "corners_per_s",
    "fit_library": "fits_per_s",
}
SIMD_FLAGS = ("sse2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512vl")
RUN_TIMEOUT_S = 175.0

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
COUNTS_FILE = os.path.join(BUILD_DIR, "counts.json")
RESULTS_FILE = os.path.join(BUILD_DIR, "results.jsonl")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench executable. Returns its
    path, or None when the sources are missing or the build fails."""
    src = os.path.dirname(os.path.abspath(__file__))
    cmd = ["cmake", "-S", src, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    """The checked-out commit, or "none" outside a git repository (the
    benchmark's own checkouts are not repositories)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none"


def source_hash():
    """Hash of the sources the benchmark builds: identifies the program
    whether or not it runs from a git checkout, dirty trees included."""
    h = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", os.path.dirname(os.path.abspath(__file__))]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in paths:
            h.update(os.path.relpath(path).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_metadata(info):
    flags, model = set(), "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
                elif line.startswith("model name") and model == "unknown":
                    model = line.split(":", 1)[1].strip()
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "source_hash": source_hash(),
        "compiler": info.get("compiler", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "cpu_flags": " ".join(f for f in SIMD_FLAGS if f in flags),
        "simd_width_active": info.get("simd_width_active"),
        "simd_widths_available": info.get("simd_widths_available"),
    }


def guard_counts(meta, seed, counts):
    """Exact-count guard: the same program on the same seed must reproduce
    every exact count. Returns the names that differ from an earlier run."""
    key = "%s|%s" % (meta["source_hash"], seed)
    try:
        with open(COUNTS_FILE) as f:
            book = json.load(f)
    except (OSError, ValueError):
        book = {}
    entry = book.setdefault(key, {"host": None, "counts": {}})
    host = [meta["cpu"], meta["cpu_flags"], meta["simd_width_active"]]
    if entry["host"] not in (None, host):
        log("perfbench: note: earlier records for this seed come from another "
            "host or SIMD width (%s vs %s); do not compare timings" %
            (entry["host"], host))
    entry["host"] = host
    defects = [n for n, v in counts.items()
               if n in entry["counts"] and entry["counts"][n] != v]
    for n, v in counts.items():
        entry["counts"].setdefault(n, v)
    with open(COUNTS_FILE, "w") as f:
        json.dump(book, f, indent=1, sort_keys=True)
    return defects


def run_workload(exe, workload, seed, seconds, trace, deadline):
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, "trace.jsonl")
    if trace and os.path.exists(trace_file):
        os.remove(trace_file)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "1" if trace else "0", "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def report(workload, seed, trace, record, meta):
    """Prints every metric by name with its unit and applies the count guard."""
    defects = guard_counts(meta, seed, record["counts"])
    if defects:
        log("perfbench: DEFECT: exact counts changed on an identical rerun of "
            "seed %s: %s" % (seed, ", ".join(defects)))
        record["correct"] = False
        record["failed"] += len(defects)
    mode = "traced" if trace else "untraced"
    print("# %s seed=%s %s git=%s source=%s compiler=%s nproc=%s cpu=%s "
          "flags=[%s] simd=%s of %s" % (
        workload, seed, mode, meta["git_sha"][:12], meta["source_hash"],
        meta["compiler"], meta["nproc"], meta["cpu"],
        meta["cpu_flags"], meta["simd_width_active"], meta["simd_widths_available"]))
    for name, m in record["metrics"].items():
        shown = ITEM_NAMES[workload] if name == "items_per_s" else name
        print("%-14s %-40s %16.6g %s" % (workload, shown, m["value"], m["unit"]))
    for name, value in sorted(record["counts"].items()):
        print("%-14s count %-34s %16d" % (workload, name, value))
    print("%-14s correct=%s attempted=%d failed=%d" % (
        workload, record["correct"], record["attempted"], record["failed"]))
    with open(RESULTS_FILE, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                            "time": time.time(), "meta": meta,
                            "record": record}) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if bool(args.workload) == args.all:
        ap.error("give exactly one of --workload or --all")

    exe = build()
    if exe is None:
        log("perfbench: build failed")
        return 1
    start = time.time()
    workloads = WORKLOADS if args.all else (args.workload,)
    # Traced runs replay every pipeline, so one traced run covers --all.
    if args.all and args.trace:
        workloads = WORKLOADS[:1]
    deadline = start + RUN_TIMEOUT_S * len(workloads)
    final = None
    for workload in workloads:
        record = run_workload(exe, workload, args.seed, args.seconds,
                              bool(args.trace), deadline)
        if record is None:
            return 1
        meta = host_metadata(record.get("info", {}))
        report(workload, args.seed, bool(args.trace), record, meta)
        final = record
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
