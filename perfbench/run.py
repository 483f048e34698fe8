#!/usr/bin/env python3
"""Collection-tick benchmark: build tick_bench from source, run one workload.

    python3 perfbench/run.py --workload mem_1m --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/; later runs rebuild
incrementally. The last stdout line is the result:

    {"correct": true, "attempted": 19, "failed": 0,
     "metrics": {"ns_per_client": {"value": 1493.2, "unit": "ns"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace to .bench_build/traces/). The line
before it is the run's provenance. Every count metric is also compared with
the first run of the same workload, seed, scale and binary; a difference
fails the run. Exits non-zero without a result line when the build or tick_bench fails.
"""

import argparse
import datetime
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "tick_bench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def log_tail(path, lines=40):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tick_bench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail("build failed:\n" + log_tail(log_path))


def git_sha():
    """The checked-out commit, read from .git without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_counts(workload, seed, scale, counts):
    """Compares exact counts with the first run of the same inputs.

    Each binary keeps its own baseline, so runs of two builds can alternate
    in one tree. Returns the names of the counts that differ, and whether a
    baseline existed to compare with."""
    cache_dir = os.path.join(BUILD_DIR, "counts")
    os.makedirs(cache_dir, exist_ok=True)
    binary = file_sha256(BINARY)[:16]
    path = os.path.join(cache_dir,
                        f"{workload}-seed{seed}-scale{scale}-{binary}.json")
    try:
        with open(path, encoding="utf-8") as f:
            previous = json.load(f)
    except (OSError, ValueError):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(counts, f, sort_keys=True)
        return [], False
    return sorted(name for name in set(counts) | set(previous)
                  if counts.get(name) != previous.get(name)), True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population multiplier (smoke test)")
    parser.add_argument("--true-mean-offset", type=float, default=0.0,
                        help="shift the gate's true mean (smoke test)")
    parser.add_argument("--reference", action="store_true",
                        help="check sharded == single coordinator (smoke test)")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()

    trace_path = os.path.join(BUILD_DIR, "traces",
                              f"{args.workload}-seed{args.seed}.json")
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}",
               f"--trace={'true' if args.trace else 'false'}",
               f"--scale={args.scale}",
               f"--true_mean_offset={args.true_mean_offset}",
               f"--reference={'true' if args.reference else 'false'}",
               f"--work_dir={os.path.join(BUILD_DIR, 'work')}",
               f"--trace_out={trace_path if args.trace else ''}"]
    # Durable state of earlier runs, kept if one was killed, is removed.
    shutil.rmtree(os.path.join(BUILD_DIR, "work"), ignore_errors=True)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"tick_bench exceeded {RUN_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"tick_bench exited with {proc.returncode}")
    result = json.loads(lines[-1])

    attempted = int(result["attempted"])
    failed = int(result["failed"])
    mismatched, compared = check_counts(args.workload, args.seed, args.scale,
                                        result["counts"])
    if compared:
        attempted += 1
    if mismatched:
        failed += 1
        result["failures"].append("counts differ from the first run with "
                                  "this seed and binary: " +
                                  ", ".join(mismatched))

    section = "per_layer" if args.trace else "end_to_end"
    values = {**result["counts"], **result["per_layer"],
              **result["end_to_end"]}
    metrics = {}
    # The count check is a gate too, so the share is recomputed with it.
    values["query_success_share"] = (attempted - failed) / attempted
    for metric in spec[section]:
        if metric["name"] not in values:
            fail(f"tick_bench did not report {metric['name']}")
        metrics[metric["name"]] = {"value": values[metric["name"]],
                                   "unit": metric["unit"]}

    provenance = dict(result["provenance"])
    provenance.update({
        "git_sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "workload": args.workload,
        "trace": args.trace,
        "timed_ticks": result["timed_ticks"],
        "traced_ticks": result["traced_ticks"],
        "journal_peak_bytes": result["journal_peak_bytes"],
        "counts_compared": compared,
        "failures": result["failures"],
    })
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(
            results_dir,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
