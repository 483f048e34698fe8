#!/usr/bin/env python3
"""Smoke test of the collection-tick benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py (the same code path as a full run) at --scale 0.001
for one second per run, and checks that:
  * every metric named in BENCHMARK.json is reported, with its unit, on
    every workload, traced and untraced, and end-to-end metrics are nonzero;
  * every run passes its correctness gates, and a second run with the same
    seed reproduces every count exactly (run.py's self-check);
  * the sharded workload's merged results equal
    RunSingleCoordinatorReference bit for bit (--reference);
  * a wrong true mean drives query_success_share below 1.
Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCALE = "0.001"


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    provenance = json.loads(lines[-2][len("provenance: "):])
    return json.loads(lines[-1]), provenance


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)
        print(("ok    " if condition else "FAIL  ") + message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            # Twice: the second run checks the counts against the first.
            for attempt in (1, 2):
                result, provenance = run(workload, trace)
                expect(result["correct"] and result["failed"] == 0,
                       f"{workload} trace={trace} run {attempt} is correct")
            expect(provenance["counts_compared"],
                   f"{workload} trace={trace} run 2 compared its counts")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in spec[section]},
                   f"{workload} trace={trace} reports every {section} metric")
            for metric in spec[section]:
                got = metrics.get(metric["name"], {})
                value = got.get("value")
                ok = (got.get("unit") == metric["unit"] and
                      isinstance(value, (int, float)) and math.isfinite(value)
                      and (section == "per_layer" or value != 0))
                if not ok:
                    expect(False, f"{workload} {metric['name']}: {got}")

    sharded, _ = run("sharded4_1m", 0, "--reference")
    expect(sharded["correct"],
           "sharded4_1m merged results equal RunSingleCoordinatorReference")

    wrong, _ = run("mem_1m", 0, "--true-mean-offset", "1000")
    share = wrong["metrics"]["query_success_share"]["value"]
    expect(share < 1 and not wrong["correct"],
           f"a wrong true mean fails the gate (query_success_share={share})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
