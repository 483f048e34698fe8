#!/usr/bin/env bash
# Full verification: configure, run the static analyzer (bitpush_lint),
# build, run every test, run every benchmark.
# Usage: scripts/check.sh [--long] [build-dir]
#
# --long raises BITPROP_ITERS so every bitprop property (tests/prop/) runs
# its extended iteration count — the same knob the nightly property-long CI
# job uses. Each property still clamps at its own max_iterations cap.
set -euo pipefail

LONG_MODE=0
if [[ "${1:-}" == "--long" ]]; then
  LONG_MODE=1
  shift
fi

BUILD_DIR="${1:-build}"
cd "$(dirname "$0")/.."

if [[ "$LONG_MODE" -eq 1 ]]; then
  export BITPROP_ITERS="${BITPROP_ITERS:-5000}"
  echo "check.sh: long mode, BITPROP_ITERS=$BITPROP_ITERS"
fi

cmake -B "$BUILD_DIR" -G Ninja

# Static-analysis stage first: bitpush_lint's seven check families
# (determinism, privacy metering, wire exhaustiveness, obs stability,
# header hygiene, and the cross-TU privacy-taint and determinism-flow
# passes) should fail the run in seconds, before any expensive sanitizer
# build starts. The waiver budget is printed so reviewers can watch it
# grow.
cmake --build "$BUILD_DIR" --target bitpush_lint
"$BUILD_DIR/tools/bitpush_lint" --root=. --list-waivers
"$BUILD_DIR/tools/bitpush_lint" --root=.

cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure

# Scalar leg: BITPUSH_SIMD=OFF must stay a first-class configuration — the
# dispatch table, the columnar batch pipeline, and every hot caller fall
# back to the bit-identical scalar kernel. Two layers: the env override on
# the SIMD build (cheap; exercises the runtime latch in src/kernels/
# dispatch.cc), then a full scalar compile with the whole suite.
BITPUSH_SIMD=OFF ctest --test-dir "$BUILD_DIR" --output-on-failure -R Kernel
cmake -B "$BUILD_DIR-scalar" -G Ninja -DBITPUSH_SIMD=OFF
cmake --build "$BUILD_DIR-scalar"
ctest --test-dir "$BUILD_DIR-scalar" --output-on-failure

# Sanitized pass: the fault-injection, wire-fuzz, persistence, bitprop
# property, and kernel suites exercise the decode, failure, shrink, and
# SIMD paths, so run them under ASan+UBSan too (the kernel tests cover the
# intrinsics tails and unaligned word loads).
cmake -B "$BUILD_DIR-asan" -G Ninja -DBITPUSH_SANITIZE=address,undefined
cmake --build "$BUILD_DIR-asan" \
  --target fault_tests wire_fuzz_tests persist_tests persist_fuzz_tests \
  obs_tests prop_tests kernel_tests shard_tests
ctest --test-dir "$BUILD_DIR-asan" --output-on-failure \
  -R '(Fault|WireFuzz|Journal|Snapshot|Recovery|PersistFuzz|Obs|Prop|Kernel|Shard)'

# TSan pass: the obs registry is the production state hammered from
# multiple threads — the `Obs` alternate runs its race tests, including
# ObsTest.ConcurrentCountersDoNotDropIncrements. The fleet and resilience
# suites drive the collection state machines, and the bitprop suites ride
# along so the differential oracles also run instrumented. Keep this regex
# in sync with the sanitize-thread job in .github/workflows/ci.yml.
cmake -B "$BUILD_DIR-tsan" -G Ninja -DBITPUSH_SANITIZE=thread
cmake --build "$BUILD_DIR-tsan" \
  --target fleet_tests resilience_tests obs_tests prop_tests kernel_tests
ctest --test-dir "$BUILD_DIR-tsan" --output-on-failure \
  -R '(Fleet|Resilience|Obs|Prop|Kernel)'

# Crash-recovery stage: run a durable campaign, SIGKILL it mid-campaign at
# a journal-record boundary, restart against the same state directory, and
# require the recovered stdout — and the deterministic metrics snapshot —
# to be byte-identical to an uninterrupted run.
STATE_ROOT="$(mktemp -d)"
trap 'rm -rf "$STATE_ROOT"' EXIT
SIM="$BUILD_DIR/tools/bitpush_sim"
SIM_ARGS=(--task=campaign --n=400 --ticks=4 --seed=99)

"$SIM" "${SIM_ARGS[@]}" --state_dir="$STATE_ROOT/clean" \
  --metrics_out="$STATE_ROOT/clean.snapshot" \
  --trace_out="$STATE_ROOT/clean.trace.json" \
  --events_out="$STATE_ROOT/clean.events.snapshot" \
  --alerts_out="$STATE_ROOT/clean.alerts.txt" \
  > "$STATE_ROOT/clean.out"

set +e
"$SIM" "${SIM_ARGS[@]}" --state_dir="$STATE_ROOT/crashed" \
  --crash_after_records=120 > /dev/null 2>&1
CRASH_STATUS=$?
set -e
if [[ "$CRASH_STATUS" -ne 137 ]]; then
  echo "crash-recovery: expected simulated crash (exit 137), got $CRASH_STATUS" >&2
  exit 1
fi

"$SIM" "${SIM_ARGS[@]}" --state_dir="$STATE_ROOT/crashed" \
  --metrics_out="$STATE_ROOT/recovered.snapshot" \
  --trace_out="$STATE_ROOT/recovered.trace.json" \
  --events_out="$STATE_ROOT/recovered.events.snapshot" \
  --alerts_out="$STATE_ROOT/recovered.alerts.txt" \
  > "$STATE_ROOT/recovered.out" 2> "$STATE_ROOT/recovered.err"
grep -q 'recovered state:' "$STATE_ROOT/recovered.err"
diff -u "$STATE_ROOT/clean.out" "$STATE_ROOT/recovered.out"
echo "crash-recovery: recovered run is byte-identical to the clean run"

# Exporter-validation stage. The stable metrics must survive the crash
# (deterministic-snapshot diff, plus the checked-in golden), the
# Prometheus export must carry the documented metric families, and the
# trace export must be well-formed Chrome trace-event JSON with events.
diff -u "$STATE_ROOT/clean.snapshot" "$STATE_ROOT/recovered.snapshot"
diff -u tests/golden/campaign_metrics.snapshot "$STATE_ROOT/clean.snapshot"
echo "exporters: metrics snapshot is crash-exact and matches the golden"

# The flight recorder's stable event stream and the fired-alert timeline
# carry the same guarantee: byte-identical across the crash, and pinned by
# checked-in goldens.
diff -u "$STATE_ROOT/clean.events.snapshot" "$STATE_ROOT/recovered.events.snapshot"
diff -u tests/golden/campaign_events.snapshot "$STATE_ROOT/clean.events.snapshot"
diff -u "$STATE_ROOT/clean.alerts.txt" "$STATE_ROOT/recovered.alerts.txt"
diff -u tests/golden/campaign_alerts.txt "$STATE_ROOT/clean.alerts.txt"
echo "exporters: events snapshot and alert timeline are crash-exact and match the goldens"

"$SIM" "${SIM_ARGS[@]}" --state_dir="$STATE_ROOT/prom" \
  --metrics_out="$STATE_ROOT/metrics.prom" \
  --events_out="$STATE_ROOT/events.jsonl" > /dev/null
for metric in bitpush_rounds_total bitpush_campaign_ticks_total \
    bitpush_wire_payload_bytes_total bitpush_meter_epsilon_spent \
    bitpush_journal_records_total bitpush_round_sim_minutes_bucket \
    bitpush_alert_state; do
  grep -q "^$metric" "$STATE_ROOT/metrics.prom" \
    || { echo "exporters: $metric missing from Prometheus output" >&2; exit 1; }
done

# The full (stable + volatile) event log exports as JSONL; every line must
# be well-formed JSON. bitpush_doctor doubles as the validator, and its
# post-mortem report over the crashed-then-recovered state directory must
# see the journal, the events, and the fired alert.
DOCTOR="$BUILD_DIR/tools/bitpush_doctor"
"$DOCTOR" --validate_events="$STATE_ROOT/events.jsonl"
"$DOCTOR" --state_dir="$STATE_ROOT/crashed" \
  --events="$STATE_ROOT/events.jsonl" \
  --metrics="$STATE_ROOT/metrics.prom" \
  --out="$STATE_ROOT/doctor.txt"
grep -q '^== journal ' "$STATE_ROOT/doctor.txt"
grep -q 'FIRED.*rule=privacy_burn_rate' "$STATE_ROOT/doctor.txt"
echo "exporters: events JSONL well-formed; doctor post-mortem report complete"
python3 - "$STATE_ROOT/clean.trace.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "trace export has no events"
for event in events:
    assert event["ph"] == "X" and "ts" in event and "dur" in event, event
print(f"exporters: trace JSON well-formed ({len(events)} events)")
PYEOF

# Benchmark smoke test: perfbench/ compiles the library from the
# src/CMakeLists.txt source list, so this proves the benchmark still builds
# and passes its gates at tiny sizes after a source-list change.
python3 perfbench/smoke_test.py

for b in "$BUILD_DIR"/bench/*; do
  echo "### $b"
  if [[ "$(basename "$b")" == bench_micro_throughput ]]; then
    # Also emit the machine-readable benchmark dump; the binary's own
    # guards run after the benchmarks and fail the stage if enabling
    # metrics costs >= 2% on the EncodeAll hot path, or if the columnar
    # kernel pipeline is not >= 10x the per-report scalar path
    # (BENCH_kernel_throughput.json under the build dir records the
    # measurement, as in CI, so the committed copy at the repository root
    # is never overwritten; the kernel guard self-skips on hardware with
    # no SIMD kernel).
    # BITPUSH_OBS_BENCH_JSON captures the obs-overhead guard's two paths
    # (metrics timer, event ring) as a machine-readable artifact.
    BITPUSH_KERNEL_BENCH_JSON="$BUILD_DIR/BENCH_kernel_throughput.json" \
    BITPUSH_OBS_BENCH_JSON="$BUILD_DIR/BENCH_obs_overhead.json" \
      "$b" --benchmark_out="$BUILD_DIR/BENCH_micro_throughput.json" \
      --benchmark_out_format=json
  else
    "$b"
  fi
  echo
done
