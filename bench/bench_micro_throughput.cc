// Micro-benchmarks of the protocol hot paths (google-benchmark): encoding,
// bit-report generation, QMC assignment, full basic and adaptive protocol
// runs, randomized response, and the columnar kernel layer (reports/sec,
// scalar vs dispatched SIMD). After the benchmarks, main runs two guards,
// each enforced with a nonzero exit code:
//
//   * obs overhead guard — enabling the metrics registry (no exporters
//     attached) must cost less than 2% on the instrumented EncodeAll path;
//   * kernel throughput guard — the dispatched batch path (kernel encode +
//     popcount aggregation) must beat the seed's per-report scalar path by
//     at least 10x on encode+aggregate (ROADMAP item 1), recorded as
//     JSON at $BITPUSH_KERNEL_BENCH_JSON when that is set.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "obs/events.h"
#include "obs/metrics.h"

#include "batch/batch.h"
#include "core/adaptive.h"
#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "core/fixed_point.h"
#include "core/histogram_estimation.h"
#include "core/range_tree.h"
#include "data/census.h"
#include "kernels/kernels.h"
#include "ldp/memoization.h"
#include "ldp/randomized_response.h"
#include "rng/qmc.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

const Dataset& BenchAges() {
  static const Dataset& data = *new Dataset([] {
    Rng rng(1);
    return CensusAges(100000, rng);
  }());
  return data;
}

void BM_Encode(benchmark::State& state) {
  const FixedPointCodec codec = FixedPointCodec::Integer(16);
  const std::vector<double>& values = BenchAges().values();
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.EncodeAll(values));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_Encode);

void BM_RandomizedResponse(benchmark::State& state) {
  const RandomizedResponse rr(1.0);
  Rng rng(2);
  int bit = 1;
  for (auto _ : state) {
    bit = rr.Apply(bit, rng);
    benchmark::DoNotOptimize(bit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RandomizedResponse);

void BM_QmcAssignment(benchmark::State& state) {
  const std::vector<double> p = GeometricProbabilities(16, 0.5);
  Rng rng(3);
  const int64_t n = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AssignBitsCentral(n, p, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QmcAssignment)->Arg(10000)->Arg(100000);

void BM_BasicBitPushing(benchmark::State& state) {
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  const std::vector<uint64_t> codewords =
      codec.EncodeAll(BenchAges().values());
  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(8, 0.5);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunBasicBitPushing(codewords, config, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(codewords.size()));
}
BENCHMARK(BM_BasicBitPushing);

void BM_BasicBitPushingWithDp(benchmark::State& state) {
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  const std::vector<uint64_t> codewords =
      codec.EncodeAll(BenchAges().values());
  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(8, 0.5);
  config.epsilon = 1.0;
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunBasicBitPushing(codewords, config, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(codewords.size()));
}
BENCHMARK(BM_BasicBitPushingWithDp);

void BM_AdaptiveBitPushing(benchmark::State& state) {
  const FixedPointCodec codec = FixedPointCodec::Integer(16);
  const std::vector<uint64_t> codewords =
      codec.EncodeAll(BenchAges().values());
  AdaptiveConfig config;
  config.bits = 16;
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunAdaptiveBitPushing(codewords, config, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(codewords.size()));
}
BENCHMARK(BM_AdaptiveBitPushing);

void BM_HistogramEstimation(benchmark::State& state) {
  HistogramConfig config;
  config.edges = UniformEdges(0.0, 91.0, 16);
  Rng rng(7);
  const std::vector<double>& values = BenchAges().values();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateHistogram(values, config, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_HistogramEstimation);

void BM_RangeTree(benchmark::State& state) {
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const std::vector<uint64_t> codewords =
      codec.EncodeAll(BenchAges().values());
  RangeTreeConfig config;
  config.levels = 7;
  Rng rng(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateRangeTree(codewords, config, rng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(codewords.size()));
}
BENCHMARK(BM_RangeTree);

void BM_MemoizedReport(benchmark::State& state) {
  const MemoizedResponder responder(1.0, 1.0, 42);
  Rng rng(10);
  int64_t value_id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        responder.Report(value_id++ % 1000, 3, 1, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoizedReport);

// ---------------------------------------------------------------------------
// Columnar kernel layer (src/kernels/, src/batch/): reports/sec with the
// dispatched kernel and with the scalar kernel forced, so a bench run
// shows the SIMD margin directly.

std::vector<double> KernelBenchValues(int64_t n) {
  const std::vector<double>& ages = BenchAges().values();
  std::vector<double> values(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values[static_cast<size_t>(i)] =
        ages[static_cast<size_t>(i) % ages.size()];
  }
  return values;
}

std::vector<int> KernelBenchAssignment(int64_t n, int bits) {
  Rng rng(17);
  std::vector<int> assignment(static_cast<size_t>(n));
  for (int& a : assignment) {
    a = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(bits)));
  }
  return assignment;
}

template <bool kForceScalar>
void BM_KernelEncodeBatch(benchmark::State& state) {
  std::optional<kernels::ScopedForceScalar> force;
  if (kForceScalar) force.emplace();
  const FixedPointCodec codec = FixedPointCodec::Integer(16);
  const std::vector<double> values = KernelBenchValues(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.EncodeAll(values));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
  state.SetLabel(kernels::ActiveKernel().name);
}
BENCHMARK(BM_KernelEncodeBatch<false>)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_KernelEncodeBatch<true>)->Arg(65536)->Arg(1 << 20);

template <bool kForceScalar>
void BM_KernelAggregateBatch(benchmark::State& state) {
  std::optional<kernels::ScopedForceScalar> force;
  if (kForceScalar) force.emplace();
  const int bits = 16;
  const int64_t n = state.range(0);
  const FixedPointCodec codec = FixedPointCodec::Integer(bits);
  const ReportBatch batch = BuildReportBatch(
      codec.EncodeAll(KernelBenchValues(n)), KernelBenchAssignment(n, bits),
      bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AggregateBatch(batch));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels::ActiveKernel().name);
}
BENCHMARK(BM_KernelAggregateBatch<false>)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_KernelAggregateBatch<true>)->Arg(65536)->Arg(1 << 20);

void BM_KernelBuildPlanes(benchmark::State& state) {
  const int bits = 16;
  const int64_t n = state.range(0);
  const FixedPointCodec codec = FixedPointCodec::Integer(bits);
  const std::vector<uint64_t> codewords =
      codec.EncodeAll(KernelBenchValues(n));
  const std::vector<int> assignment = KernelBenchAssignment(n, bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildReportBatch(codewords, assignment, bits));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels::ActiveKernel().name);
}
BENCHMARK(BM_KernelBuildPlanes)->Arg(65536)->Arg(1 << 20);

void BM_KernelPerturbBatch(benchmark::State& state) {
  const int bits = 16;
  const int64_t n = state.range(0);
  const FixedPointCodec codec = FixedPointCodec::Integer(bits);
  const ReportBatch base = BuildReportBatch(
      codec.EncodeAll(KernelBenchValues(n)), KernelBenchAssignment(n, bits),
      bits);
  const RandomizedResponse rr(1.0);
  Rng rng(23);
  for (auto _ : state) {
    ReportBatch batch = base;
    PerturbBatch(&batch, rr, rng);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(kernels::ActiveKernel().name);
}
BENCHMARK(BM_KernelPerturbBatch)->Arg(65536);

// The guard times two instrumented hot paths — FixedPointCodec::EncodeAll
// (carries an obs::ScopedTimer) and the same encode loop with one
// flight-recorder emission per iteration (the shape of the real
// instrumentation: events mark round boundaries, not per-report work) —
// each with the registry disabled and enabled, and checks the
// enabled/disabled ratio per path. Min-of-trials per side plus retry
// rounds keep scheduler noise from failing a healthy build; the threshold
// can be loosened for slow CI machines via BITPUSH_OBS_OVERHEAD_MAX. With
// BITPUSH_OBS_BENCH_JSON set, both measurements are recorded as JSON at
// that path.
struct ObsGuardSample {
  const char* name = "";
  double ratio = 0.0;
  double threshold = 0.0;
  bool pass = false;
};

template <typename Workload>
ObsGuardSample MeasureObsGuard(const char* name, double threshold,
                               const Workload& workload) {
  constexpr int kTrials = 7;
  constexpr int kRounds = 5;

  const auto time_once = [&] {
    const auto start = std::chrono::steady_clock::now();
    workload();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const auto best_of_trials = [&] {
    double best = time_once();
    for (int t = 1; t < kTrials; ++t) best = std::min(best, time_once());
    return best;
  };

  ObsGuardSample sample;
  sample.name = name;
  sample.threshold = threshold;
  for (int round = 0; round < kRounds; ++round) {
    obs::SetEnabled(false);
    const double disabled = best_of_trials();
    obs::SetEnabled(true);
    const double enabled = best_of_trials();
    obs::SetEnabled(false);
    sample.ratio = enabled / disabled;
    std::printf(
        "obs_overhead_ratio[%s] %.4f (threshold %.4f, round %d/%d)\n", name,
        sample.ratio, threshold, round + 1, kRounds);
    if (sample.ratio < threshold) {
      sample.pass = true;
      return sample;
    }
  }
  return sample;
}

int RunObsOverheadGuard() {
  const FixedPointCodec codec = FixedPointCodec::Integer(16);
  const std::vector<double>& values = BenchAges().values();
  constexpr int kInnerIterations = 20;

  double threshold = 1.02;
  if (const char* env = std::getenv("BITPUSH_OBS_OVERHEAD_MAX")) {
    threshold = std::atof(env);
  }

  const auto timer_workload = [&] {
    for (int i = 0; i < kInnerIterations; ++i) {
      benchmark::DoNotOptimize(codec.EncodeAll(values));
    }
  };
  const auto event_workload = [&] {
    for (int i = 0; i < kInnerIterations; ++i) {
      benchmark::DoNotOptimize(codec.EncodeAll(values));
      // kVolatile: the bench runs on the wall clock, so nothing it emits
      // may enter the byte-stable ring.
      obs::EventArgs args;
      args.round_id = i;
      obs::EmitEvent(obs::EventType::kRoundOutcome,
                     obs::Determinism::kVolatile, std::move(args));
    }
  };

  // Fresh ring so the guard measures steady-state appends, not eviction
  // churn left over from earlier benchmark cases.
  obs::EventRecorder::Default().Reset();
  const ObsGuardSample timer =
      MeasureObsGuard("scoped_timer", threshold, timer_workload);
  const ObsGuardSample events =
      MeasureObsGuard("event_ring", threshold, event_workload);

  // Recorded only on request, so a run from the repository root leaves no
  // file behind.
  if (const char* json_path = std::getenv("BITPUSH_OBS_BENCH_JSON")) {
    if (std::FILE* out = std::fopen(json_path, "w")) {
      std::fprintf(out,
                   "{\n"
                   "  \"threshold\": %.4f,\n"
                   "  \"paths\": [\n",
                   threshold);
      const ObsGuardSample* samples[] = {&timer, &events};
      for (size_t i = 0; i < 2; ++i) {
        std::fprintf(out,
                     "    {\"name\": \"%s\", \"ratio\": %.4f, "
                     "\"status\": \"%s\"}%s\n",
                     samples[i]->name, samples[i]->ratio,
                     samples[i]->pass ? "pass" : "fail", i == 0 ? "," : "");
      }
      std::fprintf(out, "  ]\n}\n");
      std::fclose(out);
      std::printf("obs_overhead json written to %s\n", json_path);
    } else {
      std::fprintf(stderr, "obs_overhead_guard: cannot write %s\n",
                   json_path);
      return 1;
    }
  }

  int status = 0;
  for (const ObsGuardSample* sample : {&timer, &events}) {
    if (sample->pass) {
      std::printf("obs_overhead_guard[%s] PASS\n", sample->name);
    } else {
      std::fprintf(stderr,
                   "obs_overhead_guard[%s] FAIL: ratio %.4f >= %.4f\n",
                   sample->name, sample->ratio, sample->threshold);
      status = 1;
    }
  }
  return status;
}

// The kernel throughput guard (ROADMAP item 1's acceptance line): the
// dispatched batch path must deliver >= 10x the seed's per-report scalar
// path on the encode+aggregate work of one round.
//
// What each side measures, at n = 65536 clients, bits = 16:
//
//   * seed path — the pre-columnar implementation, verbatim: scalar
//     FixedPointCodec::EncodeAll (ScopedForceScalar) followed by the
//     per-report tally loop (MakeBitReport + BitHistogram::Add per
//     client), i.e. one 16-byte report through the AoS pipeline each.
//   * batch path — the dispatched kernel encode into a preallocated
//     codeword array plus AggregateBatch (per-plane popcount) over a
//     prebuilt ReportBatch.
//
// Batch *construction* (BuildReportBatch) is deliberately outside the
// gated metric: a round builds its batch once and aggregates it, while
// the seed path re-walked every report for every count, which is exactly
// the asymmetry the columnar layout exists to exploit. BuildReportBatch
// cost is visible separately in BM_KernelBuildPlanes. Min-of-trials on
// both sides keeps scheduler noise out; n = 2^20 is also measured and
// reported (DRAM-bound, typically a smaller margin) but not gated. The
// threshold can be adjusted via BITPUSH_KERNEL_SPEEDUP_MIN; the guard is
// skipped (exit 0) when no SIMD kernel is active, since the 10x target is
// a claim about the dispatched path. With BITPUSH_KERNEL_BENCH_JSON set,
// the results are recorded as JSON at that path.
struct KernelGuardSample {
  int64_t n = 0;
  double seed_seconds = 0.0;
  double batch_seconds = 0.0;
  double speedup = 0.0;
};

KernelGuardSample MeasureKernelGuard(int64_t n) {
  constexpr int kBits = 16;
  constexpr int kTrials = 5;
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  const std::vector<double> values = KernelBenchValues(n);
  const std::vector<int> assignment = KernelBenchAssignment(n, kBits);
  const std::vector<uint64_t> codewords = codec.EncodeAll(values);
  const ReportBatch batch = BuildReportBatch(codewords, assignment, kBits);
  const kernels::EncodeParams params{codec.low(), codec.high(),
                                     1.0 / codec.resolution(),
                                     codec.max_codeword()};
  std::vector<uint64_t> encoded(static_cast<size_t>(n));
  const RandomizedResponse rr = RandomizedResponse::Disabled();

  const auto min_of_trials = [&](const auto& body) {
    double best = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const auto start = std::chrono::steady_clock::now();
      body();
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (t == 0 || seconds < best) best = seconds;
    }
    return best;
  };

  KernelGuardSample sample;
  sample.n = n;
  sample.seed_seconds = min_of_trials([&] {
    kernels::ScopedForceScalar force_scalar;
    benchmark::DoNotOptimize(codec.EncodeAll(values));
    Rng rng(1);
    BitHistogram histogram(kBits);
    for (int64_t i = 0; i < n; ++i) {
      const int bit_index = assignment[static_cast<size_t>(i)];
      histogram.Add(bit_index,
                    MakeBitReport(codewords[static_cast<size_t>(i)],
                                  bit_index, rr, rng));
    }
    benchmark::DoNotOptimize(histogram);
  });
  sample.batch_seconds = min_of_trials([&] {
    kernels::ActiveKernel().encode_codewords(values.data(), n, params,
                                             encoded.data());
    benchmark::DoNotOptimize(encoded);
    benchmark::DoNotOptimize(AggregateBatch(batch));
  });
  sample.speedup = sample.seed_seconds / sample.batch_seconds;
  return sample;
}

int RunKernelThroughputGuard() {
  constexpr int64_t kGateN = 65536;
  constexpr int64_t kInfoN = 1 << 20;

  double threshold = 10.0;
  if (const char* env = std::getenv("BITPUSH_KERNEL_SPEEDUP_MIN")) {
    threshold = std::atof(env);
  }

  const bool gated = kernels::SimdActive();
  const KernelGuardSample gate = MeasureKernelGuard(kGateN);
  const KernelGuardSample info = MeasureKernelGuard(kInfoN);
  const bool pass = !gated || gate.speedup >= threshold;

  const auto print_sample = [](const char* tag,
                               const KernelGuardSample& s) {
    std::printf(
        "kernel_throughput %s n=%lld seed_ns_per_report=%.3f "
        "batch_ns_per_report=%.3f speedup=%.2f\n",
        tag, static_cast<long long>(s.n),
        1e9 * s.seed_seconds / static_cast<double>(s.n),
        1e9 * s.batch_seconds / static_cast<double>(s.n), s.speedup);
  };
  print_sample("gate", gate);
  print_sample("info", info);

  // Recorded only on request: a default path in the working directory
  // would overwrite the committed copy when run from the repository root.
  if (const char* json_path = std::getenv("BITPUSH_KERNEL_BENCH_JSON")) {
    if (std::FILE* out = std::fopen(json_path, "w")) {
      std::fprintf(
          out,
          "{\n"
          "  \"kernel\": \"%s\",\n"
          "  \"bits\": 16,\n"
          "  \"threshold\": %.2f,\n"
          "  \"gate\": {\"n\": %lld, \"seed_ns_per_report\": %.3f,\n"
          "           \"batch_ns_per_report\": %.3f, \"speedup\": %.2f,\n"
          "           \"status\": \"%s\"},\n"
          "  \"info\": [{\"n\": %lld, \"seed_ns_per_report\": %.3f,\n"
          "            \"batch_ns_per_report\": %.3f, \"speedup\": %.2f}]\n"
          "}\n",
          kernels::ActiveKernel().name, threshold,
          static_cast<long long>(gate.n),
          1e9 * gate.seed_seconds / static_cast<double>(gate.n),
          1e9 * gate.batch_seconds / static_cast<double>(gate.n),
          gate.speedup,
          !gated ? "skipped_no_simd" : (pass ? "pass" : "fail"),
          static_cast<long long>(info.n),
          1e9 * info.seed_seconds / static_cast<double>(info.n),
          1e9 * info.batch_seconds / static_cast<double>(info.n),
          info.speedup);
      std::fclose(out);
      std::printf("kernel_throughput json written to %s\n", json_path);
    } else {
      std::fprintf(stderr, "kernel_throughput_guard: cannot write %s\n",
                   json_path);
      return 1;
    }
  }

  if (!gated) {
    std::printf(
        "kernel_throughput_guard SKIP (scalar kernel active; the 10x gate "
        "is a claim about the dispatched SIMD path)\n");
    return 0;
  }
  if (pass) {
    std::printf("kernel_throughput_guard PASS (%.2fx >= %.2fx)\n",
                gate.speedup, threshold);
    return 0;
  }
  std::fprintf(stderr, "kernel_throughput_guard FAIL: %.2fx < %.2fx\n",
               gate.speedup, threshold);
  return 1;
}

}  // namespace
}  // namespace bitpush

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const int obs_guard = bitpush::RunObsOverheadGuard();
  const int kernel_guard = bitpush::RunKernelThroughputGuard();
  return obs_guard != 0 ? obs_guard : kernel_guard;
}
