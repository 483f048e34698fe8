// Collection-tick benchmark binary: one seeded workload per process,
// driven through the production entry points (MeasurementCampaign,
// ShardedCampaignRunner, DurableCampaignRunner). Prints one JSON object on
// its last stdout line; perfbench/run.py turns it into the benchmark's
// result line. See perfbench/README.md for the workloads, the metric
// definitions and why they are measured the way they are.
//
// Run phases, in order:
//   setup      repeated full set-ups (population, partition, open) for at
//              least kSetupMinSeconds; all but the last are torn down
//              again. setup_s is their median.
//   tick 0     the cold tick: the privacy meter creates every client's
//              ledger entry. Reported per layer only.
//   tick 1     the count tick: exact registry, allocator and rusage deltas.
//              Always untraced, so counts match between traced and
//              untraced runs, and taken at a fixed tick index, so they
//              repeat exactly for a seed.
//   ticks 2..  timed until `--seconds` have passed. ns_per_client is the
//              median tick wall time over population size. A traced run
//              alternates untraced and traced ticks, so the tracing
//              overhead is measured inside one run.
//              Durable: a snapshot every kCompactEveryTicks timed ticks,
//              outside the timing, truncates the journal.
//   durable    reopens of a copy of the state dir taken after the count
//              tick (a fixed-length journal), then one timed snapshot.
//   layers     (traced runs only) meter, codec and kernel timings on the
//              workload's own ids and values.
//
// Every tick's estimate, and every durable reopen, is a correctness gate;
// a failed gate is counted, never dropped.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.h"
#include "core/bit_probabilities.h"
#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "data/census.h"
#include "federated/campaign.h"
#include "federated/client.h"
#include "federated/shard/runner.h"
#include "kernels/kernels.h"
#include "ldp/randomized_response.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/recovery.h"
#include "rng/rng.h"
#include "util/check.h"
#include "util/flags.h"

// ---------------------------------------------------------------------------
// Counting allocator: every operator new in the process (library included)
// bumps two relaxed counters. The counts are exact; the bench reads deltas.

namespace {
std::atomic<int64_t> g_alloc_count{0};
std::atomic<int64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<int64_t>(size),
                          std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<int64_t>(size),
                          std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bitpush {
namespace {

using Clock = std::chrono::steady_clock;

// One codec width, one RR query per tick. epsilon > 0 so perturbation runs.
constexpr int kBits = 8;
constexpr double kEpsilon = 2.0;
constexpr int64_t kValueId = 1;
// Gate width in standard deviations of the a-priori variance bound.
constexpr double kGateSigmas = 6.0;
constexpr int64_t kMinTimedTicks = 3;
constexpr int64_t kMaxTicks = 1000000;
constexpr int kLayerReps = 3;
// Set-up repeats until kSetupMinSeconds have passed, within these counts.
constexpr int64_t kMinSetupReps = 5;
constexpr int64_t kMaxSetupReps = 200;
constexpr double kSetupMinSeconds = 1.0;
constexpr int64_t kReopenReps = 5;
// Durable: timed ticks between journal-truncating snapshots.
constexpr int64_t kCompactEveryTicks = 4;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct WorkloadSpec {
  std::string name;
  int64_t clients = 0;
  // 0: one MeasurementCampaign; > 0: ShardedCampaignRunner with this many
  // in-memory shards.
  int64_t shards = 0;
  bool durable = false;
};

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  static const WorkloadSpec kWorkloads[] = {
      {"mem_1m", 1000000, 0, false},
      {"sharded4_1m", 1000000, 4, false},
      {"durable_nofsync_100k", 100000, 0, true},
  };
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) {
      *out = spec;
      return true;
    }
  }
  return false;
}

CampaignQuery BenchQuery() {
  CampaignQuery query;
  query.name = "tick_mean";
  query.value_id = kValueId;
  query.query.adaptive.bits = kBits;
  query.query.adaptive.epsilon = kEpsilon;
  return query;
}

// Grants every tick: one bit per client per tick on the same value id.
MeterPolicy BenchPolicy() {
  MeterPolicy policy;
  policy.max_bits_per_value = std::numeric_limits<int64_t>::max();
  return policy;
}

// The paper's human-generated workload: ages drawn from the embedded census
// histogram, as in `bitpush_sim --workload=census --bits=8`. Ages lie in
// [0, 90], so the 8-bit codec's top bit plane is always 0.
std::vector<double> CensusValues(int64_t clients, uint64_t seed) {
  Rng rng(seed);
  return CensusAges(clients, rng).values();
}

// A-priori bound on the standard deviation of the adaptive estimate: the
// pooled reports of bit j are at least round 1's, n*delta*p1_j in
// expectation (Lemma 3.1 with round 1's geometric allocation), and one
// RR-unbiased report has variance at most 1 / (4 (2p-1)^2).
double EstimateSigmaBound(int64_t clients) {
  const AdaptiveConfig adaptive = BenchQuery().query.adaptive;
  const std::vector<double> p1 =
      GeometricProbabilities(adaptive.bits, adaptive.gamma);
  const double p = std::exp(kEpsilon) / (1.0 + std::exp(kEpsilon));
  const double report_var = 1.0 / (4.0 * (2.0 * p - 1.0) * (2.0 * p - 1.0));
  const double round1 = static_cast<double>(clients) * adaptive.delta;
  double var = 0.0;
  for (size_t j = 0; j < p1.size(); ++j) {
    var += std::exp2(2.0 * static_cast<double>(j)) * report_var /
           (round1 * p1[j]);
  }
  return std::sqrt(var);
}

// ---------------------------------------------------------------------------
// Exact counts read from outside the program.

// Allocator and page-fault counters, read right around one RunTick call so
// the benchmark's own bookkeeping is not counted.
struct ProcessCounts {
  int64_t allocs = 0;
  int64_t alloc_bytes = 0;
  int64_t minflt = 0;
};

ProcessCounts ReadProcessCounts() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcessCounts counts;
  counts.allocs = g_alloc_count.load(std::memory_order_relaxed);
  counts.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  counts.minflt = usage.ru_minflt;
  return counts;
}

ProcessCounts operator-(const ProcessCounts& a, const ProcessCounts& b) {
  return {a.allocs - b.allocs, a.alloc_bytes - b.alloc_bytes,
          a.minflt - b.minflt};
}

// Every counter of the obs registry, by name.
std::map<std::string, double> ReadRegistry() {
  std::map<std::string, double> values;
  obs::Registry::Default().Visit(
      [&](const obs::InstrumentInfo& info, const obs::Counter* counter,
          const obs::Gauge*, const obs::Histogram*) {
        if (counter != nullptr) {
          values[info.name] = static_cast<double>(counter->value());
        }
      });
  return values;
}

double RegistryDelta(const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after,
                     const std::string& name) {
  const auto get = [&](const std::map<std::string, double>& values) {
    const auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return buf;
    }
  }
}

// ---------------------------------------------------------------------------
// The three coordinators behind one tick interface.

struct TickOutcome {
  bool ran = false;
  double estimate = 0.0;
};

class Coordinator {
 public:
  virtual ~Coordinator() = default;
  virtual TickOutcome RunTick(int64_t tick) = 0;
  // Ledger totals summed over every meter the coordinator owns.
  virtual int64_t MeterBits() = 0;
  virtual int64_t MeterDenied() = 0;
};

class MemCoordinator : public Coordinator {
 public:
  MemCoordinator(std::vector<Client> population, uint64_t seed)
      : population_(std::move(population)),
        meter_(BenchPolicy()),
        campaign_({BenchQuery()}, &meter_),
        rng_(seed) {}

  TickOutcome RunTick(int64_t tick) override {
    const std::vector<CampaignTickResult> results =
        campaign_.RunTick(tick, {&population_}, codecs_, rng_);
    if (results.size() != 1) return {};
    return {results[0].status == CampaignTickResult::Status::kRan,
            results[0].estimate};
  }
  int64_t MeterBits() override { return meter_.total_bits(); }
  int64_t MeterDenied() override { return meter_.denied_charges(); }

 private:
  std::vector<Client> population_;
  const std::vector<FixedPointCodec> codecs_ = {
      FixedPointCodec::Integer(kBits)};
  PrivacyMeter meter_;
  MeasurementCampaign campaign_;
  Rng rng_;
};

class ShardedCoordinator : public Coordinator {
 public:
  ShardedCoordinator(int64_t shards, uint64_t seed)
      : runner_({BenchQuery()}, BenchPolicy(), Options(shards, seed)) {}

  // The runner copies its partitions; the caller may free `population`.
  void Open(const std::vector<Client>& population) {
    runner_.Open({&population}, codecs_);
  }

  TickOutcome RunTick(int64_t tick) override {
    MergedTickResult merged;
    std::string error;
    if (!runner_.RunTick(tick, &merged, &error) || merged.quorum_failed ||
        merged.queries.size() != 1) {
      return {};
    }
    return {merged.queries[0].status == MergedQueryResult::Status::kRan,
            merged.queries[0].estimate};
  }
  int64_t MeterBits() override {
    int64_t bits = 0;
    for (int64_t s = 0; s < runner_.shards(); ++s) {
      bits += runner_.shard(s)->local_meter()->total_bits();
    }
    return bits;
  }
  int64_t MeterDenied() override {
    int64_t denied = 0;
    for (int64_t s = 0; s < runner_.shards(); ++s) {
      denied += runner_.shard(s)->local_meter()->denied_charges();
    }
    return denied;
  }
  const ShardedCampaignRunner& runner() const { return runner_; }

 private:
  static ShardedCampaignOptions Options(int64_t shards, uint64_t seed) {
    ShardedCampaignOptions options;
    options.shards = shards;
    options.seed = seed;
    return options;
  }

  const std::vector<FixedPointCodec> codecs_ = {
      FixedPointCodec::Integer(kBits)};
  ShardedCampaignRunner runner_;
};

// fsync is off: with one fsync per journal record, tick time followed the
// shared disk's flush latency, which swung 2x between runs on the host the
// benchmark was tuned on (perfbench/README.md). The journal is still
// encoded, written and flushed record by record.
DurableCampaignOptions DurableOptions(const std::string& dir, uint64_t seed) {
  DurableCampaignOptions options;
  options.state_dir = dir;
  options.seed = seed;
  options.fsync = false;
  return options;
}

class DurableCoordinator : public Coordinator {
 public:
  DurableCoordinator(std::vector<Client> population, const std::string& dir,
                     uint64_t seed)
      : population_(std::move(population)),
        runner_({BenchQuery()}, BenchPolicy(), DurableOptions(dir, seed)) {}

  bool Open(std::string* error) { return runner_.Open(error); }

  TickOutcome RunTick(int64_t tick) override {
    const std::vector<CampaignTickResult> results =
        runner_.RunTick(tick, {&population_}, codecs_);
    if (results.size() != 1) return {};
    return {results[0].status == CampaignTickResult::Status::kRan,
            results[0].estimate};
  }
  int64_t MeterBits() override { return runner_.meter().total_bits(); }
  int64_t MeterDenied() override {
    return runner_.meter().denied_charges();
  }

  DurableCampaignRunner& runner() { return runner_; }
  const std::vector<Client>& population() const { return population_; }
  const std::vector<FixedPointCodec>& codecs() const { return codecs_; }

 private:
  std::vector<Client> population_;
  const std::vector<FixedPointCodec> codecs_ = {
      FixedPointCodec::Integer(kBits)};
  DurableCampaignRunner runner_;
};

struct SetupTiming {
  double population_s = 0.0;
  double partition_s = 0.0;
  double open_s = 0.0;
  double total_s = 0.0;
};

// One full set-up: generate the population from the seed, partition it
// (sharded), construct and open the coordinator (durable: in a fresh state
// dir). Returns nullptr with *error set when opening fails.
std::unique_ptr<Coordinator> SetUp(const WorkloadSpec& spec, uint64_t seed,
                                   const std::string& state_dir,
                                   SetupTiming* timing, std::string* error) {
  const Clock::time_point start = Clock::now();
  std::vector<Client> population;
  {
    obs::Span span("bench.setup.population", "bench");
    population =
        MakePopulation(CensusValues(spec.clients, seed), ClientConfig{});
  }
  timing->population_s = SecondsSince(start);

  std::unique_ptr<Coordinator> coordinator;
  if (spec.shards > 0) {
    const Clock::time_point partition_start = Clock::now();
    auto sharded = std::make_unique<ShardedCoordinator>(spec.shards, seed);
    {
      obs::Span span("bench.setup.partition", "bench");
      sharded->Open(population);
    }
    timing->partition_s = SecondsSince(partition_start);
    population.clear();
    population.shrink_to_fit();
    coordinator = std::move(sharded);
  } else if (spec.durable) {
    const Clock::time_point open_start = Clock::now();
    obs::Span span("bench.setup.open", "bench");
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
    auto durable = std::make_unique<DurableCoordinator>(std::move(population),
                                                        state_dir, seed);
    if (!durable->Open(error)) return nullptr;
    span.End();
    timing->open_s = SecondsSince(open_start);
    coordinator = std::move(durable);
  } else {
    const Clock::time_point open_start = Clock::now();
    obs::Span span("bench.setup.open", "bench");
    coordinator = std::make_unique<MemCoordinator>(std::move(population), seed);
    span.End();
    timing->open_s = SecondsSince(open_start);
  }
  timing->total_s = SecondsSince(start);
  return coordinator;
}

// ---------------------------------------------------------------------------
// Span analysis: self time = duration minus the part covered by direct
// children. The program is single-threaded, so nesting is recovered from
// the wall-clock intervals (a span that starts inside another ends inside
// it; a 1 us truncation overhang is clamped).

struct SpanTotals {
  double duration_us = 0.0;
  double self_us = 0.0;
};

struct SpanAnalysis {
  // Per span name, over the subtrees of traced timed ticks.
  std::map<std::string, SpanTotals> by_name;
  double tick_us = 0.0;          // sum of bench.tick durations
  double unattributed_us = 0.0;  // bench.tick self time
  int64_t ticks = 0;
  // Per traced tick: slowest shard.collect / mean shard.collect.
  std::vector<double> shard_skew;
  // recovery.open spans under bench.reopen roots.
  double reopen_open_us = 0.0;
  int64_t reopen_count = 0;
};

SpanAnalysis AnalyzeSpans(const std::vector<obs::SpanRecord>& spans) {
  std::vector<const obs::SpanRecord*> order;
  order.reserve(spans.size());
  for (const obs::SpanRecord& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
              if (a->wall_start_us != b->wall_start_us) {
                return a->wall_start_us < b->wall_start_us;
              }
              return a->wall_duration_us > b->wall_duration_us;
            });

  struct Frame {
    const obs::SpanRecord* span;
    int64_t end;
    double child_us;
    // Index of the enclosing bench root kind: 1 tick, 2 reopen, 0 other.
    int root_kind;
    std::vector<double>* shard_durations;
  };
  SpanAnalysis out;
  std::vector<Frame> stack;
  std::vector<std::vector<double>> shard_durations_per_tick;

  const auto close_frame = [&](const Frame& frame) {
    const obs::SpanRecord& s = *frame.span;
    const double duration = static_cast<double>(s.wall_duration_us);
    const double self = std::max(0.0, duration - frame.child_us);
    if (frame.root_kind == 1) {
      if (s.name == "bench.tick") {
        out.tick_us += duration;
        out.unattributed_us += self;
        ++out.ticks;
      } else {
        SpanTotals& totals = out.by_name[s.name];
        totals.duration_us += duration;
        totals.self_us += self;
      }
    } else if (frame.root_kind == 2 && s.name == "recovery.open") {
      out.reopen_open_us += duration;
      ++out.reopen_count;
    }
  };

  for (const obs::SpanRecord* s : order) {
    const int64_t start = s->wall_start_us;
    const int64_t end = s->wall_start_us + s->wall_duration_us;
    while (!stack.empty() && start >= stack.back().end) {
      close_frame(stack.back());
      stack.pop_back();
    }
    int root_kind = 0;
    std::vector<double>* shard_durations = nullptr;
    if (!stack.empty()) {
      Frame& parent = stack.back();
      parent.child_us +=
          static_cast<double>(std::min(end, parent.end) - start);
      root_kind = parent.root_kind;
      shard_durations = parent.shard_durations;
    } else if (s->name == "bench.tick") {
      root_kind = 1;
      shard_durations_per_tick.emplace_back();
      shard_durations = &shard_durations_per_tick.back();
    } else if (s->name == "bench.reopen") {
      root_kind = 2;
    }
    if (root_kind == 1 && s->name == "shard.collect" &&
        shard_durations != nullptr) {
      shard_durations->push_back(static_cast<double>(s->wall_duration_us));
    }
    stack.push_back(Frame{s, end, 0.0, root_kind, shard_durations});
  }
  while (!stack.empty()) {
    close_frame(stack.back());
    stack.pop_back();
  }
  for (const std::vector<double>& durations : shard_durations_per_tick) {
    if (durations.empty()) continue;
    double sum = 0.0;
    double max = 0.0;
    for (const double d : durations) {
      sum += d;
      max = std::max(max, d);
    }
    out.shard_skew.push_back(
        Ratio(max, sum / static_cast<double>(durations.size())));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer timings on the workload's own ids and values (traced runs only).

struct LayerTimings {
  double charge_ns_first = 0.0;
  double charge_ns_repeat = 0.0;
  double encode_ns_per_value = 0.0;
  double batch_ns_per_report = 0.0;
};

LayerTimings TimeLayers(int64_t clients, uint64_t seed, int* failures) {
  LayerTimings out;
  {
    // The meter as the tick drives it: a fresh ledger, then the same ids
    // again (the warm-tick case).
    PrivacyMeter meter(BenchPolicy());
    int64_t denied = 0;
    const Clock::time_point first = Clock::now();
    for (int64_t id = 0; id < clients; ++id) {
      denied += meter.TryChargeBit(id, kValueId, kEpsilon) ? 0 : 1;
    }
    out.charge_ns_first =
        1e9 * SecondsSince(first) / static_cast<double>(clients);
    const Clock::time_point repeat = Clock::now();
    for (int64_t id = 0; id < clients; ++id) {
      denied += meter.TryChargeBit(id, kValueId, kEpsilon) ? 0 : 1;
    }
    out.charge_ns_repeat =
        1e9 * SecondsSince(repeat) / static_cast<double>(clients);
    if (denied != 0) ++*failures;
  }

  const std::vector<double> values = CensusValues(clients, seed);
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  std::vector<double> encode_ns;
  std::vector<double> batch_ns;
  const RandomizedResponse rr = RandomizedResponse::FromEpsilon(kEpsilon);
  Rng rng(seed ^ 0x5eedULL);
  std::vector<int> assignment(values.size());
  for (int& bit : assignment) {
    bit = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(kBits)));
  }
  int64_t tallied = 0;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    const Clock::time_point encode_start = Clock::now();
    const std::vector<uint64_t> codewords = codec.EncodeAll(values);
    encode_ns.push_back(1e9 * SecondsSince(encode_start) /
                        static_cast<double>(values.size()));

    const Clock::time_point batch_start = Clock::now();
    ReportBatch batch = BuildReportBatch(codewords, assignment, kBits);
    PerturbBatch(&batch, rr, rng);
    const TallyBatch tallies = AggregateBatch(batch);
    batch_ns.push_back(1e9 * SecondsSince(batch_start) /
                       static_cast<double>(values.size()));
    tallied = 0;
    for (const int64_t total : tallies.totals) tallied += total;
  }
  if (tallied != static_cast<int64_t>(values.size())) ++*failures;
  out.encode_ns_per_value = Median(encode_ns);
  out.batch_ns_per_report = Median(batch_ns);
  return out;
}

// ---------------------------------------------------------------------------
// Output.

class JsonObject {
 public:
  void Number(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    Raw(key, buf);
  }
  void String(const std::string& key, const std::string& value) {
    Raw(key, "\"" + obs::JsonEscape(value) + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + obs::JsonEscape(key) + "\": " + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

int Run(int argc, char** argv) {
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  double true_mean_offset = 0.0;
  bool reference = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;

  FlagSet flags;
  flags.AddString("workload", &workload_name,
                  "mem_1m | sharded4_1m | durable_nofsync_100k");
  flags.AddInt64("seed", &seed, "workload seed (values and protocol RNG)");
  flags.AddDouble("seconds", &seconds, "length of the timed-tick phase");
  flags.AddBool("trace", &trace, "traced run: per-layer metrics");
  flags.AddDouble("scale", &scale,
                  "population multiplier (the smoke test runs tiny sizes)");
  flags.AddDouble("true_mean_offset", &true_mean_offset,
                  "shift the gate's true mean (smoke test of the gate)");
  flags.AddBool("reference", &reference,
                "sharded: compare with RunSingleCoordinatorReference");
  flags.AddString("work_dir", &work_dir, "scratch dir for durable state");
  flags.AddString("trace_out", &trace_out, "Chrome trace output path");
  flags.Parse(argc, argv);

  WorkloadSpec spec;
  if (!FindWorkload(workload_name, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name.c_str());
    return 2;
  }
  BITPUSH_CHECK(scale > 0.0);
  spec.clients = std::max<int64_t>(
      64, static_cast<int64_t>(std::llround(scale * spec.clients)));
  const auto useed = static_cast<uint64_t>(seed);
  const double n = static_cast<double>(spec.clients);

  obs::SetEnabled(true);
  obs::SetTracingEnabled(trace);

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  const auto gate = [&](bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  };

  const std::string state_root =
      work_dir + "/" + spec.name + "-seed" + std::to_string(seed) + "-pid" +
      std::to_string(static_cast<long long>(getpid()));
  const std::string state_dir = state_root + "/live";
  const std::string recover_dir = state_root + "/recover";
  std::error_code ec;
  std::filesystem::create_directories(state_root, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", state_root.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // --- set-up -------------------------------------------------------------
  std::vector<double> setup_total, setup_population, setup_partition,
      setup_open;
  std::unique_ptr<Coordinator> coordinator;
  const Clock::time_point setup_start = Clock::now();
  for (int64_t rep = 0; rep < kMaxSetupReps &&
                        (rep < kMinSetupReps ||
                         SecondsSince(setup_start) < kSetupMinSeconds);
       ++rep) {
    coordinator.reset();
    SetupTiming timing;
    std::string error;
    coordinator = SetUp(spec, useed, state_dir, &timing, &error);
    if (coordinator == nullptr) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_total.push_back(timing.total_s);
    setup_population.push_back(timing.population_s);
    setup_partition.push_back(timing.partition_s);
    setup_open.push_back(timing.open_s);
  }

  // The gate's reference: the true mean of the quantized population.
  double true_mean = 0.0;
  {
    const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
    for (const uint64_t w :
         codec.EncodeAll(CensusValues(spec.clients, useed))) {
      true_mean += static_cast<double>(w);
    }
    true_mean = codec.Decode(true_mean / n) + true_mean_offset;
  }
  const double tolerance = kGateSigmas * EstimateSigmaBound(spec.clients);
  ProcessCounts tick_counts;  // of the last run_tick
  const auto run_tick = [&](int64_t tick, bool traced) {
    obs::SetTracingEnabled(traced);
    const ProcessCounts before = ReadProcessCounts();
    const Clock::time_point start = Clock::now();
    TickOutcome outcome;
    {
      obs::Span span("bench.tick", "bench");
      span.set_ids(tick, -1, -1);
      outcome = coordinator->RunTick(tick);
    }
    const double elapsed = SecondsSince(start);
    tick_counts = ReadProcessCounts() - before;
    obs::SetTracingEnabled(trace);
    gate(outcome.ran && std::fabs(outcome.estimate - true_mean) <= tolerance,
         "tick " + std::to_string(tick) + " estimate " +
             std::to_string(outcome.estimate) + " vs true mean " +
             std::to_string(true_mean) + " +- " + std::to_string(tolerance));
    return elapsed;
  };

  // --- cold tick and count tick --------------------------------------------
  const double first_tick_s = run_tick(0, false);
  const ProcessCounts first_tick_counts = tick_counts;

  const int64_t bits_before = coordinator->MeterBits();
  const int64_t denied_before = coordinator->MeterDenied();
  const std::map<std::string, double> count_before = ReadRegistry();
  run_tick(1, false);
  const ProcessCounts count_tick = tick_counts;
  const std::map<std::string, double> count_after = ReadRegistry();
  // Peak RSS after set-up and two ticks: a fixed point of the run, so it
  // does not depend on how many ticks fit in the timed phase.
  const double peak_rss_mb = PeakRssMb();
  const double tick_bits =
      static_cast<double>(coordinator->MeterBits() - bits_before);
  const double tick_denied =
      static_cast<double>(coordinator->MeterDenied() - denied_before);

  // A copy of the durable state after the count tick: a fixed-length
  // journal, so recovery figures do not depend on how many ticks fit in
  // the timed phase.
  auto* durable = dynamic_cast<DurableCoordinator*>(coordinator.get());
  std::vector<uint8_t> meter_at_copy;
  int64_t next_tick_at_copy = 0;
  if (durable != nullptr) {
    std::filesystem::remove_all(recover_dir, ec);
    std::filesystem::copy(state_dir, recover_dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) {
      std::fprintf(stderr, "copy state dir: %s\n", ec.message().c_str());
      return 1;
    }
    durable->runner().meter().EncodeTo(&meter_at_copy);
    next_tick_at_copy = durable->runner().next_tick();
  }

  // Durable: the journal grows by one tick's records per tick and is
  // truncated by a snapshot between timed ticks, outside the timing, so a
  // long run neither fills the disk nor builds up dirty pages whose
  // writeback could leak into the tick times. The journal size reached is
  // reported with the result.
  int64_t journal_peak_bytes = 0;
  const auto compact_journal = [&] {
    journal_peak_bytes = std::max<int64_t>(
        journal_peak_bytes,
        static_cast<int64_t>(std::filesystem::file_size(
            state_dir + "/journal.wal", ec)));
    std::string error;
    gate(durable->runner().Snapshot(&error), "compaction snapshot: " + error);
  };

  // --- timed ticks ----------------------------------------------------------
  std::vector<double> untraced_s, traced_s;
  const Clock::time_point timed_start = Clock::now();
  int64_t tick = 2;
  while (tick < kMaxTicks &&
         (SecondsSince(timed_start) < seconds ||
          static_cast<int64_t>(untraced_s.size()) < kMinTimedTicks ||
          (trace && static_cast<int64_t>(traced_s.size()) < kMinTimedTicks))) {
    const bool traced = trace && tick % 2 == 0;
    const double elapsed = run_tick(tick, traced);
    (traced ? traced_s : untraced_s).push_back(elapsed);
    ++tick;
    if (durable != nullptr && (tick - 2) % kCompactEveryTicks == 0) {
      compact_journal();
    }
  }
  const double ns_per_client = 1e9 * Median(untraced_s) / n;
  const double timed_end_rss_mb = PeakRssMb();

  // --- durable: reopen and snapshot -----------------------------------------
  std::vector<double> reopen_s;
  int64_t replayed_records = 0;
  double snapshot_ms = 0.0;
  double snapshot_bytes = 0.0;
  if (durable != nullptr) {
    for (int64_t rep = 0; rep < kReopenReps; ++rep) {
      obs::Span span("bench.reopen", "bench");
      DurableCampaignRunner reopened({BenchQuery()}, BenchPolicy(),
                                     DurableOptions(recover_dir, useed));
      std::string error;
      const Clock::time_point start = Clock::now();
      const bool opened = reopened.Open(&error);
      reopen_s.push_back(SecondsSince(start));
      span.End();
      bool ok = opened;
      if (opened) {
        replayed_records = reopened.recovery_info().replayed_records;
        // Serve the restored ticks from the journal (no client contact),
        // then the reopened runner must stand where the live one stood.
        for (int64_t t = 0; t < reopened.recovery_info().completed_ticks;
             ++t) {
          reopened.RunTick(t, {&durable->population()}, durable->codecs());
        }
        std::vector<uint8_t> bytes;
        reopened.meter().EncodeTo(&bytes);
        ok = reopened.next_tick() == next_tick_at_copy &&
             bytes == meter_at_copy;
      }
      gate(ok, "durable reopen " + std::to_string(rep) + ": " +
                   (opened ? "state differs from the live runner" : error));
    }
    std::string error;
    const Clock::time_point start = Clock::now();
    const bool wrote = durable->runner().Snapshot(&error);
    snapshot_ms = 1e3 * SecondsSince(start);
    gate(wrote, "snapshot: " + error);
    snapshot_bytes = static_cast<double>(
        std::filesystem::file_size(state_dir + "/snapshot.bin", ec));
  }

  // --- sharded == single reference (smoke test) -----------------------------
  if (reference && spec.shards > 0) {
    auto* sharded = dynamic_cast<ShardedCoordinator*>(coordinator.get());
    const std::vector<Client> population =
        MakePopulation(CensusValues(spec.clients, useed), ClientConfig{});
    const ReferenceCampaignResult expected = RunSingleCoordinatorReference(
        {BenchQuery()}, BenchPolicy(), spec.shards, useed, {&population},
        {FixedPointCodec::Integer(kBits)}, tick);
    bool same = expected.ticks == sharded->runner().history();
    for (int64_t s = 0; s < spec.shards; ++s) {
      same = same && expected.shard_meter_bytes[static_cast<size_t>(s)] ==
                         sharded->runner().shard_meter_bytes(s);
    }
    gate(same, "sharded run differs from RunSingleCoordinatorReference");
  }

  // --- layers (traced runs) --------------------------------------------------
  LayerTimings layers;
  int layer_failures = 0;
  if (trace) {
    obs::SetTracingEnabled(false);
    layers = TimeLayers(spec.clients, useed, &layer_failures);
    gate(layer_failures == 0, "layer timing self-check");
  }
  const SpanAnalysis spans =
      trace ? AnalyzeSpans(obs::Tracer::Default().Snapshot()) : SpanAnalysis{};
  if (trace && !trace_out.empty()) {
    std::string error;
    if (!obs::WriteTextFile(trace_out, obs::ChromeTraceJson(), &error)) {
      std::fprintf(stderr, "trace export: %s\n", error.c_str());
    }
  }
  const std::string fs_type = FilesystemType(state_root);
  coordinator.reset();
  std::filesystem::remove_all(state_root, ec);

  // --- report ----------------------------------------------------------------
  JsonObject counts;
  counts.Number("journal_bytes_per_client",
                RegistryDelta(count_before, count_after,
                              "bitpush_journal_bytes_total") /
                    n);
  counts.Number("journal.records_per_client",
                RegistryDelta(count_before, count_after,
                              "bitpush_journal_records_total") /
                    n);
  counts.Number("alloc.count_per_client",
                static_cast<double>(count_tick.allocs) /
                    n);
  counts.Number("alloc.bytes_per_client",
                static_cast<double>(count_tick.alloc_bytes) /
                    n);
  counts.Number("alloc.count_per_client_first_tick",
                static_cast<double>(first_tick_counts.allocs) /
                    n);
  counts.Number("meter.bits_per_client", tick_bits / n);
  counts.Number("meter.denied_share", Ratio(tick_denied, tick_bits + tick_denied));
  const double contacted = RegistryDelta(count_before, count_after,
                                         "bitpush_round_contacted_total");
  counts.Number("round.contacted_per_client", contacted / n);
  counts.Number("round.responded_share",
                Ratio(RegistryDelta(count_before, count_after,
                                    "bitpush_round_responded_total"),
                      contacted));
  counts.Number("shard.frames_per_tick",
                RegistryDelta(count_before, count_after,
                              "bitpush_shard_frames_merged_total"));
  counts.Number("recovery.replayed_records",
                static_cast<double>(replayed_records));

  JsonObject end_to_end;
  end_to_end.Number("ns_per_client", ns_per_client);
  end_to_end.Number("setup_s", Median(setup_total));
  end_to_end.Number("peak_rss_mb", peak_rss_mb);
  end_to_end.Number("query_success_share",
                    Ratio(attempted - failed, attempted));

  JsonObject layer;
  const auto self_ns_per_client = [&](const std::string& name) {
    const auto it = spans.by_name.find(name);
    if (it == spans.by_name.end() || spans.ticks == 0) return 0.0;
    return 1e3 * it->second.self_us / (static_cast<double>(spans.ticks) * n);
  };
  const auto us_per_tick = [&](const std::string& name, bool self) {
    const auto it = spans.by_name.find(name);
    if (it == spans.by_name.end() || spans.ticks == 0) return 0.0;
    return (self ? it->second.self_us : it->second.duration_us) /
           static_cast<double>(spans.ticks);
  };
  layer.Number("campaign.tick_self_ns_per_client", self_ns_per_client("tick"));
  layer.Number("campaign.query_self_ns_per_client",
               self_ns_per_client("query"));
  layer.Number("round.self_ns_per_client", self_ns_per_client("round"));
  layer.Number("round.aggregate_us", us_per_tick("aggregate", false));
  layer.Number("server.collect_ns_per_client", self_ns_per_client("collect"));
  layer.Number("campaign.first_tick_ns_per_client", 1e9 * first_tick_s / n);
  layer.Number("meter.charge_ns_first", layers.charge_ns_first);
  layer.Number("meter.charge_ns_repeat", layers.charge_ns_repeat);
  layer.Number("fixed_point.encode_ns_per_value", layers.encode_ns_per_value);
  layer.Number("kernels.batch_ns_per_report", layers.batch_ns_per_report);
  layer.Number("proc.minflt_per_client",
               static_cast<double>(count_tick.minflt) /
                   n);
  layer.Number("proc.rss_growth_kb_per_tick",
               Ratio(1024.0 * (timed_end_rss_mb - peak_rss_mb),
                     static_cast<double>(tick - 2)));
  layer.Number("shard.collect_ns_per_client",
               self_ns_per_client("shard.collect"));
  layer.Number("shard.collect_skew", Median(spans.shard_skew));
  layer.Number("shard.harvest_us", us_per_tick("shard.harvest", false));
  layer.Number("merge.tick_self_us", us_per_tick("merge.tick", true));
  layer.Number("recover_s", Median(reopen_s));
  layer.Number("recovery.ns_per_replayed_record",
               Ratio(1e3 * spans.reopen_open_us,
                     static_cast<double>(spans.reopen_count) *
                         static_cast<double>(replayed_records)));
  layer.Number("snapshot.write_ms", snapshot_ms);
  layer.Number("snapshot.bytes", snapshot_bytes);
  layer.Number("setup.population_s", Median(setup_population));
  layer.Number("setup.partition_s", Median(setup_partition));
  layer.Number("setup.open_s", Median(setup_open));
  const double untraced_median = Median(untraced_s);
  layer.Number("trace.overhead_share",
               Ratio(Median(traced_s) - untraced_median, untraced_median));
  layer.Number("trace.unattributed_share",
               Ratio(spans.unattributed_us, spans.tick_us));

  std::string failure_list = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    failure_list += (i > 0 ? ", \"" : "\"") + obs::JsonEscape(failures[i]) +
                    "\"";
  }
  failure_list += "]";

  JsonObject provenance;
  provenance.String("compiler", __VERSION__);
  provenance.String("build_type", PERFBENCH_BUILD_TYPE);
  provenance.String("kernel", kernels::ActiveKernel().name);
  provenance.Number("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  provenance.Number("seed", static_cast<double>(seed));
  provenance.Number("clients", n);
  provenance.String("state_fs", spec.durable ? fs_type : "none");
  provenance.String("fsync", spec.durable ? "off" : "none");

  JsonObject result;
  result.String("workload", spec.name);
  result.Number("attempted", attempted);
  result.Number("failed", failed);
  result.Raw("failures", failure_list);
  result.Number("timed_ticks", static_cast<double>(untraced_s.size()));
  result.Number("traced_ticks", static_cast<double>(traced_s.size()));
  result.Number("journal_peak_bytes", static_cast<double>(journal_peak_bytes));
  std::string tick_list = "[";
  for (size_t i = 0; i < untraced_s.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.6f", i > 0 ? ", " : "",
                  untraced_s[i]);
    tick_list += buf;
  }
  tick_list += "]";
  result.Raw("untraced_tick_s", tick_list);
  result.Raw("provenance", provenance.str());
  result.Raw("end_to_end", end_to_end.str());
  result.Raw("counts", counts.str());
  result.Raw("per_layer", layer.str());
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace
}  // namespace bitpush

int main(int argc, char** argv) { return bitpush::Run(argc, argv); }
