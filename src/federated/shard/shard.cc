#include "federated/shard/shard.h"

// bitpush-lint: allow(privacy-metering): the coordinator shard never
// fabricates reports — collection inside MeasurementCampaign /
// DurableCampaignRunner charges every report to this shard's local_meter()
// ledger; the harvest below only repackages already-metered tallies.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.h"
#include "core/bit_pushing.h"
#include "federated/server.h"
#include "rng/keyed.h"
#include "util/check.h"

namespace bitpush {
namespace {

void AccumulateRoundTallies(const RoundOutcome& round,
                            ShardQueryFrame* frame) {
  frame->faults.MergeFrom(round.faults);
  if (round.histogram.totals().empty()) return;  // round never tallied
  const TallyBatch tallies = TallyBatchFromBitHistogram(round.histogram);
  if (frame->tallies.bits() == 0) {
    frame->tallies.totals.assign(tallies.totals.size(), 0);
    frame->tallies.ones.assign(tallies.ones.size(), 0);
  }
  AccumulateTallies(tallies, &frame->tallies);
}

}  // namespace

uint64_t ShardSeed(uint64_t root_seed, int64_t shard_index) {
  BITPUSH_CHECK_GE(shard_index, 0);
  // A keyed hash of the root seed, so adding a shard never perturbs a
  // sibling's stream.
  return KeyedHash(root_seed, static_cast<uint64_t>(shard_index) + 1);
}

std::vector<std::vector<Client>> PartitionClients(
    const std::vector<Client>& population, int64_t shards) {
  BITPUSH_CHECK_GE(shards, 1);
  std::vector<std::vector<Client>> partitions(static_cast<size_t>(shards));
  for (auto& partition : partitions) {
    partition.reserve(population.size() / static_cast<size_t>(shards) + 1);
  }
  for (size_t i = 0; i < population.size(); ++i) {
    partitions[i % static_cast<size_t>(shards)].push_back(population[i]);
  }
  return partitions;
}

ShardQueryFrame MakeShardQueryFrame(int64_t query_index,
                                    int64_t partition_clients,
                                    const CampaignTickResult& result,
                                    const FederatedQueryResult& outcome) {
  ShardQueryFrame frame;
  frame.query_index = query_index;
  frame.partition_clients = partition_clients;
  frame.result = result;
  // Round-level sums only (not outcome.faults, which folds in the
  // query-level fallback counter) — the journal-scan path below can only
  // see rounds, and both paths must normalize identically.
  AccumulateRoundTallies(outcome.round1, &frame);
  AccumulateRoundTallies(outcome.round2, &frame);
  return frame;
}

struct ShardCoordinator::MemoryState {
  PrivacyMeter meter;
  MeasurementCampaign campaign;
  Rng rng;
  int64_t next_tick = 0;

  MemoryState(const std::vector<CampaignQuery>& queries,
              const MeterPolicy& policy, uint64_t seed,
              const ResilienceConfig& resilience)
      : meter(policy), campaign(queries, &meter, resilience), rng(seed) {}
};

ShardCoordinator::~ShardCoordinator() = default;

ShardCoordinator::ShardCoordinator(std::vector<CampaignQuery> queries,
                                   MeterPolicy policy,
                                   ShardCoordinatorOptions options,
                                   ResilienceConfig resilience)
    : queries_(std::move(queries)),
      policy_(policy),
      options_(std::move(options)),
      resilience_(std::move(resilience)) {
  BITPUSH_CHECK_GE(options_.shard_index, 0);
}

void ShardCoordinator::Bind(std::vector<std::vector<Client>> partitions,
                            std::vector<FixedPointCodec> codecs) {
  BITPUSH_CHECK(!bound_) << "Bind() called twice";
  BITPUSH_CHECK_EQ(partitions.size(), queries_.size());
  BITPUSH_CHECK_EQ(codecs.size(), queries_.size());
  partitions_ = std::move(partitions);
  codecs_ = std::move(codecs);
  bound_ = true;
}

std::string ShardCoordinator::journal_path() const {
  BITPUSH_CHECK(durable());
  return options_.state_dir + "/journal.wal";
}

int64_t ShardCoordinator::partition_clients(size_t query_index) const {
  BITPUSH_CHECK(bound_);
  BITPUSH_CHECK_LT(query_index, partitions_.size());
  return static_cast<int64_t>(partitions_[query_index].size());
}

const PrivacyMeter* ShardCoordinator::local_meter() const {
  if (durable()) return runner_ != nullptr ? &runner_->meter() : nullptr;
  return mem_ != nullptr ? &mem_->meter : nullptr;
}

bool ShardCoordinator::RestoreQueryResult(int64_t /*tick*/,
                                          size_t /*query_index*/,
                                          CampaignTickResult* /*out*/) {
  return false;  // in-memory shards never restore
}

void ShardCoordinator::OnQueryFinished(int64_t /*tick*/, size_t query_index,
                                       const CampaignTickResult& /*result*/,
                                       const FederatedQueryResult& outcome) {
  tick_outcomes_[query_index] = outcome;
}

bool ShardCoordinator::RestoreRound(int64_t /*round_id*/,
                                    RoundOutcome* /*out*/) {
  return false;
}

void ShardCoordinator::OnRoundClosed(int64_t /*round_id*/,
                                     const RoundOutcome& /*outcome*/) {}

bool ShardCoordinator::EnsureOpen(std::string* error,
                                  const obs::TraceContext& parent) {
  BITPUSH_CHECK(bound_) << "Bind() before CollectTick()";
  if (!durable()) {
    if (mem_ == nullptr) {
      mem_ = std::make_unique<MemoryState>(queries_, policy_, options_.seed,
                                           resilience_);
      mem_->campaign.set_recorder(this);
    }
    return true;
  }
  if (runner_ != nullptr) return true;
  // Stitched under the merge-tick span that triggered the (re)open, so a
  // crash-recovery replay shows up as a child of the tick that paid for it.
  obs::Span span("shard.recover", "shard");
  span.set_parent(parent);
  span.AddNumeric("shard", static_cast<double>(options_.shard_index));
  DurableCampaignOptions durable_options;
  durable_options.state_dir = options_.state_dir;
  durable_options.seed = options_.seed;
  // The sharded runner snapshots manually, only after the merge tier has
  // consumed a tick — an automatic snapshot could swallow an undelivered
  // tick's journal records and leave nothing to harvest after a crash.
  durable_options.snapshot_every_ticks = 0;
  durable_options.fsync = options_.fsync;
  auto runner = std::make_unique<DurableCampaignRunner>(
      queries_, policy_, std::move(durable_options), resilience_);
  if (!runner->Open(error)) return false;
  const RecoveryInfo& info = runner->recovery_info();
  if (info.recovered) {
    ++metrics_.recoveries;
    metrics_.replayed_records += info.replayed_records;
    if (info.torn_tail) ++metrics_.torn_tails;
  }
  span.AddNumeric("replayed_records",
                  static_cast<double>(info.replayed_records));
  runner_ = std::move(runner);
  return true;
}

int64_t ShardCoordinator::next_tick() const {
  if (durable()) return runner_ != nullptr ? runner_->next_tick() : 0;
  return mem_ != nullptr ? mem_->next_tick : 0;
}

std::vector<const std::vector<Client>*> ShardCoordinator::PopulationPointers()
    const {
  std::vector<const std::vector<Client>*> populations;
  populations.reserve(partitions_.size());
  for (const std::vector<Client>& partition : partitions_) {
    populations.push_back(&partition);
  }
  return populations;
}

bool ShardCoordinator::HarvestFromJournal(int64_t tick, int64_t query_index,
                                          std::vector<RoundOutcome>* rounds,
                                          std::string* error) const {
  JournalReadResult journal;
  if (!ReadWholeJournal(journal_path(), &journal, error)) return false;
  int64_t current_tick = -1;
  int64_t current_query = -1;
  for (const JournalRecord& record : journal.records) {
    switch (record.type) {
      case JournalRecordType::kQueryStarted: {
        QueryStartedRecord started;
        if (!DecodeQueryStartedRecord(record.payload, &started)) {
          *error = "corrupt kQueryStarted record in shard journal";
          return false;
        }
        current_tick = started.tick;
        current_query = started.query_index;
        break;
      }
      case JournalRecordType::kRoundClosed: {
        if (current_tick != tick || current_query != query_index) break;
        RoundClosedRecord closed;
        if (!DecodeRoundClosedRecord(record.payload, &closed)) {
          *error = "corrupt kRoundClosed record in shard journal";
          return false;
        }
        rounds->push_back(std::move(closed.outcome));
        break;
      }
      default:
        break;
    }
  }
  return true;
}

bool ShardCoordinator::CollectTick(int64_t tick, ShardTickFrame* frame,
                                   std::string* error,
                                   const obs::TraceContext& parent) {
  BITPUSH_CHECK(frame != nullptr);
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK_GE(tick, 0);
  obs::Span span("shard.collect", "shard");
  span.set_parent(parent);
  span.set_ids(tick, /*query_index=*/-1, /*round_id=*/-1);
  span.AddNumeric("shard", static_cast<double>(options_.shard_index));
  if (!EnsureOpen(error, span.context())) return false;

  // Catch up: a shard that crashed or lost ticks re-runs (or restores)
  // every tick from its durable position through `tick`, in order — both
  // the campaign's per-tick RNG forks and the durable runner require the
  // full sequence. Only `tick` itself is harvested.
  const std::vector<const std::vector<Client>*> populations =
      PopulationPointers();
  for (int64_t t = next_tick(); t <= tick; ++t) {
    if (durable()) {
      runner_->RunTick(t, populations, codecs_);
    } else {
      tick_outcomes_.clear();
      mem_->campaign.RunTick(t, populations, codecs_, mem_->rng);
      mem_->next_tick = t + 1;
    }
  }
  BITPUSH_CHECK_EQ(next_tick(), tick + 1)
      << "shard asked for an already-delivered tick";

  const MeasurementCampaign& campaign =
      durable() ? runner_->campaign() : mem_->campaign;

  // The harvest (per-query tally aggregation into the frame) is the
  // shard-side aggregate phase — its own child span under the collect.
  obs::Span harvest_span("shard.harvest", "shard");
  harvest_span.set_parent(span.context());
  harvest_span.set_ids(tick, /*query_index=*/-1, /*round_id=*/-1);
  harvest_span.AddNumeric("shard", static_cast<double>(options_.shard_index));

  ShardTickFrame out;
  out.shard = options_.shard_index;
  out.tick = tick;
  const obs::TraceContext context = span.context();
  out.trace_id = context.trace_id;
  out.span_id = context.span_id;
  out.parent_span_id = parent.valid() ? parent.span_id : 0;

  size_t history_cursor = 0;
  // Count a tick's metrics once: a re-delivery attempt after a stall
  // harvests the same tick again without re-counting it.
  const bool counted = last_harvested_tick_ < tick;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const CampaignQuery& query = queries_[qi];
    if (tick < query.phase ||
        (tick - query.phase) % query.cadence_ticks != 0) {
      continue;
    }
    // The campaign appends one history row per scheduled query per tick.
    const CampaignTickResult* result = nullptr;
    for (; history_cursor < campaign.history().size(); ++history_cursor) {
      const CampaignTickResult& row = campaign.history()[history_cursor];
      if (row.tick == tick && row.query_name == query.name) {
        result = &row;
        ++history_cursor;
        break;
      }
    }
    BITPUSH_CHECK(result != nullptr)
        << "no history row for scheduled query " << query.name << " at tick "
        << tick;

    ShardQueryFrame row;
    if (durable()) {
      const auto& full = runner_->full_results();
      const auto it = full.find({tick, static_cast<int64_t>(qi)});
      if (it != full.end()) {
        row = MakeShardQueryFrame(static_cast<int64_t>(qi),
                                  partition_clients(qi), *result, it->second);
      } else {
        // The tick was fully restored from the journal: its rounds (with
        // histograms, faults, retry) are still on disk, because snapshots
        // only happen after delivery.
        std::vector<RoundOutcome> rounds;
        if (!HarvestFromJournal(tick, static_cast<int64_t>(qi), &rounds,
                                error)) {
          return false;
        }
        row.query_index = static_cast<int64_t>(qi);
        row.partition_clients = partition_clients(qi);
        row.result = *result;
        for (const RoundOutcome& round : rounds) {
          AccumulateRoundTallies(round, &row);
        }
      }
    } else {
      const auto it = tick_outcomes_.find(qi);
      BITPUSH_CHECK(it != tick_outcomes_.end())
          << "in-memory shard missing outcome for query " << query.name;
      row = MakeShardQueryFrame(static_cast<int64_t>(qi),
                                partition_clients(qi), *result, it->second);
    }

    if (counted) {
      if (row.result.status == CampaignTickResult::Status::kRan) {
        ++metrics_.queries_ran;
      } else {
        ++metrics_.queries_skipped;
      }
      metrics_.reports_total += row.result.reports;
    }
    out.queries.push_back(std::move(row));
  }

  if (counted) {
    ++metrics_.ticks_completed;
    last_harvested_tick_ = tick;
  }
  out.retry = campaign.retry_stats();
  out.metrics = metrics_;
  *frame = std::move(out);
  return true;
}

bool ShardCoordinator::Snapshot(std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  if (!durable()) return true;
  if (!EnsureOpen(error)) return false;
  return runner_->Snapshot(error);
}

void ShardCoordinator::Restart() {
  if (durable()) {
    runner_.reset();
  } else {
    mem_.reset();
    ++metrics_.recoveries;  // the durable path counts these at Open()
  }
  tick_outcomes_.clear();
}

}  // namespace bitpush
