#include "federated/shard/shard_faults.h"

#include <cstddef>
#include <cstdint>

#include "rng/keyed.h"
#include "util/check.h"

namespace bitpush {
namespace {

void CheckRate(double rate, const char* name) {
  BITPUSH_CHECK(rate >= 0.0 && rate <= 1.0)
      << "shard fault rate out of [0,1]: " << name << "=" << rate;
}

}  // namespace

const char* ShardFaultTypeName(ShardFaultType type) {
  switch (type) {
    case ShardFaultType::kNone:
      return "none";
    case ShardFaultType::kCrashAtRecord:
      return "crash_at_record";
    case ShardFaultType::kStall:
      return "stall";
    case ShardFaultType::kTornJournal:
      return "torn_journal";
    case ShardFaultType::kStaleSnapshot:
      return "stale_snapshot";
  }
  return "unknown";
}

ShardFaultPlan::ShardFaultPlan(uint64_t seed, const ShardFaultRates& rates)
    : seed_(seed), rates_(rates), enabled_(rates.Any()) {
  CheckRate(rates.crash_at_record, "crash_at_record");
  CheckRate(rates.stall, "stall");
  CheckRate(rates.torn_journal, "torn_journal");
  CheckRate(rates.stale_snapshot, "stale_snapshot");
  const double sum = rates.crash_at_record + rates.stall +
                     rates.torn_journal + rates.stale_snapshot;
  BITPUSH_CHECK(sum <= 1.0) << "shard fault rates sum to " << sum << " > 1";
}

void ShardFaultPlan::SetPermanentLoss(int64_t shard, int64_t from_tick) {
  BITPUSH_CHECK(shard >= -1);
  lost_shard_ = shard;
  lost_from_tick_ = from_tick;
}

ShardFaultType ShardFaultPlan::Decide(int64_t shard, int64_t tick,
                                      int64_t attempt) const {
  if (!enabled_) return ShardFaultType::kNone;
  const double u = KeyedUniform(seed_, tick, shard, attempt ^ 0x51);
  double edge = rates_.crash_at_record;
  if (u < edge) return ShardFaultType::kCrashAtRecord;
  edge += rates_.stall;
  if (u < edge) return ShardFaultType::kStall;
  edge += rates_.torn_journal;
  if (u < edge) return ShardFaultType::kTornJournal;
  edge += rates_.stale_snapshot;
  if (u < edge) return ShardFaultType::kStaleSnapshot;
  return ShardFaultType::kNone;
}

int64_t ShardFaultPlan::CrashRecordIndex(int64_t shard, int64_t tick,
                                         int64_t attempt,
                                         int64_t journal_records) const {
  BITPUSH_CHECK_GE(journal_records, 0);
  const uint64_t h = KeyedHash(seed_, tick, shard, attempt ^ 0x52);
  return static_cast<int64_t>(h %
                              static_cast<uint64_t>(journal_records + 1));
}

size_t ShardFaultPlan::TornTailBytes(int64_t shard, int64_t tick,
                                     int64_t attempt) const {
  const uint64_t h = KeyedHash(seed_, tick, shard, attempt ^ 0x53);
  return static_cast<size_t>(1 + h % 3);
}

}  // namespace bitpush
