#include "core/privacy_meter.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "rng/keyed.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {
namespace {

// The table's first size; it doubles whenever an insert would push the
// load past 1/2.
constexpr size_t kMinRows = 16;

}  // namespace

void PrivacyMeter::RefreshObsGauges() const {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Default();
  static obs::Gauge* bits = registry.GetGauge(
      "bitpush_meter_bits_spent", "Total private bits disclosed.",
      obs::Determinism::kStable);
  static obs::Gauge* epsilon = registry.GetGauge(
      "bitpush_meter_epsilon_spent",
      "Cumulative randomized-response epsilon granted (basic composition).",
      obs::Determinism::kStable);
  static obs::Gauge* denied = registry.GetGauge(
      "bitpush_meter_denied_charges",
      "Charges denied by a cap or an invalid epsilon.",
      obs::Determinism::kStable);
  bits->Set(static_cast<double>(total_bits_));
  epsilon->Set(total_epsilon_);
  denied->Set(static_cast<double>(denied_charges_));
}

void PrivacyMeter::NoteChargeOutcome(int64_t value_id, bool granted) {
  if (!obs::Enabled()) return;
  uint8_t& mask = columns_[ColumnIndex(value_id)].announced;
  const uint8_t bit = granted ? 1 : 2;
  if ((mask & bit) != 0) return;
  mask |= bit;
  // Deliberately no ledger totals in the detail: at the moment a recovered
  // run re-serves a journaled prefix charge, the ledger already holds the
  // whole prefix (ApplyJournal applied it), so totals here would not be
  // replay-invariant. The (value, outcome) transition itself is.
  obs::EventArgs args;
  args.detail = "value=" + std::to_string(value_id) +
                (granted ? " first grant" : " first denial");
  obs::EmitEvent(granted ? obs::EventType::kMeterCharge
                         : obs::EventType::kMeterDenial,
                 obs::Determinism::kStable, std::move(args));
}

PrivacyMeter::PrivacyMeter(MeterPolicy policy) : policy_(policy) {
  BITPUSH_CHECK_GE(policy_.max_bits_per_value, 1);
  BITPUSH_CHECK_GE(policy_.max_bits_per_client, 1);
  BITPUSH_CHECK_GT(policy_.max_epsilon_per_client, 0.0);
}

size_t PrivacyMeter::Home(int64_t client_id) const {
  return static_cast<size_t>(Mix(static_cast<uint64_t>(client_id))) &
         (rows_.size() - 1);
}

size_t PrivacyMeter::FindRow(int64_t client_id) const {
  if (rows_.empty()) return kNoRow;
  const size_t mask = rows_.size() - 1;
  for (size_t pos = Home(client_id);; pos = (pos + 1) & mask) {
    const Row& row = rows_[pos];
    if (row.bits < 0) return kNoRow;
    if (row.client_id == client_id) return pos;
  }
}

size_t PrivacyMeter::FindOrInsertRow(int64_t client_id) {
  const size_t found = FindRow(client_id);
  if (found != kNoRow) return found;
  if (2 * (live_rows_ + 1) > rows_.size()) {
    Rehash(std::max(kMinRows, 2 * rows_.size()));
  }
  const size_t mask = rows_.size() - 1;
  size_t pos = Home(client_id);
  while (rows_[pos].bits >= 0) pos = (pos + 1) & mask;
  rows_[pos] = Row{client_id, 0, 0.0};
  ++live_rows_;
  return pos;
}

void PrivacyMeter::Rehash(size_t capacity) {
  std::vector<Row> old_rows = std::move(rows_);
  rows_.assign(capacity, Row{});
  const size_t mask = capacity - 1;
  std::vector<size_t> moved_to(old_rows.size(), kNoRow);
  for (size_t from = 0; from < old_rows.size(); ++from) {
    if (old_rows[from].bits < 0) continue;
    size_t pos = Home(old_rows[from].client_id);
    while (rows_[pos].bits >= 0) pos = (pos + 1) & mask;
    rows_[pos] = old_rows[from];
    moved_to[from] = pos;
  }
  for (ValueColumn& column : columns_) {
    if (column.counts.empty()) continue;
    std::vector<int64_t> counts(capacity, 0);
    for (size_t from = 0; from < old_rows.size(); ++from) {
      if (moved_to[from] != kNoRow) {
        counts[moved_to[from]] = column.counts[from];
      }
    }
    column.counts = std::move(counts);
  }
}

size_t PrivacyMeter::ColumnIndex(int64_t value_id) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c].value_id == value_id) return c;
  }
  columns_.push_back(ValueColumn{value_id, 0, {}});
  return columns_.size() - 1;
}

const PrivacyMeter::ValueColumn* PrivacyMeter::FindColumn(
    int64_t value_id) const {
  for (const ValueColumn& column : columns_) {
    if (column.value_id == value_id) return &column;
  }
  return nullptr;
}

void PrivacyMeter::Prefetch(int64_t client_id, int64_t value_id) const {
  if (rows_.empty()) return;
  const size_t home = Home(client_id);
  // A 24-byte row can straddle two cache lines: touch both ends.
  const Row* row = &rows_[home];
  __builtin_prefetch(row, /*rw=*/1);
  __builtin_prefetch(reinterpret_cast<const char*>(row + 1) - 1, /*rw=*/1);
  const ValueColumn* column = FindColumn(value_id);
  if (column != nullptr && !column->counts.empty()) {
    __builtin_prefetch(&column->counts[home], /*rw=*/1);
  }
}

bool PrivacyMeter::TryChargeBit(int64_t client_id, int64_t value_id,
                                double epsilon) {
  // An invalid epsilon is denied rather than CHECKed: the value can
  // originate from an untrusted request, and accepting a non-finite
  // epsilon (infinity passes a >= 0 check) would permanently corrupt the
  // per-client composition total. The denial still flows through the
  // journal hooks below like a cap denial, so a recovered ledger counts it
  // exactly once and stays byte-identical to an uninterrupted run.
  const bool valid_epsilon = std::isfinite(epsilon) && epsilon >= 0.0;
  if (journal_ != nullptr) {
    // Recovery replay: the decision was journaled before the crash and the
    // restored ledger already reflects it — return it without re-charging.
    const std::optional<bool> replayed =
        journal_->OnChargeAttempt(client_id, value_id, epsilon);
    if (replayed.has_value()) {
      // Re-served prefix charge: the ledger already reflects it, but its
      // flight-recorder announcement was suppressed during replay — emit it
      // here, at the same logical position a live run would have.
      NoteChargeOutcome(value_id, *replayed);
      return *replayed;
    }
  }
  size_t pos = kNoRow;
  size_t column = 0;
  bool granted = false;
  if (valid_epsilon) {
    pos = FindOrInsertRow(client_id);
    column = ColumnIndex(value_id);
    const std::vector<int64_t>& counts = columns_[column].counts;
    const int64_t value_bits = counts.empty() ? 0 : counts[pos];
    const Row& row = rows_[pos];
    granted = value_bits + 1 <= policy_.max_bits_per_value &&
              row.bits + 1 <= policy_.max_bits_per_client &&
              row.epsilon + epsilon <= policy_.max_epsilon_per_client;
  }
  if (journal_ != nullptr) {
    // Write-ahead: persist the decision before applying it, so a crash
    // between the two is recovered by replaying the record (exactly once).
    journal_->OnCharge(client_id, value_id, epsilon, granted);
  }
  if (!granted) {
    ++denied_charges_;
    RefreshObsGauges();
    if (!replay_quiet_) NoteChargeOutcome(value_id, false);
    return false;
  }
  std::vector<int64_t>& counts = columns_[column].counts;
  if (counts.empty()) counts.assign(rows_.size(), 0);
  ++counts[pos];
  Row& row = rows_[pos];
  ++row.bits;
  row.epsilon += epsilon;
  ++total_bits_;
  total_epsilon_ += epsilon;
  RefreshObsGauges();
  if (!replay_quiet_) NoteChargeOutcome(value_id, true);
  return true;
}

int64_t PrivacyMeter::ClientBits(int64_t client_id) const {
  const size_t pos = FindRow(client_id);
  return pos == kNoRow ? 0 : rows_[pos].bits;
}

double PrivacyMeter::ClientEpsilon(int64_t client_id) const {
  const size_t pos = FindRow(client_id);
  return pos == kNoRow ? 0.0 : rows_[pos].epsilon;
}

int64_t PrivacyMeter::ValueBits(int64_t client_id, int64_t value_id) const {
  const size_t pos = FindRow(client_id);
  const ValueColumn* column = FindColumn(value_id);
  if (pos == kNoRow || column == nullptr || column->counts.empty()) return 0;
  return column->counts[pos];
}

void PrivacyMeter::EncodeTo(std::vector<uint8_t>* out) const {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(policy_.max_bits_per_value, out);
  bytes::PutInt64(policy_.max_bits_per_client, out);
  bytes::PutDouble(policy_.max_epsilon_per_client, out);
  bytes::PutInt64(total_bits_, out);
  bytes::PutInt64(denied_charges_, out);

  // Canonical form: sorted ids, zero entries omitted. Denied attempts leave
  // behind zero-count rows in memory; dropping them here makes "same
  // ledger" mean "same bytes" regardless of how the state was reached
  // (live run, journal replay, or snapshot restore) or of the table's
  // probe order.
  std::vector<std::pair<int64_t, size_t>> clients;  // (client id, row)
  clients.reserve(live_rows_);
  for (size_t pos = 0; pos < rows_.size(); ++pos) {
    const Row& row = rows_[pos];
    if (row.bits > 0 || row.epsilon > 0.0) {
      clients.emplace_back(row.client_id, pos);
    }
  }
  std::sort(clients.begin(), clients.end());
  bytes::PutUint32(static_cast<uint32_t>(clients.size()), out);
  std::vector<std::pair<int64_t, int64_t>> values;  // (value id, bits)
  for (const auto& [client_id, pos] : clients) {
    const Row& row = rows_[pos];
    bytes::PutInt64(client_id, out);
    bytes::PutInt64(row.bits, out);
    bytes::PutDouble(row.epsilon, out);
    values.clear();
    for (const ValueColumn& column : columns_) {
      if (!column.counts.empty() && column.counts[pos] > 0) {
        values.emplace_back(column.value_id, column.counts[pos]);
      }
    }
    std::sort(values.begin(), values.end());
    bytes::PutUint32(static_cast<uint32_t>(values.size()), out);
    for (const auto& [value_id, bits] : values) {
      bytes::PutInt64(value_id, out);
      bytes::PutInt64(bits, out);
    }
  }
}

bool PrivacyMeter::DecodeFrom(const std::vector<uint8_t>& buffer,
                              size_t* offset, PrivacyMeter* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  MeterPolicy policy;
  int64_t total_bits = 0;
  int64_t denied_charges = 0;
  uint32_t client_count = 0;
  if (!bytes::GetInt64(buffer, &cursor, &policy.max_bits_per_value) ||
      !bytes::GetInt64(buffer, &cursor, &policy.max_bits_per_client) ||
      !bytes::GetDouble(buffer, &cursor, &policy.max_epsilon_per_client) ||
      !bytes::GetInt64(buffer, &cursor, &total_bits) ||
      !bytes::GetInt64(buffer, &cursor, &denied_charges) ||
      !bytes::GetUint32(buffer, &cursor, &client_count)) {
    return false;
  }
  if (policy.max_bits_per_value < 1 || policy.max_bits_per_client < 1 ||
      std::isnan(policy.max_epsilon_per_client) ||
      policy.max_epsilon_per_client <= 0.0 || total_bits < 0 ||
      denied_charges < 0) {
    return false;
  }
  // The ledger is rebuilt off to the side and moved in only once the whole
  // snapshot has validated. It grows row by row, so a forged client count
  // cannot size it beyond the entries actually present.
  PrivacyMeter restored(policy);
  int64_t ledger_bit_sum = 0;
  double ledger_epsilon_sum = 0.0;
  std::vector<int64_t> value_ids;
  for (uint32_t c = 0; c < client_count; ++c) {
    int64_t client_id = 0;
    int64_t client_bits = 0;
    double client_epsilon = 0.0;
    uint32_t value_count = 0;
    if (!bytes::GetInt64(buffer, &cursor, &client_id) ||
        !bytes::GetInt64(buffer, &cursor, &client_bits) ||
        !bytes::GetDouble(buffer, &cursor, &client_epsilon) ||
        !bytes::GetUint32(buffer, &cursor, &value_count)) {
      return false;
    }
    if (client_bits < 0 || !std::isfinite(client_epsilon) ||
        client_epsilon < 0.0) {
      return false;
    }
    if (restored.FindRow(client_id) != kNoRow) {
      return false;  // duplicate client entry
    }
    const size_t pos = restored.FindOrInsertRow(client_id);
    restored.rows_[pos].bits = client_bits;
    restored.rows_[pos].epsilon = client_epsilon;
    int64_t value_bit_sum = 0;
    value_ids.clear();
    for (uint32_t v = 0; v < value_count; ++v) {
      int64_t value_id = 0;
      int64_t bits = 0;
      if (!bytes::GetInt64(buffer, &cursor, &value_id) ||
          !bytes::GetInt64(buffer, &cursor, &bits)) {
        return false;
      }
      if (bits < 0) return false;  // negative count
      value_ids.push_back(value_id);
      value_bit_sum += bits;
      // A zero-bit entry reads the same as no entry: only a positive count
      // needs (and allocates) a column.
      if (bits > 0) {
        std::vector<int64_t>& counts =
            restored.columns_[restored.ColumnIndex(value_id)].counts;
        if (counts.empty()) counts.assign(restored.rows_.size(), 0);
        counts[pos] = bits;
      }
    }
    // A value listed twice is malformed whatever its counts, zero included.
    std::sort(value_ids.begin(), value_ids.end());
    if (std::adjacent_find(value_ids.begin(), value_ids.end()) !=
        value_ids.end()) {
      return false;  // duplicate value entry
    }
    // Consistency: per-value bits must account for the client total.
    if (value_bit_sum != client_bits) return false;
    ledger_bit_sum += client_bits;
    ledger_epsilon_sum += client_epsilon;
  }
  if (ledger_bit_sum != total_bits) return false;

  out->policy_ = policy;
  out->rows_ = std::move(restored.rows_);
  out->live_rows_ = restored.live_rows_;
  out->columns_ = std::move(restored.columns_);
  out->total_bits_ = total_bits;
  // Recomputed in the canonical (sorted-client) encoding order; may differ
  // from a live run's charge-order sum by FP rounding, which is why the
  // deterministic-metrics contract is scoped to journal-only recovery
  // (replay re-charges in the original order).
  out->total_epsilon_ = ledger_epsilon_sum;
  out->denied_charges_ = denied_charges;
  // Values restored from a snapshot (every column: only positive counts
  // made one) are marked fully announced: their first grant / first denial
  // happened before the snapshot, and re-announcing them would fabricate
  // flight-recorder events the original run never emitted.
  for (ValueColumn& column : out->columns_) column.announced = 3;
  out->RefreshObsGauges();
  *offset = cursor;
  return true;
}

}  // namespace bitpush
