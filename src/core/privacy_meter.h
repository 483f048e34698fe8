// Privacy metering (Section 1.1): private data is metered at the *bit*
// level rather than the value level. The meter is the auditable ledger
// behind the paper's headline promise — "for each private value, at most
// one bit is used" — and behind platform-level disclosure caps ("limit
// subsequent bits per value and per client").
//
// Protocol code must obtain permission from the meter before a private bit
// leaves a client; a denied charge means the client skips the round.
//
// Durability: the ledger is exactly the state a coordinator must not lose
// across a crash — a recovering server that forgot a charge could let a
// second bit of the same value leave a client. The meter therefore supports
// (a) a Journal hook through which every charge attempt is write-ahead
// logged (and replayed exactly-once on recovery), and (b) canonical
// EncodeTo/DecodeFrom serialization for snapshots (src/persist/).
//
// Layout: every report pays one charge, so the ledger is the collection
// tick's hot path. It is one flat open-addressing table (no allocation per
// client; see DESIGN.md §2, "A flat privacy ledger") that a caller can
// Prefetch a few clients ahead of the charge.

#ifndef BITPUSH_CORE_PRIVACY_METER_H_
#define BITPUSH_CORE_PRIVACY_METER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace bitpush {

struct MeterPolicy {
  // Maximum bits that may ever be disclosed about one (client, value) pair.
  // 1 is the paper's worst-case guarantee.
  int64_t max_bits_per_value = 1;
  // Cap on total bits disclosed by one client across all values/rounds.
  int64_t max_bits_per_client = std::numeric_limits<int64_t>::max();
  // Cap on accumulated randomized-response epsilon per client (basic
  // composition across that client's reports).
  double max_epsilon_per_client = std::numeric_limits<double>::infinity();

  friend bool operator==(const MeterPolicy&, const MeterPolicy&) = default;
};

class PrivacyMeter {
 public:
  // Write-ahead journal hook. A durable coordinator installs one so every
  // charge decision is persisted before it takes effect, and so a recovery
  // replay can serve the recorded outcomes back without double-charging.
  class Journal {
   public:
    virtual ~Journal() = default;

    // Consulted before a charge is evaluated. Returning an outcome means
    // this attempt was already journaled (and already applied to the
    // restored ledger): the meter returns it verbatim and mutates nothing.
    // Returning nullopt lets the charge proceed normally.
    virtual std::optional<bool> OnChargeAttempt(int64_t client_id,
                                                int64_t value_id,
                                                double epsilon) = 0;

    // Called with the decision of a live (non-replayed) charge attempt,
    // before the ledger mutation is applied — the write-ahead discipline:
    // a crash after this call but before the in-memory update is recovered
    // by replaying the record.
    virtual void OnCharge(int64_t client_id, int64_t value_id, double epsilon,
                          bool granted) = 0;
  };

  explicit PrivacyMeter(MeterPolicy policy);

  // Installs (or clears, with nullptr) the write-ahead journal hook.
  void set_journal(Journal* journal) { journal_ = journal; }

  // Recovery-replay suppression for the flight recorder. While set, charge
  // decisions mutate the ledger but emit no events and advance no
  // first-grant/first-denial latches — used by recovery for the replay
  // *prefix* (the in-flight query's charges), whose events are instead
  // emitted when the re-execution is served the journaled outcomes, i.e.
  // at the same logical position as in an uninterrupted run.
  void set_replay_quiet(bool quiet) { replay_quiet_ = quiet; }

  // Attempts to charge one disclosed bit about `value_id` from `client_id`
  // at randomized-response cost `epsilon` (0 for a noiseless bit). Returns
  // true and records the charge if all caps allow it; returns false and
  // records nothing otherwise. A negative or non-finite epsilon is invalid
  // and is always denied (it would corrupt the per-client composition
  // total).
  bool TryChargeBit(int64_t client_id, int64_t value_id, double epsilon);

  // Total bits disclosed across all clients.
  int64_t total_bits() const { return total_bits_; }
  // Total randomized-response epsilon granted across all clients (basic
  // composition; the cumulative privacy spend the observability layer
  // publishes).
  double total_epsilon() const { return total_epsilon_; }
  // Bits disclosed by one client so far.
  int64_t ClientBits(int64_t client_id) const;
  // Accumulated epsilon for one client.
  double ClientEpsilon(int64_t client_id) const;
  // Bits disclosed about one specific (client, value) pair.
  int64_t ValueBits(int64_t client_id, int64_t value_id) const;
  // Number of charges rejected by a cap (or by an invalid epsilon).
  int64_t denied_charges() const { return denied_charges_; }

  // Cache hint, no effect on the ledger: starts loading the memory a
  // TryChargeBit(client_id, value_id, ...) will touch, so a caller walking
  // a cohort can overlap the next clients' misses with this one's charge.
  void Prefetch(int64_t client_id, int64_t value_id) const;

  const MeterPolicy& policy() const { return policy_; }

  // Canonical serialization of policy + full ledger (clients and values in
  // sorted order, so equal meters encode to equal bytes). DecodeFrom
  // overwrites `*out` entirely; it returns false on truncated input or on
  // any internally inconsistent ledger (negative counts, per-value bits
  // that do not sum to the client total, non-finite epsilon, ...) without
  // touching `*out`.
  void EncodeTo(std::vector<uint8_t>* out) const;
  static bool DecodeFrom(const std::vector<uint8_t>& buffer, size_t* offset,
                         PrivacyMeter* out);

 private:
  // One ledger row per client charged with a valid epsilon, in a
  // power-of-two open-addressing table (linear probing from the Mix hash
  // of the id, load at most 1/2). Client ids span all of int64, so no id
  // can mark a free row: bits < 0 does.
  struct Row {
    int64_t client_id = 0;
    int64_t bits = -1;
    double epsilon = 0.0;
  };
  // Per-value bit counts for one value id, aligned to the rows:
  // counts[pos] is what rows_[pos]'s client disclosed about this value.
  // `counts` stays empty (all zero) until the value's first grant, so a
  // value seen only in denials costs no table-sized column.
  struct ValueColumn {
    int64_t value_id = 0;
    // Flight-recorder latches (NoteChargeOutcome): bit 0 = first grant
    // announced, bit 1 = first denial announced. Not serialized —
    // DecodeFrom marks restored values fully announced (snapshot-restored
    // history is outside the stable-event replay contract anyway).
    uint8_t announced = 0;
    std::vector<int64_t> counts;
  };
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  size_t Home(int64_t client_id) const;
  // Position of `client_id`'s row, or kNoRow.
  size_t FindRow(int64_t client_id) const;
  // Position of `client_id`'s row, inserting an empty-ledger row (and
  // growing the table) when there is none.
  size_t FindOrInsertRow(int64_t client_id);
  // Re-places every row in a table of `capacity` rows (a power of two)
  // and permutes the value columns to match.
  void Rehash(size_t capacity);
  // Index into columns_ of `value_id`'s column, appending one if needed.
  size_t ColumnIndex(int64_t value_id);
  const ValueColumn* FindColumn(int64_t value_id) const;

  // Publishes the ledger totals as obs gauges (core/privacy_meter.cc);
  // called after every ledger mutation and after DecodeFrom so live,
  // replayed, and snapshot-restored meters all report the same spend.
  void RefreshObsGauges() const;

  // Flight-recorder hook: emits a kMeterCharge / kMeterDenial event the
  // *first* time a value id sees a grant (resp. a denial). Latching per
  // (value, outcome) keeps the stable event stream bounded — a campaign
  // charging thousands of clients produces at most two meter events per
  // value — while still marking the privacy-relevant transitions: "bits
  // started flowing for this value" and "the budget wall was hit".
  void NoteChargeOutcome(int64_t value_id, bool granted);

  MeterPolicy policy_;
  std::vector<Row> rows_;
  size_t live_rows_ = 0;
  // One column per value id seen; campaigns query a handful of values, so
  // a linear scan finds one.
  std::vector<ValueColumn> columns_;
  int64_t total_bits_ = 0;
  double total_epsilon_ = 0.0;
  int64_t denied_charges_ = 0;
  Journal* journal_ = nullptr;
  bool replay_quiet_ = false;
};

}  // namespace bitpush

#endif  // BITPUSH_CORE_PRIVACY_METER_H_
