// Write-ahead journal for the durable coordinator.
//
// Every state transition a crash must not lose — a query starting, a cohort
// assignment going out, a privacy-meter charge, a report landing in a
// tally, a round or a campaign tick closing — is appended here as one
// length-prefixed, CRC-protected record *before* the in-memory state
// changes. Recovery (src/persist/recovery.h) replays the journal on top of
// the latest snapshot.
//
// Frame layout (little-endian):
//
//   [version:1][type:1][seq:8][len:4][payload:len][crc32:4]
//
// `version` is kWireFormatVersion (federated/wire.h), shared with the
// snapshot and the shard tick frames; `seq` numbers records contiguously
// across the life of the state directory (snapshots record where the
// journal resumes); the CRC covers version through payload.
//
// Read semantics distinguish the one corruption a crash legitimately
// produces from everything else. A file that *ends* mid-frame is a torn
// tail: the clean prefix is used and the torn bytes are truncated before
// the journal is appended to again. Any complete frame that fails
// validation — bad CRC, unknown version or type, out-of-order seq — is a
// hard error: recovery fails closed rather than guess, because a record
// silently dropped here could be a privacy-meter charge.

#ifndef BITPUSH_PERSIST_JOURNAL_H_
#define BITPUSH_PERSIST_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "federated/campaign.h"
#include "federated/report.h"
#include "federated/resilience.h"
#include "federated/server.h"

namespace bitpush {

enum class JournalRecordType : uint8_t {
  kQueryStarted = 1,
  kCohortAssigned = 2,
  kMeterCharge = 3,
  kReportAccepted = 4,
  kRoundClosed = 5,
  kQueryFinished = 6,
  kCampaignTick = 7,
  kResilienceEvent = 8,
};

struct JournalRecord {
  uint64_t seq = 0;
  JournalRecordType type = JournalRecordType::kQueryStarted;
  std::vector<uint8_t> payload;
};

// Appends one complete frame for (type, seq, payload) to `out`. Exposed so
// tests can build journals (including deliberately corrupted ones) without
// going through a writer.
void AppendJournalFrame(JournalRecordType type, uint64_t seq,
                        const std::vector<uint8_t>& payload,
                        std::vector<uint8_t>* out);

// Append-only journal writer. Append() makes the record durable (fwrite +
// fflush + fsync unless fsync is disabled for tests) before returning, so
// a caller that journals first and mutates second gets write-ahead
// semantics for free.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { Close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Opens `path` for appending (creating it if needed); new records are
  // numbered from `next_seq`. Returns false with `*error` set on I/O
  // failure.
  bool Open(const std::string& path, uint64_t next_seq, std::string* error);

  // Appends one record and makes it durable. Returns false on I/O failure.
  bool Append(JournalRecordType type, const std::vector<uint8_t>& payload);

  void Close();
  bool is_open() const { return file_ != nullptr; }
  uint64_t next_seq() const { return next_seq_; }
  int64_t appended_records() const { return appended_; }

  // Disables the per-record fsync (tests that write thousands of journals).
  void set_fsync(bool fsync) { fsync_ = fsync; }

  // Crash harness: after `n` successful appends the process exits
  // immediately with status 137 (the SIGKILL status), emulating a kill
  // with the first n records durable and everything after them lost.
  // 0 disables.
  void set_crash_after_records(int64_t n) { crash_after_records_ = n; }

 private:
  std::FILE* file_ = nullptr;
  uint64_t next_seq_ = 0;
  int64_t appended_ = 0;
  int64_t crash_after_records_ = 0;
  bool fsync_ = true;
};

struct JournalReadResult {
  // Valid records with seq >= expected_first_seq, in order. Records below
  // expected_first_seq (left behind when a crash lands between a snapshot
  // rename and the journal truncation that follows it) are dropped.
  std::vector<JournalRecord> records;
  // The file ended mid-frame (the expected crash artifact). The records
  // above are the clean prefix; re-open the journal only after truncating
  // the file to clean_length.
  bool torn_tail = false;
  // Byte length of the valid frame prefix.
  size_t clean_length = 0;
  // Sequence number the next appended record should carry.
  uint64_t next_seq = 0;
};

// Reads and validates a journal file. A missing file is an empty journal
// (success). Returns false with `*error` set on I/O failure or on any
// corruption that is not a torn tail: CRC mismatch, unknown version or
// record type, a duplicate / out-of-order / gapped sequence number.
bool ReadJournal(const std::string& path, uint64_t expected_first_seq,
                 JournalReadResult* out, std::string* error);

// ReadJournal from whatever sequence number the file's first record
// carries: every record the file holds. A journal truncated by a snapshot
// starts past 0, so this is the read for callers that do not know the
// snapshot's next_seq (the crash harnesses, bitpush_doctor).
bool ReadWholeJournal(const std::string& path, JournalReadResult* out,
                      std::string* error);

// Rewrites the journal at `path` so only its first `keep_records` records
// remain — the canonical way to simulate a crash that lost a durable
// suffix. Reads and validates the existing file first (ReadWholeJournal,
// so a snapshot-truncated journal works too); keeping more records than
// exist keeps them all. Returns false with `*error` set on I/O failure or
// on pre-existing corruption.
bool TruncateJournalToRecords(const std::string& path, size_t keep_records,
                              std::string* error);

// Chops `tail_bytes` off the end of the file — the torn-write crash
// artifact. Returns false with `*error` set when the file is missing or on
// I/O failure.
bool TearJournalTail(const std::string& path, size_t tail_bytes,
                     std::string* error);

// ---------------------------------------------------------------------------
// Record payloads. Each Encode appends to `out`; each Decode consumes the
// *entire* payload buffer and returns false (leaving `*out` untouched) on
// truncation, trailing bytes, or invalid fields.

struct QueryStartedRecord {
  int64_t tick = 0;
  int64_t query_index = 0;
  int64_t value_id = 0;

  friend bool operator==(const QueryStartedRecord&,
                         const QueryStartedRecord&) = default;
};
void EncodeQueryStartedRecord(const QueryStartedRecord& record,
                              std::vector<uint8_t>* out);
bool DecodeQueryStartedRecord(const std::vector<uint8_t>& payload,
                              QueryStartedRecord* out);

struct CohortAssignedRecord {
  int64_t round_id = 0;
  std::vector<int64_t> client_ids;

  friend bool operator==(const CohortAssignedRecord&,
                         const CohortAssignedRecord&) = default;
};
void EncodeCohortAssignedRecord(const CohortAssignedRecord& record,
                                std::vector<uint8_t>* out);
bool DecodeCohortAssignedRecord(const std::vector<uint8_t>& payload,
                                CohortAssignedRecord* out);

struct MeterChargeRecord {
  int64_t client_id = 0;
  int64_t value_id = 0;
  double epsilon = 0.0;
  bool granted = false;

  friend bool operator==(const MeterChargeRecord&,
                         const MeterChargeRecord&) = default;
};
void EncodeMeterChargeRecord(const MeterChargeRecord& record,
                             std::vector<uint8_t>* out);
bool DecodeMeterChargeRecord(const std::vector<uint8_t>& payload,
                             MeterChargeRecord* out);

struct ReportAcceptedRecord {
  int64_t round_id = 0;
  BitReport report;

  friend bool operator==(const ReportAcceptedRecord& a,
                         const ReportAcceptedRecord& b) {
    return a.round_id == b.round_id &&
           a.report.client_id == b.report.client_id &&
           a.report.bit_index == b.report.bit_index &&
           a.report.bit == b.report.bit;
  }
};
void EncodeReportAcceptedRecord(const ReportAcceptedRecord& record,
                                std::vector<uint8_t>* out);
bool DecodeReportAcceptedRecord(const std::vector<uint8_t>& payload,
                                ReportAcceptedRecord* out);

struct RoundClosedRecord {
  int64_t round_id = 0;
  RoundOutcome outcome;
};
void EncodeRoundClosedRecord(const RoundClosedRecord& record,
                             std::vector<uint8_t>* out);
bool DecodeRoundClosedRecord(const std::vector<uint8_t>& payload,
                             RoundClosedRecord* out);

struct QueryFinishedRecord {
  int64_t tick = 0;
  int64_t query_index = 0;
  CampaignTickResult result;
  std::vector<double> final_bit_means;
};
void EncodeQueryFinishedRecord(const QueryFinishedRecord& record,
                               std::vector<uint8_t>* out);
bool DecodeQueryFinishedRecord(const std::vector<uint8_t>& payload,
                               QueryFinishedRecord* out);

struct CampaignTickRecord {
  int64_t tick = 0;

  friend bool operator==(const CampaignTickRecord&,
                         const CampaignTickRecord&) = default;
};
void EncodeCampaignTickRecord(const CampaignTickRecord& record,
                              std::vector<uint8_t>* out);
bool DecodeCampaignTickRecord(const std::vector<uint8_t>& payload,
                              CampaignTickRecord* out);

// One retry / hedge / breaker decision made by the resilience layer
// (federated/resilience.h) during a live round. Journaled in execution
// order so replay can verify the recovery layer re-derives the exact same
// decisions from the same seed.
struct ResilienceEventRecord {
  ResilienceEvent event;

  friend bool operator==(const ResilienceEventRecord&,
                         const ResilienceEventRecord&) = default;
};
void EncodeResilienceEventRecord(const ResilienceEventRecord& record,
                                 std::vector<uint8_t>* out);
bool DecodeResilienceEventRecord(const std::vector<uint8_t>& payload,
                                 ResilienceEventRecord* out);

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_JOURNAL_H_
