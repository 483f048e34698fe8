#include "persist/journal.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "federated/wire.h"
#include "obs/metrics.h"
#include "persist/file_io.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

namespace {

// Journal I/O counters are kVolatile: a recovered run re-appends only the
// records the crash lost, so its totals legitimately differ from a clean
// run's.
void ObserveJournalAppend(size_t frame_bytes, bool fsynced) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* records = registry.GetCounter(
      "bitpush_journal_records_total", "Journal records appended.",
      obs::Determinism::kVolatile);
  static obs::Counter* bytes = registry.GetCounter(
      "bitpush_journal_bytes_total", "Journal frame bytes written.",
      obs::Determinism::kVolatile);
  static obs::Counter* fsyncs = registry.GetCounter(
      "bitpush_journal_fsyncs_total", "Journal fsync calls issued.",
      obs::Determinism::kVolatile);
  records->Increment();
  bytes->Add(static_cast<int64_t>(frame_bytes));
  if (fsynced) fsyncs->Increment();
}

// version + type + seq + len.
constexpr size_t kFrameHeaderSize = 1 + 1 + 8 + 4;
constexpr size_t kFrameCrcSize = 4;

bool ValidRecordType(uint8_t type) {
  return type >= static_cast<uint8_t>(JournalRecordType::kQueryStarted) &&
         type <= static_cast<uint8_t>(JournalRecordType::kResilienceEvent);
}

}  // namespace

void AppendJournalFrame(JournalRecordType type, uint64_t seq,
                        const std::vector<uint8_t>& payload,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  const size_t start = out->size();
  bytes::PutByte(kWireFormatVersion, out);
  bytes::PutByte(static_cast<uint8_t>(type), out);
  bytes::PutUint64(seq, out);
  bytes::PutUint32(static_cast<uint32_t>(payload.size()), out);
  out->insert(out->end(), payload.begin(), payload.end());
  const uint32_t crc = bytes::Crc32(out->data() + start, out->size() - start);
  bytes::PutUint32(crc, out);
}

bool JournalWriter::Open(const std::string& path, uint64_t next_seq,
                         std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK(file_ == nullptr) << "journal already open";
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    *error = IoError("open journal", path);
    return false;
  }
  next_seq_ = next_seq;
  return true;
}

bool JournalWriter::Append(JournalRecordType type,
                           const std::vector<uint8_t>& payload) {
  BITPUSH_CHECK(file_ != nullptr) << "journal not open";
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderSize + payload.size() + kFrameCrcSize);
  AppendJournalFrame(type, next_seq_, payload, &frame);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return false;
  }
  if (std::fflush(file_) != 0) return false;
  if (fsync_ && fsync(fileno(file_)) != 0) return false;
  ObserveJournalAppend(frame.size(), fsync_);
  ++next_seq_;
  ++appended_;
  if (crash_after_records_ > 0 && appended_ >= crash_after_records_) {
    // Crash harness: die the way SIGKILL would — no flushing, no handlers —
    // with exactly the records appended so far durable on disk.
    std::_Exit(137);
  }
  return true;
}

void JournalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

namespace {

// Reads the whole file. A missing file sets *missing and succeeds with no
// bytes; any other failure sets *error.
bool ReadJournalFile(const std::string& path, std::vector<uint8_t>* data,
                     bool* missing, std::string* error) {
  *missing = false;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) {
      *missing = true;
      return true;
    }
    *error = IoError("open journal", path);
    return false;
  }
  uint8_t chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    data->insert(data->end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    *error = IoError("read journal", path);
    return false;
  }
  return true;
}

// Replaces the file's contents with `data`.
bool RewriteJournalFile(const std::string& path,
                        const std::vector<uint8_t>& data,
                        std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    *error = IoError("rewrite journal", path);
    return false;
  }
  const bool wrote =
      data.empty() ||
      std::fwrite(data.data(), 1, data.size(), file) == data.size();
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    *error = IoError("rewrite journal", path);
    return false;
  }
  return true;
}

// Validates the frames of `data`, keeping records from expected_first_seq
// on; the ReadJournal contract.
bool ParseJournal(const std::vector<uint8_t>& data,
                  uint64_t expected_first_seq, JournalReadResult* out,
                  std::string* error) {
  JournalReadResult result;
  result.next_seq = expected_first_seq;
  size_t offset = 0;
  uint64_t previous_seq = 0;
  bool have_previous = false;
  while (offset < data.size()) {
    if (data.size() - offset < kFrameHeaderSize) {
      result.torn_tail = true;  // file ends inside a frame header
      break;
    }
    size_t cursor = offset;
    uint8_t version = 0;
    uint8_t type = 0;
    uint64_t seq = 0;
    uint32_t length = 0;
    BITPUSH_CHECK(bytes::GetByte(data, &cursor, &version));
    BITPUSH_CHECK(bytes::GetByte(data, &cursor, &type));
    BITPUSH_CHECK(bytes::GetUint64(data, &cursor, &seq));
    BITPUSH_CHECK(bytes::GetUint32(data, &cursor, &length));
    if (version != kWireFormatVersion) {
      *error = FormatVersionError("journal record", version);
      return false;
    }
    if (!ValidRecordType(type)) {
      *error = "journal record with unknown type";
      return false;
    }
    if (data.size() - cursor < static_cast<size_t>(length) + kFrameCrcSize) {
      result.torn_tail = true;  // file ends inside the payload or CRC
      break;
    }
    const uint32_t computed_crc =
        bytes::Crc32(data.data() + offset, kFrameHeaderSize + length);
    cursor += length;
    uint32_t stored_crc = 0;
    BITPUSH_CHECK(bytes::GetUint32(data, &cursor, &stored_crc));
    if (computed_crc != stored_crc) {
      // A complete frame with a bad CRC is real corruption, not a torn
      // write: fail closed.
      *error = "journal record failed CRC check";
      return false;
    }
    if (have_previous && seq != previous_seq + 1) {
      *error = "journal sequence gap or duplicate";
      return false;
    }
    have_previous = true;
    previous_seq = seq;
    if (seq >= expected_first_seq) {
      if (result.records.empty() && seq != expected_first_seq) {
        // Records between the snapshot and this one are missing entirely.
        *error = "journal starts past the snapshot sequence";
        return false;
      }
      JournalRecord record;
      record.seq = seq;
      record.type = static_cast<JournalRecordType>(type);
      record.payload.assign(
          data.begin() + static_cast<ptrdiff_t>(offset + kFrameHeaderSize),
          data.begin() +
              static_cast<ptrdiff_t>(offset + kFrameHeaderSize + length));
      result.records.push_back(std::move(record));
      result.next_seq = seq + 1;
    }
    offset = cursor;
    result.clean_length = offset;
  }
  *out = std::move(result);
  return true;
}

}  // namespace

bool ReadJournal(const std::string& path, uint64_t expected_first_seq,
                 JournalReadResult* out, std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> data;
  bool missing = false;
  if (!ReadJournalFile(path, &data, &missing, error)) return false;
  return ParseJournal(data, expected_first_seq, out, error);
}

bool ReadWholeJournal(const std::string& path, JournalReadResult* out,
                      std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> data;
  bool missing = false;
  if (!ReadJournalFile(path, &data, &missing, error)) return false;
  // Peek the first frame's seq: [version:1][type:1][seq:8]. A file too
  // short to hold it is a torn tail and parses from 0.
  uint64_t first_seq = 0;
  size_t cursor = 2;
  if (data.size() >= cursor + 8) {
    BITPUSH_CHECK(bytes::GetUint64(data, &cursor, &first_seq));
  }
  return ParseJournal(data, first_seq, out, error);
}

bool TruncateJournalToRecords(const std::string& path, size_t keep_records,
                              std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  JournalReadResult journal;
  if (!ReadWholeJournal(path, &journal, error)) return false;
  std::vector<uint8_t> prefix;
  const size_t keep = std::min(keep_records, journal.records.size());
  for (size_t i = 0; i < keep; ++i) {
    AppendJournalFrame(journal.records[i].type, journal.records[i].seq,
                       journal.records[i].payload, &prefix);
  }
  return RewriteJournalFile(path, prefix, error);
}

bool TearJournalTail(const std::string& path, size_t tail_bytes,
                     std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> data;
  bool missing = false;
  if (!ReadJournalFile(path, &data, &missing, error)) return false;
  if (missing) {
    *error = "cannot tear a missing journal: " + path;
    return false;
  }
  data.resize(data.size() > tail_bytes ? data.size() - tail_bytes : 0);
  return RewriteJournalFile(path, data, error);
}

// ---------------------------------------------------------------------------
// Record payload codecs.

void EncodeQueryStartedRecord(const QueryStartedRecord& record,
                              std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.tick, out);
  bytes::PutInt64(record.query_index, out);
  bytes::PutInt64(record.value_id, out);
}

bool DecodeQueryStartedRecord(const std::vector<uint8_t>& payload,
                              QueryStartedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  QueryStartedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.tick) ||
      !bytes::GetInt64(payload, &cursor, &record.query_index) ||
      !bytes::GetInt64(payload, &cursor, &record.value_id) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.tick < 0 || record.query_index < 0) return false;
  *out = record;
  return true;
}

void EncodeCohortAssignedRecord(const CohortAssignedRecord& record,
                                std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.round_id, out);
  bytes::PutInt64Vector(record.client_ids, out);
}

bool DecodeCohortAssignedRecord(const std::vector<uint8_t>& payload,
                                CohortAssignedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  CohortAssignedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.round_id) ||
      !bytes::GetInt64Vector(payload, &cursor, &record.client_ids) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.round_id < 0) return false;
  *out = std::move(record);
  return true;
}

void EncodeMeterChargeRecord(const MeterChargeRecord& record,
                             std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.client_id, out);
  bytes::PutInt64(record.value_id, out);
  bytes::PutDouble(record.epsilon, out);
  bytes::PutByte(record.granted ? 1 : 0, out);
}

bool DecodeMeterChargeRecord(const std::vector<uint8_t>& payload,
                             MeterChargeRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  MeterChargeRecord record;
  uint8_t granted = 0;
  if (!bytes::GetInt64(payload, &cursor, &record.client_id) ||
      !bytes::GetInt64(payload, &cursor, &record.value_id) ||
      !bytes::GetDouble(payload, &cursor, &record.epsilon) ||
      !bytes::GetByte(payload, &cursor, &granted) ||
      cursor != payload.size()) {
    return false;
  }
  if (granted > 1) return false;
  record.granted = granted == 1;
  // A *granted* charge never carries an invalid epsilon — the meter denies
  // non-finite and negative values before journaling — so such a record is
  // corruption. A denied record keeps the offending epsilon verbatim so
  // replay can verify it bit-for-bit against the re-executed attempt.
  if (record.granted &&
      (!std::isfinite(record.epsilon) || record.epsilon < 0.0)) {
    return false;
  }
  *out = record;
  return true;
}

void EncodeReportAcceptedRecord(const ReportAcceptedRecord& record,
                                std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.round_id, out);
  bytes::PutInt64(record.report.client_id, out);
  bytes::PutInt64(record.report.bit_index, out);
  bytes::PutByte(static_cast<uint8_t>(record.report.bit), out);
}

bool DecodeReportAcceptedRecord(const std::vector<uint8_t>& payload,
                                ReportAcceptedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  ReportAcceptedRecord record;
  int64_t bit_index = 0;
  uint8_t bit = 0;
  if (!bytes::GetInt64(payload, &cursor, &record.round_id) ||
      !bytes::GetInt64(payload, &cursor, &record.report.client_id) ||
      !bytes::GetInt64(payload, &cursor, &bit_index) ||
      !bytes::GetByte(payload, &cursor, &bit) || cursor != payload.size()) {
    return false;
  }
  if (record.round_id < 0 || bit_index < 0 || bit_index >= kMaxBits ||
      bit > 1) {
    return false;
  }
  record.report.bit_index = static_cast<int>(bit_index);
  record.report.bit = bit;
  *out = record;
  return true;
}

void EncodeRoundClosedRecord(const RoundClosedRecord& record,
                             std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.round_id, out);
  EncodeRoundOutcome(record.outcome, out);
}

bool DecodeRoundClosedRecord(const std::vector<uint8_t>& payload,
                             RoundClosedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  RoundClosedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.round_id) ||
      !DecodeRoundOutcome(payload, &cursor, &record.outcome) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.round_id < 0) return false;
  *out = std::move(record);
  return true;
}

void EncodeQueryFinishedRecord(const QueryFinishedRecord& record,
                               std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.tick, out);
  bytes::PutInt64(record.query_index, out);
  EncodeCampaignTickResult(record.result, out);
  bytes::PutDoubleVector(record.final_bit_means, out);
}

bool DecodeQueryFinishedRecord(const std::vector<uint8_t>& payload,
                               QueryFinishedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  QueryFinishedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.tick) ||
      !bytes::GetInt64(payload, &cursor, &record.query_index) ||
      !DecodeCampaignTickResult(payload, &cursor, &record.result) ||
      !bytes::GetDoubleVector(payload, &cursor, &record.final_bit_means) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.tick < 0 || record.query_index < 0 ||
      record.tick != record.result.tick) {
    return false;
  }
  for (const double mean : record.final_bit_means) {
    if (std::isnan(mean)) return false;
  }
  *out = std::move(record);
  return true;
}

void EncodeCampaignTickRecord(const CampaignTickRecord& record,
                              std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.tick, out);
}

bool DecodeCampaignTickRecord(const std::vector<uint8_t>& payload,
                              CampaignTickRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  CampaignTickRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.tick) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.tick < 0) return false;
  *out = record;
  return true;
}

void EncodeResilienceEventRecord(const ResilienceEventRecord& record,
                                 std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  EncodeResilienceEvent(record.event, out);
}

bool DecodeResilienceEventRecord(const std::vector<uint8_t>& payload,
                                 ResilienceEventRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  ResilienceEventRecord record;
  if (!DecodeResilienceEvent(payload, &cursor, &record.event) ||
      cursor != payload.size()) {
    return false;
  }
  *out = record;
  return true;
}

}  // namespace bitpush
