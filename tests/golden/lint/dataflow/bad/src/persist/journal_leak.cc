// Bad: a raw codeword bit is packed into a record payload and appended to
// the journal with no perturbation in between, so the client's true bit
// lands on disk.
#include <cstdint>
#include <vector>

namespace bitpush {

bool JournalRawBit(const FixedPointCodec& codec, double v,
                   JournalWriter& journal) {
  std::vector<uint8_t> payload;
  payload.push_back(FixedPointCodec::Bit(codec.Encode(v), 0));
  return journal.Append(JournalRecordType::kReportAccepted, payload);
}

}  // namespace bitpush
