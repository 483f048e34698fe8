// Wire format for protocol messages.
//
// The deployment discussion (Section 5, "Communication costs") notes that
// the single private bit rides in a small packet alongside headers and the
// sampled bit index. This module defines that packet: fixed-width
// little-endian encoding with explicit bounds-checked decoding, so the
// transport layer of an integration has a concrete, testable contract.

#ifndef BITPUSH_FEDERATED_WIRE_H_
#define BITPUSH_FEDERATED_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "federated/report.h"

namespace bitpush {

// Format version carried in every frame header — shared by the persisted
// journal/snapshot records of src/persist/ and the shard tick frames of
// federated/shard/merge.h. Decoders reject any other value with a clean
// error rather than misparsing a frame laid out by a future (or corrupted)
// writer. Version 2: client coins are keyed draws (rng/keyed.h), so a
// version-1 journal's mid-flight query would not re-execute identically.
inline constexpr uint8_t kWireFormatVersion = 2;

// The fail-closed error for a `what` (e.g. "snapshot") whose version byte
// is `found`: names the found and the expected version.
std::string FormatVersionError(const std::string& what, uint8_t found);

// Serialized size (bytes) of one unframed report.
inline constexpr size_t kBitReportWireSize = 8 + 1 + 1;

// Appends the report to `out`.
void EncodeBitReport(const BitReport& report, std::vector<uint8_t>* out);

// Decodes one report starting at `offset`; on success advances `*offset`
// past the message and returns true. Returns false (leaving `*offset` and
// `*out` untouched) on truncated input or a bit value outside {0, 1}.
bool DecodeBitReport(const std::vector<uint8_t>& buffer, size_t* offset,
                     BitReport* out);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_WIRE_H_
