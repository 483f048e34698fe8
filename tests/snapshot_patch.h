// Test helper: forges the reserved session field of an encoded coordinator
// snapshot (persist/snapshot.h). Shared by the snapshot codec, fuzz, and
// recovery suites, which all check that a nonzero count fails closed.

#ifndef BITPUSH_TESTS_SNAPSHOT_PATCH_H_
#define BITPUSH_TESTS_SNAPSHOT_PATCH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

// Rewrites the reserved uint32 of `*encoded` (the former open-session
// count, just before the breaker blob of `health_blob_bytes` bytes) as
// `count`, inserts `session_frames` after it, and re-seals the CRC. With a
// nonzero count and length-prefixed blobs in `session_frames` this is the
// frame a writer with open collection sessions would have produced; the
// result carries a valid CRC, so only the reserved-field check rejects it.
inline void PatchReservedSessionCount(
    uint32_t count, size_t health_blob_bytes, std::vector<uint8_t>* encoded,
    const std::vector<uint8_t>& session_frames = {}) {
  BITPUSH_CHECK_GE(encoded->size(), health_blob_bytes + 12);
  const size_t crc_at = encoded->size() - 4;
  const size_t after_count = crc_at - health_blob_bytes - 4;
  std::vector<uint8_t> body(encoded->begin(),
                            encoded->begin() +
                                static_cast<std::ptrdiff_t>(after_count - 4));
  bytes::PutUint32(count, &body);
  body.insert(body.end(), session_frames.begin(), session_frames.end());
  body.insert(body.end(),
              encoded->begin() + static_cast<std::ptrdiff_t>(after_count),
              encoded->begin() + static_cast<std::ptrdiff_t>(crc_at));
  bytes::PutUint32(bytes::Crc32(body), &body);
  *encoded = std::move(body);
}

}  // namespace bitpush

#endif  // BITPUSH_TESTS_SNAPSHOT_PATCH_H_
