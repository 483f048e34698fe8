// Waived: this calibration path discloses synthetic codewords only; the
// privacy-taint waiver is file-scoped because the taint and the sink are
// far apart.
// bitpush-lint: allow(privacy-taint): calibration fixture discloses synthetic codewords, never client values
#include <vector>

namespace bitpush {

void FlushCalibration(const FixedPointCodec& codec,
                      const std::vector<double>& synthetic,
                      std::vector<uint8_t>* out) {
  ShardTickFrame frame;
  frame.codewords = codec.EncodeAll(synthetic);
  EncodeShardTickFrame(frame, out);
}

}  // namespace bitpush
