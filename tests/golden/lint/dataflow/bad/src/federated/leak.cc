// Bad: a raw codeword bit reaches a wire encoder with no perturbation
// between the encode (source) and the report serialization (sink).
#include <vector>

namespace bitpush {

void FlushRawReport(const FixedPointCodec& codec,
                    const std::vector<double>& values, BitReport& report,
                    std::vector<uint8_t>* out) {
  report.bit = static_cast<int>(codec.EncodeAll(values)[0] & 1);
  EncodeBitReport(report, out);
}

}  // namespace bitpush
