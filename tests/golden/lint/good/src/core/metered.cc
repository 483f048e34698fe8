// A disclosure site in its sanctioned shape: the meter charge precedes
// the report, so every check stays silent.

#include <vector>

#include "core/clean.h"
#include "core/privacy_meter.h"
#include "federated/report.h"
#include "federated/wire.h"

namespace fixture {

void Submit(bitpush::PrivacyMeter* meter, std::vector<unsigned char>* out) {
  if (!meter->TryChargeBit(9, 1, 0.25)) return;
  const bitpush::BitReport report{9, 1, 0};
  EncodeBitReport(report, out);
}

}  // namespace fixture
