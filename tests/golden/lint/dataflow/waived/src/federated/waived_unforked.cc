// Waived: literal-seeded smoke stream, reasoned.
#include <cstdint>

namespace bitpush {

double SmokeSample() {
  // bitpush-lint: allow(determinism-flow): smoke probe stream never crosses a replay boundary
  Rng rng(7);
  return rng.NextDouble();
}

}  // namespace bitpush
