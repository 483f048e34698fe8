// Good: the literal-seeded stream is deliberate and carries a reasoned
// waiver, so it lands in the budget instead of the findings.
#include <cstdint>

namespace bitpush {

uint64_t JitterEntropy() {
  // bitpush-lint: allow(determinism-flow): warm-up jitter feeds only the bench harness, outside the replay envelope
  Rng rng(12345);
  return rng.NextUint64();
}

}  // namespace bitpush
